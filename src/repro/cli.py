"""Command-line interface: analyze and solve rule files.

Usage::

    python -m repro solve program.mad [--facts facts.mad] [--method auto]
    python -m repro solve program.mad --trace out.jsonl --stats
    python -m repro profile program.mad [--top 10]
    python -m repro metrics program.mad [--format prometheus]
    python -m repro explain program.mad "s(a, c)"
    python -m repro validate-trace out.jsonl
    python -m repro postmortem repro-postmortem.jsonl
    python -m repro analyze program.mad
    python -m repro optimize program.mad
    python -m repro shard-plan program.mad [--format json]
    python -m repro lint program.mad [--format json] [--explain]
    python -m repro lint program.mad --fix [--diff | --check]
    python -m repro lint --catalog    # gate the built-ins on their verdicts
    python -m repro examples          # list the built-in paper programs
    python -m repro solve --program shortest-path --facts facts.mad

``lint`` prints coded, source-located diagnostics (``MAD101`` etc., see
docs/LANGUAGE.md) and exits with the maximum severity found: 0 (clean or
notes only), 1 (warnings), 2 (errors).  ``lint --fix`` applies the
machine-applicable repairs attached to mechanical diagnostics in place
(``--diff`` previews, ``--check`` only reports whether edits would be
made — for CI).

A lone ``-`` as a file argument reads rule text from stdin (``lint``
and ``solve``); with ``--fix`` the repaired text goes to stdout.

Rule files use the library's textual syntax (see README); facts files are
rule files containing only ground facts.  Output is the model, one atom
per line, optionally filtered to a predicate with ``--query``.

Telemetry surfaces (docs/OBSERVABILITY.md): ``solve --trace out.jsonl``
streams the versioned event schema as JSONL, ``solve --stats`` prints
per-SCC / per-rule tables to stderr, ``profile`` ranks rules and
predicates by cumulative executor time with convergence sparklines, and
``validate-trace`` checks trace files against the current schema.
``metrics`` solves once under the tracer and prints the solve's
mergeable metric instruments — counters, gauges and log-linear
histograms with p50/p95/p99 — as text, JSON, or Prometheus exposition.  Every traced solve carries a flight recorder (a bounded
ring of the last events); when a solve ends abnormally the ring is
dumped to ``--flight PATH`` (default ``repro-postmortem.jsonl``) and
``postmortem`` renders the debrief.

Optimizer surfaces (docs/OPTIMIZATION.md): ``optimize`` prints the
aggregate-pushdown verdicts (MAD8xx) to stderr and the rewritten
program to stdout.

``solve``, ``profile``, ``explain`` and ``metrics`` share one block of
solve flags — ``--check``, ``--method``, ``--max-iterations``,
``--plan``, ``--pushdown``, ``--shards``, ``--workers`` — whose values
and defaults are the options table of
:class:`repro.engine.options.SolveOptions` (README "Solving").

Parallelism surfaces (docs/PARALLELISM.md): ``shard-plan`` prints the
per-component shard-safety verdicts (MAD9xx) with their full witness
chains; ``solve --plan sharded`` evaluates analyzer-certified components
hash-partitioned across worker processes (``--shards`` / ``--workers``),
falling back per component — with the reason on the telemetry stream —
whenever the proof does not go through.  The model is bit-identical to
the sequential plans.

Robustness surfaces (docs/ROBUSTNESS.md): ``solve --timeout`` /
``--max-iterations`` / ``--max-atoms`` budget the fixpoint and degrade
to a sound partial model instead of spinning (under ``--max-atoms`` or
``--on-divergence`` alone, the evaluators' 100,000-round cap still ends
a run that never converges, exit 3); ``--checkpoint out.json``
saves a resumable checkpoint when a run is interrupted and
``--resume out.json`` continues it; ``--on-divergence abort`` turns the
MAD7xx divergence heuristics from warnings into a graceful stop.  A
first Ctrl-C cancels cooperatively (partial model + checkpoint); a
second one falls through to the default handler.

Exit codes (all commands except ``lint``, which exits with the maximum
diagnostic severity as documented above):

======  =========================================================
0       success
1       usage error (bad flags, unknown built-in, unreadable file)
2       the program was rejected (parse error, MAD diagnostics,
        failed admissibility/cost-consistency checks)
3       runtime error while evaluating
4       a budget interrupted the solve (timeout / cancellation /
        divergence abort / iteration or atom cap) — the partial
        model is printed and a checkpoint saved when requested
======  =========================================================
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.analysis.facts import ProgramFacts
from repro.core.database import Database
from repro.data.loader import DataLoadError
from repro.datalog.errors import (
    CostConsistencyError,
    ParseError,
    ProgramError,
    ReproError,
)
from repro.engine.exec import Prepared
from repro.engine.options import CHOICES, OptionError, SolveOptions
from repro.programs import ALL_PROGRAMS
from repro.util.limits import require

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DIAGNOSTICS = 2
EXIT_RUNTIME = 3
EXIT_BUDGET = 4


class CliUsageError(ReproError):
    """A command-line level mistake (exit ``EXIT_USAGE``), as opposed to
    a problem with the program text being analyzed or solved."""


def _checked(build: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
    """``build(*args, **kwargs)``, its ``ValueError`` (a flag value out of
    range) turned into the one-line usage error."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise CliUsageError(str(exc)) from None


def _read_source(path: str) -> str:
    """File contents; a lone ``-`` reads rule text from stdin."""
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _builtin_source(name: str) -> str:
    """The rule text of the built-in program ``name``."""
    catalog = {p.name: p for p in ALL_PROGRAMS}
    if name not in catalog:
        raise CliUsageError(
            f"unknown built-in program {name!r}; "
            f"try: {', '.join(sorted(catalog))}"
        )
    return catalog[name].source


def _load_database(args: argparse.Namespace) -> Database:
    name = args.program or (args.files[0] if args.files else "cli")
    db = Database(name=name)
    if args.program:
        db.load(_builtin_source(args.program))
    for path in args.files:
        db.load(_read_source(path))
    if args.facts:
        db.load(_read_source(args.facts))
    return db


def _ground_atom(text: str) -> Tuple[str, Tuple[Any, ...]]:
    """``(predicate, arguments)`` of the ground atom ``text`` names."""
    from repro.datalog.parser import parse_atom_text
    from repro.datalog.terms import Constant

    atom = parse_atom_text(text)
    for arg in atom.args:
        if not isinstance(arg, Constant):
            raise CliUsageError(
                f"cannot explain {text}: argument {arg} is not ground"
            )
    return atom.predicate, tuple(arg.value for arg in atom.args)


def _check_predicate(db: Database, predicate: str) -> None:
    """Reject a predicate the program does not declare, before solving."""
    if predicate not in db.program.declarations:
        raise CliUsageError(f"unknown predicate {predicate}")


def _print_model(result, query: Optional[str]) -> None:
    model = result.model
    names = [query] if query else sorted(model.relations)
    for name in names:
        rel = model.relation(name)
        for row in sorted(rel.rows(), key=repr):
            rendered = ", ".join(map(repr, row))
            print(f"{name}({rendered})")


def _make_tracer(args: argparse.Namespace):
    """``(tracer, flight recorder)`` when ``--trace`` / ``--stats`` /
    ``--flight`` asks for telemetry, else ``(None, None)``.

    Every CLI tracer carries a :class:`repro.obs.FlightRecorder` ring
    sink; ``cmd_solve`` dumps it when the solve ends abnormally."""
    _checked(require, "flight_size", args.flight_size, "positive integer")
    if not (args.trace or args.stats or args.flight):
        return None, None
    from repro.obs import FlightRecorder, JsonlSink, Tracer

    sinks = [JsonlSink(args.trace)] if args.trace else []
    flight = FlightRecorder(args.flight_size)
    sinks.append(flight)
    return Tracer(*sinks), flight


def _dump_flight(flight, args, *, status: str, reason: str) -> None:
    """Write the flight-recorder postmortem and say where it went.

    Without an explicit ``--flight PATH`` the dump goes to a
    collision-safe generated path (timestamp + pid + sequence), so
    concurrent solves in one directory never clobber each other's
    postmortems."""
    from repro.obs import default_dump_path

    path = getattr(args, "flight", None) or default_dump_path()
    flight.dump(path, status=status, reason=reason)
    print(
        f"% flight recorder dump written to {path} "
        f"(render with: repro postmortem {path})",
        file=sys.stderr,
    )


def _make_budget(args: argparse.Namespace):
    """A :class:`repro.engine.supervisor.Budget` from the solve flags,
    or ``None`` when no budget flag was given (unsupervised fast path)."""
    if (
        args.timeout is None
        and args.max_iterations is None
        and args.max_atoms is None
        and args.on_divergence == "warn"
    ):
        return None
    from repro.engine.supervisor import Budget

    return _checked(
        Budget,
        timeout=args.timeout,
        max_iterations=args.max_iterations,
        max_atoms=args.max_atoms,
        on_divergence=args.on_divergence,
    )


def _solve_options(args: argparse.Namespace) -> Dict[str, Any]:
    """The solve keyword arguments the :func:`_add_solve_flags` block set."""
    names = (field.name for field in dataclasses.fields(SolveOptions))
    return {n: v for n in names if (v := getattr(args, n)) is not None}


def cmd_solve(args: argparse.Namespace) -> int:
    from repro.engine.supervisor import CancelToken, sigint_cancels

    db = _load_database(args)
    explain = _ground_atom(args.explain) if args.explain else None
    if args.query:
        _check_predicate(db, args.query)
    if explain is not None:
        _check_predicate(db, explain[0])
    tracer, flight = _make_tracer(args)
    budget = _make_budget(args)
    resume = None
    if args.resume:
        from repro.engine.checkpoint import Checkpoint

        resume = Checkpoint.load(args.resume)
    cancel = CancelToken()
    try:
        with sigint_cancels(cancel):
            result = db.solve(
                **_solve_options(args),
                tracer=tracer,
                budget=budget,
                cancel=cancel,
                resume=resume,
                # An explained atom's tree reads beyond the query's cone.
                query=None if explain else args.query or None,
            )
    except ReproError as exc:
        # The ring holds the solve's final moments — dump it before the
        # error propagates so the crash is debriefable offline.
        if flight is not None:
            _dump_flight(flight, args, status="error", reason=str(exc))
        raise
    finally:
        if tracer is not None:
            tracer.close()
    for diagnostic in result.runtime_diagnostics:
        print(diagnostic.format(), file=sys.stderr)
    interrupted = result.status != "complete"
    if explain is not None and not interrupted:
        print(result.explain(*explain))
        return EXIT_OK
    _print_model(result, args.query)
    for predicates, used, iterations in result.method_by_component():
        rendered = ", ".join(predicates)
        print(
            f"% scc {{{rendered}}}: {used} ({iterations} iterations)",
            file=sys.stderr,
        )
    print(
        f"% {result.total_iterations} T_P iterations over "
        f"{len(result.components)} components",
        file=sys.stderr,
    )
    if args.stats and result.telemetry is not None:
        print(result.telemetry.render_stats(), file=sys.stderr)
    if args.trace:
        print(f"% trace written to {args.trace}", file=sys.stderr)
    if interrupted:
        detail = f": {result.reason}" if result.reason else ""
        print(
            f"% solve interrupted ({result.status}{detail}); the model "
            f"above is a sound lower bound",
            file=sys.stderr,
        )
        if flight is not None:
            _dump_flight(
                flight, args, status=result.status, reason=result.reason or ""
            )
        if args.checkpoint and result.checkpoint is not None:
            result.checkpoint.save(args.checkpoint)
            print(
                f"% checkpoint written to {args.checkpoint} "
                f"(resume with --resume)",
                file=sys.stderr,
            )
        return EXIT_BUDGET
    return EXIT_OK


def cmd_profile(args: argparse.Namespace) -> int:
    """Solve once under a tracer and print the ranked hot-rule report."""
    from repro.obs import JsonlSink, Tracer

    _checked(require, "top", args.top, "positive integer")
    db = _load_database(args)
    sinks = [JsonlSink(args.trace)] if args.trace else []
    tracer = Tracer(*sinks)
    try:
        result = db.solve(**_solve_options(args), tracer=tracer)
    finally:
        tracer.close()
    assert result.telemetry is not None
    print(result.telemetry.render_profile(top=args.top))
    if args.trace:
        print(f"% trace written to {args.trace}", file=sys.stderr)
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    """Solve and render the derivation tree of one model atom."""
    _checked(require, "max_depth", args.max_depth, "non-negative integer")
    # The last positional is the atom; everything before it is rule files.
    args.files = args.args[:-1]
    db = _load_database(args)
    predicate, key = _ground_atom(args.args[-1])
    _check_predicate(db, predicate)
    # The tree follows the rules as written, whose cone pushdown can shrink.
    own = Prepared(None, ProgramFacts(db.program).components).cone(predicate)
    query = frozenset(p for _, component in own for p in component.cdb)
    result = db.solve(**_solve_options(args), query=query)
    print(result.explain(predicate, key, max_depth=args.max_depth))
    return 0


def cmd_validate_trace(args: argparse.Namespace) -> int:
    """Validate JSONL trace files against the event schema.

    Only the current schema version passes; any other ``v`` fails with
    an error naming the version found and the one understood.
    """
    from repro.obs import SCHEMA_VERSION, validate_jsonl

    failures = 0
    for path in args.files:
        problems = validate_jsonl(path)
        if problems:
            failures += 1
            print(f"{path}: INVALID")
            for problem in problems:
                print(f"  {problem}")
        else:
            print(f"{path}: ok (schema v{SCHEMA_VERSION})")
    return 1 if failures else 0


def cmd_metrics(args: argparse.Namespace) -> int:
    """Solve once under the tracer and print the metric instruments.

    The registry covers the whole solve — for ``--plan sharded`` the
    shard workers' instruments are merged in at the barrier, so the
    histograms and counters include worker-side work at full fidelity.
    """
    from repro.obs import Tracer

    db = _load_database(args)
    tracer = Tracer()
    try:
        db.solve(**_solve_options(args), tracer=tracer)
    finally:
        tracer.close()
    if args.format == "json":
        import json as _json

        print(_json.dumps(tracer.metrics.snapshot(), indent=2, sort_keys=True))
    elif args.format == "prometheus":
        print(tracer.metrics.render_prometheus())
    else:
        print(tracer.metrics.render_text())
    return EXIT_OK


def cmd_postmortem(args: argparse.Namespace) -> int:
    """Render a flight-recorder dump's human-readable debrief."""
    from repro.obs import load_dump, render_postmortem

    _checked(require, "tail", args.tail, "non-negative integer")
    try:
        header, events = load_dump(args.file)
    except ValueError as exc:
        raise CliUsageError(str(exc)) from exc
    print(render_postmortem(header, events, tail=args.tail))
    return EXIT_OK


def cmd_analyze(args: argparse.Namespace) -> int:
    db = _load_database(args)
    report = db.analyze()
    print(report)
    return EXIT_OK if report.ok else EXIT_DIAGNOSTICS


def cmd_optimize(args: argparse.Namespace) -> int:
    """Print the aggregate-pushdown rewrite of a program.

    Per-occurrence MAD8xx verdicts go to stderr; the rewritten program
    (identical to the input when nothing applies) goes to stdout as
    re-parseable rule text.  This is exactly the rewrite ``solve``
    applies internally unless ``--pushdown off`` is given.
    """
    from repro.analysis.premap import apply_pushdown
    from repro.datalog.pretty import program_to_text

    db = _load_database(args)
    program = db.program
    report = ProgramFacts(program).premappability
    if report.verdicts:
        for verdict in report.verdicts:
            print(f"% {verdict}", file=sys.stderr)
    else:
        print("% no recursive aggregate occurrences", file=sys.stderr)
    result = apply_pushdown(program, report)
    if not result.changed:
        print("% no applicable pushdown; program unchanged", file=sys.stderr)
    print(program_to_text(result.program))
    return EXIT_OK


def cmd_shard_plan(args: argparse.Namespace) -> int:
    """Print per-component shard-safety verdicts (docs/PARALLELISM.md).

    Text mode shows each component's status line plus the full witness
    chain and merge-algebra verdicts; ``--format json`` emits a
    machine-readable array, one object per component.  This is exactly
    the analysis ``solve --plan sharded`` consults before forking.
    """
    import json as json_module

    db = _load_database(args)
    report = ProgramFacts(db.program).sharding
    if args.format == "json":
        payload = []
        for verdict in report.components:
            payload.append(
                {
                    "predicates": sorted(verdict.component.cdb),
                    "recursive": bool(verdict.component.internal_kinds),
                    "status": verdict.status,
                    "key": (
                        {
                            p: i
                            for p, i in sorted(
                                verdict.key.positions.items()
                            )
                        }
                        if verdict.key is not None
                        else None
                    ),
                    "witness": verdict.witness,
                    "witnesses": [
                        {
                            "condition": w.condition,
                            "detail": w.detail,
                            "ok": w.ok,
                        }
                        for w in verdict.witnesses
                    ],
                    "rewrites": list(verdict.rewrites),
                }
            )
        print(json_module.dumps(payload, indent=2))
    else:
        print(report.render())
    return EXIT_OK


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.diagnostics import (
        Severity,
        lint_source,
        render_json,
        render_text,
    )

    if args.catalog:
        if args.files or args.program:
            raise CliUsageError(
                "--catalog lints the built-in programs only; "
                "drop the file/--program arguments or run them separately"
            )
        return _lint_catalog(args)
    sources = []
    if args.program:
        sources.append((args.program, _builtin_source(args.program)))
    for path in args.files:
        sources.append((path, _read_source(path)))
    if not sources:
        raise CliUsageError(
            "nothing to lint: give files, --program or --catalog"
        )

    if args.fix or args.diff or args.check:
        if args.program:
            raise CliUsageError(
                "--fix edits files in place; it cannot repair a "
                "built-in program"
            )
        return _lint_fix(args, sources)

    diagnostics = []
    for name, text in sources:
        diagnostics.extend(lint_source(text, name=name))
    if args.format == "json":
        print(render_json(diagnostics))
    else:
        print(render_text(diagnostics, explain=args.explain))
    worst = max((d.severity for d in diagnostics), default=Severity.INFO)
    return int(worst)


def _lint_fix(args: argparse.Namespace, sources) -> int:
    """``lint --fix`` / ``--diff`` / ``--check`` over ``sources``.

    * default: rewrite each file in place (stdin → stdout) and exit with
      the maximum severity remaining in the *fixed* text;
    * ``--diff``: print a unified diff instead of writing;
    * ``--check``: write nothing; exit 1 iff any file would change
      (the CI fix-point gate).
    """
    from repro.analysis.diagnostics import Severity
    from repro.analysis.fixes import fix_text, render_diff

    worst = Severity.INFO
    would_change = False
    for name, text in sources:
        result = fix_text(text, name=name)
        would_change = would_change or result.changed
        for d in result.remaining:
            if d.severity > worst:
                worst = d.severity
        if args.check:
            if result.changed:
                print(f"{name}: {len(result.applied)} fix(es) available")
                for title in result.applied:
                    print(f"    {title}")
            continue
        if args.diff:
            if result.changed:
                print(render_diff(result, name), end="")
            continue
        if result.changed:
            if name == "-":
                sys.stdout.write(result.text)
            else:
                with open(name, "w", encoding="utf-8") as handle:
                    handle.write(result.text)
            print(
                f"{name}: applied {len(result.applied)} fix(es)",
                file=sys.stderr,
            )
        elif name == "-":
            sys.stdout.write(result.text)
    if args.check:
        return 1 if would_change else 0
    return int(worst)


def _lint_catalog(args: argparse.Namespace) -> int:
    """Lint every built-in paper program against its expected verdicts."""
    from repro.analysis.diagnostics import expected_mismatches, lint_source

    failures = 0
    rows = []
    for paper_program in ALL_PROGRAMS:
        diagnostics = lint_source(
            paper_program.source, name=paper_program.name
        )
        problems = expected_mismatches(paper_program.expected, diagnostics)
        codes = sorted({d.code for d in diagnostics})
        rows.append(
            {
                "name": paper_program.name,
                "codes": codes,
                "ok": not problems,
                "mismatches": problems,
            }
        )
        if problems:
            failures += 1
    if args.format == "json":
        import json as _json

        print(_json.dumps({"programs": rows, "failures": failures}, indent=2))
    else:
        for row in rows:
            status = "ok" if row["ok"] else "MISMATCH"
            rendered = ", ".join(row["codes"]) or "clean"
            print(f"{row['name']:32s} {status:8s} [{rendered}]")
            for problem in row["mismatches"]:
                print(f"    {problem}")
        print(
            f"% {len(rows) - failures}/{len(rows)} programs lint as the "
            f"paper classifies them"
        )
    return 2 if failures else 0


def cmd_examples(_args: argparse.Namespace) -> int:
    for paper_program in ALL_PROGRAMS:
        print(f"{paper_program.name:30s} {paper_program.reference}")
    return 0


def cmd_repl(args: argparse.Namespace) -> int:
    """Line-oriented shell over a Database; pipeable for smoke scripts."""
    from repro.repl import run_repl

    db = _load_database(args)
    return run_repl(db, method=args.method)


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the resilient solve service (docs/SERVING.md).

    Hosts one named database per ``NAME=FILE`` argument (or per file,
    named by its stem) plus any ``--program`` built-ins.  Serves until
    SIGTERM/SIGINT, then drains: readiness flips, new solves are
    refused, in-flight solves get ``--drain-grace`` seconds and are
    then cancelled cooperatively (each responds with a resumable
    checkpoint reference) before the process exits 0.
    """
    import asyncio
    import os
    import signal

    from repro.serve import ServeSettings, SolveServer, host_program_text

    databases = {}

    def _host(name: str, source: str) -> None:
        if name in databases:
            raise CliUsageError(f"duplicate database name {name!r}")
        databases[name] = host_program_text(name, source)

    for spec in args.databases:
        if "=" in spec:
            name, _, path = spec.partition("=")
        else:
            name, path = os.path.splitext(os.path.basename(spec))[0], spec
        _host(name, _read_source(path))
    for program in args.program or []:
        _host(program, _builtin_source(program))
    if not databases:
        raise CliUsageError(
            "nothing to serve: give rule files (NAME=FILE) or --program"
        )

    server = SolveServer(
        databases,
        _checked(
            ServeSettings,
            host=args.host,
            port=args.port,
            max_inflight=args.max_inflight,
            queue_depth=args.queue_depth,
            default_timeout=args.timeout,
            max_timeout=args.max_timeout,
            drain_grace=args.drain_grace,
            flight_size=args.flight_size,
            flight_dir=args.flight_dir,
            checkpoint_dir=args.checkpoint_dir or None,
            default_method=args.method,
        ),
    )

    async def _serve() -> None:
        await server.start()
        loop = asyncio.get_running_loop()
        # SIGTERM and SIGINT both begin a graceful drain; the handler is
        # idempotent, so a second signal during the drain is harmless.
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(signum, server.begin_drain)
        print(
            f"% serving {', '.join(sorted(databases))} on "
            f"http://{args.host}:{server.port} "
            f"(max {args.max_inflight} in flight, queue "
            f"{args.queue_depth}; SIGTERM drains)",
            file=sys.stderr,
        )
        if args.port_file:
            with open(args.port_file, "w", encoding="utf-8") as handle:
                handle.write(f"{server.port}\n")
        try:
            await server.run_until_shutdown()
        finally:
            for signum in (signal.SIGINT, signal.SIGTERM):
                loop.remove_signal_handler(signum)
        print("% drained; exiting", file=sys.stderr)

    asyncio.run(_serve())
    return EXIT_OK


_SOLVE_FLAG_HELP = {
    "check": "static checks that gate evaluation",
    "method": "evaluation mode; 'auto' picks per component from the "
    "classification pass",
    "max_iterations": "fixpoint rounds per component before the evaluator "
    "gives up (exit 3); under 'solve' a budget of rounds across the whole "
    "solve, which stops gracefully instead (exit 4, status 'partial')",
    "plan": "join-ordering mode of the compiled executor; 'off' keeps "
    "the legacy schedule order; 'sharded' hash-partitions "
    "analyzer-certified components across worker processes "
    "(docs/PARALLELISM.md)",
    "pushdown": "aggregate-pushdown optimization (docs/OPTIMIZATION.md); "
    "'off' evaluates the program as written — the model is identical "
    "either way",
    "shards": "with --plan sharded: hash partitions per component "
    "(default: 4x workers, min 8)",
    "workers": "with --plan sharded: worker processes (default: cpu count)",
}


def _add_solve_flags(
    parser: argparse.ArgumentParser, *, method_default: str
) -> None:
    """One flag per ``SolveOptions`` field (README "Solving"), for every
    subcommand that solves.  A flag not given stays ``None`` and the
    field keeps its ``SolveOptions`` default."""
    for field in dataclasses.fields(SolveOptions):
        choices = CHOICES.get(field.name)
        parser.add_argument(
            "--" + field.name.replace("_", "-"),
            choices=choices,
            type=str if choices else int,
            default=method_default if field.name == "method" else None,
            help=_SOLVE_FLAG_HELP[field.name],
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Monotonic aggregation in deductive databases "
        "(Ross & Sagiv, PODS 1992)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "files", nargs="*", help="rule files in the library's syntax"
        )
        p.add_argument(
            "--program",
            help="start from a built-in paper program (see 'examples')",
        )
        p.add_argument("--facts", help="extra facts file")

    solve = sub.add_parser("solve", help="compute the iterated minimal model")
    add_common(solve)
    _add_solve_flags(solve, method_default="naive")
    solve.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="budget: wall-clock deadline for the whole solve; on expiry "
        "the sound partial model is printed and exit code is 4",
    )
    solve.add_argument(
        "--max-atoms",
        type=int,
        default=None,
        help="budget: cap on total derived atoms across the model",
    )
    solve.add_argument(
        "--on-divergence",
        choices=["warn", "abort"],
        default="warn",
        help="MAD7xx divergence heuristics: warn on stderr (default) or "
        "abort gracefully with status 'diverging' (exit 4)",
    )
    solve.add_argument(
        "--checkpoint",
        metavar="OUT.json",
        help="when a budget or Ctrl-C interrupts the solve, save a "
        "resumable checkpoint here (see docs/ROBUSTNESS.md)",
    )
    solve.add_argument(
        "--resume",
        metavar="CKPT.json",
        help="resume an interrupted solve from a checkpoint saved with "
        "--checkpoint; the final model equals an uninterrupted run's",
    )
    solve.add_argument("--query", help="print only this predicate; solve its cone")
    solve.add_argument(
        "--explain",
        help="derivation tree for one atom, e.g. \"s(a, c)\" "
        "(key arguments only for cost predicates)",
    )
    solve.add_argument(
        "--trace",
        metavar="OUT.jsonl",
        help="stream schema'd telemetry events to this JSONL file "
        "(see docs/OBSERVABILITY.md)",
    )
    solve.add_argument(
        "--stats",
        action="store_true",
        help="print per-SCC / per-rule statistics to stderr after solving",
    )
    solve.add_argument(
        "--flight",
        metavar="OUT.jsonl",
        help="flight-recorder dump path for abnormal endings (budget / "
        "cancellation / divergence / crash); giving the flag enables "
        "telemetry even without --trace/--stats.  Default path when "
        "traced: a collision-safe generated name "
        "(repro-postmortem-<stamp>-<pid>.jsonl)",
    )
    solve.add_argument(
        "--flight-size",
        type=int,
        default=256,
        metavar="N",
        help="flight-recorder ring capacity: how many trailing events a "
        "postmortem dump retains (default 256)",
    )
    solve.set_defaults(handler=cmd_solve)

    profile = sub.add_parser(
        "profile",
        help="solve under the tracer and print ranked hot-rule / "
        "hot-predicate tables with per-SCC convergence sparklines",
    )
    add_common(profile)
    _add_solve_flags(profile, method_default="auto")
    profile.add_argument(
        "--top",
        type=int,
        default=10,
        help="rows in the hot-rule ranking (default 10)",
    )
    profile.add_argument(
        "--trace",
        metavar="OUT.jsonl",
        help="also stream the raw event trace to this JSONL file",
    )
    profile.set_defaults(handler=cmd_profile)

    explain = sub.add_parser(
        "explain",
        help="solve and render the derivation tree of one model atom "
        "(engine.provenance)",
    )
    explain.add_argument(
        "args",
        nargs="+",
        metavar="FILE ... ATOM",
        help="rule files followed by the atom to explain, e.g. "
        "\"s(a, c)\" (key arguments only for cost predicates)",
    )
    explain.add_argument(
        "--program",
        help="start from a built-in paper program (see 'examples')",
    )
    explain.add_argument("--facts", help="extra facts file")
    _add_solve_flags(explain, method_default="naive")
    explain.add_argument(
        "--max-depth",
        type=int,
        default=12,
        help="cut the derivation tree at this depth (default 12)",
    )
    explain.set_defaults(handler=cmd_explain)

    validate_trace = sub.add_parser(
        "validate-trace",
        help="check JSONL trace files against the current telemetry "
        "event schema (any other version fails, naming it)",
    )
    validate_trace.add_argument(
        "files", nargs="+", help="JSONL trace files (from --trace)"
    )
    validate_trace.set_defaults(handler=cmd_validate_trace)

    metrics = sub.add_parser(
        "metrics",
        help="solve under the tracer and print the mergeable metric "
        "instruments — counters, gauges, p50/p95/p99 histograms — "
        "as text, JSON, or Prometheus exposition "
        "(docs/OBSERVABILITY.md)",
    )
    add_common(metrics)
    _add_solve_flags(metrics, method_default="auto")
    metrics.add_argument(
        "--format",
        choices=["text", "json", "prometheus"],
        default="text",
    )
    metrics.set_defaults(handler=cmd_metrics)

    postmortem = sub.add_parser(
        "postmortem",
        help="render a flight-recorder dump (from an abnormally ended "
        "solve) as a human-readable debrief",
    )
    postmortem.add_argument(
        "file", help="a dump written by solve --flight (JSONL)"
    )
    postmortem.add_argument(
        "--tail",
        type=int,
        default=10,
        help="events to show from the end of the ring (default 10)",
    )
    postmortem.set_defaults(handler=cmd_postmortem)

    analyze = sub.add_parser(
        "analyze", help="run the static pipeline (Defs 2.5, 2.10, 4.5)"
    )
    add_common(analyze)
    analyze.set_defaults(handler=cmd_analyze)

    optimize = sub.add_parser(
        "optimize",
        help="print the aggregate-pushdown rewrite: MAD8xx verdicts on "
        "stderr, the rewritten program on stdout "
        "(see docs/OPTIMIZATION.md)",
    )
    add_common(optimize)
    optimize.set_defaults(handler=cmd_optimize)

    shard_plan = sub.add_parser(
        "shard-plan",
        help="print per-component shard-safety verdicts (MAD9xx) with "
        "witness chains and the proven partitioning keys "
        "(see docs/PARALLELISM.md)",
    )
    add_common(shard_plan)
    shard_plan.add_argument(
        "--format", choices=["text", "json"], default="text"
    )
    shard_plan.set_defaults(handler=cmd_shard_plan)

    lint = sub.add_parser(
        "lint",
        help="coded diagnostics (MAD1xx safety, MAD2xx conflicts, "
        "MAD3xx admissibility, ...); exit code = max severity",
    )
    lint.add_argument(
        "files", nargs="*", help="rule files in the library's syntax"
    )
    lint.add_argument(
        "--program",
        help="lint a built-in paper program (see 'examples')",
    )
    lint.add_argument(
        "--catalog",
        action="store_true",
        help="lint every built-in paper program and fail unless the "
        "findings match the paper's own classification",
    )
    lint.add_argument(
        "--format", choices=["text", "json"], default="text"
    )
    lint.add_argument(
        "--explain",
        action="store_true",
        help="append the violated definition and paper reference to "
        "each finding",
    )
    lint.add_argument(
        "--fix",
        action="store_true",
        help="apply machine-applicable repairs in place (stdin → stdout)",
    )
    lint.add_argument(
        "--diff",
        action="store_true",
        help="with --fix: print a unified diff instead of writing",
    )
    lint.add_argument(
        "--check",
        action="store_true",
        help="with --fix: write nothing, exit 1 iff fixes would apply",
    )
    lint.set_defaults(handler=cmd_lint)

    examples = sub.add_parser("examples", help="list built-in paper programs")
    examples.set_defaults(handler=cmd_examples)

    repl = sub.add_parser(
        "repl",
        help="line-oriented shell: load rules and CSV/JSONL facts, "
        "solve, query — pipeable (repro repl < script)",
    )
    add_common(repl)
    repl.add_argument("--method", choices=CHOICES["method"], default="auto")
    repl.set_defaults(handler=cmd_repl)

    serve = sub.add_parser(
        "serve",
        help="run the resilient solve service: named databases over "
        "HTTP/JSON with per-request budgets, admission control and "
        "SIGTERM drain-and-checkpoint (docs/SERVING.md)",
    )
    serve.add_argument(
        "databases",
        nargs="*",
        metavar="NAME=FILE",
        help="rule files to host, each as one named database "
        "(bare FILE uses its stem as the name)",
    )
    serve.add_argument(
        "--program",
        action="append",
        help="also host a built-in paper program (repeatable)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=8750,
        help="listen port; 0 picks an ephemeral port (default 8750)",
    )
    serve.add_argument(
        "--port-file",
        metavar="PATH",
        help="write the bound port here once listening (for scripts "
        "starting the server with --port 0)",
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=4,
        help="concurrent solves (worker threads, default 4)",
    )
    serve.add_argument(
        "--queue-depth",
        type=int,
        default=8,
        help="admitted-but-waiting requests tolerated before the server "
        "sheds with 503 + Retry-After (default 8)",
    )
    serve.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="server-side default per-request budget (default 30)",
    )
    serve.add_argument(
        "--max-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="hard cap on client-requested budgets (default: none)",
    )
    serve.add_argument(
        "--drain-grace",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="after SIGTERM, seconds in-flight solves may finish before "
        "their cancel tokens are tripped (default 5)",
    )
    serve.add_argument(
        "--flight-size",
        type=int,
        default=256,
        metavar="N",
        help="per-request flight-recorder ring capacity (default 256)",
    )
    serve.add_argument(
        "--flight-dir",
        default=".",
        help="directory for postmortem dumps of crashed requests",
    )
    serve.add_argument(
        "--checkpoint-dir",
        default=".",
        help="directory for checkpoints of interrupted solves "
        "('' disables checkpointing)",
    )
    serve.add_argument(
        "--method",
        choices=CHOICES["method"],
        default="auto",
        help="default evaluation mode (requests may override)",
    )
    serve.set_defaults(handler=cmd_serve)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags; fold that into the usage class
        # (1) and keep 0 for --help.
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.handler(args)
    except (CliUsageError, OptionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (
        ParseError,
        ProgramError,
        CostConsistencyError,
        DataLoadError,
    ) as exc:
        # The *input* is at fault: parse errors, rejected analysis
        # (safety/typing/admissibility), cost-consistency violations,
        # MAD10xx-coded data-file rejections.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIAGNOSTICS
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
