"""Internal coding conventions, enforced statically over the source tree.

Invariants the engine's correctness arguments lean on:

1. **One write into a Relation: ``join_rows``.**  ``Relation.join_rows``
   is the lub of Theorem 3.1 (``strict=False``) and Definition 2.6's
   checked write (``strict=True``); it keeps the incremental indexes
   consistent (or drops them) on every code path, including raising
   ones (see the fault-injection suite).  The row
   mutators it replaced (``add_tuple`` / ``set_cost`` /
   ``merge_tuples`` and their ``_on_insert`` / ``_on_replace`` upkeep)
   stay gone, and direct writes to the raw ``tuples`` / ``costs``
   containers — which bypass the upkeep and resurface torn indexes —
   appear nowhere but inside ``join_rows`` and ``Relation.carry``, which
   patches a Kleene round's successor's set and indexes together.

2. **Engine hot loops use the supervisor/tracer clocks, not
   ``time.time()``.**  ``time.time()`` is wall-clock (it jumps on NTP
   adjustments) and uncontrollable in tests; the supervisor's injected
   ``clock`` and the tracer's ``clock`` are monotonic and fakeable.  A
   stray ``time.time()`` in a fixpoint loop silently escapes both the
   budget machinery and the telemetry timebase.

3. **One delta path, documented as generated.**  The per-seed
   evaluators (``_delta_seeds`` / ``_match_row`` / ``_apply_derivation``,
   a kernel reading ``seed[...]``) are gone, not forked, and the kernel
   sources docs/PERFORMANCE.md §3 prints are the sources the compiler
   generates today.

4. **One relation backend.**  ``ColumnarRelation`` and the ``storage=``
   option that selected it were deleted (docs/STORAGE.md, "Why one
   backend"); neither the name nor the option comes back under ``src/``.

5. **The answer cache has no knob, and answers are encoded off the
   event loop.**  ``ServeSettings``, ``repro serve --help`` and
   ``RequestSupervisor(...)`` are what they were before the cache
   (docs/SERVING.md, "Answer cache"), and a ``/solve`` outcome reaches
   the socket as the bytes its worker thread encoded.

6. **One write path for every EDB row.**  CSV, JSONL and inline facts
   reach a relation through ``Relation.join_rows(slice, strict=True)``
   and nothing else: no per-row mutator call in ``repro/data/`` or in
   ``Database.edb``, and no option that selects between paths
   (docs/STORAGE.md, "The bulk data plane").  The row-at-a-time loaders
   live on only as the oracle in ``tests/test_loader.py``.

7. **One run, one set of facts.**  A front-end run asks
   :class:`repro.analysis.facts.ProgramFacts` for every whole-program
   analysis result; no lint adapter, no ``analyze_program``, no solver
   branch and no CLI command calls a whole-program pass itself (the
   self-contained adapters live on only in
   ``tests/reference_analysis.py``).  The facts live for the run:
   nothing is cached at module level, in a context variable or on the
   ``Program``, and no option selects a second path
   (docs/ANALYSIS.md, "One run, one set of facts").  ``ProgramFacts``
   is the one analysis object: ``AnalysisReport`` stays gone, and
   ``solve()`` reads the facts it gates on rather than going through
   ``analyze_program``.

8. **Greedy is a worklist policy, not a driver.**  The settle-at-a-time
   loop, its private ``max_pops`` bound and the ``assume_invariant``
   promise it never checked are gone: cost order is a cost model over
   the one delta round (``engine/greedy.py``), bounded by
   ``max_iterations`` like every policy, so neither name comes back
   under ``src/``.

9. **One fixpoint loop.**  Kleene iteration is the ``write="replace"``
   mode of :func:`repro.engine.fixpoint.fixpoint`, not a second loop:
   ``kleene_fixpoint``, ``engine/naive.py`` and ``engine/tp.py`` stay
   gone, the loop has one write block, one ``on_round`` call and one
   ``iteration`` event, and ``src/repro/engine/`` only shrinks.

10. **One ``SolveOptions``.**  The allowed values of ``check``,
   ``method`` and ``plan`` are each spelled out in one ``src/`` module
   (``engine/options.py``; the executor's own two plan modes in
   ``engine/exec.py``), which is also where they are checked: every
   front door forwards its options and re-declares none
   (``tests/test_solve_options.py`` holds them to one message).

11. **A component's state holds its CDB only.**  ``J``, the Kleene
   target, ``apply_tp``'s output and the shard seeds are built by
   ``fixpoint.cdb_interpretation``; no component state in the fixpoint,
   solver or sharded modules is an ``Interpretation`` over every
   declaration.

12. **One telemetry schema.**  A telemetry field is named in
   ``obs/events.py:EVENT_TYPES`` and read straight off the events:
   ``obs/summary.py`` declares no row type, the tracer keeps no plan
   probe count beside the ``plan.cache_*`` counters, a metric merges
   only by restoring a snapshot, and ``src/repro/obs/`` only shrinks.

13. **One scheduler.**  Whether a subgoal is ready is
   ``grounding.subgoal_readiness`` and which ready subgoal runs next is
   ``grounding.schedule`` (``plan="smart"`` is a ranking it is handed,
   not a loop of its own); aggregate interiors are ordered by
   ``grounding.order_conjuncts``.  The copies those replaced
   (``fixes._newly_bound``, ``exec._order_conjuncts``, ``plan_order``'s
   loop) and the second program printer ``premap.render_program`` stay
   gone.

14. **A relation is its container and its indexes.**  A ``Relation``
   holds ``decl``, ``tuples``/``costs`` and ``_indexes`` and nothing
   else: an unbound scan iterates the container, so the row cache, its
   counter and the copies that carried indexes over stay gone, and
   ``src/`` as a whole only shrinks.

15. **One owner for the round cap.**  Whether a ``Budget`` replaces the
   evaluators' ``max_iterations`` cap is decided in ``solve()`` only: no
   front door overrides the cap with a sentinel of its own (the old
   ``UNCAPPED`` constant stays gone from ``src/`` and ``tests/``), and
   ``Budget`` holds exactly the four limits its callers set.

16. **PERFORMANCE.md describes the engine, not its history.**  It stays
   within 700 lines, every citation of one of its sections resolves to
   a ``## N.`` heading, and its † counter table names every counter
   perfbench gates exactly.

17. **EXPERIMENTS.md quotes what ``benchmarks/`` prints.**  A fenced
   block that opens with ``== NAME ==`` is ``benchmarks/out/NAME.txt``
   verbatim, and every ``out/NAME.txt`` the file names is quoted so.

The checks of 1-4, 8 and 14 are text-based on purpose: they run without
imports, see every module (including ones tests never load), and the
patterns are specific enough to need no allowlist.
"""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

#: Direct writes to a Relation's raw containers.  Reads (``in``,
#: ``.get``, iteration) are fine — only mutation is index-bearing.
MUTATION_PATTERNS = [
    re.compile(r"\.tuples\.add\("),
    re.compile(r"\.tuples\.update\("),
    re.compile(r"\.tuples\.discard\("),
    re.compile(r"\.tuples\.remove\("),
    re.compile(r"\.tuples\.clear\("),
    re.compile(r"\.tuples\s*\|="),
    re.compile(r"\.tuples\s*-="),
    re.compile(r"\.costs\[[^\]]+\]\s*="),
    re.compile(r"\.costs\.pop\("),
    re.compile(r"\.costs\.update\("),
    re.compile(r"\.costs\.clear\("),
]

#: Engine modules whose loops run per fixpoint round / per derivation.
ENGINE_HOT_MODULES = [
    "engine/exec.py",
    "engine/fixpoint.py",
    "engine/greedy.py",
    "engine/sharded.py",
    "engine/solver.py",
    "engine/grounding.py",
    "engine/supervisor.py",
]

TIME_TIME = re.compile(r"\btime\.time\(\)")


def _source_files():
    return sorted(SRC.rglob("*.py"))


def _violations(path: Path, patterns):
    rel = path.relative_to(SRC).as_posix()
    out = []
    for lineno, line in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        stripped = line.strip()
        if stripped.startswith("#"):
            continue
        for pattern in patterns:
            if pattern.search(line):
                out.append(f"{rel}:{lineno}: {stripped}")
    return out


#: The row mutators ``join_rows`` replaced, defined or called.
ROW_MUTATORS = re.compile(
    r"\b(add_tuple|set_cost|merge_tuples|_on_insert|_on_replace)\b"
)


def test_relation_mutation_goes_through_helpers():
    offenders = []
    for path in _source_files():
        offenders.extend(_violations(path, MUTATION_PATTERNS + [ROW_MUTATORS]))
    assert not offenders, (
        "a Relation write outside join_rows (a row mutator, or a direct "
        "container write; use Relation.join_rows):\n  "
        + "\n  ".join(offenders)
    )


def test_no_wall_clock_in_engine_hot_loops():
    offenders = []
    for rel in ENGINE_HOT_MODULES:
        path = SRC / rel
        assert path.exists(), f"hot-loop module list is stale: {rel}"
        offenders.extend(_violations(path, [TIME_TIME]))
    assert not offenders, (
        "time.time() in an engine hot loop (use the supervisor's or "
        "tracer's injected monotonic clock):\n  " + "\n  ".join(offenders)
    )


def test_allowlist_is_not_stale():
    """No file is exempt from the container check: the one writer,
    ``Relation.join_rows`` with its private bulk and row-by-row parts,
    writes through local aliases the patterns do not see, and so does
    ``Relation.carry``, whose in-place set difference and union patch a
    Kleene round's successor beside its indexes — and they are the only
    code in their module that does."""
    import inspect

    from repro.engine.interpretation import Relation

    writes = re.compile(
        r"\btuples\.(add|update)\(|\bcosts\[[^\]]+\]\s*=|\bcosts\.update\("
        r"|\b\w+\s*[-|]="
    )
    module = (SRC / "engine" / "interpretation.py").read_text(encoding="utf-8")
    writer = "".join(
        inspect.getsource(method)
        for method in (
            Relation.join_rows,
            Relation._join_keyed,
            Relation._join_each,
            Relation.carry,
        )
    )
    assert len(writes.findall(module)) == len(writes.findall(writer)) == 6


SECOND_BACKEND = re.compile(r"columnar|storage=", re.IGNORECASE)


def test_the_second_relation_backend_is_gone():
    import inspect

    from repro.engine.solver import solve

    # Comments and docstrings count too: the name is gone, not hidden.
    offenders = [
        f"{path.relative_to(SRC).as_posix()}:{lineno}: {line.strip()}"
        for path in _source_files()
        for lineno, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        )
        if SECOND_BACKEND.search(line)
    ]
    assert not offenders, (
        "a second relation backend or a storage= option is back (there is "
        "one Relation; see docs/STORAGE.md):\n  " + "\n  ".join(offenders)
    )
    assert "storage" not in inspect.signature(solve).parameters


PER_SEED_PATH = [
    re.compile(r"_delta_seeds|_apply_derivation|_match_row"),
    re.compile(r"\bseed\["),
]


def test_the_per_seed_path_is_gone():
    offenders = []
    for path in _source_files():
        offenders.extend(_violations(path, PER_SEED_PATH))
    assert not offenders, (
        "tuple-at-a-time delta evaluation is back (seeds are batched: "
        "DeltaDispatch, run_rule(seeds=...), Relation.join_rows):\n  "
        + "\n  ".join(offenders)
    )


SETTLE_LOOP = re.compile(r"max_pops|assume_invariant")


def test_the_settle_at_a_time_loop_is_gone():
    import inspect

    from repro.engine.fixpoint import fixpoint
    from repro.engine.greedy import greedy_fixpoint

    # Comments and docstrings count too, as for the second backend.
    offenders = [
        f"{path.relative_to(SRC).as_posix()}:{lineno}: {line.strip()}"
        for path in _source_files()
        for lineno, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        )
        if SETTLE_LOOP.search(line)
    ]
    assert not offenders, (
        "greedy's own loop bound or invariant promise is back (greedy is "
        "the CostOrdered policy over the fixpoint loop's round):\n  "
        + "\n  ".join(offenders)
    )
    # The one loop: greedy_fixpoint has no body of its own to bound.
    assert "return fixpoint(" in inspect.getsource(greedy_fixpoint)
    assert "while" not in inspect.getsource(greedy_fixpoint)


ROW_CACHE = re.compile(r"_rows_cache|rows_list|generation|warm", re.IGNORECASE)

#: Lines of every ``*.py`` under ``src/``; may only go down.
SRC_LINES = 23001


def test_the_row_cache_is_gone():
    import dataclasses
    import inspect

    from repro.engine.interpretation import Interpretation, Relation

    # Comments and docstrings count too, as for the second backend.
    offenders = [
        f"{path.relative_to(SRC).as_posix()}:{lineno}: {line.strip()}"
        for path in _source_files()
        for lineno, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        )
        if ROW_CACHE.search(line)
    ]
    assert not offenders, (
        "a relation's row cache or a copy that carries indexes is back (a "
        "Relation is its container and its indexes; a scan iterates the "
        "container):\n  " + "\n  ".join(offenders)
    )
    fields = [field.name for field in dataclasses.fields(Relation)]
    assert fields == ["decl", "tuples", "costs", "_indexes"]
    for copy in (Relation.copy, Interpretation.copy):
        assert list(inspect.signature(copy).parameters) == ["self"]


def test_src_only_shrinks():
    lines = sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in (ROOT / "src").rglob("*.py")
    )
    assert lines <= SRC_LINES, f"src/ has {lines} lines; the ratchet is {SRC_LINES}"


SECOND_LOOP = re.compile(r"kleene_fixpoint|engine/(naive|tp)\.py|engine\.(naive|tp)\b")

#: ``wc -l src/repro/engine/*.py`` may only go down.
ENGINE_LINES = 4844


def test_one_fixpoint_loop():
    import inspect

    from repro.engine.fixpoint import fixpoint

    offenders = [
        f"{path.relative_to(SRC).as_posix()}:{lineno}: {line.strip()}"
        for path in _source_files()
        for lineno, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        )
        if SECOND_LOOP.search(line)
    ]
    assert not offenders, (
        "a second fixpoint loop is back (Kleene iteration is the "
        "fixpoint loop's write=\"replace\" mode):\n  " + "\n  ".join(offenders)
    )
    assert not (SRC / "engine" / "naive.py").exists()
    assert not (SRC / "engine" / "tp.py").exists()
    # One write block, one budget check, one round event.
    body = re.sub(r"\s+", "", inspect.getsource(fixpoint))
    assert body.count("join_rows(") == 1
    assert body.count("on_round(") == 1
    assert body.count('emit("iteration"') == 1
    lines = sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in (SRC / "engine").glob("*.py")
    )
    assert lines <= ENGINE_LINES, (
        f"src/repro/engine/ has {lines} lines; the ratchet is {ENGINE_LINES}"
    )


#: ``wc -l src/repro/obs/*.py`` may only go down.
OBS_LINES = 1590


def test_one_telemetry_schema():
    from repro.obs import metrics, tracer

    summary = (SRC / "obs" / "summary.py").read_text(encoding="utf-8")
    assert "dataclass" not in summary, "obs/summary.py declares a row type"
    # plan_hits / plan_misses are read-only views of the counters.
    assert isinstance(tracer.Tracer.plan_hits, property)
    assert isinstance(tracer.Tracer.plan_misses, property)
    assert not hasattr(tracer, "CollectorSink")
    for kind in (metrics.Counter, metrics.Gauge, metrics.Histogram):
        assert not hasattr(kind, "merge"), kind
    assert not hasattr(metrics.MetricsRegistry, "merge")
    assert not hasattr(metrics.MetricsRegistry, "from_snapshot")
    lines = sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in (SRC / "obs").glob("*.py")
    )
    assert lines <= OBS_LINES, (
        f"src/repro/obs/ has {lines} lines; the ratchet is {OBS_LINES}"
    )


FULL_WIDTH = re.compile(r"Interpretation\((eval_)?program\.declarations\)")


def test_component_state_holds_its_cdb_only():
    """No component state is built over every declaration: ``J``, the
    Kleene target, ``apply_tp``'s output and the shard seeds are built
    by ``fixpoint.cdb_interpretation``.  The one full-width build left is
    the solve's own state when the caller passes no EDB."""
    found = [
        f"{name}: {line.strip()}"
        for name in ("fixpoint.py", "solver.py", "sharded.py")
        for line in (SRC / "engine" / name).read_text(encoding="utf-8").splitlines()
        if FULL_WIDTH.search(line)
    ]
    assert found == [
        "solver.py: edb.copy() if edb is not None else "
        "Interpretation(program.declarations)"
    ]


def test_documented_kernel_is_the_generated_kernel():
    """docs/PERFORMANCE.md §3 prints Example 3.1's recursive rule under
    the seed shape a changed ``s`` row produces, and its ``min`` rule
    under the seed shape a changed ``path`` row produces: as written, and
    as the pushdown rewrites it to read ``path__frontier``, whose whole
    key the group binds."""
    from repro.datalog.terms import Variable
    from repro.engine.exec import compile_rule, get_pushdown
    from repro.programs import shortest_path

    text = (ROOT / "docs" / "PERFORMANCE.md").read_text(encoding="utf-8")
    printed = re.findall(r"```python\n(def kernel\(.*?)```", text, re.DOTALL)
    program = shortest_path.database().program
    recursive, extremum = program.rules[1], program.rules[2]
    assert str(recursive).startswith("path(X, Z, Y, C) <- s(X, Z, C1)")
    assert str(extremum) == "s(X, Y, C) <- C =r min{D : path(X, Z, Y, D)}."
    rewritten = get_pushdown(program).program
    (frontier,) = [r for r in rewritten.rules if r.head.predicate == "s"]
    assert str(frontier) == "s(X, Y, C) <- C =r min{D : path__frontier(X, Y, D)}."
    group = frozenset(map(Variable, ("X", "Y")))
    join = compile_rule(recursive, program, frozenset(map(Variable, ("X", "Z", "C1"))))
    fold = compile_rule(extremum, program, group)
    keyed = compile_rule(frontier, rewritten, group)
    assert printed == [
        join.source(program), fold.source(program), keyed.source(rewritten)
    ]
    assert "f0 = ctx.relation(c0).costs.get" in printed[0]
    assert "index_for" not in printed[2]
    assert f"`consts = {join.consts!r}`" in text
    least = program.aggregate_function("min")
    for plan, predicate in ((fold, "path"), (keyed, "path__frontier")):
        assert plan.consts == (
            least.state_create(), least.process, least.convert, predicate, "min"
        )
    consts = "(min.state_create(), min.process, min.convert, 'path',\n'min')"
    assert f"`consts = {consts}`" in text
    consts = "(min.state_create(), min.process, min.convert,\n'path__frontier', 'min')"
    assert f"`consts = {consts}`" in text


PERFORMANCE = ROOT / "docs" / "PERFORMANCE.md"
#: Files that may cite a section of docs/PERFORMANCE.md.
CITING = ["README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md"]
#: ``PERFORMANCE.md §N`` and ``[PERFORMANCE.md](PERFORMANCE.md) §N``.
CITATION = re.compile(r"PERFORMANCE\.md(?:\]\([^)\s]*\))?\s+§(\d+)")


def test_performance_doc_is_short():
    lines = len(PERFORMANCE.read_text(encoding="utf-8").splitlines())
    assert lines <= 700, f"docs/PERFORMANCE.md has {lines} lines; the cap is 700"


def test_performance_citations_resolve():
    """Every ``§N`` cited of docs/PERFORMANCE.md, from the code, the tests
    and the other documents, and every bare ``§N`` inside it, names one
    of its ``## N.`` headings.  Inside the file, a ``§N`` right after
    another document's name (``OBSERVABILITY.md §5``) cites that
    document and is skipped."""
    text = PERFORMANCE.read_text(encoding="utf-8")
    sections = set(re.findall(r"^## (\d+)\. ", text, re.MULTILINE))
    paths = [ROOT / name for name in CITING]
    for tree in ("src", "tests", "docs"):
        paths += sorted((ROOT / tree).rglob("*.py"))
        paths += sorted((ROOT / tree).rglob("*.md"))
    cited = [
        f"{path.relative_to(ROOT).as_posix()}: §{number}"
        for path in paths
        if path != PERFORMANCE
        for number in CITATION.findall(path.read_text(encoding="utf-8"))
    ]
    own = re.findall(r"(?<!\.md\s)(?<!\.md\)\s)§(\d+)", text)
    cited += [f"docs/PERFORMANCE.md: §{n}" for n in own]
    assert cited, "no citation found: the patterns no longer match"
    dangling = [c for c in cited if c.rsplit("§", 1)[1] not in sections]
    assert not dangling, "citations of missing sections:\n  " + "\n  ".join(dangling)


EXPERIMENTS = ROOT / "EXPERIMENTS.md"
#: A fenced block opening with ``== NAME ==``, the first line of
#: ``benchmarks/out/NAME.txt``.
OUT_QUOTE = re.compile(r"^```\n(== (\w+) ==\n.*?)^```$", re.MULTILINE | re.DOTALL)


def test_experiments_quote_benchmark_output_verbatim():
    """Every block EXPERIMENTS.md quotes from ``benchmarks/out/`` is that
    file as the last ``pytest benchmarks/ --benchmark-only`` run wrote it,
    and every ``out/NAME.txt`` its prose names is one of those blocks."""
    text = EXPERIMENTS.read_text(encoding="utf-8")
    quoted = {name: block for block, name in OUT_QUOTE.findall(text)}
    assert {"test_figure1_monotonic_rows", "test_method_scaling_sweep"} <= set(
        quoted
    ), "the quote pattern no longer matches"
    out = ROOT / "benchmarks" / "out"
    stale = [
        name
        for name, block in sorted(quoted.items())
        if not (out / f"{name}.txt").is_file()
        or (out / f"{name}.txt").read_text(encoding="utf-8") != block
    ]
    assert not stale, (
        "EXPERIMENTS.md's quote differs from benchmarks/out/ (re-quote the "
        "file after a --benchmark-only run):\n  " + "\n  ".join(stale)
    )
    named = set(re.findall(r"\bout/(test_\w+)\.txt", text))
    unquoted = sorted(named - set(quoted))
    assert not unquoted, "named but not quoted:\n  " + "\n  ".join(unquoted)


#: ``ROADMAP item N``, also across a line break.
ROADMAP_CITATION = re.compile(r"ROADMAP\s+item\s+(\d+)")


def test_roadmap_citations_name_open_items():
    """Every ``ROADMAP item N`` in the code, the tests, docs/, the README,
    DESIGN and EXPERIMENTS names a numbered open item of ROADMAP.md, so a
    re-anchor that renumbers or closes an item shows every stale pointer."""
    roadmap = (ROOT / "ROADMAP.md").read_text(encoding="utf-8")
    open_items = roadmap.split("## Open items", 1)[1].split("\n### Parked", 1)[0]
    items = set(re.findall(r"^(\d+)\. \*\*", open_items, re.MULTILINE))
    assert {"9", "13"} <= items, "the open-item pattern no longer matches"
    paths = [ROOT / name for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md")]
    for tree in ("src", "tests", "docs"):
        paths += sorted((ROOT / tree).rglob("*.py"))
        paths += sorted((ROOT / tree).rglob("*.md"))
    cited = [
        (f"{path.relative_to(ROOT).as_posix()}: item {number}", number)
        for path in paths
        for number in ROADMAP_CITATION.findall(path.read_text(encoding="utf-8"))
    ]
    assert cited, "no citation found: the pattern no longer matches"
    dangling = [where for where, number in cited if number not in items]
    assert not dangling, "citations of no open ROADMAP item:\n  " + "\n  ".join(
        dangling
    )


def test_every_exact_counter_is_documented():
    """The † counter table of docs/PERFORMANCE.md has a row for every name
    in ``perfbench/layers.py:EXACT`` (read as text: perfbench is not a
    package of this tree)."""
    layers = (ROOT / "perfbench" / "layers.py").read_text(encoding="utf-8")
    block = re.search(r"EXACT = frozenset\(\s*\"\"\"(.*?)\"\"\"", layers, re.DOTALL)
    assert block is not None, "perfbench/layers.py no longer spells EXACT out"
    exact = block.group(1).split()
    assert len(exact) >= 20
    text = PERFORMANCE.read_text(encoding="utf-8")
    table = text.split("## 6. † counters", 1)[1].split("\n## ", 1)[0]
    rows = set(re.findall(r"^\| `([\w.]+)` \|", table, re.MULTILINE))
    assert set(exact) <= rows, sorted(set(exact) - rows)


def test_the_answer_cache_added_no_knob():
    """The serve path's answer cache is not configurable: one module
    constant bounds it.  What an operator or an embedder can set is what
    it was before the cache."""
    import dataclasses
    import inspect

    from repro.cli import build_parser
    from repro.serve import RequestSupervisor, ServeSettings
    from repro.serve import supervise

    assert [f.name for f in dataclasses.fields(ServeSettings)] == [
        "host", "port", "max_inflight", "queue_depth", "default_timeout",
        "max_timeout", "drain_grace", "flight_size", "flight_dir",
        "checkpoint_dir", "default_method",
    ]  # fmt: skip
    assert list(inspect.signature(RequestSupervisor.__init__).parameters) == [
        "self", "default_timeout", "max_timeout", "default_method",
        "flight_dir", "flight_size", "checkpoint_dir",
    ]  # fmt: skip
    subparsers = next(
        a for a in build_parser()._actions if isinstance(a.choices, dict)
    )
    flags = sorted(
        flag
        for action in subparsers.choices["serve"]._actions
        for flag in action.option_strings
    )
    assert flags == [
        "--checkpoint-dir", "--drain-grace", "--flight-dir", "--flight-size",
        "--help", "--host", "--max-inflight", "--max-timeout", "--method",
        "--port", "--port-file", "--program", "--queue-depth", "--timeout",
        "-h",
    ]  # fmt: skip
    assert supervise.ANSWER_CACHE_BYTES == 64 << 20
    assert "environ" not in (SRC / "serve" / "supervise.py").read_text("utf-8")


def test_a_solve_outcome_reaches_the_socket_as_encoded():
    """``_handle`` writes a ``RequestOutcome``'s payload as is: the bytes
    below are valid JSON that no ``json.dumps`` would produce, so any
    re-serialisation on the event loop would change them."""
    import http.client

    from repro.serve import (
        RequestOutcome,
        ServerThread,
        ServeSettings,
        SolveServer,
        host_program_text,
    )

    odd = b'{"status":"complete",   "rows":[ ],"wall_s":0.0}'
    server = SolveServer(
        {"tiny": host_program_text("tiny", "edge(a, b).")},
        ServeSettings(drain_grace=0.1),
    )
    server.supervisor.execute = lambda *a, **k: RequestOutcome(200, odd, "complete")
    thread = ServerThread(server)
    port = thread.start()
    try:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        try:
            conn.request("POST", "/solve/tiny", body=b"{}")
            response = conn.getresponse()
            assert response.status == 200
            assert response.getheader("Content-Type") == "application/json"
            assert response.read() == odd
        finally:
            conn.close()
    finally:
        thread.drain(timeout=30.0)


def test_every_edb_row_takes_the_one_bulk_write():
    """Ingest is ``join_rows(strict=True)`` per slice — for files and
    for ``add_fact(s)`` alike — and is not configurable."""
    import inspect

    from repro.core.database import Database
    from repro.data import loader

    per_row = re.compile(r"\.(set_cost|add_tuple|add_fact)\(")
    sources = {
        path.relative_to(SRC).as_posix(): path.read_text(encoding="utf-8")
        for path in (SRC / "data").glob("*.py")
    }
    sources["Database.edb"] = inspect.getsource(Database.edb)
    offenders = [
        f"{name}: {line.strip()}"
        for name, text in sources.items()
        for line in text.splitlines()
        if per_row.search(line) and not line.strip().startswith("#")
    ]
    assert not offenders, "per-row EDB writes:\n  " + "\n  ".join(offenders)
    for name in ("data/loader.py", "Database.edb"):
        assert "join_rows(" in sources[name]

    def parameters(function):
        return list(inspect.signature(function).parameters)

    assert parameters(loader.load_csv) == [
        "interpretation", "predicate", "source", "delimiter", "header",
        "strict",
    ]  # fmt: skip
    assert parameters(loader.load_jsonl) == [
        "interpretation", "source", "strict", "forbidden",
    ]  # fmt: skip
    assert parameters(loader.scan_csv) == [
        "source", "arity", "delimiter", "header", "strict", "predicate",
    ]  # fmt: skip
    assert parameters(Database.edb) == ["self"]
    assert parameters(Database.load_csv) == [
        "self", "predicate", "path", "delimiter", "header",
    ]  # fmt: skip
    assert loader.LOAD_SLICE == 512
    assert "environ" not in sources["data/loader.py"]


#: The whole-program passes ``ProgramFacts`` owns.
WHOLE_PROGRAM_PASS = re.compile(
    r"\b(condense|check_program_safety|check_conflict_freedom"
    r"|check_program_admissible|check_program_r_monotonic"
    r"|infer_types|classify_program"
    r"|analyze_premappability|analyze_sharding)\("
)

#: The front-end consumers: they read facts, they do not run passes.
FACTS_CONSUMERS = [
    "analysis/diagnostics.py",
    "analysis/report.py",
    "engine/solver.py",
    "core/database.py",
    "cli.py",
    "repl.py",
]


def test_front_ends_read_facts_instead_of_running_passes():
    import inspect

    from repro.analysis.diagnostics import Linter, lint_program, lint_source
    from repro.analysis.report import analyze_program
    from repro.core.database import Database
    from repro.engine.exec import get_pushdown
    from repro.engine.options import SolveOptions
    from repro.engine.solver import solve

    offenders = []
    for rel in FACTS_CONSUMERS:
        path = SRC / rel
        assert path.exists(), f"facts-consumer list is stale: {rel}"
        offenders.extend(_violations(path, [WHOLE_PROGRAM_PASS]))
    assert not offenders, (
        "a front end runs a whole-program pass itself (read it from the "
        "run's ProgramFacts):\n  " + "\n  ".join(offenders)
    )

    # The lifetime is the run: no cache that outlives the facts object.
    facts_source = (SRC / "analysis" / "facts.py").read_text(encoding="utf-8")
    banned = re.compile(r"ContextVar|cached_property|lru_cache|__dict__|^_\w+ = (\{\}|\[\])", re.M)
    code = re.sub(r'""".*?"""', "", facts_source, flags=re.S)
    assert not banned.search(code), banned.search(code)
    stored_on_program = [
        line
        for path in (SRC / "analysis").glob("*.py")
        for line in _violations(path, [re.compile(r"program\.__dict__")])
    ]
    assert not stored_on_program, stored_on_program

    # No new option and no second path: ``facts=`` is the one internal
    # hand-off, and only below the public entry points.
    def parameters(function):
        return list(inspect.signature(function).parameters)

    assert parameters(SolveOptions) == [
        "check", "method", "max_iterations", "plan", "pushdown", "shards",
        "workers",
    ]  # fmt: skip
    assert parameters(solve) == [
        "program", "edb", "tracer", "budget", "cancel", "resume", "options",
    ]  # fmt: skip
    assert parameters(Database.solve) == ["self", "kwargs"]
    assert parameters(Database.analyze) == ["self"]
    assert parameters(Database.lint) == ["self"]
    assert parameters(analyze_program) == ["program"]
    assert parameters(lint_program) == ["program", "source", "facts"]
    assert parameters(Linter.lint) == ["self", "program", "source", "facts"]
    assert parameters(lint_source) == ["text", "name", "lattices", "aggregates"]
    assert parameters(get_pushdown) == ["program", "classification", "facts"]


def test_one_analysis_object():
    mentions = [
        f"{path.relative_to(SRC).as_posix()}:{lineno}: {line.strip()}"
        for path in _source_files()
        for lineno, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        )
        if "AnalysisReport" in line
    ]
    assert not mentions, (
        "a second analysis type is back (ProgramFacts is the report):\n  "
        + "\n  ".join(mentions)
    )
    solver = (SRC / "engine" / "solver.py").read_text(encoding="utf-8")
    assert "analyze_program" not in solver, (
        "solve() runs the full analysis again: it reads only the facts it "
        "gates on (facts.safety, .admissibility, .conflict)"
    )


#: Second definitions of a ``ProgramFacts`` verdict or pass, and code
#: nothing reached: none may be defined under ``src/`` again.
DELETED_NAMES = {
    "is_range_restricted", "is_conflict_free", "is_program_admissible",
    "is_aggregate_stratified", "is_negation_stratified", "is_r_monotonic",
    "all_rules_cost_respecting", "check_program_termination",
    "merge_algebra_holds", "layered_digraph", "TypeCheckError", "_FixMap",
}  # fmt: skip

#: The program verdicts, each defined once: a ``ProgramFacts`` property.
VERDICTS = {
    "range_restricted", "conflict_free", "admissible",
    "aggregate_stratified", "negation_stratified", "r_monotonic",
}  # fmt: skip


def test_each_program_verdict_has_one_definition():
    import ast
    import collections

    import repro.analysis

    defined = collections.defaultdict(list)
    for path in _source_files():
        rel = path.relative_to(SRC).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[node.name].append(f"{rel}:{node.lineno}")
        for node in tree.body:  # module-level names such as type aliases
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        defined[target.id].append(f"{rel}:{node.lineno}")
    back = {name: defined[name] for name in DELETED_NAMES if defined[name]}
    assert not back, f"a deleted definition is back: {back}"
    for name in VERDICTS:
        assert defined[name] == [defined[name][0]], (name, defined[name])
        assert defined[name][0].startswith("analysis/facts.py:"), name
    assert not any(hasattr(repro.analysis, name) for name in DELETED_NAMES)


def test_option_value_sets_are_spelled_out_once():
    """A tuple, list, set or ``Literal[...]`` of string constants that
    holds two values of one option is a copy of that option's value set."""
    import ast

    markers = {
        "check": {"strict", "lenient"},
        "method": {"naive", "seminaive"},
        "plan": {"smart", "off"},
    }
    found = {option: set() for option in markers}
    for path in _source_files():
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Tuple, ast.List, ast.Set)):
                continue
            values = {
                e.value
                for e in node.elts
                if isinstance(e, ast.Constant) and isinstance(e.value, str)
            }
            for option, marker in markers.items():
                if marker <= values:
                    found[option].add(path.relative_to(SRC).as_posix())
    assert found == {
        "check": {"engine/options.py"},
        "method": {"engine/options.py"},
        "plan": {"engine/exec.py"},
    }


def test_one_owner_for_the_round_cap():
    import dataclasses

    from repro.engine.supervisor import Budget

    # Spelled in two halves so that this file does not name it either.
    sentinel = "_".join(("UNCAPPED", "ITERATIONS"))
    offenders = [
        path.relative_to(ROOT).as_posix()
        for tree in (ROOT / "src", ROOT / "tests")
        for path in sorted(tree.rglob("*.py"))
        if sentinel in path.read_text(encoding="utf-8")
    ]
    assert not offenders, offenders
    for path in (SRC / "serve").glob("*.py"):
        assert "max_iterations" not in path.read_text(encoding="utf-8"), path
    assert [field.name for field in dataclasses.fields(Budget)] == [
        "timeout", "max_iterations", "max_atoms", "on_divergence",
    ]  # fmt: skip


SCHEDULER_COPIES = re.compile(r"def (_newly_bound|_order_conjuncts|render_program|plan_order)\b")


def test_one_scheduler():
    import inspect

    from repro.engine.grounding import schedule

    offenders = []
    for path in _source_files():
        offenders.extend(_violations(path, [SCHEDULER_COPIES]))
    assert not offenders, (
        "a second readiness rule, join orderer or program printer is back "
        "(use grounding.schedule / order_conjuncts, pretty.program_to_text):"
        "\n  " + "\n  ".join(offenders)
    )
    raisers = [
        path.relative_to(SRC).as_posix()
        for path in _source_files()
        for line in path.read_text(encoding="utf-8").splitlines()
        if "cannot schedule body" in line
    ]
    assert raisers == ["engine/grounding.py"]
    assert "cannot schedule body" in inspect.getsource(schedule)
