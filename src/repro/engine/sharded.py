"""Sharded fixpoint execution: hash-partitioned parallel evaluation.

Executes one SHARDABLE component (:mod:`repro.analysis.sharding`) as a
fan-out/fan-in over OS processes:

1. **Seed pass** (parent): the component's seed rules — those reading no
   CDB predicate — are applied once via :func:`~repro.engine.fixpoint.apply_tp`
   against the lower-strata interpretation.  Their derivations are the
   only entry points into the recursion.
2. **Partition**: every seed row is assigned to a shard by hashing the
   value in its predicate's proven key column (:class:`ShardKey`).  The
   hash is ``zlib.crc32`` over ``repr`` — *stable across processes*,
   unlike the builtin ``hash`` whose per-process randomization would make
   parent and child disagree about ownership.
3. **Fan-out**: a ``fork`` process pool runs the component's *recursive*
   rules to fixpoint per shard, resuming from the shard's seed partition
   (the fixpoint loop's ``initial=`` resume path — a shard is literally a
   checkpointed lower bound of the component restricted to its keys).
   The program, lower-strata interpretation and compiled plans are
   inherited copy-on-write through ``fork``; only rows cross process
   boundaries, as pickled ``{predicate: list(rel.rows())}`` dicts — seed
   partitions out, shard models back.
4. **Barrier merge**: the seed pass's own interpretation is the merge
   base; every shard's rows are written into it with
   :meth:`~repro.engine.interpretation.Relation.join_rows`, whose
   non-strict write *is* the lattice join, i.e. the two-phase ``merge``
   of :mod:`repro.aggregates.algebra` applied at the granularity of
   whole interpretations.

Soundness rests on the analyzer's proof: every derivation is key-local,
so shard ``k`` computes exactly the monolithic model restricted to keys
hashing to ``k``, and the barrier union is the monolithic model.  The
differential suite (``tests/test_sharded_equivalence.py``) pins
bit-identical models against the default plan and the naive evaluator.

Worker processes run unsupervised (budgets and cancellation remain
parent-side, at seed/merge granularity); the solver therefore falls back
to sequential evaluation for budgeted or resumed solves — see
``_shard_decision`` in :mod:`repro.engine.solver`.  Telemetry,
however, crosses the boundary: when the parent solve is traced, each
worker runs a local (non-streaming) :class:`~repro.obs.tracer.Tracer`,
and ships its per-rule firing stats and mergeable metrics registry
snapshot back through the pool result alongside its rows.
The parent folds them in at the barrier — rule stats via
``tracer.absorb_rule`` (rule indexes map back to identical objects,
identity being fork-stable), metric instruments via the registry's
associative ``merge`` (the same two-phase discipline as
:mod:`repro.aggregates.algebra`) — so a sharded solve's telemetry digest
covers the worker-side work at full fidelity.

Where it pays: each shard's fixpoint converges *independently*, so
per-round costs stop accruing for early-converging shards instead of
being dragged along for the component's global round count — on the
naive evaluator (full ``T_P`` + model comparison per round) this yields
real speedups on convergence-skewed workloads even on one core.  On
multiple cores, shards additionally run truly in parallel (processes
sidestep the GIL).  Honest numbers and non-wins are catalogued in
docs/PARALLELISM.md.
"""

from __future__ import annotations

import multiprocessing
import zlib
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from repro.analysis.sharding import ShardKey
from repro.datalog.errors import ReproError
from repro.datalog.program import Program
from repro.engine.fixpoint import WRITE, FixpointResult, apply_tp
from repro.engine.fixpoint import cdb_interpretation, fixpoint
from repro.engine.interpretation import Interpretation, Key
from repro.engine.options import SolveOptions
from repro.engine.supervisor import NULL_SUPERVISOR, Supervisor
from repro.obs.tracer import NULL_TRACER, Tracer


class ShardWorkerError(ReproError):
    """A shard worker died (signal/OOM) or raised a non-engine error.

    Raised at the pool boundary of :func:`sharded_fixpoint` *instead of*
    letting the raw :class:`BrokenProcessPool` / pickled worker
    exception escape.  By construction nothing needs invalidating: the
    parent's interpretation is only ever mutated at the barrier merge,
    which a failing pool never reaches — the solver catches this error
    and re-runs the whole component sequentially, recording the reason
    on the ``shard_plan`` fallback event exactly like a BLOCKED verdict
    (docs/PARALLELISM.md).  A :class:`ReproError` raised by a worker's
    fixpoint (``NonTerminationError``, a built-in's runtime error) is
    not a worker failure: it is the program's verdict, re-raised
    unchanged, exactly as the sequential run would raise it.
    """

    def __init__(self, reason: str) -> None:
        self.reason = reason
        super().__init__(reason)


def shard_of(value: Any, shards: int) -> int:
    """The shard owning ``value`` — stable across processes and runs."""
    return zlib.crc32(repr(value).encode("utf-8")) % shards


def sharded_supported() -> Tuple[bool, str]:
    """Whether this platform can run the fork-based executor."""
    if "fork" not in multiprocessing.get_all_start_methods():
        return False, "fork start method unavailable on this platform"
    return True, ""


@dataclass
class _ForkContext:
    """Everything a worker needs, inherited copy-on-write via fork."""

    program: Program  # component rules minus seed rules
    cdb: FrozenSet[str]
    i: Interpretation  # lower strata + EDB (read-only in workers)
    write: str  # the component's write mode (``fixpoint.WRITE``)
    options: SolveOptions
    traced: bool  # parent solve is traced → workers relay telemetry


#: Module-level slot read by forked workers.  Only ever set around the
#: Pool's lifetime in :func:`sharded_fixpoint`; fork snapshots it.
_FORK: Dict[str, _ForkContext] = {}


def _merge_rows(target: Interpretation, rows: Dict[str, List[Key]]) -> None:
    """Lattice-join shipped ``{predicate: rows}`` into ``target``."""
    for name, batch in rows.items():
        target.relation(name).join_rows(batch)


def _run_shard(
    payload: Tuple[int, Dict[str, List[Key]]],
) -> Tuple[Dict[str, List[Key]], int, str, Optional[Dict[str, Any]]]:
    """Worker: one shard's fixpoint over its seed partition.

    Runs in a forked child; reads the parent's :data:`_FORK` snapshot.
    Returns ``(the shard's CDB rows, iterations, status, telemetry)``
    where ``telemetry`` is ``None`` for untraced solves and otherwise a
    plain-data relay the parent folds in at the barrier: per-rule
    cumulative stats keyed by index into ``ctx.program.rules`` (rule
    objects are identical across the fork, so the parent maps indexes
    back to the objects its own tracer knows) plus the worker tracer's
    metrics registry snapshot.
    """
    _, seeds = payload
    ctx = _FORK["ctx"]
    # Local tracer: collect=False (no event buffering, no sinks) — only
    # the mergeable instruments and rule stats accumulate, which is
    # exactly what can be shipped back as plain data.
    tracer = Tracer(collect=False) if ctx.traced else NULL_TRACER
    initial = cdb_interpretation(ctx.program, ctx.cdb)
    _merge_rows(initial, seeds)
    result = fixpoint(
        ctx.program,
        ctx.cdb,
        ctx.i,
        write=ctx.write,
        max_iterations=ctx.options.max_iterations,
        strict=False,
        plan=ctx.options.exec_plan,
        tracer=tracer,
        supervisor=NULL_SUPERVISOR,
        initial=initial,
    )
    telemetry: Optional[Dict[str, Any]] = None
    if ctx.traced:
        rule_index = {id(rule): i for i, rule in enumerate(ctx.program.rules)}
        telemetry = {
            "rules": {
                rule_index[id(rule)]: [calls, derived, wall]
                for rule, calls, derived, wall in tracer.rule_stats()
                if id(rule) in rule_index
            },
            "metrics": tracer.metrics.snapshot(),
            "iterations": result.iterations,
            "atoms": result.interpretation.total_size(),
        }
    model = result.interpretation
    return (
        {name: list(model.relation(name).rows()) for name in ctx.cdb},
        result.iterations,
        result.status,
        telemetry,
    )


def _without_seed_rules(program: Program, seed_rules: List[Any]) -> Program:
    """The program with this component's seed rules removed.

    Workers must not re-run seed rules: they read only replicated lower
    strata, so every shard would re-derive the *entire* seed set —
    including rows owned by other shards.  The parent runs them once.
    Rules are compared by identity (the same objects, not equal copies).
    """
    drop = {id(rule) for rule in seed_rules}
    return Program(
        rules=tuple(r for r in program.rules if id(r) not in drop),
        declarations=tuple(program.declarations.values()),
        constraints=program.constraints,
        aggregates=dict(program.aggregates),
        name=f"{program.name}+shard",
        validate=False,
    )


def sharded_fixpoint(
    program: Program,
    cdb: FrozenSet[str],
    i: Interpretation,
    key: ShardKey,
    component_rules: Tuple[Any, ...],
    options: SolveOptions,
    *,
    method: str = "seminaive",
    strict: bool = True,
    tracer: Tracer = NULL_TRACER,
    scc: int = 0,
    supervisor: Supervisor = NULL_SUPERVISOR,
) -> FixpointResult:
    """Evaluate one SHARDABLE component hash-partitioned across workers.

    ``key`` is the analyzer's proof object; ``component_rules`` the
    component's rules in program order (``key.seed_rules`` /
    ``key.recursive_rules`` index into it).  ``options`` is the solve's
    (partition and pool sizes, iteration cap, join ordering; workers
    read it through the fork).  ``method`` is the solver's choice for
    the component; each shard runs the one fixpoint loop in that
    method's ``WRITE`` mode (greedy's shards run plain delta rounds), so
    benchmarks isolate the effect of sharding itself.

    The result's ``iterations`` is the maximum over shards (the parallel
    critical path); its trajectory is the merged model size.  A
    :class:`ReproError` raised inside a worker is re-raised unchanged;
    only a dead pool or a non-engine exception is a
    :class:`ShardWorkerError`.
    """
    seed_rules = [component_rules[idx] for idx in key.seed_rules]
    # The seed pass's output is the barrier's merge base: shard rows are
    # joined straight into it.
    merged = apply_tp(
        program,
        cdb,
        cdb_interpretation(program, cdb),
        i,
        rules=seed_rules,
        strict=strict,
        plan=options.exec_plan,
        tracer=tracer,
        supervisor=supervisor,
        scc=scc,
    )

    # Partition seed rows by the proven key column.  Shards with no seeds
    # derive nothing (every recursive derivation is key-local and =r
    # aggregates are false on empty groups), so they are never spawned.
    shards = options.shard_count
    partitions: Dict[int, Dict[str, List[Key]]] = {}
    for name in cdb:
        pos = key.positions[name]
        for row in merged.relation(name).rows():
            bucket = partitions.setdefault(shard_of(row[pos], shards), {})
            bucket.setdefault(name, []).append(row)

    statuses: List[str] = []
    iterations = 1  # the parent's seed pass
    if partitions:
        traced = tracer.enabled
        t_merge = tracer.clock() if traced else 0.0
        shard_program = _without_seed_rules(program, seed_rules)
        _FORK["ctx"] = _ForkContext(
            program=shard_program,
            cdb=cdb,
            i=i,
            write=WRITE[method],
            options=options,
            traced=traced,
        )
        try:
            mp = multiprocessing.get_context("fork")
            payloads = sorted(partitions.items())
            pool_size = min(options.worker_count, len(payloads))
            chunksize = max(1, len(payloads) // (pool_size * 4))
            # ProcessPoolExecutor (not mp.Pool): a worker killed by a
            # signal or the OOM killer surfaces as BrokenProcessPool
            # instead of hanging the parent on a result that will never
            # arrive.  A dead worker or a non-engine raise inside
            # _run_shard is narrowed to ShardWorkerError so the solver
            # can degrade to sequential evaluation; a ReproError is the
            # program's own verdict and a sequential re-run would only
            # reach it again.
            try:
                with ProcessPoolExecutor(
                    max_workers=pool_size, mp_context=mp
                ) as pool:
                    results = list(
                        pool.map(_run_shard, payloads, chunksize=chunksize)
                    )
            except BrokenProcessPool as exc:
                raise ShardWorkerError(
                    "shard worker died mid-component "
                    "(killed by a signal or the OOM killer)"
                ) from exc
            except ReproError:
                raise
            except Exception as exc:
                raise ShardWorkerError(
                    f"shard worker raised {type(exc).__name__}: {exc}"
                ) from exc
        finally:
            _FORK.pop("ctx", None)
        for rows, shard_iterations, status, _telemetry in results:
            _merge_rows(merged, rows)
            statuses.append(status)
            iterations = max(iterations, shard_iterations + 1)
        if traced:
            # Barrier telemetry fold: absorb each worker's rule stats
            # (indexes → the parent's identical rule objects) and merge
            # its metrics registry snapshot — merge is associative and
            # shards arrive in sorted order, so the result is
            # deterministic for any worker count.
            for (shard, _), (_, _, _, telemetry) in zip(payloads, results):
                if telemetry is None:
                    continue
                for idx, (calls, derived, wall) in sorted(
                    telemetry["rules"].items()
                ):
                    tracer.absorb_rule(
                        shard_program.rules[idx], calls, derived, wall
                    )
                tracer.metrics.merge_snapshot(telemetry["metrics"])
                tracer.emit(
                    "worker_telemetry",
                    scc=scc,
                    shard=shard,
                    iterations=telemetry["iterations"],
                    atoms=telemetry["atoms"],
                    rules=len(telemetry["rules"]),
                    metrics=telemetry["metrics"],
                )
            m = tracer.metrics
            m.counter("shard.partitions").inc(len(partitions))
            for rows in partitions.values():
                m.histogram("shard.seed_rows").observe(
                    float(sum(len(batch) for batch in rows.values()))
                )
            m.timer("shard.barrier_wall_s").observe(
                tracer.clock() - t_merge
            )
            tracer.emit(
                "shard_merge",
                scc=scc,
                shards=len(partitions),
                workers=pool_size,
                atoms=merged.total_size(),
                wall_s=round(tracer.clock() - t_merge, 6),
            )

    bad = [s for s in statuses if s != "complete"]
    return FixpointResult(
        interpretation=merged,
        iterations=iterations,
        ascending=True,
        trajectory=[merged.total_size()],
        status=bad[0] if bad else "complete",
    )
