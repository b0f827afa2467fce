"""Component-wise solving: iterated minimal models (Section 6.3).

The program is condensed into strongly connected components
(:func:`repro.analysis.dependencies.condense`); each component's minimal
model is computed bottom-up with the lower components' model as the fixed
``I``, exactly the iterated construction the paper describes.  The result
is one total interpretation over all predicates.  What a solve computes
is set by :class:`~repro.engine.options.SolveOptions`.

Telemetry: passing a :class:`repro.obs.Tracer` threads the solve through
the instrumentation layer — analysis/classify phase spans, per-SCC
``scc_start``/``scc_end`` events with the classification verdict and the
reason auto picked its method, per-iteration fixpoint events from the
evaluators, per-rule executor profiles and the solve's own index /
plan-cache counters — and attaches the digest to
:attr:`SolveResult.telemetry`.  Untraced solves go through the shared
disabled tracer and pay one branch per instrumentation site.  Index
counters are always solve-scoped (:func:`use_index_stats`), so
concurrent solves never share them.  See docs/OBSERVABILITY.md.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.dependencies import Component
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.facts import ProgramFacts
from repro.analysis.sharding import ShardingReport
from repro.datalog.errors import NotAdmissibleError, SafetyError
from repro.datalog.program import Program
from repro.engine.checkpoint import Checkpoint
from repro.engine.exec import Prepared, get_pushdown, prepared_records
from repro.engine.interpretation import (
    IndexStats,
    Interpretation,
    Relation,
    use_index_stats,
)
from repro.engine.greedy import greedy_applicable, greedy_fixpoint
from repro.engine.fixpoint import WRITE, FixpointResult, cdb_interpretation
from repro.engine.fixpoint import fixpoint
from repro.engine.options import SolveOptions
from repro.engine.sharded import (
    ShardWorkerError,
    sharded_fixpoint,
    sharded_supported,
)
from repro.engine.supervisor import (
    NULL_SUPERVISOR,
    Budget,
    CancelToken,
    SolveInterrupt,
    Supervisor,
    component_unbounded,
)
from repro.obs.summary import TelemetrySummary, summarize
from repro.obs.tracer import NULL_TRACER, Tracer


@dataclass
class SolveResult:
    """The iterated minimal model plus per-component diagnostics."""

    model: Interpretation
    component_results: List[FixpointResult] = field(default_factory=list)
    components: List[Component] = field(default_factory=list)
    #: Evaluation mode actually used per component (parallel to
    #: ``components``) — informative for every method, decisive evidence
    #: for ``method="auto"``.
    component_methods: List[str] = field(default_factory=list)
    #: Structured telemetry digest (per-rule / per-iteration tables);
    #: None unless the solve ran with a collecting tracer.
    telemetry: Optional[TelemetrySummary] = None
    #: ``"complete"``, or the supervised interrupt's
    #: :data:`~repro.engine.supervisor.STATUSES` value; with any status
    #: other than ``"complete"``, ``model`` is the sound-so-far lower
    #: bound of the true minimal model (exact below
    #: ``interrupted_component``).
    status: str = "complete"
    #: Human-readable interrupt cause (empty when complete).
    reason: str = ""
    #: Resumable snapshot of ``model``; set iff the solve was interrupted.
    checkpoint: Optional[Checkpoint] = None
    #: MAD7xx divergence findings the supervisor raised while running.
    runtime_diagnostics: List[Diagnostic] = field(default_factory=list)
    #: Bottom-up index of the component the interrupt landed in.
    interrupted_component: Optional[int] = None

    #: Set by solve(); used by explain().
    program: Optional[Program] = None

    @property
    def complete(self) -> bool:
        return self.status == "complete"

    @property
    def total_iterations(self) -> int:
        return sum(r.iterations for r in self.component_results)

    def method_by_component(self) -> List[Tuple[Tuple[str, ...], str, int]]:
        """``(cdb predicates, method used, iterations)`` per SCC, in
        bottom-up solve order — which predicates each method applied to."""
        return [
            (
                tuple(sorted(component.cdb)),
                method,
                outcome.iterations,
            )
            for component, method, outcome in zip(
                self.components, self.component_methods, self.component_results
            )
        ]

    def __getitem__(self, predicate: str):
        return self.model[predicate]

    def explain(self, predicate: str, key, **kwargs) -> str:
        """Render a derivation tree for one model atom
        (engine.provenance)."""
        from repro.engine.provenance import explain as _explain

        if self.program is None:
            raise ValueError("this result was built without a program")
        return _explain(self.program, self.model, predicate, tuple(key), **kwargs)


def solve(
    program: Program,
    edb: Optional[Interpretation] = None,
    *,
    tracer: Optional[Tracer] = None,
    budget: Optional[Budget] = None,
    cancel: Optional[CancelToken] = None,
    resume: Optional[Checkpoint] = None,
    query: Any = None,
    **options: Any,
) -> SolveResult:
    """Compute the iterated minimal model of ``program`` over ``edb``.

    ``options`` are the fields of
    :class:`~repro.engine.options.SolveOptions` (``check``, ``method``,
    ``max_iterations``, ``plan``, ``pushdown``, ``shards``, ``workers``),
    validated before anything is analysed or evaluated.

    ``tracer`` opts the solve into the telemetry layer
    (:mod:`repro.obs`); the resulting digest lands on
    :attr:`SolveResult.telemetry`.

    ``budget`` / ``cancel`` opt the solve into supervision
    (:mod:`repro.engine.supervisor`): instead of spinning until killed,
    an over-budget, diverging or cancelled solve returns a
    ``SolveResult`` with ``status != "complete"``, the sound-so-far
    partial model and a resumable :attr:`SolveResult.checkpoint`.
    ``resume`` seeds evaluation from such a checkpoint; the final model
    is identical to an uninterrupted solve's.  See docs/ROBUSTNESS.md.

    ``query``, a predicate (or a frozenset of them), evaluates only its
    cone (:meth:`~repro.engine.exec.Prepared.cone`), each component under
    its full-solve index; every other derived relation stays empty.
    """
    opts = SolveOptions(**options)
    t = tracer if tracer is not None else NULL_TRACER
    # Index counters are solve-scoped even when untraced, so concurrent
    # solves cannot cross-contaminate each other's statistics.
    stats = t.index_stats if tracer is not None else IndexStats()
    with use_index_stats(stats):
        return _solve_traced(program, edb, opts, t, budget, cancel, resume, query)


def _solve_traced(
    program: Program,
    edb: Optional[Interpretation],
    opts: SolveOptions,
    tracer: Tracer,
    budget: Optional[Budget],
    cancel: Optional[CancelToken],
    resume: Optional[Checkpoint],
    query: Any,
) -> SolveResult:
    check, method, plan = opts.check, opts.method, opts.plan
    tracer.start(program.name)
    t_solve = tracer.clock()
    # Who reads the verdicts of what runs: auto's method choice, the
    # shard plan, or the scc_start events of a traced, checked solve.
    classify = method == "auto" or plan == "sharded" or (check != "none" and tracer.enabled)
    ready, facts = _prepare(program, opts, tracer, classify)
    rewrite = ready.rewrite
    eval_program = rewrite.program if rewrite is not None else program
    # Pushdown frontier predicates rely on the lattice join to collapse
    # conflicting per-key costs, so their components run with
    # strict=False; they are stripped from the final model.
    aux_predicates = rewrite.aux_predicates if rewrite is not None else frozenset()
    if rewrite is not None and tracer.enabled:
        for applied in rewrite.applied:
            tracer.emit(
                "rewrite_applied",
                head=applied.head,
                predicate=applied.predicate,
                auxiliary=applied.auxiliary,
                aggregate=applied.function,
            )
    if classify and ready.classes is None:
        assert facts is not None
        spanned = check == "none" or rewrite is not None  # gated and unrewritten: no span
        with tracer.phase("classify") if spanned else nullcontext():
            ready.classes = {c.component.cdb: c for c in facts.classification.components}
    classes = (ready.classes or {}) if classify else {}

    supervisor = (
        Supervisor(budget, cancel, tracer=tracer)
        if budget is not None or cancel is not None
        else NULL_SUPERVISOR
    )
    # The round cap, decided here only: a budget that stops every run (a
    # round cap or a finite deadline) replaces it; under any other budget,
    # or none, ``max_iterations`` holds (docs/ROBUSTNESS.md §2).
    stops_every_run = budget is not None and (
        budget.max_iterations is not None
        or (budget.timeout is not None and budget.timeout < math.inf)
    )
    round_cap = None if stops_every_run else opts.max_iterations

    # -- shard plan: the analyzer's per-component proofs, resolved once.
    sharding_report: Optional[ShardingReport] = None
    if plan == "sharded":
        assert facts is not None  # a sharded solve always reads its facts
        with tracer.phase("shard-plan"):
            sharding_report = facts.sharding

    # The solve's own state (every component's ``I``, then the model)
    # covers every declared predicate; a component's ``J`` holds its CDB.
    state = (
        edb.copy() if edb is not None else Interpretation(program.declarations)
    )
    if resume is not None:
        # The checkpoint state already contains the EDB it was solved
        # over; joining (rather than replacing) keeps any facts the
        # caller added since — they participate via re-derivation.
        state.absorb(resume.restore(program))
    for name in aux_predicates:
        # Components above read it through ``I``, even when none is derived.
        state.relations[name] = Relation.empty(eval_program.declarations[name])
    result = SolveResult(model=state, program=program)
    cone = enumerate(ready.components) if query is None else ready.cone(query)
    for index, component in cone:
        cls = classes.get(component.cdb)
        chosen: str = method
        if method == "auto":
            chosen = cls.method if cls is not None else "naive"
        if chosen == "greedy" and not greedy_applicable(
            eval_program, component
        ):
            # Greedy applies to extremal components only; other components
            # of the same program fall through to the naive evaluator.
            chosen = "naive"
        # Pushdown frontier components intentionally derive conflicting
        # per-key costs (the join IS the aggregate) — disable the
        # strict functional-dependency check for them only.
        strict_costs = aux_predicates.isdisjoint(component.cdb)
        shard_verdict = (
            sharding_report.for_component(component)
            if sharding_report is not None
            else None
        )
        use_sharded, shard_reason = _shard_decision(
            plan, shard_verdict, resume, supervisor
        )

        def _shard_plan(action: str, reason: str) -> None:
            tracer.emit(
                "shard_plan",
                scc=index,
                predicates=sorted(component.cdb),
                status=(
                    shard_verdict.status
                    if shard_verdict is not None
                    else "unknown"
                ),
                action=action,
                reason=reason,
                shards=opts.shard_count,
                workers=opts.worker_count,
            )

        if plan == "sharded" and tracer.enabled:
            _shard_plan("sharded" if use_sharded else "fallback", shard_reason)
        initial = None
        if resume is not None:  # the evaluator's seed: ``state`` on the CDB
            initial = cdb_interpretation(eval_program, component.cdb)
            for predicate, rel in initial.relations.items():
                rel.join_rows(state._read(predicate, rel.decl).rows())
        if supervisor.active:
            # The component's own (checkpointed) atoms come back as the
            # evaluator's total_atoms; don't double-count them.
            base = state.total_size()
            if initial is not None:
                base -= initial.total_size()
            supervisor.enter_component(
                base_atoms=base,
                watch_spiral=component_unbounded(
                    eval_program, component.cdb
                ),
            )
        if tracer.enabled:
            tracer.emit(
                "scc_start",
                scc=index,
                predicates=sorted(component.cdb),
                method=chosen,
                verdict=cls.verdict.value if cls is not None else None,
                reasons=list(cls.reasons) if cls is not None else [],
                rules=len(component.rules),
            )
            t_scc = tracer.clock()
        def _sequential(method_name: str) -> FixpointResult:
            common: Dict[str, Any] = dict(
                max_iterations=round_cap,
                plan=opts.exec_plan,
                tracer=tracer,
                scc=index,
                supervisor=supervisor,
                initial=initial,
                write=WRITE[method_name],
            )
            if method_name == "greedy":
                return greedy_fixpoint(eval_program, component, state, **common)
            return fixpoint(
                eval_program, component.cdb, state, strict=strict_costs, **common
            )

        try:
            if use_sharded:
                assert shard_verdict is not None
                assert shard_verdict.key is not None
                try:
                    outcome = sharded_fixpoint(
                        eval_program,
                        component.cdb,
                        state,
                        shard_verdict.key,
                        component.rules,
                        opts,
                        method=chosen,
                        strict=strict_costs,
                        tracer=tracer,
                        scc=index,
                        supervisor=supervisor,
                    )
                    chosen = f"{chosen}+sharded"
                except ShardWorkerError as failure:
                    # Crash isolation: a dead or raising worker never
                    # reaches the barrier merge, so ``state`` is
                    # untouched — nothing to invalidate.  Re-run the
                    # whole component sequentially, witnessing the
                    # reason the same way the BLOCKED fallback does.
                    if tracer.enabled:
                        tracer.metrics.counter("shard.worker_failures").inc()
                        _shard_plan(
                            "fallback", f"worker failure: {failure.reason}"
                        )
                    outcome = _sequential(chosen)
            else:
                outcome = _sequential(chosen)
        except SolveInterrupt as interrupt:
            # Graceful degradation: fold the evaluator's sound partial
            # state into the model, snapshot a resumable checkpoint, and
            # report instead of raising.
            outcome = interrupt.partial
            result.status, result.reason = interrupt.status, interrupt.reason
            result.interrupted_component = index
        if tracer.enabled and result.interrupted_component is None:
            tracer.emit(
                "scc_end",
                scc=index,
                method=chosen,
                iterations=outcome.iterations,
                atoms=outcome.interpretation.total_size(),
                wall_s=round(tracer.clock() - t_scc, 6),
            )
        # ``state`` is this solve's own copy (``edb.copy()``), so the
        # finished component folds in without a copy of either side.
        if outcome is not None:
            state.absorb(outcome.interpretation)
            result.components.append(component)
            result.component_methods.append(chosen)
            result.component_results.append(outcome)
        if result.interrupted_component is not None:
            break
    # Auxiliary frontier atoms never leave the solver: the model and the
    # checkpoint (captured against the original program) carry original
    # predicates only; resume re-derives them from the restored lower
    # bound.
    for name in aux_predicates:
        state.relations.pop(name, None)
    if result.interrupted_component is not None:
        result.checkpoint = Checkpoint.capture(
            program,
            state,
            status=result.status,
            reason=result.reason,
            component=result.interrupted_component,
            iterations=result.total_iterations,
        )
        if tracer.enabled:
            tracer.emit(
                "checkpoint",
                status=result.status,
                component=result.interrupted_component,
                atoms=state.total_size(),
            )
    result.runtime_diagnostics = list(supervisor.diagnostics)
    if tracer.enabled:
        _flush_telemetry(tracer, eval_program, facts, result, t_solve, ready)
        if tracer.collect:
            result.telemetry = summarize(tracer.events)
    return result


def _prepare(
    program: Program, opts: SolveOptions, tracer: Tracer, classify: bool
) -> Tuple[Prepared, Optional[ProgramFacts]]:
    """The program's prepared record for this solve's check and pushdown
    (:class:`~repro.engine.exec.Prepared`), and this run's facts of the
    program evaluated: ``None`` when the record already holds all this
    solve reads.  A refused program publishes nothing, so each solve of
    it analyses again and its error carries fresh diagnostics."""
    key, records = (opts.check, opts.pushdown), prepared_records(program)
    record = records.get(key)
    if record is not None and opts.plan != "sharded":
        if record.classes is not None or not classify:
            return record, None
    facts = ProgramFacts(program)
    if record is not None:
        rewrite = record.rewrite
        return record, facts.rewritten(rewrite.program) if rewrite else facts
    if opts.check != "none":
        with tracer.phase("analyze"):
            _admit(facts, strict=opts.check == "strict")
    rewrite = None
    if opts.pushdown == "auto":
        # Zaniolo et al.'s pushdown rewrites premappable extrema before
        # the method choice, so the classification is of what runs.
        with tracer.phase("pushdown"):
            pushed = get_pushdown(program, facts=facts)
        rewrite = pushed if pushed.changed else None
    facts = facts.rewritten(rewrite.program) if rewrite else facts
    return records.setdefault(key, Prepared(rewrite, facts.components)), facts


def _admit(facts: ProgramFacts, *, strict: bool) -> None:
    """Refuse a program not range-restricted (Definition 2.5) or, under
    ``strict``, not certified monotonic (4.5) or conflict-free (2.10)."""

    def diagnostics(prefix: str) -> List[Diagnostic]:
        # The linter runs on the refusal path only.
        return [d for d in facts.diagnostics if d.code.startswith(prefix)]

    if not facts.range_restricted:
        bad = [str(r) for r in facts.safety if not r.ok]
        raise SafetyError(
            "program is not range-restricted:\n  " + "\n  ".join(bad),
            diagnostics=diagnostics("MAD1"),
        )
    if not strict:
        return
    if not facts.admissible:
        bad = [str(c) for c in facts.admissibility if not c.ok]
        raise NotAdmissibleError(
            "program not certified monotonic (use check='lenient' to "
            "attempt evaluation anyway):\n  " + "\n  ".join(bad),
            diagnostics=diagnostics("MAD3"),
        )
    if not facts.conflict_free:
        raise NotAdmissibleError(
            "program not certified conflict-free (use check='lenient' "
            "to rely on the runtime cost-consistency check):\n  "
            + str(facts.conflict),
            diagnostics=diagnostics("MAD2"),
        )


def _shard_decision(
    plan: str,
    verdict,
    resume: Optional[Checkpoint],
    supervisor: Supervisor,
) -> Tuple[bool, str]:
    """Whether to shard this component, with the lint-consistent reason.

    The reason string mirrors the analyzer's witness chain (MAD901-903)
    so the telemetry fallback event and `repro shard-plan` agree.
    """
    if plan != "sharded":
        return False, ""
    if verdict is None:
        return False, "component not analyzed"
    if not verdict.ok:
        return False, verdict.witness or verdict.status
    if verdict.key is None:
        return False, "no key plan"
    if resume is not None:
        return False, "resuming from a checkpoint"
    if supervisor.active and (
        supervisor.budget.bounded or supervisor.budget.on_divergence == "abort"
    ):
        # Budgets and divergence heuristics poll inside the fixpoint
        # loops; forked workers run unsupervised, so a budgeted solve
        # stays sequential.  A bare CancelToken (the CLI's Ctrl-C path)
        # does not block sharding — it is honored between components.
        return (
            False,
            "budgeted solve (budgets are enforced parent-side only)",
        )
    supported, why = sharded_supported()
    if not supported:
        return False, why
    return True, ""


def _flush_telemetry(
    tracer: Tracer,
    program: Program,
    facts: Optional[ProgramFacts],
    result: SolveResult,
    t_solve: float,
    ready: Prepared,
) -> None:
    """Emit the end-of-solve events of ``program``, the program evaluated
    in ``ready.components``: per-rule profiles, counters (the passes
    ``facts`` ran: none on a prepared solve), totals."""
    index = {c.cdb: i for i, c in enumerate(ready.components)}
    scc_of = {p: index[c.cdb] for c in result.components for p in c.cdb}
    rule_index = {id(rule): i for i, rule in enumerate(program.rules)}
    rows = sorted(
        tracer.rule_stats(),
        key=lambda row: rule_index.get(id(row[0]), -1),
    )
    for rule, calls, derived, wall in rows:
        tracer.emit(
            "rule_profile",
            rule=str(rule),
            rule_index=rule_index.get(id(rule), -1),
            head=rule.head.predicate,
            scc=scc_of.get(rule.head.predicate),
            calls=calls,
            derived=derived,
            wall_s=round(wall, 6),
        )
    tracer.emit(
        "counters",
        index=tracer.index_stats.snapshot(),
        plan_cache={"hits": tracer.plan_hits, "misses": tracer.plan_misses},
    )
    solve_wall = round(tracer.clock() - t_solve, 6)
    m = tracer.metrics
    m.counter("solve.components").inc(len(result.components))
    passes = (facts.original or facts).passes_run if facts is not None else 0
    m.counter("analysis.programs_analyzed").inc(facts is not None)
    m.counter("analysis.passes_run").inc(passes)
    m.gauge("solve.atoms").set(float(result.model.total_size()))
    m.timer("solve.wall_s").observe(solve_wall)
    # The merged registry (parent sites + worker snapshots folded at the
    # shard barrier) rides the stream as one ``metrics_snapshot`` event,
    # emitted before ``solve_end`` so the flight-recorder ring keeps it.
    if len(tracer.metrics):
        tracer.emit("metrics_snapshot", metrics=tracer.metrics.snapshot())
    tracer.emit(
        "solve_end",
        iterations=result.total_iterations,
        atoms=result.model.total_size(),
        wall_s=solve_wall,
    )
