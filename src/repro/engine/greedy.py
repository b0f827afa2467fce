"""Greedy (priority-queue) evaluation for extremal monotonic components.

Section 7 points at Ganguly et al.'s greedy technique for min/max
programs: on the shortest-path program with non-negative arc weights it is
the generalisation of Dijkstra's algorithm.  This evaluator implements the
idea for the engine at large:

* candidate cost atoms live in a priority queue ordered by the *numeric*
  cost (ascending for min-oriented ``reals_ge`` components, descending
  for max-oriented ones);
* popping *settles* an atom: once settled, a key's value is final and new
  candidates for it are discarded;
* settling an atom triggers delta re-derivation (the semi-naive seed
  machinery) to push its consequences.

Soundness needs the Dijkstra invariant: a rule firing on settled atoms
may only produce candidates that are no better (numerically no smaller,
for min) than the settled costs it consumed — e.g. non-negative arc
weights.  The paper itself notes greedy methods do not extend to all
monotonic programs (Section 7); :func:`greedy_applicable` gates the
syntactic shape, and the weight condition is the caller's promise
(``assume_invariant=True``), cross-checked against the naive engine in
the test suite.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, List, Optional, Tuple

from repro.analysis.dependencies import Component
from repro.datalog.errors import ReproError
from repro.datalog.program import Program
from repro.engine.grounding import EvalContext
from repro.engine.interpretation import Interpretation
from repro.engine.naive import FixpointResult
from repro.engine.seminaive import DeltaDispatch
from repro.engine.supervisor import (
    NULL_SUPERVISOR,
    SolveInterrupt,
    Supervisor,
)
from repro.engine.tp import apply_tp
from repro.obs.tracer import NULL_TRACER, Tracer


def greedy_applicable(program: Program, component: Component) -> Optional[int]:
    """The numeric direction (+1 max-oriented, -1 min-oriented) if the
    component fits the greedy evaluator, else None.

    Requirements: every CDB predicate is a cost predicate over a numeric
    chain, all with the same direction, and none carries a default value.
    """
    direction: Optional[int] = None
    for predicate in component.cdb:
        decl = program.decl(predicate)
        if not decl.is_cost_predicate or decl.has_default:
            return None
        assert decl.lattice is not None
        d = decl.lattice.numeric_direction
        if d is None:
            return None
        if direction is None:
            direction = d
        elif direction != d:
            return None
    return direction


def greedy_fixpoint(
    program: Program,
    component: Component,
    i: Interpretation,
    *,
    assume_invariant: bool = False,
    max_pops: int = 10_000_000,
    plan: str = "smart",
    tracer: Tracer = NULL_TRACER,
    scc: int = 0,
    supervisor: Supervisor = NULL_SUPERVISOR,
    initial: Optional[Interpretation] = None,
) -> FixpointResult:
    """Priority-queue fixpoint of one extremal component.

    With an enabled ``tracer`` each *settled* atom emits one
    ``iteration`` event (the greedy analogue of a fixpoint round:
    exactly one atom becomes final per settle).

    An active ``supervisor`` is polled per pop and consulted per settle;
    an interrupt escapes with the settled-so-far state attached — under
    the Dijkstra invariant every settled value is *final*, so greedy
    partial results are exact on their domain, not just lower bounds.
    ``initial`` resumes from a checkpoint: its atoms are pre-settled and
    the heap is re-seeded by one full ``T_P`` application over them.
    """
    direction = greedy_applicable(program, component)
    if direction is None:
        raise ReproError(
            f"greedy evaluation does not apply to {component}; use the "
            f"naive or semi-naive evaluator"
        )
    if not assume_invariant:
        raise ReproError(
            "greedy evaluation is only sound under the Dijkstra invariant "
            "(e.g. non-negative arc weights); pass assume_invariant=True "
            "to acknowledge it"
        )
    cdb = component.cdb
    rules = list(component.rules)
    j = Interpretation(program.declarations)
    if initial is not None:
        # Checkpointed greedy atoms were settled, hence final: restore
        # them as settled so re-derivation cannot revise them.
        for name, rel in initial.relations.items():
            if name in cdb and len(rel):
                j.relation(name).join_rows(rel.rows())
    ctx = EvalContext(program, cdb, j, i, tracer=tracer)
    dispatch = DeltaDispatch(rules, cdb)
    # Each settle adds exactly one atom to ``j``, so the traced and
    # supervised branches report ``base + settled_count`` instead of
    # re-summing every relation per settle.
    base = j.size_of(cdb)
    track = tracer.enabled
    supervise = supervisor.active

    counter = itertools.count()
    heap: List[Tuple[float, int, str, Tuple[Any, ...]]] = []

    def push(predicate: str, args: Tuple[Any, ...]) -> None:
        # direction -1 (reals_ge / min): numerically smaller is ⊑-greater
        # and must settle first, so the heap key is the raw cost; for
        # max-oriented components the key is negated.
        cost = args[-1]
        heap_key = cost if direction == -1 else -cost
        heapq.heappush(heap, (heap_key, next(counter), predicate, args))

    settled_count = 0
    try:
        # Seed: one full application against J (empty, or the restored
        # settled atoms when resuming — their consequences re-derive here,
        # and already-settled keys are skipped).
        seed = apply_tp(
            program,
            cdb,
            j,
            i,
            rules=rules,
            strict=False,
            plan=plan,
            tracer=tracer,
            supervisor=supervisor,
            scc=scc,
        )
        for name, rel in seed.relations.items():
            settled = j.relation(name).costs
            for key, value in rel.costs.items():
                if key in settled:
                    continue
                push(name, key + (value,))

        pops = 0
        while heap:
            pops += 1
            if pops > max_pops:
                raise ReproError(f"greedy evaluation exceeded {max_pops} pops")
            if supervise:
                supervisor.poll(scc, settled_count)
            _, _, predicate, args = heapq.heappop(heap)
            rel = j.relation(predicate)
            key, value = args[:-1], args[-1]
            existing = rel.costs.get(key)
            if existing is not None:
                # Settled already; by the invariant the settled value is
                # final.
                continue
            t_settle = tracer.clock() if track else 0.0
            # set_cost keeps the persistent indexes on ``rel`` consistent,
            # so the long-lived context sees the settled atom immediately.
            rel.set_cost(key, value, strict=False)
            settled_count += 1
            for head_pred, rows in dispatch.fire({predicate: [args]}, ctx, plan):
                head_costs = j.relation(head_pred).costs
                for head_args in rows:
                    if head_args[:-1] not in head_costs:
                        push(head_pred, head_args)
            if track:
                settle_wall = round(tracer.clock() - t_settle, 6)
                tracer.emit(
                    "iteration",
                    scc=scc,
                    iteration=settled_count,
                    delta_atoms=1,
                    new_atoms=1,
                    changed_atoms=0,
                    total_atoms=base + settled_count,
                    wall_s=settle_wall,
                )
                m = tracer.metrics
                m.counter("greedy.settled").inc()
                m.timer("greedy.settle_wall_s").observe(settle_wall)
            if supervise:
                # One settle = the greedy analogue of a fixpoint round.
                supervisor.on_round(
                    scc=scc,
                    iteration=settled_count,
                    new_atoms=1,
                    changed_atoms=0,
                    total_atoms=base + settled_count,
                )
    except SolveInterrupt as interrupt:
        # Check sites sit between settles, so ``j`` holds only fully
        # settled (final) atoms.
        interrupt.attach(
            FixpointResult(
                interpretation=j,
                iterations=settled_count,
                ascending=True,
                trajectory=[base + settled_count],
                status=interrupt.status,
            )
        )
        raise

    return FixpointResult(
        interpretation=j,
        iterations=settled_count,
        ascending=True,
        trajectory=[base + settled_count],
    )
