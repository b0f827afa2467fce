"""Greedy evaluation: a cost-ordered worklist policy over the delta round.

Section 7 names Ganguly et al.'s greedy technique for min/max programs
as an *evaluation order*; Zaniolo et al. derive it the same way — an
extremum premappable into the recursion lets the one semi-naive
fixpoint settle Dijkstra-style.  So there is no greedy driver here, only
:class:`CostOrdered`, the policy :func:`greedy_fixpoint` hands to the
shared round of :mod:`repro.engine.fixpoint`: derived rows wait in a
priority queue ordered by the *numeric* cost (ascending for min-oriented
``reals_ge`` components, descending for max-oriented ones) and each
round writes the best :data:`~repro.engine.fixpoint.SEED_SLICE` of them
that still improve ``J``, then fires the rows that changed as one batch.

Rows are *joined* into ``J``, so a better value derived later still
revises a key and the least fixpoint is reached whatever the data.  The
cost order is a cost model, not a soundness condition: when rules only
derive candidates no better than the costs they consumed (non-negative
arc weights — the Dijkstra invariant) each key is written once, at its
final value; where they do not (negative arcs) keys are revised, and a
program without a finite least fixpoint (a negative cycle) runs into
``max_iterations`` or its budget exactly as semi-naive does.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, List, Tuple

from repro.analysis.classify import greedy_applicable
from repro.analysis.dependencies import Component
from repro.datalog.errors import ReproError
from repro.datalog.program import Program
from repro.engine.interpretation import Interpretation, Key
from repro.engine.fixpoint import (
    SEED_SLICE,
    DeltaRows,
    Derived,
    FixpointResult,
    fixpoint,
)

__all__ = ["CostOrdered", "greedy_applicable", "greedy_fixpoint"]


class CostOrdered:
    """The cost-ordered worklist: derived rows queue by cost, and a round
    writes the best :data:`SEED_SLICE` that strictly improve ``J``."""

    def __init__(self, direction: int) -> None:
        #: direction -1 (``reals_ge`` / min): numerically smaller is
        #: ⊑-greater and goes first, so the heap key is the raw cost;
        #: for max-oriented components the key is negated.
        self.sign = -direction
        self.heap: List[Tuple[Any, int, str, Key]] = []
        self.counter = itertools.count()

    def select(self, derived: Derived, j: Interpretation) -> Derived:
        sign, heap, counter = self.sign, self.heap, self.counter
        for predicate, rows in derived:
            costs = j.relation(predicate).costs
            for row in rows:
                held = costs.get(row[:-1])
                rank = sign * row[-1]
                if held is None or rank < sign * held:
                    heapq.heappush(heap, (rank, next(counter), predicate, row))
        # Rows queued before ``J`` caught up with them are dropped here;
        # they cost a pop, not a place in the slice.
        best: DeltaRows = {}
        room = SEED_SLICE
        relations = j.relations
        while heap and room:
            rank, _, predicate, row = heapq.heappop(heap)
            held = relations[predicate].costs.get(row[:-1])
            if held is None or rank < sign * held:
                best.setdefault(predicate, []).append(row)
                room -= 1
        return list(best.items())

    def frontier(self) -> DeltaRows:
        pending: DeltaRows = {}
        for _, _, predicate, row in sorted(self.heap):
            pending.setdefault(predicate, []).append(row)
        return pending


def greedy_fixpoint(
    program: Program, component: Component, i: Interpretation, **options: Any
) -> FixpointResult:
    """Fixpoint of one extremal component in cost order: the shared
    delta round (``options`` are :func:`~repro.engine.fixpoint.fixpoint`'s)
    under the :class:`CostOrdered` policy.  A slice is a round wherever rounds are
    counted — events, ``max_iterations``, budgets, the result's
    ``iterations``; an interrupt leaves ``J`` a sound lower bound (in
    which, under the Dijkstra invariant, every atom at or ⊑-above the
    best pending candidate is final).
    """
    direction = greedy_applicable(program, component)
    if direction is None:
        raise ReproError(
            f"greedy evaluation does not apply to {component}; use the "
            f"naive or semi-naive evaluator"
        )
    return fixpoint(
        program,
        component.cdb,
        i,
        strict=False,
        worklist=CostOrdered(direction),
        **options,
    )
