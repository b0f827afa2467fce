"""Greedy evaluation: a cost-ordered worklist policy over the delta round.

Section 7 names Ganguly et al.'s greedy technique for min/max programs
as an *evaluation order*; Zaniolo et al. derive it the same way — an
extremum premappable into the recursion lets the one semi-naive
fixpoint settle Dijkstra-style.  So there is no greedy driver here, only
:class:`CostOrdered`, the policy :func:`greedy_fixpoint` hands to the
shared round of :mod:`repro.engine.fixpoint`.  A round writes all it
derives into ``J``, as semi-naive does, so ``J`` holds each key's best
pending cost; the policy picks which *changed* rows fire next: whole tie
bands, best *numeric* cost first (ascending for min-oriented
``reals_ge`` components, descending for max-oriented ones), until the
round holds :data:`~repro.engine.fixpoint.SEED_SLICE` rows ``J`` still holds.

The cost order is a cost model, not a soundness condition: a better
value derived later still revises a key, so the least fixpoint is
reached whatever the data.  If rounds fire one band each and none
writes a row better than those it fired (non-negative arc weights — the
Dijkstra invariant), every key fires once, at its final value; negative
arcs re-fire keys, and a negative cycle runs into ``max_iterations`` or
its budget exactly as semi-naive does.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import groupby, repeat
from operator import itemgetter
from typing import Any, Dict, List, Tuple

from repro.analysis.classify import greedy_applicable
from repro.analysis.dependencies import Component
from repro.datalog.errors import ReproError
from repro.datalog.program import Program
from repro.engine.interpretation import Interpretation, Key
from repro.engine.fixpoint import SEED_SLICE, DeltaRows, FixpointResult, fixpoint

__all__ = ["CostOrdered", "greedy_applicable", "greedy_fixpoint"]

_row_cost, _cost, _predicate = itemgetter(-1), itemgetter(0), itemgetter(1)


class CostOrdered:
    """The cost-ordered worklist: changed rows queue in tie bands, and a
    round fires the best whole bands until :data:`SEED_SLICE` are live."""

    def __init__(self, direction: int) -> None:
        #: direction -1 (``reals_ge`` / min): numerically smaller is
        #: ⊑-greater and goes first, so a band's rank is the raw cost;
        #: for max-oriented components it is negated.
        self.sign = -direction
        #: The distinct ranks queued, and each one's rows as
        #: ``(cost, predicate, row)`` in write order.
        self.heap: List[Any] = []
        self.bands: Dict[Any, List[Tuple[Any, str, Key]]] = {}

    def select(self, changed: DeltaRows, j: Interpretation) -> DeltaRows:
        sign, heap, bands = self.sign, self.heap, self.bands
        for predicate, rows in changed.items():
            entries = zip(map(_row_cost, rows), repeat(predicate), rows)
            for cost, tied in groupby(sorted(entries, key=_cost), _cost):
                band = bands.get(sign * cost)
                if band is None:
                    bands[sign * cost] = list(tied)
                    heappush(heap, sign * cost)
                else:
                    band.extend(tied)
        # Whole bands to SEED_SLICE rows ``J`` still holds; a row whose key
        # has improved since is dropped (the better row is in a better band).
        held = {name: rel.costs.get for name, rel in j.relations.items()}
        fire: List[Tuple[Any, str, Key]] = []
        while heap and len(fire) < SEED_SLICE:
            popped = bands.pop(heappop(heap))
            while heap and len(fire) + len(popped) < SEED_SLICE:
                popped += bands.pop(heappop(heap))
            fire += [e for e in popped if held[e[1]](e[2][:-1]) == e[0]]
        fire.sort(key=_predicate)  # stable: each predicate's rows in band order
        return {p: [e[2] for e in es] for p, es in groupby(fire, _predicate)}


def greedy_fixpoint(
    program: Program, component: Component, i: Interpretation, **options: Any
) -> FixpointResult:
    """Fixpoint of one extremal component in cost order: the shared
    delta round (``options`` are :func:`~repro.engine.fixpoint.fixpoint`'s)
    under the :class:`CostOrdered` policy.  An interrupt leaves ``J`` a
    sound lower bound whose unfired keys may hold tentative costs (under
    the Dijkstra invariant, every atom at or ⊑-above the best unfired
    band is final)."""
    direction = greedy_applicable(program, component)
    if direction is None:
        raise ReproError(
            f"greedy evaluation does not apply to {component}; use the "
            f"naive or semi-naive evaluator"
        )
    policy = CostOrdered(direction)
    return fixpoint(program, component.cdb, i, strict=False, worklist=policy, **options)
