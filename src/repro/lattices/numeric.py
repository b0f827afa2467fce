"""Numeric cost lattices from Figure 1 of the paper.

All of these are *chains* (total orders), represented with ordinary Python
numbers plus IEEE infinities for the limit elements.  The ≤ chains share
one order (:class:`NumericChain`); the ≥ one is the dual of its ≤ twin:

==============================  =======  =========  =======  ==========
Carrier                         order    bottom     top      Figure 1
==============================  =======  =========  =======  ==========
R ∪ {±∞}                        ≤        -∞         +∞       row 1 (max)
R* ∪ {∞}   (non-negative)       ≤        0          +∞       rows 2, 4
R ∪ {±∞}   (dual of row 1)      ≥        +∞         -∞       row 3 (min)
N⁺ ∪ {∞}   (positive ints)      ≤        1          +∞       row 7
N ∪ {∞}                         ≤        0          +∞       row 8 range
==============================  =======  =========  =======  ==========

Beware (Example 3.1): for the ≥-ordered lattice used by ``min`` programs,
"⊑-larger" means *numerically smaller* — minimal models carry the largest
cost values with respect to ⊑, i.e. the shortest paths.
"""

from __future__ import annotations

import math
from operator import ne
from typing import Any, FrozenSet, Iterator, Optional, Sequence

from repro.lattices.base import Lattice
from repro.lattices.combinators import DualLattice

INF = float("inf")
NEG_INF = float("-inf")


def _is_real(value: Any) -> bool:
    """Accept ints and floats (including infinities), reject NaN and bools."""
    kind = type(value)
    if kind is float:  # exact types first: the per-derived-row hot path
        return value == value
    if kind is int:
        return True
    if isinstance(value, bool):
        return False
    if not isinstance(value, (int, float)):
        return False
    return not (isinstance(value, float) and math.isnan(value))


_REALS = frozenset({int, float})
_INTS = frozenset({int})


def _all_exact(values: Sequence[Any], kinds: FrozenSet[type]) -> bool:
    """Every value is exactly one of ``kinds`` (so no bool, no subclass)
    and none is NaN: :meth:`Lattice.accepts_all`'s one decision per
    column, where :func:`_is_real` is one call per value."""
    seen = set(map(type, values))
    return seen <= kinds and (float not in seen or not any(map(ne, values, values)))


class NumericChain(Lattice):
    """A chain of numbers ordered by ``≤``: join is the larger value,
    meet the smaller, ⊤ is +∞ unless a subclass bounds it.  The one ≤
    order of every numeric lattice here; :class:`DescendingReals` is the
    :class:`~repro.lattices.combinators.DualLattice` of
    :class:`AscendingReals`."""

    is_chain = True
    numeric_direction = 1

    def leq(self, a: Any, b: Any) -> bool:
        return a <= b

    def join(self, a: Any, b: Any) -> Any:
        return a if a >= b else b

    def meet(self, a: Any, b: Any) -> Any:
        return a if a <= b else b

    @property
    def top(self) -> Any:
        return INF


class AscendingReals(NumericChain):
    """``(R ∪ {±∞}, ≤)`` — the domain/range of ``maximum`` (Figure 1 row 1)."""

    name = "reals_le"

    @property
    def bottom(self) -> float:
        return NEG_INF

    def __contains__(self, value: Any) -> bool:
        return _is_real(value)

    def accepts_all(self, values: Sequence[Any]) -> bool:
        return _all_exact(values, _REALS)

    def sample(self) -> Optional[Iterator[Any]]:
        return iter([NEG_INF, -2.5, -1, 0, 0.5, 1, 3, 100, INF])


class DescendingReals(DualLattice):
    """``(R ∪ {±∞}, ≥)`` — the domain/range of ``minimum`` (Figure 1 row 3).

    The dual of :class:`AscendingReals`: ``bottom`` is +∞, the default
    value of a ``min`` cost predicate and the value ``min`` assigns to an
    empty group under the ``=`` form.
    """

    name = "reals_ge"

    def __init__(self) -> None:
        super().__init__(AscendingReals(), self.name)


class NonNegativeReals(NumericChain):
    """``(R* ∪ {∞}, ≤)`` — the domain/range of ``sum`` (Figure 1 rows 2, 4)."""

    name = "nonneg_reals_le"

    @property
    def bottom(self) -> float:
        return 0

    def __contains__(self, value: Any) -> bool:
        return _is_real(value) and value >= 0

    def accepts_all(self, values: Sequence[Any]) -> bool:
        return _all_exact(values, _REALS) and min(values, default=0) >= 0

    def sample(self) -> Optional[Iterator[Any]]:
        return iter([0, 0.25, 0.5, 1, 2, 3.5, 10, INF])


class PositiveIntegers(NumericChain):
    """``(N⁺ ∪ {∞}, ≤)`` — the domain/range of ``product`` (Figure 1 row 7)."""

    name = "pos_ints_le"

    @property
    def bottom(self) -> Any:
        return 1

    def __contains__(self, value: Any) -> bool:
        if value == INF:
            return True
        return isinstance(value, int) and not isinstance(value, bool) and value >= 1

    def accepts_all(self, values: Sequence[Any]) -> bool:
        return _all_exact(values, _INTS) and min(values, default=1) >= 1

    def sample(self) -> Optional[Iterator[Any]]:
        return iter([1, 2, 3, 5, 8, 100, INF])


class Naturals(NumericChain):
    """``(N ∪ {∞}, ≤)`` — the range of ``count`` (Figure 1 row 8)."""

    name = "naturals_le"

    @property
    def bottom(self) -> Any:
        return 0

    def __contains__(self, value: Any) -> bool:
        if value == INF:
            return True
        return isinstance(value, int) and not isinstance(value, bool) and value >= 0

    def accepts_all(self, values: Sequence[Any]) -> bool:
        return _all_exact(values, _INTS) and min(values, default=0) >= 0

    def sample(self) -> Optional[Iterator[Any]]:
        return iter([0, 1, 2, 3, 7, 42, INF])


class BoundedReals(NumericChain):
    """A closed real interval ``([lo, hi], ≤)``.

    Handy for proportions (company control shares live in ``[0, 1]``; the
    paper's Example 2.7 only needs closure under sum up to the cap, which
    the ``sum`` aggregate provides by clamping at ``hi``).
    """

    def __init__(self, lo: float, hi: float, name: str | None = None) -> None:
        if not (lo < hi):
            raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi
        self.name = name or f"reals[{lo},{hi}]"

    @property
    def bottom(self) -> float:
        return self.lo

    @property
    def top(self) -> float:
        return self.hi

    def __contains__(self, value: Any) -> bool:
        return _is_real(value) and self.lo <= value <= self.hi

    def accepts_all(self, values: Sequence[Any]) -> bool:
        return _all_exact(values, _REALS) and (
            not values or (self.lo <= min(values) and max(values) <= self.hi)
        )

    def sample(self) -> Optional[Iterator[Any]]:
        span = self.hi - self.lo
        return iter(
            [self.lo + span * f for f in (0, 0.1, 0.25, 0.5, 0.75, 0.9, 1)]
        )

    def __eq__(self, other: object) -> bool:
        return (
            type(self) is type(other)
            and self.lo == other.lo  # type: ignore[attr-defined]
            and self.hi == other.hi  # type: ignore[attr-defined]
        )

    def __hash__(self) -> int:
        return hash((type(self), self.lo, self.hi))
