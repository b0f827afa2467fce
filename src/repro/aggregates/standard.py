"""The aggregate functions of Figure 1, plus the paper's extras.

Each class fixes the lattices of its Figure 1 row by default; the two
boolean aggregates and the two extrema come in *both* orientations because
the paper uses both (``AND`` is monotonic on ``(B, ≥)`` — row 5 — but only
pseudo-monotonic on ``(B, ≤)``, which is the orientation the circuit
program of Example 4.4 needs; dually for ``min``/``max``, §4.1.1).

``average`` (Example 2.1) and ``halfsum`` (Example 5.1) round out the set:
``average`` is pseudo-monotonic with no empty value, ``halfsum`` is fully
monotonic and drives the beyond-ω iteration example.

Every function implements the mergeable two-phase interface of
:class:`~repro.aggregates.base.AggregateFunction`
(``state_create / process / merge / convert``); the partial states are
plain picklable values (numbers, tuples, frozensets, or ``None`` for "no
element seen yet"), so they can cross process boundaries in sharded
evaluation.  The merge algebra of each state — associativity,
commutativity, identity — is verified empirically by
:mod:`repro.aggregates.algebra` and the test suite.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, FrozenSet, Iterable, Optional, Tuple

from repro.aggregates.base import (
    AggregateFunction,
    EmptyAggregateError,
    Monotonicity,
)
from repro.lattices import (
    BOOL_GE,
    BOOL_LE,
    INF,
    NATURALS_LE,
    NONNEG_REALS_LE,
    POS_INTS_LE,
    REALS_GE,
    REALS_LE,
)
from repro.lattices.base import Lattice
from repro.lattices.sets import PowersetIntersection, PowersetUnion


class _ExtremumMixin(AggregateFunction):
    """Shared two-phase state for the four min/max variants.

    The state is ``None`` (no element yet) or the numeric extremum so
    far; ``merge`` is the ``None``-absorbing extremum of two states —
    associative and commutative because ``min``/``max`` are, with
    ``None`` as identity.
    """

    #: ``min`` or ``max``; fixed by the concrete subclass.
    _pick: Callable[..., Any]

    def state_create(self) -> Optional[Any]:
        return None

    def process(self, state: Optional[Any], value: Any) -> Any:
        return value if state is None else type(self)._pick(state, value)

    def merge(self, state: Optional[Any], other: Optional[Any]) -> Optional[Any]:
        if state is None:
            return other
        if other is None:
            return state
        return type(self)._pick(state, other)

    def convert(self, state: Optional[Any]) -> Any:
        if state is None:
            raise EmptyAggregateError(f"{self.name}: empty partial state")
        return state


class Minimum(_ExtremumMixin):
    """``min`` on ``(R ∪ {±∞}, ≥)`` — Figure 1 row 3.  ``min(∅) = +∞``.

    Under the ≥ order, growing the multiset can only *lower* the numeric
    minimum, which is a ⊑-increase — hence monotonic.
    """

    name = "min"
    classification = Monotonicity.MONOTONIC
    _pick = min

    def __init__(self, domain: Lattice | None = None) -> None:
        lattice = domain or REALS_GE
        super().__init__(lattice, lattice)


class MinimumAscending(Minimum):
    """``min`` viewed against the ≤ order: pseudo-monotonic only (§4.1.1)."""

    name = "min_le"
    classification = Monotonicity.PSEUDO_MONOTONIC

    def __init__(self) -> None:
        AggregateFunction.__init__(self, REALS_LE, REALS_LE)

    def empty_value(self) -> Any:
        # min over (R, ≤) has no sensible ∅ value below every element
        # except -∞ = ⊥, which the default provides.
        return self.range_.bottom


class Maximum(_ExtremumMixin):
    """``max`` on ``(R ∪ {±∞}, ≤)`` — Figure 1 row 1.  ``max(∅) = -∞``."""

    name = "max"
    classification = Monotonicity.MONOTONIC
    _pick = max

    def __init__(self, domain: Lattice | None = None) -> None:
        lattice = domain or REALS_LE
        super().__init__(lattice, lattice)


class MaximumNonNegative(Maximum):
    """``max`` on ``(R* ∪ {∞}, ≤)`` — Figure 1 row 2.  ``max(∅) = 0``."""

    name = "max_nonneg"

    def __init__(self) -> None:
        AggregateFunction.__init__(self, NONNEG_REALS_LE, NONNEG_REALS_LE)


class MaximumDescending(Maximum):
    """``max`` viewed against the ≥ order: pseudo-monotonic only (§4.1.1)."""

    name = "max_ge"
    classification = Monotonicity.PSEUDO_MONOTONIC

    def __init__(self) -> None:
        AggregateFunction.__init__(self, REALS_GE, REALS_GE)


#: An exact partial sum: the total of the ``int`` values, the total of the
#: finite floats as a non-overlapping expansion (``()`` until a float is
#: seen), and the total of the infinite ones (``0.0`` until one is seen).
_SumState = Tuple[int, Tuple[float, ...], float]


def _grow(partials: Tuple[float, ...], x: float) -> Tuple[float, ...]:
    """``partials + x`` as a non-overlapping expansion, exactly: Shewchuk's
    Grow-Expansion, the algorithm behind ``math.fsum``."""
    out = []
    for y in partials:
        hi = x + y
        b = hi - x
        lo = (x - (hi - b)) + (y - b)
        if lo:
            out.append(lo)
        x = hi
    out.append(x)
    return tuple(out)


class Sum(AggregateFunction):
    """``sum`` on ``(R* ∪ {∞}, ≤)`` — Figure 1 row 4.  ``sum(∅) = 0``.

    Only non-negative values keep ``sum`` monotonic: adding an element can
    then only increase the total.

    The sum is exact: the partial state (:data:`_SumState`) keeps integers
    as an ``int`` and floats as a non-overlapping expansion, and
    ``convert`` rounds once — to an ``int`` when every value was one, else
    to the nearest float.  So the result does not depend on the order in
    which a group's rows were derived: sequential evaluators and
    hash-partitioned shards (docs/PARALLELISM.md) agree bit for bit.
    """

    name = "sum"
    classification = Monotonicity.MONOTONIC

    def __init__(self, domain: Lattice | None = None) -> None:
        lattice = domain or NONNEG_REALS_LE
        super().__init__(lattice, lattice)

    def state_create(self) -> _SumState:
        return (0, (), 0.0)

    def process(self, state: _SumState, value: Any) -> _SumState:
        ints, partials, special = state
        if isinstance(value, int):
            return (ints + value, partials, special)
        if value - value:  # ±∞ (or nan): no finite value changes the total
            return (ints, partials, special + value)
        partials = _grow(partials, value)
        if partials[-1] - partials[-1]:  # past the largest float: ±∞
            return (ints, (0.0,), special + partials[-1])
        return (ints, partials, special)

    def merge(self, state: _SumState, other: _SumState) -> _SumState:
        ints, partials, special = other
        for x in partials:
            state = self.process(state, x)
        return (state[0] + ints, state[1], state[2] + special)

    def convert(self, state: _SumState, divisor: Optional[int] = None) -> Any:
        """The exact total, divided by ``divisor`` if one is given,
        rounded once; an ``int`` when every value was one and there is no
        divisor."""
        ints, partials, special = state
        if special:
            return special
        if not partials:
            return ints if divisor is None else ints / divisor
        divisor = divisor or 1
        if not ints and divisor <= 2:
            # Halving a float rounds only below 2**-1021, where fsum is
            # exact; ``+ 0.0`` makes a zero total 0.0, as the exact sum is.
            return (math.fsum(partials) + 0.0) / divisor
        # Exactly, over 2**1074, which every float's denominator divides.
        scaled = ints << 1074
        for n, d in map(float.as_integer_ratio, partials):
            scaled += n << (1075 - d.bit_length())
        return scaled / (divisor << 1074)


class HalfSum(Sum):
    """``halfsum`` — half the sum, monotonic on ``(R*, ≤)`` (Example 5.1)."""

    name = "halfsum"

    def convert(self, state: _SumState, divisor: Optional[int] = None) -> Any:
        return super().convert(state, 2)


class Count(AggregateFunction):
    """``count`` — Figure 1 row 8: ``M(B) → (N ∪ {∞}, ≤)``.

    Counts elements regardless of their value, so it is monotonic over any
    domain lattice; the Figure 1 row fixes ``D = (B, ≤)``.  The partial
    state is the running count; ``merge`` is ``+``.
    """

    name = "count"
    classification = Monotonicity.MONOTONIC

    def __init__(self, domain: Lattice | None = None) -> None:
        super().__init__(domain or BOOL_LE, NATURALS_LE)

    def state_create(self) -> int:
        return 0

    def process(self, state: int, value: Any) -> int:
        return state + 1

    def merge(self, state: int, other: int) -> int:
        return state + other

    def convert(self, state: int) -> int:
        return state


class Product(AggregateFunction):
    """``product`` on ``(N⁺ ∪ {∞}, ≤)`` — Figure 1 row 7.  ``product(∅) = 1``.

    Positivity (≥ 1) is what keeps multiplication monotone — and the
    running-product state mergeable (``merge`` is ``*``, identity 1).
    """

    name = "product"
    classification = Monotonicity.MONOTONIC

    def __init__(self) -> None:
        super().__init__(POS_INTS_LE, POS_INTS_LE)

    def state_create(self) -> Any:
        return 1

    def process(self, state: Any, value: Any) -> Any:
        if value == INF or state == INF:
            return INF
        return state * value

    def merge(self, state: Any, other: Any) -> Any:
        if state == INF or other == INF:
            return INF
        return state * other

    def convert(self, state: Any) -> Any:
        return state


class _BooleanMixin(AggregateFunction):
    """Shared ``None``-or-bit state for the four AND/OR variants."""

    #: The binary boolean combiner (``min`` = and, ``max`` = or on bits).
    _combine: Callable[..., int]

    def state_create(self) -> Optional[int]:
        return None

    def process(self, state: Optional[int], value: Any) -> Optional[int]:
        bit = 1 if int(value) == 1 else 0
        return bit if state is None else type(self)._combine(state, bit)

    def merge(self, state: Optional[int], other: Optional[int]) -> Optional[int]:
        if state is None:
            return other
        if other is None:
            return state
        return type(self)._combine(state, other)

    def convert(self, state: Optional[int]) -> int:
        if state is None:
            raise EmptyAggregateError(f"{self.name}: empty partial state")
        return state


class LogicalAnd(_BooleanMixin):
    """``AND`` on ``(B, ≥)`` — Figure 1 row 5: monotonic.  ``AND(∅) = 1``."""

    name = "and"
    classification = Monotonicity.MONOTONIC
    _combine = min

    def __init__(self) -> None:
        super().__init__(BOOL_GE, BOOL_GE)


class LogicalAndAscending(LogicalAnd):
    """``AND`` against ``(B, ≤)``: pseudo-monotonic (§4.1.1, Example 4.4).

    ``AND({1}) = 1`` but ``AND({0, 1}) = 0`` — so adding elements can shrink
    the result; with a *fixed* multiset size (default-value predicates) it
    is monotone.  ``AND(∅) = 1``, the usual empty-conjunction convention —
    note this is ⊤ of ``(B, ≤)``, not ⊥, which is precisely why ``AND``
    cannot be used monotonically with the ``=`` form over growing groups.
    """

    name = "and_le"
    classification = Monotonicity.PSEUDO_MONOTONIC

    def __init__(self) -> None:
        AggregateFunction.__init__(self, BOOL_LE, BOOL_LE)

    def empty_value(self) -> Any:
        return 1


class LogicalOr(_BooleanMixin):
    """``OR`` on ``(B, ≤)`` — Figure 1 row 6: monotonic.  ``OR(∅) = 0``."""

    name = "or"
    classification = Monotonicity.MONOTONIC
    _combine = max

    def __init__(self) -> None:
        super().__init__(BOOL_LE, BOOL_LE)


class LogicalOrDescending(LogicalOr):
    """``OR`` against ``(B, ≥)``: pseudo-monotonic (the §4.1.1 dual of
    ``and_le``).  Used for *maximal* circuit behaviour, where the lattice
    bottom — and hence the default wire value — is 1 (Example 4.4's
    closing remark); sound over default-value predicates exactly like
    ``and_le`` is in the minimal orientation.  ``OR(∅) = 0`` (the empty
    disjunction), which is ⊤ of ``(B, ≥)`` — the same asymmetry that
    makes it only pseudo-monotonic."""

    name = "or_ge"
    classification = Monotonicity.PSEUDO_MONOTONIC

    def __init__(self) -> None:
        AggregateFunction.__init__(self, BOOL_GE, BOOL_GE)

    def empty_value(self) -> Any:
        return 0


class Union(AggregateFunction):
    """``union`` on ``(2^S, ⊆)`` — Figure 1 row 9.  ``union(∅) = ∅``.

    The partial state is the union so far; ``merge`` is ``|`` with the
    empty set as identity — set union is the textbook mergeable state.
    """

    name = "union"
    classification = Monotonicity.MONOTONIC

    def __init__(self, universe: Iterable[Any]) -> None:
        lattice = PowersetUnion(universe)
        super().__init__(lattice, lattice)

    def state_create(self) -> FrozenSet[Any]:
        return frozenset()

    def process(self, state: FrozenSet[Any], value: Any) -> FrozenSet[Any]:
        return state | frozenset(value)

    def merge(self, state: FrozenSet[Any], other: FrozenSet[Any]) -> FrozenSet[Any]:
        return state | other

    def convert(self, state: FrozenSet[Any]) -> FrozenSet[Any]:
        return state


class Intersection(AggregateFunction):
    """``intersection`` on ``(2^S, ⊇)`` — Figure 1 row 10.

    ``intersection(∅) = S`` (the empty intersection is the whole universe —
    which is ⊥ of the ⊇-ordered lattice, so the bottom-default applies).
    The partial state is ``None`` (nothing seen — the neutral "whole
    universe" without materializing it) or the intersection so far.
    """

    name = "intersection"
    classification = Monotonicity.MONOTONIC

    def __init__(self, universe: Iterable[Any]) -> None:
        lattice = PowersetIntersection(universe)
        super().__init__(lattice, lattice)

    def state_create(self) -> Optional[frozenset]:
        return None

    def process(self, state: Optional[FrozenSet[Any]], value: Any) -> FrozenSet[Any]:
        s = frozenset(value)
        return s if state is None else state & s

    def merge(
        self, state: Optional[FrozenSet[Any]], other: Optional[frozenset]
    ) -> Optional[frozenset]:
        if state is None:
            return other
        if other is None:
            return state
        return state & other

    def convert(self, state: Optional[FrozenSet[Any]]) -> FrozenSet[Any]:
        if state is None:
            raise EmptyAggregateError(f"{self.name}: empty partial state")
        return state


class GraphProperty(AggregateFunction):
    """A monotone multigraph property ``P`` — Figure 1 row 11.

    The aggregated multiset *is* the multigraph: each multiset element is an
    edge (or edge set), and ``P`` maps the whole multigraph to a boolean.
    ``predicate`` receives the multigraph as a frozenset of edges joined
    across the multiset and must be monotone increasing (more edges never
    turn the property off) for the declared classification to hold.

    The partial state is the edge set accumulated so far; only
    :meth:`convert` applies ``P``, so partial states merge by plain set
    union.
    """

    name = "graph_property"
    classification = Monotonicity.MONOTONIC

    def __init__(
        self,
        predicate: Callable[[FrozenSet[Any]], bool],
        edge_universe: Iterable[Any],
        name: str | None = None,
    ) -> None:
        super().__init__(PowersetUnion(edge_universe), BOOL_LE)
        self.predicate = predicate
        if name:
            self.name = name

    def _as_edges(self, value: Any) -> FrozenSet[Any]:
        if isinstance(value, (set, frozenset)):
            return frozenset(value)
        return frozenset([value])

    def state_create(self) -> FrozenSet[Any]:
        return frozenset()

    def process(self, state: FrozenSet[Any], value: Any) -> FrozenSet[Any]:
        return state | self._as_edges(value)

    def merge(self, state: FrozenSet[Any], other: FrozenSet[Any]) -> FrozenSet[Any]:
        return state | other

    def convert(self, state: FrozenSet[Any]) -> int:
        return 1 if self.predicate(state) else 0

    def empty_value(self) -> Any:
        return 1 if self.predicate(frozenset()) else 0


_SUM = Sum()

#: Partial average state: (exact sum state, element count).
_AvgState = Tuple[_SumState, int]


class Average(AggregateFunction):
    """``average`` (Example 2.1): pseudo-monotonic on ``(R, ≤)``, no ∅ value.

    The paper only ever uses ``average`` with the ``=r`` form (SQL does not
    aggregate empty groups), matching ``has_empty_value = False``.

    ``average`` itself is famously non-mergeable, but its *state*
    ``(sum, count)`` is — the textbook motivation for the two-phase
    interface.  The sum is :class:`Sum`'s exact state, so the average
    rounds once.
    """

    name = "average"
    classification = Monotonicity.PSEUDO_MONOTONIC
    has_empty_value = False

    def __init__(self) -> None:
        super().__init__(REALS_LE, REALS_LE)

    def state_create(self) -> _AvgState:
        return (_SUM.state_create(), 0)

    def process(self, state: _AvgState, value: Any) -> _AvgState:
        return (_SUM.process(state[0], value), state[1] + 1)

    def merge(self, state: _AvgState, other: _AvgState) -> _AvgState:
        return (_SUM.merge(state[0], other[0]), state[1] + other[1])

    def convert(self, state: _AvgState) -> float:
        if state[1] == 0:
            raise EmptyAggregateError(f"{self.name}: empty partial state")
        return _SUM.convert(state[0], state[1])


def default_registry() -> Dict[str, AggregateFunction]:
    """Name → fresh instance for every non-parametric aggregate.

    Used by the parser to resolve aggregate names in rule text; parametric
    aggregates (union/intersection/graph properties need a universe) must
    be registered explicitly on the :class:`~repro.core.database.Database`.
    """
    functions = [
        Minimum(),
        MinimumAscending(),
        Maximum(),
        MaximumNonNegative(),
        MaximumDescending(),
        Sum(),
        HalfSum(),
        Count(),
        Product(),
        LogicalAnd(),
        LogicalAndAscending(),
        LogicalOr(),
        LogicalOrDescending(),
        Average(),
    ]
    return {f.name: f for f in functions}


__all__ = [
    "Minimum",
    "MinimumAscending",
    "Maximum",
    "MaximumNonNegative",
    "MaximumDescending",
    "Sum",
    "HalfSum",
    "Count",
    "Product",
    "LogicalAnd",
    "LogicalAndAscending",
    "LogicalOr",
    "LogicalOrDescending",
    "Union",
    "Intersection",
    "GraphProperty",
    "Average",
    "default_registry",
]
