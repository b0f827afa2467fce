"""Set-valued and multiset-valued cost lattices (Figure 1 rows 9-11).

Row 9 of Figure 1 is the powerset ``(2^S, ⊆)`` (the home of ``union``),
row 10 its dual ``(2^S, ⊇)`` (the home of ``intersection``), and row 11
the domain ``E`` of multigraph edge *multisets* ordered by inclusion (the
domain of a monotone graph property ``P``).

Elements are ``frozenset`` values (row 9/10) or
:class:`~repro.util.multiset.FrozenMultiset` values (row 11), so they are
hashable and can sit in interpretation relations directly.
"""

from __future__ import annotations

from typing import Any, FrozenSet, Iterable, Iterator, Optional

from repro.lattices.base import Lattice
from repro.util.multiset import FrozenMultiset


class PowersetUnion(Lattice):
    """``(2^S, ⊆)`` with join = ∪, meet = ∩, bottom = ∅, top = S.

    The universe ``S`` must be finite and fixed up front for the lattice to
    be complete (top = S).
    """

    is_chain = False

    def __init__(self, universe: Iterable[Any], name: str | None = None) -> None:
        self.universe: FrozenSet[Any] = frozenset(universe)
        self.name = name or f"powerset_union[{len(self.universe)}]"

    def leq(self, a: Any, b: Any) -> bool:
        return frozenset(a) <= frozenset(b)

    def join(self, a: Any, b: Any) -> Any:
        return frozenset(a) | frozenset(b)

    def meet(self, a: Any, b: Any) -> Any:
        return frozenset(a) & frozenset(b)

    @property
    def bottom(self) -> FrozenSet[Any]:
        return frozenset()

    @property
    def top(self) -> FrozenSet[Any]:
        return self.universe

    def __contains__(self, value: Any) -> bool:
        return isinstance(value, frozenset) and value <= self.universe

    def sample(self) -> Optional[Iterator[Any]]:
        members = sorted(self.universe, key=repr)[:3]
        subsets = [frozenset()]
        for m in members:
            subsets += [s | {m} for s in subsets]
        return iter(subsets)

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self.universe == other.universe  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash((type(self), self.universe))


class PowersetIntersection(Lattice):
    """``(2^S, ⊇)`` with join = ∩, meet = ∪, bottom = S, top = ∅ (row 10)."""

    is_chain = False

    def __init__(self, universe: Iterable[Any], name: str | None = None) -> None:
        self.universe: FrozenSet[Any] = frozenset(universe)
        self.name = name or f"powerset_intersection[{len(self.universe)}]"

    def leq(self, a: Any, b: Any) -> bool:
        return frozenset(a) >= frozenset(b)

    def join(self, a: Any, b: Any) -> Any:
        return frozenset(a) & frozenset(b)

    def meet(self, a: Any, b: Any) -> Any:
        return frozenset(a) | frozenset(b)

    @property
    def bottom(self) -> FrozenSet[Any]:
        return self.universe

    @property
    def top(self) -> FrozenSet[Any]:
        return frozenset()

    def __contains__(self, value: Any) -> bool:
        return isinstance(value, frozenset) and value <= self.universe

    def sample(self) -> Optional[Iterator[Any]]:
        members = sorted(self.universe, key=repr)[:3]
        subsets = [frozenset(self.universe)]
        for m in members:
            subsets += [s - {m} for s in subsets]
        return iter(subsets)

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self.universe == other.universe  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash((type(self), self.universe))


class EdgeMultisets(Lattice):
    """Multisets of (multigraph) edges ordered by multiset inclusion (row 11).

    ``E`` in Figure 1: the carrier is all finite multisets over a fixed
    edge universe, capped at ``max_multiplicity`` copies per edge so the
    lattice is complete (the top element is the universe at the cap).
    Elements are :class:`FrozenMultiset` values.
    """

    is_chain = False

    def __init__(
        self,
        edge_universe: Iterable[Any],
        max_multiplicity: int = 4,
        name: str | None = None,
    ) -> None:
        if max_multiplicity < 1:
            raise ValueError("max_multiplicity must be >= 1")
        self.edge_universe: FrozenSet[Any] = frozenset(edge_universe)
        self.max_multiplicity = max_multiplicity
        self.name = name or f"edge_multisets[{len(self.edge_universe)}]"

    def leq(self, a: Any, b: Any) -> bool:
        return a.issubmultiset(b)

    def join(self, a: FrozenMultiset, b: FrozenMultiset) -> FrozenMultiset:
        counts = {}
        for e in set(a.support()) | set(b.support()):
            counts[e] = max(a.count(e), b.count(e))
        return FrozenMultiset.from_counts(counts) if counts else FrozenMultiset()

    def meet(self, a: FrozenMultiset, b: FrozenMultiset) -> FrozenMultiset:
        counts = {}
        for e in a.support():
            n = min(a.count(e), b.count(e))
            if n > 0:
                counts[e] = n
        return FrozenMultiset.from_counts(counts) if counts else FrozenMultiset()

    @property
    def bottom(self) -> FrozenMultiset:
        return FrozenMultiset()

    @property
    def top(self) -> FrozenMultiset:
        return FrozenMultiset.from_counts(
            {e: self.max_multiplicity for e in self.edge_universe}
        ) if self.edge_universe else FrozenMultiset()

    def __contains__(self, value: Any) -> bool:
        if not isinstance(value, FrozenMultiset):
            return False
        return all(
            e in self.edge_universe and n <= self.max_multiplicity
            for e, n in value.items()
        )

    def sample(self) -> Optional[Iterator[Any]]:
        edges = sorted(self.edge_universe, key=repr)[:2]
        out = [FrozenMultiset()]
        for e in edges:
            out += [m.add(e) for m in out]
        return iter(out)

    def __eq__(self, other: object) -> bool:
        return (
            type(self) is type(other)
            and self.edge_universe == other.edge_universe  # type: ignore[attr-defined]
            and self.max_multiplicity == other.max_multiplicity  # type: ignore[attr-defined]
        )

    def __hash__(self) -> int:
        return hash((type(self), self.edge_universe, self.max_multiplicity))
