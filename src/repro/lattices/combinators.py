"""Lattice combinators: dual, finite chain, product, flat.

Section 3 notes that ``⊑`` on interpretations "can be interpreted as a
composition of several partial orders" when predicates have different cost
domains; products and duals make new complete lattices out of old ones,
and finite chains / flat lattices give small test universes for the
property-based suite.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional, Sequence, Tuple

from repro.lattices.base import Lattice


class DualLattice(Lattice):
    """The order-dual of a lattice: ⊑ flipped, join/meet and ⊥/⊤ swapped.

    ``DualLattice(DualLattice(L))`` behaves like ``L``.  Carrier, column
    check (``accepts_all``) and sample are the inner lattice's, the
    sample reversed.  ``join`` and ``meet`` are bound to the inner
    ``meet`` and ``join`` themselves, so a dual costs no extra call per
    operation; a subclass that overrides either keeps its own.
    """

    def __init__(self, inner: Lattice, name: str | None = None) -> None:
        self.inner = inner
        self.name = name or f"dual({inner.name})"
        self.is_chain = inner.is_chain
        if inner.numeric_direction is not None:
            self.numeric_direction = -inner.numeric_direction
        if type(self).join is DualLattice.join:
            self.join = inner.meet  # type: ignore[method-assign]
        if type(self).meet is DualLattice.meet:
            self.meet = inner.join  # type: ignore[method-assign]

    def leq(self, a: Any, b: Any) -> bool:
        return self.inner.leq(b, a)

    def join(self, a: Any, b: Any) -> Any:
        return self.inner.meet(a, b)

    def meet(self, a: Any, b: Any) -> Any:
        return self.inner.join(a, b)

    @property
    def bottom(self) -> Any:
        return self.inner.top

    @property
    def top(self) -> Any:
        return self.inner.bottom

    def __contains__(self, value: Any) -> bool:
        return value in self.inner

    def accepts_all(self, values: Sequence[Any]) -> bool:
        return self.inner.accepts_all(values)

    def sample(self) -> Optional[Iterator[Any]]:
        provided = self.inner.sample()
        return None if provided is None else reversed(list(provided))

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self.inner == other.inner  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash((type(self), self.inner))


class FiniteChain(Lattice):
    """A finite total order given explicitly, smallest first.

    >>> c = FiniteChain(["low", "mid", "high"])
    >>> c.leq("low", "high"), c.join("low", "mid")
    (True, 'mid')
    """

    is_chain = True

    def __init__(self, values: Sequence[Any], name: str | None = None) -> None:
        if not values:
            raise ValueError("a chain needs at least one element")
        if len(set(values)) != len(values):
            raise ValueError("chain elements must be distinct")
        self.values: Tuple[Any, ...] = tuple(values)
        self._rank = {v: i for i, v in enumerate(self.values)}
        self.name = name or f"chain[{len(values)}]"

    def _r(self, v: Any) -> int:
        try:
            return self._rank[v]
        except KeyError:
            raise KeyError(f"{v!r} is not in chain {self.name}") from None

    def leq(self, a: Any, b: Any) -> bool:
        return self._r(a) <= self._r(b)

    def join(self, a: Any, b: Any) -> Any:
        return a if self._r(a) >= self._r(b) else b

    def meet(self, a: Any, b: Any) -> Any:
        return a if self._r(a) <= self._r(b) else b

    @property
    def bottom(self) -> Any:
        return self.values[0]

    @property
    def top(self) -> Any:
        return self.values[-1]

    def __contains__(self, value: Any) -> bool:
        try:
            return value in self._rank
        except TypeError:
            return False

    def sample(self) -> Optional[Iterator[Any]]:
        return iter(self.values)

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self.values == other.values  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash((type(self), self.values))


class ProductLattice(Lattice):
    """The componentwise product of lattices; elements are tuples.

    A product of complete lattices is complete, with componentwise
    join/meet and bottom/top.  Products of chains are generally *not*
    chains, which makes this the canonical non-total test lattice.
    """

    def __init__(self, factors: Sequence[Lattice], name: str | None = None) -> None:
        if not factors:
            raise ValueError("a product needs at least one factor")
        self.factors: Tuple[Lattice, ...] = tuple(factors)
        self.name = name or "prod(" + ", ".join(f.name for f in factors) + ")"
        self.is_chain = len(self.factors) == 1 and self.factors[0].is_chain

    def _check_arity(self, value: Any) -> bool:
        return isinstance(value, tuple) and len(value) == len(self.factors)

    def leq(self, a: Any, b: Any) -> bool:
        return all(f.leq(x, y) for f, x, y in zip(self.factors, a, b))

    def join(self, a: Any, b: Any) -> Any:
        return tuple(f.join(x, y) for f, x, y in zip(self.factors, a, b))

    def meet(self, a: Any, b: Any) -> Any:
        return tuple(f.meet(x, y) for f, x, y in zip(self.factors, a, b))

    @property
    def bottom(self) -> Tuple[Any, ...]:
        return tuple(f.bottom for f in self.factors)

    @property
    def top(self) -> Tuple[Any, ...]:
        return tuple(f.top for f in self.factors)

    def __contains__(self, value: Any) -> bool:
        return self._check_arity(value) and all(
            x in f for f, x in zip(self.factors, value)
        )

    def sample(self) -> Optional[Iterator[Any]]:
        samples = []
        for f in self.factors:
            s = f.sample()
            if s is None:
                return None
            samples.append(list(s)[:3])
        out = [()]
        for column in samples:
            out = [prefix + (x,) for prefix in out for x in column]
        return iter(out)

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self.factors == other.factors  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash((type(self), self.factors))


class FlatLattice(Lattice):
    """A flat lattice: ⊥ ⊏ a ⊏ ⊤ for each atom a, atoms incomparable.

    Useful as a minimal example of a complete lattice that is neither a
    chain nor distributive in any interesting way; exercised by the
    property-based lattice-axiom tests.
    """

    is_chain = False

    #: Sentinels; distinct objects so no atom can collide with them.
    BOTTOM = ("__flat_bottom__",)
    TOP = ("__flat_top__",)

    def __init__(self, atoms: Sequence[Any], name: str | None = None) -> None:
        self.atoms = frozenset(atoms)
        if self.BOTTOM in self.atoms or self.TOP in self.atoms:
            raise ValueError("atoms may not contain the ⊥/⊤ sentinels")
        self.name = name or f"flat[{len(self.atoms)}]"

    def leq(self, a: Any, b: Any) -> bool:
        return a == self.BOTTOM or b == self.TOP or a == b

    def join(self, a: Any, b: Any) -> Any:
        if a == b:
            return a
        if a == self.BOTTOM:
            return b
        if b == self.BOTTOM:
            return a
        return self.TOP

    def meet(self, a: Any, b: Any) -> Any:
        if a == b:
            return a
        if a == self.TOP:
            return b
        if b == self.TOP:
            return a
        return self.BOTTOM

    @property
    def bottom(self) -> Any:
        return self.BOTTOM

    @property
    def top(self) -> Any:
        return self.TOP

    def __contains__(self, value: Any) -> bool:
        return value in (self.BOTTOM, self.TOP) or value in self.atoms

    def sample(self) -> Optional[Iterator[Any]]:
        atoms = sorted(self.atoms, key=repr)[:4]
        return iter([self.BOTTOM, *atoms, self.TOP])

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self.atoms == other.atoms  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash((type(self), self.atoms))
