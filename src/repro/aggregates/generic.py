"""Generic lattice aggregates: the least upper bound over any complete
lattice.

Most of Figure 1 is one function in disguise: ``min`` is the lub of
``(R, ≥)``, ``max`` the lub of ``(R, ≤)``, ``OR`` the lub of ``(B, ≤)``,
``AND`` the lub of ``(B, ≥)``, ``union`` the lub of ``(2^S, ⊆)``, and so
on.  :class:`LatticeJoin` makes the pattern first-class: given *any*
complete lattice it is an aggregate function, and it is **always
monotonic** — ``I ⊑_D I'`` maps each element below a distinct element of
``I'``, so ``⊔I ⊑ ⊔I' `` (extra elements only raise the lub further).

This is the construction modern lattice-Datalog systems (Flix, Datafun,
Bloom^L) build on; having it generic lets user-defined cost lattices get
a canonical monotonic aggregate for free — see
``examples/taint_analysis.py`` for a security-lattice application.

:class:`LatticeMeet` (glb) is also provided for LDB aggregation and for
the §6.1 discussion — but it is *antitone* in the multiset, hence
declared NONMONOTONIC: the admissibility check will only allow it on
fixed lower components.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.aggregates.base import (
    AggregateFunction,
    EmptyAggregateError,
    Monotonicity,
)
from repro.lattices.base import Lattice


class _FoldAggregate(AggregateFunction):
    """Two-phase state for any associative/commutative lattice combiner.

    The state is ``None`` (no element yet) or the running combination;
    ``merge`` is the ``None``-absorbing combiner, which inherits
    associativity/commutativity from the lattice operation itself.
    """

    def _combine(self, a: Any, b: Any) -> Any:
        raise NotImplementedError

    def state_create(self) -> Any:
        return None

    def process(self, state: Any, value: Any) -> Any:
        return value if state is None else self._combine(state, value)

    def merge(self, state: Any, other: Any) -> Any:
        if state is None:
            return other
        if other is None:
            return state
        return self._combine(state, other)

    def convert(self, state: Any) -> Any:
        if state is None:
            raise EmptyAggregateError(f"{self.name}: empty partial state")
        return state


class LatticeJoin(_FoldAggregate):
    """``F(I) = ⊔ I`` over an arbitrary complete lattice — monotonic.

    ``F(∅) = ⊥`` (the empty lub), which the base class's default
    provides.

    >>> from repro.lattices import REALS_GE
    >>> from repro.util.multiset import FrozenMultiset
    >>> join = LatticeJoin(REALS_GE)          # the ≥ order: lub = min
    >>> join(FrozenMultiset([3, 1, 2]))
    1
    """

    classification = Monotonicity.MONOTONIC

    def __init__(self, lattice: Lattice, name: Optional[str] = None) -> None:
        super().__init__(lattice, lattice)
        self.name = name or f"lub_{lattice.name}"

    def _combine(self, a: Any, b: Any) -> Any:
        return self.domain.join(a, b)


class LatticeMeet(_FoldAggregate):
    """``F(I) = ⊓ I`` — the §6.1 glb aggregate.  ``F(∅) = ⊤``.

    Antitone in the multiset: adding elements can only lower the glb, so
    it is declared NONMONOTONIC and admissible only over LDB predicates.
    (Its partial state is still perfectly mergeable — ⊓ is associative
    and commutative — but shard safety additionally requires
    monotonicity, so the analyzer blocks it anyway.)
    """

    classification = Monotonicity.NONMONOTONIC

    def __init__(self, lattice: Lattice, name: Optional[str] = None) -> None:
        super().__init__(lattice, lattice)
        self.name = name or f"glb_{lattice.name}"

    def _combine(self, a: Any, b: Any) -> Any:
        return self.domain.meet(a, b)

    def empty_value(self) -> Any:
        return self.range_.top
