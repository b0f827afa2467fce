"""Complete lattices of cost values.

The paper requires every cost domain to be a complete lattice
``(D, ⊑)`` (Definition 2.1) so that Tarski's theorem (Theorem 2.1)
guarantees a least fixpoint of the monotonic ``T_P`` operator.  A
:class:`Lattice` object packages the order, the binary/iterated joins and
meets, and the bottom/top elements for one cost domain.  Lattice *elements*
are plain Python values (floats, bools, frozensets, ...), so interpretations
stay lightweight.

Conventions
-----------
* ``bottom`` is the default value of default-value cost predicates
  (Section 2.3.2 insists the default be the ⊑-minimal element).
* ``join_all([])`` is ``bottom`` and ``meet_all([])`` is ``top`` — the
  empty lub/glb of a complete lattice.
* ``is_chain`` advertises total orders; the multiset-order decision
  procedure (Section 4.1) uses a linear greedy algorithm for chains and
  bipartite matching otherwise.
"""

from __future__ import annotations

import abc
import math
from typing import Any, Iterable, Iterator, Optional, Sequence


class LatticeError(Exception):
    """Base class for lattice-layer errors."""


class LatticeValueError(LatticeError):
    """A value does not belong to the lattice's carrier set."""


class Lattice(abc.ABC):
    """A complete lattice ``(D, ⊑)`` of cost values.

    Subclasses implement :meth:`leq`, :meth:`join`, :meth:`meet`,
    :attr:`bottom`, :attr:`top` and :meth:`__contains__`.  Everything else
    (strict order, comparability, iterated join/meet, interval sampling for
    tests) derives from those.

    Carrier values are hashable, with ``a == b ⇒ hash(a) == hash(b)``:
    interpretations compare and fingerprint them as dict items, so two
    equal values are one element (``1`` and ``1.0`` included).
    """

    #: Human-readable name used in declarations, reports and parse errors.
    name: str = "lattice"

    #: True iff ⊑ is a total order (enables fast multiset-order checks).
    is_chain: bool = False

    #: Relationship between ⊑ and the numeric order on carrier values:
    #: +1 if ``a ⊑ b`` iff ``a <= b``; -1 if ``a ⊑ b`` iff ``a >= b``;
    #: None for non-numeric lattices.  Consumed by the syntactic
    #: monotonicity check for built-in conjunctions (Definition 4.4).
    numeric_direction: int | None = None

    # -- required primitives -------------------------------------------------

    @abc.abstractmethod
    def leq(self, a: Any, b: Any) -> bool:
        """The lattice order: ``a ⊑ b``."""

    @abc.abstractmethod
    def join(self, a: Any, b: Any) -> Any:
        """Binary least upper bound ``a ⊔ b``."""

    @abc.abstractmethod
    def meet(self, a: Any, b: Any) -> Any:
        """Binary greatest lower bound ``a ⊓ b``."""

    @property
    @abc.abstractmethod
    def bottom(self) -> Any:
        """The least element ``⊥`` (glb of the whole carrier)."""

    @property
    @abc.abstractmethod
    def top(self) -> Any:
        """The greatest element ``⊤`` (lub of the whole carrier)."""

    @abc.abstractmethod
    def __contains__(self, value: Any) -> bool:
        """Carrier-set membership test."""

    # -- derived operations ---------------------------------------------------

    def validate(self, value: Any) -> Any:
        """Return ``value`` if it belongs to the lattice, else raise."""
        if value not in self:
            raise LatticeValueError(
                f"{value!r} is not an element of lattice {self.name}"
            )
        return value

    def accepts_all(self, values: Sequence[Any]) -> bool:
        """True only when one pass proves every value a carrier element.

        False decides nothing — the caller then validates one by one —
        and is the default; the numeric lattices answer for columns of
        exact ``int``/``float`` (the bulk writers' common case).  A
        subclass that narrows ``__contains__`` narrows this with it.
        """
        return False

    def lt(self, a: Any, b: Any) -> bool:
        """Strict order ``a ⊏ b``."""
        return self.leq(a, b) and not self.leq(b, a)

    def equivalent(self, a: Any, b: Any) -> bool:
        """Order-equivalence (``a ⊑ b`` and ``b ⊑ a``)."""
        return self.leq(a, b) and self.leq(b, a)

    def comparable(self, a: Any, b: Any) -> bool:
        """True iff ``a`` and ``b`` are related by ⊑ in either direction."""
        return self.leq(a, b) or self.leq(b, a)

    def close(self, a: Any, b: Any) -> bool:
        """Are ``a`` and ``b`` the same element up to floating-point noise?

        Cost values reached along different derivation orders can differ
        by an ulp (``(x - δ) + y`` vs ``(x + y) - δ``), which exact ⊑
        comparisons on real-valued chains misread as a strict ordering.
        Verification-style checks (pre-modelhood) compare with this
        predicate alongside :meth:`leq`.  Non-numeric carriers fall back
        to equality.
        """
        if (
            isinstance(a, (int, float))
            and isinstance(b, (int, float))
            and not isinstance(a, bool)
            and not isinstance(b, bool)
        ):
            return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)
        return bool(a == b)

    def join_all(self, values: Iterable[Any]) -> Any:
        """Least upper bound of an iterable; ``bottom`` for the empty one."""
        out = self.bottom
        for v in values:
            out = self.join(out, v)
        return out

    def meet_all(self, values: Iterable[Any]) -> Any:
        """Greatest lower bound of an iterable; ``top`` for the empty one."""
        out = self.top
        for v in values:
            out = self.meet(out, v)
        return out

    # -- optional test support ------------------------------------------------

    def sample(self) -> Optional[Iterator[Any]]:
        """A small representative iterable of carrier elements, or ``None``.

        Used by the lattice-axiom checkers in
        :mod:`repro.lattices.properties` and by the Figure 1 benchmark.
        Subclasses with natural samples override this.
        """
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"

    def __eq__(self, other: object) -> bool:
        """Structural equality: same class and same name.

        Parametric subclasses (powersets, products, chains) extend this
        with their parameters.
        """
        return type(self) is type(other) and self.name == getattr(other, "name", None)

    def __hash__(self) -> int:
        return hash((type(self), self.name))
