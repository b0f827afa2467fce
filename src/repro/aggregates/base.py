"""Aggregate functions over multisets (Definition 2.4).

An :class:`AggregateFunction` is a map ``F : M(D) → R`` from multisets over
a cost domain ``D`` into a range ``R``, each equipped with a lattice
(Section 4.1).  Instances carry:

* ``domain`` / ``range_`` — the lattices ``(D, ⊑_D)`` and ``(R, ⊑_R)``;
* ``classification`` — the *declared* monotonicity class used by the
  admissibility check (Definition 4.5).  The declared class is verified
  empirically by :mod:`repro.aggregates.monotonicity` in the test suite and
  the Figure 1 benchmark, so a mis-declared function is caught.
* ``has_empty_value`` — whether ``F(∅)`` is defined.  The ``=`` form of an
  aggregate subgoal needs it (empty groups are semantically meaningful);
  the ``=r`` form never evaluates ``F`` on the empty multiset
  (Definition 2.4: a ground ``=r`` instance is *false* on the empty
  multiset).

Evaluation is *two-phase*, the classic mergeable-aggregate interface
(``state_create / process / merge / convert``): a mutable-free partial
state is created empty, folds one value at a time via :meth:`process`,
combines with other partial states via :meth:`merge`, and produces the
final value via :meth:`convert`.  That is the one aggregation code path:
the rule kernels fold each group inline through it, the reference folds
the projected values (with repetition) through :meth:`__call__`, and a
subclass that redefines ``__call__``, :meth:`fold` or
:meth:`apply_nonempty` is refused.  So ``F`` may not depend on the order
of the values.

Why the interface matters: when ``merge`` is associative and commutative
with ``state_create()`` as identity, a partition of the multiset may be
aggregated in any grouping and any order —
``convert(merge(fold(A), fold(B))) = F(A ⊎ B)`` — which is exactly what
licenses partitioned/sharded evaluation (docs/PARALLELISM.md) and, later,
incremental maintenance.  The algebra is verified empirically per function
by :mod:`repro.aggregates.algebra`, and the shard-safety analyzer
(:mod:`repro.analysis.sharding`) consults that proof before certifying a
component for ``plan="sharded"``.
"""

from __future__ import annotations

import abc
import enum
from typing import Any, Iterable

from repro.lattices.base import Lattice


class Monotonicity(enum.Enum):
    """Monotonicity class of an aggregate function (Definitions 4.1, §4.1.1)."""

    #: ``I ⊑_D I' ⇒ F(I) ⊑_R F(I')`` for all multisets.
    MONOTONIC = "monotonic"
    #: The implication holds for equal-cardinality multisets only.
    PSEUDO_MONOTONIC = "pseudo-monotonic"
    #: Neither.
    NONMONOTONIC = "nonmonotonic"


class EmptyAggregateError(ValueError):
    """``F(∅)`` was requested for a function without an empty value."""


class AggregateFunction(abc.ABC):
    """A multiset aggregate ``F : M(D) → R`` with declared lattices.

    Subclasses implement the two-phase interface
    (:meth:`state_create` / :meth:`process` / :meth:`merge` /
    :meth:`convert`); the public entry point :meth:`__call__` folds the
    values of a multiset through it, with repetition, and handles the
    empty multiset uniformly.
    """

    #: Name used in rule text, e.g. ``C = min{D : p(X, D)}``.
    name: str = "aggregate"

    #: Declared monotonicity class; verified empirically in tests.
    classification: Monotonicity = Monotonicity.NONMONOTONIC

    #: Whether ``F(∅)`` is defined (see module docstring).
    has_empty_value: bool = True

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        own = sorted(vars(cls).keys() & {"__call__", "apply_nonempty", "fold"})
        if own:
            raise TypeError(
                f"{cls.__name__} redefines {', '.join(own)}: an aggregate is "
                f"evaluated only through state_create/process/convert"
            )

    def __init__(self, domain: Lattice, range_: Lattice) -> None:
        self.domain = domain
        self.range_ = range_

    # -- the mergeable two-phase interface -----------------------------------

    @abc.abstractmethod
    def state_create(self) -> Any:
        """A fresh partial state representing the empty multiset.

        Must be the identity of :meth:`merge`:
        ``merge(s, state_create()) = s`` for every reachable state.
        """

    @abc.abstractmethod
    def process(self, state: Any, value: Any) -> Any:
        """Fold one occurrence of ``value`` into ``state``.

        States are treated as immutable values: ``process`` returns the
        new state and must not mutate its argument (partial states cross
        process boundaries in sharded evaluation).
        """

    @abc.abstractmethod
    def merge(self, state: Any, other: Any) -> Any:
        """Combine two partial states.

        The shard-safety contract (verified by
        :mod:`repro.aggregates.algebra`): associative, commutative, with
        :meth:`state_create` as identity, and compatible with
        :meth:`process` — ``merge(fold(A), fold(B)) ≡ fold(A ⊎ B)``.
        """

    @abc.abstractmethod
    def convert(self, state: Any) -> Any:
        """Finalize a partial state into the aggregate's value.

        Raises :class:`EmptyAggregateError` on the empty state when the
        function has no defined ``F(∅)`` (callers reach empty multisets
        only through :meth:`__call__`, which routes them to
        :meth:`empty_value`).
        """

    # -- evaluation ----------------------------------------------------------

    def fold(self, values: Iterable[Any]) -> Any:
        """The partial state of ``values``, with repetition (phase one)."""
        state = self.state_create()
        for value in values:
            state = self.process(state, value)
        return state

    def apply_nonempty(self, values: Iterable[Any]) -> Any:
        """Evaluate ``F`` on non-empty ``values`` via the two-phase fold."""
        return self.convert(self.fold(values))

    def empty_value(self) -> Any:
        """``F(∅)``.

        The default is the range's bottom, which is correct for every
        monotonic function in Figure 1 (sum∅ = 0, max∅ = ⊥, count∅ = 0,
        union∅ = ∅, intersection∅ = S, ...).  Functions without a defined
        empty value set ``has_empty_value = False`` instead.
        """
        if not self.has_empty_value:
            raise EmptyAggregateError(f"{self.name}(∅) is undefined")
        return self.range_.bottom

    def __call__(self, values: Iterable[Any]) -> Any:
        values = list(values)
        return self.apply_nonempty(values) if values else self.empty_value()

    # -- metadata ------------------------------------------------------------

    @property
    def is_monotonic(self) -> bool:
        return self.classification is Monotonicity.MONOTONIC

    @property
    def is_pseudo_monotonic(self) -> bool:
        """True for pseudo-monotonic *or* (a fortiori) monotonic functions.

        Definition 4.1's property is implied by full monotonicity, and the
        admissibility condition only ever asks "at least pseudo-monotonic".
        """
        return self.classification in (
            Monotonicity.MONOTONIC,
            Monotonicity.PSEUDO_MONOTONIC,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<{type(self).__name__} {self.name} : M({self.domain.name}) "
            f"→ {self.range_.name} [{self.classification.value}]>"
        )
