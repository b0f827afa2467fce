"""Rules, integrity constraints, and contextual variable classification.

The grouping/local split of an aggregate subgoal's variables is defined
relative to the *rest* of the rule (Definition 2.4: grouping variables
"appear also outside the subgoal"), so those helpers live here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Iterator, Optional, Tuple

from repro.datalog.atoms import (
    AggregateSubgoal,
    Atom,
    AtomSubgoal,
    BuiltinSubgoal,
    Subgoal,
)
from repro.datalog.spans import Span
from repro.datalog.terms import Variable


def _body_atoms(body: Tuple[Subgoal, ...]) -> Iterator[Atom]:
    """The atoms of a body: positive and negated ones, then each
    aggregate's conjuncts, in written order."""
    for sg in body:
        if isinstance(sg, AtomSubgoal):
            yield sg.atom
        elif isinstance(sg, AggregateSubgoal):
            yield from sg.conjuncts


@dataclass(frozen=True)
class Rule:
    """``head ← body``.  An empty body makes the rule a fact."""

    head: Atom
    body: Tuple[Subgoal, ...] = ()
    label: Optional[str] = field(default=None, compare=False)
    #: Source location when parsed from rule text; never compared/hashed.
    span: Optional[Span] = field(default=None, compare=False)

    # -- subgoal views -------------------------------------------------------

    def atom_subgoals(self) -> Iterator[AtomSubgoal]:
        for sg in self.body:
            if isinstance(sg, AtomSubgoal):
                yield sg

    def positive_atom_subgoals(self) -> Iterator[AtomSubgoal]:
        for sg in self.atom_subgoals():
            if not sg.negated:
                yield sg

    def negative_atom_subgoals(self) -> Iterator[AtomSubgoal]:
        for sg in self.atom_subgoals():
            if sg.negated:
                yield sg

    def aggregate_subgoals(self) -> Iterator[AggregateSubgoal]:
        for sg in self.body:
            if isinstance(sg, AggregateSubgoal):
                yield sg

    def builtin_subgoals(self) -> Iterator[BuiltinSubgoal]:
        for sg in self.body:
            if isinstance(sg, BuiltinSubgoal):
                yield sg

    def body_predicates(self) -> Iterator[str]:
        """Every predicate named in the body (inside aggregates too)."""
        for atom in _body_atoms(self.body):
            yield atom.predicate

    def atoms(self) -> Iterator[Atom]:
        """Every atom occurrence: the head, the positive and negated body
        atoms, and the aggregate conjuncts."""
        yield self.head
        yield from _body_atoms(self.body)

    # -- variable classification ----------------------------------------------

    def variable_set(self) -> FrozenSet[Variable]:
        out = self.head.variable_set()
        for sg in self.body:
            out |= sg.variable_set()
        return out

    def variables_outside(self, aggregate: AggregateSubgoal) -> FrozenSet[Variable]:
        """Variables occurring in the rule outside ``aggregate``'s conjuncts.

        The aggregate's own result variable counts as "outside" — it links
        the subgoal to the rest of the rule.
        """
        out = self.head.variable_set()
        for sg in self.body:
            if sg is aggregate:
                if isinstance(sg.result, Variable):
                    out |= {sg.result}
                continue
            out |= sg.variable_set()
        return out

    def grouping_variables(self, aggregate: AggregateSubgoal) -> FrozenSet[Variable]:
        """Definition 2.4's ``X_1 ... X_n``: inner variables also used outside."""
        inner = aggregate.inner_variable_set()
        if aggregate.multiset_var is not None:
            inner -= {aggregate.multiset_var}
        return inner & self.variables_outside(aggregate)

    def local_variables(self, aggregate: AggregateSubgoal) -> FrozenSet[Variable]:
        """Definition 2.4's ``Y_1 ... Y_m``: inner variables private to the
        subgoal (excluding the multiset variable)."""
        inner = aggregate.inner_variable_set()
        if aggregate.multiset_var is not None:
            inner -= {aggregate.multiset_var}
        return inner - self.variables_outside(aggregate)

    @property
    def is_fact(self) -> bool:
        return not self.body

    def __str__(self) -> str:
        if self.is_fact:
            return f"{self.head}."
        return f"{self.head} <- {', '.join(map(str, self.body))}."


@dataclass(frozen=True)
class IntegrityConstraint:
    """A headless rule ``← S_1, ..., S_n`` (Definition 2.9): the application
    guarantees no ground instance of the conjunction is ever satisfied."""

    body: Tuple[Subgoal, ...]
    span: Optional[Span] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if not self.body:
            raise ValueError("an integrity constraint needs at least one subgoal")

    def variable_set(self) -> FrozenSet[Variable]:
        out: FrozenSet[Variable] = frozenset()
        for sg in self.body:
            out |= sg.variable_set()
        return out

    def atoms(self) -> Iterator[Atom]:
        """Every atom occurrence of the body, as :meth:`Rule.atoms`."""
        return _body_atoms(self.body)

    def __str__(self) -> str:
        return f"<- {', '.join(map(str, self.body))}."
