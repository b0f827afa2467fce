"""Kemp–Stuckey-style well-founded semantics with aggregates (Section 5.3).

Kemp and Stuckey extend the well-founded semantics by letting an aggregate
subgoal be satisfied only when **every** instance of the aggregated atoms
is fully defined (true or false).  The consequences the paper highlights:

* on *instance-level modularly stratified* inputs (e.g. shortest paths on
  an acyclic graph) the KS model is two-valued and — by Proposition 6.1 —
  coincides with the minimal model of the monotonic semantics;
* on cyclic inputs, atoms whose every derivation runs through a cycle of
  "aggregation depends on itself" never become fully defined and stay
  **undefined**, where the monotonic semantics still produces a total
  model.

This module computes that semantics at the *ground-key* level:

1. **Possible keys** — a cost-blind over-approximation of the derivable
   ground atoms (aggregates and built-ins assumed satisfiable, negation
   ignored), which is finite for range-restricted programs (Lemma 2.2).
2. **Clean keys** — the least set of keys derivable using only clean
   bodies, where an aggregate subgoal is clean for a group only if *all*
   possible inner atoms of that group are already clean (KS's
   fully-defined requirement).
3. The result: WF-true = the monotonic minimal model restricted to clean
   keys (Proposition 6.1 licenses reading the values off the minimal
   model on the modularly stratified part); WF-undefined = possible but
   not clean; everything else false.

On modularly stratified instances this is the exact KS model; on cyclic
instances it may conservatively mark a few extra atoms undefined (never
fewer), which suffices for — and is verified against — every comparison
the paper makes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.datalog.atoms import (
    AggregateSubgoal,
    Atom,
    AtomSubgoal,
    BuiltinSubgoal,
)
from repro.datalog.errors import NonTerminationError
from repro.datalog.program import Program
from repro.datalog.rules import Rule
from repro.datalog.terms import Constant, Variable
from repro.engine.interpretation import Interpretation, Key
from repro.engine.solver import solve
from repro.semantics.threevalued import GroundKey, ThreeValuedModel

KeyBindings = Dict[Variable, Any]


def _key_atom(atom: Atom, program: Program) -> Tuple[str, Tuple]:
    """(predicate, non-cost argument terms) of an atom."""
    decl = program.decl(atom.predicate)
    args = atom.args[: decl.key_arity] if decl.is_cost_predicate else atom.args
    return atom.predicate, args


def _match_key(
    args: Tuple, key: Key, bindings: KeyBindings
) -> Optional[KeyBindings]:
    if len(args) != len(key):
        return None
    out = dict(bindings)
    for arg, value in zip(args, key):
        if isinstance(arg, Constant):
            if arg.value != value:
                return None
        else:
            existing = out.get(arg)
            if existing is None:
                out[arg] = value
            elif existing != value:
                return None
    return out


class _KeyRelations:
    """Set-of-keys relations with conjunction solving."""

    def __init__(self) -> None:
        self.keys: Dict[str, Set[Key]] = {}

    def add(self, predicate: str, key: Key) -> bool:
        bucket = self.keys.setdefault(predicate, set())
        if key in bucket:
            return False
        bucket.add(key)
        return True

    def has(self, predicate: str, key: Key) -> bool:
        return key in self.keys.get(predicate, ())

    def solve(
        self,
        patterns: List[Tuple[str, Tuple]],
        bindings: KeyBindings,
    ) -> Iterator[KeyBindings]:
        """All extensions of ``bindings`` satisfying every (pred, args)."""
        if not patterns:
            yield bindings
            return
        (predicate, args), rest = patterns[0], patterns[1:]
        for key in self.keys.get(predicate, ()):
            extended = _match_key(args, key, bindings)
            if extended is not None:
                yield from self.solve(rest, extended)


def _rule_key_patterns(
    rule: Rule, program: Program
) -> Tuple[List[Tuple[str, Tuple]], List[Tuple[AggregateSubgoal, List[Tuple[str, Tuple]]]]]:
    """Key-level view of a rule body.

    Returns (positive key patterns, [(aggregate, inner key patterns)]).
    Negation and built-ins are dropped (over-approximation); ``=``-form
    aggregates contribute no positive patterns (their groups may be
    empty), ``=r`` aggregates contribute their conjuncts so grouping
    variables get bound.
    """
    positives: List[Tuple[str, Tuple]] = []
    aggregates: List[Tuple[AggregateSubgoal, List[Tuple[str, Tuple]]]] = []
    for sg in rule.body:
        if isinstance(sg, AtomSubgoal) and not sg.negated:
            positives.append(_key_atom(sg.atom, program))
        elif isinstance(sg, AggregateSubgoal):
            inner = [_key_atom(c, program) for c in sg.conjuncts]
            aggregates.append((sg, inner))
            if sg.restricted:
                positives.extend(inner)
    return positives, aggregates


def _head_key(
    rule: Rule, program: Program, bindings: KeyBindings
) -> Optional[Key]:
    predicate, args = _key_atom(rule.head, program)
    out = []
    for arg in args:
        if isinstance(arg, Constant):
            out.append(arg.value)
        else:
            value = bindings.get(arg)
            if value is None:
                return None  # head key var bound only via dropped subgoals
            out.append(value)
    return tuple(out)


def possible_keys(
    program: Program, edb: Interpretation, *, max_rounds: int = 100_000
) -> _KeyRelations:
    """Cost-blind over-approximation of the derivable ground-atom keys."""
    relations = _KeyRelations()
    for name, rel in edb.relations.items():
        if rel.is_cost:
            for key in rel.costs:
                relations.add(name, key)
        else:
            for key in rel.tuples:
                relations.add(name, key)
    for _ in range(max_rounds):
        changed = False
        for rule in program.rules:
            positives, _ = _rule_key_patterns(rule, program)
            for bindings in relations.solve(positives, {}):
                head = _head_key(rule, program, bindings)
                if head is not None and relations.add(rule.head.predicate, head):
                    changed = True
        if not changed:
            return relations
    raise NonTerminationError("possible-key computation did not converge")


def clean_keys(
    program: Program,
    edb: Interpretation,
    possible: _KeyRelations,
    *,
    max_rounds: int = 100_000,
) -> Set[GroundKey]:
    """Keys derivable with fully-defined (clean) inputs only.

    An aggregate subgoal is clean for a group when every *possible* inner
    atom of the group is clean — the Kemp–Stuckey fully-defined condition
    at key level.
    """
    clean: Set[GroundKey] = set()
    for name, rel in edb.relations.items():
        source = rel.costs if rel.is_cost else rel.tuples
        for key in source:
            clean.add((name, key))

    def is_clean(predicate: str, key: Key) -> bool:
        return (predicate, key) in clean or not possible.has(predicate, key)

    for _ in range(max_rounds):
        changed = False
        for rule in program.rules:
            positives, aggregates = _rule_key_patterns(rule, program)
            for bindings in possible.solve(positives, {}):
                # Every positive body key must itself be clean.
                ok = True
                for predicate, args in positives:
                    key = tuple(
                        bindings[a] if isinstance(a, Variable) else a.value
                        for a in args
                    )
                    if (predicate, key) not in clean:
                        ok = False
                        break
                if not ok:
                    continue
                # Every possible inner atom of every aggregate's group
                # must be clean (fully defined before aggregation).
                for sg, inner in aggregates:
                    grouping_bound = {
                        v: bindings[v]
                        for v in rule.grouping_variables(sg)
                        if v in bindings
                    }
                    for inner_solution in possible.solve(inner, grouping_bound):
                        for predicate, args in inner:
                            key = tuple(
                                inner_solution[a]
                                if isinstance(a, Variable)
                                else a.value
                                for a in args
                            )
                            if (predicate, key) not in clean:
                                ok = False
                                break
                        if not ok:
                            break
                    if not ok:
                        break
                if not ok:
                    continue
                head = _head_key(rule, program, bindings)
                if head is not None:
                    ground: GroundKey = (rule.head.predicate, head)
                    if ground not in clean:
                        clean.add(ground)
                        changed = True
        if not changed:
            return clean
    raise NonTerminationError("clean-key computation did not converge")


def kemp_stuckey_wf(
    program: Program,
    edb: Interpretation,
    *,
    max_iterations: int = 100_000,
) -> ThreeValuedModel:
    """The KS well-founded model (see module docstring for exactness)."""
    possible = possible_keys(program, edb)
    clean = clean_keys(program, edb, possible)

    minimal = solve(
        program, edb, check="lenient", max_iterations=max_iterations
    ).model

    true = Interpretation(program.declarations)
    undefined: Set[GroundKey] = set()
    for name, rel in minimal.relations.items():
        keys = rel.decl.key_arity
        true.relation(name).join_rows(
            [row for row in rel.rows() if (name, row[:keys]) in clean]
        )
    for name, bucket in possible.keys.items():
        for key in bucket:
            if (name, key) not in clean:
                undefined.add((name, key))
    return ThreeValuedModel(true=true, undefined=undefined)
