"""Magic sets: query-directed evaluation (the Section 7 substrate).

Section 7 cites Mumick et al.'s magic-sets transformation for r-monotonic
programs as prior optimization work.  This module implements the classic
transformation for the **plain positive Datalog subset** (no aggregates,
no negation, no cost arguments): given a query pattern, rules are adorned
with bound/free annotations, magic predicates restrict each derived
predicate to the bindings actually demanded, and bottom-up evaluation of
the transformed program computes exactly the query's answers while
visiting fewer atoms.

Scope is deliberate: extending magic sets *through* aggregation is the
open problem the paper points at (relevance can cut off cost improvements
— Sudarshan & Ramakrishnan's "aggregate relevance" line), so aggregate
rules are rejected rather than mis-optimized.  The transformation still
pays off for the plain-Datalog components below an aggregation stratum.

Usage::

    answers, stats = magic_solve(program, edb, query=("reach", ("a", None)))

``None`` marks free argument positions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.datalog.atoms import Atom, AtomSubgoal
from repro.datalog.errors import ProgramError
from repro.datalog.program import PredicateDecl, Program
from repro.datalog.rules import Rule
from repro.datalog.terms import Constant, Variable
from repro.engine.interpretation import Interpretation
from repro.engine.solver import solve

Adornment = str  # e.g. "bf": first argument bound, second free
QueryPattern = Tuple[str, Tuple[Optional[Any], ...]]


def _check_plain(program: Program) -> None:
    for rule in program.rules:
        if any(True for _ in rule.aggregate_subgoals()):
            raise ProgramError(
                "magic sets here cover the plain positive Datalog subset; "
                "aggregate rules are out of scope (Section 7's open problem)"
            )
        if any(True for _ in rule.negative_atom_subgoals()):
            raise ProgramError("magic sets here do not cover negation")
        if any(True for _ in rule.builtin_subgoals()):
            raise ProgramError("magic sets here do not cover built-ins")
    for decl in program.declarations.values():
        if decl.is_cost_predicate:
            raise ProgramError("magic sets here do not cover cost predicates")


def _adorn(atom: Atom, bound: Set[Variable]) -> Adornment:
    out = []
    for arg in atom.args:
        if isinstance(arg, Constant) or arg in bound:
            out.append("b")
        else:
            out.append("f")
    return "".join(out)


def _magic_name(predicate: str, adornment: Adornment) -> str:
    return f"magic__{predicate}__{adornment}"


def _adorned_name(predicate: str, adornment: Adornment) -> str:
    return f"{predicate}__{adornment}"


def _bound_args(atom: Atom, adornment: Adornment):
    return tuple(
        arg for arg, a in zip(atom.args, adornment) if a == "b"
    )


@dataclass
class MagicProgram:
    """The transformed program plus bookkeeping for answer extraction."""

    program: Program
    query_predicate: str
    query_adornment: Adornment
    seed_fact: Tuple[str, Tuple[Any, ...]]


def magic_transform(program: Program, query: QueryPattern) -> MagicProgram:
    """Adorn + add magic predicates for ``query``.

    Standard supplementary-free magic sets with left-to-right sideways
    information passing: for each adorned rule, positive IDB subgoals are
    adorned with the variables bound by the magic seed and the subgoals to
    their left; each adorned IDB subgoal spawns a magic rule.
    """
    _check_plain(program)
    predicate, pattern = query
    if predicate not in program.idb_predicates:
        raise ProgramError(f"query predicate {predicate} is not derived")
    decl = program.decl(predicate)
    if len(pattern) != decl.arity:
        raise ProgramError(f"query pattern arity {len(pattern)} != {decl.arity}")
    query_adornment = "".join(
        "b" if value is not None else "f" for value in pattern
    )

    idb = program.idb_predicates
    new_rules: List[Rule] = []
    new_decls: Dict[str, PredicateDecl] = {
        name: decl
        for name, decl in program.declarations.items()
        if name not in idb
    }
    pending: List[Tuple[str, Adornment]] = [(predicate, query_adornment)]
    done: Set[Tuple[str, Adornment]] = set()

    def declare(name: str, arity: int) -> None:
        if name not in new_decls:
            new_decls[name] = PredicateDecl(name, arity)

    while pending:
        target, adornment = pending.pop()
        if (target, adornment) in done:
            continue
        done.add((target, adornment))
        n_bound = adornment.count("b")
        declare(_magic_name(target, adornment), n_bound)
        declare(_adorned_name(target, adornment), program.decl(target).arity)

        for rule in program.rules_for(target):
            bound: Set[Variable] = {
                arg
                for arg, a in zip(rule.head.args, adornment)
                if a == "b" and isinstance(arg, Variable)
            }
            body: List[AtomSubgoal] = [
                AtomSubgoal(
                    Atom(
                        _magic_name(target, adornment),
                        _bound_args(rule.head, adornment),
                    )
                )
            ]
            for sg in rule.body:
                assert isinstance(sg, AtomSubgoal) and not sg.negated
                atom = sg.atom
                if atom.predicate in idb:
                    sub_adornment = _adorn(atom, bound)
                    body.append(
                        AtomSubgoal(
                            Atom(
                                _adorned_name(atom.predicate, sub_adornment),
                                atom.args,
                            )
                        )
                    )
                    # Magic rule: the demand for this subgoal.
                    magic_head = Atom(
                        _magic_name(atom.predicate, sub_adornment),
                        _bound_args(atom, sub_adornment),
                    )
                    new_rules.append(
                        Rule(
                            head=magic_head,
                            body=tuple(body[:-1]),
                            label=f"magic:{atom.predicate}^{sub_adornment}",
                        )
                    )
                    pending.append((atom.predicate, sub_adornment))
                else:
                    body.append(sg)
                bound |= atom.variable_set()
            new_rules.append(
                Rule(
                    head=Atom(_adorned_name(target, adornment), rule.head.args),
                    body=tuple(body),
                    label=f"adorned:{target}^{adornment}",
                )
            )

    transformed = Program(
        rules=new_rules,
        declarations=new_decls.values(),
        constraints=(),
        aggregates=dict(program.aggregates),
        name=f"{program.name}-magic",
    )
    seed = (
        _magic_name(predicate, query_adornment),
        tuple(value for value in pattern if value is not None),
    )
    return MagicProgram(
        program=transformed,
        query_predicate=predicate,
        query_adornment=query_adornment,
        seed_fact=seed,
    )


@dataclass
class MagicStats:
    """Work comparison: atoms derived with vs without the transformation."""

    magic_atoms: int
    full_atoms: Optional[int] = None


def magic_solve(
    program: Program,
    edb: Interpretation,
    query: QueryPattern,
    *,
    compare_full: bool = False,
) -> Tuple[Set[Tuple[Any, ...]], MagicStats]:
    """Answers to ``query`` via the magic transformation.

    Returns the set of full answer tuples for the query predicate
    (matching the bound positions) and derivation-size statistics;
    ``compare_full=True`` additionally runs the untransformed program to
    fill ``stats.full_atoms``.
    """
    magic = magic_transform(program, query)
    # The magic seed predicate is rule-defined, so the seed must enter the
    # fixpoint as a fact *rule* (T_P reads derived predicates from the
    # growing J, not from the extensional database).
    seed_name, seed_args = magic.seed_fact
    seed_rule = Rule(
        head=Atom(seed_name, tuple(Constant(v) for v in seed_args)),
        label="magic-seed",
    )
    seeded_program = Program(
        rules=list(magic.program.rules) + [seed_rule],
        declarations=magic.program.declarations.values(),
        constraints=(),
        aggregates=dict(magic.program.aggregates),
        name=magic.program.name,
    )
    seeded = Interpretation(seeded_program.declarations)
    for name, rel in edb.relations.items():
        if name in seeded_program.declarations:
            seeded.relation(name).join_rows(rel.tuples)

    result = solve(seeded_program, seeded, check="none")
    predicate, pattern = query
    answer_rel = result.model.relation(
        _adorned_name(predicate, magic.query_adornment)
    )
    answers = {
        row
        for row in answer_rel.tuples
        if all(
            expected is None or row[i] == expected
            for i, expected in enumerate(pattern)
        )
    }
    derived = sum(
        len(result.model.relation(name).tuples)
        for name in seeded_program.idb_predicates
    )
    stats = MagicStats(magic_atoms=derived)
    if compare_full:
        full = solve(program, edb, check="none")
        stats.full_atoms = sum(
            len(full.model.relation(name).tuples)
            for name in program.idb_predicates
        )
        expected_answers = {
            row
            for row in full.model.relation(predicate).tuples
            if all(
                value is None or row[i] == value
                for i, value in enumerate(pattern)
            )
        }
        assert answers == expected_answers, "magic transformation is unsound"
    return answers, stats
