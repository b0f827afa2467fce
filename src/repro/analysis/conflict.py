"""Conflict-freedom (Definition 2.10) — the syntactic sufficient condition
for cost consistency (Lemma 2.3).

A program is conflict-free when every rule is cost-respecting and, for
every pair of rules whose heads (restricted to the non-cost arguments)
unify with mgu θ, either

1. a containment mapping exists between the unified rules (in either
   direction), or
2. the conjunction of the two unified bodies contains an instance of an
   integrity constraint (so the bodies can never both be satisfied).

Each rule is renamed apart at most once per side before unification.  Pairs are
checked for every combination including a rule with itself; a self-pair
is discharged by the identity containment mapping without unifying (the
mgu of a head and its renamed copy binds variables only to variables).
Genuine single-rule FD violations are caught by the cost-respecting check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analysis.fd import CostRespectReport, check_rule_cost_respecting
from repro.datalog.atoms import AggregateSubgoal
from repro.datalog.program import Program
from repro.datalog.rules import Rule
from repro.datalog.terms import Variable
from repro.datalog.unify import (
    Substitution,
    apply_to_rule,
    containment_mapping,
    find_constraint_instance,
    flatten,
    unify_terms,
)


def rename_apart(rule: Rule, suffix: str) -> Rule:
    """Rename every variable of ``rule`` by appending ``suffix``."""
    subst: Substitution = {
        v: Variable(v.name + suffix) for v in rule.variable_set()
    }
    return apply_to_rule(rule, subst)


def _unify_noncost_heads(
    r1: Rule, r2: Rule, program: Program
) -> Optional[Substitution]:
    """MGU of the two heads restricted to the non-cost arguments, or None."""
    if r1.head.predicate != r2.head.predicate:
        return None
    decl = program.decl(r1.head.predicate)
    k = decl.key_arity if decl.is_cost_predicate else decl.arity
    theta = unify_terms(zip(r1.head.args[:k], r2.head.args[:k]))
    return None if theta is None else flatten(theta)


@dataclass
class PairVerdict:
    """How one rule pair was discharged (or not)."""

    rule1: Rule
    rule2: Rule
    heads_unify: bool
    via: str = ""  # "containment", "constraint", "" (undischarged)

    @property
    def ok(self) -> bool:
        return not self.heads_unify or bool(self.via)


@dataclass
class ConflictReport:
    """Whole-program conflict-freedom outcome (Definition 2.10)."""

    cost_respecting_failures: List[Rule] = field(default_factory=list)
    undischarged_pairs: List[PairVerdict] = field(default_factory=list)
    pair_verdicts: List[PairVerdict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.cost_respecting_failures and not self.undischarged_pairs

    def __str__(self) -> str:
        if self.ok:
            return "conflict-free"
        lines = ["NOT conflict-free:"]
        for rule in self.cost_respecting_failures:
            lines.append(f"  not cost-respecting: {rule}")
        for verdict in self.undischarged_pairs:
            lines.append(
                f"  possibly conflicting pair:\n    {verdict.rule1}\n    {verdict.rule2}"
            )
        return "\n".join(lines)


def check_pair(r1: Rule, r2: Rule, program: Program) -> PairVerdict:
    """Definition 2.10 for one rule pair, renamed apart here."""
    return _discharge(r1, r2, rename_apart(r1, "_1"), rename_apart(r2, "_2"), program)


def _discharge(r1: Rule, r2: Rule, a: Rule, b: Rule, program: Program) -> PairVerdict:
    """Definition 2.10 for ``r1``, ``r2``, renamed apart as ``a``, ``b``."""
    theta = _unify_noncost_heads(a, b, program)
    if theta is None:
        return PairVerdict(r1, r2, heads_unify=False)
    multiset_vars = {
        sg.multiset_var
        for sg in (*a.body, *b.body)
        if isinstance(sg, AggregateSubgoal) and sg.multiset_var is not None
    }
    if any(not isinstance(theta.get(v, v), Variable) for v in multiset_vars):
        # θ grounds a multiset variable: the unified rules are not rules
        # (Definition 2.4), so neither condition can discharge the pair.
        return PairVerdict(r1, r2, heads_unify=True)
    a_theta = apply_to_rule(a, theta)
    b_theta = apply_to_rule(b, theta)
    if (
        containment_mapping(a_theta, b_theta) is not None
        or containment_mapping(b_theta, a_theta) is not None
    ):
        return PairVerdict(r1, r2, heads_unify=True, via="containment")
    conjunction = list(a_theta.body) + list(b_theta.body)
    for constraint in program.constraints:
        if find_constraint_instance(constraint.body, conjunction) is not None:
            return PairVerdict(r1, r2, heads_unify=True, via="constraint")
    return PairVerdict(r1, r2, heads_unify=True)


def check_conflict_freedom(
    program: Program, *, cost_respecting: Optional[List[CostRespectReport]] = None
) -> ConflictReport:
    """Definition 2.10 for the whole program (over ``cost_respecting``,
    the per-rule Definition 2.7 reports, when already computed)."""
    if cost_respecting is None:
        cost_respecting = [check_rule_cost_respecting(r, program) for r in program.rules]
    report = ConflictReport([r.rule for r in cost_respecting if not r.ok])

    # Only pairs of rules defining the *same cost predicate* can produce
    # conflicting cost atoms.
    by_predicate: Dict[str, List[Rule]] = {}
    for rule in program.rules:
        if program.is_cost_predicate(rule.head.predicate):
            by_predicate.setdefault(rule.head.predicate, []).append(rule)

    for rules in by_predicate.values():
        ones = [rename_apart(rule, "_1") for rule in rules[:-1]]
        twos = [rename_apart(rule, "_2") for rule in rules[1:]]  # twos[j - 1]: rule j
        for i, j in itertools.combinations_with_replacement(range(len(rules)), 2):
            if i == j:  # the identity containment mapping (module docstring)
                verdict = PairVerdict(rules[i], rules[i], True, via="containment")
            else:
                verdict = _discharge(rules[i], rules[j], ones[i], twos[j - 1], program)
            report.pair_verdicts.append(verdict)
            if not verdict.ok:
                report.undischarged_pairs.append(verdict)
    return report
