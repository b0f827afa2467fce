"""Conflict-freedom (Definition 2.10) and its discharge mechanisms."""

import pytest
from hypothesis import given, settings

from repro.analysis.conflict import (
    check_conflict_freedom,
    check_pair,
    rename_apart,
)
from repro.analysis.facts import ProgramFacts
from repro.datalog.errors import ReproError
from repro.datalog.parser import parse_program, parse_rule
from repro.datalog.program import PredicateDecl, Program
from repro.lattices import REALS_GE
from repro.programs import ALL_PROGRAMS, circuit, company_control, shortest_path
from tests.reference_analysis import reference_pair_verdicts
from tests.test_facts_differential import SOURCES, _program
from tests.generate import random_program


class TestRenameApart:
    def test_variables_get_suffix(self):
        rule = parse_rule("p(X, C) <- q(X, Y, C).")
        renamed = rename_apart(rule, "_1")
        assert "X_1" in str(renamed)
        assert renamed.head.predicate == "p"


class TestDischargeByContainment:
    def test_company_control_cv_rules(self):
        """Example 2.5/2.7: the two cv rules unify on non-cost args and a
        containment mapping discharges them."""
        program = company_control.database().program
        cv_rules = program.rules_for("cv")
        verdict = check_pair(cv_rules[0], cv_rules[1], program)
        assert verdict.heads_unify
        assert verdict.via == "containment"

    def test_each_pair_is_checked_on_its_own_rules(self):
        """Three rules of p: the first two are discharged by containment,
        the third conflicts with both, each pair in its own place."""
        program = parse_program(
            "@cost p/2 : reals_le.\n@cost e/2 : reals_le.\n@cost g/2 : reals_le.\n"
            "@pred f/1.\np(X, C) <- e(X, C).\np(X, C) <- e(X, C), f(X).\n"
            "p(X, C) <- g(X, C)."
        )
        verdicts = check_conflict_freedom(program).pair_verdicts
        assert [v.via for v in verdicts] == [
            "containment", "containment", "", "containment", "", "containment"
        ]

    def test_self_pair_discharged_by_identity(self):
        program = parse_program(
            "@cost p/2 : reals_le.\n@cost q/3 : reals_le.\n"
            "p(X, C) <- q(X, a, C)."
        )
        rule = program.rules[0]
        verdict = check_pair(rule, rule, program)
        assert verdict.ok


class TestDischargeByConstraint:
    def test_shortest_path_needs_direct_constraint(self):
        """Without ← arc(direct, Z, C), the two path rules may conflict;
        with it, they are discharged."""
        source = shortest_path.source
        with_constraint = parse_program(source)
        assert ProgramFacts(with_constraint).conflict_free

        without = parse_program(
            source.replace("@constraint arc(direct, Z, C).", "")
        )
        report = check_conflict_freedom(without)
        assert not report.ok
        assert report.undischarged_pairs

    def test_the_two_sides_are_renamed_apart(self):
        """Each rule's Y is its own: no one value need be in both a and b,
        so the constraint does not discharge the pair."""
        program = parse_program(
            "@cost p/2 : reals_le.\n@cost e/2 : reals_le.\n"
            "@pred a/1. @pred b/1.\n@constraint a(Z), b(Z).\n"
            "p(X, C) <- a(Y), e(X, C).\np(X, C) <- b(Y), e(X, C)."
        )
        report = check_conflict_freedom(program)
        assert [v.via for v in report.pair_verdicts] == ["containment", "", "containment"]

    def test_circuit_needs_disjointness(self):
        source = circuit.source
        assert ProgramFacts(parse_program(source)).conflict_free
        # Dropping the input/gate disjointness re-opens rule pairs.
        weakened = parse_program(
            source.replace("@constraint input(W, C), gate(W, T).", "")
        )
        assert not ProgramFacts(weakened).conflict_free


class TestFailureModes:
    def test_non_cost_respecting_rule_fails(self):
        program = parse_program(
            "@cost p/2 : reals_le.\n@cost q/3 : reals_le.\n"
            "p(X, C) <- q(X, Y, C)."
        )
        report = check_conflict_freedom(program)
        assert not report.ok
        assert report.cost_respecting_failures

    def test_two_incompatible_aggregate_rules(self):
        """The Section 2.4 opener: min and sum of possibly-overlapping
        groups define p twice."""
        program = parse_program(
            """
            @cost p/2 : nonneg_reals_le.
            @cost q/2 : nonneg_reals_le.
            @cost r/2 : nonneg_reals_le.
            p(X, C) <- C =r sum{D : q(X, D)}.
            p(X, C) <- C =r max_nonneg{D : r(X, D)}.
            """
        )
        report = check_conflict_freedom(program)
        assert not report.ok
        assert report.undischarged_pairs

    def test_non_cost_heads_never_conflict(self):
        program = parse_program("p(X) <- q(X).\np(X) <- r(X).")
        assert ProgramFacts(program).conflict_free

    def test_mgu_grounding_a_multiset_variable_is_undischarged(self):
        """The head key E is also sum's multiset variable: unifying with
        the fact p(1, 2) binds it to 1, which no rule can carry, so the
        pair is reported rather than raising from the substitution."""
        program = parse_program(
            "@cost p/2 : reals_ge.\n"
            "p(E, C) <- C = sum{E : q(X, E)}.\n"
            "p(1, 2)."
        )
        rule, fact = program.rules_for("p")
        verdict = check_pair(rule, fact, program)
        assert verdict.heads_unify and not verdict.ok
        report = check_conflict_freedom(program)
        assert [(v.rule1, v.rule2) for v in report.undischarged_pairs] == [
            (rule, fact)
        ]


def test_every_catalog_program_matches_its_claim():
    for paper_program in ALL_PROGRAMS:
        expected = paper_program.expected.get("conflict_free")
        if expected is None:
            continue
        program = paper_program.database().program
        verdict = ProgramFacts(program).conflict_free
        assert verdict == expected, paper_program.name


# -- one rename per rule per side ---------------------------------------------------


def _cost_program(generated):
    """The generated rules as a program, every head a cost predicate where
    the program allows it (so most rules are cost rules), else under the
    generated declarations; None when neither builds."""
    rules, declarations = generated
    heads = {rule.head.predicate: rule.head.arity for rule in rules}
    every = [PredicateDecl(name, arity, REALS_GE) for name, arity in heads.items()]
    for decls in (every, declarations):
        try:
            return Program(rules, declarations=decls)
        except ReproError:
            continue
    return None


@settings(max_examples=150, deadline=None)
@given(random_program())
def test_a_rule_paired_with_itself_is_discharged_by_containment(generated):
    """The lemma ``check_conflict_freedom`` relies on to discharge a
    self-pair without unifying: the mgu of a head and its renamed copy
    binds variables to variables, so the unabridged check always finds
    the identity containment mapping."""
    program = _cost_program(generated)
    if program is None:
        return
    for rule in program.rules:
        if program.is_cost_predicate(rule.head.predicate):
            verdict = check_pair(rule, rule, program)
            assert (verdict.heads_unify, verdict.via) == (True, "containment")


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_pair_verdicts_match_the_per_pair_reference(name):
    """Every example, catalog and lint-corpus program: the verdicts of the
    renamed-once loop equal ``check_pair`` run on each pair."""
    program = _program(SOURCES[name], name)
    if program is None:
        pytest.skip("does not parse: nothing reaches the analysis")
    try:
        expected = reference_pair_verdicts(program)
    except ReproError as exc:
        with pytest.raises(type(exc)):
            check_conflict_freedom(program)
        return
    assert check_conflict_freedom(program).pair_verdicts == expected


@settings(max_examples=150, deadline=None)
@given(random_program())
def test_generated_pair_verdicts_match_the_per_pair_reference(generated):
    program = _cost_program(generated)
    if program is not None:
        expected = reference_pair_verdicts(program)
        assert check_conflict_freedom(program).pair_verdicts == expected
