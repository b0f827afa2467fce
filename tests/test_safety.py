"""Range-restriction (Definition 2.5) — pinned to Example 2.2's verdicts."""

import pytest

from repro.analysis.facts import ProgramFacts
from repro.analysis.safety import (
    check_rule_safety,
    limited_variables,
    quasi_limited_variables,
)
from repro.datalog.parser import parse_program
from repro.datalog.terms import Variable


def program_and_rule(source, index=-1):
    program = parse_program(source)
    return program, program.rules[index]


EXAMPLE_2_2_HEADER = """
@cost record/3 : reals_le.
@cost alt_class_count/2 : naturals_le.
@default t/2 : bool_le.
@cost s/3 : reals_ge.
@cost path/4 : reals_ge.
@pred gate/2.
@pred connect/2.
@pred courses/1.
"""


class TestExample22RangeRestricted:
    """The three rules Example 2.2 calls range-restricted."""

    def test_alt_class_count_guarded(self):
        program, rule = program_and_rule(
            EXAMPLE_2_2_HEADER
            + "alt_class_count(C, N) <- record(X, C, Y), N = count{record(S, C, G)}."
        )
        assert check_rule_safety(rule, program).ok

    def test_circuit_and_rule(self):
        program, rule = program_and_rule(
            EXAMPLE_2_2_HEADER
            + "t(G, C) <- gate(G, and), C = and_le{D : connect(G, W), t(W, D)}."
        )
        assert check_rule_safety(rule, program).ok

    def test_restricted_min(self):
        program, rule = program_and_rule(
            EXAMPLE_2_2_HEADER + "s(X, Y, C) <- C =r min{D : path(X, Z, Y, D)}."
        )
        assert check_rule_safety(rule, program).ok


class TestExample22NotRangeRestricted:
    """The three rules Example 2.2 calls NOT range-restricted."""

    def test_unguarded_equals_count(self):
        # C is a grouping variable of an '='-form aggregate and bound
        # nowhere else — infinitely many empty groups.
        program, rule = program_and_rule(
            EXAMPLE_2_2_HEADER
            + "alt_class_count(C, N) <- N = count{record(S, C, G)}."
        )
        report = check_rule_safety(rule, program)
        assert not report.ok
        assert any("C" in v for v in report.violations)

    def test_default_atom_with_free_key_variable(self):
        # t(W, X, D): the extra non-cost argument X of the default-value
        # predicate is not limited.
        source = (
            EXAMPLE_2_2_HEADER.replace("@default t/2", "@default t/3")
            + "@cost t4/3 : bool_le.\n"
            + "t4(G, and, C) <- gate(G, and), "
            + "C = and_le{D : connect(G, W), t(W, X, D)}."
        )
        program, rule = program_and_rule(source)
        report = check_rule_safety(rule, program)
        assert not report.ok

    def test_unrestricted_min(self):
        # '='-form min: the grouping variables X, Y are only inside the
        # aggregate, so they are not limited.
        program, rule = program_and_rule(
            EXAMPLE_2_2_HEADER + "s(X, Y, C) <- C = min{D : path(X, Z, Y, D)}."
        )
        report = check_rule_safety(rule, program)
        assert not report.ok


class TestLimitedVariables:
    def test_positive_atom_limits_noncost_vars(self):
        program, rule = program_and_rule(
            "@cost q/2 : reals_le.\np(X) <- q(X, C)."
        )
        limited = limited_variables(rule, program)
        assert Variable("X") in limited
        assert Variable("C") not in limited  # cost args are never limited

    def test_default_atom_limits_nothing(self):
        program, rule = program_and_rule(
            "@default t/2 : bool_le.\n@pred w/1.\np(X) <- w(X), t(X, D)."
        )
        limited = limited_variables(rule, program)
        assert Variable("X") in limited  # via w, not via t
        assert Variable("D") not in limited

    def test_equality_propagates(self):
        program, rule = program_and_rule("p(Y) <- q(X), Y = X.")
        assert Variable("Y") in limited_variables(rule, program)

    def test_constant_equality_limits(self):
        program, rule = program_and_rule("p(X, Y) <- q(X), Y = 3.")
        assert Variable("Y") in limited_variables(rule, program)

    def test_negated_atom_limits_nothing(self):
        program, rule = program_and_rule("p(X) <- q(X), not r(Y, X).")
        assert Variable("Y") not in limited_variables(rule, program)


class TestQuasiLimited:
    def test_cost_args_and_aggregates(self):
        program, rule = program_and_rule(
            "@cost q/2 : reals_le.\n@cost p/2 : reals_le.\n"
            "p(X, C) <- q(X, D), C = sum{E : q(X, E)}."
        )
        quasi = quasi_limited_variables(
            rule, program, limited_variables(rule, program)
        )
        assert Variable("D") in quasi
        assert Variable("C") in quasi
        assert Variable("E") in quasi

    def test_arithmetic_chains(self):
        program, rule = program_and_rule(
            "@cost q/2 : reals_le.\n@cost p/2 : reals_le.\n"
            "p(X, B) <- q(X, C), A = C + 1, B = A * 2."
        )
        quasi = quasi_limited_variables(
            rule, program, limited_variables(rule, program)
        )
        assert Variable("A") in quasi
        assert Variable("B") in quasi


class TestRuleLevelViolations:
    def test_unbound_head_variable(self):
        program, rule = program_and_rule("p(X, Y) <- q(X).")
        report = check_rule_safety(rule, program)
        assert not report.ok

    def test_negated_subgoal_free_variable(self):
        program, rule = program_and_rule("p(X) <- q(X), not r(X, Y).")
        assert not check_rule_safety(rule, program).ok

    def test_builtin_with_unconstrained_variable(self):
        program, rule = program_and_rule("p(X) <- q(X), Y < 3.")
        assert not check_rule_safety(rule, program).ok

    def test_head_cost_variable_must_be_quasi_limited(self):
        program, rule = program_and_rule(
            "@cost p/2 : reals_le.\np(X, C) <- q(X)."
        )
        assert not check_rule_safety(rule, program).ok

    def test_whole_program_check(self):
        program = parse_program("p(X) <- q(X).\nr(Y, X) <- q(X).")
        assert not ProgramFacts(program).range_restricted
