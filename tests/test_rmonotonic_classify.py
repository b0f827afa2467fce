"""r-monotonic classification (Section 5.2)."""

from repro.analysis.facts import ProgramFacts
from repro.analysis.rmonotonic import check_rule_r_monotonic
from repro.datalog.parser import parse_program
from repro.programs import (
    company_control,
    company_control_r_monotonic,
    shortest_path,
)


class TestPaperVerdicts:
    def test_company_control_as_written_is_not(self):
        """The m-rule exposes sum's value in its head (§5.2's example)."""
        program = company_control.database().program
        assert not ProgramFacts(program).r_monotonic
        m_rule = program.rules_for("m")[0]
        report = check_rule_r_monotonic(m_rule, program)
        assert not report.ok
        assert any("head" in v for v in report.violations)

    def test_combined_formulation_is(self):
        """c(X,Y) ← N =r sum{...}, N > 0.5 hides the value — r-monotonic."""
        program = company_control_r_monotonic.database().program
        assert ProgramFacts(program).r_monotonic

    def test_shortest_path_is_not(self):
        """'There is little hope of rewriting it as r-monotonic' — the
        min value must be part of the s relation."""
        program = shortest_path.database().program
        assert not ProgramFacts(program).r_monotonic


class TestClassifierDetails:
    def test_negation_rejected(self):
        program = parse_program("p(X) <- e(X), not q(X).")
        assert not ProgramFacts(program).r_monotonic

    def test_growing_side_of_comparison(self):
        # sum grows upward: N > 0.5 safe, N < 0.5 not.
        safe = parse_program(
            "@cost q/2 : nonneg_reals_le.\n"
            "p(X) <- N =r sum{D : q(X, D)}, N > 0.5."
        )
        assert ProgramFacts(safe).r_monotonic
        unsafe = parse_program(
            "@cost q/2 : nonneg_reals_le.\n"
            "p(X) <- N =r sum{D : q(X, D)}, N < 0.5."
        )
        assert not ProgramFacts(unsafe).r_monotonic

    def test_min_aggregate_grows_downward(self):
        # min's value ⊑-grows by getting numerically smaller: N < 5 safe.
        safe = parse_program(
            "@cost q/2 : reals_ge.\n"
            "p(X) <- N =r min{D : q(X, D)}, N < 5."
        )
        assert ProgramFacts(safe).r_monotonic
        unsafe = parse_program(
            "@cost q/2 : reals_ge.\n"
            "p(X) <- N =r min{D : q(X, D)}, N > 5."
        )
        assert not ProgramFacts(unsafe).r_monotonic

    def test_equality_on_aggregate_rejected(self):
        program = parse_program(
            "@cost q/2 : nonneg_reals_le.\n"
            "p(X) <- N =r sum{D : q(X, D)}, N = 1."
        )
        assert not ProgramFacts(program).r_monotonic

    def test_plain_datalog_is_r_monotonic(self):
        program = parse_program("p(X) <- e(X, Y), q(Y).\nq(X) <- f(X).")
        assert ProgramFacts(program).r_monotonic

    def test_aggregate_in_arithmetic_rejected_conservatively(self):
        program = parse_program(
            "@cost q/2 : nonneg_reals_le.\n"
            "p(X) <- N =r sum{D : q(X, D)}, N + 1 > 2."
        )
        assert not ProgramFacts(program).r_monotonic
