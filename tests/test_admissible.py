"""Admissibility (Definition 4.5) and the catalog's paper-pinned verdicts."""

import pytest

from repro.analysis import (
    ProgramFacts,
    analyze_program,
    check_program_admissible,
)
from repro.datalog.parser import parse_program
from repro.programs import ALL_PROGRAMS


@pytest.mark.parametrize("paper_program", ALL_PROGRAMS, ids=lambda p: p.name)
def test_catalog_matches_paper_claims(paper_program):
    report = analyze_program(paper_program.database().program)
    actual = {
        "admissible": report.admissible,
        "conflict_free": report.conflict_free,
        "range_restricted": report.range_restricted,
        "r_monotonic": report.r_monotonic,
        "aggregate_stratified": report.aggregate_stratified,
    }
    for key, want in paper_program.expected.items():
        assert actual[key] == want, f"{paper_program.name}: {key}"


class TestPseudoMonotonicCondition:
    def test_and_over_default_predicate_admissible(self):
        program = parse_program(
            """
            @pred gate/2.
            @pred connect/2.
            @default t/2 : bool_le.
            t(G, C) <- gate(G, and), C = and_le{D : connect(G, W), t(W, D)}.
            """
        )
        assert ProgramFacts(program).admissible

    def test_and_over_non_default_predicate_rejected(self):
        """Example 4.4's point: without the default declaration the
        pseudo-monotonic AND sees growing multisets."""
        program = parse_program(
            """
            @pred gate/2.
            @pred connect/2.
            @cost t/2 : bool_le.
            t(G, C) <- gate(G, and), C = and_le{D : connect(G, W), t(W, D)}.
            """
        )
        reports = check_program_admissible(program)
        assert not all(r.ok for r in reports)
        violations = [
            v for r in reports for rr in r.rule_reports for v in rr.violations
        ]
        assert any("default-value" in v for v in violations)

    def test_pseudo_monotonic_over_ldb_unconstrained(self):
        """An LDB aggregate may use any function — the LDB is fixed."""
        program = parse_program(
            """
            @cost record/3 : reals_le.
            @cost avg/2 : reals_le.
            avg(S, G) <- G =r average{G1 : record(S, C, G1)}.
            """
        )
        assert ProgramFacts(program).admissible

    def test_pseudo_monotonic_over_cdb_rejected(self):
        program = parse_program(
            """
            @cost a/2 : reals_le.
            @cost b/2 : reals_le.
            a(X, G) <- G =r average{G1 : b(X, G1)}.
            b(X, G) <- a(X, G).
            """
        )
        assert not ProgramFacts(program).admissible


class TestNegationOnCdb:
    def test_rejected_within_component(self):
        program = parse_program(
            "p(X) <- e(X), not q(X).\nq(X) <- e(X), not p(X)."
        )
        reports = check_program_admissible(program)
        assert not all(r.ok for r in reports)

    def test_allowed_on_lower_component(self):
        program = parse_program(
            "low(X) <- e(X).\nhigh(X) <- e(X), not low(X)."
        )
        assert ProgramFacts(program).admissible


class TestNonMonotonicAggregateRejected:
    def test_unclassified_aggregate(self):
        """An aggregate declared NONMONOTONIC over a CDB predicate fails."""
        from repro.aggregates.base import (
            AggregateFunction,
            EmptyAggregateError,
            Monotonicity,
        )
        from repro.aggregates.standard import default_registry
        from repro.lattices import REALS_LE
        from repro.util.multiset import FrozenMultiset

        class Spread(AggregateFunction):
            name = "spread"
            classification = Monotonicity.NONMONOTONIC

            def __init__(self):
                super().__init__(REALS_LE, REALS_LE)

            def state_create(self):
                return None

            def process(self, state, value):
                if state is None:
                    return (value, value)
                lo, hi = state
                return (min(lo, value), max(hi, value))

            def merge(self, state, other):
                if state is None:
                    return other
                if other is None:
                    return state
                return (min(state[0], other[0]), max(state[1], other[1]))

            def convert(self, state):
                if state is None:
                    raise EmptyAggregateError("spread: empty partial state")
                return state[1] - state[0]

        aggregates = default_registry()
        aggregates["spread"] = Spread()
        program = parse_program(
            """
            @cost p/2 : reals_le.
            @cost q/2 : reals_le.
            p(X, C) <- C =r spread{D : q(X, D)}.
            q(X, C) <- p(X, C).
            """,
            aggregates=aggregates,
        )
        assert not ProgramFacts(program).admissible


def test_admissible_implies_monotonic_property():
    """Lemma 4.1 checked empirically: for admissible components, T_P is
    monotone on ⊑-related interpretation pairs (see test_tp.py for the
    heavier randomized version)."""
    from repro.programs import shortest_path

    assert ProgramFacts(shortest_path.database().program).admissible
