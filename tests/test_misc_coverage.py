"""Odds and ends: report rendering, pretty-printing edge cases, CLI
explain, multiset-order cross-validation, Lemma 2.3 as a property."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregates.monotonicity import multiset_leq
from repro.cli import main
from repro.core.database import Database
from repro.datalog.errors import CostConsistencyError
from repro.datalog.pretty import declaration_lines, program_to_text
from repro.lattices import BoundedReals, FlatLattice
from repro.programs import (
    circuit,
    company_control,
    party_invitations,
    shortest_path,
)
from repro.util.multiset import FrozenMultiset
from repro.workloads import (
    random_circuit,
    random_digraph,
    random_ownership,
    random_party,
)


class TestReportRendering:
    def test_analysis_report_str_mentions_components(self):
        report = shortest_path.database().analyze()
        text = str(report)
        assert "range-restricted:      True" in text
        assert "component(path, s)" in text

    def test_failed_analysis_renders_reasons(self):
        db = Database()
        db.load(
            "@cost p/2 : nonneg_reals_le.\n@cost q/3 : nonneg_reals_le.\n"
            "p(X, C) <- q(X, Y, C)."
        )
        text = str(db.analyze())
        assert "NOT cost-respecting" in text


class TestPrettyEdgeCases:
    def test_custom_lattice_emitted_as_comment(self):
        db = Database()
        db.register_lattice("frac", BoundedReals(0, 1, name="frac"))
        db.load("@cost own/3 : frac.\np(X) <- own(X, Y, F).")
        lines = declaration_lines(db.program)
        custom = [line for line in lines if "frac" in line]
        assert custom and custom[0].startswith("%")

    def test_program_to_text_includes_constraints(self):
        text = program_to_text(shortest_path.database().program)
        assert "<- arc(direct, Z, C)." in text


class TestCliExplain:
    def test_explain_flag(self, tmp_path, capsys):
        facts = tmp_path / "facts.mad"
        facts.write_text("arc(a, b, 1).\narc(b, c, 2).\n")
        code = main(
            [
                "solve",
                "--program",
                "shortest-path",
                "--facts",
                str(facts),
                "--explain",
                "s(a, c)",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "s('a', 'c', 3)" in out
        assert "[EDB fact]" in out


def _brute_force_multiset_leq(lattice, smaller, larger):
    """Try every injective assignment (exponential; tiny inputs only)."""
    left = list(smaller)
    right = list(larger)
    if len(left) > len(right):
        return False
    for permutation in itertools.permutations(range(len(right)), len(left)):
        if all(
            lattice.leq(left[i], right[j]) for i, j in enumerate(permutation)
        ):
            return True
    return False


flat = FlatLattice(["x", "y", "z"])
flat_elements = st.sampled_from(
    [flat.BOTTOM, "x", "y", "z", flat.TOP]
)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(flat_elements, max_size=4).map(FrozenMultiset),
    st.lists(flat_elements, max_size=4).map(FrozenMultiset),
)
def test_matching_multiset_order_matches_brute_force(a, b):
    """Hopcroft–Karp decision == exhaustive search on a partial order."""
    assert multiset_leq(flat, a, b) == _brute_force_multiset_leq(flat, a, b)


class TestLemma23Property:
    """Conflict-free programs never hit the runtime cost-consistency check
    — Lemma 2.3 observed across the catalog on randomized extensions."""

    @pytest.mark.parametrize("seed", range(4))
    def test_catalog_never_raises_cost_consistency(self, seed):
        cases = [
            (shortest_path, {"arc": random_digraph(10, seed=seed)}),
            (company_control, {"s": random_ownership(10, seed=seed)}),
        ]
        knows, requires = random_party(12, seed=seed)
        cases.append(
            (party_invitations, {"knows": knows, "requires": list(requires.items())})
        )
        inst = random_circuit(8, seed=seed, feedback_fraction=0.3)
        cases.append(
            (
                circuit,
                {
                    "gate": inst.gates,
                    "connect": inst.connects,
                    "input": inst.inputs,
                },
            )
        )
        for paper_program, facts in cases:
            db = paper_program.database(facts)
            assert db.analyze().conflict_free
            try:
                db.solve()
            except CostConsistencyError as exc:  # pragma: no cover
                pytest.fail(f"Lemma 2.3 violated on {paper_program.name}: {exc}")


class TestSolveResultMisc:
    def test_component_trajectories_monotone(self):
        db = shortest_path.database({"arc": random_digraph(8, seed=2)})
        result = db.solve()
        for component_result in result.component_results:
            assert component_result.trajectory == sorted(
                component_result.trajectory
            )
