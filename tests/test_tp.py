"""The T_P operator (Definition 3.7) and its paper-stated properties."""

import random

import pytest

from repro.datalog.errors import CostConsistencyError
from repro.datalog.parser import parse_program
from repro.engine.interpretation import Interpretation
from repro.engine.modelcheck import is_model, is_premodel
from repro.engine.fixpoint import apply_tp
from repro.programs import shortest_path


def sp_setup(arcs):
    program = shortest_path.database().program
    edb = Interpretation(program.declarations)
    for arc in arcs:
        edb.add_fact("arc", *arc)
    return program, frozenset({"path", "s"}), edb


class TestBasicApplication:
    def test_first_application_derives_base_paths(self):
        program, cdb, edb = sp_setup([("a", "b", 1)])
        j0 = Interpretation(program.declarations)
        j1 = apply_tp(program, cdb, j0, edb)
        assert j1["path"] == {("a", "direct", "b"): 1}
        assert j1["s"] == {}  # min needs a path atom in J, not just derived

    def test_second_application_aggregates(self):
        program, cdb, edb = sp_setup([("a", "b", 1)])
        j0 = Interpretation(program.declarations)
        j1 = apply_tp(program, cdb, j0, edb)
        j2 = apply_tp(program, cdb, j1, edb)
        assert j2["s"] == {("a", "b"): 1}

    def test_simultaneous_not_cumulative(self):
        """T_P re-derives everything from scratch: facts absent from J that
        are not re-derivable disappear (they are re-derivable here, so the
        sequence is increasing — monotonicity, not accumulation)."""
        program, cdb, edb = sp_setup([("a", "b", 1), ("b", "c", 2)])
        j = Interpretation(program.declarations)
        sizes = []
        for _ in range(6):
            j = apply_tp(program, cdb, j, edb)
            sizes.append(j.total_size())
        assert sizes == sorted(sizes)


class TestCostConsistency:
    def test_conflicting_rules_raise(self):
        program = parse_program(
            """
            @cost p/2 : nonneg_reals_le.
            @cost q/2 : nonneg_reals_le.
            @cost r/2 : nonneg_reals_le.
            p(X, C) <- q(X, C).
            p(X, C) <- r(X, C).
            """
        )
        edb = Interpretation(program.declarations)
        edb.add_fact("q", "a", 1)
        edb.add_fact("r", "a", 2)
        j = Interpretation(program.declarations)
        with pytest.raises(CostConsistencyError):
            apply_tp(program, frozenset({"p"}), j, edb)

    def test_agreeing_rules_fine(self):
        program = parse_program(
            """
            @cost p/2 : nonneg_reals_le.
            @cost q/2 : nonneg_reals_le.
            p(X, C) <- q(X, C).
            p(X, C) <- q(X, C), X = a.
            """
        )
        edb = Interpretation(program.declarations)
        edb.add_fact("q", "a", 1)
        j = apply_tp(program, frozenset({"p"}), Interpretation(program.declarations), edb)
        assert j["p"] == {("a",): 1}


class TestMonotonicity:
    """Lemma 4.1 checked empirically: J ⊑ J' ⇒ T_P(J) ⊑ T_P(J')."""

    @pytest.mark.parametrize("seed", range(6))
    def test_tp_monotone_on_random_pairs(self, seed):
        rng = random.Random(seed)
        arcs = [
            (u, v, rng.randint(1, 9))
            for u in range(5)
            for v in range(5)
            if u != v and rng.random() < 0.4
        ]
        program, cdb, edb = sp_setup(arcs)

        # Build J by a few T_P steps, then J' ⊒ J by improving some costs.
        j = Interpretation(program.declarations)
        for _ in range(rng.randint(1, 3)):
            j = apply_tp(program, cdb, j, edb)
        j_prime = j.copy()
        for key, value in list(j_prime["path"].items()):
            if rng.random() < 0.5 and value > 1:
                j_prime.relation("path").costs[key] = value - 1  # ⊑-increase
        assert j.leq(j_prime)
        t_j = apply_tp(program, cdb, j, edb)
        t_j_prime = apply_tp(program, cdb, j_prime, edb)
        assert t_j.leq(t_j_prime)


class TestPreModelCharacterisation:
    """Proposition 3.2: J ∪ I is a pre-model iff T_P(J, I) ⊑ J."""

    def test_fixpoint_is_model_and_premodel(self):
        from repro.engine.solver import solve

        program, cdb, edb = sp_setup([("a", "b", 1), ("b", "b", 0)])
        model = solve(program, edb).model
        assert is_model(program, model)
        assert is_premodel(program, model)
        j = model.copy()
        t = apply_tp(program, cdb, j, edb)
        assert t.leq(j)

    def test_paper_premodel_example(self):
        """{p(a,3), q(a,2)} is a pre-model but not a model of
        p(X,C) ← q(X,C) when 2 ⊑ 3."""
        program = parse_program(
            "@cost p/2 : nonneg_reals_le.\n@cost q/2 : nonneg_reals_le.\n"
            "p(X, C) <- q(X, C)."
        )
        interp = Interpretation(program.declarations)
        interp.add_fact("p", "a", 3)
        interp.add_fact("q", "a", 2)
        assert is_premodel(program, interp)
        assert not is_model(program, interp)

    def test_non_premodel_detected(self):
        program = parse_program(
            "@cost p/2 : nonneg_reals_le.\n@cost q/2 : nonneg_reals_le.\n"
            "p(X, C) <- q(X, C)."
        )
        interp = Interpretation(program.declarations)
        interp.add_fact("p", "a", 1)  # 1 is below the required 2
        interp.add_fact("q", "a", 2)
        assert not is_premodel(program, interp)
