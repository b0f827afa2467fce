"""The Database façade and one-shot API."""

import pytest

from repro.core.api import analyze, solve_program
from repro.core.builder import V, atom, rule
from repro.core.database import Database
from repro.datalog.errors import (
    NotAdmissibleError,
    ProgramError,
    SafetyError,
)
from repro.lattices import BoundedReals
from repro.programs import shortest_path, two_minimal_models


SP = shortest_path.source


class TestLoadAndSolve:
    def test_load_then_solve(self):
        db = Database()
        db.load(SP)
        db.add_fact("arc", "a", "b", 1)
        db.add_fact("arc", "b", "c", 2)
        result = db.solve()
        assert result["s"][("a", "c")] == 3

    def test_facts_in_text(self):
        db = Database()
        db.load(SP + "\narc(a, b, 1).\narc(b, c, 2).")
        assert db.solve()["s"][("a", "c")] == 3

    def test_incremental_loading(self):
        db = Database()
        db.load("@cost arc/3 : reals_ge.\n@cost path/4 : reals_ge.")
        db.load(
            "@cost s/3 : reals_ge.\n@constraint arc(direct, Z, C).\n"
            "path(X, direct, Y, C) <- arc(X, Y, C).\n"
            "path(X, Z, Y, C) <- s(X, Z, C1), arc(Z, Y, C2), C = C1 + C2.\n"
            "s(X, Y, C) <- C =r min{D : path(X, Z, Y, D)}."
        )
        db.add_fact("arc", "a", "b", 4)
        assert db.solve()["s"][("a", "b")] == 4

    def test_add_rule_programmatically(self):
        X, Y = V("X Y")
        db = Database()
        db.add_rule(rule(atom("p", X), atom("e", X, Y)))
        db.add_fact("e", "a", "b")
        assert db.solve()["p"] == {("a",)}

    def test_query_after_solve(self):
        db = Database()
        db.load("p(X) <- e(X).")
        db.add_fact("e", "a")
        db.solve()
        assert db.query("p") == {("a",)}

    def test_query_before_solve_raises(self):
        db = Database()
        db.load("p(X) <- e(X).")
        with pytest.raises(ProgramError):
            db.query("p")


class TestCheckPolicies:
    def test_strict_rejects_non_admissible(self):
        db = two_minimal_models.database()
        with pytest.raises(NotAdmissibleError):
            db.solve(check="strict")

    def test_lenient_surfaces_oscillation(self):
        """The two-minimal-models program flip-flops: counting q gives 1,
        firing p(a) and q(a), after which both counts are 2 and the
        derived atoms vanish again.  Lenient mode evaluates and reports
        the oscillation honestly instead of picking a model."""
        from repro.datalog.errors import NonTerminationError

        db = two_minimal_models.database()
        with pytest.raises(NonTerminationError) as info:
            db.solve(check="lenient")
        assert info.value.ascending is False

    def test_unsafe_program_rejected_even_lenient(self):
        db = Database()
        db.load("p(X, Y) <- e(X).")
        with pytest.raises(SafetyError):
            db.solve(check="lenient")

    def test_none_skips_checks(self):
        db = Database()
        db.load("p(X) <- e(X).")
        db.add_fact("e", "a")
        assert db.solve(check="none")["p"] == {("a",)}


class TestSchemaHandling:
    def test_arity_mismatch_on_fact(self):
        db = Database()
        db.load("p(X) <- e(X, Y).")
        with pytest.raises(ProgramError):
            db.add_fact("e", "only-one")

    def test_conflicting_cost_declarations(self):
        db = Database()
        db.load("@cost p/2 : reals_ge.")
        with pytest.raises(ProgramError):
            db.load("@cost p/2 : reals_le.")

    def test_explicit_declaration_wins_over_inferred(self):
        db = Database()
        db.load("q(X) <- p(X, C).")  # p inferred ordinary
        db.load("@cost p/2 : reals_ge.")  # now explicit
        assert db.program.decl("p").is_cost_predicate

    def test_declare_api(self):
        db = Database()
        db.declare("w", 2, lattice="bool_le", default=True)
        decl = db.program.decl("w")
        assert decl.has_default
        assert decl.default_value == 0

    def test_declare_unknown_lattice(self):
        db = Database()
        with pytest.raises(ProgramError):
            db.declare("w", 2, lattice="no_such")


class TestCustomRegistration:
    def test_custom_lattice(self):
        db = Database()
        db.register_lattice("fraction", BoundedReals(0, 1, name="fraction"))
        db.load("@cost own/3 : fraction.\nowns(X, Y) <- own(X, Y, F), F > 0.5.")
        db.add_fact("own", "a", "b", 0.7)
        assert db.solve()["owns"] == {("a", "b")}

    def test_custom_aggregate(self):
        from repro.aggregates.base import AggregateFunction, Monotonicity
        from repro.lattices import NONNEG_REALS_LE

        class SquareSum(AggregateFunction):
            name = "sqsum"
            classification = Monotonicity.MONOTONIC

            def __init__(self):
                super().__init__(NONNEG_REALS_LE, NONNEG_REALS_LE)

            def state_create(self):
                return 0

            def process(self, state, value):
                return state + value * value

            def merge(self, state, other):
                return state + other

            def convert(self, state):
                return state

        db = Database()
        db.register_aggregate(SquareSum())
        db.load(
            "@cost q/2 : nonneg_reals_le.\n@cost p/2 : nonneg_reals_le.\n"
            "p(X, C) <- C =r sqsum{D : q(X, D)}."
        )
        db.add_fact("q", "a", 3)
        assert db.solve()["p"][("a",)] == 9


class TestFactsForDerivedPredicates:
    def test_fact_for_rule_head_participates_in_fixpoint(self):
        """A fact for a rule-defined predicate must be visible inside its
        own component's fixpoint (the aggregate over p must see p(b,2))."""
        db = Database()
        db.load(
            "@cost p/2 : nonneg_reals_le.\n"
            "p(a, C) <- C =r max_nonneg{D : p(X, D)}."
        )
        db.add_fact("p", "b", 2)
        result = db.solve(check="lenient", max_iterations=50)
        assert result["p"][("b",)] == 2
        assert result["p"][("a",)] == 2  # the max over {2, 2}


    def test_fact_added_after_the_program_was_assembled(self):
        """A fact of a rule head is a fact rule of the program, so adding
        one must drop the cached program — it used to be silently lost."""
        db = Database()
        db.load("q(1). p(X) <- q(X).")
        assert db.solve()["p"] == {(1,)}
        cached = db.program
        db.add_fact("p", 2)
        assert db.program is not cached
        assert db.solve()["p"] == {(1,), (2,)}
        fresh = Database()
        fresh.load("q(1). p(X) <- q(X).")
        fresh.add_fact("p", 2)
        assert db.solve().model == fresh.solve().model

    def test_rule_added_after_the_fact_was_solved(self):
        """The other order: an EDB fact whose predicate later gains a rule
        moves from the EDB into the program."""
        db = Database()
        db.add_fact("p", 2)
        assert db.solve()["p"] == {(2,)}
        db.load("q(1). p(X) <- q(X).")
        assert db.solve()["p"] == {(1,), (2,)}
        db.add_rule(rule(atom("r", V("X")), atom("p", V("X"))))
        db.add_fact("r", 7)
        assert db.solve()["r"] == {(1,), (2,), (7,)}

    def test_pure_edb_facts_keep_the_assembled_program(self):
        """Only rule-head facts invalidate: bulk ``add_facts`` of EDB rows
        neither rebuilds the program nor re-scans the rules per row."""
        db = Database()
        db.load("@pred q/1. p(X) <- q(X).")
        cached = db.program
        db.add_facts("q", [(i,) for i in range(1000)])
        assert db.program is cached
        assert len(db.solve()["p"]) == 1000

    def test_bulk_targets_are_checked_against_the_maintained_heads(self, tmp_path):
        from repro.data.loader import DataLoadError

        path = tmp_path / "p.csv"
        path.write_text("3\n", encoding="utf-8")
        db = Database()
        db.load("p(X) <- q(X).")
        with pytest.raises(DataLoadError, match="defined by rules"):
            db.load_csv("p", str(path))
        db.load_csv("q", str(path))
        db.add_rule(rule(atom("q", V("X")), atom("r", V("X"))))
        with pytest.raises(DataLoadError, match="defined by rules"):
            db.edb()  # q was claimed by a rule after its file was attached


class TestOneShotApi:
    def test_solve_program(self):
        result = solve_program(SP, facts={"arc": [("a", "b", 1)]})
        assert result["s"][("a", "b")] == 1

    def test_analyze_text(self):
        report = analyze(SP)
        assert report.ok
        assert not report.r_monotonic
