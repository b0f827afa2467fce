"""Remaining edge paths: lenient-with-conflicts, max-oriented rewrite and
greedy, unicode/odd constants, probe errors."""

import pytest

from repro.analysis.dependencies import condense
from repro.core.database import Database
from repro.datalog.parser import parse_program
from repro.engine import Interpretation, solve
from repro.engine.greedy import greedy_applicable, greedy_fixpoint
from repro.semantics import alternating_fixpoint, rewrite_extrema


class TestLenientWithConflicts:
    def test_lenient_skips_conflict_gate_but_keeps_runtime_check(self):
        """A program the static check cannot discharge but whose data never
        actually conflicts: lenient mode evaluates it fine."""
        db = Database()
        db.load(
            """
            @cost p/2 : nonneg_reals_le.
            @cost q/2 : nonneg_reals_le.
            @cost r/2 : nonneg_reals_le.
            p(X, C) <- q(X, C).
            p(X, C) <- r(X, C).
            """
        )
        db.add_fact("q", "a", 1)
        db.add_fact("r", "b", 2)  # disjoint keys: no actual conflict
        assert not db.analyze().conflict_free
        result = db.solve(check="lenient")
        assert result["p"] == {("a",): 1, ("b",): 2}


class TestMaxOrientedPrograms:
    LONGEST = """
        @cost arc/3  : reals_le.
        @cost path/4 : reals_le.
        @cost l/3    : reals_le.
        @constraint arc(direct, Z, C).
        path(X, direct, Y, C) <- arc(X, Y, C).
        path(X, Z, Y, C) <- l(X, Z, C1), arc(Z, Y, C2), C = C1 + C2.
        l(X, Y, C) <- C =r max{D : path(X, Z, Y, D)}.
    """

    def test_longest_path_on_dag(self):
        """The dual of Example 2.6: max over (R, ≤) — longest paths."""
        db = Database()
        db.load(self.LONGEST)
        for arc in [("a", "b", 1), ("b", "c", 1), ("a", "c", 1)]:
            db.add_fact("arc", *arc)
        result = db.solve()
        assert result["l"][("a", "c")] == 2  # via b beats the direct hop

    def test_longest_path_admissible(self):
        db = Database()
        db.load(self.LONGEST)
        assert db.analyze().admissible

    def test_max_rewrite_two_valued_on_dag(self):
        """The §5.4 rewrite with the max orientation (dominance is >)."""
        program = parse_program(self.LONGEST)
        rewritten = rewrite_extrema(program, cost_bound=0)  # lower bound
        edb = Interpretation(rewritten.declarations)
        for arc in [("a", "b", 1), ("b", "c", 1), ("a", "c", 1)]:
            edb.add_fact("arc", *arc)
        wf = alternating_fixpoint(rewritten, edb)
        assert wf.total
        longest = {(u, v): c for (u, v, c) in wf.true["l"]}
        assert longest[("a", "c")] == 2

    def test_greedy_direction_for_max_components(self):
        program = parse_program(self.LONGEST)
        component = condense(program)[0]
        assert greedy_applicable(program, component) == 1

    def test_greedy_on_nonrecursive_max(self):
        """A max component without recursive growth: greedy settles
        largest-first and matches naive."""
        source = """
            @cost e/2 : reals_le.
            @cost best/2 : reals_le.
            best(X, C) <- C =r max{D : e(X, D)}.
        """
        program = parse_program(source)
        edb = Interpretation(program.declarations)
        for row in [("a", 3), ("a2", 9), ("b", 5)]:
            edb.add_fact("e", row[0], row[1])
        component = condense(program)[0]
        greedy = greedy_fixpoint(program, component, edb)
        naive = solve(program, edb, check="none")
        assert greedy.interpretation["best"] == naive.model["best"]


class TestOddConstants:
    def test_unicode_string_constants(self):
        db = Database()
        db.load('p(X) <- e(X), X != "zürich ✈".')
        db.add_fact("e", "zürich ✈")
        db.add_fact("e", "basel")
        assert db.solve()["p"] == {("basel",)}

    def test_large_integers(self):
        db = Database()
        db.load(
            "@cost w/2 : nonneg_reals_le.\n@cost t/1 : nonneg_reals_le.\n"
            "t(C) <- C =r sum{D : w(X, D)}."
        )
        db.add_fact("w", "a", 10**15)
        db.add_fact("w", "b", 10**15)
        assert db.solve()["t"][()] == 2 * 10**15

    def test_tuple_valued_costs_in_product_lattice(self):
        from repro.lattices import BOOL_LE, NATURALS_LE, ProductLattice

        combo = ProductLattice([BOOL_LE, NATURALS_LE], name="flag_count")
        db = Database()
        db.register_lattice("flag_count", combo)
        db.load("@cost m/2 : flag_count.\nseen(X) <- m(X, V).")
        db.add_fact("m", "a", (1, 3))
        assert db.solve()["seen"] == {("a",)}

    def test_mixed_symbol_and_number_keys(self):
        db = Database()
        db.load("p(X, Y) <- e(X, Y).")
        db.add_fact("e", 1, "one")
        db.add_fact("e", "one", 1)
        assert len(db.solve()["p"]) == 2


class TestProbeErrors:
    def test_sampleless_lattice_rejected_by_probe(self):
        from repro.aggregates import LatticeJoin, verify_monotonic
        from repro.lattices.base import Lattice

        class NoSample(Lattice):
            name = "nosample"

            def leq(self, a, b):
                return a <= b

            def join(self, a, b):
                return max(a, b)

            def meet(self, a, b):
                return min(a, b)

            @property
            def bottom(self):
                return 0

            @property
            def top(self):
                return 10

            def __contains__(self, value):
                return isinstance(value, int)

        with pytest.raises(ValueError):
            verify_monotonic(LatticeJoin(NoSample()))
