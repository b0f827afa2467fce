"""Failure injection: how the system behaves when things go wrong.

Runtime cost-consistency violations, broken invariants, invalid values,
mis-declared aggregates, exhausted budgets — each must fail loudly with
the right error type, never silently mis-answer.
"""

import pytest

from repro.core.database import Database
from repro.datalog.errors import (
    CostConsistencyError,
    NonTerminationError,
    ProgramError,
    ReproError,
    SafetyError,
)
from repro.engine import Interpretation, apply_tp, solve
from repro.datalog.parser import parse_program
from repro.lattices import LatticeValueError


class TestRuntimeCostConsistency:
    def test_conflicting_derivations_raise(self):
        """Two rules deriving different costs for the same key — the
        runtime face of Definition 2.6, even when static conflict-freedom
        was skipped."""
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
        with pytest.raises(CostConsistencyError):
            solve(program, edb, check="none")

    def test_conflicting_edb_facts_rejected_at_insert(self):
        db = Database()
        db.load("@cost w/2 : nonneg_reals_le.\np(X) <- w(X, C), C > 0.")
        db.add_fact("w", "a", 1)
        db.add_fact("w", "a", 2)
        with pytest.raises(CostConsistencyError):
            db.solve()

    def test_single_rule_fd_violation_at_runtime(self):
        """p(X,C) ← q(X,Y,C): the projection loses the FD; with two q
        rows sharing X the runtime check fires (the static check would
        have refused the program in strict mode)."""
        program = parse_program(
            "@cost p/2 : nonneg_reals_le.\n@cost q/3 : nonneg_reals_le.\n"
            "p(X, C) <- q(X, Y, C)."
        )
        edb = Interpretation(program.declarations)
        edb.add_fact("q", "a", "y1", 1)
        edb.add_fact("q", "a", "y2", 2)
        with pytest.raises(CostConsistencyError):
            solve(program, edb, check="none")


class TestValueValidation:
    def test_cost_value_outside_lattice(self):
        db = Database()
        db.load("@cost w/2 : nonneg_reals_le.\np(X) <- w(X, C).")
        with pytest.raises(LatticeValueError):
            db.add_fact("w", "a", -1)
            db.solve()

    def test_derived_value_outside_lattice(self):
        """Arithmetic pushing a cost below the lattice floor is caught at
        derivation time."""
        program = parse_program(
            "@cost q/2 : nonneg_reals_le.\n@cost p/2 : nonneg_reals_le.\n"
            "p(X, C) <- q(X, A), C = A - 10."
        )
        edb = Interpretation(program.declarations)
        edb.add_fact("q", "a", 1)
        with pytest.raises(LatticeValueError):
            solve(program, edb, check="none")


class TestBudgets:
    def test_max_iterations_respected(self):
        """A divergent sum-through-itself program hits the budget with an
        ascending chain."""
        program = parse_program(
            "@cost p/2 : nonneg_reals_le.\n"
            "p(a, C) <- C =r sum{D : p(X, D)}, C < 1000000.\n"
            "p(b, 1)."
        )
        edb = Interpretation(program.declarations)
        with pytest.raises(NonTerminationError):
            solve(program, edb, check="none", max_iterations=20)

    def test_oscillation_message_names_the_cycle(self):
        program = parse_program(
            "@pred p/1.\n@pred q/1.\n@pred e/1.\n"
            "p(a) <- 0 = count{q(X)}, e(Y).\n"
            "q(a) <- 1 =r count{p(X)}."
        )
        edb = Interpretation(program.declarations)
        edb.add_fact("e", "seed")
        with pytest.raises(NonTerminationError) as info:
            solve(program, edb, check="none", max_iterations=100)
        assert "oscillates" in str(info.value)


class TestMisdeclaredAggregates:
    def test_lying_monotonic_declaration_caught_by_probe(self):
        """A function declared MONOTONIC that is not: the empirical probe
        (which the test suite runs for every registered aggregate) finds a
        counterexample."""
        from repro.aggregates.base import AggregateFunction, Monotonicity
        from repro.aggregates.monotonicity import verify_monotonic
        from repro.lattices import REALS_LE

        class Liar(AggregateFunction):
            name = "liar_min"
            classification = Monotonicity.MONOTONIC  # it is not!

            def __init__(self):
                super().__init__(REALS_LE, REALS_LE)

            # min against <=: not monotone over growing multisets
            def state_create(self):
                return None

            def process(self, state, value, count=1):
                return value if state is None else min(state, value)

            def merge(self, state, other):
                if state is None:
                    return other
                if other is None:
                    return state
                return min(state, other)

            def convert(self, state):
                return state

        verdict = verify_monotonic(Liar())
        assert not verdict.holds
        assert verdict.counterexample is not None


class TestSchemaErrors:
    def test_arity_mismatch_in_rules(self):
        with pytest.raises(ProgramError):
            parse_program("p(X) <- q(X).\nr(X) <- q(X, Y).")

    def test_unsafe_rule_cannot_be_scheduled(self):
        """A rule that slips past static checks (check='none') still fails
        at schedule time rather than looping or guessing."""
        program = parse_program("p(X, Y) <- q(X).")
        edb = Interpretation(program.declarations)
        edb.add_fact("q", "a")
        with pytest.raises(SafetyError):
            solve(program, edb, check="none")

    def test_aggregate_over_undeclared_default_key(self):
        """Evaluating a default-value atom with an unbound key is a
        runtime safety error, not an infinite enumeration."""
        from repro.engine.grounding import EvalContext, match_atom
        from repro.datalog.atoms import make_atom
        from repro.datalog.terms import Variable

        program = parse_program(
            "@default t/2 : bool_le.\np(W) <- e(W), t(W, D)."
        )
        edb = Interpretation(program.declarations)
        j = Interpretation(program.declarations)
        ctx = EvalContext(program, frozenset({"p"}), j, edb)
        unbound = make_atom("t", Variable("W"), Variable("D"))
        with pytest.raises(SafetyError):
            list(match_atom(unbound, ctx, {}))


class TestGreedyInvariant:
    def test_negative_weights_are_revised_not_frozen(self):
        """The cost order is a cost model, not a soundness condition:
        where a negative arc makes a later candidate better than a
        written key, the slice policy *joins* it in and matches naive
        (the settle-once loop this replaced froze ``s(a,d)`` at 6)."""
        from repro.analysis.dependencies import condense
        from repro.engine.greedy import greedy_fixpoint
        from repro.programs import shortest_path

        arcs = [("a", "b", 5), ("a", "c", 1), ("c", "b", 10), ("b", "d", -9)]
        db = shortest_path.database({"arc": arcs})
        component = condense(db.program)[0]
        greedy = greedy_fixpoint(db.program, component, db.edb()).interpretation
        naive = db.solve(method="naive").model
        assert naive["s"][("a", "d")] == -4
        assert greedy["s"] == naive["s"] and greedy["path"] == naive["path"]
