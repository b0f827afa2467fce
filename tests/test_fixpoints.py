"""Naive, semi-naive and greedy fixpoints: convergence, equivalence,
non-termination diagnostics (Section 6.2)."""

import pytest

from repro.datalog.errors import NonTerminationError
from repro.analysis.dependencies import condense
from repro.datalog.parser import parse_program
from repro.engine.greedy import greedy_applicable, greedy_fixpoint
from repro.engine.interpretation import Interpretation, Relation
from repro.engine.fixpoint import apply_tp, fixpoint
from repro.lattices import REALS_GE
from repro.lattices.base import Lattice
from repro.programs import (
    circuit,
    company_control,
    halfsum_limit,
    party_invitations,
    shortest_path,
)
from repro.workloads import (
    circuit_oracle,
    company_control_oracle,
    dijkstra_all_pairs,
    party_oracle,
    random_circuit,
    random_digraph,
    random_ownership,
    random_party,
)


class TestKleene:
    def test_converges_and_reports_iterations(self):
        db = shortest_path.database({"arc": [("a", "b", 1), ("b", "c", 1)]})
        program = db.program
        result = fixpoint(
            program, frozenset({"path", "s"}), db.edb(), write="replace"
        )
        assert result.ascending
        assert result.iterations >= 2
        assert result.trajectory == sorted(result.trajectory)

    def test_empty_program_component(self):
        program = parse_program("p(X) <- e(X).")
        edb = Interpretation(program.declarations)
        result = fixpoint(program, frozenset({"p"}), edb, write="replace")
        assert result.iterations == 0

    def test_halfsum_raises_ascending(self):
        """Example 5.1: the exact chain ascends forever toward p(a,1); a
        budget below machine precision's ~53 doubling steps observes it
        still strictly ascending."""
        db = halfsum_limit.database()
        with pytest.raises(NonTerminationError) as info:
            fixpoint(
                db.program,
                frozenset({"p"}),
                db.edb(),
                write="replace",
                max_iterations=30,
            )
        assert info.value.ascending is True

    def test_halfsum_trajectory_approaches_one(self):
        """p(a) climbs 1/2, 3/4, 7/8, ... — in float arithmetic the chain
        closes at ≈1 once increments drop below one ulp, which is the
        computable shadow of the paper's transfinite least model p(a,1)."""
        db = halfsum_limit.database()
        edb, j = db.edb(), Interpretation(db.program.declarations)
        values = []
        for _ in range(200):
            j, previous = apply_tp(db.program, frozenset({"p"}), j, edb), j
            values.append(j["p"].get(("a",), 0))
            if j == previous:
                break
        else:
            pytest.fail("halfsum chain did not close in 200 steps")
        assert values[1] == 0.5
        assert values[2] == 0.75
        assert values == sorted(values)
        assert j["p"][("a",)] == pytest.approx(1.0)

    def test_oscillation_detected_as_non_monotonic(self):
        """p(a) ← 1 =r count{q(X)} etc. flip-flops from the empty start."""
        program = parse_program(
            "@pred p/1.\n@pred q/1.\n"
            "p(a) <- 1 =r count{q(X)}.\n"
            "q(a) <- 0 = count{p(X)}, e(Y)."
        )
        edb = Interpretation(program.declarations)
        edb.add_fact("e", "y")
        with pytest.raises(NonTerminationError) as info:
            fixpoint(
                program,
                frozenset({"p", "q"}),
                edb,
                write="replace",
                max_iterations=50,
            )
        assert info.value.ascending is False


WORKLOAD_SEEDS = [0, 1, 2]


class TestSemiNaiveEquivalence:
    """Against the oracles (tests/test_generated_programs.py: vs naive)."""

    @pytest.mark.parametrize("seed", WORKLOAD_SEEDS)
    def test_shortest_path(self, seed):
        arcs = random_digraph(14, seed=seed)
        semi = shortest_path.database({"arc": arcs}).solve(method="seminaive")
        assert semi.model["s"] == dijkstra_all_pairs(arcs)

    @pytest.mark.parametrize("seed", WORKLOAD_SEEDS)
    def test_company_control(self, seed):
        shares = random_ownership(12, seed=seed)
        semi = company_control.database({"s": shares}).solve(method="seminaive")
        assert set(semi.model["c"]) == company_control_oracle(shares)

    @pytest.mark.parametrize("seed", WORKLOAD_SEEDS)
    def test_party(self, seed):
        knows, requires = random_party(16, seed=seed)
        facts = {"knows": knows, "requires": list(requires.items())}
        semi = party_invitations.database(facts).solve(method="seminaive")
        assert {g for (g,) in semi.model["coming"]} == party_oracle(
            knows, requires
        )

    @pytest.mark.parametrize("seed", WORKLOAD_SEEDS)
    def test_circuit(self, seed):
        inst = random_circuit(10, feedback_fraction=0.3, seed=seed)
        facts = {
            "gate": inst.gates,
            "connect": inst.connects,
            "input": inst.inputs,
        }
        semi = circuit.database(facts).solve(method="seminaive")
        oracle = circuit_oracle(inst)
        mine = {k[0]: v for k, v in semi.model["t"].items()}
        assert all(mine.get(w, 0) == v for w, v in oracle.items())


class TestGreedy:
    def test_applicability(self):
        program = shortest_path.database().program
        component = condense(program)[0]
        assert greedy_applicable(program, component) == -1

    def test_not_applicable_to_mixed_components(self):
        program = company_control.database().program
        component = condense(program)[0]
        # c has no cost argument: greedy does not apply.
        assert greedy_applicable(program, component) is None

    @pytest.mark.parametrize("seed", WORKLOAD_SEEDS)
    def test_matches_naive_on_nonnegative(self, seed):
        """Naive's model here is Dijkstra's (tests/test_generated_programs.py)."""
        arcs = random_digraph(14, seed=seed)
        db = shortest_path.database({"arc": arcs})
        component = condense(db.program)[0]
        greedy = greedy_fixpoint(db.program, component, db.edb())
        assert greedy.interpretation["s"] == dijkstra_all_pairs(arcs)

    def test_settles_each_key_once(self, monkeypatch):
        """Non-negative weights: with one tie band per round every key
        fires once, at its final value (Dijkstra); a round of 64 rows
        fires several bands, and a key fired from one may improve from
        another's consequences and fire again.  A negative arc re-fires
        keys at any width."""
        from repro.engine import greedy
        from tests.reference_eval import fired_rows, fires_once

        def fire(arcs, size):
            monkeypatch.setattr(greedy, "SEED_SLICE", size)
            db = shortest_path.database({"arc": arcs})
            with fired_rows() as rounds:
                result = greedy_fixpoint(db.program, condense(db.program)[0], db.edb())
            fired = sum(len(rows) for fire in rounds for rows in fire.values())
            return rounds, result.interpretation, fired

        arcs = random_digraph(10, seed=3)
        rounds, j, fired = fire(arcs, 1)
        assert fires_once(rounds, j) and fired == j.total_size()
        rounds, j, fired = fire(arcs, 64)
        assert not fires_once(rounds, j)
        assert fired < 1.1 * j.total_size() and len(rounds) < j.total_size() / 32
        negative = [("a", "b", 2), ("a", "c", 3), ("c", "b", -2), ("b", "d", 1)]
        assert not fires_once(*fire(negative, 1)[:2])


class TestCostOrderIsNotASoundnessCondition:
    """Negative arcs: the cost-ordered policy joins a better value in
    when it arrives, so ``auto``/``greedy`` reach the least model where
    one exists and fail like semi-naive where none does (the
    settle-once loop returned ``complete`` with a non-model on both)."""

    NEGATIVE_ARC = [("a", "b", 2), ("a", "c", 3), ("c", "b", -2), ("b", "d", 1)]

    @pytest.mark.parametrize("method", ["auto", "greedy", "seminaive", "naive"])
    def test_negative_arc_without_a_negative_cycle(self, method):
        from repro.engine.modelcheck import is_model

        db = shortest_path.database({"arc": self.NEGATIVE_ARC})
        result = db.solve(method=method)
        assert result.complete
        assert result.model["s"][("a", "b")] == 1
        assert result.model["s"][("a", "d")] == 2
        assert is_model(db.program, result.model)

    @pytest.mark.parametrize("method", ["auto", "greedy", "seminaive"])
    def test_negative_cycle_hits_max_iterations(self, method):
        from pathlib import Path

        from repro.core.database import Database

        example = Path(__file__).resolve().parent.parent / "examples" / "diverging.mad"
        db = Database()
        db.load(example.read_text(encoding="utf-8"))
        with pytest.raises(NonTerminationError) as raised:
            db.solve(method=method, max_iterations=60)
        assert raised.value.ascending


class TestAtomCounts:
    """``trajectory`` and the ``iteration`` events' ``total_atoms`` count
    the component's own ``J`` — which holds CDB atoms only, so the
    drivers sum the CDB relations (or carry the count) instead of every
    declared relation per round.  The numbers are what a full sum gives."""

    ARCS = random_digraph(9, seed=5)

    @pytest.mark.parametrize("method", ["naive", "seminaive", "greedy", "auto"])
    @pytest.mark.parametrize("interrupt_at", [None, 3])
    def test_counts_equal_the_full_sum(self, method, interrupt_at):
        from repro.engine.supervisor import Budget
        from repro.obs import Tracer

        db = shortest_path.database({"arc": self.ARCS})
        kwargs = {"method": method, "pushdown": "off"}
        results = []
        if interrupt_at is not None:
            partial = db.solve(
                budget=Budget(max_iterations=interrupt_at), tracer=Tracer(), **kwargs
            )
            assert partial.status == "partial"
            results.append(partial)
            kwargs["resume"] = partial.checkpoint
        tracer = Tracer()
        results.append(db.solve(tracer=tracer, **kwargs))
        assert results[-1].complete
        for result in results:
            for fixpoint in result.component_results:
                full = fixpoint.interpretation.total_size()
                assert fixpoint.trajectory[-1] == full
        # Per round, against the model as it stood after that round.
        last = {}
        for event in tracer.events:
            if event["type"] == "iteration":
                last[event["scc"]] = event["total_atoms"]
            elif event["type"] == "scc_end":
                assert last[event["scc"]] == event["atoms"]


class CountingLattice(Lattice):
    """``inner`` with a count of its ``leq`` calls."""

    def __init__(self, inner, name):
        self.inner, self.name, self.leq_calls = inner, name, 0
        self.is_chain, self.numeric_direction = inner.is_chain, inner.numeric_direction

    def leq(self, a, b):
        self.leq_calls += 1
        return self.inner.leq(a, b)

    def join(self, a, b):
        return self.inner.join(a, b)

    def meet(self, a, b):
        return self.inner.meet(a, b)

    bottom = property(lambda self: self.inner.bottom)
    top = property(lambda self: self.inner.top)

    def __contains__(self, value):
        return value in self.inner


class TestKleeneRoundWork:
    """A Kleene round's bookkeeping (``J ⊑ T_P(J)``, the fingerprint)
    reads the entries that differ, not all of ``J``: the deterministic
    counters behind docs/PERFORMANCE.md §4."""

    def test_a_naive_party_solve_reprs_no_row(self):
        reprs = []

        class Guest(str):
            def __repr__(self):
                reprs.append(str(self))
                return str.__repr__(self)

        knows, requires = random_party(40, seed=3)
        facts = {
            "knows": [(Guest(a), Guest(b)) for a, b in knows],
            "requires": [(Guest(g), k) for g, k in requires.items()],
        }
        result = party_invitations.database(facts).solve(method="naive")
        assert result.total_iterations > 2
        assert {g for (g,) in result.model["coming"]} == {
            Guest(g) for g in party_oracle(knows, requires)
        }
        assert reprs == []

    def test_a_naive_party_solve_builds_each_index_once(self, monkeypatch):
        """A Kleene round's successor carries ``J``'s indexes, so each
        ``(relation, positions)`` a solve probes is built once, however
        many rounds it runs."""
        from repro.obs import Tracer

        probed = set()
        index_for = Relation.index_for

        def spy(rel, positions):
            probed.add((rel.decl.name, positions))
            return index_for(rel, positions)

        monkeypatch.setattr(Relation, "index_for", spy)
        rounds = set()
        for n in (60, 80):
            probed.clear()
            knows, requires = random_party(n, seed=3)
            db = party_invitations.database(
                {"knows": knows, "requires": list(requires.items())}
            )
            tracer = Tracer()
            rounds.add(db.solve(method="naive", tracer=tracer).total_iterations)
            assert tracer.index_stats.builds == len(probed) > 0
        assert len(rounds) == 2

    def test_leq_is_called_once_per_changed_entry_per_round(self):
        from repro.core.database import Database
        from repro.obs import Tracer

        lattice = CountingLattice(REALS_GE, "counted_min")
        db = Database()
        db.register_lattice("counted_min", lattice)
        db.load(shortest_path.source.replace("reals_ge", "counted_min"))
        db.add_facts("arc", random_digraph(12, seed=3))
        lattice.leq_calls = 0
        tracer = Tracer()
        db.solve(method="naive", tracer=tracer, check="lenient")
        rounds = [e for e in tracer.events if e["type"] == "iteration"]
        changed = sum(e["changed_atoms"] for e in rounds)
        stored = sum(e["total_atoms"] for e in rounds)
        assert 0 < lattice.leq_calls == changed < stored / 10
