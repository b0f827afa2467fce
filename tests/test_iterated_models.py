"""Iterated minimal models across components (Section 6.3).

Multi-stratum programs: ordinary Datalog below, negation on lower
components, monotonic aggregation above — and Proposition 6.1's agreement
with the well-founded model where both apply.
"""

import pytest

from repro.core.database import Database
from repro.engine.sharded import sharded_supported
from repro.engine import Interpretation, solve
from repro.datalog.parser import parse_program
from repro.programs import shortest_path
from repro.semantics import kemp_stuckey_wf


class TestStackedComponents:
    def test_aggregation_over_derived_relation(self):
        """Transitive closure below, a count above."""
        db = Database()
        db.load(
            """
            @cost fanout/2 : naturals_le.
            reach(X, Y) <- edge(X, Y).
            reach(X, Y) <- reach(X, Z), edge(Z, Y).
            fanout(X, N) <- node(X), N = count{reach(X, Y)}.
            """
        )
        for e in [("a", "b"), ("b", "c"), ("c", "b")]:
            db.add_fact("edge", *e)
        for n in "abc":
            db.add_fact("node", n)
        result = db.solve()
        assert result["fanout"][("a",)] == 2  # b, c
        assert result["fanout"][("b",)] == 2  # c, b (cycle)
        assert result["fanout"][("c",)] == 2

    def test_negation_on_lower_component(self):
        """Stratified negation below a monotonic min component."""
        db = Database()
        db.load(
            """
            @cost road/3 : reals_ge.
            @cost open_road/3 : reals_ge.
            @cost best/3 : reals_ge.
            blocked(X) <- incident(X).
            open_road(X, Y, C) <- road(X, Y, C), not blocked(X), not blocked(Y).
            best(X, Y, C) <- C =r min{D : open_road(X, Y, D)}.
            """
        )
        # road is a cost predicate used extensionally; two parallel roads.
        db.add_fact("road", "a", "b", 5)
        db.add_fact("road", "a", "c", 2)
        db.add_fact("incident", "c")
        result = db.solve()
        assert result["best"] == {("a", "b"): 5}  # the c road is blocked

    def test_three_strata_with_aggregation_between(self):
        db = Database()
        db.load(
            """
            @cost spend/3 : nonneg_reals_le.
            @cost dept_total/2 : nonneg_reals_le.
            @cost org_total/1 : nonneg_reals_le.
            dept_total(D, T) <- T =r sum{A : spend(D, Item, A)}.
            org_total(T) <- T =r sum{A : dept_total(D, A)}.
            big_dept(D) <- dept_total(D, T), org_total(G), T > G / 2.
            """
        )
        for row in [("eng", "laptops", 60), ("eng", "cloud", 30), ("hr", "misc", 10)]:
            db.add_fact("spend", *row)
        result = db.solve()
        assert result["org_total"][()] == 100
        assert result["big_dept"] == {("eng",)}

    def test_component_results_reported_in_order(self):
        db = Database()
        db.load("a(X) <- e(X).\nb(X) <- a(X).\nc(X) <- b(X).")
        db.add_fact("e", 1)
        result = db.solve()
        assert len(result.components) == 3
        order = [sorted(c.cdb)[0] for c in result.components]
        assert order == ["a", "b", "c"]


class TestProposition61:
    """Where the KS well-founded model is two-valued, it equals ours."""

    def test_stratified_program_agreement(self):
        source = """
            @cost score/2 : nonneg_reals_le.
            @cost team_total/2 : nonneg_reals_le.
            team_total(T, S) <- team(T), S = sum{P : member(T, M), score(M, P)}.
        """
        program = parse_program(source)
        edb = Interpretation(program.declarations)
        for t in ("red", "blue"):
            edb.add_fact("team", t)
        for m, t in [("m1", "red"), ("m2", "red"), ("m3", "blue")]:
            edb.add_fact("member", t, m)
        for m, s in [("m1", 3), ("m2", 4), ("m3", 5)]:
            edb.add_fact("score", m, s)
        wf = kemp_stuckey_wf(program, edb)
        ours = solve(program, edb).model
        assert wf.total
        assert wf.true["team_total"] == ours["team_total"]
        assert ours["team_total"][("red",)] == 7

    def test_acyclic_recursive_agreement(self):
        from repro.programs import shortest_path
        from repro.workloads import random_dag

        arcs = random_dag(7, seed=61)
        db = shortest_path.database({"arc": arcs})
        wf = kemp_stuckey_wf(db.program, db.edb())
        ours = db.solve().model
        assert wf.total
        for predicate in ("s", "path"):
            assert wf.true[predicate] == ours[predicate]

    def test_ours_extends_wf_on_cycles(self):
        """On cyclic data: every WF-true atom is in our model with the
        same value (the ⇒ direction of Proposition 6.1); our model
        additionally decides the WF-undefined atoms."""
        from repro.programs import shortest_path
        from repro.workloads import cycle_graph

        arcs = cycle_graph(3) + [(7, 8, 2.0)]
        db = shortest_path.database({"arc": arcs})
        wf = kemp_stuckey_wf(db.program, db.edb())
        ours = db.solve().model
        for name in ("s", "path"):
            for key, value in wf.true[name].items():
                assert ours[name][key] == value
        assert len(wf.undefined) > 0
        for predicate, key in wf.undefined:
            rel = ours.relation(predicate)
            assert key in rel.costs  # we decide it


class TestStateAbsorbsComponents:
    """The solver folds each finished component into its own state in
    place (``Interpretation.absorb``)."""

    SOURCE = """
        @cost road/3 : reals_ge.
        @cost best/3 : reals_ge.
        @cost hops/2 : naturals_le.
        near(X, Y) <- road(X, Y, C).
        near(X, Y) <- near(X, Z), road(Z, Y, C).
        best(X, Y, C) <- C =r min{D : road(X, Y, D)}.
        hops(X, N) <- near(X, Y), N = count{near(X, Z)}.
    """
    ROADS = [("a", "b", 5), ("b", "c", 2), ("c", "a", 1)]

    def edb(self, program):
        edb = Interpretation(program.declarations)
        for road in self.ROADS:
            edb.add_fact("road", *road)
        edb.add_fact("near", "z", "z")  # an EDB fact of a derived predicate
        return edb

    @pytest.mark.parametrize("method", ["naive", "seminaive", "auto"])
    def test_callers_edb_is_never_mutated(self, method):
        program = parse_program(self.SOURCE)
        edb = self.edb(program)
        before = str(edb)
        relations = dict(edb.relations)
        result = solve(program, edb, method=method)
        assert str(edb) == before
        assert all(edb.relations[name] is rel for name, rel in relations.items())
        assert all(
            result.model.relations[name] is not rel
            for name, rel in relations.items()
        )
        # ``near`` had an EDB row, so the component joined into the
        # state's own relation; ``best`` was empty and is adopted.
        assert ("z", "z") in result.model["near"]
        assert len(result.model["near"]) == 10
        assert result.model["best"] == {(u, v): c for u, v, c in self.ROADS}

    def test_popping_aux_predicates_leaves_component_results_intact(self):
        from repro.programs import shortest_path

        arcs = [("a", "b", 1.0), ("b", "c", 2.0), ("c", "a", 1.0)]
        result = shortest_path.database({"arc": arcs}).solve(method="seminaive")
        assert "path__frontier" not in result.model.relations
        frontier = [
            rel
            for fixpoint in result.component_results
            for name, rel in fixpoint.interpretation.relations.items()
            if name == "path__frontier"
        ]
        assert any(len(rel) for rel in frontier)
        plain = shortest_path.database({"arc": arcs}).solve(
            method="seminaive", pushdown="off"
        )
        assert result.model == plain.model

    @pytest.mark.parametrize("method", ["naive", "seminaive", "greedy"])
    def test_resume_over_a_checkpoint_still_joins(self, method):
        """A resumed solve's state already holds the component's
        checkpointed atoms (a non-empty target), so the finished
        component is joined, not adopted."""
        from repro import Budget
        from repro.programs import shortest_path

        arcs = [("a", "b", 1.0), ("b", "c", 2.0), ("c", "d", 1.0), ("d", "a", 4.0)]
        full = shortest_path.database({"arc": arcs}).solve(
            method=method, pushdown="off"
        )
        partial = shortest_path.database({"arc": arcs}).solve(
            method=method, pushdown="off", budget=Budget(max_iterations=2)
        )
        assert not partial.complete
        resumed = shortest_path.database({"arc": arcs}).resume(
            partial.checkpoint, method=method, pushdown="off"
        )
        assert resumed.complete
        assert resumed.model == full.model
        held = [n for n, rel in partial.model.relations.items() if len(rel)]
        assert len(held) > 1  # more than the EDB: derived atoms came back
        joined = [
            (derived, resumed.model.relations[name])
            for fixpoint in resumed.component_results
            for name, derived in fixpoint.interpretation.relations.items()
            if name in held
        ]
        assert joined
        for derived, folded in joined:
            assert derived is not folded


class TestComponentHoldsItsCdb:
    """A component's ``J`` — the ``interpretation`` of its
    ``FixpointResult`` — holds its CDB relations and nothing else, however
    many predicates the program declares."""

    SOURCE = shortest_path.source + "far(X) <- s(X, Y, C), C > 2.\n"
    ARCS = [("a", "b", 1.0), ("b", "c", 2.0), ("c", "a", 1.0), ("c", "d", 3.0)]

    @pytest.mark.parametrize("extra", [0, 100])
    @pytest.mark.parametrize(
        "method, plan",
        [
            ("naive", "smart"),
            ("seminaive", "smart"),
            ("greedy", "smart"),
            ("auto", "smart"),
            ("naive", "sharded"),
            ("seminaive", "sharded"),
        ],
    )
    def test_j_holds_the_cdb(self, method, plan, extra):
        if plan == "sharded" and not sharded_supported()[0]:
            pytest.skip("no fork start method")
        db = Database()
        db.load(self.SOURCE)
        db.add_facts("arc", self.ARCS)
        for n in range(extra):
            db.add_fact(f"unrelated{n}", n)
        result = db.solve(method=method, plan=plan, workers=2, shards=4)
        assert result.complete
        if plan == "sharded":
            assert any(m.endswith("+sharded") for m in result.component_methods)
        assert len(result.components) >= 3
        for component, outcome in zip(result.components, result.component_results):
            assert set(outcome.interpretation.relations) == set(component.cdb)
        # The model still covers every declared predicate.
        assert set(result.model.relations) == set(db.program.declarations)
        assert result.model["far"] == {("a",), ("b",), ("c",)}
