"""Aggregates over conjunctions: the general form of Definition 2.4."""

import pytest

from repro.core.database import Database
from repro.datalog.parser import parse_rule
from repro.datalog.terms import Variable


def solved(source, facts, **kwargs):
    db = Database()
    db.load(source)
    for predicate, rows in facts.items():
        db.add_facts(predicate, rows)
    return db.solve(**kwargs)


class TestSharedMultisetVariable:
    def test_multiset_var_in_two_cost_columns(self):
        """E in the cost columns of two LDB conjuncts: the conjunction
        keeps only agreeing rows (a join on the cost value)."""
        result = solved(
            """
            @cost p/2 : nonneg_reals_le.
            @cost q/2 : nonneg_reals_le.
            @cost both/2 : nonneg_reals_le.
            both(X, C) <- C =r sum{E : p(X, E), q(X, E)}.
            """,
            {
                "p": [("a", 1.0), ("b", 2.0)],
                "q": [("a", 1.0), ("b", 99.0)],
            },
        )
        # only ("a",) agrees on the cost value; sum of the single match.
        assert result["both"] == {("a",): 1.0}

    def test_parser_accepts_shared_e(self):
        rule = parse_rule("h(X, C) <- C =r sum{E : p(X, E), q(X, E)}.")
        agg = rule.body[0]
        assert agg.multiset_var == Variable("E")
        assert len(agg.conjuncts) == 2


class TestLocalVariableJoins:
    def test_local_join_inside_aggregate(self):
        """Two conjuncts joined on a local variable W (the circuit shape:
        connect(G, W) ∧ t(W, D))."""
        result = solved(
            """
            @cost weight/2 : nonneg_reals_le.
            @cost load/2 : nonneg_reals_le.
            @pred uses/2.
            load(G, C) <- grp(G), C = sum{D : uses(G, W), weight(W, D)}.
            grp(G) <- uses(G, W).
            """,
            {
                "uses": [("g1", "a"), ("g1", "b"), ("g2", "b")],
                "weight": [("a", 1.0), ("b", 2.0), ("c", 50.0)],
            },
        )
        assert result["load"][("g1",)] == 3.0
        assert result["load"][("g2",)] == 2.0

    def test_duplicate_costs_from_distinct_locals_counted_twice(self):
        """Two different wires with the same weight both contribute — the
        SQL-projection semantics the paper insists on (§2.3.1)."""
        result = solved(
            """
            @cost weight/2 : nonneg_reals_le.
            @cost load/2 : nonneg_reals_le.
            @pred uses/2.
            load(G, C) <- grp(G), C = sum{D : uses(G, W), weight(W, D)}.
            grp(G) <- uses(G, W).
            """,
            {
                "uses": [("g", "a"), ("g", "b")],
                "weight": [("a", 2.0), ("b", 2.0)],
            },
        )
        assert result["load"][("g",)] == 4.0


class TestGroupingAcrossConjuncts:
    def test_grouping_variable_spanning_conjuncts(self):
        result = solved(
            """
            @cost sale/3 : nonneg_reals_le.
            @pred in_region/2.
            @cost regional/2 : nonneg_reals_le.
            regional(R, T) <- region(R),
                T = sum{A : in_region(S, R), sale(S, P, A)}.
            region(R) <- in_region(S, R).
            """,
            {
                "in_region": [("s1", "west"), ("s2", "west"), ("s3", "east")],
                "sale": [
                    ("s1", "widget", 10.0),
                    ("s1", "gadget", 5.0),
                    ("s2", "widget", 7.0),
                    ("s3", "widget", 100.0),
                ],
            },
        )
        assert result["regional"][("west",)] == 22.0
        assert result["regional"][("east",)] == 100.0


class TestImplicitBooleanOverConjunction:
    def test_count_of_joined_rows(self):
        result = solved(
            """
            @pred enrolled/2.
            @pred passed/2.
            @cost finishers/2 : naturals_le.
            finishers(C, N) <- course(C),
                N = count{enrolled(S, C), passed(S, C)}.
            course(C) <- enrolled(S, C).
            """,
            {
                "enrolled": [("ann", "db"), ("bob", "db"), ("cid", "db")],
                "passed": [("ann", "db"), ("cid", "db"), ("bob", "ml")],
            },
        )
        assert result["finishers"][("db",)] == 2


class TestDefaultsAcrossComponents:
    def test_lower_component_default_read_by_upper(self):
        """A default-value predicate defined in one component and
        aggregated by a higher one: absent keys still read the default."""
        from repro.aggregates.base import AggregateFunction, Monotonicity
        from repro.lattices import BOOL_LE, NATURALS_LE

        class SumFlags(AggregateFunction):
            """Sums boolean flags into a natural (domain ≠ range)."""

            name = "sum_flags"
            classification = Monotonicity.MONOTONIC

            def __init__(self):
                super().__init__(BOOL_LE, NATURALS_LE)

            def state_create(self):
                return 0

            def process(self, state, value):
                return state + int(value)

            def merge(self, state, other):
                return state + other

            def convert(self, state):
                return state

        db = Database()
        db.register_aggregate(SumFlags())
        db.load(
            """
            @pred node/1.
            @pred marked/1.
            @default flag/2 : bool_le.
            @cost total/1 : naturals_le.
            flag(X, C) <- marked(X), C = 1.
            total(N) <- N = sum_flags{D : node(X), flag(X, D)}.
            """
        )
        for n in ("a", "b", "c"):
            db.add_fact("node", n)
        db.add_fact("marked", "b")
        result = db.solve()
        # flag(a)=flag(c)=default 0, flag(b)=1 → the sum sees all three.
        assert result["total"][()] == 1
