"""Dependency graph, SCC condensation, stratification flags."""

from repro.analysis.dependencies import (
    DependencyEdge,
    EdgeKind,
    condense,
    dependency_edges,
)
from repro.analysis.facts import ProgramFacts
from repro.datalog.parser import parse_program
from repro.programs import company_control, shortest_path, student_averages


class TestEdges:
    def test_edge_kinds(self):
        program = parse_program(
            "@cost q/2 : reals_le.\n"
            "p(X) <- q(X, C), not r(X), N = count{s(X, Y)}, N > 1."
        )
        kinds = {(e.body, e.kind) for e in dependency_edges(program)}
        assert ("q", EdgeKind.POSITIVE) in kinds
        assert ("r", EdgeKind.NEGATIVE) in kinds
        assert ("s", EdgeKind.AGGREGATE) in kinds

    def test_duplicates_removed(self):
        program = parse_program("p(X) <- q(X), q(X).")
        edges = dependency_edges(program)
        assert len(edges) == 1

    def test_same_pair_with_different_kinds_kept(self):
        # p reads q both positively and under negation: two edges.
        program = parse_program("p(X) <- q(X), e(X), not q(X).")
        edges = {
            (e.kind) for e in dependency_edges(program) if e.body == "q"
        }
        assert edges == {EdgeKind.POSITIVE, EdgeKind.NEGATIVE}

    def test_edges_attribute_to_head_predicate(self):
        program = parse_program("a(X) <- e(X).\nb(X) <- e(X).")
        heads = {e.head for e in dependency_edges(program)}
        assert heads == {"a", "b"}
        assert DependencyEdge("a", "e", EdgeKind.POSITIVE) in set(
            dependency_edges(program)
        )

    def test_aggregate_conjuncts_all_reported(self):
        program = parse_program(
            "t(X, C) <- C = min{D : u(X, W), v(W, D)}."
        )
        agg = {
            e.body
            for e in dependency_edges(program)
            if e.kind is EdgeKind.AGGREGATE
        }
        assert agg == {"u", "v"}

    def test_facts_contribute_no_edges(self):
        program = parse_program("p(a).\nq(b).")
        assert dependency_edges(program) == []


class TestCondense:
    def test_topological_order(self):
        program = parse_program(
            "a(X) <- b(X).\nb(X) <- c(X).\nc(X) <- e(X)."
        )
        components = condense(program)
        order = [sorted(c.cdb)[0] for c in components]
        assert order == ["c", "b", "a"]

    def test_mutual_recursion_in_one_component(self):
        program = parse_program("p(X) <- q(X).\nq(X) <- p(X).\nq(X) <- e(X).")
        components = condense(program)
        assert len(components) == 1
        assert components[0].cdb == {"p", "q"}

    def test_ldb_contains_lower_and_edb(self):
        program = parse_program(
            "low(X) <- e(X).\nhigh(X) <- low(X), f(X)."
        )
        components = condense(program)
        high = next(c for c in components if "high" in c.cdb)
        assert high.ldb == {"low", "f"}

    def test_shortest_path_is_one_component(self):
        program = shortest_path.database().program
        components = condense(program)
        assert len(components) == 1
        comp = components[0]
        assert comp.cdb == {"path", "s"}
        assert comp.ldb == {"arc"}
        assert comp.recursive_through_aggregation
        assert not comp.recursive_through_negation

    def test_company_control_component(self):
        program = company_control.database().program
        comp = condense(program)[0]
        assert comp.cdb == {"cv", "m", "c"}

    def test_student_averages_all_separate(self):
        program = student_averages.database().program
        components = condense(program)
        # No mutual recursion anywhere: one component per head predicate.
        assert all(len(c.cdb) == 1 for c in components)
        assert not any(c.recursive_through_aggregation for c in components)
        # all_avg aggregates c_avg, so c_avg's component comes first.
        order = [sorted(c.cdb)[0] for c in components]
        assert order.index("c_avg") < order.index("all_avg")

    def test_self_loop_detected(self):
        program = parse_program("p(X) <- p(X).")
        comp = condense(program)[0]
        assert EdgeKind.POSITIVE in comp.internal_kinds

    def test_aggregate_self_recursion_flagged(self):
        program = parse_program(
            "s(X, C) <- C =r min{D : s(X, D)}.\ns(a, 1)."
        )
        comp = condense(program)[0]
        assert comp.recursive_through_aggregation
        assert "agg-recursive" in str(comp)

    def test_negated_self_loop_flagged(self):
        program = parse_program("p(X) <- e(X), not p(X).")
        comp = condense(program)[0]
        assert comp.recursive_through_negation
        assert "neg-recursive" in str(comp)

    def test_component_rules_are_exactly_its_head_rules(self):
        program = parse_program(
            "p(X) <- q(X).\nq(X) <- p(X).\nr(X) <- p(X).\nr(X) <- e(X)."
        )
        components = condense(program)
        by_cdb = {tuple(sorted(c.cdb)): c for c in components}
        assert len(by_cdb[("p", "q")].rules) == 2
        assert len(by_cdb[("r",)].rules) == 2
        assert by_cdb[("r",)].ldb == {"p", "e"}

    def test_diamond_topological_order(self):
        # top reads both mids; both mids read base: base first, top last.
        program = parse_program(
            "top(X) <- m1(X), m2(X).\n"
            "m1(X) <- base(X).\nm2(X) <- base(X).\n"
            "base(X) <- e(X)."
        )
        order = [sorted(c.cdb)[0] for c in condense(program)]
        assert order[0] == "base"
        assert order[-1] == "top"
        assert set(order[1:3]) == {"m1", "m2"}

    def test_internal_kinds_exclude_ldb_edges(self):
        # The negation targets an LDB predicate: the recursive component
        # is still negation-free internally.
        program = parse_program(
            "p(X) <- q(X), not e(X).\nq(X) <- p(X)."
        )
        comp = next(c for c in condense(program) if c.cdb == {"p", "q"})
        assert not comp.recursive_through_negation
        assert comp.internal_kinds == {EdgeKind.POSITIVE}


class TestStratificationFlags:
    def test_aggregate_stratified(self):
        averages = ProgramFacts(student_averages.database().program)
        assert averages.aggregate_stratified
        paths = ProgramFacts(shortest_path.database().program)
        assert not paths.aggregate_stratified

    def test_negation_stratified(self):
        stratified = parse_program("p(X) <- e(X), not q(X).\nq(X) <- f(X).")
        assert ProgramFacts(stratified).negation_stratified
        unstratified = parse_program("p(X) <- e(X), not q(X).\nq(X) <- p(X).")
        assert not ProgramFacts(unstratified).negation_stratified
