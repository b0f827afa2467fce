"""The compiled execution layer: plans, persistent indexes, seed plans.

Covers the contract between :mod:`repro.engine.exec` and the interpreted
reference path in :mod:`repro.engine.grounding`:

* ``run_rule`` enumerates exactly the heads ``evaluate_body`` +
  ``ground_head`` produce, unseeded and over seed batches, in both plan
  modes;
* the generated kernels agree with it for every subgoal kind and edge
  (defaults, negation, ``=``/``=r`` aggregates, arithmetic errors, oracle
  routing), probe the indexes exactly as often, keep the fault seams, and
  are shared process-wide by structurally equal rules;
* ``plan="off"`` reproduces the legacy ``schedule`` order verbatim;
* plans are cached per (rule, seed shape, mode) on the program;
* relation-owned indexes stay equal to a from-scratch rebuild across
  in-place mutations (the incremental-maintenance invariant);
* the delta-dispatch table deduplicates seeds and honours constant /
  duplicate-variable positions in changed rows.
"""

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog.atoms import AggregateSubgoal, AtomSubgoal
from repro.datalog.errors import SafetyError
from repro.datalog.parser import parse_program
from repro.datalog.terms import Constant, Variable
from repro.engine import exec as exec_layer
from repro.engine.exec import (
    PLAN_MODES,
    clear_plan_cache,
    compile_rule,
    get_plan,
    plan_order,
    run_rule,
    seed_columns,
)
from repro.engine.grounding import (
    EvalContext,
    evaluate_body,
    ground_head,
    schedule,
)
from repro.engine.interpretation import (
    IndexStats,
    Interpretation,
    use_index_stats,
)
from repro.obs.tracer import Tracer
from repro.engine.fixpoint import DeltaDispatch
from repro.programs import (
    ALL_PROGRAMS,
    circuit,
    company_control,
    party_invitations,
    shortest_path,
)
from repro.testing.faults import (
    Fault,
    FaultInjected,
    FaultPlan,
    check_relation_indexes,
    inject,
)
from repro.workloads import (
    random_circuit,
    random_digraph,
    random_ownership,
    random_party,
)

PAPER_PROGRAMS = [shortest_path, company_control, party_invitations, circuit]


def sample_db(paper):
    """A small, deterministic instance of one paper program."""
    if paper is shortest_path:
        facts = {"arc": random_digraph(8, seed=3)}
    elif paper is company_control:
        facts = {"s": random_ownership(10, seed=4)}
    elif paper is party_invitations:
        knows, requires = random_party(12, seed=5)
        facts = {"knows": knows, "requires": list(requires.items())}
    else:
        inst = random_circuit(10, seed=6)
        facts = {
            "gate": inst.gates,
            "connect": inst.connects,
            "input": inst.inputs,
        }
    return paper.database(facts)


def setup(source, facts):
    program = parse_program(source)
    edb = Interpretation(program.declarations)
    for predicate, rows in facts.items():
        for row in rows:
            edb.add_fact(predicate, *row)
    j = Interpretation(program.declarations)
    ctx = EvalContext(program, program.idb_predicates, j, edb)
    return program, ctx


def heads_via_legacy(rule, ctx, seed=None):
    return sorted(
        (ground_head(rule, b) for b in evaluate_body(rule, ctx, initial=seed)),
        key=repr,
    )


def fire(rule, ctx, seeds=(), mode="smart"):
    """``(head predicate, row)`` pairs of one kernel call over ``seeds``
    (binding dicts of one shape; none = the unseeded plan), in order."""
    shape = frozenset(seeds[0]) if seeds else frozenset()
    columns = seed_columns(shape)
    rows = run_rule(
        rule,
        ctx,
        mode=mode,
        pre_bound=shape,
        seeds=[tuple(seed[var] for var in columns) for seed in seeds],
    )
    return [(rule.head.predicate, row) for row in rows]


def heads_via_exec(rule, ctx, seed=None, mode="smart"):
    return sorted(fire(rule, ctx, [seed] if seed else (), mode), key=repr)


class TestRunRuleEquivalence:
    """run_rule == evaluate_body + ground_head on every paper program."""

    @pytest.mark.parametrize("paper", PAPER_PROGRAMS, ids=lambda p: p.name)
    @pytest.mark.parametrize("mode", PLAN_MODES)
    def test_rules_against_solved_model(self, paper, mode):
        db = sample_db(paper)
        model = db.solve(method="naive").model
        program = db.program
        cdb = frozenset(program.declarations)
        empty = Interpretation(program.declarations)
        ctx = EvalContext(program, cdb, model, empty)
        for rule in program.rules:
            if rule.is_fact:
                continue
            assert heads_via_exec(rule, ctx, mode=mode) == heads_via_legacy(
                rule, ctx
            )

    @pytest.mark.parametrize("mode", PLAN_MODES)
    def test_with_seed(self, mode):
        program, ctx = setup(
            "p(X, Z) <- e(X, Y), e(Y, Z).",
            {"e": [("a", "b"), ("b", "c"), ("b", "d")]},
        )
        rule = program.rules[0]
        seed = {Variable("Y"): "b"}
        assert heads_via_exec(rule, ctx, seed=seed, mode=mode) == (
            heads_via_legacy(rule, ctx, seed=seed)
        )

    def test_builtin_and_negation(self):
        program, ctx = setup(
            "p(X, C) <- e(X, Y), C = Y + 1, not q(X).",
            {"e": [(1, 2), (3, 4)], "q": [(3,)]},
        )
        rule = program.rules[0]
        assert heads_via_exec(rule, ctx) == [("p", (1, 3))]
        assert heads_via_exec(rule, ctx) == heads_via_legacy(rule, ctx)

    def test_duplicate_variable_filter(self):
        program, ctx = setup(
            "p(X) <- e(X, X).", {"e": [("a", "a"), ("a", "b")]}
        )
        rule = program.rules[0]
        assert heads_via_exec(rule, ctx) == [("p", ("a",))]

    def test_unknown_mode_rejected(self):
        program, ctx = setup("p(X) <- e(X, X).", {"e": [("a", "a")]})
        with pytest.raises(ValueError):
            list(run_rule(program.rules[0], ctx, mode="fancy"))


def assert_kernel_matches_legacy(rule, ctx, seed=None):
    """Both plan modes derive what the interpreted reference derives;
    ``plan="off"`` shares its join order, hence also its output order."""
    legacy = [
        ground_head(rule, b) for b in evaluate_body(rule, ctx, initial=seed)
    ]
    assert fire(rule, ctx, [seed] if seed else (), mode="off") == legacy
    assert heads_via_exec(rule, ctx, seed=seed) == sorted(legacy, key=repr)
    return legacy


class TestKernelEdges:
    """Kernel vs ``heads_via_legacy`` for every subgoal kind and edge."""

    DEFAULTS = (
        "@default t/2 : naturals_le.\n@pred w/1.\n@cost v/2 : naturals_le.\n"
    )

    @pytest.mark.parametrize(
        "body, expected",
        [
            ("w(X), t(X, 0)", [("p", ("b",))]),  # const cost: core or default
            ("w(X), t(X, 3)", [("p", ("a",))]),
            ("v(X, C), t(X, C)", [("p", ("a",))]),  # bound cost
        ],
    )
    def test_default_atom_checks(self, body, expected):
        program, ctx = setup(
            self.DEFAULTS + f"p(X) <- {body}.",
            {"w": [("a",), ("b",)], "t": [("a", 3)], "v": [("a", 3), ("b", 2)]},
        )
        assert assert_kernel_matches_legacy(program.rules[0], ctx) == expected

    def test_default_atom_free_cost_reads_core_or_default(self):
        program, ctx = setup(
            self.DEFAULTS + "@cost q/2 : naturals_le.\nq(X, C) <- w(X), t(X, C).",
            {"w": [("a",), ("b",)], "t": [("a", 3)]},
        )
        assert sorted(assert_kernel_matches_legacy(program.rules[0], ctx)) == [
            ("q", ("a", 3)),
            ("q", ("b", 0)),
        ]

    def test_negation_on_ordinary_and_cost_predicates(self):
        program, ctx = setup(
            "@cost c/2 : naturals_le.\n"
            "p(X) <- e(X, Y), not r(X, Y).\n"
            "q(X) <- e(X, Y), not c(X, Y).",
            {"e": [(1, 2), (3, 4)], "r": [(1, 2)], "c": [(1, 2), (3, 5)]},
        )
        assert assert_kernel_matches_legacy(program.rules[0], ctx) == [
            ("p", (3,))
        ]
        # A cost atom is absent unless stored with exactly that value.
        assert assert_kernel_matches_legacy(program.rules[1], ctx) == [
            ("q", (3,))
        ]

    def test_restricted_aggregate_generates_grouping_bindings(self):
        program, ctx = setup(
            "@cost q/3 : reals_ge.\n@cost p/2 : reals_ge.\n"
            "p(X, C) <- C =r min{D : q(X, Y, D)}.",
            {"q": [("a", 1, 5.0), ("b", 1, 2.0), ("a", 2, 3.0)]},
        )
        assert assert_kernel_matches_legacy(program.rules[0], ctx) == [
            ("p", ("a", 3.0)),
            ("p", ("b", 2.0)),
        ]

    def test_restricted_aggregate_with_bound_result(self):
        program, ctx = setup(
            "p(a) <- 2 =r count{q(X)}.\nr(N) <- w(N), N =r count{q(X)}.",
            {"q": [(1,), (2,)], "w": [(2,), (3,)]},
        )
        assert assert_kernel_matches_legacy(program.rules[0], ctx) == [
            ("p", ("a",))
        ]
        assert assert_kernel_matches_legacy(program.rules[1], ctx) == [
            ("r", (2,))
        ]

    def test_plain_aggregate_over_empty_interior(self):
        """``=`` applies F to the empty multiset: ``count`` gives 0, ``min``
        the range's bottom, and ``average`` raises EmptyAggregateError —
        no binding, not an error.  ``=r`` never sees the empty multiset."""
        program, ctx = setup(
            "@cost n/2 : naturals_le.\n@cost m/2 : reals_ge.\n"
            "@cost a/2 : reals_le.\n@cost r/2 : reals_ge.\n"
            "@cost q/2 : reals_ge.\n"
            "n(X, N) <- w(X), N = count{q(X, D)}.\n"
            "m(X, C) <- w(X), C = min{D : q(X, D)}.\n"
            "a(X, C) <- w(X), C = average{D : q(X, D)}.\n"
            "r(X, C) <- w(X), C =r min{D : q(X, D)}.",
            {"w": [("a",), ("b",)], "q": [("a", 4.0)]},
        )
        count_rule, min_rule, average_rule, restricted_rule = program.rules
        assert sorted(assert_kernel_matches_legacy(count_rule, ctx)) == [
            ("n", ("a", 1)),
            ("n", ("b", 0)),
        ]
        assert sorted(assert_kernel_matches_legacy(min_rule, ctx)) == [
            ("m", ("a", 4.0)),
            ("m", ("b", float("inf"))),
        ]
        assert assert_kernel_matches_legacy(average_rule, ctx) == [
            ("a", ("a", 4.0))
        ]
        assert assert_kernel_matches_legacy(restricted_rule, ctx) == [
            ("r", ("a", 4.0))
        ]

    def test_multiset_keeps_duplicates_and_shadows_outer_variable(self):
        """The multiset variable is private to the interior even when a
        variable of that name is bound outside (Definition 2.4)."""
        program, ctx = setup(
            "@cost q/3 : naturals_le.\n@cost p/2 : naturals_le.\n"
            "p(X, N) <- w(X, D), N =r sum{D : q(X, Y, D)}.",
            {"w": [("a", 1)], "q": [("a", 1, 2), ("a", 2, 2), ("a", 3, 1)]},
        )
        assert assert_kernel_matches_legacy(program.rules[0], ctx) == [
            ("p", ("a", 5))
        ]

    def test_duplicate_variables_and_head_constants(self):
        program, ctx = setup(
            "p(X, k, 7) <- e(X, X, Y), e(Y, Z, Z).",
            {"e": [(1, 1, 2), (2, 3, 3), (1, 2, 2), (2, 3, 4)]},
        )
        assert assert_kernel_matches_legacy(program.rules[0], ctx) == [
            ("p", (1, "k", 7))
        ]

    def test_seeded_kernel_reads_the_seed(self):
        program, ctx = setup(
            "p(X, Z, C) <- e(X, Y), e(Y, Z), C = X + Z.",
            {"e": [(1, 2), (2, 3), (2, 4), (5, 2)]},
        )
        seed = {Variable("Y"): 2, Variable("X"): 5}
        assert assert_kernel_matches_legacy(program.rules[0], ctx, seed) == [
            ("p", (5, 3, 8)),
            ("p", (5, 4, 9)),
        ]

    def test_division_by_zero_drops_the_binding(self):
        program, ctx = setup(
            "p(X, C) <- e(X, Y), C = X / Y.\nq(X) <- e(X, Y), X / Y > 1.",
            {"e": [(4, 2), (1, 0), (6, 3)]},
        )
        assert sorted(assert_kernel_matches_legacy(program.rules[0], ctx)) == [
            ("p", (4, 2.0)),
            ("p", (6, 2.0)),
        ]
        assert sorted(assert_kernel_matches_legacy(program.rules[1], ctx)) == [
            ("q", (4,)),
            ("q", (6,)),
        ]

    def test_incomparable_filter_operands_are_unsatisfied(self):
        program, ctx = setup(
            "p(X) <- e(X, Y), X < Y.", {"e": [(1, 2), (1, "a"), ("b", 3)]}
        )
        assert assert_kernel_matches_legacy(program.rules[0], ctx) == [
            ("p", (1,))
        ]

    @pytest.mark.parametrize("body", ["C = X + Y", "X + Y > 0"])
    def test_type_error_inside_arithmetic_propagates(self, body):
        program, ctx = setup(
            f"p(X) <- e(X, Y), {body}.", {"e": [(1, 2), (1, "a")]}
        )
        rule = program.rules[0]
        with pytest.raises(TypeError):
            heads_via_legacy(rule, ctx)
        for mode in PLAN_MODES:
            with pytest.raises(TypeError):
                run_rule(rule, ctx, mode=mode)

    def test_unbound_head_variable_raises_only_when_the_body_holds(self):
        program, ctx = setup("p(X, Y) <- q(X).", {"q": []})
        rule = program.rules[0]
        assert run_rule(rule, ctx) == []
        ctx.i.add_fact("q", 1)
        with pytest.raises(SafetyError):
            run_rule(rule, ctx)
        with pytest.raises(SafetyError):
            heads_via_legacy(rule, ctx)

    def test_oracle_routing(self):
        """``negation_source``/``aggregate_source`` redirect exactly the
        negated subgoals and the aggregate interiors."""
        source = (
            "p(X) <- e(X), not r(X).\n"
            "c(N) <- N = count{e(X)}.\n"
            "d(X) <- e(X)."
        )
        program, ctx = setup(source, {"e": [(1,), (2,)], "r": [(1,)]})
        oracle = Interpretation(program.declarations)
        for row in [(1,), (2,), (3,)]:
            oracle.add_fact("e", *row)
        oracle.add_fact("r", 2)
        routed = EvalContext(
            program,
            program.idb_predicates,
            ctx.j,
            ctx.i,
            negation_source=oracle,
            aggregate_source=oracle,
        )
        negation, count, positive = program.rules
        assert assert_kernel_matches_legacy(negation, routed) == [("p", (1,))]
        assert assert_kernel_matches_legacy(count, routed) == [("c", (3,))]
        assert len(assert_kernel_matches_legacy(positive, routed)) == 2
        assert assert_kernel_matches_legacy(negation, ctx) == [("p", (2,))]
        assert assert_kernel_matches_legacy(count, ctx) == [("c", (2,))]

    def test_join_deeper_than_the_block_limit(self):
        """CPython allows 20 nested blocks per function; longer joins go
        on in a nested function."""
        n = 2 * exec_layer._MAX_LOOPS + 3
        chain = ", ".join(f"e(X{k}, X{k + 1})" for k in range(n))
        program, ctx = setup(
            f"p(X0, X{n}) <- {chain}.", {"e": [(1, 2), (2, 1), (2, 3)]}
        )
        assert len(assert_kernel_matches_legacy(program.rules[0], ctx)) == 3


def assert_batches_match_legacy(program, ctx, delta):
    """Each seed batch the dispatch table cuts from ``delta``, fired as
    one kernel call, derives what the interpreted reference derives seed
    by seed — in the same order under ``plan="off"``.  Returns the
    ``(rule head, seeds)`` pairs fired."""
    fired = []
    for source, seeds in DeltaDispatch(program.rules, ctx.cdb).batches(delta):
        rule = source.rule
        bindings = [dict(zip(seed_columns(source.shape), seed)) for seed in seeds]
        legacy = [
            ground_head(rule, b)
            for seed in bindings
            for b in evaluate_body(rule, ctx, initial=seed)
        ]
        assert fire(rule, ctx, bindings, mode="off") == legacy
        assert sorted(fire(rule, ctx, bindings), key=repr) == sorted(
            legacy, key=repr
        )
        fired.append((rule.head.predicate, seeds))
    return fired


class TestBatchedKernels:
    """One kernel call per seed batch == the reference, seed by seed."""

    def full_delta(self, ctx):
        return {
            name: list(rel.rows())
            for name, rel in ctx.i.relations.items()
            if len(rel)
        }

    @pytest.mark.parametrize(
        "source, facts",
        [
            (  # joins, an assignment, arithmetic
                "p(X, Z, C) <- e(X, Y), e(Y, Z), C = X + Z.",
                {"e": [(1, 2), (2, 3), (2, 4), (5, 2), (4, 1)]},
            ),
            (  # a default-value atom, negation, a filter that can raise
                "@default t/2 : naturals_le.\n@cost q/2 : naturals_le.\n"
                "q(X, C) <- w(X), t(X, C), not r(X), 6 / X > 1.",
                {"w": [(0,), (1,), (2,), (3,)], "t": [(1, 3)], "r": [(3,)]},
            ),
            (  # '=' aggregate: seeded through the atom and the conjunct
                "@cost n/2 : naturals_le.\n"
                "n(X, N) <- w(X), N = count{q(X, Y)}.",
                {"w": [("a",), ("b",)], "q": [("a", 1), ("a", 2), ("c", 1)]},
            ),
            (  # '=r' aggregate, grouping bound by the seed
                "@cost q/3 : reals_ge.\n@cost p/2 : reals_ge.\n"
                "p(X, C) <- C =r min{D : q(X, Y, D)}.",
                {"q": [("a", 1, 5.0), ("b", 1, 2.0), ("a", 2, 3.0)]},
            ),
            (  # '=r' aggregate generating a grouping variable per seed
                "@cost q/3 : reals_ge.\n@cost p/3 : reals_ge.\n"
                "p(X, Z, C) <- w(X), C =r min{D : q(X, Z, D)}.",
                {
                    "w": [("a",), ("b",), ("c",)],
                    "q": [("a", 1, 5.0), ("a", 2, 2.0), ("b", 1, 3.0)],
                },
            ),
            (  # seed atoms with a constant and a repeated variable
                "p(X, Y) <- e(a, X, X), f(X, Y).",
                {
                    "e": [("a", 1, 1), ("a", 1, 2), ("b", 3, 3), ("a", 4, 4)],
                    "f": [(1, 7), (4, 8), (4, 9), (3, 0)],
                },
            ),
            (shortest_path.source, {"arc": [("a", "b", 1.0), ("b", "a", 2.0)]}),
        ],
    )
    def test_every_subgoal_kind(self, source, facts):
        program, ctx = setup(source, facts)
        # Every predicate is "changed": seed every body atom and conjunct.
        ctx.cdb = frozenset(program.declarations)
        ctx.j = ctx.i
        if "arc" in facts:
            for path in [("a", "direct", "b", 1.0), ("b", "direct", "a", 2.0)]:
                ctx.i.add_fact("path", *path)
            ctx.i.add_fact("s", "a", "b", 1.0)
        fired = assert_batches_match_legacy(program, ctx, self.full_delta(ctx))
        assert fired and any(len(seeds) > 1 for _, seeds in fired)

    def test_grouping_projection_collapses_rows_into_one_seed(self):
        program, ctx = setup(
            "@cost q/3 : reals_ge.\n@cost p/2 : reals_ge.\n"
            "p(X, C) <- C =r min{D : q(X, Y, D)}.",
            {"q": [("a", 1, 5.0), ("a", 2, 3.0), ("b", 1, 2.0), ("a", 3, 9.0)]},
        )
        ctx.cdb, ctx.j = frozenset({"p", "q"}), ctx.i
        delta = {"q": list(ctx.i.relation("q").rows())}
        assert assert_batches_match_legacy(program, ctx, delta) == [
            ("p", [("a",), ("b",)])
        ]

    def test_same_shape_sources_deduplicate_across_sources(self):
        program, ctx = setup(
            "r(X, Y) <- p(X, Y), p(Y, X).",
            {"p": [(1, 1), (1, 2), (2, 1), (3, 4)]},
        )
        ctx.cdb, ctx.j = frozenset({"p", "r"}), ctx.i
        delta = {"p": [(1, 1), (1, 2), (3, 4)]}
        # Columns are (X, Y).  The second source reads the rows as
        # (Y, X): (1, 1) repeats the first source's seed and fires once.
        assert assert_batches_match_legacy(program, ctx, delta) == [
            ("r", [(1, 1), (1, 2), (3, 4)]),
            ("r", [(2, 1), (4, 3)]),
        ]

    def test_seed_loop_in_front_of_a_join_deeper_than_the_block_limit(self):
        n = exec_layer._MAX_LOOPS + 4
        chain = ", ".join(f"e(X{k}, X{k + 1})" for k in range(n))
        program, ctx = setup(
            f"p(X0, X{n}) <- d(X0), {chain}.",
            {"e": [(1, 2), (2, 1), (2, 3)], "d": [(1,), (2,), (3,)]},
        )
        ctx.cdb, ctx.j = frozenset({"d", "p"}), ctx.i
        source = get_plan(
            program, program.rules[0], frozenset({Variable("X0")}), mode="off"
        ).source(program)
        assert source.count("for ") == n + 1 and "def deeper0():" in source
        assert source.index("for (r0,) in seeds:") < source.index("for row in")
        fired = assert_batches_match_legacy(program, ctx, {"d": [(1,), (2,), (3,)]})
        assert fired == [("p", [(1,), (2,), (3,)])]

    def test_unmentioned_seed_column_is_ignored(self):
        program, ctx = setup("p(X) <- e(X, Y).", {"e": [(1, 2), (3, 4)]})
        seeds = [{Variable("Q"): 0, Variable("X"): 3}, {Variable("Q"): 1, Variable("X"): 1}]
        assert fire(program.rules[0], ctx, seeds) == [("p", (3,)), ("p", (1,))]


def _constants(program):
    """Every constant the program's rules mention."""
    found = set()
    for rule in program.rules:
        atoms = [rule.head]
        for sg in rule.body:
            if isinstance(sg, AtomSubgoal):
                atoms.append(sg.atom)
            elif isinstance(sg, AggregateSubgoal):
                atoms.extend(sg.conjuncts)
        for atom in atoms:
            found.update(a.value for a in atom.args if isinstance(a, Constant))
    return sorted(found, key=repr)


@st.composite
def catalog_states(draw):
    """A catalog program and a random interpretation of *all* its
    predicates (so recursive bodies have something to join)."""
    paper = draw(st.sampled_from(ALL_PROGRAMS))
    program = paper.database().program
    values = st.sampled_from(_constants(program) + [0, 1, 2, 3])
    state = Interpretation(program.declarations)
    for name, decl in sorted(program.declarations.items()):
        costs = [v for v in (0, 1, 2, 0.5, 2.5) if decl.lattice and v in decl.lattice]
        row = st.tuples(
            *[values] * decl.key_arity,
            *([st.sampled_from(costs)] if decl.is_cost_predicate else []),
        )
        for args in draw(st.lists(row, max_size=6)):
            state.relation(name).join_rows([args])
    return program, state


class TestCatalogKernels:
    @settings(max_examples=60, deadline=None)
    @given(catalog_states())
    def test_smart_off_and_grounding_agree(self, case):
        program, state = case
        cdb = frozenset(program.declarations)
        ctx = EvalContext(program, cdb, state, Interpretation(program.declarations))
        for rule in program.rules:
            if not rule.is_fact:
                assert_kernel_matches_legacy(rule, ctx)
        delta = {
            name: list(rel.rows())
            for name, rel in state.relations.items()
            if len(rel)
        }
        assert_batches_match_legacy(program, ctx, delta)


class TestKernelProbes:
    """A kernel makes exactly the interpreter's index probes."""

    #: (hits, misses, scans, builds), (plan-cache hits, misses),
    #: (rule.firings, rule.derived) per driver, as measured on the step
    #: interpreter these kernels replaced — except semi-naive's
    #: plan-cache hits, 30 there: one probe per kernel call, and a
    #: kernel call now evaluates a round's whole seed batch.  Greedy is
    #: the same round under the cost-ordered policy; with 29 atoms every
    #: slice holds the whole pending delta, so it probes what semi-naive
    #: probes (the settle-at-a-time loop read (31, 3, 3, 3), (23, 5),
    #: (28, 32): fewer firings, one kernel call each).
    PINNED = {
        "seminaive": ((41, 3, 3, 3), (5, 5), (35, 40)),
        "naive": ((41, 1, 17, 1), (21, 3), (24, 139)),
        "greedy": ((41, 3, 3, 3), (5, 5), (35, 40)),
    }

    @pytest.mark.parametrize("method", sorted(PINNED))
    def test_example_3_1_index_stats_pinned(self, method):
        """A kernel that skips or repeats a ``lookup`` moves these."""
        arcs = [("a", "b", 1.0), ("b", "c", 2.0), ("a", "c", 5.0), ("c", "a", 1.0)]
        tracer = Tracer()
        result = shortest_path.database({"arc": arcs}).solve(
            method=method, pushdown="off", tracer=tracer
        )
        assert result.model.total_size() == 29
        stats = tracer.index_stats
        assert stats.invalidations == 0
        metrics = tracer.metrics.snapshot()
        assert (
            (stats.hits, stats.misses, stats.scans, stats.builds),
            (tracer.plan_hits, tracer.plan_misses),
            (metrics["rule.firings"]["value"], metrics["rule.derived"]["value"]),
        ) == self.PINNED[method]

    def test_one_lookup_per_binding_per_step(self):
        program, ctx = setup(
            "p(X, Z) <- e(X, Y), f(Y, Z).",
            {"e": [(1, 2), (3, 4), (5, 6)], "f": [(2, 7), (4, 8)]},
        )
        stats = IndexStats()
        with use_index_stats(stats):
            run_rule(program.rules[0], ctx, mode="off")
            run_rule(program.rules[0], ctx, mode="off")
        # Per run: one scan-backed enumeration of e (materialised once),
        # then one f lookup per e row; the first builds the index.
        assert stats.snapshot() == {
            "hits": 5,
            "misses": 1,
            "builds": 1,
            "invalidations": 0,
            "scans": 1,
        }


class TestFaultSeams:
    SOURCE = "@cost n/2 : naturals_le.\nn(X, N) <- w(X), N = count{q(X, Y)}."

    def test_rule_firing_seam_trips(self):
        program, ctx = setup(self.SOURCE, {"w": [("a",)], "q": [("a", 1)]})
        plan = FaultPlan([Fault("rule_firing", match="n")])
        with inject(plan), pytest.raises(FaultInjected):
            run_rule(program.rules[0], ctx)
        assert plan.log == [("rule_firing", "n")]

    def test_aggregate_apply_seam_trips_once_per_group(self):
        program, ctx = setup(
            self.SOURCE, {"w": [("a",), ("b",), ("c",)], "q": [("a", 1)]}
        )
        plan = FaultPlan([Fault("aggregate_apply", at=3, match="count")])
        with inject(plan), pytest.raises(FaultInjected):
            run_rule(program.rules[0], ctx)
        assert plan.log == [("rule_firing", "n")] + [
            ("aggregate_apply", "count")
        ] * 3


    def test_rule_firing_seam_trips_once_per_seed_of_a_batch(self):
        program, ctx = setup(self.SOURCE, {"w": [("a",), ("b",)], "q": [("a", 1)]})
        seeds = [{Variable("X"): x} for x in "abc"]
        plan = FaultPlan()
        with inject(plan):
            assert fire(program.rules[0], ctx, seeds) == [
                ("n", ("a", 1)),
                ("n", ("b", 0)),
            ]
        assert plan.seam_counts() == {"rule_firing": 3, "aggregate_apply": 2}
        plan = FaultPlan([Fault("rule_firing", at=3)])
        with inject(plan), pytest.raises(FaultInjected):
            fire(program.rules[0], ctx, seeds)
        assert plan.log == [("rule_firing", "n")] * 3

    def test_aggregate_apply_seam_trips_inside_a_batch(self):
        program, ctx = setup(self.SOURCE, {"w": [("a",), ("b",)], "q": [("a", 1)]})
        seeds = [{Variable("X"): x} for x in "ab"]
        plan = FaultPlan([Fault("aggregate_apply", at=2, match="count")])
        with inject(plan), pytest.raises(FaultInjected):
            fire(program.rules[0], ctx, seeds)
        assert plan.seam_counts() == {"rule_firing": 2, "aggregate_apply": 2}

    def test_index_update_seam_trips_per_changed_row_of_join_rows(self):
        program, ctx = setup(self.SOURCE, {})
        rel = ctx.j.relation("n")
        rel.join_rows([("a", 1), ("b", 2)])
        rel.lookup((0,), ("a",))
        rel.rows_list()
        rows = [("a", 1), ("c", 3), ("b", 5), ("d", 4)]  # unchanged, new, joined, new
        plan = FaultPlan([Fault("index_update", at=3)])
        with inject(plan), pytest.raises(FaultInjected):
            rel.join_rows(rows)
        assert plan.log == [("index_update", "n")] * 3
        # The mutation the fault interrupted stays applied; the derived
        # structures were dropped and rebuild from the containers.
        assert dict(rel.costs) == {("a",): 1, ("b",): 5, ("c",): 3, ("d",): 4}
        assert rel._indexes == {} and rel._rows_cache is None
        assert check_relation_indexes(rel) == []
        assert sorted(rel.lookup((0,), ("d",))) == [("d", 4)]


class TestKernelMemo:
    def test_renamed_predicates_share_one_code_object(self):
        first = parse_program("p(X, c, Z) <- e(X, Y), f(Y, Z), X < 3.")
        second = parse_program("q(X, d, Z) <- g(X, Y), h(Y, Z), X < 9.")
        plans = [compile_rule(p.rules[0], p) for p in (first, second)]
        assert plans[0].kernel is plans[1].kernel
        assert plans[0].consts != plans[1].consts
        assert plans[0].source(first) == plans[1].source(second)
        for name in ("p", "e", "f", "q", "g", "h"):
            assert f"'{name}'" not in plans[0].source(first)

    def test_plan_retains_no_source_or_steps(self):
        program = parse_program("p(X) <- e(X, Y).")
        plan = compile_rule(program.rules[0], program)
        assert not hasattr(plan, "steps")
        assert not any(
            isinstance(getattr(plan, slot), str) and "def kernel" in getattr(plan, slot)
            for slot in plan.__slots__
        )
        assert plan.source(program).startswith("def kernel(ctx, seeds, consts):")

    def test_memo_stays_bounded(self, monkeypatch):
        assert exec_layer._kernel.cache_info().maxsize == 512
        small = lru_cache(maxsize=4)(exec_layer._kernel.__wrapped__)
        monkeypatch.setattr(exec_layer, "_kernel", small)
        for width in range(1, 9):
            chain = ", ".join(f"e(X{k}, X{k + 1})" for k in range(width))
            program = parse_program(f"p(X0) <- {chain}.")
            compile_rule(program.rules[0], program)
        assert small.cache_info().currsize == 4


class TestPlanOrder:
    @pytest.mark.parametrize("paper", PAPER_PROGRAMS, ids=lambda p: p.name)
    def test_off_matches_legacy_schedule(self, paper):
        program = sample_db(paper).program
        for rule in program.rules:
            if rule.is_fact:
                continue
            assert plan_order(
                rule, program, frozenset(), mode="off"
            ) == schedule(rule, program)

    def test_smart_prefers_selective_atom(self):
        """With a live size skew, the small relation is joined first."""
        program, ctx = setup(
            "p(X, Z) <- big(X, Y), small(Y, Z).",
            {
                "big": [(i, i + 1) for i in range(50)],
                "small": [(1, 2)],
            },
        )
        rule = program.rules[0]
        order = plan_order(rule, program, frozenset(), mode="smart", ctx=ctx)
        assert str(order[0]).startswith("small")
        # Same answers either way.
        assert heads_via_exec(rule, ctx, mode="smart") == heads_via_exec(
            rule, ctx, mode="off"
        )

    def test_smart_respects_readiness(self):
        """Negation still runs only once its variables are bound."""
        program, ctx = setup(
            "p(X) <- not r(X), q(X).", {"q": [(1,), (2,)], "r": [(2,)]}
        )
        rule = program.rules[0]
        order = plan_order(rule, program, frozenset(), mode="smart", ctx=ctx)
        assert str(order[-1]).startswith("not")
        assert heads_via_exec(rule, ctx) == [("p", (1,))]

    def test_unschedulable_rule_raises(self):
        program = parse_program("p(X) <- q(X), Y < Z.")
        with pytest.raises(SafetyError):
            plan_order(program.rules[0], program, frozenset(), mode="off")


class TestPlanCache:
    def test_cache_hit_same_shape(self):
        program, ctx = setup("p(X, Z) <- e(X, Y), e(Y, Z).", {"e": [(1, 2)]})
        rule = program.rules[0]
        first = get_plan(program, rule, frozenset(), mode="smart", ctx=ctx)
        again = get_plan(program, rule, frozenset(), mode="smart", ctx=ctx)
        assert first is again

    def test_distinct_entries_per_seed_shape_and_mode(self):
        program, ctx = setup("p(X, Z) <- e(X, Y), e(Y, Z).", {"e": [(1, 2)]})
        rule = program.rules[0]
        base = get_plan(program, rule, frozenset(), mode="smart", ctx=ctx)
        seeded = get_plan(
            program, rule, frozenset({Variable("Y")}), mode="smart", ctx=ctx
        )
        off = get_plan(program, rule, frozenset(), mode="off", ctx=ctx)
        assert base is not seeded
        assert base is not off
        assert len(program.__dict__["_exec_plan_cache"]) == 3

    def test_clear_plan_cache(self):
        program, ctx = setup("p(X) <- e(X, X).", {"e": [(1, 1)]})
        rule = program.rules[0]
        first = get_plan(program, rule, frozenset(), mode="smart", ctx=ctx)
        clear_plan_cache(program)
        assert "_exec_plan_cache" not in program.__dict__
        assert get_plan(program, rule, ctx=ctx) is not first


def _rebuilt_index(rel, positions):
    index = {}
    for row in rel.rows():
        index.setdefault(tuple(row[p] for p in positions), []).append(row)
    return index


def _normalized(index):
    return {
        key: sorted(rows, key=repr) for key, rows in index.items() if rows
    }


class TestIncrementalIndexes:
    """Live index contents always equal a from-scratch rebuild."""

    def test_tuple_relation_updates_in_place(self):
        i = Interpretation(parse_program("p(X) <- e(X, X).").declarations)
        rel = i.relation("e")
        rel.join_rows([(1, 2)])
        rel.lookup((0,), (1,))  # build the index on column 0
        rel.join_rows([(1, 3)])
        rel.join_rows([(4, 5), (1, 2)])
        for positions, index in rel._indexes.items():
            assert _normalized(index) == _normalized(
                _rebuilt_index(rel, positions)
            )
        assert sorted(rel.lookup((0,), (1,))) == [(1, 2), (1, 3)]

    def test_cost_relation_replacement_updates_in_place(self):
        program = parse_program(
            "@cost s/3 : reals_ge.\ns(X, Y, C) <- arc(X, Y, C)."
        )
        i = Interpretation(program.declarations)
        rel = i.relation("s")
        rel.join_rows([("a", "b", 5.0), ("a", "c", 7.0)])
        rel.lookup((0,), ("a",))  # build
        rel.lookup((1,), ("b",))  # build a second index
        # Join-improving update replaces the row inside every live index.
        assert rel.join_rows([("a", "b", 3.0)]) == [("a", "b", 3.0)]
        # Dominated update is a no-op.
        assert rel.join_rows([("a", "b", 9.0)]) == []
        for positions, index in rel._indexes.items():
            assert _normalized(index) == _normalized(
                _rebuilt_index(rel, positions)
            )
        assert rel.lookup((1,), ("b",)) == [("a", "b", 3.0)]

    def test_rows_list_tracks_inserts(self):
        i = Interpretation(parse_program("p(X) <- e(X, X).").declarations)
        rel = i.relation("e")
        rel.join_rows([(1, 2)])
        assert sorted(rel.rows_list()) == [(1, 2)]
        with use_index_stats(IndexStats()) as stats:
            rel.join_rows([(3, 4)])
            assert sorted(rel.rows_list()) == [(1, 2), (3, 4)]
        assert stats.scans == 0  # appended to, not rebuilt

    def test_bulk_join_updates_in_place(self):
        i = Interpretation(parse_program("p(X) <- e(X, X).").declarations)
        rel = i.relation("e")
        rel.join_rows([(1, 2)])
        index = rel.index_for((0,))
        with use_index_stats(IndexStats()) as stats:
            assert rel.join_rows([(8, 9), (1, 3), (1, 2)]) == [(8, 9), (1, 3)]
        assert stats.invalidations == 0
        assert rel._indexes == {(0,): index}
        assert sorted(rel.lookup((0,), (1,))) == [(1, 2), (1, 3)]
        assert check_relation_indexes(rel) == []

    def test_stats_count_hits_and_misses(self):
        i = Interpretation(parse_program("p(X) <- e(X, X).").declarations)
        rel = i.relation("e")
        rel.join_rows([(1, 2)])
        with use_index_stats(IndexStats()) as stats:
            rel.lookup((0,), (1,))
            rel.lookup((0,), (1,))
            rel.lookup((0,), (7,))
        assert stats.misses == 1
        assert stats.hits == 2
        assert stats.builds == 1


def _seeds(rule, cdb, delta):
    """Every seed the dispatch table extracts from ``delta``, as a
    bindings dict (batches carry positional tuples in column order)."""
    return [
        dict(zip(seed_columns(source.shape), seed))
        for source, seeds in DeltaDispatch([rule], cdb).batches(delta)
        for seed in seeds
    ]


class TestDeltaSeeds:
    def test_duplicate_rows_deduplicated(self):
        program = parse_program("p(X, Z) <- e(X, Y), e(Y, Z).")
        rule = program.rules[0]
        cdb = frozenset({"e", "p"})
        delta = {"e": [(1, 2), (1, 2), (1, 2)]}
        seeds = _seeds(rule, cdb, delta)
        # Two subgoals x three identical rows collapse to two seed shapes:
        # {X:1, Y:2} (first subgoal) and {Y:1, Z:2} (second subgoal).
        assert len(seeds) == 2
        assert {frozenset((v.name, c) for v, c in s.items()) for s in seeds} == {
            frozenset({("X", 1), ("Y", 2)}),
            frozenset({("Y", 1), ("Z", 2)}),
        }

    def test_symmetric_subgoals_share_one_seed(self):
        program = parse_program("p(X, Y) <- e(X, Y), e(Y, X).")
        rule = program.rules[0]
        seeds = _seeds(rule, frozenset({"e", "p"}), {"e": [(1, 1)]})
        assert seeds == [{Variable("X"): 1, Variable("Y"): 1}]

    def test_constant_positions_filter_rows(self):
        program = parse_program("p(X) <- e(a, X).")
        rule = program.rules[0]
        delta = {"e": [("a", 1), ("b", 2)]}
        seeds = _seeds(rule, frozenset({"e", "p"}), delta)
        assert seeds == [{Variable("X"): 1}]

    def test_duplicate_variable_positions_filter_rows(self):
        program = parse_program("p(X) <- e(X, X).")
        rule = program.rules[0]
        delta = {"e": [(1, 1), (1, 2)]}
        seeds = _seeds(rule, frozenset({"e", "p"}), delta)
        assert seeds == [{Variable("X"): 1}]

    def test_aggregate_conjunct_projects_to_grouping(self):
        program = parse_program(
            "@cost q/2 : reals_ge.\n@cost p/2 : reals_ge.\n"
            "p(X, C) <- C =r min{D : q(X, D)}."
        )
        rule = program.rules[0]
        delta = {"q": [("a", 3.0), ("a", 5.0)]}
        seeds = _seeds(rule, frozenset({"q", "p"}), delta)
        # Both rows fall in group X=a: one seed, projected off D.
        assert seeds == [{Variable("X"): "a"}]
