"""Set-at-a-time delta rounds: the one loop above the batched kernels.

``fixpoint`` (join mode) cuts each delta into seed batches through one
dispatch table (``DeltaDispatch``), fires one kernel call per batch
slice, and writes the heads through ``Relation.join_rows``;
``greedy_fixpoint`` is the same loop under the cost-ordered worklist
policy.  The references here are tuple-at-a-time — one seed dict, one
interpreted ``evaluate_body``, one ``add_fact`` per head, rule-major —
for the whole-delta round, for cost-ordered slices of any size, and for
Dijkstra (one settle per pop, the loop the slices replaced), and the
claim is bit-identity with them: same models, same *row order*, same
round / slice counts, same new/changed counts per slice.
"""

from __future__ import annotations

import contextlib
import heapq
import itertools
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import Budget, CancelToken
from repro.analysis.dependencies import condense
from repro.datalog.atoms import AggregateSubgoal, AtomSubgoal
from repro.datalog.errors import NonTerminationError
from repro.datalog.parser import parse_program
from repro.datalog.terms import Constant
from repro.engine import fixpoint as fixpoint_module
from repro.engine import greedy, solve
from repro.engine.greedy import greedy_applicable, greedy_fixpoint
from repro.engine.grounding import EvalContext, evaluate_body, ground_head
from repro.engine.interpretation import Interpretation
from repro.engine.fixpoint import SEED_SLICE, fixpoint
from repro.obs.tracer import Tracer
from repro.programs import ALL_PROGRAMS, shortest_path
from repro.testing import Fault, FaultPlan, inject
from tests.test_exec import _constants

MAX_ROUNDS = 25


# -- the reference: the per-seed delta round -----------------------------------


def match_row(atom, row):
    """Bindings making ``atom`` equal to the concrete ``row``, or None."""
    bindings = {}
    for arg, value in zip(atom.args, row):
        if isinstance(arg, Constant):
            if arg.value != value:
                return None
        elif bindings.setdefault(arg, value) != value:
            return None
    return bindings


def reference_seeds(rule, cdb, delta):
    """One bindings dict per changed row and pinned subgoal of ``rule``,
    aggregate conjuncts projected onto the grouping variables, equal
    dicts once."""
    seen = set()
    for sg in rule.body:
        if isinstance(sg, AtomSubgoal) and not sg.negated:
            pinned = [(sg.atom, None)]
        elif isinstance(sg, AggregateSubgoal):
            pinned = [(c, rule.grouping_variables(sg)) for c in sg.conjuncts]
        else:
            continue
        for atom, keep in pinned:
            if atom.predicate not in cdb:
                continue
            for row in delta.get(atom.predicate, ()):
                seed = match_row(atom, row)
                if seed is None:
                    continue
                if keep is not None:
                    seed = {v: x for v, x in seed.items() if v in keep}
                fingerprint = frozenset(seed.items())
                if fingerprint not in seen:
                    seen.add(fingerprint)
                    yield seed


def reference_heads(rules, cdb, delta, ctx):
    return [
        ground_head(rule, bindings)
        for rule in rules
        for seed in reference_seeds(rule, cdb, delta)
        for bindings in list(evaluate_body(rule, ctx, initial=seed))
    ]


def apply_heads(j, heads):
    """Join ``heads`` into ``j`` one ``add_fact`` at a time: the changed
    rows as stored, per predicate, and the (new, changed) atom counts."""
    delta, new, changed = {}, 0, 0
    for predicate, args in heads:
        rel = j.relation(predicate)
        size = len(rel)
        if j.add_fact(predicate, *args, strict=False):
            row = args[:-1] + (rel.costs[args[:-1]],) if rel.is_cost else args
            delta.setdefault(predicate, []).append(row)
            new += len(rel) - size
            changed += size == len(rel)
    return delta, new, changed


def first_round_heads(rules, ctx):
    """One ``T_P`` application, all heads grounded before any is written."""
    return [
        ground_head(rule, bindings)
        for rule in rules
        for bindings in list(evaluate_body(rule, ctx))
    ]


def reference_seminaive(program, cdb, i):
    rules = [r for r in program.rules if r.head.predicate in cdb]
    j = Interpretation(program.declarations)
    ctx = EvalContext(program, cdb, j, i)
    heads = first_round_heads(rules, ctx)
    rounds = 0
    while True:
        delta, _, _ = apply_heads(j, heads)
        rounds += 1
        if not delta:
            return j, rounds
        if rounds >= MAX_ROUNDS:
            raise NonTerminationError("reference", ascending=True)
        heads = reference_heads(rules, cdb, delta, ctx)


def reference_slices(program, component, i, direction, size):
    """The cost-ordered policy, tuple at a time: heads that would
    improve ``J`` queue by cost; a round pops the best ``size`` that
    still do, writes them predicate by predicate, and re-derives from
    the rows that changed.  Returns ``J`` and (new, changed) per round."""
    cdb, rules = component.cdb, list(component.rules)
    j = Interpretation(program.declarations)
    ctx = EvalContext(program, cdb, j, i)
    counter = itertools.count()
    heap = []

    def improves(predicate, args):
        held = j.relation(predicate).costs.get(args[:-1])
        return held is None or direction * args[-1] > direction * held

    heads = first_round_heads(rules, ctx)
    rounds = []
    while True:
        for predicate, args in heads:
            if improves(predicate, args):
                rank = -direction * args[-1]
                heapq.heappush(heap, (rank, next(counter), predicate, args))
        best = {}
        while heap and sum(map(len, best.values())) < size:
            _, _, predicate, args = heapq.heappop(heap)
            if improves(predicate, args):
                best.setdefault(predicate, []).append(args)
        delta, new, changed = apply_heads(
            j, [(p, args) for p, rows in best.items() for args in rows]
        )
        rounds.append((new, changed))
        if not delta:
            return j, rounds
        if len(rounds) >= 4 * MAX_ROUNDS:
            raise NonTerminationError("reference", ascending=True)
        heads = reference_heads(rules, cdb, delta, ctx)


def reference_greedy(program, component, i, direction):
    """Dijkstra: one settle per pop, a settled key is never revised."""
    cdb, rules = component.cdb, list(component.rules)
    j = Interpretation(program.declarations)
    ctx = EvalContext(program, cdb, j, i)
    counter = itertools.count()
    heap = []

    def push(predicate, args):
        heapq.heappush(heap, (-direction * args[-1], next(counter), predicate, args))

    for predicate, args in first_round_heads(rules, ctx):
        push(predicate, args)
    settled = 0
    while heap:
        _, _, predicate, args = heapq.heappop(heap)
        rel = j.relation(predicate)
        if args[:-1] in rel.costs:
            continue
        rel.set_cost(args[:-1], args[-1], strict=False)
        settled += 1
        for head, head_args in reference_heads(rules, cdb, {predicate: [args]}, ctx):
            if head_args[:-1] not in j.relation(head).costs:
                push(head, head_args)
    return j, settled


def rows_in_order(interpretation):
    return {
        name: list(rel.rows())
        for name, rel in interpretation.relations.items()
        if len(rel)
    }


# -- random instances of the catalog programs ----------------------------------


#: The catalog's recursive components change one predicate per round.
#: Here ``a``, ``b``, ``t``, ``near`` and ``sym`` change together, two
#: rules share each head, and ``sym`` has two seed sources of one shape
#: — so rule-major derivation order and cross-source dedup both matter.
BRAIDED = """
    @cost e/2 : reals_ge.
    @cost a/2 : reals_ge.
    @cost b/2 : reals_ge.
    @cost t/2 : reals_ge.
    a(X, C) <- e(X, C).
    b(X, C) <- e(X, C1), C = C1 + 1.
    a(Y, C) <- t(X, C1), f(X, Y), C = C1 + 1.
    b(Y, C) <- t(X, C1), g(X, Y), C = C1 + 2.
    t(X, C) <- a(X, C).
    t(X, C) <- b(X, C).
    near(X, Y) <- f(X, Y), t(X, C).
    near(X, Y) <- g(X, Y), t(Y, C).
    sym(X, Y) <- near(X, Y), near(Y, X).
    a(X, C) <- sym(X, Y), e(Y, C).
"""

#: ``BRAIDED`` without its cost-free predicates, so the three cost
#: predicates form one component the cost order applies to: a slice
#: spans predicates.  The max-oriented twin counts down.
BRAIDED_MIN = BRAIDED[: BRAIDED.index("    near(")]
BRAIDED_MAX = BRAIDED_MIN.replace("reals_ge", "reals_le").replace("+", "-")


@st.composite
def catalog_instances(draw):
    """A catalog program (or a braid) and a small random EDB for it."""
    sources = [paper.source for paper in ALL_PROGRAMS]
    sources += [BRAIDED] * 4 + [BRAIDED_MIN, BRAIDED_MAX] * 2
    program = parse_program(draw(st.sampled_from(sources)))
    values = st.sampled_from(_constants(program) + [0, 1, 2, 3])
    edb = Interpretation(program.declarations)
    for name in sorted(program.edb_predicates):
        decl = program.declarations[name]
        costs = [v for v in (0, 1, 2, 0.5, 2.5) if decl.lattice and v in decl.lattice]
        row = st.tuples(
            *[values] * decl.key_arity,
            *([st.sampled_from(costs)] if decl.is_cost_predicate else []),
        )
        for args in draw(st.lists(row, max_size=8)):
            edb.add_fact(name, *args, strict=False)
    return program, edb


def slices_of(size):
    """``SEED_SLICE`` = ``size`` for the dispatch and for the policy."""
    stack = contextlib.ExitStack()
    for module in (fixpoint_module, greedy):
        stack.enter_context(mock.patch.object(module, "SEED_SLICE", size))
    return stack


def assert_greedy_matches_slices(program, component, state, direction, size):
    """Model, row order, slice count and per-slice new/changed counts of
    the engine's cost-ordered rounds are the reference's."""
    expected, rounds = reference_slices(program, component, state, direction, size)
    tracer = Tracer()
    with slices_of(size):
        got = greedy_fixpoint(program, component, state, plan="off", tracer=tracer)
    assert rows_in_order(got.interpretation) == rows_in_order(expected)
    assert got.iterations == len(rounds)
    events = [e for e in tracer.events if e["type"] == "iteration"]
    assert [(e["new_atoms"], e["changed_atoms"]) for e in events] == rounds
    return got


class TestDriversMatchThePerSeedReference:
    @settings(max_examples=80, deadline=None)
    @given(catalog_instances())
    def test_models_row_order_and_round_counts(self, case):
        program, state = case
        for component in condense(program):
            cdb = component.cdb
            try:
                expected, rounds = reference_seminaive(program, cdb, state)
            except NonTerminationError:
                assume(False)  # halfsum and friends: no fixpoint to compare
            except TypeError:
                # Arithmetic over a symbolic constant: both must refuse.
                with pytest.raises(TypeError):
                    fixpoint(program, cdb, state, strict=False, plan="off")
                return
            ordered = rows_in_order(expected)
            for plan in ("off", "smart"):
                got = fixpoint(
                    program, cdb, state, strict=False, plan=plan
                )
                assert got.interpretation == expected
                assert got.iterations == rounds
                if plan == "off":  # the reference's join order, hence row order
                    assert rows_in_order(got.interpretation) == ordered
            direction = greedy_applicable(program, component)
            if direction is not None:
                for size in (1, 3, SEED_SLICE):
                    got = assert_greedy_matches_slices(
                        program, component, state, direction, size
                    )
                    # Any fair order joins its way to the one least model.
                    assert got.interpretation == expected
                # Where settle-once is right (rules derive nothing better
                # than what they consumed), one-row slices are Dijkstra.
                dijkstra, settled = reference_greedy(
                    program, component, state, direction
                )
                if dijkstra == expected:
                    with slices_of(1):
                        got = greedy_fixpoint(program, component, state, plan="off")
                    assert rows_in_order(got.interpretation) == rows_in_order(dijkstra)
                    assert got.iterations == settled + 1  # + the empty last round
            state.absorb(expected)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([-1, 1]),
        st.lists(
            st.tuples(
                st.integers(0, 3), st.integers(1, 3), st.sampled_from([-3, -2, 0, 1, 4])
            ),
            min_size=3,
            max_size=14,
        ),
        st.sampled_from([1, 2, SEED_SLICE]),
    )
    def test_a_better_value_derived_later_revises_the_key(self, direction, arcs, size):
        """Negative (for max: positive) weights on a DAG break the
        Dijkstra invariant: keys written early are revised by the join,
        the counts say so, and the model is still the least one."""
        source = shortest_path.source
        if direction == 1:  # longest paths: the max-oriented twin
            source = source.replace("reals_ge", "reals_le").replace("min{", "max{")
        program = parse_program(source)
        edb = Interpretation(program.declarations)
        for x, step, w in arcs:
            edb.add_fact("arc", x, x + step, -direction * w, strict=False)
        (component,) = [c for c in condense(program) if "s" in c.cdb]
        got = assert_greedy_matches_slices(program, component, edb, direction, size)
        naive = solve(program, edb, method="naive", pushdown="off")
        assert got.interpretation["s"] == naive.model["s"]
        assert got.interpretation["path"] == naive.model["path"]


# -- slices, supervision, telemetry ---------------------------------------------


def ring(n):
    """A weighted n-cycle with chords: every round's delta is wide."""
    arcs = [(k, (k + 1) % n, 1.0) for k in range(n)]
    arcs += [(k, (k + 7) % n, 3.0) for k in range(n)]
    return arcs


class TestSlices:
    def test_one_kernel_call_per_slice_and_one_firing_per_seed(self):
        tracer = Tracer()
        result = shortest_path.database({"arc": ring(40)}).solve(
            method="seminaive", pushdown="off", tracer=tracer
        )
        assert result.complete
        metrics = tracer.metrics.snapshot()
        firings = metrics["rule.firings"]["value"]
        calls = metrics["rule.kernel_calls"]["value"]
        assert firings > 20 * calls  # batches, not seeds, pay the call
        assert calls >= firings / SEED_SLICE
        assert metrics["plan.cache_hits"]["value"] < calls
        profiled = [e["calls"] for e in tracer.events if e["type"] == "rule_profile"]
        assert sum(profiled) == firings

    @pytest.mark.parametrize("rounds", [6, 10])
    def test_cancel_mid_round_interrupts_within_one_slice(self, rounds):
        """The token trips a slice and a bit into a round several slices
        wide; the supervisor sees it at the next slice boundary — the
        rest of the round never fires — and the partial model is the
        last complete round's ``J``, row for row."""
        arcs = ring(40)

        def solve(*faults, **kwargs):
            plan = FaultPlan(list(faults))
            with inject(plan):
                result = shortest_path.database({"arc": arcs}).solve(
                    method="seminaive", pushdown="off", **kwargs
                )
            return result, plan.seam_counts()["rule_firing"]

        bounded, before = solve(budget=Budget(max_iterations=rounds))
        _, after = solve(budget=Budget(max_iterations=rounds + 1))
        assert after - before > 2 * SEED_SLICE
        token = CancelToken()
        at = before + SEED_SLICE + 3
        cancel = Fault("rule_firing", action="cancel", at=at, token=token)
        result, fired = solve(cancel, cancel=token)
        assert result.status == "cancelled"
        assert at <= fired < at + SEED_SLICE < after
        assert result.component_results[-1].iterations == rounds
        assert rows_in_order(result.model) == rows_in_order(bounded.model)
        resumed = shortest_path.database({"arc": arcs}).resume(result.checkpoint)
        assert resumed.complete and resumed.model == solve()[0].model

    @pytest.mark.parametrize("rounds", [3, 10])
    def test_cancel_mid_slice_interrupts_within_one_kernel_call(self, rounds):
        """Under the cost order a round is one slice, fired as one kernel
        call per seed source; a token tripped by the slice's first seed
        is seen before the next call, the partial model is the ``J`` the
        slice was written into, and resume completes it."""
        arcs = ring(40)

        def solve(*faults, **kwargs):
            plan = FaultPlan(list(faults))
            with inject(plan):
                result = shortest_path.database({"arc": arcs}).solve(
                    method="greedy", pushdown="off", **kwargs
                )
            return result, plan.seam_counts()["rule_firing"]

        bounded, before = solve(budget=Budget(max_iterations=rounds))
        _, after = solve(budget=Budget(max_iterations=rounds + 1))
        token = CancelToken()
        cancel = Fault("rule_firing", action="cancel", at=before + 1, token=token)
        result, fired = solve(cancel, cancel=token)
        assert result.status == "cancelled"
        assert before < fired < after <= before + SEED_SLICE
        assert result.component_results[-1].iterations == rounds
        assert rows_in_order(result.model) == rows_in_order(bounded.model)
        assert set(result.checkpoint.frontier) == {"path", "s"}
        resumed = shortest_path.database({"arc": arcs}).resume(
            result.checkpoint, method="greedy"
        )
        assert resumed.complete and resumed.model == solve()[0].model
