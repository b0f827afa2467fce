"""Set-at-a-time delta rounds: the drivers above the batched kernels.

``seminaive_fixpoint`` and ``greedy_fixpoint`` cut each delta into seed
batches through one dispatch table (``DeltaDispatch``), fire one kernel
call per batch slice, and write the heads through ``Relation.join_rows``.
The reference here is the tuple-at-a-time round those replaced — one
seed dict, one interpreted ``evaluate_body``, one ``add_fact`` per head,
rule-major — and the claim is bit-identity with it: same models, same
*row order*, same round / settle counts.
"""

from __future__ import annotations

import heapq
import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import Budget, CancelToken
from repro.analysis.dependencies import condense
from repro.datalog.atoms import AggregateSubgoal, AtomSubgoal
from repro.datalog.errors import NonTerminationError
from repro.datalog.parser import parse_program
from repro.datalog.terms import Constant
from repro.engine.greedy import greedy_applicable, greedy_fixpoint
from repro.engine.grounding import EvalContext, evaluate_body, ground_head
from repro.engine.interpretation import Interpretation
from repro.engine.seminaive import (
    SEED_SLICE,
    _delta_between,
    seminaive_fixpoint,
)
from repro.engine.tp import apply_tp
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


def reference_seminaive(program, cdb, i):
    rules = [r for r in program.rules if r.head.predicate in cdb]
    empty = Interpretation(program.declarations)
    j = apply_tp(program, cdb, empty, i, strict=False, plan="off")
    delta = _delta_between(empty, j)
    ctx = EvalContext(program, cdb, j, i)
    rounds = 1
    while delta:
        if rounds >= MAX_ROUNDS:
            raise NonTerminationError("reference", ascending=True)
        new_delta = {}
        for predicate, args in reference_heads(rules, cdb, delta, ctx):
            if j.add_fact(predicate, *args, strict=False):
                rel = j.relation(predicate)
                row = args[:-1] + (rel.costs[args[:-1]],) if rel.is_cost else args
                new_delta.setdefault(predicate, []).append(row)
        delta = new_delta
        rounds += 1
    return j, rounds


def reference_greedy(program, component, i, direction):
    cdb, rules = component.cdb, list(component.rules)
    j = Interpretation(program.declarations)
    ctx = EvalContext(program, cdb, j, i)
    counter = itertools.count()
    heap = []

    def push(predicate, args):
        heapq.heappush(heap, (-direction * args[-1], next(counter), predicate, args))

    seed = apply_tp(program, cdb, j, i, rules=rules, strict=False, plan="off")
    for name, rel in seed.relations.items():
        for key, value in rel.costs.items():
            push(name, key + (value,))
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


@st.composite
def catalog_instances(draw):
    """A catalog program (or ``BRAIDED``) and a small random EDB for it."""
    sources = [paper.source for paper in ALL_PROGRAMS] + [BRAIDED] * 4
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
                    seminaive_fixpoint(program, cdb, state, strict=False, plan="off")
                return
            ordered = rows_in_order(expected)
            for plan in ("off", "smart"):
                got = seminaive_fixpoint(
                    program, cdb, state, strict=False, plan=plan
                )
                assert got.interpretation == expected
                assert got.iterations == rounds
                if plan == "off":  # the reference's join order, hence row order
                    assert rows_in_order(got.interpretation) == ordered
            direction = greedy_applicable(program, component)
            if direction is not None:
                expected_g, settled = reference_greedy(
                    program, component, state, direction
                )
                got = greedy_fixpoint(
                    program, component, state, assume_invariant=True, plan="off"
                )
                assert got.iterations == settled
                assert rows_in_order(got.interpretation) == rows_in_order(expected_g)
            state.absorb(expected)


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
