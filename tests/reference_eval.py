"""The tuple-at-a-time delta round, kept as the reference for the
batched engine.

:func:`repro.engine.fixpoint.fixpoint` cuts each delta into seed batches
(``DeltaDispatch``), fires one kernel call per batch slice, and writes
heads through ``Relation.join_rows``; ``greedy_fixpoint`` is that loop
under the cost-ordered policy.  These are the loops they replaced: one
seed dict, one interpreted ``evaluate_body``, one ``add_fact`` per head,
rule-major, for the whole-delta round, for cost-ordered slices of any
size, and for Dijkstra (one settle per pop).
:func:`assert_drivers_match_reference` requires the same models, row
order, round and slice counts, and per-rule firings, and
:func:`assert_configurations_agree` one typed model from every
configuration: the generated-program property and the per-template
tests share both.  Not a test module, and imported by nothing under
``src/``.
"""

from __future__ import annotations

import contextlib
import heapq
import itertools
from collections import Counter
from unittest import mock

import pytest

from repro.analysis.dependencies import condense
from repro.datalog.atoms import AggregateSubgoal, AtomSubgoal
from repro.datalog.errors import NonTerminationError
from repro.datalog.terms import Constant
from repro.engine import fixpoint as fixpoint_module, greedy, solve
from repro.engine.fixpoint import SEED_SLICE, fixpoint
from repro.engine.greedy import greedy_applicable, greedy_fixpoint
from repro.engine.grounding import EvalContext, evaluate_body, ground_head
from repro.engine.interpretation import Interpretation
from repro.obs.tracer import NULL_TRACER, Tracer
from tests.generate import typed_rows

MAX_ROUNDS = 25


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
            for row in delta.get(atom.predicate, ()) if atom.predicate in cdb else ():
                seed = match_row(atom, row)
                if seed is None:
                    continue
                if keep is not None:
                    seed = {v: x for v, x in seed.items() if v in keep}
                fingerprint = frozenset(seed.items())
                if fingerprint not in seen:
                    seen.add(fingerprint)
                    yield seed


def reference_heads(rules, cdb, delta, ctx, fired=None):
    """The heads of one delta round; ``fired`` counts seeds per rule."""
    fired, heads = Counter() if fired is None else fired, []
    for rule in rules:
        for seed in reference_seeds(rule, cdb, delta):
            fired[rule] += 1
            heads += [ground_head(rule, b) for b in list(evaluate_body(rule, ctx, initial=seed))]
    return heads


def apply_heads(j, heads):
    """Join ``heads`` into ``j`` one row at a time: the changed rows as
    stored, per predicate, and the (new, changed) atom counts."""
    delta, new, changed = {}, 0, 0
    for predicate, args in heads:
        rel = j.relation(predicate)
        size = len(rel)
        for row in rel.join_rows([args]):
            delta.setdefault(predicate, []).append(row)
            new += len(rel) - size
            changed += size == len(rel)
    return delta, new, changed


def first_round_heads(rules, ctx):
    """One ``T_P`` application, all heads grounded before any is written."""
    return [ground_head(rule, b) for rule in rules for b in list(evaluate_body(rule, ctx))]


def reference_seminaive(program, cdb, i):
    """``J``, the round count, and the firings per rule (one unseeded,
    then one per distinct seed) of the component ``cdb`` over ``i``."""
    rules = [r for r in program.rules if r.head.predicate in cdb]
    j = Interpretation(program.declarations)
    ctx = EvalContext(program, cdb, j, i)
    heads = first_round_heads(rules, ctx)
    fired = Counter(rules)
    rounds = 0
    while True:
        delta, _, _ = apply_heads(j, heads)
        rounds += 1
        if not delta:
            return j, rounds, fired
        if rounds >= MAX_ROUNDS:
            raise NonTerminationError("reference", ascending=True)
        heads = reference_heads(rules, cdb, delta, ctx, fired)


def _worklist(program, component, i):
    j = Interpretation(program.declarations)
    ctx = EvalContext(program, component.cdb, j, i)
    return component.cdb, list(component.rules), j, ctx, itertools.count(), []


def reference_slices(program, component, i, direction, size):
    """The cost-ordered policy, tuple at a time: heads that would
    improve ``J`` queue by cost; a round pops the best ``size`` that
    still do, writes them predicate by predicate, and re-derives from
    the rows that changed.  Returns ``J`` and (new, changed) per round."""
    cdb, rules, j, ctx, counter, heap = _worklist(program, component, i)

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
        delta, new, changed = apply_heads(j, [(p, a) for p, rows in best.items() for a in rows])
        rounds.append((new, changed))
        if not delta:
            return j, rounds
        if len(rounds) >= 40 * MAX_ROUNDS:  # one-row slices: one per atom
            raise NonTerminationError("reference", ascending=True)
        heads = reference_heads(rules, cdb, delta, ctx)


def reference_greedy(program, component, i, direction):
    """Dijkstra: one settle per pop, a settled key is never revised."""
    cdb, rules, j, ctx, counter, heap = _worklist(program, component, i)

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
        rel.join_rows([args])
        settled += 1
        for head, head_args in reference_heads(rules, cdb, {predicate: [args]}, ctx):
            if head_args[:-1] not in j.relation(head).costs:
                push(head, head_args)
    return j, settled


# -- holding the engine to it ---------------------------------------------------


def rows_of(j, order=list):
    """Each non-empty relation's typed rows, in stored order (or ``order``)."""
    return {name: rows for name, rows in typed_rows(j, order).items() if rows}


def assert_greedy_matches_slices(program, component, state, direction, size):
    """Model, row order, slice count and per-slice new/changed counts of
    the engine's cost-ordered rounds of ``size`` rows are the reference's."""
    expected, rounds = reference_slices(program, component, state, direction, size)
    tracer = Tracer()
    with contextlib.ExitStack() as stack:
        for module in (fixpoint_module, greedy):  # the dispatch's and the policy's
            stack.enter_context(mock.patch.object(module, "SEED_SLICE", size))
        got = greedy_fixpoint(program, component, state, plan="off", tracer=tracer)
    assert rows_of(got.interpretation) == rows_of(expected)
    assert got.iterations == len(rounds)
    events = [e for e in tracer.events if e["type"] == "iteration"]
    assert [(e["new_atoms"], e["changed_atoms"]) for e in events] == rounds
    return got


METHODS = ("naive", "seminaive", "greedy", "auto")


def assert_configurations_agree(program, edb):
    """Every ``method`` × ``plan`` × ``pushdown`` gives one model."""
    greedy_runs = any(greedy_applicable(program, c) is not None for c in condense(program))
    methods = METHODS if greedy_runs else ("naive", "seminaive", "auto")
    models = {}
    for config in itertools.product(methods, ("off", "smart"), ("off", "auto")):
        result = solve(program, edb, **dict(zip(("method", "plan", "pushdown"), config)))
        models[config] = typed_rows(result.model)
        assert result.complete and models[config] == models["naive", "off", "off"], config


def assert_drivers_match_reference(program, edb):
    """Component by component, the semi-naive and cost-ordered drivers
    are the tuple-at-a-time reference's: ``J``, round and slice counts
    (with each slice's new/changed counts), row order under
    ``plan="off"``; and semi-naive fires each rule once per distinct
    seed."""
    state, fired, tracer = edb.copy(), Counter(), Tracer()
    for component in condense(program):
        try:
            expected, rounds, seeds = reference_seminaive(program, component.cdb, state)
        except TypeError:  # arithmetic over a symbolic constant: both refuse
            with pytest.raises(TypeError):
                fixpoint(program, component.cdb, state, strict=False, plan="off")
            return
        fired += seeds
        for plan, order, traced in (("off", list, tracer), ("smart", sorted, NULL_TRACER)):
            got = fixpoint(program, component.cdb, state, strict=False, plan=plan, tracer=traced)
            assert got.iterations == rounds
            # The reference's join order, hence row order, is "off"'s.
            assert rows_of(got.interpretation, order) == rows_of(expected, order)
        direction = greedy_applicable(program, component)
        if direction is not None:
            # Where settle-once is right (rules derive nothing better
            # than what they consumed), one-row slices are Dijkstra.
            dijkstra, settled = reference_greedy(program, component, state, direction)
            settle_once = rows_of(dijkstra, sorted) == rows_of(expected, sorted)
        for size in (1, 3, SEED_SLICE) if direction is not None else ():
            # Any fair order joins its way to the one least model.
            got = assert_greedy_matches_slices(program, component, state, direction, size)
            assert rows_of(got.interpretation, sorted) == rows_of(expected, sorted)
            if size == 1 and settle_once:
                assert rows_of(got.interpretation) == rows_of(dijkstra)
                assert got.iterations == settled + 1  # + the empty last round
        state.absorb(expected)
    assert Counter({rule: calls for rule, calls, _, _ in tracer.rule_stats()}) == fired
