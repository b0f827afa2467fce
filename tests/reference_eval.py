"""The tuple-at-a-time delta round, kept as the reference for the
batched engine.

:func:`repro.engine.fixpoint.fixpoint` cuts each delta into seed batches
(``DeltaDispatch``), fires one kernel call per batch slice, and writes
heads through ``Relation.join_rows``; ``greedy_fixpoint`` is that loop
under the cost-ordered policy.  These are the loops they replaced: one
seed dict, one interpreted ``evaluate_body``, one ``add_fact`` per head,
rule-major, for the whole-delta round and for cost-ordered rounds of
any width.  The reference folds each aggregate group's values in
reverse order (:func:`reversed_folds`), so an aggregate whose result
depends on that order disagrees with the kernels.
:func:`assert_drivers_match_reference` requires the same models, row
order, round counts, the rows each cost-ordered round fires, and
per-rule firings, and :func:`assert_configurations_agree` one typed
model from every configuration: the generated-program property and the
per-template tests share both.  Not a test module, and imported by
nothing under ``src/``.
"""

from __future__ import annotations

import contextlib
import itertools
from collections import Counter
from unittest import mock

import pytest

from repro.analysis.dependencies import condense
from repro.datalog.atoms import AggregateSubgoal, AtomSubgoal
from repro.datalog.errors import NonTerminationError
from repro.datalog.terms import Constant
from repro.engine import fixpoint as fixpoint_module, greedy, grounding, solve
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


@contextlib.contextmanager
def reversed_folds():
    """The reference folds each aggregate group's values in reverse
    solution order, the kernels in solution order: an aggregate whose
    result depends on the order of its values disagrees."""
    project = grounding._project_multiset
    with mock.patch.object(grounding, "_project_multiset", lambda sg, s: project(sg, s)[::-1]):
        yield


def first_round_heads(rules, ctx):
    """One ``T_P`` application, all heads grounded before any is written."""
    return [ground_head(rule, b) for rule in rules for b in list(evaluate_body(rule, ctx))]


@reversed_folds()
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


@reversed_folds()
def reference_slices(program, component, i, direction, size):
    """The cost-ordered policy, tuple at a time: heads are joined into
    ``J`` as they are derived, the rows that changed queue by cost, and a
    round fires whole bands of equal cost, best first, until it holds
    ``size`` rows that ``J`` still holds.  Returns ``J``, (new, changed)
    per round, the rows each round fired, and whether no round wrote a
    row better than the best it fired (the Dijkstra invariant)."""
    cdb, rules = component.cdb, list(component.rules)
    j = Interpretation(program.declarations)
    ctx = EvalContext(program, cdb, j, i)
    heads = first_round_heads(rules, ctx)
    queue, rounds, fired, dijkstra = [], [], [], True
    while True:
        delta, new, changed = apply_heads(j, heads)
        rounds.append((new, changed))
        ranked = [(-direction * row[-1], p, row) for p, rows in delta.items() for row in rows]
        if fired:  # the Dijkstra invariant: nothing written beats what fired
            floor = min(-direction * row[-1] for rows in fired[-1].values() for row in rows)
            dijkstra &= all(rank >= floor for rank, _, _ in ranked)
        queue += ranked
        # Whole bands of equal rank, best first, each in write order, until
        # ``size`` rows that ``J`` still holds.
        live = [(rank, p, row) for rank, p, row in queue if j.relation(p).costs.get(row[:-1]) == row[-1]]
        fire, popped = {}, set()
        for band in sorted({rank for rank, _, _ in queue}):
            if sum(map(len, fire.values())) >= size:
                break
            popped.add(band)
            for rank, predicate, row in live:
                if rank == band:
                    fire.setdefault(predicate, []).append(row)
        queue = [entry for entry in queue if entry[0] not in popped]
        if not fire:
            return j, rounds, fired, dijkstra
        fired.append(fire)
        if len(rounds) >= 40 * MAX_ROUNDS:  # one-row bands: one per atom
            raise NonTerminationError("reference", ascending=True)
        heads = reference_heads(rules, cdb, fire, ctx)


# -- holding the engine to it ---------------------------------------------------


def rows_of(j, order=list):
    """Each non-empty relation's typed rows, in stored order (or ``order``)."""
    return {name: rows for name, rows in typed_rows(j, order).items() if rows}


@contextlib.contextmanager
def fired_rows():
    """The rows each cost-ordered round of the engine fires, as a list
    of ``{predicate: rows}`` (a round that fires nothing ends the run)."""
    fired, select = [], greedy.CostOrdered.select

    def spy(self, changed, j):
        fire = select(self, changed, j)
        if fire:
            fired.append({p: list(rows) for p, rows in fire.items()})
        return fire

    with mock.patch.object(greedy.CostOrdered, "select", spy):
        yield fired


def fires_once(fired, j):
    """Whether each key of ``j`` fired once, at its final value."""
    rows = [(p, row) for fire in fired for p, rows in fire.items() for row in rows]
    final = {(p, row) for p, rel in j.relations.items() for row in rel.rows()}
    return len({(p, row[:-1]) for p, row in rows}) == len(rows) and set(rows) == final


def assert_greedy_matches_slices(program, component, state, direction, size):
    """Model, row order, round count, each round's new/changed counts and
    the rows each round fires of the engine's cost-ordered rounds of at
    least ``size`` rows are the reference's."""
    expected, rounds, fired, dijkstra = reference_slices(
        program, component, state, direction, size
    )
    tracer = Tracer()
    with contextlib.ExitStack() as stack:
        for module in (fixpoint_module, greedy):  # the dispatch's and the policy's
            stack.enter_context(mock.patch.object(module, "SEED_SLICE", size))
        got_fired = stack.enter_context(fired_rows())
        got = greedy_fixpoint(program, component, state, plan="off", tracer=tracer)
    assert rows_of(got.interpretation) == rows_of(expected)
    assert got.iterations == len(rounds)
    events = [e for e in tracer.events if e["type"] == "iteration"]
    assert [(e["new_atoms"], e["changed_atoms"]) for e in events] == rounds
    assert got_fired == fired
    return got, fired, dijkstra


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
    are the tuple-at-a-time reference's: ``J``, round counts (with each
    cost-ordered round's new/changed counts and fired rows), row order
    under ``plan="off"``; semi-naive fires each rule once per distinct
    seed; and where one-band rounds keep the Dijkstra invariant, each
    key fires once, at its final value."""
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
        for size in (1, 3, SEED_SLICE) if direction is not None else ():
            # Any fair order joins its way to the one least model.
            got, fires, dijkstra = assert_greedy_matches_slices(
                program, component, state, direction, size
            )
            assert rows_of(got.interpretation, sorted) == rows_of(expected, sorted)
            if size == 1 and dijkstra:
                # Rounds of one band each that write nothing better than
                # what they fired (non-negative weights): Dijkstra.
                assert fires_once(fires, got.interpretation)
        state.absorb(expected)
    assert Counter({rule: calls for rule, calls, _, _ in tracer.rule_stats()}) == fired
