"""Set-at-a-time delta rounds: the one loop above the batched kernels.

A round fires one kernel call per seed slice, and the slices bound how
far a cancelled round runs.  The delta rounds and the cost-ordered
rounds are the tuple-at-a-time reference's (``tests/reference_eval.py``)
on the catalog's programs and the braided templates here, and on
generated programs in ``tests/test_generated_programs.py``.
"""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import Budget, CancelToken
from repro.analysis.dependencies import condense
from repro.datalog.errors import NonTerminationError
from repro.datalog.parser import parse_program
from repro.datalog.terms import Constant
from repro.engine import solve
from repro.engine.fixpoint import SEED_SLICE
from repro.engine.interpretation import Interpretation
from repro.obs.tracer import Tracer
from repro.programs import ALL_PROGRAMS, shortest_path
from repro.testing import Fault, FaultPlan, inject
from tests.generate import BRAIDED, BRAIDED_MAX, BRAIDED_MIN
from tests.reference_eval import assert_drivers_match_reference, assert_greedy_matches_slices
from tests.reference_eval import rows_of


@st.composite
def catalog_instances(draw):
    """A catalog program (or a braid) and a small random EDB for it."""
    sources = [paper.source for paper in ALL_PROGRAMS]
    sources += [BRAIDED] * 4 + [BRAIDED_MIN, BRAIDED_MAX] * 2
    program = parse_program(draw(st.sampled_from(sources)))
    mentioned = {a for r in program.rules for atom in r.atoms() for a in atom.args}
    constants = sorted((a.value for a in mentioned if isinstance(a, Constant)), key=repr)
    values = st.sampled_from(constants + [0, 1, 2, 3])
    edb = Interpretation(program.declarations)
    for name in sorted(program.edb_predicates):
        decl = program.declarations[name]
        costs = [v for v in (0, 1, 2, 0.5, 2.5) if decl.lattice and v in decl.lattice]
        row = st.tuples(
            *[values] * decl.key_arity,
            *([st.sampled_from(costs)] if decl.is_cost_predicate else []),
        )
        for args in draw(st.lists(row, max_size=8)):
            edb.relation(name).join_rows([args])
    return program, edb


class TestDriversMatchThePerSeedReference:
    @settings(max_examples=80, deadline=None)
    @given(catalog_instances())
    def test_models_row_order_and_round_counts(self, case):
        try:
            assert_drivers_match_reference(*case)
        except NonTerminationError:
            assume(False)  # halfsum and friends: no fixpoint to compare

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([-1, 1]),
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(1, 3), st.sampled_from([-3, -2, 0, 1, 4])),
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
            edb.relation("arc").join_rows([(x, x + step, -direction * w)])
        (component,) = [c for c in condense(program) if "s" in c.cdb]
        got, _, _ = assert_greedy_matches_slices(program, component, edb, direction, size)
        naive = rows_of(solve(program, edb, method="naive", pushdown="off").model, sorted)
        assert rows_of(got.interpretation, sorted) == {p: naive[p] for p in ("s", "path")}


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
        assert rows_of(result.model) == rows_of(bounded.model)
        resumed = shortest_path.database({"arc": arcs}).resume(result.checkpoint)
        assert resumed.complete and resumed.model == solve()[0].model

    @pytest.mark.parametrize("rounds", [3, 10])
    def test_cancel_mid_slice_interrupts_within_one_kernel_call(self, rounds):
        """Under the cost order a round fires whole tie bands, at least
        :data:`SEED_SLICE` rows, in kernel calls of at most that many
        seeds; a token tripped by the round's first seed is seen before
        the next call, the partial model is the ``J`` the previous round
        wrote, and resume completes it."""
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
        assert before < fired <= before + SEED_SLICE < after
        assert result.component_results[-1].iterations == rounds
        assert rows_of(result.model) == rows_of(bounded.model)
        resumed = shortest_path.database({"arc": arcs}).resume(
            result.checkpoint, method="greedy"
        )
        assert resumed.complete and resumed.model == solve()[0].model
