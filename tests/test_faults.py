"""Fault-injection harness: the engine completes or fails *cleanly*.

The invariant under test (docs/ROBUSTNESS.md): an exception, delay or
cancellation landing at any instrumented seam — rule firing, aggregate
application, index maintenance — leaves every relation's raw containers
and persistent incremental indexes mutually consistent.  Zero tolerance
for torn indexes, at every seam, under every evaluator.
"""

import time
from pathlib import Path

import pytest

from repro import Budget, CancelToken, Database
from repro.engine.interpretation import Relation
from repro.obs import Tracer
from repro.programs import party_invitations
from repro.testing import (
    Fault,
    FaultInjected,
    FaultPlan,
    check_relation_indexes,
    inject,
)
from repro.testing import faults as faults_mod
from repro.workloads import random_party

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"
SHORTEST_PATH = (EXAMPLES / "shortest_path.mad").read_text(encoding="utf-8")

METHODS = ("naive", "seminaive", "greedy")
SEAMS = ("rule_firing", "aggregate_apply", "index_update")


def make_db() -> Database:
    db = Database()
    db.load(SHORTEST_PATH)
    return db


def assert_no_torn_indexes(plan: FaultPlan) -> None:
    touched = plan.touched_relations()
    assert touched, "the run should have exercised index maintenance"
    for rel in touched:
        assert check_relation_indexes(rel) == []


class TestHarness:
    def test_rejects_unknown_seam(self):
        with pytest.raises(ValueError):
            Fault("warp_core")

    def test_rejects_unknown_action(self):
        with pytest.raises(ValueError):
            Fault("rule_firing", action="explode")

    def test_rejects_zero_based_at(self):
        with pytest.raises(ValueError):
            Fault("rule_firing", at=0)

    def test_no_active_plan_is_free(self):
        assert faults_mod._ACTIVE is None
        faults_mod.trip("rule_firing", "noop")  # must be a no-op

    def test_inject_restores_previous_plan(self):
        outer = FaultPlan()
        inner = FaultPlan()
        with inject(outer):
            assert faults_mod._ACTIVE is outer
            with inject(inner):
                assert faults_mod._ACTIVE is inner
            assert faults_mod._ACTIVE is outer
        assert faults_mod._ACTIVE is None

    def test_fires_on_exactly_nth_matching_hit(self):
        plan = FaultPlan([Fault("rule_firing", at=3)])
        with inject(plan):
            with pytest.raises(FaultInjected):
                make_db().solve()
        hits = [entry for entry in plan.log if entry[0] == "rule_firing"]
        assert len(hits) == 3

    def test_match_filters_by_detail(self):
        plan = FaultPlan([Fault("rule_firing", match="s", at=1)])
        with inject(plan):
            with pytest.raises(FaultInjected) as info:
                make_db().solve()
        assert "s" in str(info.value)

    def test_replay_is_deterministic(self):
        logs = []
        for _ in range(2):
            plan = FaultPlan([Fault("aggregate_apply", at=2)])
            with inject(plan):
                with pytest.raises(FaultInjected):
                    make_db().solve()
            logs.append(plan.log)
        assert logs[0] == logs[1]

    def test_custom_exception_type(self):
        class Boom(ArithmeticError):
            pass

        plan = FaultPlan([Fault("rule_firing", exception=Boom)])
        with inject(plan):
            with pytest.raises(Boom):
                make_db().solve()

    def test_seam_counts_cover_all_seams(self):
        plan = FaultPlan()  # observation only, no faults
        with inject(plan):
            make_db().solve()
        counts = plan.seam_counts()
        for seam in SEAMS:
            assert counts.get(seam, 0) > 0, seam


class TestNoTornIndexes:
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("seam", SEAMS)
    @pytest.mark.parametrize("at", (1, 4, 17))
    def test_fault_matrix(self, method, seam, at):
        """Every (evaluator × seam × position): complete or fail cleanly."""
        db = make_db()
        plan = FaultPlan([Fault(seam, at=at)])
        with inject(plan):
            try:
                db.solve(method=method)
            except FaultInjected:
                pass
        assert_no_torn_indexes(plan)

    def test_raising_aggregate_leaves_index_equal_to_rebuild(self):
        """Regression (exception safety in Relation mutation): a raising
        aggregate mid-solve may not tear ``s``'s incremental indexes."""
        db = make_db()
        plan = FaultPlan([Fault("aggregate_apply", match="min", at=3)])
        with inject(plan):
            with pytest.raises(FaultInjected):
                db.solve(method="seminaive")
        assert_no_torn_indexes(plan)

    def test_repeated_faults_every_hit(self):
        db = make_db()
        plan = FaultPlan([Fault("index_update", at=5, repeat=True)])
        with inject(plan):
            with pytest.raises(FaultInjected):
                db.solve()
        assert_no_torn_indexes(plan)


class TestFaultActionsMeetSupervisor:
    def test_cancel_action_stops_solve_cleanly(self):
        db = make_db()
        token = CancelToken()
        plan = FaultPlan(
            [Fault("rule_firing", action="cancel", at=4, token=token)]
        )
        with inject(plan):
            result = db.solve(cancel=token)
        assert result.status == "cancelled"
        assert "fault injection" in result.reason
        assert result.checkpoint is not None
        assert_no_torn_indexes(plan)
        # The partial model is queryable and resumable to the full model.
        resumed = make_db().resume(result.checkpoint)
        assert resumed.status == "complete"
        full = make_db().solve()
        assert {
            k: v for k, v in resumed.model.relation("s").costs.items()
        } == {k: v for k, v in full.model.relation("s").costs.items()}

    def test_delay_action_races_the_deadline(self):
        db = make_db()
        plan = FaultPlan(
            [
                Fault(
                    "rule_firing",
                    action="delay",
                    delay=0.05,
                    repeat=True,
                )
            ]
        )
        t0 = time.monotonic()
        with inject(plan):
            result = db.solve(budget=Budget(timeout=0.1))
        assert time.monotonic() - t0 < 30
        assert result.status == "timeout"
        assert_no_torn_indexes(plan)

    def test_call_action_observes_without_failing(self):
        seen = []
        db = make_db()
        plan = FaultPlan(
            [
                Fault(
                    "aggregate_apply",
                    action="call",
                    at=1,
                    call=lambda seam, detail: seen.append((seam, detail)),
                )
            ]
        )
        with inject(plan):
            result = db.solve()
        assert result.status == "complete"
        assert seen == [("aggregate_apply", "min")]


class TestKleeneCarry:
    """A Kleene round's successor takes ``J``'s indexes
    (``Relation.carry``); a fault there costs the indexes, not the solve."""

    @staticmethod
    def solve_party(carry, plan):
        knows, requires = random_party(16, seed=1)
        db = party_invitations.database(
            {"knows": knows, "requires": list(requires.items())}
        )
        tracer = Tracer()
        with pytest.MonkeyPatch.context() as patch, inject(plan):
            patch.setattr(Relation, "carry", carry)
            result = db.solve(method="naive", tracer=tracer)
        return result, tracer.index_stats

    def test_a_fault_in_the_carry_drops_the_indexes_and_the_solve_goes_on(self):
        carry = Relation.carry
        # A clean run finds the first carry of a live index: its relation
        # and the ordinal of its seam hit among that relation's hits.
        clean = FaultPlan()
        first = []

        def observe(rel, old):
            before = len(clean.log)
            live = bool(old._indexes)
            carry(rel, old)
            if live and not first:
                name = rel.decl.name
                assert clean.log[before:] == [("index_update", name)]
                hits = [
                    detail
                    for seam, detail in clean.log[: before + 1]
                    if seam == "index_update" and name in detail
                ]
                first.append((name, len(hits)))

        expected, stats = self.solve_party(observe, clean)
        ((name, at),) = first
        assert stats.invalidations == 0
        dropped = []

        def faulted(rel, old):
            live = bool(old._indexes)
            carry(rel, old)
            if live and not dropped:
                dropped.append(rel._indexes == {})

        plan = FaultPlan([Fault("index_update", match=name, at=at)])
        result, faulted_stats = self.solve_party(faulted, plan)
        assert dropped == [True]
        assert faulted_stats.invalidations == 1
        # The next round rebuilds the dropped index from the container.
        assert faulted_stats.builds == stats.builds + 1
        assert result.status == "complete"
        assert result.model == expected.model
        assert_no_torn_indexes(plan)
