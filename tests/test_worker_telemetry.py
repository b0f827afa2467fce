"""Worker telemetry relay: sharded solves report the same story.

The acceptance test for the metrics plane: a traced ``plan="sharded"``
solve must surface the work its pool workers did — per-rule firing
counts, fixpoint metrics, and one ``worker_telemetry`` event per shard —
and every *structural* (count-valued) metric must be bit-identical to a
single-process run of the same shard geometry.  Timings are excluded by
construction: wall-clock histograms differ run to run, counts may not.
"""

from repro.core.database import Database
from repro.obs import Tracer, summarize, validate_events
from repro.programs import shortest_path

#: Metrics whose values are derived purely from the derivation structure
#: (counts of firings / atoms / rounds) — these must not depend on how
#: the work was spread over processes.
STRUCTURAL_COUNTERS = (
    "rule.firings",
    "rule.derived",
    "fixpoint.rounds",
    "fixpoint.new_atoms",
    "fixpoint.changed_atoms",
)

#: Structural histograms: observed values are integer-valued, so the
#: float ``sum`` accumulator is exact and the whole snapshot (buckets,
#: count, min, max, sum) must match bit for bit.
STRUCTURAL_HISTOGRAMS = ("fixpoint.delta_atoms",)

ARCS = [
    (i, j, float(1 + (i * 7 + j) % 5))
    for i in range(8)
    for j in range(8)
    if i != j and (i + j) % 3 != 0
]


def traced_solve(*, plan, workers=2, shards=8):
    db = shortest_path.database({"arc": ARCS})
    tracer = Tracer()
    result = db.solve(
        plan=plan, workers=workers, shards=shards, tracer=tracer
    )
    assert result.status == "complete"
    return tracer, result


def structural_view(tracer):
    snapshot = tracer.metrics.snapshot()
    view = {name: snapshot[name] for name in STRUCTURAL_COUNTERS}
    view.update({name: snapshot[name] for name in STRUCTURAL_HISTOGRAMS})
    return view


class TestWorkerRelay:
    def test_stream_is_schema_valid_and_has_worker_events(self):
        tracer, _ = traced_solve(plan="sharded")
        assert validate_events(tracer.events) == []
        workers = [
            event
            for event in tracer.events
            if event["type"] == "worker_telemetry"
        ]
        assert workers, "sharded traced solve must relay worker telemetry"
        for event in workers:
            assert event["iterations"] >= 1
            assert event["atoms"] >= 0
            assert event["rules"] >= 1
            assert isinstance(event["metrics"], dict)

    def test_metrics_snapshot_event_emitted(self):
        tracer, _ = traced_solve(plan="sharded")
        snapshots = [
            event
            for event in tracer.events
            if event["type"] == "metrics_snapshot"
        ]
        assert len(snapshots) == 1
        assert "rule.firings" in snapshots[0]["metrics"]

    def test_rule_stats_cover_worker_executed_rules(self):
        """Per-rule telemetry from inside the pool lands in the parent
        tracer: the recursive rules ran *only* in workers, yet their
        call counts are nonzero."""
        tracer, result = traced_solve(plan="sharded")
        assert any(
            used.endswith("+sharded") for used in result.component_methods
        )
        stats = tracer.rule_stats()
        assert stats
        assert all(calls > 0 for _, calls, _, _ in stats)
        assert sum(derived for _, _, derived, _ in stats) > 0

    def test_parent_emits_shard_metrics(self):
        tracer, _ = traced_solve(plan="sharded")
        snapshot = tracer.metrics.snapshot()
        assert snapshot["shard.partitions"]["value"] >= 2
        assert snapshot["shard.seed_rows"]["count"] >= 2
        assert snapshot["shard.barrier_wall_s"]["count"] >= 1


class TestBitConsistency:
    def test_worker_count_does_not_change_structural_metrics(self):
        """workers=1 vs workers=4 at the same shard geometry: identical
        partitions, identical derivations, identical counts."""
        one, result_one = traced_solve(plan="sharded", workers=1)
        four, result_four = traced_solve(plan="sharded", workers=4)
        assert structural_view(one) == structural_view(four)
        assert result_one.model == result_four.model

    def test_sharded_model_matches_sequential(self):
        sharded, result_sharded = traced_solve(plan="sharded")
        _, result_smart = traced_solve(plan="smart")
        assert result_sharded.model == result_smart.model

    def test_rule_stats_deterministic_across_worker_counts(self):
        one, _ = traced_solve(plan="sharded", workers=1)
        four, _ = traced_solve(plan="sharded", workers=4)

        def counts(tracer):
            return sorted(
                (str(rule), calls, derived)
                for rule, calls, derived, _ in tracer.rule_stats()
            )

        assert counts(one) == counts(four)


class TestSummaryIntegration:
    def test_summary_sees_workers_and_metrics(self):
        tracer, _ = traced_solve(plan="sharded")
        summary = summarize(tracer.events)
        workers = summary.events.get("worker_telemetry")
        assert workers, "worker_telemetry events should surface"
        for worker in workers:
            assert worker["iterations"] >= 1
            assert isinstance(worker["metrics"], dict)
        quantiles = summary.metric_quantiles("fixpoint.delta_atoms")
        assert quantiles is not None
        assert quantiles["p50"] is not None
        assert summary.metric_value("rule.firings") > 0

    def test_workers_for_filters_by_component(self):
        tracer, _ = traced_solve(plan="sharded")
        summary = summarize(tracer.events)
        sccs = {worker["scc"] for worker in summary.events["worker_telemetry"]}
        assert sccs
        for scc in sccs:
            subset = summary.workers_for(scc)
            assert subset
            assert all(worker["scc"] == scc for worker in subset)

    def test_render_stats_mentions_workers(self):
        tracer, _ = traced_solve(plan="sharded")
        text = summarize(tracer.events).render_stats()
        assert "worker:" in text
        assert "metric fixpoint.delta_atoms" in text
