"""The metrics plane: mergeable instruments, quantiles, exposition.

Restoring a snapshot is each instrument's one merge: ``a.restore(b.snapshot())``
folds ``b`` into ``a``."""

import json
import math
import random

import pytest

from repro.cli import main
from repro.obs import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.metrics import SUBBUCKETS, _bucket_index, _bucket_upper


class TestCounter:
    def test_inc_and_value(self):
        c = Counter()
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_merge_is_sum(self):
        a, b = Counter(), Counter()
        a.inc(3)
        b.inc(4)
        a.restore(b.snapshot())
        assert a.value == 7

    def test_snapshot_round_trip(self):
        c = Counter()
        c.inc(9)
        restored = Counter()
        restored.restore(c.snapshot())
        assert restored.value == 9


class TestGauge:
    def test_set_and_merge_high_water(self):
        a, b = Gauge(), Gauge()
        a.set(10.0)
        b.set(4.0)
        a.restore(b.snapshot())
        assert a.value == 10.0
        b.restore(a.snapshot())
        assert b.value == 10.0

    def test_unset_gauge_merges_cleanly(self):
        a, b = Gauge(), Gauge()
        b.set(2.0)
        a.restore(b.snapshot())
        assert a.value == 2.0
        b.restore(Gauge().snapshot())
        assert b.value == 2.0


class TestHistogramBuckets:
    def test_bucket_bounds_contain_their_values(self):
        rng = random.Random(7)
        for _ in range(500):
            value = rng.uniform(1e-9, 1e9)
            index = _bucket_index(value)
            assert value <= _bucket_upper(index)
            # ...and the bound is tight: one sub-bucket down is below.
            assert _bucket_upper(index) / value <= 1.0 + 2.0 / SUBBUCKETS

    def test_quantile_relative_error_bounded(self):
        """Log-linear buckets with 8 sub-buckets per octave keep any
        quantile within 12.5% of the exact order statistic."""
        rng = random.Random(3)
        values = [rng.lognormvariate(0.0, 3.0) for _ in range(5000)]
        h = Histogram()
        for value in values:
            h.observe(value)
        ordered = sorted(values)
        for q in (0.5, 0.95, 0.99):
            exact = ordered[min(len(ordered) - 1, int(q * len(ordered)))]
            estimate = h.quantile(q)
            assert estimate is not None
            assert abs(estimate - exact) / exact <= 0.125 + 1e-9

    def test_zero_and_negative_values_hit_zero_bucket(self):
        h = Histogram()
        h.observe(0.0)
        h.observe(-5.0)
        h.observe(1.0)
        assert h.count == 3
        assert h.quantile(0.5) == 0.0

    def test_empty_histogram_quantile_is_none(self):
        assert Histogram().quantile(0.5) is None

    def test_quantile_clamped_to_observed_max(self):
        h = Histogram()
        h.observe(100.0)
        assert h.quantile(0.99) == 100.0


class TestHistogramMerge:
    def build(self, values):
        h = Histogram()
        for value in values:
            h.observe(value)
        return h

    def test_merge_equals_single_stream(self):
        """Bucket-wise merge is exact on every count-valued field:
        merged quantiles are identical to observing the union in one
        histogram, regardless of the split.  (The float ``sum``
        accumulator is only addition-order equal, per the module doc.)"""
        rng = random.Random(11)
        values = [rng.uniform(0.0, 1000.0) for _ in range(800)]
        whole = self.build(values)
        for cut in (1, 137, 400, 799):
            left = self.build(values[:cut])
            right = self.build(values[cut:])
            left.restore(right.snapshot())
            merged, single = left.snapshot(), whole.snapshot()
            merged_sum, single_sum = merged.pop("sum"), single.pop("sum")
            assert merged == single
            assert merged_sum == pytest.approx(single_sum)
            assert left.quantiles() == whole.quantiles()

    def test_merge_associative_and_commutative(self):
        parts = [[1.0, 2.0], [3.0, 400.0], [0.5, 0.25, 8.0]]
        ab_c = self.build(parts[0])
        ab_c.restore(self.build(parts[1]).snapshot())
        ab_c.restore(self.build(parts[2]).snapshot())
        c_ba = self.build(parts[2])
        c_ba.restore(self.build(parts[1]).snapshot())
        c_ba.restore(self.build(parts[0]).snapshot())
        assert ab_c.snapshot() == c_ba.snapshot()

    def test_snapshot_round_trip(self):
        h = self.build([0.1, 3.0, 3.0, 900.0, 0.0])
        restored = Histogram()
        restored.restore(json.loads(json.dumps(h.snapshot())))
        assert restored.snapshot() == h.snapshot()
        assert restored.quantiles() == h.quantiles()


class TestRegistry:
    def test_get_or_create_and_kind_conflict(self):
        reg = MetricsRegistry()
        c = reg.counter("n")
        assert reg.counter("n") is c
        try:
            reg.histogram("n")
        except ValueError as exc:
            assert "n" in str(exc)
        else:  # pragma: no cover - the point is the raise
            raise AssertionError("kind conflict not detected")

    def test_merge_folds_every_kind(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc(1)
        b.counter("c").inc(2)
        b.gauge("g").set(5.0)
        b.histogram("h").observe(3.0)
        a.merge_snapshot(b.snapshot())
        assert a.counter("c").value == 3
        assert a.gauge("g").value == 5.0
        assert a.histogram("h").count == 1

    def test_merge_snapshot_matches_merge(self):
        """The registry merge is each instrument's merge, name by name."""
        a, b = MetricsRegistry(), MetricsRegistry()
        for reg, offset in ((a, 0.0), (b, 100.0)):
            reg.counter("c").inc(3)
            reg.histogram("h").observe(1.5 + offset)
        direct = MetricsRegistry()
        direct.merge_snapshot(a.snapshot())
        direct.counter("c").restore(b.counter("c").snapshot())
        direct.histogram("h").restore(b.histogram("h").snapshot())
        via_snapshot = MetricsRegistry()
        via_snapshot.merge_snapshot(a.snapshot())
        via_snapshot.merge_snapshot(b.snapshot())
        assert via_snapshot.snapshot() == direct.snapshot()

    def test_snapshot_survives_json(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(2)
        reg.timer("t").observe(0.25)
        restored = MetricsRegistry()
        restored.merge_snapshot(json.loads(json.dumps(reg.snapshot())))
        assert restored.snapshot() == reg.snapshot()

    def test_render_text_lists_instruments(self):
        reg = MetricsRegistry()
        reg.counter("rule.firings").inc(7)
        reg.histogram("rule.wall").observe(0.5)
        text = reg.render_text()
        assert "rule.firings" in text and "7" in text
        assert "p95" in text


class TestTracerInstruments:
    def test_rule_and_plan_instruments_resolve_once_per_tracer(self, monkeypatch):
        """``record_rule`` / ``count_plan`` run per kernel call; their
        instruments are looked up on first use — not before, so the
        snapshot lists what was recorded — and never again."""
        from repro.obs import Tracer

        resolved = []
        real = MetricsRegistry._get

        def counting(self, name, kind):
            resolved.append(name)
            return real(self, name, kind)

        monkeypatch.setattr(MetricsRegistry, "_get", counting)
        tracer = Tracer()
        assert tracer.metrics.snapshot() == {}
        tracer.count_plan(False)
        assert tracer.metrics.names() == ["plan.cache_misses"]
        rule = object()
        for _ in range(3):
            tracer.count_plan(True)
            tracer.record_rule(rule, derived=2, wall_s=0.5, firings=4)
        assert sorted(resolved) == [
            "plan.cache_hits",
            "plan.cache_misses",
            "rule.derived",
            "rule.derived_per_firing",
            "rule.firings",
            "rule.kernel_calls",
            "rule.wall_s",
        ]
        monkeypatch.undo()
        snapshot = tracer.metrics.snapshot()
        assert (tracer.plan_hits, tracer.plan_misses) == (3, 1)
        assert snapshot["plan.cache_hits"]["value"] == 3
        assert snapshot["rule.firings"]["value"] == 12
        assert snapshot["rule.kernel_calls"]["value"] == 3
        assert snapshot["rule.derived"]["value"] == 6
        assert snapshot["rule.derived_per_firing"]["count"] == 3
        assert snapshot["rule.wall_s"]["sum"] == 1.5
        assert tracer.rule_stats() == [(rule, 12, 6, 1.5)]

    def test_absorbed_worker_probes_join_the_counters_not_the_views(self):
        """A shard worker's relay folds into the tally and the registry;
        its plan probes count in ``plan.cache_*`` while ``plan_hits`` /
        ``plan_misses`` stay this process's own."""
        from repro.obs import Tracer

        rule = object()
        worker = Tracer(collect=False)
        worker.count_plan(False)
        worker.count_plan(True)
        worker.record_rule(rule, derived=2, wall_s=0.25, firings=3)
        parent = Tracer()
        parent.count_plan(True)
        parent.absorb_worker(worker.rule_stats(), worker.metrics.snapshot())
        parent.record_rule(rule, derived=1, wall_s=0.5)
        snapshot = parent.metrics.snapshot()
        assert snapshot["plan.cache_hits"]["value"] == 2
        assert snapshot["plan.cache_misses"]["value"] == 1
        assert (parent.plan_hits, parent.plan_misses) == (1, 0)
        assert parent.rule_stats() == [(rule, 4, 3, 0.75)]
        assert snapshot["rule.firings"]["value"] == 4
        assert snapshot["rule.kernel_calls"]["value"] == 2


class TestPrometheusExposition:
    def render(self):
        reg = MetricsRegistry()
        reg.counter("rule.firings").inc(3)
        reg.gauge("solve.atoms").set(12.0)
        h = reg.histogram("delta")
        for value in (0.0, 1.0, 2.0, 700.0):
            h.observe(value)
        return reg.render_prometheus()

    def test_counters_get_total_suffix(self):
        text = self.render()
        assert "# TYPE repro_rule_firings_total counter" in text
        assert "repro_rule_firings_total 3" in text

    def test_gauge_line(self):
        text = self.render()
        assert "# TYPE repro_solve_atoms gauge" in text
        assert "repro_solve_atoms 12" in text

    def test_histogram_buckets_cumulative_and_inf_terminated(self):
        lines = self.render().splitlines()
        buckets = [
            line for line in lines if line.startswith("repro_delta_bucket")
        ]
        counts = [int(line.rsplit(" ", 1)[1]) for line in buckets]
        assert counts == sorted(counts)  # cumulative
        assert buckets[-1].startswith('repro_delta_bucket{le="+Inf"}')
        assert counts[-1] == 4
        assert "repro_delta_count 4" in lines
        bounds = [
            line.split('le="')[1].split('"')[0]
            for line in buckets[:-1]
        ]
        for bound in bounds:
            float(bound)  # parseable exposition floats

    def test_metric_names_sanitized(self):
        reg = MetricsRegistry()
        reg.counter("shard.seed-rows/total").inc()
        text = reg.render_prometheus()
        assert "repro_shard_seed_rows_total_total" in text


class TestMetricsCli:
    ARCS = "arc(0, 1, 1.0).\narc(1, 2, 2.0).\n"

    def solve_args(self, tmp_path, *extra):
        facts = tmp_path / "facts.mad"
        facts.write_text(self.ARCS)
        return [
            "metrics",
            "--program",
            "shortest-path",
            "--facts",
            str(facts),
            *extra,
        ]

    def test_text_output(self, tmp_path, capsys):
        assert main(self.solve_args(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "rule.firings" in out
        assert "fixpoint.rounds" in out

    def test_json_output_parses(self, tmp_path, capsys):
        assert main(self.solve_args(tmp_path, "--format", "json")) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rule.firings"]["kind"] == "counter"
        assert payload["rule.firings"]["value"] > 0

    def test_prometheus_output_shape(self, tmp_path, capsys):
        assert main(self.solve_args(tmp_path, "--format", "prometheus")) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_rule_firings_total counter" in out
        for line in out.splitlines():
            if not line or line.startswith("#"):
                continue
            name_part, value = line.rsplit(" ", 1)
            assert not math.isnan(float(value))
            assert name_part.startswith("repro_")
