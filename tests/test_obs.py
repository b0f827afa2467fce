"""The telemetry layer: event schema, tracer, summaries, isolation."""

import json
import threading
import time

from repro.obs import (
    NULL_TRACER,
    SCHEMA_VERSION,
    FlightRecorder,
    JsonlSink,
    TelemetrySummary,
    Tracer,
    sparkline,
    summarize,
    validate_event,
    validate_events,
    validate_jsonl,
)
from repro.programs import company_control, shortest_path

ARCS = [("a", "b", 1), ("b", "c", 2), ("a", "c", 9)]


def traced_solve(method="naive", **tracer_kwargs):
    # pushdown="off" keeps the pinned profiles below about the *original*
    # program structure; pushdown-on telemetry is covered in test_premap.py.
    db = shortest_path.database({"arc": ARCS})
    tracer = Tracer(**tracer_kwargs)
    result = db.solve(method=method, tracer=tracer, pushdown="off")
    return tracer, result


class TestEventSchema:
    def test_traced_solve_is_schema_valid(self):
        tracer, _ = traced_solve()
        assert validate_events(tracer.events) == []

    def test_every_method_emits_valid_streams(self):
        for method in ("naive", "seminaive", "greedy", "auto"):
            tracer, _ = traced_solve(method)
            assert validate_events(tracer.events) == [], method

    def test_stream_covers_every_fixpoint_iteration(self):
        tracer, result = traced_solve("seminaive")
        per_scc = {}
        for event in tracer.events:
            if event["type"] == "iteration":
                per_scc.setdefault(event["scc"], []).append(event["iteration"])
        for index, fixpoint in enumerate(result.component_results):
            rounds = per_scc.get(index, [])
            # One event per round, numbered 1..n with no gaps.
            assert rounds == list(range(1, fixpoint.iterations + 1))

    def test_unknown_event_type_rejected(self):
        event = {"v": SCHEMA_VERSION, "seq": 1, "t": 0.0, "type": "warp"}
        assert any("unknown event type" in p for p in validate_event(event))

    def test_unknown_field_rejected(self):
        event = {
            "v": SCHEMA_VERSION,
            "seq": 1,
            "t": 0.0,
            "type": "trace_start",
            "surprise": 1,
        }
        assert any("unknown field" in p for p in validate_event(event))

    def test_missing_required_field_rejected(self):
        event = {"v": SCHEMA_VERSION, "seq": 1, "t": 0.0, "type": "phase_start"}
        assert any("missing field 'phase'" in p for p in validate_event(event))

    def test_wrong_version_rejected(self):
        event = {"v": 99, "seq": 1, "t": 0.0, "type": "trace_start"}
        assert any("schema version 99" in p for p in validate_event(event))

    def test_bool_is_not_an_int(self):
        event = {
            "v": SCHEMA_VERSION,
            "seq": 1,
            "t": 0.0,
            "type": "solve_end",
            "iterations": True,
            "atoms": 1,
            "wall_s": 0.1,
        }
        assert any("iterations" in p for p in validate_event(event))

    def test_stream_must_open_with_trace_start(self):
        tracer, _ = traced_solve()
        assert any(
            "must open with trace_start" in p
            for p in validate_events(tracer.events[1:])
        )

    def test_seq_must_increase(self):
        tracer, _ = traced_solve()
        events = tracer.events + [tracer.events[-1]]
        assert any("not greater" in p for p in validate_events(events))

    def test_empty_stream_rejected(self):
        assert validate_events([]) == ["empty event stream"]


class TestJsonlRoundTrip:
    def test_golden_round_trip(self, tmp_path):
        """File sink output is schema-valid and identical to the
        in-memory collection."""
        path = str(tmp_path / "trace.jsonl")
        db = shortest_path.database({"arc": ARCS})
        tracer = Tracer(JsonlSink(path))
        db.solve(method="auto", tracer=tracer)
        tracer.close()
        assert validate_jsonl(path) == []
        with open(path, encoding="utf-8") as handle:
            loaded = [json.loads(line) for line in handle]
        assert loaded == tracer.events

    def test_invalid_json_line_reported(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{not json\n")
        assert any("not valid JSON" in p for p in validate_jsonl(str(path)))

    def test_sinks_receive_events_without_collection(self):
        sink = FlightRecorder()
        tracer = Tracer(sink, collect=False)
        tracer.start("p")
        tracer.emit("solve_end", iterations=1, atoms=2, wall_s=0.5)
        assert tracer.events == []  # collect=False
        assert [e["type"] for e in sink.events] == ["trace_start", "solve_end"]

    def test_binary_file_is_invalid_not_a_crash(self, tmp_path, capsys):
        """An undecodable byte is one problem naming it, so
        ``repro validate-trace`` prints INVALID and exits 1."""
        from repro.cli import main

        path = tmp_path / "binary.jsonl"
        path.write_bytes(b"\x89PNG\r\n\x1a\n\xff")
        assert main(["validate-trace", str(path)]) == 1
        out = capsys.readouterr().out
        assert f"{path}: INVALID" in out
        assert "not UTF-8 ('utf-8' codec can't decode byte 0x89" in out


class TestPinnedProfile:
    """Per-rule counts on a known program are exact, not approximate.

    Naive evaluation of shortest-path over three arcs converges in 4
    rounds; with the final unchanged round every rule executes 5 times.
    """

    def test_rule_counts_shortest_path_naive(self):
        tracer, result = traced_solve("naive")
        summary = result.telemetry
        assert summary is not None
        profiles = summary.events["rule_profile"]
        by_index = {row["rule_index"]: row for row in profiles}
        assert sorted(by_index) == [0, 1, 2]
        assert {row["calls"] for row in profiles} == {5}
        assert by_index[0]["derived"] == 15  # path <- arc
        assert by_index[1]["derived"] == 3  # path <- s, arc
        assert by_index[2]["derived"] == 12  # s <- min path
        assert {row["scc"] for row in profiles} == {0}

    def test_scc_table_pinned(self):
        _, result = traced_solve("naive")
        (scc,) = result.telemetry.sccs()
        assert scc["predicates"] == ["path", "s"]
        assert scc["method"] == "naive"
        assert scc["verdict"] == "monotonic"
        assert scc["iterations"] == 4
        assert scc["atoms"] == 7
        (end,) = result.telemetry.events["solve_end"]
        assert end["iterations"] == 4
        assert end["atoms"] == 10  # incl. 3 arc facts

    def test_convergence_deltas_pinned(self):
        _, result = traced_solve("naive")
        assert result.telemetry.convergence(0) == [3, 3, 1, 1, 0]

    def test_counters_present_and_nonzero(self):
        tracer, result = traced_solve("seminaive")
        (counters,) = result.telemetry.events["counters"]
        assert counters["index"]["hits"] > 0
        assert counters["plan_cache"]["misses"] > 0
        assert counters["index"] == tracer.index_stats.snapshot()


class TestScсMembershipSurface:
    def test_method_by_component_names_predicates(self):
        db = company_control.database({"s": [("a", "b", 0.6)]})
        result = db.solve(method="auto")
        rows = result.method_by_component()
        assert len(rows) == len(result.components)
        flattened = {p for predicates, _, _ in rows for p in predicates}
        assert "c" in flattened
        for predicates, method, iterations in rows:
            assert predicates == tuple(sorted(predicates))
            assert method in {"naive", "seminaive", "greedy"}
            assert iterations >= 0

    def test_scc_events_carry_membership_and_reason(self):
        tracer, _ = traced_solve("auto")
        starts = [e for e in tracer.events if e["type"] == "scc_start"]
        assert starts
        for event in starts:
            assert event["predicates"]
            assert event["verdict"] is not None
            assert isinstance(event["reasons"], list)


class TestIsolation:
    def test_null_tracer_stays_inert(self):
        db = shortest_path.database({"arc": ARCS})
        db.solve()
        assert NULL_TRACER.events == []
        assert NULL_TRACER.rule_stats() == []
        assert NULL_TRACER.plan_hits == 0 and NULL_TRACER.plan_misses == 0
        NULL_TRACER.emit("solve_end", iterations=1, atoms=1, wall_s=0.0)
        assert NULL_TRACER.events == []

    def test_untraced_solve_has_no_telemetry(self):
        db = shortest_path.database({"arc": ARCS})
        assert db.solve().telemetry is None

    def test_concurrent_solves_do_not_share_counters(self):
        """Two threads solving concurrently each see only their own
        index/plan counters and events (no process-wide counter)."""
        outcomes = {}

        def work(name, size):
            arcs = [(i, i + 1, 1.0) for i in range(size)]
            db = shortest_path.database({"arc": arcs})
            tracer = Tracer()
            result = db.solve(method="seminaive", tracer=tracer)
            outcomes[name] = (tracer, result)

        threads = [
            threading.Thread(target=work, args=("small", 4)),
            threading.Thread(target=work, args=("large", 32)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        small_tracer, small = outcomes["small"]
        large_tracer, large = outcomes["large"]
        assert validate_events(small_tracer.events) == []
        assert validate_events(large_tracer.events) == []
        # Derived-atom totals are per-solve ground truth; the tracers'
        # counters must match their own solve, not the union.
        small_derived = sum(r["derived"] for r in small.telemetry.hot_rules())
        large_derived = sum(r["derived"] for r in large.telemetry.hot_rules())
        assert small_derived < large_derived
        assert (
            small_tracer.index_stats.hits < large_tracer.index_stats.hits
        )

    def test_index_stats_fallback_still_works(self):
        # Outside any solve, index work is charged to the context
        # variable's default; a bound object takes over only inside
        # use_index_stats and is released on exit.
        from repro.engine.interpretation import (
            IndexStats,
            active_index_stats,
            use_index_stats,
        )

        ambient = active_index_stats()
        assert isinstance(ambient, IndexStats)
        with use_index_stats(IndexStats()) as bound:
            assert active_index_stats() is bound is not ambient
        assert active_index_stats() is ambient


class TestOverheadSmoke:
    def test_null_path_not_slower_than_traced(self):
        """The untraced fast path must beat full tracing (generous 1.5x
        tolerance: this is a smoke test, not a benchmark)."""
        arcs = [(i, (i + 3) % 40, float(i % 7 + 1)) for i in range(40)]
        arcs += [(i, (i + 1) % 40, 2.0) for i in range(40)]

        def run(tracer):
            db = shortest_path.database({"arc": arcs})
            t0 = time.perf_counter()
            db.solve(method="seminaive", tracer=tracer)
            return time.perf_counter() - t0

        untraced = min(run(None) for _ in range(3))
        traced = min(run(Tracer()) for _ in range(3))
        assert untraced <= traced * 1.5


class TestSummary:
    def test_sparkline_shapes(self):
        assert sparkline([]) == ""
        assert sparkline([0, 0]) == "▁▁"
        line = sparkline([1, 2, 4, 8])
        assert len(line) == 4
        assert line[-1] == "█"

    def test_summarize_partial_stream(self):
        tracer, _ = traced_solve()
        cut = summarize(tracer.events[:3])
        assert isinstance(cut, TelemetrySummary)
        assert "solve_end" not in cut.events  # not reached
        assert "solve:" not in cut.render_stats()

    def test_events_are_grouped_by_type_in_stream_order(self):
        tracer, result = traced_solve("auto")
        grouped = result.telemetry.events
        assert sum(map(len, grouped.values())) == len(tracer.events)
        for kind, events in grouped.items():
            assert [e for e in tracer.events if e["type"] == kind] == events

    def test_hot_rules_ranked_by_time(self):
        _, result = traced_solve()
        ranked = result.telemetry.hot_rules()
        walls = [row["wall_s"] for row in ranked]
        assert walls == sorted(walls, reverse=True)

    def test_renderings_mention_key_sections(self):
        _, result = traced_solve("auto")
        profile = result.telemetry.render_profile()
        assert "hot rules" in profile
        assert "convergence" in profile
        assert "plan cache" in profile
        stats = result.telemetry.render_stats()
        assert "scc" in stats
        assert "solve:" in stats

    def test_phase_context_manager_pairs(self):
        tracer = Tracer()
        tracer.start("p")
        with tracer.phase("analyze"):
            pass
        kinds = [e["type"] for e in tracer.events]
        assert kinds == ["trace_start", "phase_start", "phase_end"]
        assert tracer.events[-1]["phase"] == "analyze"


class TestMultiVersionValidation:
    """Only the current schema version is read: every other ``v`` is
    rejected with one problem naming it and the version understood."""

    def test_unknown_version_error_names_the_version(self):
        for version in (0, 1, 5, SCHEMA_VERSION + 1, 99):
            event = {"v": version, "seq": 1, "t": 0.0, "type": "trace_start"}
            problems = validate_event(event)
            assert len(problems) == 1, version
            assert f"schema version {version}" in problems[0]
            assert f"v{SCHEMA_VERSION}" in problems[0]


class TestSummaryEdgeCases:
    def test_empty_event_list(self):
        summary = summarize([])
        assert summary.events == {}
        assert summary.workers_for(0) == []
        assert summary.metric_value("rule.firings") is None
        assert summary.metric_quantiles("fixpoint.delta_atoms") is None
        # Renders without blowing up on the absent sections.
        assert isinstance(summary.render_stats(), str)

    def test_single_iteration_solve(self):
        db = shortest_path.database({"arc": [("a", "b", 1.0)]})
        tracer = Tracer()
        result = db.solve(tracer=tracer, pushdown="off")
        assert result.status == "complete"
        summary = summarize(tracer.events)
        assert "worker_telemetry" not in summary.events  # sequential plan
        assert summary.metric_value("fixpoint.rounds") >= 1
        quantiles = summary.metric_quantiles("fixpoint.delta_atoms")
        assert quantiles is not None and quantiles["p50"] is not None
        assert "metric fixpoint.delta_atoms" in summary.render_stats()

    def test_metric_kind_mismatch_returns_none(self):
        tracer, _ = traced_solve()
        summary = summarize(tracer.events)
        # quantiles only make sense for histograms/timers...
        assert summary.metric_quantiles("rule.firings") is None
        # ...and scalar values only for counters/gauges.
        assert summary.metric_value("fixpoint.delta_atoms") is None
        # Absent names are None either way, never KeyError.
        assert summary.metric_value("no.such.metric") is None
        assert summary.metric_quantiles("no.such.metric") is None

    def test_summary_reads_the_metrics_snapshot_event(self):
        tracer, _ = traced_solve()
        summary = summarize(tracer.events)
        (snapshot,) = summary.events["metrics_snapshot"]
        assert snapshot["metrics"] == tracer.metrics.snapshot()
        assert summary.metric_value("rule.firings") == (
            tracer.metrics.snapshot()["rule.firings"]["value"]
        )
