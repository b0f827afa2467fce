"""The traced pass: per-layer metrics measured from outside the engine.

Each layer is timed by a direct call into its public functions inside a
span (``workloads.SolveWorkload.layered``); the counts come from what
the public ``Tracer`` and the server's ``/metrics`` already emit.  The
names are those of ``BENCHMARK.json``'s ``per_layer`` list; ``EXACT``
holds the ones that repeat exactly at equal seed and are gated exactly.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from typing import Any, Callable, Dict, List, Tuple

from repro import Database, Tracer
from repro.aggregates.standard import default_registry
from repro.engine.supervisor import CancelToken
from repro.serve import HostedDatabase, RequestSupervisor

import serving
from measure import Spans, percentile
from workloads import STAGES, SolveWorkload

#: Metrics that are counts of work done and repeat exactly at equal seed.
EXACT = frozenset(
    """
    datalog.rules datalog.source_bytes core.edb_rows data.rows_rejected
    analysis.components analysis.rewrites_applied exec.plan_cache_misses
    exec.rule_firings exec.rows_derived engine.rounds engine.atoms
    engine.greedy_settled index.hits index.misses index.scans index.builds
    index.invalidations shard.partitions shard.seed_rows
    shard.components_sharded obs.events serve.response_bytes serve.requests
    serve.requests_shed
    """.split()
)

#: Span name -> metric name of its self time.
STAGE_METRIC = {
    "datalog.parse": "datalog.parse_s",
    "core.assemble": "core.assemble_s",
    "data.scan": "data.scan_s",
    "core.edb": "core.edb_s",
    "analysis.analyze": "analysis.analyze_s",
    "analysis.pushdown": "analysis.pushdown_s",
    "analysis.classify": "analysis.classify_s",
    "analysis.shard_plan": "analysis.shard_plan_s",
    "engine.fixpoint": "engine.fixpoint_s",
    "engine.extract": "engine.extract_s",
}

#: Requests per client of the traced serve load (a fixed count, so that
#: ``serve.requests`` repeats exactly), full size and smoke size.
TRACED_REQUESTS = (40, 8)
#: Values in the aggregate kernels' column, full size and smoke size.
AGGREGATE_COLUMN = (100_000, 5_000)


def _median_call(session: Any, fn: Callable[[], Any], reps: int, batch: int) -> float:
    """Median calibrated seconds of one ``fn()`` over ``reps`` batches."""
    walls = []
    for _ in range(reps):
        _, _, norm = session.cal.timed(lambda: [fn() for _ in range(batch)])
        walls.append(norm / batch)
    return statistics.median(walls)


# -- solve side ------------------------------------------------------------------------


def solve_layers(
    session: Any,
    workload: SolveWorkload,
    record: Any,
    seconds: float,
    untraced_op: Callable[[], Any],
) -> None:
    """Untraced and layered ops in turn for ``seconds``, three traced
    ops, and the direct informational calls; fills ``record.metrics``.

    ``untraced_op`` runs one checked untraced op and returns its
    ``(calibrated, raw)`` wall (None if it failed).  Taking the two kinds of op in
    turn puts the untraced median and the layer medians in the same
    stretch of host weather, so their ratio ``layers_cover`` holds.
    """
    m = record.metrics
    spans = Spans()
    per_stage: Dict[str, List[float]] = {stage: [] for stage in STAGES}
    untraced: List[float] = []
    deadline = time.perf_counter() + seconds
    op = 0
    while time.perf_counter() < deadline or op < 3:
        timed = untraced_op()
        if timed is not None:
            untraced.append(timed[0])
        before = session.cal.samples[-1]
        result, rows = workload.layered(spans, op)
        record.count(workload.check(result, rows))
        del result, rows  # torn down outside the next op's timed region
        scale = session.cal.scale(before, session.cal.sample())
        selfs = workload.self_times(spans.durations(op))
        for stage, value in selfs.items():
            per_stage[stage].append(value * scale)
        op += 1
    spans.write_jsonl(os.path.join(session.out_dir, f"{workload.name}.spans.jsonl"))
    record.detail["layered_ops"] = op
    if not untraced:
        return
    solve_s = statistics.median(untraced)
    for stage, metric in STAGE_METRIC.items():
        m[metric] = statistics.median(per_stage[stage])
    m["obs.untraced_op_ms"] = solve_s * 1e3
    m["layers_cover"] = sum(m[metric] for metric in STAGE_METRIC.values()) / solve_s

    traced_walls = []
    result = rows = None
    for _ in range(3):
        tracer = Tracer()
        del result, rows
        (result, rows), wall, norm = session.cal.timed(lambda: workload.op(tracer))
        record.count(workload.check(result, rows))
        traced_walls.append(norm)
    m["obs.trace_overhead"] = statistics.median(traced_walls) / solve_s
    m.update(_counters(tracer, result))
    for name in ("shard.barrier_wall_s", "shard.worker_wall_max_s"):
        m[name] *= norm / wall  # the tracer's clock is raw wall

    inputs = workload.inputs
    m["datalog.source_bytes"] = len(inputs.text.encode("utf-8"))
    db, m["data.rows_rejected"] = workload.database()
    m["datalog.rules"] = len(db.program.rules)
    edb = db.edb()
    m["core.edb_rows"] = edb.total_size()
    csv_rows = sum(len(edb.relation(predicate)) for predicate, _ in inputs.csv)
    m["data.rows_per_s"] = csv_rows / m["data.scan_s"] if csv_rows else 0.0
    m["storage.copy_s"] = _median_call(session, edb.copy, 5, 3)
    compile_s = []
    for _ in range(3):
        before = session.cal.samples[-1]
        wall = workload.compile_all()
        compile_s.append(wall * session.cal.scale(before, session.cal.sample()))
    m["exec.plan_compile_s"] = statistics.median(compile_s)
    m.update(_aggregate_kernels(session))


def _counters(tracer: Tracer, result: Any) -> Dict[str, float]:
    """The counts one traced solve emits, by per-layer metric name."""
    by_type: Dict[str, List[Dict[str, Any]]] = {}
    for event in tracer.events:
        by_type.setdefault(event["type"], []).append(event)
    snapshot = tracer.metrics.snapshot()

    def counter(name: str) -> float:
        return snapshot.get(name, {}).get("value", 0)

    index = by_type["counters"][-1]["index"]
    profiles = by_type.get("rule_profile", [])
    rule_wall = sum(p["wall_s"] for p in profiles)
    shard_walls = [
        e["metrics"].get("fixpoint.round_wall_s", {}).get("sum", 0.0)
        for e in by_type.get("worker_telemetry", [])
    ]
    probes = index["hits"] + index["misses"]
    out = {
        "analysis.components": len(by_type.get("scc_start", [])),
        "analysis.rewrites_applied": len(by_type.get("rewrite_applied", [])),
        "exec.plan_cache_misses": tracer.plan_misses,
        "exec.rule_firings": counter("rule.firings"),
        "exec.rows_derived": counter("rule.derived"),
        "exec.top_rule_share": (
            max(p["wall_s"] for p in profiles) / rule_wall if rule_wall else 0.0
        ),
        "engine.rounds": by_type["solve_end"][-1]["iterations"],
        "engine.atoms": by_type["solve_end"][-1]["atoms"],
        "engine.greedy_settled": counter("greedy.settled"),
        "index.hit_ratio": index["hits"] / probes if probes else 0.0,
        "shard.partitions": counter("shard.partitions"),
        "shard.seed_rows": snapshot.get("shard.seed_rows", {}).get("sum", 0),
        "shard.components_sharded": sum(
            method.endswith("+sharded") for method in result.component_methods
        ),
        "shard.barrier_wall_s": snapshot.get("shard.barrier_wall_s", {}).get("sum", 0.0),
        "shard.worker_wall_max_s": max(shard_walls, default=0.0),
        "shard.skew": (
            max(shard_walls) / statistics.mean(shard_walls)
            if shard_walls and max(shard_walls) > 0
            else 0.0
        ),
        "shard.worker_failures": counter("shard.worker_failures"),
        "obs.events": len(tracer.events),
    }
    for name in ("hits", "misses", "scans", "builds", "invalidations"):
        out[f"index.{name}"] = index[name]
    return out


def _aggregate_kernels(session: Any) -> Dict[str, float]:
    """ns per value of the two-phase aggregate interface, summed over
    ``min``, ``count`` and ``sum`` on one fixed column."""
    registry = default_registry()
    size = AGGREGATE_COLUMN[session.smoke]
    column = [float((i * 7919) % 1009) for i in range(size)]
    half = size // 2
    process_s = merge_s = 0.0
    for name in ("min", "count", "sum"):
        function = registry[name]

        def process() -> Any:
            state = function.state_create()
            for value in column:
                state = function.process(state, value)
            return function.convert(state)

        def merge() -> Any:
            # Many small partial states merged pairwise, as at a shard barrier.
            merged = function.state_create()
            for start in range(0, half, 50):
                part = function.state_create()
                for value in column[start:start + 5]:
                    part = function.process(part, value)
                merged = function.merge(merged, part)
            return function.convert(merged)

        process_s += _median_call(session, process, 3, 1)
        merge_s += _median_call(session, merge, 3, 1)
    return {
        "aggregates.process_ns": process_s / size * 1e9,
        "aggregates.merge_ns": merge_s / (half // 50) * 1e9,
    }


# -- serve side ------------------------------------------------------------------------


def serve_layers(
    session: Any,
    workload: Any,
    server: Any,
    record: Any,
    seconds: float,
    untraced_op: Callable[[], Any],
) -> None:
    """The solve-side layers of ``db0`` in process, the in-process
    ``serve.*`` calls, a 1-client and a 2-client load of fixed size, and
    the ``/metrics`` deltas around the latter."""
    m = record.metrics
    local = workload.local
    solve_layers(session, local, record, seconds * 0.4, untraced_op)
    m["serve.direct_solve_ms"] = m["obs.untraced_op_ms"]

    db = Database(name="db0")
    db.load(local.inputs.text)
    hosted = HostedDatabase("db0", db)
    supervisor = RequestSupervisor(flight_dir=session.out_dir, checkpoint_dir=None)
    payload = {"query": "s"}

    def execute() -> Any:
        return supervisor.execute(
            hosted, payload, request_id="perfbench", cancel=CancelToken()
        )

    outcome = execute()
    record.count(outcome.http_status == 200)
    m["serve.execute_ms"] = _median_call(session, execute, 9, 3) * 1e3
    m["serve.snapshot_ms"] = _median_call(session, hosted.snapshot, 5, 200) * 1e3

    def encode() -> bytes:
        return json.dumps(outcome.body, sort_keys=True, default=str).encode("utf-8")

    m["serve.encode_ms"] = _median_call(session, encode, 5, 20) * 1e3
    # wall_s is the one body field that differs between identical requests.
    m["serve.response_bytes"] = len(encode()) - len(json.dumps(outcome.body["wall_s"]))

    def load(targets: List[Any]) -> Tuple[List[Any], float]:
        samples, load_norm = serving.closed_loop(
            server.port, targets, session.cal, per_client=TRACED_REQUESTS[session.smoke]
        )
        return [s for s in samples if record.count(workload.ok(s))], load_norm

    # The first client's iterator serves both loads: serve_cold asks
    # for each database once across the two.
    targets = workload.targets(2)
    one, _ = load(targets[:1])
    before = serving.scrape(server.port)
    two, two_norm = load(targets)
    after = serving.scrape(server.port)
    for name in ("requests", "requests_shed"):
        key = f"repro_serve_{name}_total"
        m[f"serve.{name}"] = after.get(key, 0.0) - before.get(key, 0.0)
    if one and two:
        # What one client waits beyond the wall the server itself reports
        # for the request: connect, parse, queue, encode, socket.
        m["serve.transport_ms"] = 1e3 * statistics.median(
            s.norm - s.body["wall_s"] * s.norm / s.wall for s in one
        )
        m["serve.req_p50_ms"] = statistics.median(s.norm for s in one) * 1e3
        m["serve.gap_ratio"] = m["serve.req_p50_ms"] / m["serve.direct_solve_ms"]
        norms = [s.norm for s in two]
        m["serve.c2_p50_ms"] = statistics.median(norms) * 1e3
        m["serve.c2_p95_ms"] = percentile(norms, 0.95) * 1e3
        m["serve.c2_qps"] = len(norms) / two_norm
