"""True concurrent solves in one process (ISSUE: the serving claim).

The solve service runs many solves in one process on worker threads;
correctness rests on three isolation properties this suite pins down
*without* a server in the way:

* per-solve telemetry — each solve's :class:`~repro.obs.Tracer`
  (events, metrics) sees only its own solve, because the tracer is
  passed down the call stack, never a process global;
* per-solve index-stat ownership — the index counters are bound via a
  ``ContextVar`` (:func:`repro.engine.interpretation.use_index_stats`),
  so two solves on different threads never cross-charge index work;
* model isolation — :func:`repro.engine.solver.solve` copies its EDB on
  entry (``edb.copy()``), so concurrent solves over one shared snapshot
  derive independent, correct models.
"""

import threading

from repro.core.database import Database
from repro.obs import Tracer
from repro.programs import company_control, shortest_path
from repro.workloads import (
    company_control_oracle,
    dijkstra_all_pairs,
    random_digraph,
    random_ownership,
)

PATH_ARCS = random_digraph(14, seed=3)
SHARES = random_ownership(24, seed=3, chain_length=5)


def _solve_paths(out, barrier):
    tracer = Tracer()
    db = shortest_path.database({"arc": PATH_ARCS})
    barrier.wait()
    result = db.solve(method="seminaive", tracer=tracer)
    out["result"] = result
    out["tracer"] = tracer


def _solve_control(out, barrier):
    tracer = Tracer()
    db = company_control.database({"s": SHARES})
    barrier.wait()
    result = db.solve(method="seminaive", tracer=tracer)
    out["result"] = result
    out["tracer"] = tracer


def run_both():
    barrier = threading.Barrier(2)
    paths_out, control_out = {}, {}
    threads = [
        threading.Thread(target=_solve_paths, args=(paths_out, barrier)),
        threading.Thread(target=_solve_control, args=(control_out, barrier)),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert "result" in paths_out and "result" in control_out
    return paths_out, control_out


class TestConcurrentSolves:
    def test_both_models_are_correct(self):
        paths_out, control_out = run_both()
        assert paths_out["result"].status == "complete"
        assert control_out["result"].status == "complete"
        assert dict(paths_out["result"].model["s"]) == dijkstra_all_pairs(
            PATH_ARCS
        )
        assert {
            (x, y) for (x, y) in control_out["result"].model["c"]
        } == company_control_oracle(SHARES)

    def test_tracers_see_only_their_own_solve(self):
        paths_out, control_out = run_both()
        paths_predicates = {
            p
            for e in paths_out["tracer"].events
            if e["type"] == "scc_start"
            for p in e["predicates"]
        }
        control_predicates = {
            p
            for e in control_out["tracer"].events
            if e["type"] == "scc_start"
            for p in e["predicates"]
        }
        assert "s" in paths_predicates and "path" in paths_predicates
        assert "c" in control_predicates
        # No cross-talk: neither tracer saw the other program's SCCs.
        assert "c" not in paths_predicates
        assert "path" not in control_predicates
        # Exactly one solve per tracer.
        for out in (paths_out, control_out):
            starts = [
                e for e in out["tracer"].events if e["type"] == "trace_start"
            ]
            ends = [
                e for e in out["tracer"].events if e["type"] == "solve_end"
            ]
            assert len(starts) == 1 and len(ends) == 1

    def test_index_stats_are_contextvar_isolated(self):
        """Each solve's index counters equal the counters of the same
        solve run alone — concurrent solves never cross-charge, because
        ownership is ContextVar-scoped, not a process global."""
        paths_out, control_out = run_both()
        solo_paths = Tracer()
        shortest_path.database({"arc": PATH_ARCS}).solve(
            method="seminaive", tracer=solo_paths
        )
        solo_control = Tracer()
        company_control.database({"s": SHARES}).solve(
            method="seminaive", tracer=solo_control
        )
        assert (
            paths_out["tracer"].index_stats.snapshot()
            == solo_paths.index_stats.snapshot()
        )
        assert (
            control_out["tracer"].index_stats.snapshot()
            == solo_control.index_stats.snapshot()
        )

    def test_metrics_registries_are_disjoint(self):
        paths_out, control_out = run_both()
        paths_rounds = paths_out["tracer"].metrics.counter(
            "fixpoint.rounds"
        ).value
        control_rounds = control_out["tracer"].metrics.counter(
            "fixpoint.rounds"
        ).value
        assert paths_rounds == paths_out["result"].total_iterations
        assert control_rounds == control_out["result"].total_iterations

    def test_many_threads_one_shared_snapshot(self):
        """Six threads solving over one shared warm snapshot (the
        hosted-database pattern) all derive the identical model and
        leave the snapshot untouched."""
        db = Database(name="shared")
        db.load(shortest_path.source)
        db.add_facts("arc", PATH_ARCS)
        snapshot = db.edb().copy(warm=True)
        before = snapshot.total_size()
        from repro.engine.solver import solve

        results = []
        lock = threading.Lock()

        def worker():
            result = solve(db.program, snapshot, method="seminaive")
            with lock:
                results.append(result)

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert len(results) == 6
        fingerprints = {r.model.fingerprint() for r in results}
        assert len(fingerprints) == 1
        assert snapshot.total_size() == before
