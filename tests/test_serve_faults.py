"""Fault-injection suite for the solve service and the shard pool.

Two layers of the robustness story (ISSUE: crash-isolated workers):

* **Engine** — a shard worker killed by a signal (the fault harness
  SIGKILLs the forked child from inside, pid-guarded so the parent
  survives) or raising mid-component must not poison the solve: the
  pool boundary wraps the failure as
  :class:`~repro.engine.sharded.ShardWorkerError`, the solver re-runs
  the component sequentially, emits the witnessed fallback reason on
  the telemetry stream (the same ``shard_plan`` event the
  BLOCKED-fallback path uses), and the model is bit-identical to a
  sequential run.  Nothing needs invalidating: parent state only
  mutates at the barrier merge, which a failed pool never reaches.

* **Service** — faults injected into a live server's solves stay
  confined to their request: a crash answers 500 with a postmortem,
  a delay racing the budget answers 429, and the *shared* hosted
  snapshot stays index-consistent throughout (the torn-index detector
  of the fault harness).  None of those outcomes reaches the answer
  cache (``TestAnswerCacheUnderFaults``): only a 200 is stored, and a
  leader that fails hands the solve to the next request in line.
"""

import os
import signal
import threading
import time

import pytest

from repro.core.database import Database
from repro.engine.sharded import ShardWorkerError, sharded_supported
from repro.engine.supervisor import CancelToken
from repro.obs import Tracer, load_dump
from repro.programs import shortest_path
from repro.serve import (
    HostedDatabase,
    RequestSupervisor,
    ServeClient,
    ServeSettings,
    ServerThread,
    SolveServer,
    host_program_text,
)
from repro.testing.faults import (
    Fault,
    FaultInjected,
    FaultPlan,
    check_relation_indexes,
    inject,
)
from repro.workloads import dijkstra_all_pairs, random_digraph
from tests.test_serve import _solves, execute

TINY = """
edge(a, b).
edge(b, c).
path(X, Y) <- edge(X, Y).
path(X, Z) <- path(X, Y), edge(Y, Z).
"""

fork_ok, fork_why = sharded_supported()
needs_fork = pytest.mark.skipif(not fork_ok, reason=fork_why)


def _kill_forked_worker(parent_pid: int):
    """A fault callback that SIGKILLs the process — only when it is a
    forked shard worker (the plan rides into the child through fork;
    the pid guard keeps the parent and its sequential re-run alive)."""

    def killer(seam: str, detail: str) -> None:
        if os.getpid() != parent_pid:
            os.kill(os.getpid(), signal.SIGKILL)

    return killer


@needs_fork
class TestShardWorkerDeath:
    def test_worker_sigkill_falls_back_to_sequential(self):
        arcs = random_digraph(12, seed=7)
        tracer = Tracer()
        plan = FaultPlan(
            [
                Fault(
                    "rule_firing",
                    action="call",
                    call=_kill_forked_worker(os.getpid()),
                    repeat=True,
                )
            ]
        )
        with inject(plan):
            result = shortest_path.database({"arc": arcs}).solve(
                method="seminaive",
                plan="sharded",
                workers=2,
                tracer=tracer,
            )
        assert result.status == "complete"
        # The fallback re-ran the component sequentially — same model
        # as a plain sequential solve, and the oracle agrees.
        sequential = shortest_path.database({"arc": arcs}).solve(
            method="seminaive"
        )
        assert result.model == sequential.model
        assert dict(result.model["s"]) == dijkstra_all_pairs(arcs)
        assert not any(
            used.endswith("+sharded") for used in result.component_methods
        )
        # The fallback reason is witnessed on the telemetry stream,
        # consistent with the BLOCKED-fallback shard_plan shape.
        fallbacks = [
            e
            for e in tracer.events
            if e["type"] == "shard_plan" and e.get("action") == "fallback"
        ]
        assert fallbacks, "no shard_plan fallback event emitted"
        assert "worker failure" in fallbacks[0]["reason"]
        assert "killed by a signal" in fallbacks[0]["reason"]
        assert tracer.metrics.counter("shard.worker_failures").value == 1

    def test_worker_raise_falls_back_to_sequential(self):
        """A worker *raising* mid-component (not dying) degrades the
        same way, with the exception type in the witnessed reason."""
        arcs = random_digraph(12, seed=9)
        tracer = Tracer()

        def raise_in_worker(parent_pid: int):
            def boom(seam: str, detail: str) -> None:
                if os.getpid() != parent_pid:
                    raise RuntimeError("worker exploded")

            return boom

        plan = FaultPlan(
            [
                Fault(
                    "rule_firing",
                    action="call",
                    call=raise_in_worker(os.getpid()),
                    repeat=True,
                )
            ]
        )
        with inject(plan):
            result = shortest_path.database({"arc": arcs}).solve(
                method="seminaive",
                plan="sharded",
                workers=2,
                tracer=tracer,
            )
        assert result.status == "complete"
        sequential = shortest_path.database({"arc": arcs}).solve(
            method="seminaive"
        )
        assert result.model == sequential.model
        fallbacks = [
            e
            for e in tracer.events
            if e["type"] == "shard_plan" and e.get("action") == "fallback"
        ]
        assert fallbacks
        assert "worker failure" in fallbacks[0]["reason"]

    def test_shard_worker_error_is_typed_and_reasoned(self):
        err = ShardWorkerError("shard worker died mid-component")
        assert err.reason == "shard worker died mid-component"


class TestServeFaultIsolation:
    @pytest.fixture
    def served(self, tmp_path):
        server = SolveServer(
            {"tiny": host_program_text("tiny", TINY)},
            ServeSettings(
                default_timeout=10.0,
                drain_grace=0.2,
                flight_dir=str(tmp_path),
                checkpoint_dir=str(tmp_path),
            ),
        )
        thread = ServerThread(server)
        port = thread.start()
        yield server, ServeClient("127.0.0.1", port, timeout=30.0)
        thread.drain(timeout=30.0)

    def test_crash_isolated_to_its_request(self, served):
        server, client = served
        plan = FaultPlan([Fault("rule_firing", at=1)])
        with inject(plan):
            status, body = client.solve("tiny", "path")
        assert status == 500
        assert body["status"] == "error"
        assert "injected fault" in body["error"]
        header, _events = load_dump(body["postmortem"])
        assert header["status"] == "error"
        # The plan is gone; the very next request over the same hosted
        # snapshot completes — the crash did not poison shared state.
        status, body = client.solve("tiny", "path")
        assert status == 200
        assert body["status"] == "complete"
        # And the shared snapshot's indexes survived the torn update.
        snapshot = server.databases["tiny"].snapshot()
        for name in sorted(snapshot.relations):
            assert not check_relation_indexes(snapshot.relation(name))

    def test_concurrent_crashes_each_get_their_own_postmortem(self, served):
        """Collision-safe dump paths: two crashing requests in the same
        flight_dir never clobber each other's postmortems."""
        _server, client = served
        plan = FaultPlan([Fault("rule_firing", repeat=True)])
        dumps = []
        with inject(plan):
            for _ in range(2):
                status, body = client.solve("tiny", "path")
                assert status == 500
                dumps.append(body["postmortem"])
        assert len(set(dumps)) == 2
        for path in dumps:
            header, _events = load_dump(path)
            assert header["status"] == "error"

    def test_delay_fault_races_budget_to_429(self, served):
        _server, client = served
        plan = FaultPlan(
            [Fault("rule_firing", action="delay", delay=0.4, repeat=True)]
        )
        with inject(plan):
            status, body, headers = client.solve_with_headers(
                "tiny", query="path", timeout=0.15
            )
        assert status == 429
        assert body["status"] in ("timeout", "partial", "diverging")
        assert "retry-after" in headers

    def test_cancel_fault_maps_to_503(self, tmp_path):
        """A fault tripping the request's own cancel token mid-solve is
        indistinguishable from a drain: 503, status cancelled."""
        sup = RequestSupervisor(
            flight_dir=str(tmp_path), checkpoint_dir=str(tmp_path)
        )
        cancel = CancelToken()
        plan = FaultPlan(
            [Fault("rule_firing", action="cancel", token=cancel)]
        )
        with inject(plan):
            outcome = sup.execute(
                host_program_text("tiny", TINY),
                {"query": "path"},
                request_id="rc",
                cancel=cancel,
            )
        assert outcome.http_status == 503
        assert outcome.status == "cancelled"

    def test_harness_raise_is_the_plain_exception(self):
        """Sanity: outside the server, the injected fault is an
        ordinary exception — the 500 mapping is the serve layer."""
        db = Database(name="t")
        db.load(TINY)
        with inject(FaultPlan([Fault("rule_firing")])):
            with pytest.raises(FaultInjected):
                db.solve()


class TestAnswerCacheUnderFaults:
    """Only a 200 is an answer; single flight survives a failing leader."""

    def test_429_then_a_larger_timeout_is_solved_again(self, tmp_path):
        sup = RequestSupervisor(flight_dir=str(tmp_path))
        hosted = host_program_text("tiny", TINY)
        plan = FaultPlan(
            [Fault("rule_firing", action="delay", delay=0.4, repeat=True)]
        )
        with inject(plan):
            starved = execute(sup, hosted, timeout=0.15)
        assert starved.http_status == 429
        assert sup.answers.bytes == 0
        retried = execute(sup, hosted, timeout=30.0)
        assert (retried.http_status, _solves(retried)) == (200, 1)
        # The answer does not depend on the budget it was solved under.
        assert _solves(execute(sup, hosted, timeout=0.15)) == 0

    def test_injected_crash_then_retry_is_solved_again(self, tmp_path):
        sup = RequestSupervisor(flight_dir=str(tmp_path))
        hosted = host_program_text("tiny", TINY)
        with inject(FaultPlan([Fault("rule_firing", at=1)])):
            crashed = execute(sup, hosted)
        assert crashed.http_status == 500
        assert sup.answers.bytes == 0
        retried = execute(sup, hosted)
        assert (retried.http_status, _solves(retried)) == (200, 1)
        with inject(FaultPlan([Fault("rule_firing", repeat=True)])) as plan:
            # Served from the cache: the engine's seams are not crossed.
            assert execute(sup, hosted).http_status == 200
            assert plan.log == []

    def test_requests_behind_a_slow_leader_solve_once(self, tmp_path):
        sup = RequestSupervisor(flight_dir=str(tmp_path))
        hosted = host_program_text("tiny", TINY)
        with inject(FaultPlan()) as alone:
            execute(RequestSupervisor(flight_dir=str(tmp_path)), hosted)
        one_solve = alone.seam_counts()["rule_firing"]
        leading = threading.Event()

        def stall(seam, detail):
            leading.set()
            time.sleep(0.3)

        outcomes = []
        plan = FaultPlan([Fault("rule_firing", action="call", call=stall)])
        with inject(plan):
            threads = [
                threading.Thread(
                    target=lambda: outcomes.append(execute(sup, hosted))
                )
                for _ in range(5)
            ]
            threads[0].start()
            assert leading.wait(timeout=10)
            for t in threads[1:]:
                t.start()
            for t in threads:
                t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        assert [o.http_status for o in outcomes] == [200] * 5
        # Counted at the fault seam: the engine ran one solve's firings.
        assert plan.seam_counts()["rule_firing"] == one_solve
        assert _solves(*outcomes) == 1
        assert len({tuple(map(tuple, o.body["rows"])) for o in outcomes}) == 1

    def test_leader_crash_lets_a_follower_solve(self, tmp_path):
        sup = RequestSupervisor(flight_dir=str(tmp_path))
        hosted = host_program_text("tiny", TINY)
        leading = threading.Event()

        def stall_then_crash(seam, detail):
            leading.set()
            time.sleep(0.2)
            raise FaultInjected("leader down")

        hold = {}
        plan = FaultPlan(
            [Fault("rule_firing", action="call", call=stall_then_crash)]
        )
        with inject(plan):
            leader = threading.Thread(
                target=lambda: hold.update(leader=execute(sup, hosted))
            )
            leader.start()
            assert leading.wait(timeout=10)
            # at=1 and no repeat: the fault is spent on the leader.
            follower = execute(sup, hosted, timeout=10.0)
            leader.join(timeout=30)
        assert not leader.is_alive()
        assert hold["leader"].http_status == 500
        assert "leader down" in hold["leader"].body["error"]
        assert (follower.http_status, _solves(follower)) == (200, 1)
        # It waited out the leader, and solved under what was left.
        assert follower.wall_s >= 0.1
        assert _solves(execute(sup, hosted)) == 0
