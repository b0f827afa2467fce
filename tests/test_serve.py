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
add noise, and so does its answer cache (``TestAnswerCache``).  The
fault-injection serve suite is ``test_serve_faults.py``.
"""

import contextlib
import json
import pathlib
import random
import re
import sys
import threading
import time

import pytest

from repro.core.database import Database
from repro.engine.options import SolveOptions
from repro.engine.supervisor import UNCAPPED_ITERATIONS, CancelToken
from repro.lattices import PowersetUnion
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
from repro.serve import supervise
from repro.serve.supervise import AnswerCache

#: What a request that names no option resolves to (the cache key's tail).
DEFAULT_OPTIONS = SolveOptions(
    method="auto", plan="smart", max_iterations=UNCAPPED_ITERATIONS
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


def execute(sup, hosted, query="path", cancel=None, **options):
    """One in-process request (no socket, no admission)."""
    payload = dict(options)
    if query is not None:
        payload["query"] = query
    return sup.execute(
        hosted, payload, request_id="r", cancel=cancel or CancelToken()
    )


def _solves(*outcomes) -> int:
    """Solves behind the outcomes, by the solver's own timer."""
    return sum(
        o.metrics_snapshot.get("solve.wall_s", {}).get("count", 0)
        for o in outcomes
    )


def _count(outcome, name: str) -> int:
    return outcome.metrics_snapshot.get(name, {}).get("value", 0)


def _sans_wall(payload: bytes) -> bytes:
    stripped, n = re.subn(rb', "wall_s": [0-9.e+-]+}$', b"}", payload)
    assert n == 1, payload
    return stripped


def sets_hosted() -> HostedDatabase:
    """A cost column over a powerset lattice: its frozenset values reach
    the wire through ``json.dumps(default=str)``."""
    db = Database(name="sets")
    db.register_lattice("tags", PowersetUnion(["a", "b"], name="tags"))
    db.load("@cost tag/2 : tags.\n@cost seen/2 : tags.\nseen(X, T) <- tag(X, T).")
    db.add_fact("tag", "x", frozenset({"a", "b"}))
    return HostedDatabase("sets", db)


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

    def test_negative_cycle_under_the_default_method_is_429_never_a_cached_200(
        self, served
    ):
        """``auto`` runs the negative cycle in cost order, which revises
        keys like every other policy: no least fixpoint, so the budget
        ends it — twice, because only a 200 is ever cached."""
        _server, client, _tmp = served
        for _ in range(2):
            status, body = client.solve("div", "s", timeout=0.3)
            assert status == 429
            assert body["status"] in ("timeout", "diverging", "partial")
            assert body["checkpoint"] is not None

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
        database all derive the identical model.  Each request names its
        own (method, plan), so none is answered from another's cached
        answer and six solves really share the snapshot."""
        _server, client, _tmp = served
        results = []
        lock = threading.Lock()

        def query(method, plan):
            outcome = client.solve("tiny", "path", method=method, plan=plan)
            with lock:
                results.append(outcome)

        threads = [
            threading.Thread(target=query, args=(method, plan))
            for method in ("naive", "seminaive", "auto")
            for plan in ("smart", "off")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(results) == 6
        statuses = {status for status, _ in results}
        assert statuses == {200}
        rows = {json.dumps(body["rows"]) for _, body in results}
        assert len(rows) == 1
        assert "repro_serve_cache_misses_total 6" in client.metrics()


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


@pytest.mark.parametrize(
    "bad",
    [
        {"max_inflight": 0},
        {"queue_depth": -1},
        {"default_timeout": 0.0},
        {"default_timeout": float("nan")},
        {"max_timeout": -1.0},
        {"max_timeout": float("nan")},
        {"drain_grace": -0.5},
        {"flight_size": 0},
    ],
    ids=repr,
)
def test_serve_settings_reject_bad_values_at_construction(bad):
    ((name, value),) = bad.items()
    with pytest.raises(ValueError) as caught:
        ServeSettings(**bad)
    assert str(caught.value).startswith(f"{name} must be a ")
    assert str(caught.value).endswith(f", got {value!r}")


def test_serve_settings_accept_the_edges_of_each_range():
    ServeSettings(max_inflight=1, queue_depth=0, drain_grace=0.0, flight_size=1)


class TestRequestSupervisor:
    """Direct unit coverage of the per-request supervision layer."""

    def test_timeout_clamped_by_max_timeout(self):
        sup = RequestSupervisor(default_timeout=10.0, max_timeout=30.0)
        assert sup.effective_timeout(None) == 10.0
        assert sup.effective_timeout(5.0) == 5.0
        assert sup.effective_timeout(120.0) == 30.0
        assert sup.effective_timeout(-3) == 10.0
        assert sup.effective_timeout("junk") == 10.0
        # True is an int, and json.loads accepts Infinity, 1e999 and NaN:
        # none of them is a budget.
        assert sup.effective_timeout(True) == 10.0
        assert sup.effective_timeout(False) == 10.0
        for text in ("Infinity", "1e999", "-Infinity", "NaN", "1" + "0" * 400):
            assert sup.effective_timeout(json.loads(text)) == 10.0, text
        unclamped = RequestSupervisor(default_timeout=10.0)
        assert unclamped.effective_timeout(json.loads("1e999")) == 10.0
        assert unclamped.effective_timeout(1e300) == 1e300

    @pytest.mark.parametrize("size", [0, -1, True, 2.5])
    def test_bad_flight_size_rejected_at_construction(self, size):
        # At the parent the server started, and every solve then raised
        # from FlightRecorder(0) outside the crash wall.
        with pytest.raises(ValueError) as caught:
            RequestSupervisor(flight_size=size)
        assert str(caught.value) == (
            f"flight_size must be a positive integer, got {size!r}"
        )

    def test_follower_past_its_budget_gets_429_not_500(self, monkeypatch):
        sup = RequestSupervisor(checkpoint_dir=None)

        @contextlib.contextmanager
        def late_turn(key, timeout):
            # The leader's failed solve took the follower's whole budget.
            time.sleep(timeout + 0.05)
            yield True

        monkeypatch.setattr(sup.answers, "flight", late_turn)
        outcome = execute(sup, host_program_text("tiny", TINY), timeout=0.1)
        assert outcome.http_status == 429, outcome.body
        assert outcome.status == "timeout"

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
        for _ in range(3):
            # A supervisor of its own each time, so each time is a solve
            # and not an answer out of the cache.
            sup = RequestSupervisor()
            outcome = sup.execute(
                hosted, {"query": "path"}, request_id="r", cancel=CancelToken()
            )
            assert outcome.http_status == 200
            assert _solves(outcome) == 1
        assert hosted.snapshot().total_size() == before


class TestAnswerCache:
    """A 200 answer is a pure function of (database, query, method,
    plan): it is solved once and then served from the cache."""

    @pytest.mark.parametrize(
        "host, query, needle",
        [
            (lambda: host_program_text("tiny", TINY), "path", b'"rows": [["a", "b"]'),
            (lambda: host_program_text("tiny", TINY), None, b'"relations": {"edge": 3'),
            (sets_hosted, "seen", b"frozenset({"),
        ],
        ids=["rows", "relations", "set-lattice"],
    )
    def test_hit_payload_is_the_miss_payload_but_for_wall_s(
        self, host, query, needle
    ):
        sup = RequestSupervisor()
        hosted = host()
        miss = execute(sup, hosted, query)
        hit = execute(sup, hosted, query)
        assert (miss.http_status, hit.http_status) == (200, 200)
        assert needle in miss.payload
        assert (_solves(miss), _solves(hit)) == (1, 0)
        assert (_count(miss, "serve.cache_misses"), _count(hit, "serve.cache_hits")) == (1, 1)
        assert _sans_wall(hit.payload) == _sans_wall(miss.payload)
        for outcome in (miss, hit):
            # The splice is what encoding the whole body would give, and
            # .body is still the plain dict in-process callers read.
            assert outcome.payload == json.dumps(
                outcome.body, sort_keys=True
            ).encode("utf-8")
            assert outcome.body["wall_s"] == round(outcome.wall_s, 6)
            assert outcome.status == "complete"
        assert hit.atoms == miss.atoms == miss.body["atoms"]

    def test_distinct_query_method_plan_never_collide(self):
        sup = RequestSupervisor()
        hosted = host_program_text("tiny", TINY)
        requests = [
            {"query": "path"},
            {"query": "edge"},
            {"query": None},
            {"query": "path", "method": "naive"},
            {"query": "path", "plan": "off"},
            {"query": "path", "method": "naive", "plan": "off"},
        ]
        first = [execute(sup, hosted, **r) for r in requests]
        assert _solves(*first) == len(requests)
        again = [execute(sup, hosted, **r) for r in requests]
        assert _solves(*again) == 0
        for a, b in zip(first, again):
            assert _sans_wall(a.payload) == _sans_wall(b.payload)
        assert len(first[1].body["rows"]) == 3
        assert "rows" not in first[2].body
        # The resolved method and plan are the key: spelling out the
        # server defaults is the same request.
        spelled = execute(sup, hosted, method="auto", plan="smart")
        assert _solves(spelled) == 0

    def test_two_hosted_databases_of_one_name_never_collide(self):
        sup = RequestSupervisor()
        short = host_program_text(
            "tiny", "edge(a, b).\npath(X, Y) <- edge(X, Y).\n"
        )
        full = host_program_text("tiny", TINY)
        assert execute(sup, full).body["atoms"] == 9
        other = execute(sup, short)
        assert _solves(other) == 1
        assert other.body["rows"] == [["a", "b"]]
        assert execute(sup, full).body["atoms"] == 9

    def test_a_drained_request_is_solved_again(self, tmp_path):
        """Nothing but a 200 is stored: the 503 of a cancelled request
        is not what the next client gets."""
        sup = RequestSupervisor(checkpoint_dir=str(tmp_path))
        hosted = host_program_text("tiny", TINY)
        cancel = CancelToken()
        cancel.cancel("server draining")
        drained = execute(sup, hosted, cancel=cancel)
        assert drained.http_status == 503
        assert sup.answers.bytes == 0
        retried = execute(sup, hosted)
        assert retried.http_status == 200
        assert _solves(retried) == 1
        # ... and a tripped token does not spoil an answer that is there.
        assert execute(sup, hosted, cancel=cancel).http_status == 200

    def test_rejections_are_not_stored(self):
        sup = RequestSupervisor()
        hosted = host_program_text("tiny", TINY)
        for _ in range(2):
            outcome = execute(sup, hosted, "nosuch")
            assert outcome.http_status == 422
            assert outcome.metrics_snapshot == {}
        assert sup.answers.bytes == 0

    def test_concurrent_cold_identical_requests_solve_once(self):
        sup = RequestSupervisor()
        hosted = host_program_text("tiny", TINY)
        outcomes = []
        start = threading.Barrier(8)

        def request():
            start.wait(timeout=10)
            outcomes.append(execute(sup, hosted))

        threads = [threading.Thread(target=request) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        assert [o.http_status for o in outcomes] == [200] * 8
        assert _solves(*outcomes) == 1
        assert sum(_count(o, "serve.cache_hits") for o in outcomes) == 7
        assert len({_sans_wall(o.payload) for o in outcomes}) == 1
        assert sup.answers._flights == {}

    def test_follower_whose_timeout_lapses_gets_429(self):
        sup = RequestSupervisor()
        hosted = host_program_text("tiny", TINY)
        key = (hosted, "path", DEFAULT_OPTIONS)
        # This thread plays the leader: it holds the key's flight.
        with sup.answers.flight(key, 1.0) as held:
            assert held
            t0 = time.perf_counter()
            outcome = execute(sup, hosted, timeout=0.05)
            waited = time.perf_counter() - t0
        assert outcome.http_status == 429
        assert outcome.status == "timeout"
        assert outcome.retry_after == 0.05
        assert "identical request in flight" in outcome.body["reason"]
        assert outcome.body["checkpoint"] is None
        assert 0.05 <= waited < 1.0
        assert (_solves(outcome), _count(outcome, "serve.cache_misses")) == (0, 1)
        assert sup.answers._flights == {}
        # The leader left no answer: the next request solves.
        assert _solves(execute(sup, hosted)) == 1

    def test_follower_finds_the_leaders_answer(self):
        sup = RequestSupervisor()
        hosted = host_program_text("tiny", TINY)
        key = (hosted, "path", DEFAULT_OPTIONS)
        hold = {}
        with sup.answers.flight(key, 1.0):
            follower = threading.Thread(
                target=lambda: hold.update(outcome=execute(sup, hosted))
            )
            follower.start()
            deadline = time.time() + 5.0
            while sup.answers._flights[key][1] < 2 and time.time() < deadline:
                time.sleep(0.005)
            sup.answers.put(key, b'{"atoms": 7, "status": "complete"}')
        follower.join(timeout=30)
        assert not follower.is_alive()
        assert hold["outcome"].http_status == 200
        assert hold["outcome"].atoms == 7
        assert _solves(hold["outcome"]) == 0

    def test_lru_order_and_byte_accounting(self, monkeypatch):
        monkeypatch.setattr(supervise, "ANSWER_CACHE_BYTES", 10)
        cache = AnswerCache()
        assert cache.put("a", b"aaaa") == 0
        assert cache.put("b", b"bbbb") == 0
        assert cache.bytes == 8
        assert cache.get("a") == b"aaaa"  # now b is the least recent
        assert cache.put("c", b"cccc") == 1
        assert (cache.get("b"), cache.bytes) == (None, 8)
        # Over the bound: served by the caller, not stored, evicts nothing.
        assert cache.put("huge", b"x" * 11) == 0
        assert (cache.get("huge"), cache.bytes) == (None, 8)
        # A replacement is charged the difference.
        assert cache.put("a", b"aaaaaa") == 0
        assert cache.bytes == 10
        assert cache.put("d", b"dddddddddd") == 2
        assert list(cache._answers) == ["d"]
        assert cache.bytes == 10

    def test_evictions_are_counted_and_evicted_answers_solved_again(
        self, monkeypatch
    ):
        sup = RequestSupervisor()
        hosted = host_program_text("tiny", TINY)
        paths = execute(sup, hosted, "path")
        size = len(_sans_wall(paths.payload))
        assert _count(paths, "serve.cache_bytes") == sup.answers.bytes == size
        monkeypatch.setattr(supervise, "ANSWER_CACHE_BYTES", size)
        edges = execute(sup, hosted, "edge")
        assert _count(edges, "serve.cache_evictions") == 1
        assert sup.answers.bytes == len(_sans_wall(edges.payload))
        assert _solves(execute(sup, hosted, "edge")) == 0
        again = execute(sup, hosted, "path")  # larger than "edge": evicts it
        assert _solves(again) == 1
        monkeypatch.setattr(supervise, "ANSWER_CACHE_BYTES", size - 1)
        unkept = execute(sup, hosted, "path", method="naive")
        assert (unkept.http_status, _solves(unkept)) == (200, 1)
        assert _count(unkept, "serve.cache_evictions") == 0
        assert _solves(execute(sup, hosted, "path", method="naive")) == 1

    def test_cache_survives_a_stress_of_puts_gets_and_flights(self, monkeypatch):
        """More threads than cores, a short switch interval: a lost
        update would break the byte accounting or leak a flight."""
        monkeypatch.setattr(supervise, "ANSWER_CACHE_BYTES", 64)
        cache = AnswerCache()
        stop = time.perf_counter() + 1.0

        def worker(seed):
            rng = random.Random(seed)
            while time.perf_counter() < stop:
                key = rng.randrange(12)
                with cache.flight(key, 0.001):
                    if cache.get(key) is None:
                        cache.put(key, b"x" * rng.randrange(1, 24))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert cache.bytes == sum(map(len, cache._answers.values())) <= 64
        assert cache._flights == {}

    def test_hits_are_first_class_requests_on_the_wire(self, served):
        server, client, _tmp = served
        answers = [client.solve("tiny", "path") for _ in range(3)]
        assert [status for status, _ in answers] == [200] * 3
        assert len({json.dumps(body["rows"]) for _, body in answers}) == 1
        text = client.metrics()
        for line in (
            "repro_serve_requests_total 3",
            "repro_serve_requests_ok_total 3",
            "repro_serve_cache_misses_total 1",
            "repro_serve_cache_hits_total 2",
            "repro_serve_cache_evictions_total 0",
            "repro_serve_request_wall_s_count 3",
            "repro_solve_wall_s_count 1",
        ):
            assert line in text.splitlines(), line
        size = len(json.dumps(dict(answers[0][1]), sort_keys=True)) - len(
            ', "wall_s": ' + json.dumps(answers[0][1]["wall_s"])
        )
        assert f"repro_serve_cache_bytes {size}" in text.splitlines()
        ends = [
            e for e in server.telemetry.flight.events if e["type"] == "request_end"
        ]
        assert [(e["status"], e["http_status"], e["atoms"]) for e in ends] == [
            ("complete", 200, 9)
        ] * 3
