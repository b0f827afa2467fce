"""The asyncio solve server: admission control, degradation, drain.

:class:`SolveServer` is a stdlib-only HTTP/1.1 JSON server
(``asyncio.start_server`` + a minimal request parser) hosting named
:class:`~repro.serve.hosting.HostedDatabase` instances:

* **Admission control** — at most ``max_inflight`` solves run
  concurrently (a dedicated thread pool); up to ``queue_depth`` more
  wait their turn.  Past that bound the server *sheds*: new solve
  requests get an immediate 503 with ``Retry-After`` instead of
  stretching every in-flight request's latency until all time out.
* **Per-request supervision** — each admitted query runs under its own
  budget and cancel token (:mod:`repro.serve.supervise`); a crash, an
  over-budget solve or a poisoned query is isolated to its request.
* **Graceful degradation** — ``plan="sharded"`` requests automatically
  degrade to sequential evaluation: every request carries a budget, and
  budgeted solves never fork (budgets are enforced parent-side), so a
  missing fork pool or a dying worker can never take a request down —
  the engine-level :class:`~repro.engine.sharded.ShardWorkerError`
  fallback covers the remaining (unbudgeted, embedded) case.
* **Graceful lifecycle** — SIGTERM/SIGINT begin a drain: ``/readyz``
  flips to 503, new solves are refused, in-flight solves get
  ``drain_grace`` seconds to finish and are then cancelled
  cooperatively; a cancelled solve responds 503 with a resumable
  checkpoint reference.  The process then exits cleanly.

Endpoints, status mapping and capacity tuning: docs/SERVING.md.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.engine.supervisor import CancelToken
from repro.obs import FlightRecorder, Tracer
from repro.serve.hosting import HostedDatabase, share_programs
from repro.serve.supervise import RequestOutcome, RequestSupervisor, encode_body
from repro.util.limits import require

__all__ = ["ServeSettings", "ServerThread", "SolveServer"]

_MAX_BODY = 4 << 20  # 4 MiB request-body cap
_MAX_HEADER = 64 << 10


@dataclass(frozen=True)
class ServeSettings:
    """Capacity and lifecycle knobs (docs/SERVING.md, "Capacity tuning")."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; the bound port lands on server.port
    #: Concurrent solves (worker threads).  Queued past this.
    max_inflight: int = 4
    #: Admitted-but-waiting requests tolerated before shedding.
    queue_depth: int = 8
    #: Server-side default (and the shed Retry-After hint), seconds.
    default_timeout: float = 30.0
    #: Hard per-request budget cap; ``None`` = client may raise freely.
    max_timeout: Optional[float] = None
    #: Seconds in-flight solves get after a drain begins before their
    #: cancel tokens are tripped.
    drain_grace: float = 5.0
    #: Flight-recorder ring size per request (``--flight-size``).
    flight_size: int = 256
    #: Where postmortem dumps / drain checkpoints land.
    flight_dir: str = "."
    checkpoint_dir: Optional[str] = "."
    default_method: str = "auto"

    def __post_init__(self) -> None:
        require("max_inflight", self.max_inflight, "positive integer")
        require("queue_depth", self.queue_depth, "non-negative integer")
        require("default_timeout", self.default_timeout, "positive number")
        if self.max_timeout is not None:
            require("max_timeout", self.max_timeout, "positive number")
        require("drain_grace", self.drain_grace, "non-negative number")
        require("flight_size", self.flight_size, "positive integer")


class _Telemetry:
    """Thread-safe server telemetry: metrics + a request-event ring.

    One lock guards a non-collecting :class:`~repro.obs.Tracer`: its
    metrics registry (scraped by ``/metrics`` as Prometheus exposition)
    and its one sink, a :class:`~repro.obs.FlightRecorder` ring of
    request events (``request_start`` / ``request_end`` /
    ``request_shed`` / ``server_drain``) for postmortems of the
    *server*, not one solve.
    """

    def __init__(self, flight_size: int = 1024) -> None:
        self._lock = threading.Lock()
        self.flight = FlightRecorder(flight_size)
        self._tracer = Tracer(self.flight, collect=False)
        self.metrics = self._tracer.metrics

    def emit(self, event_type: str, **payload: Any) -> None:
        with self._lock:
            self._tracer.emit(event_type, **payload)

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.metrics.counter(name).inc(n)

    def observe(self, name: str, value: float) -> None:
        with self._lock:
            self.metrics.timer(name).observe(value)

    def gauge(self, name: str, value: float) -> None:
        with self._lock:
            self.metrics.gauge(name).set(value)

    def merge_snapshot(self, snapshot: Dict[str, Any]) -> None:
        """Fold one request tracer's instruments into the server plane
        (the same associative merge as the shard barrier)."""
        if not snapshot:
            return
        with self._lock:
            self.metrics.merge_snapshot(snapshot)

    def render_prometheus(self) -> str:
        with self._lock:
            return self.metrics.render_prometheus()


@dataclass
class _Inflight:
    """One admitted request's drain handle."""

    request_id: str
    cancel: CancelToken
    started: float = 0.0
    running: bool = False  # False while still queued for a worker


class SolveServer:
    """The long-lived solve service (``repro serve``)."""

    def __init__(
        self,
        databases: Dict[str, HostedDatabase],
        settings: Optional[ServeSettings] = None,
    ) -> None:
        self.databases = dict(databases)
        share_programs(self.databases.values())
        self.settings = settings or ServeSettings()
        self.supervisor = RequestSupervisor(
            default_timeout=self.settings.default_timeout,
            max_timeout=self.settings.max_timeout,
            default_method=self.settings.default_method,
            flight_dir=self.settings.flight_dir,
            flight_size=self.settings.flight_size,
            checkpoint_dir=self.settings.checkpoint_dir,
        )
        self.telemetry = _Telemetry()
        self.port: Optional[int] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._executor = ThreadPoolExecutor(
            max_workers=self.settings.max_inflight,
            thread_name_prefix="repro-serve",
        )
        self._lock = threading.Lock()
        self._inflight: Dict[str, _Inflight] = {}
        self._admitted = 0
        self._next_id = 0
        self._draining = False
        self._drained = threading.Event()
        self._shutdown: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._checkpointed = 0

    # -- admission bookkeeping ---------------------------------------------------

    @property
    def capacity(self) -> int:
        return self.settings.max_inflight + self.settings.queue_depth

    def _admit(self) -> Optional[Tuple[str, _Inflight]]:
        """Reserve a slot; ``None`` = saturated, shed this request."""
        with self._lock:
            if self._draining or self._admitted >= self.capacity:
                return None
            self._admitted += 1
            self._next_id += 1
            request_id = f"r{self._next_id}"
            handle = _Inflight(request_id, CancelToken())
            self._inflight[request_id] = handle
            return request_id, handle

    def _release(self, request_id: str) -> None:
        with self._lock:
            self._inflight.pop(request_id, None)
            self._admitted -= 1

    def _load(self) -> Tuple[int, int]:
        """``(running, queued)`` under the lock, for shed telemetry."""
        with self._lock:
            running = sum(1 for h in self._inflight.values() if h.running)
            return running, self._admitted - running

    # -- lifecycle ---------------------------------------------------------------

    async def start(self) -> None:
        """Bind the listener; the bound port lands on :attr:`port`."""
        self._shutdown = asyncio.Event()
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._handle, self.settings.host, self.settings.port
        )
        sockets = self._server.sockets or []
        if sockets:
            self.port = sockets[0].getsockname()[1]

    def begin_drain(self) -> None:
        """Flip to draining (signal-handler and thread safe).

        New solves are refused with 503, ``/readyz`` reports draining,
        and :meth:`run_until_shutdown` proceeds to cancel and collect
        the in-flight requests.
        """
        with self._lock:
            if self._draining:
                return
            self._draining = True
        shutdown = self._shutdown
        loop = self._loop
        if shutdown is None:
            return
        # asyncio.Event is not thread-safe; hop onto the loop when the
        # caller is a foreign thread (ServerThread.drain, tests).
        try:
            on_loop = asyncio.get_running_loop() is loop
        except RuntimeError:
            on_loop = False
        if on_loop or loop is None or not loop.is_running():
            shutdown.set()
        else:
            loop.call_soon_threadsafe(shutdown.set)

    @property
    def draining(self) -> bool:
        return self._draining

    async def _drain(self) -> None:
        """Collect in-flight requests: grace, then cooperative cancel."""
        t0 = time.perf_counter()
        deadline = t0 + self.settings.drain_grace
        while time.perf_counter() < deadline:
            with self._lock:
                if not self._inflight:
                    break
            await asyncio.sleep(0.05)
        with self._lock:
            stragglers = list(self._inflight.values())
        for handle in stragglers:
            handle.cancel.cancel("server draining")
        cancelled = len(stragglers)
        # Cancellation is cooperative: wait for the workers to reach a
        # safe boundary, checkpoint, and respond.
        while True:
            with self._lock:
                if not self._inflight:
                    break
            await asyncio.sleep(0.05)
        checkpointed = self._checkpointed
        self.telemetry.emit(
            "server_drain",
            inflight=cancelled,
            cancelled=cancelled,
            checkpointed=checkpointed,
            wall_s=round(time.perf_counter() - t0, 6),
        )
        self.telemetry.count("serve.drains")
        self._drained.set()

    async def run_until_shutdown(self) -> None:
        """Serve until :meth:`begin_drain`, then drain and close."""
        if self._server is None:
            await self.start()
        assert self._shutdown is not None and self._server is not None
        await self._shutdown.wait()
        await self._drain()
        self._server.close()
        await self._server.wait_closed()
        self._executor.shutdown(wait=True)

    # -- HTTP plumbing -----------------------------------------------------------

    async def _handle(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            status, headers, body = await self._respond(reader)
            content_type = "application/json"
            if isinstance(body, bytes):
                # A /solve outcome: encoded on its worker thread, so the
                # loop never runs json.dumps over a row set.
                payload = body
            elif isinstance(body, _PlainText):
                content_type = "text/plain; version=0.0.4"
                payload = str(body).encode("utf-8")
            else:
                payload = encode_body(body)
            lines = [
                f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}",
                f"Content-Type: {content_type}",
                f"Content-Length: {len(payload)}",
                "Connection: close",
            ]
            for name, value in headers:
                lines.append(f"{name}: {value}")
            writer.write(
                ("\r\n".join(lines) + "\r\n\r\n").encode() + payload
            )
            await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away; nothing to answer
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _respond(
        self, reader: asyncio.StreamReader
    ) -> Tuple[int, List[Tuple[str, str]], Any]:
        """Parse one request and route it; returns (status, headers, body)."""
        try:
            raw = await reader.readuntil(b"\r\n\r\n")
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            return 400, [], {"status": "bad-request", "error": "bad header"}
        if len(raw) > _MAX_HEADER:
            return 400, [], {"status": "bad-request", "error": "header too large"}
        head = raw.decode("latin-1").split("\r\n")
        parts = head[0].split()
        if len(parts) != 3:
            return 400, [], {"status": "bad-request", "error": "bad request line"}
        verb, path, _version = parts
        content_length = 0
        for line in head[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    return 400, [], {
                        "status": "bad-request",
                        "error": "bad content-length",
                    }
        if content_length > _MAX_BODY:
            return 413, [], {"status": "bad-request", "error": "body too large"}
        body = b""
        if content_length:
            try:
                body = await reader.readexactly(content_length)
            except asyncio.IncompleteReadError:
                return 400, [], {
                    "status": "bad-request",
                    "error": "truncated body",
                }
        return await self._route(verb, path, body)

    async def _route(
        self, verb: str, path: str, body: bytes
    ) -> Tuple[int, List[Tuple[str, str]], Any]:
        if path == "/healthz":
            return 200, [], {"status": "ok"}
        if path == "/readyz":
            if self._draining:
                return 503, [], {"status": "draining"}
            running, queued = self._load()
            return 200, [], {
                "status": "ready",
                "inflight": running,
                "queued": queued,
                "capacity": self.capacity,
            }
        if path == "/metrics":
            return (
                200,
                [],
                _PlainText(self.telemetry.render_prometheus()),
            )
        if path == "/databases":
            return 200, [], {
                "databases": {
                    name: hosted.predicates()
                    for name, hosted in sorted(self.databases.items())
                }
            }
        if path.startswith("/solve/"):
            if verb != "POST":
                return 405, [], {
                    "status": "bad-request",
                    "error": "solve requests are POST",
                }
            return await self._solve(path[len("/solve/"):], body)
        return 404, [], {"status": "not-found", "error": f"no route {path}"}

    async def _solve(
        self, name: str, body: bytes
    ) -> Tuple[int, List[Tuple[str, str]], Any]:
        try:
            payload = json.loads(body.decode("utf-8")) if body else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return 400, [], {
                "status": "bad-request",
                "error": f"request body is not JSON: {exc}",
            }
        if not isinstance(payload, dict):
            return 400, [], {
                "status": "bad-request",
                "error": "request body must be a JSON object",
            }
        hosted = self.databases.get(name)
        if hosted is None:
            self.telemetry.count("serve.requests_rejected")
            return 422, [], {
                "status": "rejected",
                "error": f"unknown database {name!r}; "
                f"hosted: {', '.join(sorted(self.databases)) or '(none)'}",
            }
        admitted = self._admit()
        if admitted is None:
            retry_after = self.settings.default_timeout
            running, queued = self._load()
            if self._draining:
                self.telemetry.count("serve.requests_drained")
                return (
                    503,
                    [("Retry-After", f"{retry_after:g}")],
                    {"status": "draining", "retry_after": retry_after},
                )
            self.telemetry.count("serve.requests_shed")
            self.telemetry.emit(
                "request_shed",
                request="(unadmitted)",
                inflight=running,
                queued=queued,
                retry_after=retry_after,
            )
            return (
                503,
                [("Retry-After", f"{retry_after:g}")],
                {
                    "status": "shedding",
                    "error": f"server saturated ({running} running, "
                    f"{queued} queued); retry later",
                    "retry_after": retry_after,
                },
            )
        request_id, handle = admitted
        self.telemetry.count("serve.requests")
        # The repo's Gauge keeps the high-water mark (merge = max), so
        # this reports *peak* concurrency; /readyz has the live count.
        self.telemetry.gauge("serve.inflight_peak", float(self._admitted))
        self.telemetry.emit(
            "request_start",
            request=request_id,
            database=name,
            query=payload.get("query"),
        )
        loop = asyncio.get_running_loop()
        try:
            outcome: RequestOutcome = await loop.run_in_executor(
                self._executor,
                self._run_supervised,
                hosted,
                payload,
                request_id,
                handle,
            )
        finally:
            self._release(request_id)
        self._record(request_id, name, outcome)
        headers: List[Tuple[str, str]] = []
        if outcome.retry_after is not None:
            headers.append(("Retry-After", f"{outcome.retry_after:g}"))
        return outcome.http_status, headers, outcome.payload

    def _run_supervised(
        self,
        hosted: HostedDatabase,
        payload: Dict[str, Any],
        request_id: str,
        handle: _Inflight,
    ) -> RequestOutcome:
        """Worker-thread body: mark running, run the supervised solve."""
        handle.running = True
        handle.started = time.perf_counter()
        return self.supervisor.execute(
            hosted,
            payload,
            request_id=request_id,
            cancel=handle.cancel,
            draining=self._draining,
        )

    def _record(
        self, request_id: str, database: str, outcome: RequestOutcome
    ) -> None:
        """Fold one finished request into the server telemetry plane."""
        by_status = {
            "complete": "serve.requests_ok",
            "rejected": "serve.requests_rejected",
            "error": "serve.requests_error",
            "cancelled": "serve.requests_cancelled",
        }
        self.telemetry.count(
            by_status.get(outcome.status, "serve.requests_budget")
        )
        self.telemetry.observe("serve.request_wall_s", outcome.wall_s)
        self.telemetry.merge_snapshot(outcome.metrics_snapshot)
        if outcome.checkpoint is not None:
            self._checkpointed += 1
        self.telemetry.emit(
            "request_end",
            request=request_id,
            database=database,
            status=outcome.status,
            http_status=outcome.http_status,
            wall_s=round(outcome.wall_s, 6),
            atoms=outcome.atoms,
            postmortem=outcome.postmortem,
            checkpoint=outcome.checkpoint,
        )


class _PlainText(str):
    """Marker: a pre-rendered text/plain body (the /metrics scrape)."""


_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class ServerThread:
    """Run a :class:`SolveServer` on a background thread.

    The embedding used by the tests and any host process that wants a
    solve service without owning the event loop::

        thread = ServerThread(server)
        port = thread.start()
        ... ServeClient("127.0.0.1", port) ...
        thread.drain()        # graceful: refuses, cancels, checkpoints
        thread.join()
    """

    def __init__(self, server: SolveServer) -> None:
        self.server = server
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._started = threading.Event()
        self._failed: Optional[BaseException] = None

    def start(self, timeout: float = 10.0) -> int:
        """Start serving; returns the bound port."""
        self._thread = threading.Thread(
            target=self._main, name="repro-serve-loop", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout):
            raise RuntimeError("serve thread failed to start in time")
        if self._failed is not None:
            raise RuntimeError(
                f"serve thread failed to start: {self._failed}"
            )
        assert self.server.port is not None
        return self.server.port

    def _main(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)

        async def _serve() -> None:
            try:
                await self.server.start()
            except BaseException as exc:  # bind failure and the like
                self._failed = exc
                self._started.set()
                raise
            self._started.set()
            await self.server.run_until_shutdown()

        try:
            loop.run_until_complete(_serve())
        finally:
            loop.close()

    def drain(self, timeout: float = 30.0) -> None:
        """Begin a graceful drain and wait for the server to exit."""
        loop = self._loop
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(self.server.begin_drain)
        self.join(timeout)

    def join(self, timeout: float = 30.0) -> None:
        if self._thread is not None:
            self._thread.join(timeout)
            if self._thread.is_alive():  # pragma: no cover - watchdog
                raise RuntimeError("serve thread did not exit in time")
