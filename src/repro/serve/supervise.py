"""Per-request supervision: one query, one budget, one cancel token.

Every query the server admits runs in a worker thread under its *own*
:class:`~repro.engine.supervisor.Budget` (a server-side default timeout
applies when the client sends none) and its own
:class:`~repro.engine.supervisor.CancelToken` (the drain path trips it).
The exit-code taxonomy of docs/ROBUSTNESS.md maps onto HTTP statuses:

======  =========================  ==========================================
exit    solve outcome              HTTP
======  =========================  ==========================================
0       ``complete``               200 with the model rows
2       rejected program/query     422 with the diagnostic
3       runtime error              500 with a flight-recorder postmortem
                                   dump attached by reference
4       budget exhausted           429 with ``Retry-After`` (and a resumable
                                   checkpoint when a directory is configured)
4       cancelled (server drain)   503 with ``Retry-After`` and the
                                   checkpoint reference
======  =========================  ==========================================

Each request gets a private :class:`~repro.obs.FlightRecorder` ring; on
a runtime error the ring is dumped to a collision-safe path
(:func:`repro.obs.default_dump_path` — timestamp + pid + sequence) so
concurrent requests never clobber each other's postmortems.

A hosted database is immutable and the least fixpoint is the unique
minimal model (Cor. 3.5), so a 200 answer is a pure function of
(database, query, solve options): :class:`AnswerCache` keeps the encoded
answers, and a repeated request is served from it without solving
(docs/SERVING.md, "Answer cache").
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from functools import cached_property
from typing import Any, Dict, Hashable, Iterator, List, Optional, Tuple

from repro.datalog.errors import (
    CostConsistencyError,
    NotAdmissibleError,
    ParseError,
    ProgramError,
    SafetyError,
)
from repro.engine.options import OptionError, SolveOptions
from repro.engine.solver import solve
from repro.engine.supervisor import Budget, CancelToken
from repro.obs import FlightRecorder, MetricsRegistry, Tracer, default_dump_path
from repro.serve.hosting import HostedDatabase
from repro.util.limits import require

__all__ = ["AnswerCache", "RequestOutcome", "RequestSupervisor"]

#: Server-wide bound on the bytes of cached answers (least recently used
#: answers go first; an answer larger than the bound is served, not kept).
ANSWER_CACHE_BYTES = 64 << 20

#: Statuses a supervised solve maps to 429 (the client under-budgeted).
_BUDGET_STATUSES = ("timeout", "partial", "diverging")


def encode_body(body: Dict[str, Any]) -> bytes:
    """The one wire encoding of a JSON body (a cached answer and a fresh
    one must be the same bytes, so nobody else calls ``json.dumps``)."""
    return json.dumps(body, sort_keys=True, default=str).encode("utf-8")


def _failure(
    http_status: int, body: Dict[str, Any], wall: float, **fields: Any
) -> "RequestOutcome":
    """Any outcome but a 200: nothing of it is cached."""
    return RequestOutcome(
        http_status, encode_body(body), body["status"], wall, **fields
    )


def _with_wall(answer: bytes, wall: float) -> bytes:
    """``answer`` with this request's ``wall_s`` spliced in: ``wall_s``
    sorts after every other body key, so the result is byte for byte
    what encoding the whole body would give."""
    return b'%s, "wall_s": %r}' % (answer[:-1], round(wall, 6))


def _counted(name: str) -> Dict[str, Any]:
    """The metrics snapshot of a request that built no tracer."""
    metrics = MetricsRegistry()
    metrics.counter(name).inc()
    return metrics.snapshot()


class AnswerCache:
    """Encoded 200 answers, least recently used first out, bounded by
    :data:`ANSWER_CACHE_BYTES`; :meth:`flight` makes identical cold
    requests take turns so that one of them solves for all."""

    def __init__(self) -> None:
        self.bytes = 0
        self._lock = threading.Lock()
        self._answers: "OrderedDict[Hashable, bytes]" = OrderedDict()
        #: key -> [its lock, requests holding or awaiting the lock]
        self._flights: Dict[Hashable, List[Any]] = {}

    def get(self, key: Hashable) -> Optional[bytes]:
        with self._lock:
            answer = self._answers.get(key)
            if answer is not None:
                self._answers.move_to_end(key)
            return answer

    def put(self, key: Hashable, answer: bytes) -> int:
        """Keep ``answer`` if it fits; returns how many were evicted."""
        evicted = 0
        if len(answer) <= ANSWER_CACHE_BYTES:
            with self._lock:
                self.bytes += len(answer) - len(self._answers.pop(key, b""))
                self._answers[key] = answer
                while self.bytes > ANSWER_CACHE_BYTES:
                    self.bytes -= len(self._answers.popitem(last=False)[1])
                    evicted += 1
        return evicted

    @contextmanager
    def flight(self, key: Hashable, timeout: float) -> Iterator[bool]:
        """Hold ``key``'s lock for the block; yields False when it could
        not be had within ``timeout`` seconds."""
        with self._lock:
            entry = self._flights.setdefault(key, [threading.Lock(), 0])
            entry[1] += 1
        held = entry[0].acquire(timeout=min(timeout, threading.TIMEOUT_MAX))
        try:
            yield held
        finally:
            if held:
                entry[0].release()
            with self._lock:
                entry[1] -= 1
                if not entry[1]:
                    del self._flights[key]


@dataclass
class RequestOutcome:
    """One request's HTTP mapping plus the telemetry the server records."""

    http_status: int
    #: The JSON response body, encoded on the worker thread.
    payload: bytes
    #: ``complete`` / ``rejected`` / ``error`` / the supervisor status.
    status: str
    wall_s: float = 0.0
    retry_after: Optional[float] = None
    atoms: Optional[int] = None
    postmortem: Optional[str] = None
    checkpoint: Optional[str] = None
    #: The request solve's mergeable metrics snapshot (folded into the
    #: server registry so ``/metrics`` covers solve-side work too).
    metrics_snapshot: Dict[str, Any] = field(default_factory=dict)

    @cached_property
    def body(self) -> Dict[str, Any]:
        """The response body as a dict (decoded from :attr:`payload`)."""
        return json.loads(self.payload)


class RequestSupervisor:
    """Maps one admitted query onto a supervised solve and an outcome."""

    def __init__(
        self,
        *,
        default_timeout: float = 30.0,
        max_timeout: Optional[float] = None,
        default_method: str = "auto",
        flight_dir: str = ".",
        flight_size: int = 256,
        checkpoint_dir: Optional[str] = None,
    ) -> None:
        # Checked here, not per request: a bad ring size would otherwise
        # fail every solve outside its crash wall.
        require("flight_size", flight_size, "positive integer")
        self.default_timeout = default_timeout
        self.max_timeout = max_timeout
        self.default_method = default_method
        self.flight_dir = flight_dir
        self.flight_size = flight_size
        self.checkpoint_dir = checkpoint_dir
        self.answers = AnswerCache()

    # -- request options ---------------------------------------------------------

    def effective_timeout(self, requested: Any) -> float:
        """The budget timeout for one request (clamped server-side)."""
        timeout = self.default_timeout
        if (
            isinstance(requested, (int, float))
            and not isinstance(requested, bool)
            # Finite: JSON's Infinity, NaN and an int too big for
            # float() fall back to the default like any other junk.
            and 0 < requested <= sys.float_info.max
        ):
            timeout = float(requested)
        if self.max_timeout is not None:
            timeout = min(timeout, self.max_timeout)
        return timeout

    # -- execution ---------------------------------------------------------------

    def execute(
        self,
        hosted: HostedDatabase,
        payload: Dict[str, Any],
        *,
        request_id: str,
        cancel: CancelToken,
        draining: bool = False,
    ) -> RequestOutcome:
        """Answer one query, from the cache or by a supervised solve;
        never raises.

        Runs on a worker thread.  ``cancel`` belongs to the server's
        in-flight registry so the drain path can trip it; ``draining``
        only affects the wording of a cancelled outcome.
        """
        t0 = time.perf_counter()
        query = payload.get("query")
        timeout = self.effective_timeout(payload.get("timeout"))
        error = None
        if query is not None and (
            not isinstance(query, str)
            or query not in hosted.program.declarations
        ):
            error = f"unknown predicate {query!r} in database {hosted.name!r}"
        else:
            try:
                # A request's "plan" is forwarded; without one, the
                # solve's own default.
                plan = {"plan": payload["plan"]} if "plan" in payload else {}
                options = SolveOptions(
                    method=payload.get("method", self.default_method),
                    **plan,
                )
            except OptionError as exc:
                error = str(exc)
        if error is not None:
            return _failure(
                422,
                {"status": "rejected", "error": error},
                time.perf_counter() - t0,
            )
        # ``hosted`` hashes by identity: two databases of one name never
        # share an answer.
        key = (hosted, query, options)
        answer = self.answers.get(key)
        if answer is None:
            # Single flight: identical cold requests take turns.  The
            # first solves; the others find its answer, or — it was not
            # a 200 — solve in turn with what is left of their budget
            # (to the millisecond, so an unopposed request keeps all).
            with self.answers.flight(key, timeout) as held:
                answer = self.answers.get(key)
                if answer is None and held:
                    waited = round(time.perf_counter() - t0, 3)
                    left = max(0.0, timeout - waited)
                    return self._solve(
                        key, timeout, left, t0, request_id, cancel, draining
                    )
        wall = time.perf_counter() - t0
        if answer is None:
            return _failure(
                429,
                {
                    "status": "timeout",
                    "reason": f"wall-clock budget of {timeout:g}s exhausted "
                    f"behind an identical request in flight",
                    "atoms": 0,
                    "retry_after": timeout,
                    "checkpoint": None,
                },
                wall,
                retry_after=timeout,
                atoms=0,
                metrics_snapshot=_counted("serve.cache_misses"),
            )
        return RequestOutcome(
            http_status=200,
            payload=_with_wall(answer, wall),
            status="complete",
            wall_s=wall,
            # "atoms" sorts first: b'{"atoms": 1120, "database": ...'
            atoms=int(answer[len(b'{"atoms": ') : answer.index(b",")]),
            metrics_snapshot=_counted("serve.cache_hits"),
        )

    def _solve(
        self,
        key: Tuple[HostedDatabase, Optional[str], SolveOptions],
        timeout: float,
        left: float,
        t0: float,
        request_id: str,
        cancel: CancelToken,
        draining: bool,
    ) -> RequestOutcome:
        """The cache miss: one solve under a budget of ``left`` seconds,
        its outcome encoded and, when it is a 200, its answer kept."""
        hosted, query, options = key
        flight = FlightRecorder(self.flight_size)
        # collect=False: a long-lived request must not buffer its whole
        # event stream — the bounded ring and the mergeable metrics are
        # the only telemetry retained.
        tracer = Tracer(flight, collect=False)
        tracer.metrics.counter("serve.cache_misses").inc()
        # The program may be shared: the trace names this database.
        tracer.start(hosted.name)
        try:
            result = solve(
                hosted.program,
                hosted.snapshot(),
                tracer=tracer,
                budget=Budget(timeout=left),
                cancel=cancel,
                query=query,
                **asdict(options),
            )
        except (
            ParseError,
            ProgramError,
            SafetyError,
            NotAdmissibleError,
            CostConsistencyError,
        ) as exc:
            # The program is at fault (the query and the options were
            # checked before the solve): HTTP 422, the serve analogue of
            # CLI exit 2.
            return _failure(
                422,
                {"status": "rejected", "error": str(exc)},
                time.perf_counter() - t0,
                metrics_snapshot=tracer.metrics.snapshot(),
            )
        except Exception as exc:  # the request-level crash wall
            # Runtime failure (CLI exit 3): isolate the crash to this
            # request and attach the flight-recorder postmortem by
            # reference (collision-safe path: timestamp + pid + seq).
            error = f"{type(exc).__name__}: {exc}"
            try:
                path = default_dump_path(self.flight_dir)
                flight.dump(path, status="error", reason=error)
            except OSError:  # pragma: no cover - dump dir vanished
                path = None
            return _failure(
                500,
                {"status": "error", "error": error, "postmortem": path},
                time.perf_counter() - t0,
                postmortem=path,
                metrics_snapshot=tracer.metrics.snapshot(),
            )
        wall = time.perf_counter() - t0
        atoms = result.model.total_size()
        if result.status == "complete":
            body: Dict[str, Any] = {
                "status": "complete",
                "database": hosted.name,
                "atoms": atoms,
                "iterations": result.total_iterations,
            }
            if query is not None:
                rel = result.model.relation(query)
                body["rows"] = sorted(
                    (list(row) for row in rel.rows()), key=repr
                )
            else:
                body["relations"] = {
                    name: len(rel)
                    for name, rel in sorted(result.model.relations.items())
                }
            answer = encode_body(body)
            evicted = self.answers.put(key, answer)
            tracer.metrics.counter("serve.cache_evictions").inc(evicted)
            tracer.metrics.gauge("serve.cache_bytes").set(self.answers.bytes)
            return RequestOutcome(
                http_status=200,
                payload=_with_wall(answer, wall),
                status="complete",
                wall_s=wall,
                atoms=atoms,
                metrics_snapshot=tracer.metrics.snapshot(),
            )
        snapshot = tracer.metrics.snapshot()
        checkpoint_path = self._save_checkpoint(result, request_id)
        fields = dict(
            atoms=atoms, checkpoint=checkpoint_path, metrics_snapshot=snapshot
        )
        if result.status == "cancelled":
            # In the service the only cancellation source is the drain
            # path: report 503 so orchestrators retry elsewhere, with
            # the checkpoint reference for resumption.
            reason = result.reason or (
                "server draining" if draining else "cancelled"
            )
            body = {
                "status": "cancelled",
                "reason": reason,
                "atoms": atoms,
                "checkpoint": checkpoint_path,
            }
            return _failure(
                503, body, wall, retry_after=self.default_timeout, **fields
            )
        assert result.status in _BUDGET_STATUSES, result.status
        # Budget exhausted (CLI exit 4): 429 with Retry-After — the
        # partial model is sound but the client asked for more than its
        # budget buys; retrying (or resuming the checkpoint) may finish.
        body = {
            "status": result.status,
            "reason": result.reason,
            "atoms": atoms,
            "retry_after": timeout,
            "checkpoint": checkpoint_path,
        }
        return _failure(429, body, wall, retry_after=timeout, **fields)

    def _save_checkpoint(self, result: Any, request_id: str) -> Optional[str]:
        """Persist an interrupted solve's checkpoint, if configured."""
        if self.checkpoint_dir is None or result.checkpoint is None:
            return None
        path = os.path.join(
            self.checkpoint_dir, f"request-{request_id}.ckpt.json"
        )
        try:
            result.checkpoint.save(path)
        except OSError:  # pragma: no cover - checkpoint dir vanished
            return None
        return path
