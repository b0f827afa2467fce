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
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.datalog.errors import (
    CostConsistencyError,
    NotAdmissibleError,
    ParseError,
    ProgramError,
    SafetyError,
)
from repro.engine.exec import PLAN_MODES
from repro.engine.solver import solve
from repro.engine.supervisor import Budget, CancelToken
from repro.obs import FlightRecorder, Tracer, default_dump_path
from repro.serve.hosting import HostedDatabase

__all__ = ["RequestOutcome", "RequestSupervisor"]

#: Evaluator hard cap under a budget: the budget's graceful stop should
#: win, never NonTerminationError (mirrors the CLI's uncapped solve).
_UNCAPPED_ITERATIONS = 10**9

#: Statuses a supervised solve maps to 429 (the client under-budgeted).
_BUDGET_STATUSES = ("timeout", "partial", "diverging")

#: Request-settable evaluation methods.  Validated here because the
#: engine quietly falls back on unknown method strings, and a service
#: should reject a typo, not silently answer with a different method.
_METHODS = ("naive", "seminaive", "greedy", "auto")

#: Request-settable plans, validated for the same reason — and because a
#: non-string JSON value (``"plan": ["x"]``) would otherwise reach the
#: crash wall as a TypeError instead of a 422.
_PLANS = PLAN_MODES + ("sharded",)


@dataclass
class RequestOutcome:
    """One request's HTTP mapping plus the telemetry the server records."""

    http_status: int
    body: Dict[str, Any]
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


class RequestSupervisor:
    """Maps one admitted query onto a supervised solve and an outcome."""

    def __init__(
        self,
        *,
        default_timeout: float = 30.0,
        max_timeout: Optional[float] = None,
        default_method: str = "auto",
        default_plan: str = "smart",
        flight_dir: str = ".",
        flight_size: int = 256,
        checkpoint_dir: Optional[str] = None,
    ) -> None:
        self.default_timeout = default_timeout
        self.max_timeout = max_timeout
        self.default_method = default_method
        self.default_plan = default_plan
        self.flight_dir = flight_dir
        self.flight_size = flight_size
        self.checkpoint_dir = checkpoint_dir

    # -- request options ---------------------------------------------------------

    def effective_timeout(self, requested: Any) -> float:
        """The budget timeout for one request (clamped server-side)."""
        timeout = self.default_timeout
        if isinstance(requested, (int, float)) and requested > 0:
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
        """Run one query under supervision; never raises.

        Runs on a worker thread.  ``cancel`` belongs to the server's
        in-flight registry so the drain path can trip it; ``draining``
        only affects the wording of a cancelled outcome.
        """
        t0 = time.perf_counter()
        query = payload.get("query")
        method = payload.get("method", self.default_method)
        plan = payload.get("plan", self.default_plan)
        timeout = self.effective_timeout(payload.get("timeout"))
        if query is not None and (
            not isinstance(query, str)
            or query not in hosted.program.declarations
        ):
            return RequestOutcome(
                http_status=422,
                body={
                    "status": "rejected",
                    "error": f"unknown predicate {query!r} in database "
                    f"{hosted.name!r}",
                },
                status="rejected",
                wall_s=time.perf_counter() - t0,
            )
        for what, value, known in (
            ("method", method, _METHODS),
            ("plan", plan, _PLANS),
        ):
            if value not in known:
                return RequestOutcome(
                    http_status=422,
                    body={
                        "status": "rejected",
                        "error": f"unknown {what} {value!r}; expected one "
                        f"of {known}",
                    },
                    status="rejected",
                    wall_s=time.perf_counter() - t0,
                )
        flight = FlightRecorder(self.flight_size)
        # collect=False: a long-lived request must not buffer its whole
        # event stream — the bounded ring and the mergeable metrics are
        # the only telemetry retained.
        tracer = Tracer(flight, collect=False)
        budget = Budget(timeout=timeout)
        try:
            result = solve(
                hosted.program,
                hosted.snapshot(),
                method=method,
                plan=plan,
                max_iterations=_UNCAPPED_ITERATIONS,
                tracer=tracer,
                budget=budget,
                cancel=cancel,
            )
        except (
            ParseError,
            ProgramError,
            SafetyError,
            NotAdmissibleError,
            CostConsistencyError,
            ValueError,
        ) as exc:
            # The program/query/options are at fault: HTTP 422, the
            # serve analogue of CLI exit 2.
            return RequestOutcome(
                http_status=422,
                body={"status": "rejected", "error": str(exc)},
                status="rejected",
                wall_s=time.perf_counter() - t0,
                metrics_snapshot=tracer.metrics.snapshot(),
            )
        except Exception as exc:  # the request-level crash wall
            # Runtime failure (CLI exit 3): isolate the crash to this
            # request and attach the flight-recorder postmortem by
            # reference (collision-safe path: timestamp + pid + seq).
            path = default_dump_path(self.flight_dir)
            try:
                flight.dump(
                    path,
                    status="error",
                    reason=f"{type(exc).__name__}: {exc}",
                )
            except OSError:  # pragma: no cover - dump dir vanished
                path = None
            return RequestOutcome(
                http_status=500,
                body={
                    "status": "error",
                    "error": f"{type(exc).__name__}: {exc}",
                    "postmortem": path,
                },
                status="error",
                wall_s=time.perf_counter() - t0,
                postmortem=path,
                metrics_snapshot=tracer.metrics.snapshot(),
            )
        wall = time.perf_counter() - t0
        snapshot = tracer.metrics.snapshot()
        atoms = result.model.total_size()
        if result.status == "complete":
            body: Dict[str, Any] = {
                "status": "complete",
                "database": hosted.name,
                "atoms": atoms,
                "iterations": result.total_iterations,
                "wall_s": round(wall, 6),
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
            return RequestOutcome(
                http_status=200,
                body=body,
                status="complete",
                wall_s=wall,
                atoms=atoms,
                metrics_snapshot=snapshot,
            )
        checkpoint_path = self._save_checkpoint(result, request_id)
        if result.status == "cancelled":
            # In the service the only cancellation source is the drain
            # path: report 503 so orchestrators retry elsewhere, with
            # the checkpoint reference for resumption.
            reason = result.reason or (
                "server draining" if draining else "cancelled"
            )
            return RequestOutcome(
                http_status=503,
                body={
                    "status": "cancelled",
                    "reason": reason,
                    "atoms": atoms,
                    "checkpoint": checkpoint_path,
                },
                status="cancelled",
                wall_s=wall,
                retry_after=self.default_timeout,
                atoms=atoms,
                checkpoint=checkpoint_path,
                metrics_snapshot=snapshot,
            )
        assert result.status in _BUDGET_STATUSES, result.status
        # Budget exhausted (CLI exit 4): 429 with Retry-After — the
        # partial model is sound but the client asked for more than its
        # budget buys; retrying (or resuming the checkpoint) may finish.
        return RequestOutcome(
            http_status=429,
            body={
                "status": result.status,
                "reason": result.reason,
                "atoms": atoms,
                "retry_after": timeout,
                "checkpoint": checkpoint_path,
            },
            status=result.status,
            wall_s=wall,
            retry_after=timeout,
            atoms=atoms,
            checkpoint=checkpoint_path,
            metrics_snapshot=snapshot,
        )

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
