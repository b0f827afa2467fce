"""One run of one workload: the untraced pass that gives the end-to-end
metrics, or the traced pass that gives the per-layer metrics.

Every time is calibrated (see ``measure``).  A run returns a ``Record``:
the metric values, the ops attempted and failed, and the noise guard.
"""

from __future__ import annotations

import importlib
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from measure import (
    Calibrator,
    percentile,
    quartiles,
    traced_peak_bytes,
    vm_hwm_mb,
)

SETUP_REPS = 3
WARMUP_OPS = 2


@dataclass
class Record:
    workload: str
    seed: int
    traced: bool
    metrics: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: Quartiles and sample counts beside the medians; the noise guard.
    detail: Dict[str, Any] = field(default_factory=dict)

    def count(self, ok: bool) -> bool:
        self.attempted += 1
        self.failed += not ok
        return ok


def _timing_metrics(
    record: Record, ops: List[Tuple[float, float]], load_norm: float
) -> None:
    """``op_p50_ms`` and ``ops_per_s`` from the ``(calibrated, raw)``
    walls of the ops that succeeded; quartiles, sample count, the raw
    median and the advisory tail percentiles go beside them."""
    norms = [norm for norm, _ in ops]
    q1, q2, q3 = quartiles(norms)
    record.metrics["op_p50_ms"] = q2 * 1e3
    record.metrics["ops_per_s"] = len(norms) / load_norm
    record.detail["op_ms"] = {
        "q1": q1 * 1e3, "q3": q3 * 1e3, "samples": len(norms),
        "raw_p50": quartiles([raw for _, raw in ops])[1] * 1e3,
        "p95_advisory": percentile(norms, 0.95) * 1e3,
        "p99_advisory": percentile(norms, 0.99) * 1e3,
    }  # fmt: skip


def _setup_metric(record: Record, import_norm: float, reps: List[float]) -> None:
    q1, q2, q3 = quartiles(reps)
    record.metrics["setup_s"] = import_norm + q2
    record.detail["setup_s"] = {
        "import": import_norm, "q1": q1, "q3": q3, "samples": len(reps),
    }  # fmt: skip


def _end_to_end(
    session: "Session",
    record: Record,
    ops: List[Tuple[float, float]],
    load_norm: float,
    setups: List[float],
    local: Any,
    pid: Optional[int],
) -> None:
    """Every end-to-end metric of one untraced run.  ``local`` is the
    solve workload of the memory pass, ``pid`` the process whose
    high-water resident set counts (None: this one)."""
    if not ops:
        return
    _timing_metrics(record, ops, load_norm)
    _setup_metric(record, session.import_norm, setups)
    record.metrics["peak_rss_mb"] = vm_hwm_mb(pid)
    (result, rows), peak = traced_peak_bytes(local.op)
    record.count(local.check(result, rows))
    record.metrics["mem_bytes_per_atom"] = peak / max(1, result.model.total_size())


def _guard(record: Record, cal: Calibrator) -> None:
    record.detail["host"] = dict(
        cal.guard(), load1=os.getloadavg()[0], nproc=os.cpu_count()
    )


class Session:
    """Shared by the solve and serve runs: the calibrator, the timed
    import of the engine and the output directory."""

    def __init__(self, out_dir: str, src_dir: str, smoke: bool = False) -> None:
        self.out_dir = out_dir
        self.src_dir = src_dir
        #: Tiny sizes everywhere (the test suite).
        self.smoke = smoke
        os.makedirs(out_dir, exist_ok=True)
        self.cal = Calibrator()
        # Importing the engine is set-up a user pays once per process.
        _, _, self.import_norm = self.cal.timed(self._import)

    def _import(self) -> None:
        self.workloads = importlib.import_module("workloads")
        self.serving = importlib.import_module("serving")
        self.layers = importlib.import_module("layers")


# -- solve workloads -----------------------------------------------------------------


def timed_op(
    session: Session, workload: Any, record: Record
) -> Optional[Tuple[float, float]]:
    """One checked untraced op; its ``(calibrated, raw)`` wall, or None
    if it failed."""
    try:
        (result, rows), wall, norm = session.cal.timed(workload.op)
    except Exception as exc:  # a crashed op is a failed op
        record.count(False)
        record.detail["error"] = f"{type(exc).__name__}: {exc}"
        return None
    # The model is freed on return: left alive, it would be torn down
    # inside the next op's timed region, a cost no single solve pays.
    return (norm, wall) if record.count(workload.check(result, rows)) else None


def _timed_ops(
    session: Session, workload: Any, record: Record, seconds: float, min_ops: int
) -> List[Tuple[float, float]]:
    """Run checked untraced ops for ``seconds``; returns the
    ``(calibrated, raw)`` walls of the successful ones."""
    ops: List[Tuple[float, float]] = []
    deadline = time.perf_counter() + seconds
    while (
        time.perf_counter() < deadline or record.attempted < min_ops
    ) and record.failed < min_ops:
        timed = timed_op(session, workload, record)
        if timed is not None:
            ops.append(timed)
    return ops


def _setup_solve(session: Session, workload: Any, seed: int, reps: int) -> List[float]:
    def once() -> None:
        workload.generate(seed, session.out_dir, session.smoke)
        for _ in range(WARMUP_OPS):
            workload.op()

    walls = [session.cal.timed(once)[2] for _ in range(reps)]
    workload.compute_oracle()
    return walls


def run_solve(
    session: Session, name: str, seed: int, seconds: float, traced: bool
) -> Record:
    workload = session.workloads.solve_workloads()[name]
    record = Record(name, seed, traced)
    reps = _setup_solve(session, workload, seed, 1 if traced else SETUP_REPS)
    if traced:
        session.layers.solve_layers(
            session, workload, record, seconds,
            lambda: timed_op(session, workload, record),
        )  # fmt: skip
    else:
        ops = _timed_ops(session, workload, record, seconds, 5)
        load_norm = sum(norm for norm, _ in ops)
        _end_to_end(session, record, ops, load_norm, reps, workload, None)
    _guard(record, session.cal)
    return record


# -- serve workloads -----------------------------------------------------------------


def run_serve(
    session: Session, name: str, seed: int, seconds: float, traced: bool
) -> Record:
    serving = session.serving
    workload = serving.serve_workloads()[name]
    record = Record(name, seed, traced)
    server: Optional[Any] = None

    def once() -> Any:
        workload.generate(seed, session.out_dir, session.smoke)
        started = serving.Server(workload.files, session.out_dir, session.src_dir)
        try:
            started.start()
            for _ in range(WARMUP_OPS):
                serving.post_solve(started.port, "warm", "s")
        except BaseException:
            started.stop()
            raise
        return started

    try:
        reps: List[float] = []
        for _ in range(1 if traced else SETUP_REPS):
            if server is not None:
                server.stop()
            server, _, norm = session.cal.timed(once)
            reps.append(norm)
        workload.compute_oracle()
        if traced:
            session.layers.serve_layers(
                session, workload, server, record, seconds,
                lambda: timed_op(session, workload.local, record),
            )  # fmt: skip
        else:
            samples, load_norm = serving.closed_loop(
                server.port, workload.targets(1), session.cal, seconds=seconds
            )
            ops = [(s.norm, s.wall) for s in samples if record.count(workload.ok(s))]
            _end_to_end(
                session, record, ops, load_norm, reps, workload.local, server.pid
            )
    finally:
        if server is not None:
            server.stop()
    _guard(record, session.cal)
    return record
