"""Timing, calibration, span recording and memory readings.

**Calibrated time.**  The 2-core box this benchmark was built on changes
speed by up to 60% for ten seconds at a stretch (frequency and a busy
sibling thread; no steal is reported), which is as long as a whole run,
so medians over more ops do not average it out.  Over twenty 10 s
windows of one unchanged op, the median raw wall had an interquartile
spread of 19.3% of its median; the same walls, each divided by the mean
of a fixed pure-Python kernel timed right before and right after the op,
had 1.3%.  So every time the benchmark reports is wall time multiplied
by ``CALIB_REF_S / kernel time around it``: the time the work would take
on a host where the kernel takes ``CALIB_REF_S``.  Raw kernel times are
reported too (``host.calib_s``) and a run whose first and last kernel
times differ by more than 10% is flagged ``noisy``, never retried.
"""

from __future__ import annotations

import json
import os
import statistics
import time
import tracemalloc
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: Kernel time of the reference host (this box in its quiet state).
#: Frozen: changing it rescales every reported time.
CALIB_REF_S = 0.0150


class Calibrator:
    """Brackets timed regions with kernel runs and scales their wall."""

    def __init__(self) -> None:
        # The kernel works on tables built once: a kernel that allocates
        # its own (25k tuples, a growing dict) took 0.031 s in the first
        # seconds of a process and 0.018 s later on an unchanged host,
        # because its time followed the allocator's state, not the host's.
        self._keys = [(i % 977, i % 3511) for i in range(25_000)]
        self._table = dict.fromkeys(self._keys, 0.0)
        # A fresh interpreter runs the kernel slower the first times
        # (code not yet specialised): discard those.
        for _ in range(3):
            self.kernel()
        self.samples: List[float] = []
        # The median of three: the first sample anchors the noise guard.
        self.first = statistics.median(self.sample() for _ in range(3))
        self._last = self.first

    def kernel(self) -> float:
        """Wall seconds of one fixed pure-Python kernel run: integer
        arithmetic, then tuple-keyed dict probes, float updates and a
        scan — the instruction mix of the engine's hot loops, which a
        purely arithmetic kernel tracked less closely."""
        t0 = time.perf_counter()
        x = 0
        for i in range(200_000):
            x = (x * 31 + i) % 1_000_003
        table = self._table
        for _ in range(2):
            for i, key in enumerate(self._keys):
                old = table[key]
                table[key] = old + 1.0 if old < i else 0.0
        total = 0.0
        for value in table.values():
            total += value
        return time.perf_counter() - t0

    def sample(self) -> float:
        value = self.kernel()
        self.samples.append(value)
        self._last = value
        return value

    def timed(self, fn: Callable[[], Any]) -> Tuple[Any, float, float]:
        """Run ``fn``; returns ``(result, raw wall s, calibrated wall s)``.
        The kernel run after this region is the one before the next."""
        before = self._last
        t0 = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - t0
        after = self.sample()
        return result, wall, wall * self.scale(before, after)

    @staticmethod
    def scale(before: float, after: float) -> float:
        return CALIB_REF_S / ((before + after) / 2.0)

    def guard(self) -> Dict[str, Any]:
        """The noise guard: kernel time at the start and end of the run."""
        last = statistics.median(self.sample() for _ in range(3))
        drift = abs(last - self.first) / min(last, self.first)
        return {
            "calib_first_s": self.first,
            "calib_last_s": last,
            "calib_s": statistics.median(self.samples),
            "noisy": drift > 0.10,
        }


# -- statistics ------------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..1) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 1))  # ceil
    return ordered[int(rank) - 1]


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; a sample of one is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# -- spans -------------------------------------------------------------------------


class Spans:
    """In-memory span recorder, written out when the run ends.

    A span is ``name, start, end, parent, op``: ``parent`` is the index
    of the enclosing span, ``op`` the identifier shared by the spans of
    one operation.
    """

    def __init__(self) -> None:
        self.records: List[Dict[str, Any]] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, op: int) -> Iterator[None]:
        record: Dict[str, Any] = {
            "name": name,
            "op": op,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.records.append(record)
        self._stack.append(len(self.records) - 1)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def durations(self, op: int) -> Dict[str, float]:
        """Total seconds per span name within one op."""
        out: Dict[str, float] = {}
        for record in self.records:
            if record["op"] == op:
                out[record["name"]] = out.get(record["name"], 0.0) + (
                    record["end"] - record["start"]
                )
        return out

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, record in enumerate(self.records):
                handle.write(json.dumps({"id": index, **record}) + "\n")


# -- memory -----------------------------------------------------------------------


def traced_peak_bytes(fn: Callable[[], Any]) -> Tuple[Any, int]:
    """``(fn(), tracemalloc peak bytes while it ran)``."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, max(0, peak - base)


def vm_hwm_mb(pid: Optional[int] = None) -> float:
    """High-water resident set of a process in MB, from /proc."""
    path = f"/proc/{pid if pid is not None else os.getpid()}/status"
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {path}")
