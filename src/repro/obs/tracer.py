"""The :class:`Tracer` — span / counter / event primitives with sinks.

A tracer is the per-solve telemetry hub: the engine emits schema'd
events (:mod:`repro.obs.events`) through it, the compiled executors
aggregate per-rule firing counts and wall time on it, and it *owns* the
solve's :class:`~repro.engine.interpretation.IndexStats` so concurrent
solves stop sharing the process-global counter singleton.

Instrumentation cost discipline: every hot-loop site guards on
``tracer.enabled`` — a single attribute read — before doing any other
work, and the shared :data:`NULL_TRACER` keeps ``enabled`` False
forever.  An untraced solve therefore pays one branch per potential
event, nothing more (the <5% overhead budget of docs/OBSERVABILITY.md).
"""

from __future__ import annotations

import io
import json
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Protocol, Tuple, Union

from repro.engine.interpretation import IndexStats
from repro.obs.events import SCHEMA_VERSION
from repro.obs.metrics import MetricsRegistry


class Sink(Protocol):
    """Where emitted events go.  Implementations must not mutate them."""

    def emit(self, event: Dict[str, Any]) -> None: ...

    def close(self) -> None: ...


class CollectorSink:
    """Keeps every event in memory (``events``) — tests and summaries."""

    def __init__(self) -> None:
        self.events: List[Dict[str, Any]] = []

    def emit(self, event: Dict[str, Any]) -> None:
        self.events.append(event)

    def close(self) -> None:
        return None


class JsonlSink:
    """Streams events to a JSONL file, one compact object per line."""

    def __init__(self, destination: Union[str, io.TextIOBase]) -> None:
        if isinstance(destination, str):
            self._handle: Any = open(destination, "w", encoding="utf-8")
            self._owned = True
        else:
            self._handle = destination
            self._owned = False

    def emit(self, event: Dict[str, Any]) -> None:
        self._handle.write(json.dumps(event, sort_keys=True) + "\n")

    def close(self) -> None:
        if self._owned:
            self._handle.close()
        else:
            self._handle.flush()


class Tracer:
    """Telemetry hub for one solve.

    ``Tracer()`` collects events in memory (``events``); extra sinks
    stream them elsewhere (:class:`JsonlSink`).  Beyond the event stream
    the tracer carries the live counters the engine aggregates directly:

    * ``index_stats`` — this solve's index hit/miss/build counters
      (bound for the duration of the solve via
      :func:`repro.engine.interpretation.use_index_stats`);
    * ``plan_hits`` / ``plan_misses`` — compiled-plan cache probes;
    * per-rule executor statistics (:meth:`record_rule`), flushed as
      ``rule_profile`` events by the solver at solve end.
    """

    __slots__ = (
        "sinks",
        "enabled",
        "collect",
        "events",
        "index_stats",
        "metrics",
        "plan_hits",
        "plan_misses",
        "clock",
        "_seq",
        "_t0",
        "_started",
        "_rule_stats",
        "_rule_metrics",
        "_plan_counters",
    )

    def __init__(
        self,
        *sinks: Sink,
        collect: bool = True,
        clock: Any = time.perf_counter,
    ) -> None:
        self.sinks: Tuple[Sink, ...] = sinks
        self.enabled = True
        self.collect = collect
        self.events: List[Dict[str, Any]] = []
        self.index_stats = IndexStats()
        #: The solve's mergeable instruments (docs/OBSERVABILITY.md):
        #: populated at the guarded instrumentation sites, merged with
        #: worker snapshots at the shard barrier, snapshotted into the
        #: ``metrics_snapshot`` event at solve end.
        self.metrics = MetricsRegistry()
        self.plan_hits = 0
        self.plan_misses = 0
        self.clock = clock
        self._seq = 0
        self._t0 = clock()
        self._started = False
        #: id(rule) -> [rule, calls, derived atoms, cumulative wall s]
        self._rule_stats: Dict[int, List[Any]] = {}
        #: The ``rule.*`` instruments and the two ``plan.cache_*``
        #: counters, resolved on first use (a registry look-up per
        #: instrument per kernel call is the cost otherwise) — never
        #: before, so a snapshot lists only what was recorded.
        self._rule_metrics: Optional[Tuple[Any, ...]] = None
        self._plan_counters: List[Any] = [None, None]

    @classmethod
    def disabled(cls) -> "Tracer":
        """A permanently-off tracer (the :data:`NULL_TRACER` fast path)."""
        tracer = cls(collect=False)
        tracer.enabled = False
        return tracer

    # -- event primitives ------------------------------------------------------

    def emit(self, event_type: str, **payload: Any) -> None:
        """Emit one schema'd event to every sink (no-op when disabled)."""
        if not self.enabled:
            return
        self._seq += 1
        event: Dict[str, Any] = {
            "v": SCHEMA_VERSION,
            "seq": self._seq,
            "t": round(self.clock() - self._t0, 6),
            "type": event_type,
        }
        event.update(payload)
        if self.collect:
            self.events.append(event)
        for sink in self.sinks:
            sink.emit(event)

    def start(self, program: Optional[str] = None) -> None:
        """Emit the opening ``trace_start`` event (idempotent)."""
        if self._started or not self.enabled:
            return
        self._started = True
        self.emit("trace_start", program=program)

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """A ``phase_start``/``phase_end`` span around a pipeline stage."""
        if not self.enabled:
            yield
            return
        self.emit("phase_start", phase=name)
        t0 = self.clock()
        try:
            yield
        finally:
            self.emit(
                "phase_end", phase=name, wall_s=round(self.clock() - t0, 6)
            )

    # -- counter primitives ----------------------------------------------------

    def record_rule(
        self, rule: Any, derived: int, wall_s: float, firings: int = 1
    ) -> None:
        """Aggregate one kernel call of ``rule``: ``firings`` seeds
        evaluated (1 for an unseeded run), ``derived`` head rows.

        Callers guard on ``enabled``; stats are keyed by rule identity
        and flushed as ``rule_profile`` events by the solver.
        """
        entry = self._rule_stats.get(id(rule))
        if entry is None:
            self._rule_stats[id(rule)] = [rule, firings, derived, wall_s]
        else:
            entry[1] += firings
            entry[2] += derived
            entry[3] += wall_s
        instruments = self._rule_metrics
        if instruments is None:
            m = self.metrics
            instruments = self._rule_metrics = (
                m.counter("rule.firings"),
                m.counter("rule.kernel_calls"),
                m.counter("rule.derived"),
                m.histogram("rule.derived_per_firing"),
                m.timer("rule.wall_s"),
            )
        fired, calls, rows, per_firing, wall = instruments
        fired.inc(firings)
        calls.inc()
        rows.inc(derived)
        per_firing.observe(float(derived))
        wall.observe(wall_s)

    def absorb_rule(
        self, rule: Any, calls: int, derived: int, wall_s: float
    ) -> None:
        """Fold a worker's cumulative statistics for ``rule`` in.

        The shard-barrier counterpart of :meth:`record_rule`: workers
        ship ``(calls, derived, wall)`` per rule index through the pool
        result, and the parent maps indexes back to its own rule objects
        (identity-preserving through ``fork``) before calling this.
        Only the tabular rule stats are updated — the worker's metric
        histograms arrive separately via its registry snapshot, so
        nothing is double-counted.
        """
        entry = self._rule_stats.get(id(rule))
        if entry is None:
            self._rule_stats[id(rule)] = [rule, calls, derived, wall_s]
        else:
            entry[1] += calls
            entry[2] += derived
            entry[3] += wall_s

    def rule_stats(self) -> List[Tuple[Any, int, int, float]]:
        """``(rule, calls, derived, wall_s)`` per executed rule."""
        return [
            (rule, calls, derived, wall)
            for rule, calls, derived, wall in self._rule_stats.values()
        ]

    def count_plan(self, hit: bool) -> None:
        if hit:
            self.plan_hits += 1
        else:
            self.plan_misses += 1
        counter = self._plan_counters[hit]
        if counter is None:
            name = "plan.cache_hits" if hit else "plan.cache_misses"
            counter = self._plan_counters[hit] = self.metrics.counter(name)
        counter.inc()

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Close every sink (flushes the JSONL writer)."""
        for sink in self.sinks:
            sink.close()


#: The shared disabled tracer: the engine's default, compiled down to a
#: single ``tracer.enabled`` check in every hot loop.
NULL_TRACER = Tracer.disabled()
