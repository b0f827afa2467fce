"""``repro.obs`` — engine telemetry: structured tracing and profiling.

A zero-dependency instrumentation subsystem threaded through the solve
path (see docs/OBSERVABILITY.md):

* :mod:`repro.obs.events` — the versioned event schema and its in-tree
  validator (``repro validate-trace``);
* :mod:`repro.obs.tracer` — the :class:`Tracer` (span / counter / event
  primitives) and its sinks (:class:`CollectorSink` in-memory,
  :class:`JsonlSink` streaming); the shared :data:`NULL_TRACER` is the
  disabled fast path every hot loop checks before doing any work;
* :mod:`repro.obs.summary` — :class:`TelemetrySummary`, the structured
  per-rule / per-iteration digest attached to
  :attr:`repro.engine.solver.SolveResult.telemetry`, plus the renderers
  behind ``repro solve --stats`` and ``repro profile``;
* :mod:`repro.obs.metrics` — the mergeable-instrument registry
  (:class:`MetricsRegistry`: counters, gauges, timers, log-linear
  histograms) whose associative ``merge`` lets shard workers collect
  full-fidelity metrics locally and the parent fold them at the
  barrier — the same two-phase discipline as the aggregate algebra;
* :mod:`repro.obs.flight` — the :class:`FlightRecorder` bounded ring
  sink and the ``repro postmortem`` dump/render helpers.

Telemetry is strictly opt-in: an untraced solve goes through
:data:`NULL_TRACER`, whose ``enabled`` flag keeps every instrumentation
site down to a single attribute check.
"""

from repro.obs.events import (
    SCHEMA_VERSION,
    validate_event,
    validate_events,
    validate_jsonl,
)
from repro.obs.flight import (
    FlightRecorder,
    default_dump_path,
    load_dump,
    render_postmortem,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Timer,
)
from repro.obs.summary import (
    TelemetrySummary,
    WorkerStat,
    sparkline,
    summarize,
)
from repro.obs.tracer import (
    NULL_TRACER,
    CollectorSink,
    JsonlSink,
    Sink,
    Tracer,
)

__all__ = [
    "SCHEMA_VERSION",
    "validate_event",
    "validate_events",
    "validate_jsonl",
    "TelemetrySummary",
    "WorkerStat",
    "summarize",
    "sparkline",
    "Tracer",
    "Sink",
    "CollectorSink",
    "JsonlSink",
    "NULL_TRACER",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "Timer",
    "FlightRecorder",
    "default_dump_path",
    "load_dump",
    "render_postmortem",
]
