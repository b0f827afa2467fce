"""Mergeable metrics: counters, gauges, timers and log-linear histograms.

The metrics plane follows the same two-phase discipline as the aggregate
algebra of :mod:`repro.aggregates` (docs/PARALLELISM.md): every
instrument is a *state* that snapshots to plain JSON-serialisable data,
and restoring a snapshot into an instrument is its one associative,
commutative merge.  A registry populated inside a shard worker is
shipped across the process boundary as a snapshot and folded into the
parent's registry at the barrier — the merged registry is independent
of worker count and merge order for every count-valued field (float
``sum`` accumulators are merged in deterministic shard order, mirroring
the canonical-order folds of ``aggregates/standard``).

Instruments (``restore`` is the merge):

* :class:`Counter` — a monotone event count; the merge is ``+``.
* :class:`Gauge` — a high-water level (e.g. peak model size); the merge
  is ``max``, the join of the reals-ordered lattice, so a merged gauge
  is the fleet-wide peak.
* :class:`Histogram` — a log-linear distribution sketch: values are
  binned into :data:`SUBBUCKETS` linear sub-buckets per power-of-two
  octave (relative error ≤ 1/:data:`SUBBUCKETS` at the bucket bound),
  stored sparsely.  The merge is bucket-wise ``+``; quantile estimates
  (:meth:`Histogram.quantile`) read the merged counts, so p50/p95/p99
  over sharded work are computed from full-fidelity per-observation
  data, not averages of averages.
* :class:`Timer` — a histogram of seconds, rendered with its quantiles.

A :class:`MetricsRegistry` names instruments, snapshots to and merges
plain dicts (:meth:`MetricsRegistry.snapshot` /
:meth:`MetricsRegistry.merge_snapshot` — the wire format of the
``metrics_snapshot`` and ``worker_telemetry`` events, obs schema v5),
and renders as aligned text or Prometheus exposition format
(``repro metrics --format prometheus``).  See docs/OBSERVABILITY.md.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Mapping, Optional, Tuple, Type

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Timer",
    "MetricsRegistry",
    "quantiles",
]

#: Linear sub-buckets per power-of-two octave.  8 bounds the relative
#: quantile error at 12.5% — plenty for latency orders of magnitude —
#: while keeping sparse histograms a handful of integers.
SUBBUCKETS = 8

#: The quantiles every renderer reports.
QUANTILES: Tuple[float, ...] = (0.5, 0.95, 0.99)


class Counter:
    """A monotone event count.  The merge is addition (exact: ints)."""

    kind = "counter"
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def snapshot(self) -> Dict[str, Any]:
        return {"kind": self.kind, "value": self.value}

    def restore(self, state: Mapping[str, Any]) -> None:
        self.value += int(state.get("value", 0))


class Gauge:
    """A high-water level.  The merge is ``max`` (the lattice join on
    reals-ordered levels), so merged gauges report the fleet-wide peak."""

    kind = "gauge"
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: Optional[float] = None

    def set(self, value: float) -> None:
        """Record a level; the gauge keeps the maximum seen."""
        if self.value is None or value > self.value:
            self.value = value

    def snapshot(self) -> Dict[str, Any]:
        return {"kind": self.kind, "value": self.value}

    def restore(self, state: Mapping[str, Any]) -> None:
        value = state.get("value")
        if value is not None:
            self.set(float(value))


def _bucket_index(value: float) -> int:
    """The log-linear bucket owning ``value`` (> 0).

    Octave ``e`` covers ``[2^e, 2^(e+1))``, split into
    :data:`SUBBUCKETS` equal linear slices; the index is
    ``e * SUBBUCKETS + slice``.  Pure integer/float arithmetic with no
    randomness: the same observation lands in the same bucket in every
    process, which is what makes merged quantiles deterministic.
    """
    mantissa, exponent = math.frexp(value)  # value = mantissa * 2**exponent
    # frexp yields mantissa in [0.5, 1); rescale to [1, 2) at 2**(e-1).
    octave = exponent - 1
    sub = int((mantissa * 2.0 - 1.0) * SUBBUCKETS)
    if sub >= SUBBUCKETS:  # guard the mantissa == 1.0 - ulp edge
        sub = SUBBUCKETS - 1
    return octave * SUBBUCKETS + sub


def _bucket_upper(index: int) -> float:
    """The exclusive upper bound of bucket ``index`` — the quantile
    estimate reported for observations inside it (conservative)."""
    octave, sub = divmod(index, SUBBUCKETS)
    return math.ldexp(1.0 + (sub + 1) / SUBBUCKETS, octave)


class Histogram:
    """A sparse log-linear distribution sketch with mergeable state.

    Non-positive observations land in a dedicated zero bucket (delta
    sizes and durations are never negative; a zero is a real data
    point).  Bucket counts are exact integers, so the merge is exact and
    order-independent; ``sum`` is a float accumulator merged in caller
    order (documented in docs/OBSERVABILITY.md).
    """

    kind = "histogram"
    __slots__ = ("count", "total", "zero", "vmin", "vmax", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.zero = 0
        self.vmin: Optional[float] = None
        self.vmax: Optional[float] = None
        self.buckets: Dict[int, int] = {}

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.vmin is None or value < self.vmin:
            self.vmin = value
        if self.vmax is None or value > self.vmax:
            self.vmax = value
        if value <= 0.0:
            self.zero += 1
        else:
            index = _bucket_index(value)
            self.buckets[index] = self.buckets.get(index, 0) + 1

    def quantile(self, q: float) -> Optional[float]:
        """The log-linear estimate of the ``q``-quantile (None if empty).

        Walks the zero bucket and then the sparse buckets in index order
        until the cumulative count reaches ``ceil(q * count)``; reports
        the bucket's upper bound, clamped to the exact observed maximum.
        Deterministic given the bucket counts — merged histograms yield
        the same quantiles regardless of worker count or merge order.
        """
        if self.count == 0:
            return None
        target = max(1, math.ceil(q * self.count))
        seen = self.zero
        if seen >= target:
            return 0.0
        for index in sorted(self.buckets):
            seen += self.buckets[index]
            if seen >= target:
                estimate = _bucket_upper(index)
                if self.vmax is not None and estimate > self.vmax:
                    return self.vmax
                return estimate
        return self.vmax  # pragma: no cover - counts always add up

    def quantiles(self) -> Dict[str, Optional[float]]:
        """The standard p50/p95/p99 report (:data:`QUANTILES`)."""
        return {f"p{int(q * 100)}": self.quantile(q) for q in QUANTILES}

    def snapshot(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "count": self.count,
            "sum": self.total,
            "zero": self.zero,
            "min": self.vmin,
            "max": self.vmax,
            # JSON object keys are strings; sorted for stable output.
            "buckets": {
                str(index): self.buckets[index]
                for index in sorted(self.buckets)
            },
        }

    def restore(self, state: Mapping[str, Any]) -> None:
        self.count += int(state.get("count", 0))
        self.total += float(state.get("sum", 0.0))
        self.zero += int(state.get("zero", 0))
        vmin = state.get("min")
        if vmin is not None and (self.vmin is None or vmin < self.vmin):
            self.vmin = float(vmin)
        vmax = state.get("max")
        if vmax is not None and (self.vmax is None or vmax > self.vmax):
            self.vmax = float(vmax)
        for key, n in dict(state.get("buckets", {})).items():
            index = int(key)
            self.buckets[index] = self.buckets.get(index, 0) + int(n)


class Timer(Histogram):
    """A histogram of durations in seconds."""

    kind = "timer"
    __slots__ = ()


Instrument = Any  # Counter | Gauge | Histogram | Timer

_KINDS: Dict[str, Type[Any]] = {
    "counter": Counter,
    "gauge": Gauge,
    "histogram": Histogram,
    "timer": Timer,
}


def quantiles(snapshot: Mapping[str, Any]) -> Dict[str, Optional[float]]:
    """p50/p95/p99 recomputed from a histogram/timer *snapshot* dict —
    the helper summaries and the postmortem renderer use to report
    quantiles out of serialized ``metrics_snapshot`` payloads."""
    histogram = Histogram()
    histogram.restore(snapshot)
    return histogram.quantiles()


class MetricsRegistry:
    """Named instruments with get-or-create accessors and a snapshot
    merge.

    The registry is the object a :class:`~repro.obs.tracer.Tracer`
    carries: the engine's instrumentation sites call
    ``tracer.metrics.counter("fixpoint.rounds").inc()`` and friends
    (always behind the ``tracer.enabled`` guard), shard workers snapshot
    theirs into the pool result, and the parent folds every worker
    snapshot back in with :meth:`merge_snapshot`.
    """

    __slots__ = ("_instruments",)

    def __init__(self) -> None:
        self._instruments: Dict[str, Instrument] = {}

    # -- get-or-create accessors ---------------------------------------------

    def _get(self, name: str, kind: str) -> Instrument:
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = _KINDS[kind]()
            self._instruments[name] = instrument
        elif instrument.kind != kind:
            raise ValueError(
                f"metric {name!r} is a {instrument.kind}, not a {kind}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        instrument: Counter = self._get(name, "counter")
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument: Gauge = self._get(name, "gauge")
        return instrument

    def histogram(self, name: str) -> Histogram:
        instrument: Histogram = self._get(name, "histogram")
        return instrument

    def timer(self, name: str) -> Timer:
        instrument: Timer = self._get(name, "timer")
        return instrument

    # -- views ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._instruments)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def names(self) -> List[str]:
        return sorted(self._instruments)

    def get(self, name: str) -> Optional[Instrument]:
        return self._instruments.get(name)

    # -- the two-phase merge -------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """The registry as plain JSON-serialisable data — the wire
        format shipped in ``worker_telemetry`` / ``metrics_snapshot``
        events and across the shard pool boundary."""
        return {
            name: self._instruments[name].snapshot()
            for name in sorted(self._instruments)
        }

    def merge_snapshot(self, state: Mapping[str, Mapping[str, Any]]) -> None:
        """Fold a :meth:`snapshot` payload in, restoring each entry into
        the same-named instrument (associative and commutative on every
        count-valued field; see the module docstring)."""
        for name, payload in state.items():
            kind = str(payload.get("kind", "counter"))
            if kind not in _KINDS:
                raise ValueError(f"metric {name!r} has unknown kind {kind!r}")
            self._get(name, kind).restore(payload)

    # -- rendering -----------------------------------------------------------

    def render_text(self) -> str:
        """Aligned human-readable listing (``repro metrics``)."""
        lines: List[str] = []
        width = max((len(n) for n in self._instruments), default=0)
        for name in sorted(self._instruments):
            instrument = self._instruments[name]
            if instrument.kind == "counter":
                lines.append(f"counter    {name:<{width}s}  {instrument.value}")
            elif instrument.kind == "gauge":
                value = instrument.value
                rendered = "-" if value is None else f"{value:g}"
                lines.append(f"gauge      {name:<{width}s}  {rendered}")
            else:
                q = instrument.quantiles()
                stats = " ".join(
                    f"{label}={value:.6g}"
                    for label, value in q.items()
                    if value is not None
                )
                lines.append(
                    f"{instrument.kind:<10s} {name:<{width}s}  "
                    f"count={instrument.count} sum={instrument.total:.6g} "
                    f"min={0.0 if instrument.vmin is None else instrument.vmin:.6g} "
                    f"max={0.0 if instrument.vmax is None else instrument.vmax:.6g} "
                    f"{stats}".rstrip()
                )
        return "\n".join(lines)

    def render_prometheus(self, prefix: str = "repro") -> str:
        """Prometheus text exposition format (version 0.0.4).

        Counters get a ``_total`` suffix per convention; histograms and
        timers expose cumulative ``_bucket{le="..."}`` series over their
        sparse log-linear bounds plus ``_sum`` / ``_count``.  Gauges
        that never recorded a level are omitted (no NaN samples).
        """
        lines: List[str] = []
        for name in sorted(self._instruments):
            instrument = self._instruments[name]
            metric = _promname(prefix, name)
            if instrument.kind == "counter":
                lines.append(f"# TYPE {metric}_total counter")
                lines.append(f"{metric}_total {instrument.value}")
            elif instrument.kind == "gauge":
                if instrument.value is None:
                    continue
                lines.append(f"# TYPE {metric} gauge")
                lines.append(f"{metric} {_promfloat(instrument.value)}")
            else:
                lines.append(f"# TYPE {metric} histogram")
                cumulative = instrument.zero
                if instrument.zero:
                    lines.append(f'{metric}_bucket{{le="0"}} {cumulative}')
                for index in sorted(instrument.buckets):
                    cumulative += instrument.buckets[index]
                    bound = _promfloat(_bucket_upper(index))
                    lines.append(
                        f'{metric}_bucket{{le="{bound}"}} {cumulative}'
                    )
                lines.append(f'{metric}_bucket{{le="+Inf"}} {instrument.count}')
                lines.append(f"{metric}_sum {_promfloat(instrument.total)}")
                lines.append(f"{metric}_count {instrument.count}")
        return "\n".join(lines)


def _promname(prefix: str, name: str) -> str:
    """A valid Prometheus metric name: ``[a-zA-Z_:][a-zA-Z0-9_:]*``."""
    safe = "".join(c if c.isalnum() or c == "_" else "_" for c in name)
    if safe and safe[0].isdigit():  # pragma: no cover - defensive
        safe = "_" + safe
    return f"{prefix}_{safe}"


def _promfloat(value: float) -> str:
    """A float rendered the way Prometheus parses it back exactly."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)
