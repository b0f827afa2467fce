"""The telemetry digest of a traced solve and its human-readable renderings.

:func:`summarize` groups a traced solve's event stream
(:mod:`repro.obs.events`) by ``type`` into a :class:`TelemetrySummary` —
the object attached to :attr:`repro.engine.solver.SolveResult.telemetry`.
Its views and renderers read the event fields named in
:data:`repro.obs.events.EVENT_TYPES` directly, so a telemetry field is
declared there and nowhere else.  The renderers behind ``repro solve
--stats`` (:meth:`TelemetrySummary.render_stats`) and ``repro profile``
(:meth:`TelemetrySummary.render_profile`) live here too, as does the
convergence :func:`sparkline`.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.metrics import quantiles as _metric_quantiles

Event = Dict[str, Any]

_SPARK_BLOCKS = "▁▂▃▄▅▆▇█"

#: What a component row reads when its ``scc_start`` or ``scc_end`` fell
#: outside a flight recorder's window.
_SCC_DEFAULTS: Event = {"predicates": (), "iterations": 0, "atoms": 0, "wall_s": 0.0}


def sparkline(values: Sequence[float]) -> str:
    """A unicode block sparkline of ``values`` (empty input → '')."""
    if not values:
        return ""
    top = max(values)
    if top <= 0:
        return _SPARK_BLOCKS[0] * len(values)
    out = []
    for value in values:
        rank = int(round((len(_SPARK_BLOCKS) - 1) * max(value, 0) / top))
        out.append(_SPARK_BLOCKS[rank])
    return "".join(out)


class TelemetrySummary:
    """The digest of one traced solve: its events, grouped by ``type``.

    Partial streams (a crashed solve, a flight recorder's ring) digest
    what they hold: a component row joins whichever of its ``scc_start``
    and ``scc_end`` events are present.
    """

    __slots__ = ("events",)

    def __init__(self, events: Iterable[Event] = ()) -> None:
        #: ``type`` → that type's events, in stream order.
        self.events: Dict[str, List[Event]] = {}
        for event in events:
            self.events.setdefault(event["type"], []).append(event)

    def _of(self, kind: str) -> List[Event]:
        return self.events.get(kind, [])

    def _last(self, kind: str) -> Optional[Event]:
        found = self.events.get(kind)
        return found[-1] if found else None

    # -- views ---------------------------------------------------------------

    def sccs(self) -> List[Event]:
        """One row per component, by index: its ``scc_start`` fields
        over its ``scc_end`` fields over :data:`_SCC_DEFAULTS`."""
        rows: Dict[int, Event] = {}
        for kind in ("scc_end", "scc_start"):
            for event in self._of(kind):
                rows.setdefault(event["scc"], dict(_SCC_DEFAULTS)).update(event)
        return [rows[index] for index in sorted(rows)]

    def hot_rules(self, top: Optional[int] = None) -> List[Event]:
        """``rule_profile`` events ranked by cumulative executor wall
        time, hottest first."""
        ranked = sorted(
            self._of("rule_profile"),
            key=lambda e: (-e["wall_s"], -e["derived"], e["rule_index"]),
        )
        return ranked[:top] if top is not None else ranked

    def hot_predicates(self) -> List[Tuple[str, int, int, float]]:
        """``(head predicate, calls, derived, wall_s)`` ranked by time."""
        grouped: Dict[str, List[Any]] = {}
        for event in self._of("rule_profile"):
            entry = grouped.setdefault(event["head"], [0, 0, 0.0])
            entry[0] += event["calls"]
            entry[1] += event["derived"]
            entry[2] += event["wall_s"]
        ranked = sorted(grouped.items(), key=lambda kv: -kv[1][2])
        return [(head, calls, derived, wall) for head, (calls, derived, wall) in ranked]

    def convergence(self, scc: int) -> List[int]:
        """Delta sizes per round of one SCC — the sparkline data."""
        return [e["delta_atoms"] for e in self._of("iteration") if e["scc"] == scc]

    def _metrics(self) -> Dict[str, Any]:
        """The merged registry snapshot of the last ``metrics_snapshot``
        (it covers worker-side work for sharded solves)."""
        snapshot = self._last("metrics_snapshot")
        metrics: Dict[str, Any] = snapshot["metrics"] if snapshot else {}
        return metrics

    def metric_quantiles(
        self, name: str
    ) -> Optional[Dict[str, Optional[float]]]:
        """p50/p95/p99 of one histogram/timer metric (None if absent)."""
        payload = self._metrics().get(name)
        if not isinstance(payload, dict) or payload.get("kind") not in (
            "histogram",
            "timer",
        ):
            return None
        return _metric_quantiles(payload)

    def metric_value(self, name: str) -> Optional[float]:
        """A counter/gauge metric's value (None if absent)."""
        payload = self._metrics().get(name)
        if isinstance(payload, dict) and payload.get("kind") in (
            "counter",
            "gauge",
        ):
            value = payload.get("value")
            return None if value is None else float(value)
        return None

    def workers_for(self, scc: int) -> List[Event]:
        """The ``worker_telemetry`` relays of one sharded component."""
        return [e for e in self._of("worker_telemetry") if e["scc"] == scc]

    # -- rendering ------------------------------------------------------------

    def render_stats(self) -> str:
        """The compact stderr table behind ``repro solve --stats``."""
        lines = self._phase_lines()
        sccs = self.sccs()
        if sccs:
            lines.append("scc  predicates                     method     iters  atoms  wall_s")
        for row in sccs:
            verdict = f"  [{row['verdict']}]" if row.get("verdict") else ""
            lines.append(
                f"{row['scc']:<4d} {_label(row):<30s} {row['method']:<10s} "
                f"{row['iterations']:<6d} {row['atoms']:<6d} {row['wall_s']:.4f}"
                f"{verdict}"
            )
        for rule in self.hot_rules(5):
            lines.append(
                f"rule {rule['rule_index']:<3d} calls={rule['calls']:<5d} "
                f"derived={rule['derived']:<6d} wall={rule['wall_s']:.4f}s  "
                f"{rule['rule']}"
            )
        lines.extend(self._counter_lines())
        lines.extend(self._worker_lines())
        lines.extend(self._metric_lines())
        lines.extend(self._total_lines("solve"))
        return "\n".join(lines)

    def render_profile(self, top: int = 10) -> str:
        """The ranked hot-rule / hot-predicate report of ``repro profile``."""
        start = self._last("trace_start") or {}
        lines = [f"== profile: {start.get('program') or 'solve'} =="]
        lines.extend(self._phase_lines())
        lines.append("")
        lines.append(f"hot rules (top {top} by cumulative executor time):")
        lines.append("  rank   wall_s  calls  derived  rule")
        for rank, rule in enumerate(self.hot_rules(top), start=1):
            lines.append(
                f"  {rank:<4d} {rule['wall_s']:8.4f} {rule['calls']:6d} "
                f"{rule['derived']:8d}  {rule['rule']}"
            )
        if not self._of("rule_profile"):
            lines.append("  (no rules executed)")
        lines.append("")
        lines.append("hot predicates:")
        for head, calls, derived, wall in self.hot_predicates():
            lines.append(
                f"  {head:<24s} wall={wall:8.4f}s calls={calls:<6d} "
                f"derived={derived}"
            )
        lines.append("")
        lines.append("convergence (delta atoms per fixpoint round):")
        for row in self.sccs():
            spark = sparkline([float(d) for d in self.convergence(row["scc"])])
            verdict = f" [{row['verdict']}]" if row.get("verdict") else ""
            reasons = row.get("reasons")
            reason = f" — {'; '.join(reasons)}" if reasons else ""
            lines.append(
                f"  scc {row['scc']} {_label(row)}: {row['method']}"
                f"{verdict}{reason}"
            )
            lines.append(
                f"    {row['iterations']} rounds, {row['atoms']} atoms, "
                f"{row['wall_s']:.4f}s  {spark}"
            )
        lines.extend(self._counter_lines())
        lines.extend(self._worker_lines())
        metric_lines = self._metric_lines()
        if metric_lines:
            lines.append("")
            lines.extend(metric_lines)
        lines.extend(self._total_lines("total"))
        return "\n".join(lines)

    def _phase_lines(self) -> List[str]:
        phases = self._of("phase_end")
        if not phases:
            return []
        rendered = ", ".join(f"{p['phase']} {p['wall_s']:.4f}s" for p in phases)
        return [f"phases: {rendered}"]

    def _counter_lines(self) -> List[str]:
        counters = self._last("counters")
        if counters is None:
            return []
        lines: List[str] = []
        for field, title in (("index", "index"), ("plan_cache", "plan cache")):
            if counters[field]:
                rendered = " ".join(
                    f"{k}={v}" for k, v in sorted(counters[field].items())
                )
                lines.append(f"{title}: {rendered}")
        return lines

    def _worker_lines(self) -> List[str]:
        """One line per relayed shard-worker telemetry event."""
        return [
            f"worker: scc={e['scc']} shard={e['shard']} "
            f"iters={e['iterations']} atoms={e['atoms']} rules={e['rules']}"
            for e in self._of("worker_telemetry")
        ]

    def _metric_lines(self) -> List[str]:
        """Histogram/timer quantile lines from the merged snapshot."""
        lines: List[str] = []
        for name, payload in sorted(self._metrics().items()):
            q = self.metric_quantiles(name)
            if q is None:
                continue
            rendered = " ".join(
                f"{label}={value:.6g}"
                for label, value in q.items()
                if value is not None
            )
            lines.append(
                f"metric {name}: count={payload.get('count', 0)} {rendered}"
                .rstrip()
            )
        return lines

    def _total_lines(self, title: str) -> List[str]:
        end = self._last("solve_end")
        if end is None:
            return []
        return [
            f"{title}: {end['iterations']} iterations, {end['atoms']} atoms, "
            f"{end['wall_s']:.4f}s"
        ]


def _label(row: Event) -> str:
    return "{" + ", ".join(row["predicates"]) + "}"


def summarize(events: Iterable[Event]) -> TelemetrySummary:
    """Group an event stream into a :class:`TelemetrySummary`."""
    return TelemetrySummary(events)
