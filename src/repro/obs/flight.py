"""The flight recorder: a bounded ring-buffer sink for post-mortems.

A :class:`FlightRecorder` is a :class:`~repro.obs.tracer.Sink` that
keeps only the *last* ``capacity`` telemetry events in memory — a
crashed or interrupted solve always has its final moments on record,
however long it ran, at O(capacity) memory.  The CLI attaches one to
every tracer it builds; when a solve ends abnormally (budget exceeded,
cancelled, divergence abort, or an uncaught evaluation error) the ring
is dumped to a JSONL file: one ``postmortem`` header object describing
why, followed by the retained events verbatim.  ``repro postmortem
FILE`` loads a dump and renders the human-readable debrief — the
tail of the event stream, the telemetry digest of whatever was
captured, and the merged metrics quantiles when a
``metrics_snapshot`` event made it into the ring.  See
docs/OBSERVABILITY.md ("Flight recorder lifecycle").
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from typing import Any, Deque, Dict, List, Tuple

from repro.obs.events import SCHEMA_VERSION, validate_event

__all__ = [
    "FlightRecorder",
    "default_dump_path",
    "load_dump",
    "render_postmortem",
]

#: Default ring size: enough to cover the interesting tail (the last
#: few fixpoint rounds plus the end-of-solve flush) at trivial memory.
DEFAULT_CAPACITY = 256


def default_dump_path(directory: str = ".") -> str:
    """A collision-safe postmortem path: timestamp + pid suffix.

    Concurrent solves (several CLI processes, or the ``repro serve``
    request threads) must never clobber each other's postmortems, so the
    default filename embeds a UTC timestamp, the process id, and — for
    same-second dumps within one process — a monotonically increasing
    sequence number.  The name is reserved by creating the (empty) file
    exclusively, so two callers racing for one name never both get it.
    """
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    prefix = os.path.join(directory, f"repro-postmortem-{stamp}-{os.getpid()}")
    candidate = f"{prefix}.jsonl"
    attempt = 1
    while True:
        try:
            open(candidate, "x").close()
            return candidate
        except FileExistsError:
            candidate = f"{prefix}-{attempt}.jsonl"
            attempt += 1


class FlightRecorder:
    """A sink retaining the last ``capacity`` events (and counting the
    rest).  Never raises from ``emit``; safe on every tracer."""

    __slots__ = ("capacity", "events", "dropped")

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("flight recorder capacity must be >= 1")
        self.capacity = capacity
        self.events: Deque[Dict[str, Any]] = deque(maxlen=capacity)
        self.dropped = 0

    def emit(self, event: Dict[str, Any]) -> None:
        if len(self.events) == self.capacity:
            self.dropped += 1
        self.events.append(event)

    def close(self) -> None:
        return None

    def dump(self, path: str, *, status: str, reason: str) -> None:
        """Write the ring as a postmortem JSONL file.

        The first line is the header object (``type: "postmortem"``)
        carrying the schema version, the abnormal-end ``status`` /
        ``reason``, and the ring accounting; every following line is one
        retained event, oldest first.  The dump is replayable: the event
        lines are exactly what a :class:`~repro.obs.tracer.JsonlSink`
        would have written for the retained window.
        """
        header = {
            "type": "postmortem",
            "v": SCHEMA_VERSION,
            "status": status,
            "reason": reason,
            "capacity": self.capacity,
            "retained": len(self.events),
            "dropped": self.dropped,
        }
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            for event in self.events:
                handle.write(json.dumps(event, sort_keys=True) + "\n")


def load_dump(path: str) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """Read a postmortem dump back as ``(header, events)``.

    Raises ``ValueError`` for files that are not flight-recorder dumps
    (so ``repro postmortem`` can fail with a clear message instead of a
    traceback on, say, a plain ``--trace`` file), for **truncated**
    dumps — a process killed mid-write leaves a partial trailing line or
    fewer events than the header's ``retained`` count promises, and a
    debrief from half a ring would silently misattribute the crash — and
    for an event line that :func:`~repro.obs.events.validate_event`
    rejects, so the digest reads only schema-valid fields.  Events are
    checked one by one: a ring may start after ``trace_start``.
    """
    with open(path, encoding="utf-8") as handle:
        lines = [line for line in (raw.strip() for raw in handle) if line]
    if not lines:
        raise ValueError(f"{path}: empty file, not a postmortem dump")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not JSONL ({exc})") from exc
    if not isinstance(header, dict) or header.get("type") != "postmortem":
        raise ValueError(
            f"{path}: first line is not a postmortem header (expected "
            f'{{"type": "postmortem", ...}}; is this a plain --trace file?)'
        )
    events: List[Dict[str, Any]] = []
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            event = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"{path}:{lineno}: truncated dump — line is not valid "
                f"JSON ({exc}); the writer was probably killed mid-dump"
            ) from exc
        problems = validate_event(event, where=f"{path}:{lineno}")
        if problems:
            raise ValueError("; ".join(problems))
        events.append(event)
    retained = header.get("retained")
    if isinstance(retained, int) and len(events) < retained:
        raise ValueError(
            f"{path}: truncated dump — header promises {retained} "
            f"retained events but only {len(events)} are present; the "
            f"writer was probably killed mid-dump"
        )
    return header, events


def render_postmortem(
    header: Dict[str, Any],
    events: List[Dict[str, Any]],
    *,
    tail: int = 10,
) -> str:
    """The human-readable debrief behind ``repro postmortem``."""
    from repro.obs.summary import summarize

    lines: List[str] = []
    status = header.get("status", "?")
    reason = header.get("reason") or "(no reason recorded)"
    lines.append(f"== postmortem: {status} ==")
    lines.append(f"reason: {reason}")
    retained = header.get("retained", len(events))
    dropped = header.get("dropped", 0)
    lines.append(
        f"flight recorder: {retained} events retained "
        f"(capacity {header.get('capacity', '?')}, {dropped} older "
        f"events dropped), schema v{header.get('v', '?')}"
    )
    summary = summarize(events)
    lines.append("")
    lines.append("-- captured telemetry --")
    # render_stats covers the metric quantile lines too when a
    # ``metrics_snapshot`` event made it into the ring.
    stats = summary.render_stats()
    lines.append(stats if stats else "(no summarisable events in the ring)")
    lines.append("")
    lines.append(f"-- last {min(tail, len(events))} events --")
    if not events:
        lines.append("(ring is empty)")
    for event in events[max(len(events) - tail, 0):]:
        extras = " ".join(
            f"{key}={_short(value)}"
            for key, value in event.items()
            if key not in ("v", "seq", "t", "type")
        )
        lines.append(
            f"  seq={event.get('seq', '?'):>4} t={event.get('t', 0.0):>9.6f} "
            f"{event.get('type', '?'):<20s} {extras}".rstrip()
        )
    return "\n".join(lines)


def _short(value: Any) -> str:
    """A compact rendering of one event field for the tail listing."""
    if isinstance(value, dict):
        return f"<{len(value)} keys>"
    if isinstance(value, list):
        return f"<{len(value)} items>"
    text = repr(value)
    return text if len(text) <= 40 else text[:37] + "..."
