"""The versioned telemetry event schema and its validator.

Every event is a flat JSON object carrying the common envelope

* ``v`` — the schema version (:data:`SCHEMA_VERSION`),
* ``seq`` — a strictly increasing per-trace sequence number,
* ``t`` — seconds since the trace started (monotonic clock),
* ``type`` — one of :data:`EVENT_TYPES`,

plus the per-type payload fields listed in :data:`EVENT_TYPES`.  The
schema is intentionally hand-rolled (no ``jsonschema`` dependency): each
payload field maps to ``(accepted types, required)``; unknown fields are
rejected so schema drift fails loudly in the golden tests and the CI
``profile-smoke`` gate.  See docs/OBSERVABILITY.md for the prose
description of every event.

Bump :data:`SCHEMA_VERSION` whenever a field is added, removed or
changes meaning.

Version history: v1 — initial schema; v2 — supervision events; v3 —
``rewrite_applied``; v4 — sharded execution events; v5 — the metrics
plane (``metrics_snapshot``, ``worker_telemetry``); v6 — request-scoped
serving events.  Only the current version is read: an event stamped
with any other ``v`` is one problem naming the version found and the
one understood.  Traces from an older schema are re-recorded, not
upgraded.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

#: Version stamped into every event's ``v`` field, and the only one read.
SCHEMA_VERSION = 6

_NUM = (int, float)
_OPT_STR = (str, type(None))
_OPT_INT = (int, type(None))

#: ``type`` → payload field → ((accepted python types, ...), required).
EVENT_TYPES: Dict[str, Dict[str, Tuple[Tuple[type, ...], bool]]] = {
    # One per trace, always first: identifies the producing program.
    "trace_start": {
        "program": (_OPT_STR, False),
    },
    # Wall-clock spans around the coarse pipeline stages
    # (parse / analyze / classify / solve / ...).
    "phase_start": {
        "phase": ((str,), True),
    },
    "phase_end": {
        "phase": ((str,), True),
        "wall_s": (_NUM, True),
    },
    # One per applied aggregate pushdown (v3): the solver rewrote the
    # program before evaluation — ``head``'s ``aggregate`` over
    # ``predicate`` now reads the collapsed ``auxiliary`` frontier.
    "rewrite_applied": {
        "head": ((str,), True),
        "predicate": ((str,), True),
        "auxiliary": ((str,), True),
        "aggregate": ((str,), True),
    },
    # One per strongly connected component, in bottom-up solve order.
    "scc_start": {
        "scc": ((int,), True),
        "predicates": ((list,), True),
        "method": ((str,), True),
        "verdict": (_OPT_STR, False),
        "reasons": ((list,), False),
        "rules": ((int,), True),
    },
    # One per T_P application / settled atom within an SCC's fixpoint.
    "iteration": {
        "scc": ((int,), True),
        "iteration": ((int,), True),
        "delta_atoms": ((int,), True),
        "new_atoms": ((int,), True),
        "changed_atoms": ((int,), True),
        "total_atoms": ((int,), True),
        "wall_s": (_NUM, True),
    },
    "scc_end": {
        "scc": ((int,), True),
        "method": ((str,), True),
        "iterations": ((int,), True),
        "atoms": ((int,), True),
        "wall_s": (_NUM, True),
    },
    # Cumulative per-rule executor statistics, emitted at solve end.
    "rule_profile": {
        "rule": ((str,), True),
        "rule_index": ((int,), True),
        "head": ((str,), True),
        "scc": (_OPT_INT, False),
        "calls": ((int,), True),
        "derived": ((int,), True),
        "wall_s": (_NUM, True),
    },
    # Index / plan-cache counters for the whole solve.
    "counters": {
        "index": ((dict,), True),
        "plan_cache": ((dict,), True),
    },
    "solve_end": {
        "iterations": ((int,), True),
        "atoms": ((int,), True),
        "wall_s": (_NUM, True),
    },
    # -- supervision events (v2): budgets, cancellation, divergence ----
    # A resource budget tripped; the solve degrades to a partial result.
    "budget_exceeded": {
        "kind": ((str,), True),  # timeout | iterations | atoms | ...
        "limit": (_NUM, True),
        "scc": (_OPT_INT, False),
        "iteration": (_OPT_INT, False),
    },
    # A CancelToken fired (caller or SIGINT); honored at a safe boundary.
    "cancelled": {
        "scc": (_OPT_INT, False),
        "iteration": (_OPT_INT, False),
    },
    # The solver snapshotted a resumable checkpoint of the partial model.
    "checkpoint": {
        "status": ((str,), True),
        "component": ((int,), True),
        "atoms": ((int,), True),
        "path": (_OPT_STR, False),
    },
    # A divergence heuristic flagged the running fixpoint (MAD7xx).
    "divergence_warning": {
        "code": ((str,), True),
        "scc": ((int,), True),
        "iteration": ((int,), True),
        "detail": ((str,), True),
    },
    # -- sharded execution events (v4): plan="sharded" solves ----------
    # One per component under plan="sharded": the shard-safety verdict
    # (MAD901-903) and whether the solver sharded or fell back; on
    # fallback ``reason`` names the first failing witness, matching the
    # lint message.
    "shard_plan": {
        "scc": ((int,), True),
        "predicates": ((list,), True),
        "status": ((str,), True),  # shardable | ... | blocked | unknown
        "action": ((str,), True),  # sharded | fallback
        "reason": ((str,), True),  # empty when action == "sharded"
        "shards": ((int,), True),
        "workers": ((int,), True),
    },
    # One per sharded component after the barrier: fan-out shape and the
    # wall-clock of the whole fork/fixpoint/merge span.
    "shard_merge": {
        "scc": ((int,), True),
        "shards": ((int,), True),  # partitions actually populated
        "workers": ((int,), True),  # pool size actually used
        "atoms": ((int,), True),
        "wall_s": (_NUM, True),
    },
    # -- metrics plane (v5): mergeable instruments ---------------------
    # One per shard of a traced sharded component: the worker's locally
    # collected telemetry, relayed through the pool result and merged
    # parent-side at the barrier.  ``metrics`` is the worker registry's
    # snapshot (repro.obs.metrics wire format); ``rules`` counts the
    # distinct rules the worker profiled (the per-rule statistics
    # themselves are folded into the solve-end ``rule_profile`` events).
    "worker_telemetry": {
        "scc": ((int,), True),
        "shard": ((int,), True),
        "iterations": ((int,), True),
        "atoms": ((int,), True),
        "rules": ((int,), True),
        "metrics": ((dict,), True),
    },
    # Once at solve end: the solve's merged metrics registry (counters,
    # gauges, timers, log-linear histograms), covering parent and worker
    # work alike.  Render with ``repro metrics``.
    "metrics_snapshot": {
        "metrics": ((dict,), True),
    },
    # -- serving events (v6): the ``repro serve`` request plane --------
    # One per admitted request, before the solve thread starts.
    "request_start": {
        "request": ((str,), True),  # opaque per-process request id
        "database": ((str,), True),
        "query": (_OPT_STR, False),
    },
    # One per finished request: the supervisor outcome and its HTTP
    # mapping (docs/SERVING.md).  ``postmortem`` references the flight
    # dump written for abnormal endings; ``checkpoint`` the drain
    # checkpoint of a still-running solve.
    "request_end": {
        "request": ((str,), True),
        "database": ((str,), True),
        "status": ((str,), True),  # complete | timeout | ... | error
        "http_status": ((int,), True),
        "wall_s": (_NUM, True),
        "atoms": (_OPT_INT, False),
        "postmortem": (_OPT_STR, False),
        "checkpoint": (_OPT_STR, False),
    },
    # One per load-shed request: admission control refused it because
    # the in-flight and queue bounds were both saturated (HTTP 503).
    "request_shed": {
        "request": ((str,), True),
        "inflight": ((int,), True),
        "queued": ((int,), True),
        "retry_after": (_NUM, True),
    },
    # Once per graceful shutdown: the drain summary (docs/SERVING.md).
    "server_drain": {
        "inflight": ((int,), True),
        "cancelled": ((int,), True),
        "checkpointed": ((int,), True),
        "wall_s": (_NUM, True),
    },
}

#: The common envelope every event carries.
ENVELOPE: Dict[str, Tuple[Tuple[type, ...], bool]] = {
    "v": ((int,), True),
    "seq": ((int,), True),
    "t": (_NUM, True),
    "type": ((str,), True),
}


def _type_names(accepted: Tuple[type, ...]) -> str:
    return " | ".join(t.__name__ for t in accepted)


def validate_event(event: Any, *, where: str = "event") -> List[str]:
    """Schema violations of a single event (empty list = valid)."""
    if not isinstance(event, Mapping):
        return [f"{where}: not a JSON object"]
    problems: List[str] = []
    for field, (accepted, required) in ENVELOPE.items():
        if field not in event:
            if required:
                problems.append(f"{where}: missing envelope field {field!r}")
            continue
        value = event[field]
        # bool is an int subclass; counters are never booleans.
        if isinstance(value, bool) or not isinstance(value, accepted):
            problems.append(
                f"{where}: envelope field {field!r} must be "
                f"{_type_names(accepted)}, got {type(value).__name__}"
            )
    version = event.get("v")
    if (
        isinstance(version, int)
        and not isinstance(version, bool)
        and version != SCHEMA_VERSION
    ):
        problems.append(
            f"{where}: schema version {version} is not the one this "
            f"validator reads (v{SCHEMA_VERSION}); re-record the trace"
        )
        return problems
    event_type = event.get("type")
    if not isinstance(event_type, str):
        return problems
    payload_schema = EVENT_TYPES.get(event_type)
    if payload_schema is None:
        problems.append(f"{where}: unknown event type {event_type!r}")
        return problems
    for field, (accepted, required) in payload_schema.items():
        if field not in event:
            if required:
                problems.append(
                    f"{where}: {event_type} missing field {field!r}"
                )
            continue
        value = event[field]
        if isinstance(value, bool) or (
            value is not None and not isinstance(value, accepted)
        ):
            if not (value is None and type(None) in accepted):
                problems.append(
                    f"{where}: {event_type}.{field} must be "
                    f"{_type_names(accepted)}, got {type(value).__name__}"
                )
    known = set(ENVELOPE) | set(payload_schema)
    for field in event:
        if field not in known:
            problems.append(
                f"{where}: {event_type} carries unknown field {field!r}"
            )
    return problems


def validate_events(events: Iterable[Any]) -> List[str]:
    """Schema violations of a whole event stream.

    Beyond per-event checks this enforces the stream invariants: the
    first event is ``trace_start``, and ``seq`` increases strictly.
    """
    problems: List[str] = []
    last_seq: Optional[int] = None
    count = 0
    for position, event in enumerate(events):
        where = f"event {position}"
        problems.extend(validate_event(event, where=where))
        if position == 0 and isinstance(event, Mapping):
            if event.get("type") != "trace_start":
                problems.append(
                    f"{where}: stream must open with trace_start, got "
                    f"{event.get('type')!r}"
                )
        if isinstance(event, Mapping):
            seq = event.get("seq")
            if isinstance(seq, int) and not isinstance(seq, bool):
                if last_seq is not None and seq <= last_seq:
                    problems.append(
                        f"{where}: seq {seq} not greater than previous "
                        f"{last_seq}"
                    )
                last_seq = seq
        count += 1
    if count == 0:
        problems.append("empty event stream")
    return problems


def validate_jsonl(path: str) -> List[str]:
    """Schema violations of a JSONL trace file (empty list = valid)."""
    events: List[Any] = []
    problems: List[str] = []
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError as exc:
                problems.append(f"{path}:{lineno}: not valid JSON ({exc})")
    return problems + validate_events(events)
