"""Golden pin of the telemetry digest: ``summarize`` and its renderings.

``tests/golden/telemetry_digest.jsonl`` holds one line per case: the
frozen event stream of a real traced solve, the postmortem header it is
rendered under, and what the digest made of it — ``render_stats()``,
``render_profile()``, ``render_postmortem()`` and the values of the
summary's views.  Replaying frozen events fixes every wall time, so the
hot-rule ranking cannot vary and the comparison is byte for byte.

The cases:

* Example 3.1 (shortest path) under ``seminaive`` and under ``greedy``;
* Example 4.3 (party invitations) under ``naive``;
* Example 3.1 under ``plan="sharded"`` with 2 workers, so the stream
  carries ``worker_telemetry`` events;
* the flight-recorder dump of a ``Budget(max_iterations=2)``-interrupted
  naive solve, kept by a ring of 16 events: the first component's
  ``scc_end`` is in the ring and its ``scc_start`` is not.

A live re-run of each case must also emit the frozen stream again, up to
what varies run to run (see ``_repeatable``).

Regenerate (only for a deliberate change to what is emitted or shown)::

    PYTHONPATH=src python tests/test_telemetry_digest.py > tests/golden/telemetry_digest.jsonl
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

import pytest

from repro.core.database import Database
from repro.engine.supervisor import Budget
from repro.obs import (
    SCHEMA_VERSION,
    FlightRecorder,
    Tracer,
    load_dump,
    render_postmortem,
    summarize,
    validate_event,
)
from repro.programs import party_invitations, shortest_path
from repro.workloads import random_party

GOLDEN = Path(__file__).parent / "golden" / "telemetry_digest.jsonl"

ARCS = [
    (i, j, float(1 + (i * 7 + j) % 5))
    for i in range(8)
    for j in range(8)
    if i != j and (i + j) % 3 != 0
]

#: Two components: ``link`` (four rules, two naive rounds) and the
#: recursive ``reach``, whose first round trips the budget.
LINKS = """
@pred road/2. @pred rail/2. @pred ferry/2. @pred bus/2.
@pred link/2. @pred reach/2.
link(X, Y) <- road(X, Y).
link(X, Y) <- rail(X, Y).
link(X, Y) <- ferry(X, Y).
link(X, Y) <- bus(X, Y).
reach(X, Y) <- link(X, Y).
reach(X, Z) <- reach(X, Y), link(Y, Z).
"""

CASES = (
    "example_3_1_seminaive",
    "example_3_1_greedy",
    "party_naive",
    "example_3_1_sharded",
    "flight_budget_2",
)

Stream = Tuple[str, Optional[Dict[str, Any]], List[Dict[str, Any]]]


def _streams() -> Iterator[Stream]:
    """``(case, flight header or None, events)`` from five real solves."""
    for method in ("seminaive", "greedy"):
        tracer = Tracer()
        shortest_path.database({"arc": ARCS}).solve(method=method, tracer=tracer)
        yield f"example_3_1_{method}", None, tracer.events

    knows, requires = random_party(16, seed=1)
    party = party_invitations.database(
        {"knows": knows, "requires": list(requires.items())}
    )
    tracer = Tracer()
    party.solve(method="naive", tracer=tracer)
    yield "party_naive", None, tracer.events

    tracer = Tracer()
    shortest_path.database({"arc": ARCS}).solve(
        plan="sharded", workers=2, shards=8, tracer=tracer
    )
    yield "example_3_1_sharded", None, tracer.events

    db = Database("links")
    db.load(LINKS)
    for offset, mode in enumerate(("road", "rail", "ferry", "bus")):
        db.add_facts(mode, [(i, i + 1) for i in range(offset, 8, 4)])
    ring = FlightRecorder(16)
    tracer = Tracer(ring, collect=False)
    result = db.solve(method="naive", tracer=tracer, budget=Budget(max_iterations=2))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "dump.jsonl")
        ring.dump(path, status=result.status, reason=result.reason or "")
        header, events = load_dump(path)
    yield "flight_budget_2", header, events


def _views(summary: Any) -> Dict[str, Any]:
    """Every view of the summary, as plain JSON data."""
    by_type = summary.events
    sccs = sorted(
        {
            event["scc"]
            for kind in ("scc_start", "scc_end", "iteration", "worker_telemetry")
            for event in by_type.get(kind, [])
        }
    )
    snapshots = by_type.get("metrics_snapshot", [{"metrics": {}}])
    names = sorted(snapshots[-1]["metrics"]) + ["no.such.metric"]
    return {
        "hot_rules": [
            [r["rule"], r["rule_index"], r["head"], r.get("scc"), r["calls"],
             r["derived"], r["wall_s"]]
            for r in summary.hot_rules()
        ],
        "hot_rules_top2": [r["rule_index"] for r in summary.hot_rules(2)],
        "hot_predicates": [list(row) for row in summary.hot_predicates()],
        "convergence": {str(scc): summary.convergence(scc) for scc in sccs},
        "metric_value": {name: summary.metric_value(name) for name in names},
        "metric_quantiles": {
            name: summary.metric_quantiles(name) for name in names
        },
        "workers_for": {
            str(scc): [
                [w["scc"], w["shard"], w["iterations"], w["atoms"], w["rules"],
                 w["metrics"]]
                for w in summary.workers_for(scc)
            ]
            for scc in sccs
        },
    }


def _roundtrip(value: Any) -> Any:
    return json.loads(json.dumps(value, sort_keys=True))


def record() -> Iterator[Dict[str, Any]]:
    for case, header, events in _streams():
        events = _roundtrip(list(events))
        if header is None:
            header = {
                "type": "postmortem",
                "v": SCHEMA_VERSION,
                "status": "complete",
                "reason": "",
                "capacity": len(events),
                "retained": len(events),
                "dropped": 0,
            }
        header = _roundtrip(header)
        summary = summarize(events)
        yield {
            "case": case,
            "header": header,
            "events": events,
            "render_stats": summary.render_stats(),
            "render_profile": summary.render_profile(),
            "render_postmortem": render_postmortem(header, events),
            "views": _roundtrip(_views(summary)),
        }


def _golden() -> Dict[str, Dict[str, Any]]:
    with GOLDEN.open(encoding="utf-8") as handle:
        lines = [json.loads(line) for line in handle]
    return {line["case"]: line for line in lines}


def _repeatable(events: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """The events without what varies run to run: the clock readings
    (``t``, ``wall_s``, timer metrics) and a shard worker's own
    ``plan.cache_*`` counts, which depend on which pool process ran the
    shard (their total does not)."""
    out = []
    for event in events:
        event = {k: v for k, v in event.items() if k not in ("t", "wall_s")}
        if "metrics" in event:
            event["metrics"] = {
                name: payload
                for name, payload in event["metrics"].items()
                if payload["kind"] != "timer"
                and not (
                    event["type"] == "worker_telemetry"
                    and name.startswith("plan.cache_")
                )
            }
        out.append(event)
    return out


def test_golden_holds_every_case():
    assert tuple(_golden()) == CASES


@pytest.mark.parametrize("case", CASES)
def test_digest_of_frozen_events_is_unchanged(case):
    golden = _golden()[case]
    summary = summarize(golden["events"])
    assert summary.render_stats() == golden["render_stats"]
    assert summary.render_profile() == golden["render_profile"]
    assert render_postmortem(golden["header"], golden["events"]) == (
        golden["render_postmortem"]
    )
    assert _roundtrip(_views(summary)) == golden["views"]


@pytest.mark.parametrize("case", CASES)
def test_frozen_events_are_schema_valid(case):
    for event in _golden()[case]["events"]:
        assert validate_event(event) == []


def test_flight_case_keeps_an_scc_end_without_its_start():
    events = _golden()["flight_budget_2"]["events"]
    starts = {e["scc"] for e in events if e["type"] == "scc_start"}
    ends = {e["scc"] for e in events if e["type"] == "scc_end"}
    assert ends - starts
    assert events[0]["type"] != "trace_start"


@pytest.fixture(scope="module")
def live() -> Dict[str, List[Dict[str, Any]]]:
    return {case: _roundtrip(list(events)) for case, _, events in _streams()}


@pytest.mark.parametrize("case", CASES)
def test_live_stream_matches_frozen(case, live):
    assert _repeatable(live[case]) == _repeatable(_golden()[case]["events"])


if __name__ == "__main__":
    for line in record():
        sys.stdout.write(json.dumps(line, sort_keys=True) + "\n")
