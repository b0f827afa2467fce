"""Deterministic fault injection at the engine's mutation seams.

The robustness claim of the supervisor work is *fail predictably*: an
exception, delay or cancellation landing anywhere in the evaluation
pipeline must leave every :class:`~repro.engine.interpretation.Relation`
— raw containers *and* persistent incremental indexes — consistent.
This module makes that claim testable by injecting faults at three
seams:

``rule_firing``
    entry of :func:`repro.engine.exec.run_rule` — one hit per rule
    firing, so one per seed of a delta batch (naive/seminaive/greedy
    all funnel through it);
``aggregate_apply``
    immediately before an aggregate function is applied to a group's
    multiset inside the compiled executor;
``index_update``
    inside ``Relation.join_rows``, once per changed row, before its
    incremental index upkeep — the maintenance a torn update would
    corrupt.

Injection is **deterministic**: a :class:`Fault` fires on the *N*-th
matching hit (``at``, 1-based), optionally filtered by a substring of
the seam detail (e.g. a predicate name), so a failing case replays
exactly.  Actions: ``raise`` (default, :class:`FaultInjected` or a
custom exception type), ``delay`` (sleep, for racing timeouts),
``cancel`` (trip a ``CancelToken``) and ``call`` (arbitrary callback,
e.g. ``signal.raise_signal`` to simulate a SIGINT landing mid-solve).

The active plan is a module global checked with one ``is not None`` test
at each seam, so production runs (no plan installed) pay a single global
read.  The plan also records every relation whose indexes were touched;
:func:`check_relation_indexes` then compares each live index against a
rebuilt-from-scratch one — zero tolerance for torn indexes.

Usage::

    plan = FaultPlan([Fault("rule_firing", at=3)])
    with inject(plan):
        with pytest.raises(FaultInjected):
            solve(program, edb)
    for rel in plan.touched_relations():
        assert not check_relation_indexes(rel)
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "Fault",
    "FaultInjected",
    "FaultPlan",
    "check_relation_indexes",
    "inject",
    "trip",
]

#: Seam names the engine instruments.
SEAMS = ("rule_firing", "aggregate_apply", "index_update")


class FaultInjected(RuntimeError):
    """The default exception an injected ``raise`` fault throws."""


@dataclass
class Fault:
    """One scheduled fault: fire ``action`` on the ``at``-th matching hit."""

    seam: str
    action: str = "raise"  # raise | delay | cancel | call
    #: Fire on the N-th matching hit (1-based); deterministic replay.
    at: int = 1
    #: Substring filter on the seam detail (predicate / rule head).
    match: Optional[str] = None
    #: Exception *type* for ``action="raise"``.
    exception: type = FaultInjected
    #: Seconds to sleep for ``action="delay"``.
    delay: float = 0.0
    #: Object with a ``cancel()`` method for ``action="cancel"``
    #: (a :class:`repro.engine.supervisor.CancelToken`).
    token: Any = None
    #: Callback ``(seam, detail) -> None`` for ``action="call"``.
    call: Optional[Callable[[str, str], None]] = None
    #: Keep firing on every matching hit from ``at`` onwards.
    repeat: bool = False
    #: Matching hits seen so far (internal counter).
    hits: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if self.seam not in SEAMS:
            raise ValueError(
                f"unknown seam {self.seam!r}; expected one of {SEAMS}"
            )
        if self.action not in ("raise", "delay", "cancel", "call"):
            raise ValueError(f"unknown fault action {self.action!r}")
        if self.at < 1:
            raise ValueError("at is 1-based and must be >= 1")

    def matches(self, seam: str, detail: str) -> bool:
        return self.seam == seam and (
            self.match is None or self.match in detail
        )

    def fire(self, seam: str, detail: str) -> None:
        if self.action == "delay":
            time.sleep(self.delay)
        elif self.action == "cancel":
            if self.token is not None:
                self.token.cancel(f"fault injection at {seam}")
        elif self.action == "call":
            if self.call is not None:
                self.call(seam, detail)
        else:
            raise self.exception(
                f"injected fault at {seam} (hit {self.hits}"
                + (f", {detail}" if detail else "")
                + ")"
            )


@dataclass
class FaultPlan:
    """A set of faults plus the observation log of one injection run."""

    faults: List[Fault] = field(default_factory=list)
    #: Every ``(seam, detail)`` hit, in order — determinism assertions.
    log: List[Tuple[str, str]] = field(default_factory=list)
    #: Relations whose index maintenance ran, keyed by id (kept alive so
    #: the test can audit exactly what was mutated).
    _relations: Dict[int, Any] = field(default_factory=dict)

    def hit(self, seam: str, detail: str = "", relation: Any = None) -> None:
        """Record one seam crossing and fire any due fault."""
        if relation is not None:
            self._relations.setdefault(id(relation), relation)
        self.log.append((seam, detail))
        for fault in self.faults:
            if not fault.matches(seam, detail):
                continue
            fault.hits += 1
            if fault.hits == fault.at or (
                fault.repeat and fault.hits > fault.at
            ):
                fault.fire(seam, detail)

    def touched_relations(self) -> List[Any]:
        """Every relation whose indexes were maintained while active."""
        return list(self._relations.values())

    def seam_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for seam, _ in self.log:
            counts[seam] = counts.get(seam, 0) + 1
        return counts


#: The installed plan; ``None`` (the fast path) outside :func:`inject`.
_ACTIVE: Optional[FaultPlan] = None


def trip(seam: str, detail: str = "", relation: Any = None) -> None:
    """Seam hook called by the engine; no-op without an active plan.

    Callers should guard with ``if faults._ACTIVE is not None`` so the
    production path pays one global read, not a function call.
    """
    plan = _ACTIVE
    if plan is not None:
        plan.hit(seam, detail, relation)


@contextmanager
def inject(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Install ``plan`` as the active fault plan for the block.

    Not reentrant across threads by design: the harness is for
    single-threaded deterministic tests.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = plan
    try:
        yield plan
    finally:
        _ACTIVE = previous


def _normalize(buckets: Dict[Any, List[Any]]) -> Dict[Any, List[Any]]:
    """Index buckets with empties dropped and rows canonically ordered
    (a replaced cost row legitimately leaves an empty bucket behind)."""
    return {
        key: sorted(rows, key=repr)
        for key, rows in buckets.items()
        if rows
    }


def check_relation_indexes(rel: Any) -> List[str]:
    """Inconsistencies between a relation's live indexes and its raw
    containers (empty list = consistent).

    The raw ``tuples``/``costs`` containers are the source of truth;
    every live hash index must agree with a rebuild from them.  This is
    the torn-index detector of the fault suite.
    """
    problems: List[str] = []
    name = rel.decl.name
    rows = list(rel.rows())
    for positions, index in rel._indexes.items():
        rebuilt: Dict[Any, List[Any]] = {}
        for row in rows:
            bucket_key = tuple(row[p] for p in positions)
            rebuilt.setdefault(bucket_key, []).append(row)
        if _normalize(index) != _normalize(rebuilt):
            problems.append(
                f"{name}: index on positions {positions} disagrees with a "
                f"rebuild from the raw containers"
            )
    return problems
