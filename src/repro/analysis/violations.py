"""Structured violation messages shared by every analysis pass.

Each static check historically reported plain strings.  The diagnostics
engine needs two more things per violation — *which* lint rule it
instantiates (``kind``, a stable slug the registry maps to a ``MAD***``
code) and *where* in the source it happened (``span``).  To add those
without breaking every caller that treats violations as strings (reports
join them, tests substring-match them), :class:`Violation` subclasses
``str``: it *is* the message, with the structure riding along.

:class:`Witness` is the other half: one condition an optimizer's proof
checked (premappability, shard safety), whether it held and why.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.datalog.spans import Span


class Violation(str):
    """A violation message that also knows its lint kind and source span."""

    __slots__ = ("kind", "span")

    kind: str
    span: Optional[Span]

    def __new__(
        cls,
        message: str,
        *,
        kind: str = "",
        span: Optional[Span] = None,
    ) -> "Violation":
        self = super().__new__(cls, message)
        self.kind = kind
        self.span = span
        return self

    def __repr__(self) -> str:
        extra = f" kind={self.kind!r}" if self.kind else ""
        where = f" at {self.span}" if self.span is not None else ""
        return f"<Violation{extra}{where}: {str.__repr__(self)}>"


@dataclass(frozen=True)
class Witness:
    """One checked condition of an optimizer's proof (pushdown, sharding)
    and its outcome."""

    condition: str
    detail: str
    ok: bool

    def __str__(self) -> str:
        mark = "✓" if self.ok else "✗"
        return f"{mark} {self.condition}: {self.detail}"


def first_failure(witnesses: Iterable[Witness]) -> str:
    """The first failing condition's detail (empty when every one holds)."""
    for w in witnesses:
        if not w.ok:
            return w.detail
    return ""
