"""Structured violation messages shared by every analysis pass.

Each static check historically reported plain strings.  The diagnostics
engine needs two more things per violation — *which* lint rule it
instantiates (``kind``, a stable slug the registry maps to a ``MAD***``
code) and *where* in the source it happened (``span``).  To add those
without breaking every caller that treats violations as strings (reports
join them, tests substring-match them), :class:`Violation` subclasses
``str``: it *is* the message, with the structure riding along.
"""

from __future__ import annotations

from typing import Optional

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
