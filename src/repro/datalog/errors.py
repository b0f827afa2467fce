"""Error hierarchy for the Datalog substrate and the engine.

Everything raised by this library derives from :class:`ReproError`, so
callers can catch one type.  The split mirrors the paper's pipeline:
syntax (parser) → static analysis (safety / conflict-freedom /
admissibility) → evaluation (cost consistency, non-termination).

Errors raised against a known region of rule text carry a
:class:`~repro.datalog.spans.Span` (``error.span``); parse errors keep
the historical ``error.line`` / ``error.column`` attributes as views of
that span.  Static-analysis rejections (:class:`SafetyError`,
:class:`NotAdmissibleError`) additionally carry the structured
``diagnostics`` that produced them, so tooling can render codes and
source locations instead of scraping the message string.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.datalog.spans import Span

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.analysis.diagnostics import Diagnostic


class ReproError(Exception):
    """Base class for every error this library raises deliberately."""


class ParseError(ReproError):
    """Rule text failed to parse; carries the source location as a span."""

    def __init__(
        self,
        message: str,
        line: int | None = None,
        column: int | None = None,
        *,
        span: Optional[Span] = None,
    ):
        if span is None and line is not None:
            span = Span.point(line, column if column is not None else 1)
        self.span = span
        location = ""
        if span is not None:
            location = f" at line {span.line}, column {span.column}"
        elif line is not None:
            location = f" at line {line}"
        self.bare_message = message
        super().__init__(message + location)

    @property
    def line(self) -> int | None:
        return self.span.line if self.span is not None else None

    @property
    def column(self) -> int | None:
        return self.span.column if self.span is not None else None


class ProgramError(ReproError):
    """A structurally invalid program (bad arity, unknown predicate, ...)."""

    def __init__(self, message: str, *, span: Optional[Span] = None):
        self.span = span
        self.bare_message = message
        if span is not None:
            message = f"{message} (at line {span.line}, column {span.column})"
        super().__init__(message)


class AnalysisRejection(ProgramError):
    """Base for static-analysis rejections; carries structured diagnostics."""

    def __init__(
        self,
        message: str,
        *,
        span: Optional[Span] = None,
        diagnostics: Optional[Sequence["Diagnostic"]] = None,
    ):
        super().__init__(message, span=span)
        self.diagnostics: List["Diagnostic"] = list(diagnostics or ())


class SafetyError(AnalysisRejection):
    """A rule violates range-restriction (Definition 2.5)."""


class NotAdmissibleError(AnalysisRejection):
    """Strict solving was requested for a program that fails Definition 4.5."""


class CostConsistencyError(ReproError):
    """``T_P`` produced two atoms differing only in the cost argument.

    This is the runtime face of Definition 2.6 / 3.7: the program is not
    cost consistent on the given extension.
    """


class NonTerminationError(ReproError):
    """Fixpoint iteration exceeded its budget without converging.

    Carries the last two interpretations so callers can inspect whether the
    iteration was still ⊑-ascending (a transfinite program such as
    Example 5.1) or oscillating (a non-monotonic program).
    """

    def __init__(self, message: str, ascending: bool | None = None):
        self.ascending = ascending
        super().__init__(message)
