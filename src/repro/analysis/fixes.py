"""Machine-applicable repairs: span-anchored text edits behind ``lint --fix``.

A :class:`Fix` is a titled bundle of :class:`TextEdit` objects, each
anchored to a :class:`~repro.datalog.spans.Span` of the *original* rule
text.  Diagnostics whose defect is mechanical — a duplicate rule, a
shadowed aggregate variable, an unrestricted ``=`` over an aggregate with
no empty value — attach a fix; :func:`fix_text` drives lint → apply →
re-lint to a fixpoint, so one repair enabling another (or shifting spans)
is handled by simply linting again.

Edits are applied on byte offsets computed from the span's 1-based
inclusive line/column coordinates; replacement text for whole subgoals,
rules and declarations is produced by the AST pretty-printers (``str()``
of the rewritten node), whose output the parser round-trips — the
property test in ``tests/test_pretty.py`` is what licenses this.

Only *safe* fixes (behaviour-preserving or restoring the intended
semantics per the diagnostic's definition) are applied automatically;
the flag exists so future speculative repairs can ride the same
machinery without being auto-applied.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.datalog.atoms import AggregateSubgoal, Atom, Subgoal
from repro.datalog.program import PredicateDecl, Program
from repro.datalog.rules import Rule
from repro.datalog.spans import Span
from repro.datalog.terms import Variable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.analysis.diagnostics import Diagnostic


@dataclass(frozen=True)
class TextEdit:
    """Replace the text under ``span`` with ``replacement``.

    ``delete_lines=True`` widens the region to whole source lines
    (including the trailing newline) — used when removing a rule or a
    declaration, so no blank husk is left behind.
    """

    span: Span
    replacement: str
    delete_lines: bool = False

    def offsets(self, line_starts: Sequence[int]) -> Tuple[int, int]:
        """(start, end) byte offsets of the region, end exclusive."""
        start = line_starts[self.span.line - 1] + self.span.column - 1
        end = line_starts[self.span.end_line - 1] + self.span.end_column
        if self.delete_lines:
            start = line_starts[self.span.line - 1]
            if self.span.end_line < len(line_starts):
                end = line_starts[self.span.end_line]
            else:
                end = line_starts[-1]
        return start, end


@dataclass(frozen=True)
class Fix:
    """One titled repair: a set of edits that must be applied together."""

    title: str
    edits: Tuple[TextEdit, ...]
    #: Safe fixes restore the diagnostic's intended semantics and are
    #: applied by ``lint --fix``; unsafe ones would only be suggested.
    safe: bool = True

    def to_dict(self) -> dict:
        return {
            "title": self.title,
            "safe": self.safe,
            "edits": [
                {
                    "span": e.span.to_dict(),
                    "replacement": e.replacement,
                    "delete_lines": e.delete_lines,
                }
                for e in self.edits
            ],
        }


class EditConflictError(ValueError):
    """Two edits in one application batch overlap."""


def _line_starts(text: str) -> List[int]:
    """Byte offset of each line start, plus a sentinel at end-of-text."""
    starts = [0]
    for index, ch in enumerate(text):
        if ch == "\n":
            starts.append(index + 1)
    starts.append(len(text))
    return starts


def apply_edits(text: str, edits: Sequence[TextEdit]) -> str:
    """Apply non-overlapping edits to ``text`` (raises on overlap)."""
    starts = _line_starts(text)
    resolved = sorted(
        ((e.offsets(starts), e) for e in edits), key=lambda item: item[0]
    )
    previous_end = -1
    for (start, end), edit in resolved:
        if start < previous_end:
            raise EditConflictError(
                f"edit at {edit.span} overlaps an earlier edit"
            )
        previous_end = end
    out = text
    for (start, end), edit in reversed(resolved):
        out = out[:start] + edit.replacement + out[end:]
    return out


def select_nonoverlapping(fixes: Sequence[Fix]) -> List[Fix]:
    """A maximal prefix-greedy subset of safe fixes whose edits don't
    collide; the rest are picked up by the next lint round."""
    chosen: List[Fix] = []
    edits: List[TextEdit] = []
    for fix in fixes:
        if not fix.safe:
            continue
        candidate = edits + list(fix.edits)
        try:
            # Cheap validation: offsets need the text, so collisions are
            # approximated by span ordering on (line, column) pairs.
            _check_span_overlap(candidate)
        except EditConflictError:
            continue
        chosen.append(fix)
        edits = candidate
    return chosen


def _check_span_overlap(edits: Sequence[TextEdit]) -> None:
    def key(edit: TextEdit) -> Tuple[int, int, int, int]:
        s = edit.span
        if edit.delete_lines:
            return (s.line, 1, s.end_line + 1, 0)
        return (s.line, s.column, s.end_line, s.end_column + 1)

    ordered = sorted(edits, key=key)
    for before, after in zip(ordered, ordered[1:]):
        b, a = key(before), key(after)
        if (b[2], b[3]) > (a[0], a[1]):
            raise EditConflictError(
                f"edit at {after.span} overlaps an earlier edit"
            )


# ---------------------------------------------------------------------------
# Fix constructors, used by the checks in repro.analysis.diagnostics
# ---------------------------------------------------------------------------


def fix_restrict_aggregate(
    rule: Rule, sg: AggregateSubgoal
) -> Optional[Fix]:
    """Rewrite ``C = f{...}`` to the restricted ``C =r f{...}`` form."""
    if sg.span is None:
        return None
    restricted = dataclasses.replace(sg, restricted=True)
    return Fix(
        title=f"use the restricted form: {restricted}",
        edits=(TextEdit(sg.span, str(restricted)),),
    )


def fix_delete_rule(rule: Rule) -> Optional[Fix]:
    """Remove a (duplicate) rule, whole lines included."""
    if rule.span is None:
        return None
    return Fix(
        title=f"delete duplicate rule {rule}",
        edits=(TextEdit(rule.span, "", delete_lines=True),),
    )


def fix_delete_declaration(decl: PredicateDecl) -> Optional[Fix]:
    """Remove an unused explicit declaration, whole lines included."""
    if decl.span is None:
        return None
    return Fix(
        title=f"delete unused declaration of {decl.name}/{decl.arity}",
        edits=(TextEdit(decl.span, "", delete_lines=True),),
    )


def fix_declare_default(
    program: Program, predicates: Sequence[str]
) -> Optional[Fix]:
    """Turn ``@cost p/n : l.`` into ``@default p/n : l.`` for each named
    predicate (gives the pseudo-monotonic aggregate its fixed fan-in)."""
    edits: List[TextEdit] = []
    names: List[str] = []
    for name in sorted(set(predicates)):
        decl = program.declarations.get(name)
        if (
            decl is None
            or decl.span is None
            or decl.lattice is None
            or decl.has_default
        ):
            continue
        edits.append(
            TextEdit(
                decl.span,
                f"@default {decl.name}/{decl.arity} : {decl.lattice.name}.",
            )
        )
        names.append(name)
    if not edits:
        return None
    return Fix(
        title="declare default values for " + ", ".join(names),
        edits=tuple(edits),
    )


def _fresh_variable(taken: FrozenSet[Variable], base: Variable) -> Variable:
    candidate = Variable(base.name + "_inner")
    suffix = 2
    while candidate in taken:
        candidate = Variable(f"{base.name}_inner{suffix}")
        suffix += 1
    return candidate


def _rename_in_atom(atom: Atom, old: Variable, new: Variable) -> Atom:
    args = tuple(new if arg == old else arg for arg in atom.args)
    return dataclasses.replace(atom, args=args)


def fix_rename_shadowed(
    rule: Rule, sg: AggregateSubgoal, shadowed: Variable
) -> Optional[Fix]:
    """Rename the *inner* occurrences of a shadowed aggregate variable.

    For a multiset variable that leaked outside (becoming a grouping
    variable) or a result variable recurring inside the conjuncts, the
    almost-certain intent was a private inner variable; renaming inside
    the subgoal restores Definition 2.4's split without touching the rest
    of the rule.
    """
    if sg.span is None:
        return None
    fresh = _fresh_variable(rule.variable_set(), shadowed)
    conjuncts = tuple(
        _rename_in_atom(c, shadowed, fresh) for c in sg.conjuncts
    )
    multiset_var = sg.multiset_var
    if multiset_var == shadowed:
        multiset_var = fresh
    renamed = dataclasses.replace(
        sg, multiset_var=multiset_var, conjuncts=conjuncts
    )
    return Fix(
        title=f"rename inner {shadowed} to {fresh}: {renamed}",
        edits=(TextEdit(sg.span, str(renamed)),),
    )


def fix_reorder_body(rule: Rule, program: Program) -> Optional[Fix]:
    """Rewrite the rule with its body in evaluable (scheduled) order."""
    if rule.span is None:
        return None
    ordered = body_in_schedule_order(rule, program)
    if ordered is None or list(ordered) == list(rule.body):
        return None
    reordered = dataclasses.replace(rule, body=tuple(ordered))
    return Fix(
        title=f"reorder body left-to-right: {reordered}",
        edits=(TextEdit(rule.span, str(reordered)),),
    )


# ---------------------------------------------------------------------------
# Left-to-right evaluability (feeds the MAD507 lint)
# ---------------------------------------------------------------------------


def is_left_to_right_evaluable(rule: Rule, program: Program) -> bool:
    """True iff the body can be evaluated in its written order: every
    subgoal is ready, by the engine's own readiness rule, once the ones
    written before it have run."""
    # Lazy import: the engine imports analysis modules at load time.
    from repro.engine.grounding import subgoal_readiness

    bound: Set[Variable] = set()
    for sg in rule.body:
        ready = subgoal_readiness(sg, rule, program, bound)
        if ready is None:
            return False
        bound |= ready[1]
    return True


def body_in_schedule_order(
    rule: Rule, program: Program
) -> Optional[List[Subgoal]]:
    """The engine's static join order, or None if no order exists."""
    from repro.datalog.errors import SafetyError

    # Lazy import: the engine imports analysis modules at load time.
    from repro.engine.grounding import schedule

    try:
        return list(schedule(rule, program))
    except SafetyError:
        return None


# ---------------------------------------------------------------------------
# The --fix driver
# ---------------------------------------------------------------------------


@dataclass
class FixResult:
    """What :func:`fix_text` did to one source text."""

    original: str
    text: str
    applied: List[str] = field(default_factory=list)
    rounds: int = 0
    #: Diagnostics of the final text (for exit-code / reporting purposes).
    remaining: List["Diagnostic"] = field(default_factory=list)

    @property
    def changed(self) -> bool:
        return self.text != self.original


def fix_text(
    text: str,
    *,
    name: str = "<string>",
    max_rounds: int = 10,
) -> FixResult:
    """Lint ``text``, apply every safe fix, and repeat to a fixpoint.

    Each round re-lints the current text so spans are always fresh;
    conflicting fixes are deferred to a later round by
    :func:`select_nonoverlapping`.  Stops when a round applies nothing,
    when the text stops changing, or after ``max_rounds``.
    """
    from repro.analysis.diagnostics import lint_source

    result = FixResult(original=text, text=text)
    for _ in range(max_rounds):
        diagnostics = lint_source(result.text, name=name)
        fixes = [f for d in diagnostics for f in d.fixes]
        chosen = select_nonoverlapping(fixes)
        if not chosen:
            result.remaining = diagnostics
            return result
        edits = [e for f in chosen for e in f.edits]
        new_text = apply_edits(result.text, edits)
        result.rounds += 1
        if new_text == result.text:
            result.remaining = diagnostics
            return result
        result.text = new_text
        result.applied.extend(f.title for f in chosen)
    result.remaining = lint_source(result.text, name=name)
    return result


def render_diff(result: FixResult, name: str) -> str:
    """A unified diff of what ``--fix`` would change."""
    import difflib

    return "".join(
        difflib.unified_diff(
            result.original.splitlines(keepends=True),
            result.text.splitlines(keepends=True),
            fromfile=name,
            tofile=f"{name} (fixed)",
        )
    )


_FixMap = Dict[int, List[Fix]]
