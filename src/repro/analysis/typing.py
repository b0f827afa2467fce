"""Whole-program lattice type inference (Section 4.2, generalized).

PR 1's well-typedness check (:mod:`repro.analysis.wellformed`, Definition
4.2's typing discipline) is *rule-local*: it compares declared cost columns
against aggregate domains/ranges inside one rule.  But cost domains flow
*across* predicates: a variable bound by the cost column of one predicate
may be copied into an argument of another, and two rules may pin the same
undeclared argument position to incompatible lattices — a program-level
type error no per-rule check can see.

This module runs a fixpoint abstract interpretation over the program.  The
abstract domain is a four-level lattice of argument types::

    UNKNOWN  ⊏  ORDINARY  ⊏  LATTICE(l)  ⊏  CONFLICT

* ``UNKNOWN`` — no information yet (⊥).
* ``ORDINARY`` — an ordinary (EDB-constant) argument.
* ``LATTICE(l)`` — a cost value from lattice ``l``; carries *witnesses*
  recording where each lattice claim came from.
* ``CONFLICT`` — two incompatible lattices met (⊤); the witnesses name
  both sides.

The join is the obvious one; ``ORDINARY ⊔ LATTICE(l) = LATTICE(l)``
because constants legitimately appear in cost columns (facts).

Inference alternates two Jacobi phases until stable:

1. **Variable solve** — per rule, each variable's type is the join of the
   types of every argument position it occupies, plus seeds from aggregate
   subgoals (the multiset variable carries the function's domain, the
   result its range) — and variables connected by ``=`` built-ins are
   unified (arithmetic flows values between them).
2. **Position write-back** — inferred (undeclared) argument positions
   absorb the types of the variables and constants occurring there.

Declared positions are immutable: a cost declaration fixes the cost column
to its lattice and the key columns to ``ORDINARY``; ``@pred`` fixes every
column to ``ORDINARY``.  Conflicted cells are never propagated further, so
one genuine error does not cascade into a wall of secondary reports.

The extracted :class:`TypeConflict` records feed the ``MAD601``
(position-level, cross-rule) and ``MAD602`` (variable-level, within one
rule) diagnostics in :mod:`repro.analysis.diagnostics`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.datalog.atoms import BuiltinSubgoal
from repro.datalog.program import Program
from repro.datalog.rules import Rule
from repro.datalog.spans import Span
from repro.datalog.terms import Constant, Variable
from repro.lattices.base import Lattice


class TypeLevel(enum.IntEnum):
    """The four levels of the argument-type lattice (module docstring)."""

    UNKNOWN = 0
    ORDINARY = 1
    LATTICE = 2
    CONFLICT = 3


@dataclass(frozen=True)
class Witness:
    """Provenance of one lattice claim: which lattice, from where."""

    lattice_name: str
    description: str
    span: Optional[Span] = field(default=None, compare=False)

    def __str__(self) -> str:
        return f"{self.description} ({self.lattice_name})"


@dataclass(frozen=True)
class ArgType:
    """One cell of the abstract domain."""

    level: TypeLevel
    lattice: Optional[Lattice] = None
    witnesses: Tuple[Witness, ...] = ()

    def __post_init__(self) -> None:
        if (self.level is TypeLevel.LATTICE) != (self.lattice is not None):
            raise ValueError("LATTICE cells carry a lattice; others do not")

    @property
    def kind(self) -> str:
        """Display category: unknown / ordinary / numeric / boolean /
        set / divisibility / lattice / conflict."""
        if self.level is TypeLevel.UNKNOWN:
            return "unknown"
        if self.level is TypeLevel.ORDINARY:
            return "ordinary"
        if self.level is TypeLevel.CONFLICT:
            return "conflict"
        assert self.lattice is not None
        return lattice_kind(self.lattice)

    def __str__(self) -> str:
        if self.level is TypeLevel.LATTICE:
            assert self.lattice is not None
            return f"{self.kind}:{self.lattice.name}"
        return self.kind


UNKNOWN = ArgType(TypeLevel.UNKNOWN)
ORDINARY = ArgType(TypeLevel.ORDINARY)
CONFLICT = ArgType(TypeLevel.CONFLICT)


def lattice_kind(lattice: Lattice) -> str:
    """Coarse display category of a cost lattice."""
    from repro.lattices.boolean import BooleanAnd, BooleanOr
    from repro.lattices.divisibility import Divisibility
    from repro.lattices.sets import PowersetIntersection, PowersetUnion

    if isinstance(lattice, (BooleanAnd, BooleanOr)):
        return "boolean"
    if isinstance(lattice, Divisibility):
        return "divisibility"
    if isinstance(lattice, (PowersetIntersection, PowersetUnion)):
        return "set"
    if lattice.numeric_direction is not None:
        return "numeric"
    return "lattice"


def _merge_witnesses(
    a: Tuple[Witness, ...], b: Tuple[Witness, ...]
) -> Tuple[Witness, ...]:
    out: List[Witness] = list(a)
    seen = {(w.lattice_name, w.description) for w in a}
    for w in b:
        key = (w.lattice_name, w.description)
        if key not in seen:
            seen.add(key)
            out.append(w)
    return tuple(out)


def join(a: ArgType, b: ArgType) -> ArgType:
    """Least upper bound in the argument-type lattice."""
    if a.level is TypeLevel.CONFLICT or b.level is TypeLevel.CONFLICT:
        return ArgType(
            TypeLevel.CONFLICT,
            witnesses=_merge_witnesses(a.witnesses, b.witnesses),
        )
    if a.level is TypeLevel.UNKNOWN:
        return b
    if b.level is TypeLevel.UNKNOWN:
        return a
    if a.level is TypeLevel.ORDINARY:
        return b
    if b.level is TypeLevel.ORDINARY:
        return a
    assert a.lattice is not None and b.lattice is not None
    if a.lattice == b.lattice:
        return ArgType(
            TypeLevel.LATTICE,
            a.lattice,
            _merge_witnesses(a.witnesses, b.witnesses),
        )
    return ArgType(
        TypeLevel.CONFLICT,
        witnesses=_merge_witnesses(a.witnesses, b.witnesses),
    )


@dataclass(frozen=True)
class TypeConflict:
    """One extracted incompatibility, with provenance on both sides.

    ``kind`` is ``"position"`` (two rules pin the same inferred argument
    position of a predicate to different lattices — MAD601) or
    ``"variable"`` (one rule flows two lattices into the same variable —
    MAD602).
    """

    kind: str
    subject: str
    witnesses: Tuple[Witness, ...]
    span: Optional[Span] = field(default=None, compare=False)
    rule_index: Optional[int] = None

    @property
    def lattice_names(self) -> FrozenSet[str]:
        return frozenset(w.lattice_name for w in self.witnesses)

    def message(self) -> str:
        sides = "; ".join(str(w) for w in self.witnesses)
        return f"{self.subject} is used at incompatible lattices: {sides}"


@dataclass
class TypingReport:
    """The result of whole-program inference."""

    program: Program
    #: predicate → one :class:`ArgType` per argument position.
    positions: Dict[str, Tuple[ArgType, ...]]
    #: rule index (into ``program.rules``) → variable → inferred type.
    variables: Dict[int, Dict[Variable, ArgType]]
    conflicts: List[TypeConflict]

    @property
    def ok(self) -> bool:
        return not self.conflicts

    def signature(self, predicate: str) -> str:
        """Render ``p(ordinary, numeric:reals_ge)`` for reports."""
        cells = self.positions.get(predicate, ())
        return f"{predicate}({', '.join(str(c) for c in cells)})"

    def __str__(self) -> str:
        lines = [
            self.signature(name)
            for name in sorted(self.positions)
        ]
        for conflict in self.conflicts:
            lines.append(f"conflict: {conflict.message()}")
        return "\n".join(lines)


_PosKey = Tuple[str, int]


def _equality_groups(rule: Rule) -> List[Set[Variable]]:
    """Variables connected by ``=`` built-ins (arithmetic value flow)."""
    groups: List[Set[Variable]] = []
    for sg in rule.body:
        if isinstance(sg, BuiltinSubgoal) and sg.op == "=":
            linked = set(sg.variable_set())
            if len(linked) < 2:
                continue
            merged = set(linked)
            rest: List[Set[Variable]] = []
            for group in groups:
                if group & merged:
                    merged |= group
                else:
                    rest.append(group)
            rest.append(merged)
            groups = rest
    return groups


def _solve_rule_variables(
    rule: Rule,
    program: Program,
    positions: Dict[_PosKey, ArgType],
) -> Dict[Variable, ArgType]:
    """Phase 1 for one rule: variable types from positions and seeds."""
    cells: Dict[Variable, ArgType] = {}

    def absorb(var: Variable, cell: ArgType) -> None:
        cells[var] = join(cells.get(var, UNKNOWN), cell)

    for atom in rule.atoms():
        for index, arg in enumerate(atom.args):
            if not isinstance(arg, Variable):
                continue
            cell = positions.get((atom.predicate, index), UNKNOWN)
            if cell.level is TypeLevel.CONFLICT:
                # Reported at the position itself; do not cascade.
                continue
            if cell.level is TypeLevel.LATTICE:
                assert cell.lattice is not None
                cell = ArgType(
                    TypeLevel.LATTICE,
                    cell.lattice,
                    (
                        Witness(
                            cell.lattice.name,
                            f"argument {index + 1} of {atom.predicate}",
                            atom.span,
                        ),
                    ),
                )
            absorb(arg, cell)

    for sg in rule.aggregate_subgoals():
        try:
            function = program.aggregate_function(sg.function)
        except Exception:  # unknown aggregate: MAD005's problem, not ours
            continue
        if sg.multiset_var is not None:
            absorb(
                sg.multiset_var,
                ArgType(
                    TypeLevel.LATTICE,
                    function.domain,
                    (
                        Witness(
                            function.domain.name,
                            f"multiset of {sg.function}",
                            sg.span,
                        ),
                    ),
                ),
            )
        if isinstance(sg.result, Variable):
            absorb(
                sg.result,
                ArgType(
                    TypeLevel.LATTICE,
                    function.range_,
                    (
                        Witness(
                            function.range_.name,
                            f"result of {sg.function}",
                            sg.span,
                        ),
                    ),
                ),
            )

    for group in _equality_groups(rule):
        merged = UNKNOWN
        for var in group:
            merged = join(merged, cells.get(var, UNKNOWN))
        for var in group:
            cells[var] = merged
    return cells


def infer_types(program: Program) -> TypingReport:
    """Run the two-phase fixpoint and extract conflicts."""
    positions: Dict[_PosKey, ArgType] = {}
    mutable: Set[_PosKey] = set()

    for decl in program.declarations.values():
        explicit = decl.name in program.explicit_declarations
        for index in range(decl.arity):
            key = (decl.name, index)
            if not explicit:
                positions[key] = UNKNOWN
                mutable.add(key)
            elif decl.is_cost_predicate and index == decl.arity - 1:
                assert decl.lattice is not None
                positions[key] = ArgType(
                    TypeLevel.LATTICE,
                    decl.lattice,
                    (
                        Witness(
                            decl.lattice.name,
                            f"declared cost column of {decl.name}",
                            decl.span,
                        ),
                    ),
                )
            else:
                positions[key] = ORDINARY

    variables: Dict[int, Dict[Variable, ArgType]] = {}
    # The per-position level can only climb the four-level chain, so the
    # fixpoint is reached in a handful of rounds; the bound is a backstop.
    for _ in range(4 * len(program.rules) + 8):
        variables = {
            index: _solve_rule_variables(rule, program, positions)
            for index, rule in enumerate(program.rules)
        }
        changed = False
        for index, rule in enumerate(program.rules):
            cells = variables[index]
            for atom in rule.atoms():
                for arg_index, arg in enumerate(atom.args):
                    key = (atom.predicate, arg_index)
                    if key not in mutable:
                        continue
                    if isinstance(arg, Constant):
                        contribution = ORDINARY
                    elif isinstance(arg, Variable):
                        contribution = cells.get(arg, UNKNOWN)
                        if contribution.level is TypeLevel.CONFLICT:
                            # The variable conflict is reported on its own;
                            # writing ⊤ into the position would cascade.
                            continue
                    else:  # pragma: no cover - terms are Variable|Constant
                        continue
                    merged = join(positions[key], contribution)
                    if merged != positions[key]:
                        positions[key] = merged
                        changed = True
        if not changed:
            break

    conflicts: List[TypeConflict] = []
    seen: Set[Tuple[str, str, FrozenSet[Tuple[str, str]]]] = set()

    def emit(conflict: TypeConflict) -> None:
        key = (
            conflict.kind,
            conflict.subject,
            frozenset(
                (w.lattice_name, w.description) for w in conflict.witnesses
            ),
        )
        if key not in seen:
            seen.add(key)
            conflicts.append(conflict)

    for (predicate, index) in sorted(mutable):
        cell = positions[(predicate, index)]
        if cell.level is TypeLevel.CONFLICT:
            span = next(
                (w.span for w in cell.witnesses if w.span is not None), None
            )
            emit(
                TypeConflict(
                    kind="position",
                    subject=f"argument {index + 1} of {predicate}",
                    witnesses=cell.witnesses,
                    span=span,
                )
            )

    for index, cells in sorted(variables.items()):
        rule = program.rules[index]
        for var in sorted(cells, key=lambda v: v.name):
            cell = cells[var]
            if cell.level is TypeLevel.CONFLICT:
                span = next(
                    (w.span for w in cell.witnesses if w.span is not None),
                    rule.span,
                )
                emit(
                    TypeConflict(
                        kind="variable",
                        subject=f"variable {var} in rule {rule.head}",
                        witnesses=cell.witnesses,
                        span=span,
                        rule_index=index,
                    )
                )

    by_predicate: Dict[str, Tuple[ArgType, ...]] = {}
    for name, decl in program.declarations.items():
        by_predicate[name] = tuple(
            positions.get((name, index), UNKNOWN)
            for index in range(decl.arity)
        )
    return TypingReport(
        program=program,
        positions=by_predicate,
        variables=variables,
        conflicts=conflicts,
    )
