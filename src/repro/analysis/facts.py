"""One front-end run's facts about a program, each decided at most once.

Range-restriction, cost-respecting, conflict-freedom, admissibility and
everything classified on top of them are properties of the *program*,
decided before the fixpoint starts.  :class:`ProgramFacts` is the one
analysis object a front-end run (``analyze_program``, the linter,
``solve()``, ``repro lint/optimize/shard-plan``) asks: an entry is
computed on first read, from the entries it depends on, and held until
the run drops the object.  Nothing is stored on the ``Program``, in a
module global or a context variable — the lifetime is the run, so there
is no invalidation rule and nothing shared between threads
(docs/ANALYSIS.md, "One run, one set of facts").
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

from repro.analysis.admissible import (
    ComponentAdmissibility,
    check_component_admissible,
    check_program_admissible,
)
from repro.analysis.classify import (
    ProgramClassification,
    classify_component,
    classify_program,
)
from repro.analysis.conflict import ConflictReport, check_conflict_freedom
from repro.analysis.dependencies import Component, condense
from repro.analysis.fd import CostRespectReport, check_rule_cost_respecting
from repro.analysis.premap import PremapReport, analyze_premappability
from repro.analysis.rmonotonic import (
    RMonotonicReport,
    check_program_r_monotonic,
)
from repro.analysis.safety import SafetyReport, check_program_safety
from repro.analysis.sharding import ShardingReport, analyze_sharding
from repro.analysis.typing import TypingReport, infer_types
from repro.datalog.program import Program

if TYPE_CHECKING:  # pragma: no cover - diagnostics imports this module
    from repro.analysis.diagnostics import Diagnostic, Severity

_Compute = Callable[["ProgramFacts"], Any]

#: The whole-program passes in dependency order: each reads the facts
#: above it through the pass's own precomputed-argument parameters.
_PASSES: Dict[str, _Compute] = {
    "components": lambda f: condense(f.program),
    "safety": lambda f: check_program_safety(f.program),
    "conflict": lambda f: check_conflict_freedom(
        f.program, cost_respecting=f.cost_respecting
    ),
    "admissibility": lambda f: check_program_admissible(
        f.program, components=f.components
    ),
    "typing": lambda f: infer_types(f.program),
    "classification": lambda f: classify_program(
        f.program, admissibility=f.admissibility, typing=f.typing
    ),
    "premappability": lambda f: analyze_premappability(
        f.program, classification=f.classification, cost_respecting=f.cost_respecting
    ),
    "sharding": lambda f: analyze_sharding(
        f.program, classification=f.classification
    ),
}


def _lint(facts: "ProgramFacts") -> List["Diagnostic"]:
    from repro.analysis.diagnostics import lint_program

    return lint_program(facts.program, facts=facts)


def _rewrite_classification(f: "ProgramFacts") -> ProgramClassification:
    """A pushdown rewrite's classification, from the original's: a
    component with the same CDB and rules keeps its verdict, and a touched
    one is checked and classified alone against the original's typing.
    That typing is exact there: a pushdown touches only certified
    ``MONOTONIC`` components, which have no lattice conflict, and
    projecting a head drops argument positions and adds none."""
    original = f.original
    assert original is not None
    prior = {c.component.cdb: c for c in original.classification.components}
    components = []
    for component in f.components:
        cls = prior.get(component.cdb)
        if cls is None or cls.component != component:
            report = check_component_admissible(component, f.program)
            cls = classify_component(component, f.program, report, original.typing)
        components.append(cls)
    return ProgramClassification(f.program, components, original.typing)


#: Per-rule report lists and the default linter's diagnostics: held like
#: the passes, not counted as one.
_HELD: Dict[str, _Compute] = {
    "cost_respecting": lambda f: [
        check_rule_cost_respecting(rule, f.program) for rule in f.program.rules
    ],
    "r_monotonic_reports": lambda f: check_program_r_monotonic(f.program),
    "diagnostics": _lint,
}


class ProgramFacts:
    """Lazily computed analysis reports of one program, for one run.

    Explicit slots filled through ``__getattr__`` rather than
    ``cached_property``: the 3.11 descriptor takes one lock across all
    instances, which would serialise concurrent cold requests in ``repro
    serve``.  A pass that raises fills nothing, so every reader of that
    fact (and of the facts derived from it) sees the same error again —
    a failed pass is never mistaken for a clean one.
    """

    __slots__ = ("program", "original", "passes_run", *_PASSES, *_HELD)

    components: List[Component]
    safety: List[SafetyReport]
    conflict: ConflictReport
    admissibility: List[ComponentAdmissibility]
    typing: TypingReport
    classification: ProgramClassification
    premappability: PremapReport
    sharding: ShardingReport
    cost_respecting: List[CostRespectReport]
    r_monotonic_reports: List[RMonotonicReport]
    #: Every finding as a coded, source-located diagnostic
    #: (:mod:`repro.analysis.diagnostics`).
    diagnostics: List["Diagnostic"]

    def __init__(self, program: Program) -> None:
        self.program = program
        self.original: Optional[ProgramFacts] = None
        #: Whole-program passes executed so far: the front end's
        #: deterministic work counter (``analysis.passes_run``).
        self.passes_run = 0

    def rewritten(self, program: Program) -> "ProgramFacts":
        """The facts of ``program``, this program's pushdown rewrite: its
        passes count on this object, and its classification derives from
        this one's (``tests/test_program_facts.py`` checks it)."""
        facts = ProgramFacts(program)
        facts.original = self
        return facts

    def __getattr__(self, name: str) -> Any:
        # Reached only while the slot is still empty.
        compute = _PASSES.get(name) or _HELD.get(name)
        if compute is None:
            raise AttributeError(name)
        if name == "classification" and self.original is not None:
            compute = _rewrite_classification  # derived, not a pass
        elif name in _PASSES:
            (self.original or self).passes_run += 1
        value = compute(self)
        setattr(self, name, value)
        return value

    # -- the paper's admission verdicts ---------------------------------------

    @property
    def range_restricted(self) -> bool:
        """Finite groundings (Definition 2.5)."""
        return all(r.ok for r in self.safety)

    @property
    def conflict_free(self) -> bool:
        """Cost consistency (Definition 2.10, Lemma 2.3)."""
        return self.conflict.ok

    @property
    def admissible(self) -> bool:
        """Monotonic per component (Definition 4.5, Lemma 4.1)."""
        return all(c.ok for c in self.admissibility)

    @property
    def ok(self) -> bool:
        """Safe to solve strictly: finite groundings, consistent costs,
        guaranteed unique minimal model per component (Corollary 3.5)."""
        return self.range_restricted and self.conflict_free and self.admissible

    @property
    def aggregate_stratified(self) -> bool:
        """No recursion through aggregation (Section 5.1)."""
        return not any(
            c.recursive_through_aggregation for c in self.components
        )

    @property
    def negation_stratified(self) -> bool:
        return not any(c.recursive_through_negation for c in self.components)

    @property
    def r_monotonic(self) -> bool:
        """Section 5.2: every rule is r-monotonic."""
        return all(r.ok for r in self.r_monotonic_reports)

    # -- the report -------------------------------------------------------------

    def diagnostics_by_severity(self, severity: "Severity") -> List["Diagnostic"]:
        return [d for d in self.diagnostics if d.severity is severity]

    def __str__(self) -> str:
        from repro.analysis.diagnostics import Severity

        lines = [f"analysis of {self.program.name}:"]
        lines.append(f"  range-restricted:      {self.range_restricted}")
        lines.append(f"  conflict-free:         {self.conflict_free}")
        lines.append(f"  admissible/monotonic:  {self.admissible}")
        lines.append(f"  aggregate-stratified:  {self.aggregate_stratified}")
        lines.append(f"  negation-stratified:   {self.negation_stratified}")
        lines.append(f"  r-monotonic (§5.2):    {self.r_monotonic}")
        if self.typing.conflicts:
            lines.append(
                f"  lattice-typed:         False "
                f"({len(self.typing.conflicts)} conflict(s))"
            )
        lines.append(f"  components ({len(self.admissibility)}):")
        for comp in self.admissibility:
            lines.append("    " + str(comp).replace("\n", "\n    "))
        lines.append("  classification:")
        for c in self.classification.components:
            lines.append("    " + str(c))
        for r in self.safety:
            if not r.ok:
                lines.append("  " + str(r))
        for r in self.cost_respecting:
            if r.applicable and not r.ok:
                lines.append("  " + str(r))
        if not self.conflict.ok:
            lines.append("  " + str(self.conflict).replace("\n", "\n  "))
        actionable = [
            d for d in self.diagnostics if d.severity > Severity.INFO
        ]
        if actionable:
            lines.append(f"  diagnostics ({len(actionable)}):")
            for d in actionable:
                lines.append("    " + d.format().replace("\n", "\n    "))
        return "\n".join(lines)
