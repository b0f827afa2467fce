"""One-call static analysis: the full pipeline of the paper's conditions.

``analyze(program)`` runs, in order:

1. range-restriction (Definition 2.5) per rule;
2. cost-respecting (Definition 2.7) per rule;
3. conflict-freedom (Definition 2.10) — implies cost consistency
   (Lemma 2.3);
4. component condensation + per-component admissibility (Definition 4.5)
   — admissible components are monotonic (Lemma 4.1);
5. classification extras: aggregate-stratified / negation-stratified
   (Section 5.1) and r-monotonic (Section 5.2);
6. whole-program lattice type inference (:mod:`repro.analysis.typing`)
   and the per-component verdicts (:mod:`repro.analysis.classify`) that
   ``method="auto"`` evaluation consults.

Each pass runs once per call, on one
:class:`repro.analysis.facts.ProgramFacts` that the linter reads too.
The result renders as a readable report and exposes the booleans the
engine consults (``Database.solve`` refuses non-admissible programs in
strict mode).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.analysis.admissible import ComponentAdmissibility
from repro.analysis.classify import ProgramClassification
from repro.analysis.conflict import ConflictReport
from repro.analysis.diagnostics import (
    Diagnostic,
    Linter,
    Severity,
    lint_program,
)
from repro.analysis.facts import ProgramFacts
from repro.analysis.fd import CostRespectReport
from repro.analysis.premap import PremapReport
from repro.analysis.safety import SafetyReport
from repro.analysis.sharding import ShardingReport
from repro.analysis.typing import TypingReport
from repro.datalog.program import Program


@dataclass
class AnalysisReport:
    """Everything the static pipeline learned about a program."""

    program: Program
    safety: List[SafetyReport] = field(default_factory=list)
    cost_respecting: List[CostRespectReport] = field(default_factory=list)
    conflict: ConflictReport = field(default_factory=ConflictReport)
    components: List[ComponentAdmissibility] = field(default_factory=list)
    aggregate_stratified: bool = False
    negation_stratified: bool = False
    r_monotonic: bool = False
    #: Every finding re-expressed as a coded, source-located diagnostic
    #: (see :mod:`repro.analysis.diagnostics`).
    diagnostics: List[Diagnostic] = field(default_factory=list)
    #: Inferred lattice types per predicate argument position.
    typing: Optional[TypingReport] = None
    #: Per-SCC verdicts + recommended evaluation modes.
    classification: Optional[ProgramClassification] = None
    #: Per-SCC shard-safety verdicts (docs/PARALLELISM.md).
    sharding: Optional[ShardingReport] = None
    #: Per-occurrence aggregate-pushdown verdicts (docs/OPTIMIZATION.md).
    premappability: Optional[PremapReport] = None

    @property
    def range_restricted(self) -> bool:
        return all(r.ok for r in self.safety)

    @property
    def conflict_free(self) -> bool:
        return self.conflict.ok

    @property
    def cost_consistent_certified(self) -> bool:
        """Conflict-freedom is the paper's sufficient condition (Lemma 2.3)."""
        return self.conflict_free

    @property
    def admissible(self) -> bool:
        return all(c.ok for c in self.components)

    @property
    def monotonic_certified(self) -> bool:
        """Admissible ⇒ monotonic (Lemma 4.1); per component, hence for the
        iterated construction of Section 6.3."""
        return self.admissible

    @property
    def ok(self) -> bool:
        """Safe to solve strictly: finite groundings, consistent costs,
        guaranteed unique minimal model per component."""
        return (
            self.range_restricted
            and self.conflict_free
            and self.admissible
        )

    def diagnostics_by_severity(self, severity: Severity) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is severity]

    def __str__(self) -> str:
        lines = [f"analysis of {self.program.name}:"]
        lines.append(f"  range-restricted:      {self.range_restricted}")
        lines.append(f"  conflict-free:         {self.conflict_free}")
        lines.append(f"  admissible/monotonic:  {self.admissible}")
        lines.append(f"  aggregate-stratified:  {self.aggregate_stratified}")
        lines.append(f"  negation-stratified:   {self.negation_stratified}")
        lines.append(f"  r-monotonic (§5.2):    {self.r_monotonic}")
        if self.typing is not None and self.typing.conflicts:
            lines.append(
                f"  lattice-typed:         False "
                f"({len(self.typing.conflicts)} conflict(s))"
            )
        lines.append(f"  components ({len(self.components)}):")
        for comp in self.components:
            lines.append("    " + str(comp).replace("\n", "\n    "))
        if self.classification is not None:
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


def analyze_program(
    program: Program,
    *,
    linter: "Linter | None" = None,
    facts: Optional[ProgramFacts] = None,
) -> AnalysisReport:
    """Run the full static pipeline on ``program``.

    Every pass runs once, on one :class:`ProgramFacts`: the report's
    fields and the linter's coded, source-located diagnostics
    (``report.diagnostics``) read the same results.  ``facts`` is the
    internal hand-off for a caller that goes on using them after the
    analysis (``solve()`` does); it must be ``ProgramFacts(program)``.
    """
    if facts is None:
        facts = ProgramFacts(program)
    report = AnalysisReport(program)
    report.safety = facts.safety
    report.cost_respecting = facts.cost_respecting
    report.conflict = facts.conflict
    report.components = facts.admissibility
    report.aggregate_stratified = facts.aggregate_stratified
    report.negation_stratified = facts.negation_stratified
    report.r_monotonic = facts.r_monotonic
    report.typing = facts.typing
    report.classification = facts.classification
    report.sharding = facts.sharding
    report.premappability = facts.premappability
    report.diagnostics = lint_program(program, linter=linter, facts=facts)
    return report
