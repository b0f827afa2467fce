"""Per-component classification: one verdict per SCC, driving evaluation.

The paper's conditions are all *per component* (Definition 2.2's program
components), but PR 1's pipeline only exposed program-wide booleans
(admissible / aggregate-stratified / ...).  This pass rolls the inferred
lattice types (:mod:`repro.analysis.typing`), the admissibility reports
(Definition 4.5) and the recursion structure of each SCC into a single
verdict:

* ``STRATIFIED`` — no recursion through aggregation or negation; the
  component is ordinary (possibly positively recursive) Datalog and any
  aggregate subgoals read lower strata only (Section 5.1's stratified
  class).
* ``MONOTONIC`` — recursion through aggregation, every recursive
  aggregate monotonic, all rules admissible: ``T_P`` is monotonic
  (Lemma 4.1) and the component has a unique minimal model.
* ``PSEUDO_MONOTONIC`` — admissible via the default-value route: some
  recursive aggregate is only pseudo-monotonic, but its CDB conjuncts are
  default-value cost predicates (Section 4.1.1, Example 4.4).
* ``NEEDS_WELL_FOUNDED`` — not certified: recursion through negation,
  a cross-rule lattice conflict on a CDB predicate, or an inadmissible
  rule.  Only the paper's Section 6 iterated-fixpoint construction (or a
  well-founded extension) gives these meaning; evaluation falls back to
  the strict naive engine.

The verdict maps to a recommended evaluation mode, consumed by
``engine.solver`` when ``method="auto"`` — the :data:`AUTO_POLICY`
table: cost-ordered slices (greedy) for extremal recursion, whole-delta
rounds (semi-naive) for the other certified components, naive otherwise.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.aggregates.standard import Maximum, Minimum
from repro.analysis.admissible import (
    ComponentAdmissibility,
    check_program_admissible,
)
from repro.analysis.dependencies import Component
from repro.analysis.typing import TypeConflict, TypingReport, infer_types
from repro.analysis.wellformed import _is_cdb_aggregate
from repro.datalog.program import Program


class ComponentClass(enum.Enum):
    """The per-SCC verdict (module docstring)."""

    STRATIFIED = "stratified"
    MONOTONIC = "monotonic"
    PSEUDO_MONOTONIC = "pseudo-monotonic"
    NEEDS_WELL_FOUNDED = "needs-well-founded"


@dataclass
class ComponentClassification:
    """Verdict, provenance and recommended evaluation mode for one SCC."""

    component: Component
    verdict: ComponentClass
    #: Certified monotonic (admissible and free of CDB lattice conflicts).
    certified: bool
    #: Evaluation mode ``method="auto"`` picks: naive/seminaive/greedy.
    method: str
    #: Names of aggregate functions applied to CDB predicates.
    aggregate_functions: Tuple[str, ...] = ()
    reasons: Tuple[str, ...] = ()

    def __str__(self) -> str:
        parts = [f"{self.component}: {self.verdict.value}"]
        parts.append(f"[{self.method}]")
        if self.reasons:
            parts.append("— " + "; ".join(self.reasons))
        return " ".join(parts)


@dataclass
class ProgramClassification:
    """Bottom-up per-component verdicts for a whole program."""

    program: Program
    components: List[ComponentClassification]
    typing: TypingReport

    @property
    def certified(self) -> bool:
        return all(c.certified for c in self.components)

    def __str__(self) -> str:
        return "\n".join(str(c) for c in self.components)


def _cdb_aggregate_functions(
    component: Component, program: Program
) -> Tuple[str, ...]:
    names: Set[str] = set()
    for rule in component.rules:
        for sg in rule.aggregate_subgoals():
            if _is_cdb_aggregate(sg, component.cdb):
                names.add(sg.function)
    return tuple(sorted(names))


def _conflict_predicates(
    typing: TypingReport,
) -> Dict[str, List[TypeConflict]]:
    """Map each conflict to the predicate it taints."""
    out: Dict[str, List[TypeConflict]] = {}
    for conflict in typing.conflicts:
        predicate: Optional[str] = None
        if conflict.kind == "position":
            # subject is "argument N of p".
            predicate = conflict.subject.rsplit(" ", 1)[-1]
        elif conflict.rule_index is not None:
            predicate = typing.program.rules[
                conflict.rule_index
            ].head.predicate
        if predicate is not None:
            out.setdefault(predicate, []).append(conflict)
    return out


def classify_component(
    component: Component,
    program: Program,
    admissibility: ComponentAdmissibility,
    typing: TypingReport,
) -> ComponentClassification:
    """Classify one SCC (see module docstring for the verdict order)."""
    functions = _cdb_aggregate_functions(component, program)
    reasons: List[str] = []

    tainted = _conflict_predicates(typing)
    cdb_conflicts = [
        conflict
        for predicate in sorted(component.cdb)
        for conflict in tainted.get(predicate, [])
    ]
    certified = admissibility.ok and not cdb_conflicts

    if component.recursive_through_negation:
        verdict = ComponentClass.NEEDS_WELL_FOUNDED
        reasons.append("recursion through negation")
        certified = False
    elif cdb_conflicts:
        verdict = ComponentClass.NEEDS_WELL_FOUNDED
        reasons.append(
            "lattice conflict on "
            + ", ".join(sorted({c.subject for c in cdb_conflicts}))
        )
    elif not component.recursive_through_aggregation:
        verdict = ComponentClass.STRATIFIED
        if not admissibility.ok:
            reasons.append("not admissible (evaluated stratum-at-a-time)")
    elif admissibility.ok:
        all_monotonic = all(
            program.aggregate_function(name).is_monotonic
            for name in functions
        )
        if all_monotonic:
            verdict = ComponentClass.MONOTONIC
        else:
            verdict = ComponentClass.PSEUDO_MONOTONIC
            reasons.append(
                "pseudo-monotonic aggregate over default-value predicates"
            )
    else:
        verdict = ComponentClass.NEEDS_WELL_FOUNDED
        kinds = sorted(
            {
                v.kind or "inadmissible"
                for r in admissibility.rule_reports
                for v in r.violations
            }
        )
        reasons.append("inadmissible: " + ", ".join(kinds))

    method = _recommended_method(component, program, verdict, certified)
    return ComponentClassification(
        component=component,
        verdict=verdict,
        certified=certified,
        method=method,
        aggregate_functions=functions,
        reasons=tuple(reasons),
    )


def greedy_applicable(program: Program, component: Component) -> Optional[int]:
    """The numeric direction (+1 max-oriented, -1 min-oriented) if the
    component's rows can be ranked by cost, else None.

    A property of the declarations: every CDB predicate is a cost
    predicate over a numeric chain, all with the same direction, and
    none carries a default value.
    """
    direction: Optional[int] = None
    for predicate in component.cdb:
        decl = program.decl(predicate)
        if not decl.is_cost_predicate or decl.has_default:
            return None
        assert decl.lattice is not None
        d = decl.lattice.numeric_direction
        if d is None or direction not in (None, d):
            return None
        direction = d
    return direction


#: verdict → the policy ``method="auto"`` runs: (in general, when the
#: recursion is extremal — min/max only — over rows rankable by cost).
#: Anything not certified runs "naive" whatever its verdict.
AUTO_POLICY: Dict[ComponentClass, Tuple[str, str]] = {
    ComponentClass.STRATIFIED: ("seminaive", "seminaive"),
    # Cost-ordered slices are a cost model (how few revisions the one
    # delta round takes), not a soundness condition — see engine/greedy;
    # the measurement behind the choice is docs/PERFORMANCE.md §8.
    ComponentClass.MONOTONIC: ("seminaive", "greedy"),
    ComponentClass.PSEUDO_MONOTONIC: ("seminaive", "seminaive"),
    ComponentClass.NEEDS_WELL_FOUNDED: ("naive", "naive"),
}


def _recommended_method(
    component: Component,
    program: Program,
    verdict: ComponentClass,
    certified: bool,
) -> str:
    if not certified:
        return "naive"
    general, extremal = AUTO_POLICY[verdict]
    if (
        extremal != general
        and greedy_applicable(program, component) is not None
        and all(
            isinstance(program.aggregate_function(name), (Minimum, Maximum))
            for name in _cdb_aggregate_functions(component, program)
        )
    ):
        return extremal
    return general


def classify_program(
    program: Program,
    *,
    admissibility: Optional[List[ComponentAdmissibility]] = None,
    typing: Optional[TypingReport] = None,
) -> ProgramClassification:
    """Classify every component, bottom-up.

    ``admissibility``/``typing`` are those passes' results when already
    computed; front-end runs do not thread them by hand but read
    :class:`repro.analysis.facts.ProgramFacts`, which does.
    """
    if admissibility is None:
        admissibility = check_program_admissible(program)
    if typing is None:
        typing = infer_types(program)
    components = [
        classify_component(report.component, program, report, typing)
        for report in admissibility
    ]
    return ProgramClassification(
        program=program, components=components, typing=typing
    )
