"""Admissible rules and monotonic programs (Definition 4.5, Lemma 4.1).

A rule is *admissible* (relative to its component's CDB) when it is
well-typed and well-formed, every CDB aggregate subgoal uses a monotonic
aggregate function — or a pseudo-monotonic one whose CDB conjuncts are all
default-value cost predicates — and the conjunction of its built-ins is
monotonic.  If every rule of a component is admissible, ``T_P`` is
monotonic in its first argument (Lemma 4.1) and the component has a unique
minimal model.

One extra check rides along: negation applied to a CDB predicate of the
same component breaks monotonicity whenever the rule can fire (the remark
after Proposition 6.1), so it is reported as an admissibility violation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional

from repro.analysis.builtins_mono import check_builtin_monotonicity
from repro.analysis.violations import Violation
from repro.analysis.dependencies import Component, condense
from repro.analysis.wellformed import _is_cdb_aggregate, check_rule_form
from repro.datalog.program import Program
from repro.datalog.rules import Rule
from repro.datalog.spans import Span


@dataclass
class RuleAdmissibility:
    """Admissibility verdict for one rule within one component."""

    rule: Rule
    violations: List[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def span(self) -> Optional[Span]:
        """Source location of the offending rule (None if built in code)."""
        return self.rule.span

    def __str__(self) -> str:
        if self.ok:
            return f"admissible: {self.rule}"
        return f"NOT admissible: {self.rule}\n    " + "\n    ".join(self.violations)


def check_rule_admissible(
    rule: Rule, program: Program, cdb: FrozenSet[str]
) -> RuleAdmissibility:
    """Definition 4.5 for one rule."""
    out = RuleAdmissibility(rule)

    form = check_rule_form(rule, program, cdb)
    out.violations += [
        Violation(f"typing: {v}", kind=v.kind or "ill-typed", span=v.span)
        for v in form.type_violations
    ]
    out.violations += [
        Violation(f"form: {v}", kind=v.kind or "ill-formed", span=v.span)
        for v in form.form_violations
    ]

    for sg in rule.aggregate_subgoals():
        if not _is_cdb_aggregate(sg, cdb):
            continue
        function = program.aggregate_function(sg.function)
        if function.is_monotonic:
            continue
        if function.is_pseudo_monotonic:
            bad = [
                c.predicate
                for c in sg.conjuncts
                if c.predicate in cdb
                and not program.decl(c.predicate).has_default
            ]
            if bad:
                out.violations.append(
                    Violation(
                        f"aggregate {sg.function} is only pseudo-monotonic "
                        f"but CDB conjunct(s) "
                        f"{', '.join(sorted(set(bad)))} are not "
                        f"default-value cost predicates",
                        kind="inadmissible-aggregate",
                        span=sg.span or rule.span,
                    )
                )
        else:
            out.violations.append(
                Violation(
                    f"aggregate {sg.function} is neither monotonic nor "
                    f"pseudo-monotonic",
                    kind="inadmissible-aggregate",
                    span=sg.span or rule.span,
                )
            )

    builtin_report = check_builtin_monotonicity(rule, program, cdb)
    out.violations += [
        Violation(
            f"built-ins: {v}",
            kind=v.kind or "nonmonotone-builtin",
            span=v.span,
        )
        for v in builtin_report.violations
    ]

    for sg in rule.negative_atom_subgoals():
        if sg.atom.predicate in cdb:
            out.violations.append(
                Violation(
                    f"negation on CDB predicate {sg.atom.predicate} breaks "
                    f"monotonicity (remark after Proposition 6.1)",
                    kind="negation-in-recursion",
                    span=sg.span or rule.span,
                )
            )
    return out


@dataclass
class ComponentAdmissibility:
    """Admissibility of one component (whose rules share a CDB)."""

    component: Component
    rule_reports: List[RuleAdmissibility] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.rule_reports)

    @property
    def monotonic(self) -> bool:
        """Admissible components are monotonic (Lemma 4.1)."""
        return self.ok

    def __str__(self) -> str:
        status = "monotonic (all rules admissible)" if self.ok else "NOT certified"
        lines = [f"{self.component}: {status}"]
        for r in self.rule_reports:
            if not r.ok:
                lines.append("  " + str(r).replace("\n", "\n  "))
        return "\n".join(lines)


def check_component_admissible(
    component: Component, program: Program
) -> ComponentAdmissibility:
    report = ComponentAdmissibility(component)
    for rule in component.rules:
        report.rule_reports.append(
            check_rule_admissible(rule, program, component.cdb)
        )
    return report


def check_program_admissible(
    program: Program, *, components: Optional[List[Component]] = None
) -> List[ComponentAdmissibility]:
    """Per-component admissibility for the whole program, bottom-up
    (over ``components``, its condensation, when already computed)."""
    if components is None:
        components = condense(program)
    return [
        check_component_admissible(component, program)
        for component in components
    ]
