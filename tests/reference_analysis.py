"""The pass-by-pass front end, kept as the reference for ProgramFacts.

Until PR 22 ``analyze_program`` ran every whole-program pass itself and
every lint adapter ran its pass again from scratch.  The shared-facts
path (:mod:`repro.analysis.facts`) replaced that; these are the
self-contained originals (only their function-level imports moved to
the top of the file), so ``tests/test_facts_differential.py``
can drive both over the same programs and require identical reports and
diagnostics.  Not a test module, and imported by nothing under ``src/``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.analysis.admissible import check_program_admissible
from repro.analysis.classify import classify_program
from repro.analysis.conflict import PairVerdict, check_conflict_freedom, check_pair
from repro.analysis.dependencies import condense
from repro.analysis.diagnostics import (
    _ADMISSIBILITY_SLUGS,
    _DEFAULT_CHECKS,
    Diagnostic,
    Linter,
    _defaultable_predicates,
    _find_component_subgoal,
    make_diagnostic,
)
from repro.analysis.fd import check_rule_cost_respecting
from repro.analysis.fixes import Fix, fix_declare_default
from repro.analysis.premap import analyze_premappability
from repro.analysis.rmonotonic import check_program_r_monotonic
from repro.analysis.safety import check_program_safety
from repro.analysis.sharding import (
    SHARDABLE,
    SHARDABLE_AFTER_REWRITE,
    analyze_sharding,
)
from repro.analysis.termination import (
    TerminationVerdict,
    check_component_termination,
)
from repro.analysis.typing import infer_types
from repro.analysis.wellformed import FormReport, check_well_typed
from repro.datalog.errors import ProgramError
from repro.datalog.program import Program

ProgramCheck = Callable[[Program], Iterator[Diagnostic]]

#: check name → the parent's adapter for it.
REFERENCE_ADAPTERS: Dict[str, ProgramCheck] = {}


def _reference(name: str) -> Callable[[ProgramCheck], ProgramCheck]:
    def register(fn: ProgramCheck) -> ProgramCheck:
        REFERENCE_ADAPTERS[name] = fn
        return fn

    return register


@_reference("safety")
def _check_safety(program: Program) -> Iterator[Diagnostic]:
    for report in check_program_safety(program):
        for violation in report.violations:
            yield make_diagnostic(
                "unsafe-variable",
                str(violation),
                span=getattr(violation, "span", None) or report.span,
                rule=report.rule,
            )


@_reference("cost-respecting")
def _check_cost_respecting(program: Program) -> Iterator[Diagnostic]:
    for rule in program.rules:
        report = check_rule_cost_respecting(rule, program)
        if report.applicable and not report.ok:
            yield make_diagnostic(
                "not-cost-respecting",
                f"head cost argument not functionally determined: "
                f"{report.detail}",
                rule=rule,
            )


@_reference("conflict-freedom")
def _check_conflicts(program: Program) -> Iterator[Diagnostic]:
    # Cost-respecting failures are reported (with per-rule spans) by the
    # dedicated check above; here only genuine rule-pair conflicts.
    report = check_conflict_freedom(program)
    for verdict in report.undischarged_pairs:
        other = (
            "itself" if verdict.rule1 is verdict.rule2 else str(verdict.rule2)
        )
        yield make_diagnostic(
            "conflict",
            f"possibly conflicting with {other}: neither a containment "
            f"mapping nor an integrity-constraint instance discharges "
            f"the pair",
            rule=verdict.rule1,
        )


@_reference("admissibility")
def _check_admissibility(program: Program) -> Iterator[Diagnostic]:
    for component in check_program_admissible(program):
        for rule_report in component.rule_reports:
            for violation in rule_report.violations:
                kind = getattr(violation, "kind", "") or ""
                slug = (
                    kind
                    if kind in _ADMISSIBILITY_SLUGS
                    else "inadmissible-aggregate"
                )
                fixes: List[Optional[Fix]] = []
                if kind == "inadmissible-aggregate":
                    fixes.append(
                        fix_declare_default(
                            program,
                            _defaultable_predicates(
                                rule_report.rule,
                                program,
                                component.component.cdb,
                            ),
                        )
                    )
                yield make_diagnostic(
                    slug,
                    str(violation),
                    span=getattr(violation, "span", None)
                    or rule_report.span,
                    rule=rule_report.rule,
                    fixes=fixes,
                )


@_reference("stratification")
def _check_stratification(program: Program) -> Iterator[Diagnostic]:
    for component in condense(program):
        names = ", ".join(sorted(component.cdb))
        if component.recursive_through_aggregation:
            rule, sg = _find_component_subgoal(
                component, aggregate=True
            )
            yield make_diagnostic(
                "recursive-aggregation",
                f"component {{{names}}} recurses through aggregation "
                f"(not aggregate-stratified; evaluated with the "
                f"monotonic semantics)",
                span=(sg.span if sg is not None else None)
                or (rule.span if rule is not None else None),
                rule=rule,
            )
        if component.recursive_through_negation:
            rule, sg = _find_component_subgoal(
                component, aggregate=False
            )
            yield make_diagnostic(
                "non-stratified-negation",
                f"component {{{names}}} recurses through negation "
                f"(not stratified)",
                span=(sg.span if sg is not None else None)
                or (rule.span if rule is not None else None),
                rule=rule,
            )


@_reference("r-monotonicity")
def _check_r_monotonic(program: Program) -> Iterator[Diagnostic]:
    for report in check_program_r_monotonic(program):
        for violation in report.violations:
            yield make_diagnostic(
                "not-r-monotonic",
                str(violation),
                span=getattr(violation, "span", None) or report.span,
                rule=report.rule,
            )


@_reference("termination")
def _check_termination(program: Program) -> Iterator[Diagnostic]:
    for component in condense(program):
        report = check_component_termination(component, program)
        if report.verdict is TerminationVerdict.UNKNOWN:
            names = ", ".join(sorted(report.component.cdb))
            rules = report.component.rules
            yield make_diagnostic(
                "termination-unknown",
                f"component {{{names}}}: {report.reason}",
                rule=rules[0] if rules else None,
            )


@_reference("lattice-typing")
def _check_lattice_typing(program: Program) -> Iterator[Diagnostic]:
    report = infer_types(program)
    for conflict in report.conflicts:
        if conflict.kind == "position":
            yield make_diagnostic(
                "lattice-conflict",
                conflict.message(),
                span=conflict.span,
            )
        else:
            # Variable-level conflicts duplicate the per-rule well-typed
            # check (MAD302) when that check already fires for the same
            # rule; only report flows Definition 4.2 cannot see.
            if conflict.rule_index is not None:
                rule = program.rules[conflict.rule_index]
                form = FormReport(rule)
                try:
                    check_well_typed(rule, program, form)
                except ProgramError:
                    continue
                if form.type_violations:
                    continue
                yield make_diagnostic(
                    "incompatible-cost-flow",
                    conflict.message(),
                    span=conflict.span or rule.span,
                    rule=rule,
                )
            else:
                yield make_diagnostic(
                    "incompatible-cost-flow",
                    conflict.message(),
                    span=conflict.span,
                )


@_reference("premappability")
def _check_premappability(program: Program) -> Iterator[Diagnostic]:
    _STATUS_SLUGS = {
        "applied": "aggregate-pushdown-applied",
        "blocked": "aggregate-pushdown-blocked",
        "changes-semantics": "aggregate-pushdown-unsound",
    }
    try:
        report = analyze_premappability(program)
    except ProgramError:
        # The program does not classify (already diagnosed above); the
        # optimizer verdicts would only repeat the failure.
        return
    for verdict in report.verdicts:
        yield make_diagnostic(
            _STATUS_SLUGS[verdict.status],
            str(verdict),
            rule=verdict.rule,
        )


@_reference("shard-safety")
def _check_shard_safety(program: Program) -> Iterator[Diagnostic]:
    _STATUS_SLUGS = {
        SHARDABLE: "component-shardable",
        SHARDABLE_AFTER_REWRITE: "component-shardable-after-rewrite",
    }
    try:
        report = analyze_sharding(program)
    except ProgramError:
        # The program does not classify (already diagnosed above); the
        # shard verdicts would only repeat the failure.
        return
    for verdict in report.components:
        # Non-recursive components are sequential by construction; a
        # BLOCKED note for each of them would be noise, not a finding.
        if not verdict.component.internal_kinds:
            continue
        rule, _ = _find_component_subgoal(
            verdict.component,
            aggregate=verdict.component.recursive_through_aggregation,
        )
        yield make_diagnostic(
            _STATUS_SLUGS.get(verdict.status, "component-not-shardable"),
            str(verdict),
            rule=rule,
        )


def reference_linter() -> Linter:
    """The default check list, in order, with every pass adapter swapped
    for its self-contained original (the hygiene lints never called a
    pass and are shared)."""
    assert {c.name for c in _DEFAULT_CHECKS} >= set(REFERENCE_ADAPTERS)
    linter = Linter([])
    for check in _DEFAULT_CHECKS:
        if check.name in REFERENCE_ADAPTERS:
            linter.register(
                check.name,
                REFERENCE_ADAPTERS[check.name],
                structural=check.structural,
            )
        else:
            linter.checks.append(check)
    return linter


@dataclass
class ReferenceReport:
    """What the reference front end reports: one field per entry or
    verdict of :class:`~repro.analysis.facts.ProgramFacts` it is
    compared on, under the same name."""

    program: Program
    safety: List[Any]
    cost_respecting: List[Any]
    conflict: Any
    admissibility: List[Any]
    aggregate_stratified: bool
    negation_stratified: bool
    r_monotonic: bool
    typing: Any
    classification: Any
    sharding: Any
    diagnostics: List[Diagnostic]


def reference_analyze(program: Program) -> ReferenceReport:
    """``analyze_program`` as it was: each pass called in turn, then the
    linter running all of them again."""
    safety = check_program_safety(program)
    cost_respecting = [
        check_rule_cost_respecting(rule, program) for rule in program.rules
    ]
    conflict = check_conflict_freedom(program)
    admissibility = check_program_admissible(program)
    aggregate_stratified = not any(
        c.recursive_through_aggregation for c in condense(program)
    )
    negation_stratified = not any(
        c.recursive_through_negation for c in condense(program)
    )
    r_monotonic = all(r.ok for r in check_program_r_monotonic(program))
    typing = infer_types(program)
    classification = classify_program(
        program, admissibility=admissibility, typing=typing
    )
    sharding = analyze_sharding(program, classification=classification)
    return ReferenceReport(
        program=program,
        safety=safety,
        cost_respecting=cost_respecting,
        conflict=conflict,
        admissibility=admissibility,
        aggregate_stratified=aggregate_stratified,
        negation_stratified=negation_stratified,
        r_monotonic=r_monotonic,
        typing=typing,
        classification=classification,
        sharding=sharding,
        diagnostics=reference_linter().lint(program),
    )


def reference_pair_verdicts(program: Program) -> List[PairVerdict]:
    """Definition 2.10's pair verdicts as ``check_conflict_freedom`` made
    them before it renamed each rule once per side: ``check_pair``, which
    renames both rules apart, on every pair of one cost predicate's
    rules, a rule with itself included."""
    by_predicate: Dict[str, List[Any]] = {}
    for rule in program.rules:
        if program.is_cost_predicate(rule.head.predicate):
            by_predicate.setdefault(rule.head.predicate, []).append(rule)
    return [
        check_pair(r1, r2, program)
        for rules in by_predicate.values()
        for r1, r2 in itertools.combinations_with_replacement(rules, 2)
    ]
