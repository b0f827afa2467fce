"""Static analysis: safety, conflict-freedom, admissibility, stratification,
whole-program lattice typing, per-SCC classification and fix-its."""

from repro.analysis.admissible import (
    ComponentAdmissibility,
    RuleAdmissibility,
    check_component_admissible,
    check_program_admissible,
    check_rule_admissible,
)
from repro.analysis.builtins_mono import (
    BuiltinMonotonicityReport,
    check_builtin_monotonicity,
)
from repro.analysis.classify import (
    ComponentClass,
    ComponentClassification,
    ProgramClassification,
    classify_component,
    classify_program,
)
from repro.analysis.conflict import (
    ConflictReport,
    check_conflict_freedom,
    check_pair,
    rename_apart,
)
from repro.analysis.dependencies import (
    Component,
    DependencyEdge,
    EdgeKind,
    condense,
    dependency_edges,
)
from repro.analysis.diagnostics import (
    BY_CODE,
    BY_SLUG,
    Diagnostic,
    LintRule,
    Linter,
    Severity,
    expected_mismatches,
    lint_program,
    lint_source,
    make_diagnostic,
    render_json,
    render_text,
)
from repro.analysis.fd import (
    CostRespectReport,
    FunctionalDependency,
    check_rule_cost_respecting,
    fd_closure,
    rule_functional_dependencies,
)
from repro.analysis.fixes import (
    Fix,
    FixResult,
    TextEdit,
    apply_edits,
    fix_text,
    is_left_to_right_evaluable,
)
from repro.analysis.facts import ProgramFacts
from repro.analysis.report import analyze_program
from repro.analysis.termination import (
    TerminationReport,
    TerminationVerdict,
    check_component_termination,
)
from repro.analysis.rmonotonic import (
    RMonotonicReport,
    check_program_r_monotonic,
    check_rule_r_monotonic,
)
from repro.analysis.safety import (
    SafetyReport,
    check_program_safety,
    check_rule_safety,
    limited_variables,
    quasi_limited_variables,
)
from repro.analysis.typing import (
    ArgType,
    TypeConflict,
    TypeLevel,
    TypingReport,
    infer_types,
)
from repro.analysis.violations import Violation
from repro.analysis.wellformed import (
    FormReport,
    cdb_cost_variables,
    check_rule_form,
)

__all__ = [
    "BY_CODE",
    "BY_SLUG",
    "Diagnostic",
    "LintRule",
    "Linter",
    "Severity",
    "Violation",
    "expected_mismatches",
    "lint_program",
    "lint_source",
    "make_diagnostic",
    "render_json",
    "render_text",
    "ProgramFacts",
    "analyze_program",
    "TerminationReport",
    "TerminationVerdict",
    "check_component_termination",
    "Component",
    "DependencyEdge",
    "EdgeKind",
    "condense",
    "dependency_edges",
    "SafetyReport",
    "check_program_safety",
    "check_rule_safety",
    "limited_variables",
    "quasi_limited_variables",
    "CostRespectReport",
    "FunctionalDependency",
    "check_rule_cost_respecting",
    "fd_closure",
    "rule_functional_dependencies",
    "ConflictReport",
    "check_conflict_freedom",
    "check_pair",
    "rename_apart",
    "FormReport",
    "cdb_cost_variables",
    "check_rule_form",
    "BuiltinMonotonicityReport",
    "check_builtin_monotonicity",
    "ComponentAdmissibility",
    "RuleAdmissibility",
    "check_component_admissible",
    "check_program_admissible",
    "check_rule_admissible",
    "RMonotonicReport",
    "check_program_r_monotonic",
    "check_rule_r_monotonic",
    "ArgType",
    "TypeConflict",
    "TypeLevel",
    "TypingReport",
    "infer_types",
    "ComponentClass",
    "ComponentClassification",
    "ProgramClassification",
    "classify_component",
    "classify_program",
    "Fix",
    "FixResult",
    "TextEdit",
    "apply_edits",
    "fix_text",
    "is_left_to_right_evaluable",
]
