"""The deductive-database substrate: AST, parser, unification, printing."""

from repro.datalog.atoms import (
    AggregateSubgoal,
    Atom,
    AtomSubgoal,
    BuiltinSubgoal,
    Subgoal,
    make_atom,
)
from repro.datalog.errors import (
    CostConsistencyError,
    NonTerminationError,
    NotAdmissibleError,
    ParseError,
    ProgramError,
    ReproError,
    SafetyError,
)
from repro.datalog.parser import parse_atom_text, parse_program, parse_rule
from repro.datalog.pretty import program_to_text
from repro.datalog.program import PredicateDecl, Program
from repro.datalog.rules import IntegrityConstraint, Rule
from repro.datalog.terms import (
    ArithExpr,
    Constant,
    Expr,
    Term,
    Variable,
    evaluate_expr,
)
from repro.datalog.unify import (
    Substitution,
    apply_to_atom,
    apply_to_rule,
    apply_to_subgoal,
    containment_mapping,
    find_constraint_instance,
    unify_atoms,
    unify_terms,
)

__all__ = [
    "AggregateSubgoal",
    "Atom",
    "AtomSubgoal",
    "BuiltinSubgoal",
    "Subgoal",
    "make_atom",
    "CostConsistencyError",
    "NonTerminationError",
    "NotAdmissibleError",
    "ParseError",
    "ProgramError",
    "ReproError",
    "SafetyError",
    "parse_atom_text",
    "parse_program",
    "parse_rule",
    "program_to_text",
    "PredicateDecl",
    "Program",
    "IntegrityConstraint",
    "Rule",
    "ArithExpr",
    "Constant",
    "Expr",
    "Term",
    "Variable",
    "evaluate_expr",
    "Substitution",
    "apply_to_atom",
    "apply_to_rule",
    "apply_to_subgoal",
    "containment_mapping",
    "find_constraint_instance",
    "unify_atoms",
    "unify_terms",
]
