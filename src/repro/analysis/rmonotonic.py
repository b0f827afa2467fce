"""r-monotonic classification (Section 5.2, after Mumick et al.).

A rule is *r-monotonic* when adding tuples to the relations of its
subgoals can only add head tuples — earlier deductions are never
invalidated.  Mumick et al. do not treat aggregated values specially, so a
rule whose aggregate value reaches the head is *not* r-monotonic (the
paper's discussion of the company-control rule ``m(X,Y,N) ← N =r sum ...``).

The classifier here is syntactic and sufficient, mirroring the paper's
discussion:

* no negated subgoals;
* no aggregate variable may occur in the head (its value changes as the
  aggregated relation grows, invalidating the old tuple);
* an aggregate variable may occur in comparison built-ins only where
  growth of the aggregate preserves satisfaction (e.g. ``N > 0.5`` for a
  ``sum``) — determined from the aggregate range's numeric direction;
* an aggregate variable may not feed arithmetic that reaches the head.

The paper's examples are reproduced by the tests: the combined
company-control rule *is* r-monotonic, the shortest-path program and the
party-invitation program are *not* (the latter because the comparison
``N >= K`` has the count on the growing side but the paper's point is the
dependence on ``K`` — see Example 4.3 — our classifier accepts
``N >= K`` and rejects the program for its head aggregate instead; both
classifications agree with Section 5.2's verdicts).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analysis.violations import Violation
from repro.datalog.atoms import AggregateSubgoal, BuiltinSubgoal
from repro.datalog.program import Program
from repro.datalog.rules import Rule
from repro.datalog.spans import Span
from repro.datalog.terms import Expr, Variable, expr_variable_set


@dataclass
class RMonotonicReport:
    """Why a rule is (not) r-monotonic."""

    rule: Rule
    violations: List[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def span(self) -> Optional[Span]:
        """Source location of the offending rule (None if built in code)."""
        return self.rule.span


def _aggregate_growth_direction(
    sg: AggregateSubgoal, program: Program
) -> Optional[int]:
    """Numeric direction the aggregate's value moves as tuples are added.

    For a monotonic aggregate the value ⊑-increases with more tuples, so
    the numeric movement is the range lattice's direction.  For anything
    else we return None (unknown movement).
    """
    function = program.aggregate_function(sg.function)
    if not function.is_monotonic:
        return None
    return function.range_.numeric_direction


def check_rule_r_monotonic(rule: Rule, program: Program) -> RMonotonicReport:
    report = RMonotonicReport(rule)

    for sg in rule.negative_atom_subgoals():
        report.violations.append(
            Violation(
                f"negated subgoal {sg}",
                kind="not-r-monotonic",
                span=sg.span or rule.span,
            )
        )

    head_vars = rule.head.variable_set()
    growth: Dict[Variable, Optional[int]] = {}
    for sg in rule.aggregate_subgoals():
        if not isinstance(sg.result, Variable):
            continue
        if sg.result in head_vars:
            report.violations.append(
                Violation(
                    f"aggregate value {sg.result} of {sg.function} appears "
                    f"in the head (grows as tuples are added, invalidating "
                    f"earlier deductions)",
                    kind="not-r-monotonic",
                    span=sg.span or rule.span,
                )
            )
        growth[sg.result] = _aggregate_growth_direction(sg, program)

    for sg in rule.builtin_subgoals():
        involved = {
            v for v in sg.variable_set() if v in growth
        }
        if not involved:
            continue
        if sg.op in ("=", "!="):
            # Comparing the aggregate with anything by (in)equality: any
            # growth breaks the old relationship.
            report.violations.append(
                Violation(
                    f"aggregate value constrained by (in)equality {sg}",
                    kind="not-r-monotonic",
                    span=sg.span or rule.span,
                )
            )
            continue
        ok = _comparison_growth_safe(sg, growth)
        if not ok:
            report.violations.append(
                Violation(
                    f"comparison {sg} can be invalidated as the aggregate "
                    f"grows",
                    kind="not-r-monotonic",
                    span=sg.span or rule.span,
                )
            )
    return report


def _comparison_growth_safe(
    sg: BuiltinSubgoal, growth: Dict[Variable, Optional[int]]
) -> bool:
    """Does ``sg`` stay satisfied when aggregate values grow?

    Aggregates on the large side of ``>``/``>=`` must grow numerically
    upward; on the small side of ``<``/``<=`` downward.  A side mixing an
    aggregate into arithmetic is accepted only when it is the bare variable
    (conservative).
    """

    def side_ok(expr: Expr, must_move: int) -> bool:
        vars_here = expr_variable_set(expr)
        moving = [v for v in vars_here if v in growth]
        if not moving:
            return True
        if len(moving) == 1 and isinstance(expr, Variable):
            return growth[moving[0]] == must_move
        return False

    if sg.op in (">", ">="):
        return side_ok(sg.lhs, 1) and side_ok(sg.rhs, -1)
    if sg.op in ("<", "<="):
        return side_ok(sg.lhs, -1) and side_ok(sg.rhs, 1)
    return False


def check_program_r_monotonic(program: Program) -> List[RMonotonicReport]:
    return [check_rule_r_monotonic(rule, program) for rule in program.rules]
