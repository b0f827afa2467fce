"""The Ganguly–Greco–Zaniolo rewrite of min/max aggregates into negation
(Section 5.4).

The third rule of the shortest-path program,

    s(X, Y, C) <- C =r min{D : path(X, Z, Y, D)}.

becomes the negation pair

    s_better(X, Y, C) <- path(X, W1, Y, C), path(X, Z, Y, D), D < C.
    s(X, Y, C)        <- path(X, W2, Y, C), not s_better(X, Y, C).

i.e. "a non-dominated path cost".  The paper writes the dominated-cost
test with an explicit domain predicate ``d(C)``; binding ``C`` to an
actual aggregated-atom cost is the range-restricted equivalent and defines
the same ``s`` relation.  The rewritten program is *normal* (aggregates
gone, cost columns become ordinary columns), and its well-founded model
(:mod:`repro.semantics.wellfounded_normal`) is the Section 5.4 semantics.

Because the rewritten program accumulates *all* derivable cost atoms as
plain tuples, recursively derived costs must be bounded for bottom-up
termination on cyclic data — Ganguly et al.'s (unstated, see the paper's
footnote 2) assumption that ``<_d`` is a well-founded order on a suitable
domain.  ``cost_bound`` materialises that domain: every rule defining a
rewritten cost predicate gets a guard ``C <= bound`` (for min; ``>=`` for
max).  Any bound at least the largest finite aggregate value leaves the
extremal relation unchanged.
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional

from repro.datalog.atoms import (
    AggregateSubgoal,
    Atom,
    AtomSubgoal,
    BuiltinSubgoal,
    Subgoal,
)
from repro.datalog.errors import ProgramError
from repro.datalog.program import PredicateDecl, Program
from repro.datalog.rules import Rule
from repro.datalog.terms import Constant, Variable

#: Aggregate names the rewrite understands, with the comparison that makes
#: one value dominate another (strictly better).
_EXTREMA = {"min": "<", "max": ">"}


def _fresh_variable(base: str, taken: set) -> Variable:
    for i in itertools.count():
        candidate = Variable(f"{base}{i}")
        if candidate not in taken:
            taken.add(candidate)
            return candidate
    raise AssertionError("unreachable")


def rewrite_extrema(
    program: Program, *, cost_bound: Optional[float] = None
) -> Program:
    """Rewrite every min/max ``=r`` aggregate rule into a negation pair.

    Only rules of the shape ``h(..., C) <- C =r min{D : conjunction}`` are
    rewritten (the paper's Section 5.4 class); anything else raises.
    Cost-predicate declarations are *demoted* to ordinary declarations —
    the rewritten program tracks every derivable cost as a plain tuple and
    lets negation select the non-dominated ones.
    """
    new_rules = []
    new_decls: Dict[str, PredicateDecl] = {
        name: (
            PredicateDecl(decl.name, decl.arity)
            if decl.is_cost_predicate
            else decl
        )
        for name, decl in program.declarations.items()
    }
    for decl in program.declarations.values():
        if decl.has_default:
            raise ProgramError(
                "the extrema rewrite does not handle default-value "
                "predicates (Section 5.4 covers min/max programs only)"
            )

    bounded_predicates = set()
    dominated_direction = "<"

    for rule in program.rules:
        aggregates = list(rule.aggregate_subgoals())
        if not aggregates:
            new_rules.append(rule)
            continue
        if len(aggregates) != 1 or len(rule.body) != 1:
            raise ProgramError(
                f"rule {rule}: the rewrite handles single-aggregate rules "
                f"of the form 'h(..., C) <- C =r min{{D : ...}}'"
            )
        sg = aggregates[0]
        if sg.function not in _EXTREMA:
            raise ProgramError(
                f"rule {rule}: only min/max aggregates are rewritable "
                f"(Section 5.4); found {sg.function}"
            )
        if not sg.restricted:
            raise ProgramError(
                f"rule {rule}: the rewrite needs the =r form (the = form "
                f"would assert extremal values for empty groups)"
            )
        dominates = _EXTREMA[sg.function]
        if not isinstance(sg.result, Variable):
            raise ProgramError(f"rule {rule}: aggregate result must be a variable")
        if sg.multiset_var is None:
            raise ProgramError(
                f"rule {rule}: min/max need an explicit multiset variable"
            )

        taken = set(rule.variable_set())
        better_pred = f"{rule.head.predicate}__better"

        # Copy 1 binds the candidate cost C (the multiset variable renamed
        # to the result variable); copy 2 binds a competitor cost D.
        def instantiate(cost_var: Variable, suffix: str) -> list:
            rename = {sg.multiset_var: cost_var}
            for v in sg.inner_variable_set() - {sg.multiset_var}:
                if v in rule.grouping_variables(sg):
                    rename[v] = v
                else:
                    rename[v] = _fresh_variable(f"{v.name}_{suffix}", taken)
            out = []
            for conjunct in sg.conjuncts:
                out.append(
                    AtomSubgoal(
                        Atom(
                            conjunct.predicate,
                            tuple(
                                rename.get(a, a) if isinstance(a, Variable) else a
                                for a in conjunct.args
                            ),
                        )
                    )
                )
            return out

        grouping = sorted(rule.grouping_variables(sg), key=lambda v: v.name)
        competitor = _fresh_variable("Dcomp", taken)
        better_head = Atom(better_pred, tuple(grouping) + (sg.result,))
        better_rule = Rule(
            head=better_head,
            body=tuple(
                instantiate(sg.result, "a")
                + instantiate(competitor, "b")
                + [BuiltinSubgoal(dominates, competitor, sg.result)]
            ),
            label=f"{rule.label or rule.head.predicate}-better",
        )
        selected_rule = Rule(
            head=rule.head,
            body=tuple(
                instantiate(sg.result, "c")
                + [AtomSubgoal(better_head, negated=True)]
            ),
            label=f"{rule.label or rule.head.predicate}-selected",
        )
        new_rules += [better_rule, selected_rule]
        new_decls[better_pred] = PredicateDecl(better_pred, len(better_head.args))
        bounded_predicates.update(c.predicate for c in sg.conjuncts)
        dominated_direction = dominates

    if cost_bound is not None:
        guard_op = "<=" if dominated_direction == "<" else ">="
        guarded = []
        for rule in new_rules:
            if (
                rule.head.predicate in bounded_predicates
                and rule.head.args
                and isinstance(rule.head.args[-1], Variable)
                and not rule.is_fact
            ):
                guarded.append(
                    Rule(
                        head=rule.head,
                        body=rule.body
                        + (
                            BuiltinSubgoal(
                                guard_op,
                                rule.head.args[-1],
                                Constant(cost_bound),
                            ),
                        ),
                        label=rule.label,
                    )
                )
            else:
                guarded.append(rule)
        new_rules = guarded

    return Program(
        rules=new_rules,
        declarations=new_decls.values(),
        constraints=program.constraints,
        aggregates=dict(program.aggregates),
        name=f"{program.name}-rewritten",
    )
