"""Rule-body evaluation: joins, built-ins, aggregate subgoals, defaults.

Ground instances of a rule body are enumerated by a left-to-right join
whose order is *scheduled* statically: at each step the next subgoal must
be evaluable given the variables bound so far (positive atoms bind their
variables; ``V = expr`` built-ins bind ``V``; aggregate subgoals need
their grouping variables bound and bind their result; default-value
predicates and negated atoms need their key variables bound).  For
range-restricted rules (Definition 2.5) a valid order always exists.

Aggregate subgoals are evaluated per Definition 2.4: the inner conjunction
is solved with the grouping variables fixed, the solutions are projected
onto the multiset variable *retaining duplicates* (SQL projection), and
the aggregate function is applied — with the ``=r`` form failing on the
empty multiset, and the ``=`` form using ``F(∅)``.  Default-value
conjuncts read their default when the key is bound but no core entry
exists, which is what makes pseudo-monotonic aggregates over fixed
fan-in sound (Example 4.4).
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.aggregates.base import EmptyAggregateError
from repro.datalog.atoms import (
    AggregateSubgoal,
    Atom,
    AtomSubgoal,
    BuiltinSubgoal,
    Subgoal,
)
from repro.datalog.errors import SafetyError
from repro.datalog.program import Program
from repro.datalog.rules import Rule
from repro.datalog.terms import Constant, Variable, evaluate_expr, expr_variable_set
from repro.engine.interpretation import Interpretation, Key, Relation
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.util.multiset import FrozenMultiset

Bindings = Dict[Variable, Any]


class EvalContext:
    """Predicate lookup (CDB → J, everything else → I).

    Indexes are owned by the relations themselves
    (:class:`~repro.engine.interpretation.Relation`): they are built on
    first lookup and maintained in place by the relation's mutator
    methods, so they survive across ``T_P`` applications and semi-naive
    rounds — a context is just the predicate→relation routing table.

    ``negation_source`` and ``aggregate_source`` optionally redirect
    negated subgoals and aggregate interiors to a *fixed oracle*
    interpretation — the mechanism behind the alternating fixpoint of the
    well-founded semantics and the reducts of stable-model checking
    (Sections 5.3–5.5), where those subgoal kinds are evaluated against a
    candidate model rather than the growing one.
    """

    def __init__(
        self,
        program: Program,
        cdb: frozenset,
        j: Interpretation,
        i: Interpretation,
        *,
        negation_source: Optional[Interpretation] = None,
        aggregate_source: Optional[Interpretation] = None,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        self.program = program
        self.cdb = cdb
        self.j = j
        self.i = i
        self.negation_source = negation_source
        self.aggregate_source = aggregate_source
        #: Telemetry hub (:mod:`repro.obs`); the shared disabled tracer
        #: unless the solve is being traced.
        self.tracer = tracer

    def relation(
        self, predicate: str, *, mode: str = "positive"
    ) -> Relation:
        """The relation to read for a subgoal of the given ``mode``
        (``"positive"`` | ``"negated"`` | ``"aggregate"``)."""
        if mode == "negated" and self.negation_source is not None:
            return self.negation_source.relation(predicate)
        if mode == "aggregate" and self.aggregate_source is not None:
            return self.aggregate_source.relation(predicate)
        source = self.j if predicate in self.cdb else self.i
        return source.relation(predicate)

    def rows_matching(
        self,
        predicate: str,
        bound_positions: Tuple[int, ...],
        bound_values: Key,
        *,
        mode: str = "positive",
    ) -> Sequence[Tuple]:
        """Rows of ``predicate`` whose ``bound_positions`` equal
        ``bound_values`` — via the relation's persistent hash index."""
        rel = self.relation(predicate, mode=mode)
        if not bound_positions:
            return rel.rows_list()
        return rel.lookup(bound_positions, bound_values)


# ---------------------------------------------------------------------------
# Scheduling
# ---------------------------------------------------------------------------


def subgoal_readiness(
    sg: Subgoal, rule: Rule, program: Program, bound: set
) -> Optional[Tuple[int, set]]:
    """(priority, newly_bound) if ``sg`` is evaluable under ``bound``, else
    None.  Shared by :func:`schedule` and the selectivity-aware planner
    (:mod:`repro.engine.exec`), which must agree on *readiness* even when
    they rank ready subgoals differently."""
    if isinstance(sg, AtomSubgoal):
        decl = program.decl(sg.atom.predicate)
        atom_vars = set(sg.atom.variables())
        if sg.negated:
            if atom_vars <= bound:
                return (3, set())
            return None
        if decl.has_default:
            key_vars = {
                a
                for a in sg.atom.args[: decl.key_arity]
                if isinstance(a, Variable)
            }
            if key_vars <= bound:
                return (1, atom_vars - bound)
            return None
        # Ordinary / non-default cost atoms can always run; prefer the
        # ones with more variables already bound (cheaper joins).
        unbound = atom_vars - bound
        return (2 + min(len(unbound), 5), unbound)
    if isinstance(sg, BuiltinSubgoal):
        lhs_vars = expr_variable_set(sg.lhs)
        rhs_vars = expr_variable_set(sg.rhs)
        all_vars = lhs_vars | rhs_vars
        if all_vars <= bound:
            return (0, set())
        if sg.op == "=":
            if (
                isinstance(sg.lhs, Variable)
                and sg.lhs not in bound
                and rhs_vars <= bound
            ):
                return (0, {sg.lhs})
            if (
                isinstance(sg.rhs, Variable)
                and sg.rhs not in bound
                and lhs_vars <= bound
            ):
                return (0, {sg.rhs})
        return None
    if isinstance(sg, AggregateSubgoal):
        grouping = rule.grouping_variables(sg)
        newly = (
            {sg.result}
            if isinstance(sg.result, Variable) and sg.result not in bound
            else set()
        )
        if grouping <= bound:
            return (4, newly)
        if sg.restricted:
            # An =r subgoal can *generate* grouping bindings by
            # enumerating the groups of its inner conjunction — that is
            # how Definition 2.5 limits its grouping variables.  Run it
            # late so other subgoals narrow the groups first.
            return (6, newly | (grouping - bound))
        return None
    raise TypeError(f"unknown subgoal type {type(sg).__name__}")


def schedule(
    rule: Rule, program: Program, pre_bound: frozenset = frozenset()
) -> List[Subgoal]:
    """A static evaluation order for the body (see module docstring)."""
    remaining = list(rule.body)
    ordered: List[Subgoal] = []
    bound: set = set(pre_bound)

    while remaining:
        best_index: Optional[int] = None
        best_priority = 99
        best_newly: set = set()
        for idx, sg in enumerate(remaining):
            ready = subgoal_readiness(sg, rule, program, bound)
            if ready is None:
                continue
            priority, newly = ready
            if priority < best_priority:
                best_priority, best_index, best_newly = priority, idx, newly
        if best_index is None:
            raise SafetyError(
                f"cannot schedule body of rule {rule}: remaining subgoals "
                f"{[str(s) for s in remaining]} with bound={sorted(v.name for v in bound)}"
            )
        ordered.append(remaining.pop(best_index))
        bound |= best_newly
    return ordered


# ---------------------------------------------------------------------------
# Subgoal evaluation
# ---------------------------------------------------------------------------


def _term_value(term, bindings: Bindings):
    """Raw value of a bound term, or None when the variable is free."""
    if isinstance(term, Constant):
        return term.value
    return bindings.get(term)


def match_atom(
    atom: Atom, ctx: EvalContext, bindings: Bindings, *, mode: str = "positive"
) -> Iterator[Bindings]:
    """Extend ``bindings`` over every matching row of ``atom``'s relation."""
    decl = ctx.program.decl(atom.predicate)
    rel = ctx.relation(atom.predicate, mode=mode)

    if decl.has_default:
        yield from _match_default_atom(atom, decl, rel, bindings)
        return

    pattern = [_term_value(arg, bindings) for arg in atom.args]
    bound_positions = tuple(p for p, v in enumerate(pattern) if v is not None)
    bound_values = tuple(pattern[p] for p in bound_positions)
    free = [
        (p, arg)
        for p, arg in enumerate(atom.args)
        if pattern[p] is None
    ]
    for row in ctx.rows_matching(
        atom.predicate, bound_positions, bound_values, mode=mode
    ):
        extended = dict(bindings)
        ok = True
        for p, arg in free:
            assert isinstance(arg, Variable)
            value = row[p]
            existing = extended.get(arg)
            if existing is None:
                extended[arg] = value
            elif existing != value:
                ok = False
                break
        if ok:
            yield extended


def _match_default_atom(
    atom: Atom, decl, rel: Relation, bindings: Bindings
) -> Iterator[Bindings]:
    """A default-value atom with its key bound reads core-or-default."""
    key_terms = atom.args[: decl.key_arity]
    key = tuple(_term_value(t, bindings) for t in key_terms)
    if any(v is None for v in key):
        raise SafetyError(
            f"default-value atom {atom} evaluated with unbound key "
            f"(range restriction violated)"
        )
    value = rel.cost_of(key)
    assert value is not None  # default predicates always have a value
    cost_term = atom.args[-1]
    bound = _term_value(cost_term, bindings)
    if bound is None:
        assert isinstance(cost_term, Variable)
        extended = dict(bindings)
        extended[cost_term] = value
        yield extended
    elif bound == value:
        yield dict(bindings)


def _check_negated(atom: Atom, ctx: EvalContext, bindings: Bindings) -> bool:
    """Ground negation: satisfied iff the ground atom is absent (read from
    the negation oracle when the context has one)."""
    decl = ctx.program.decl(atom.predicate)
    rel = ctx.relation(atom.predicate, mode="negated")
    values = tuple(_term_value(a, bindings) for a in atom.args)
    if any(v is None for v in values):
        raise SafetyError(f"negated atom {atom} evaluated with unbound variables")
    if decl.is_cost_predicate:
        stored = rel.cost_of(values[:-1])
        return stored != values[-1]
    return values not in rel.tuples


def _eval_builtin(
    sg: BuiltinSubgoal, bindings: Bindings
) -> Iterator[Bindings]:
    lhs_free = isinstance(sg.lhs, Variable) and sg.lhs not in bindings
    rhs_free = isinstance(sg.rhs, Variable) and sg.rhs not in bindings
    try:
        if sg.op == "=" and (lhs_free or rhs_free):
            if lhs_free and rhs_free:
                raise SafetyError(f"built-in {sg} with both sides unbound")
            if lhs_free:
                value = evaluate_expr(sg.rhs, bindings)
                extended = dict(bindings)
                extended[sg.lhs] = value  # type: ignore[index]
            else:
                value = evaluate_expr(sg.lhs, bindings)
                extended = dict(bindings)
                extended[sg.rhs] = value  # type: ignore[index]
            yield extended
            return
        left = evaluate_expr(sg.lhs, bindings)
        right = evaluate_expr(sg.rhs, bindings)
    except ZeroDivisionError:
        return
    try:
        satisfied = _compare(sg.op, left, right)
    except TypeError:
        satisfied = False  # incomparable values never satisfy a built-in
    if satisfied:
        yield dict(bindings)


def _compare(op: str, left: Any, right: Any) -> bool:
    if op == "=":
        return left == right
    if op == "!=":
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    return left >= right


def solve_conjunction(
    conjuncts: Sequence[Atom], ctx: EvalContext, bindings: Bindings
) -> List[Bindings]:
    """All solutions of a conjunction of atoms (aggregate interiors).

    Conjuncts are ordered greedily: atoms whose default-value keys are
    bound go first when possible.
    """
    solutions = [dict(bindings)]
    remaining = list(conjuncts)
    while remaining:
        progressed = False
        for idx, conjunct in enumerate(remaining):
            decl = ctx.program.decl(conjunct.predicate)
            if decl.has_default:
                key_vars = {
                    a
                    for a in conjunct.args[: decl.key_arity]
                    if isinstance(a, Variable)
                }
                bound_now = set(solutions[0]) if solutions else set()
                if solutions and not key_vars <= bound_now:
                    continue
            chosen = remaining.pop(idx)
            new_solutions: List[Bindings] = []
            for b in solutions:
                new_solutions.extend(match_atom(chosen, ctx, b, mode="aggregate"))
            solutions = new_solutions
            progressed = True
            break
        if not progressed:
            raise SafetyError(
                f"cannot schedule aggregate conjuncts "
                f"{[str(c) for c in remaining]}"
            )
        if not solutions:
            return []
    return solutions


def _project_multiset(
    sg: AggregateSubgoal, solutions: Sequence[Bindings]
) -> FrozenMultiset:
    """SQL-style projection of the inner solutions onto the multiset
    variable (duplicates retained); implicit boolean aggregation counts
    each solution as 'true'."""
    if sg.multiset_var is not None:
        return FrozenMultiset(
            solution[sg.multiset_var] for solution in solutions
        )
    return FrozenMultiset([1] * len(solutions))


def _eval_aggregate(
    sg: AggregateSubgoal,
    rule: Rule,
    ctx: EvalContext,
    bindings: Bindings,
) -> Iterator[Bindings]:
    function = ctx.program.aggregate_function(sg.function)
    grouping = rule.grouping_variables(sg)
    inner_bindings: Bindings = {
        v: bindings[v] for v in grouping if v in bindings
    }
    free_grouping = sorted(
        (v for v in grouping if v not in bindings), key=lambda v: v.name
    )
    if free_grouping and not sg.restricted:
        raise SafetyError(
            f"'='-form aggregate {sg} evaluated with unbound grouping "
            f"variables {', '.join(v.name for v in free_grouping)} "
            f"(range restriction violated)"
        )
    solutions = solve_conjunction(sg.conjuncts, ctx, inner_bindings)

    if free_grouping:
        groups: Dict[Tuple[Any, ...], List[Bindings]] = {}
        for solution in solutions:
            key = tuple(solution[v] for v in free_grouping)
            groups.setdefault(key, []).append(solution)
        for key, group_solutions in groups.items():
            value = function(_project_multiset(sg, group_solutions))
            bound = _term_value(sg.result, bindings)
            if bound is not None and bound != value:
                continue
            extended = dict(bindings)
            extended.update(zip(free_grouping, key))
            if bound is None:
                assert isinstance(sg.result, Variable)
                extended[sg.result] = value
            yield extended
        return

    if sg.restricted and not solutions:
        return
    try:
        value = function(_project_multiset(sg, solutions))
    except EmptyAggregateError:
        return
    bound = _term_value(sg.result, bindings)
    if bound is None:
        assert isinstance(sg.result, Variable)
        extended = dict(bindings)
        extended[sg.result] = value
        yield extended
    elif bound == value:
        yield dict(bindings)


# ---------------------------------------------------------------------------
# Whole-body evaluation
# ---------------------------------------------------------------------------


def evaluate_body(
    rule: Rule,
    ctx: EvalContext,
    *,
    initial: Optional[Bindings] = None,
    order: Optional[List[Subgoal]] = None,
) -> Iterator[Bindings]:
    """Enumerate every satisfying assignment of ``rule``'s body."""
    pre_bound = frozenset(initial) if initial else frozenset()
    subgoals = order if order is not None else schedule(rule, ctx.program, pre_bound)
    current: List[Bindings] = [dict(initial) if initial else {}]
    for sg in subgoals:
        next_bindings: List[Bindings] = []
        if isinstance(sg, AtomSubgoal):
            if sg.negated:
                next_bindings = [
                    b for b in current if _check_negated(sg.atom, ctx, b)
                ]
            else:
                for b in current:
                    next_bindings.extend(match_atom(sg.atom, ctx, b))
        elif isinstance(sg, BuiltinSubgoal):
            for b in current:
                next_bindings.extend(_eval_builtin(sg, b))
        elif isinstance(sg, AggregateSubgoal):
            for b in current:
                next_bindings.extend(_eval_aggregate(sg, rule, ctx, b))
        else:  # pragma: no cover - exhaustive
            raise TypeError(f"unknown subgoal type {type(sg).__name__}")
        current = next_bindings
        if not current:
            return
    yield from current


def ground_head(rule: Rule, bindings: Bindings) -> Tuple[str, Key]:
    """(predicate, full argument tuple) of the head under ``bindings``."""
    values = []
    for arg in rule.head.args:
        value = _term_value(arg, bindings)
        if value is None:
            raise SafetyError(
                f"head variable {arg} of {rule} unbound after body evaluation"
            )
        values.append(value)
    return rule.head.predicate, tuple(values)
