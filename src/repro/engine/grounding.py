"""Rule-body evaluation: joins, built-ins, aggregate subgoals, defaults.

Ground instances of a rule body are enumerated by a left-to-right join
whose order is *scheduled* statically: at each step the next subgoal must
be evaluable given the variables bound so far (positive atoms bind their
variables; ``V = expr`` built-ins bind ``V``; aggregate subgoals need
their grouping variables bound and bind their result; default-value
predicates and negated atoms need their key variables bound).  For
range-restricted rules (Definition 2.5) a valid order always exists.
This is the engine's one scheduler: both plan modes of
:mod:`repro.engine.exec`, aggregate interiors and the MAD507 lint take
their orders or verdicts from it.

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

from operator import eq, ge, gt, le, lt, ne
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence
from typing import Tuple

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
from repro.engine.interpretation import active_index_stats
from repro.obs.tracer import NULL_TRACER, Tracer

Bindings = Dict[Variable, Any]


class EvalContext:
    """Predicate lookup (CDB → J, everything else → I).

    Indexes are owned by the relations themselves
    (:class:`~repro.engine.interpretation.Relation`): they are built on
    first lookup and maintained in place by ``Relation.join_rows``, the
    one write, so they survive across ``T_P`` applications and semi-naive
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


# ---------------------------------------------------------------------------
# Scheduling
# ---------------------------------------------------------------------------


def subgoal_readiness(
    sg: Subgoal, rule: Optional[Rule], program: Program, bound: set
) -> Optional[Tuple[int, set]]:
    """(priority, newly_bound) if ``sg`` is evaluable under ``bound``, else
    None — the one readiness rule: :func:`schedule`, :func:`order_conjuncts`
    and the MAD507 lint all ask it.  ``rule`` (the grouping variables of
    an aggregate subgoal) may be None for a lone atom."""
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
        assert rule is not None
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


#: ``estimate(sg, bound)``: the expected row count of a positive atom's
#: lookup under ``bound`` (``exec`` reads it off the live relations).
Estimate = Callable[[AtomSubgoal, set], float]


def _take_ready(
    remaining: List[Subgoal],
    rule: Optional[Rule],
    program: Program,
    bound: set,
    rank: Callable[[Subgoal, int], Any],
) -> List[Subgoal]:
    """Move ready subgoals out of ``remaining`` — at each step the one of
    least ``rank(sg, priority)``, the first among equals — until it is
    empty or none is ready; ``bound`` grows in place."""
    ordered: List[Subgoal] = []
    while remaining:
        best: Optional[Tuple[Any, int, set]] = None
        for idx, sg in enumerate(remaining):
            ready = subgoal_readiness(sg, rule, program, bound)
            if ready is not None:
                key = rank(sg, ready[0])
                if best is None or key < best[0]:
                    best = (key, idx, ready[1])
        if best is None:
            break
        ordered.append(remaining.pop(best[1]))
        bound |= best[2]
    return ordered


def schedule(
    rule: Rule,
    program: Program,
    pre_bound: frozenset = frozenset(),
    estimate: Optional[Estimate] = None,
) -> List[Subgoal]:
    """A static evaluation order for the body (see module docstring).

    Ready subgoals rank by their readiness priority (``plan="off"``, and
    the interpreted reference path).  With an ``estimate``
    (``plan="smart"``) a ready positive non-default atom ranks
    ``(2, estimate(sg, bound))`` instead, so the cheapest join runs first
    while built-ins, default atoms, negation and aggregates keep their
    priority classes."""
    bound: set = set(pre_bound)

    def rank(sg: Subgoal, priority: int) -> Tuple[int, float]:
        if (
            estimate is not None
            and isinstance(sg, AtomSubgoal)
            and not sg.negated
            and not program.decl(sg.atom.predicate).has_default
        ):
            return (2, estimate(sg, bound))
        return (priority, 0.0)

    remaining = list(rule.body)
    ordered = _take_ready(remaining, rule, program, bound, rank)
    if remaining:
        raise SafetyError(
            f"cannot schedule body of rule {rule}: remaining subgoals "
            f"{[str(s) for s in remaining]} with bound={sorted(v.name for v in bound)}"
        )
    return ordered


def order_conjuncts(
    conjuncts: Sequence[Atom], program: Program, bound: frozenset
) -> Tuple[Atom, ...]:
    """Static order of an aggregate interior under the ``bound`` grouping
    variables: the written order, except that a default-value atom waits
    until its key is bound (Section 2.3.3)."""
    remaining: List[Subgoal] = [AtomSubgoal(c) for c in conjuncts]
    ordered = _take_ready(remaining, None, program, set(bound), lambda sg, p: 0)
    if remaining:
        raise SafetyError(
            f"cannot schedule aggregate conjuncts "
            f"{[str(sg) for sg in remaining]}"
        )
    return tuple(sg.atom for sg in ordered)  # type: ignore[attr-defined]


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
    """Extend ``bindings`` over every matching row of ``atom``'s relation
    (:meth:`Relation.lookup`, or a scan of its rows when nothing is bound,
    charged to ``IndexStats.scans``; a default-value atom, core or
    default, needs its key bound)."""
    decl = ctx.program.decl(atom.predicate)
    rel = ctx.relation(atom.predicate, mode=mode)
    pattern = [_term_value(arg, bindings) for arg in atom.args]
    if decl.has_default and any(v is None for v in pattern[: decl.key_arity]):
        raise SafetyError(
            f"default-value atom {atom} evaluated with unbound key "
            f"(range restriction violated)"
        )
    bound_positions = tuple(p for p, v in enumerate(pattern) if v is not None)
    bound_values = tuple(pattern[p] for p in bound_positions)
    free = [
        (p, arg)
        for p, arg in enumerate(atom.args)
        if pattern[p] is None
    ]
    if bound_positions or decl.has_default:
        rows: Iterable[Key] = rel.lookup(bound_positions, bound_values)
    else:
        active_index_stats().scans += 1
        rows = rel.rows()
    for row in rows:
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
            target, expr = (sg.lhs, sg.rhs) if lhs_free else (sg.rhs, sg.lhs)
            value = evaluate_expr(expr, bindings)
            extended = dict(bindings)
            extended[target] = value  # type: ignore[index]
            yield extended
            return
        left = evaluate_expr(sg.lhs, bindings)
        right = evaluate_expr(sg.rhs, bindings)
    except ZeroDivisionError:
        return
    try:
        satisfied = _COMPARE[sg.op](left, right)
    except TypeError:
        satisfied = False  # incomparable values never satisfy a built-in
    if satisfied:
        yield dict(bindings)


_COMPARE = {"=": eq, "!=": ne, "<": lt, "<=": le, ">": gt, ">=": ge}


def solve_conjunction(
    conjuncts: Sequence[Atom], ctx: EvalContext, bindings: Bindings
) -> List[Bindings]:
    """All solutions of a conjunction of atoms (aggregate interiors), in
    :func:`order_conjuncts` order."""
    solutions = [dict(bindings)]
    for conjunct in order_conjuncts(conjuncts, ctx.program, frozenset(bindings)):
        solutions = [
            extended
            for b in solutions
            for extended in match_atom(conjunct, ctx, b, mode="aggregate")
        ]
        if not solutions:
            return []
    return solutions


def _project_multiset(
    sg: AggregateSubgoal, solutions: Sequence[Bindings]
) -> List[Any]:
    """SQL-style projection of the inner solutions onto the multiset
    variable (duplicates retained, in solution order); implicit boolean
    aggregation counts each solution as 'true'."""
    if sg.multiset_var is not None:
        return [solution[sg.multiset_var] for solution in solutions]
    return [1] * len(solutions)


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
