"""Compiled query execution: cached rule plans as generated join kernels.

This layer sits between the fixpoint evaluators (``tp``, ``seminaive``,
``greedy``) and the raw relations.  Per rule — and per *seed shape*, the
set of variables a semi-naive delta seed pre-binds — it compiles once:

* a **join order** for the body.  With ``plan="smart"`` the order is
  selectivity-aware: among the subgoals evaluable at each step
  (:func:`~repro.engine.grounding.subgoal_readiness` — the safety
  condition is shared with the legacy scheduler), positive atoms are
  ranked by the estimated cardinality of their indexed lookup instead of
  by the legacy bound-variable count.  ``plan="off"`` preserves the
  legacy :func:`~repro.engine.grounding.schedule` order exactly.
* a **kernel**: one generated Python function for that order — nested
  loops over indexed lookups with every rule variable a local variable,
  lookup keys as tuple displays, built-ins as native expressions, and
  aggregate interiors appending their multiset values directly.  Bound
  and free argument positions, constant and duplicate-variable checks,
  the grouping/local split and the conjunct order are all decided while
  generating, so nothing is interpreted per binding.  A seeded kernel
  is *set-at-a-time*: after its hoisted prologue it loops over a list
  of positional seed tuples, so one call evaluates a whole delta batch.
  A kernel returns the rule's ground head rows as a list, in seed then
  join order.

Plans are cached on the :class:`~repro.datalog.program.Program`
(``program ⋅ rule ⋅ pre-bound variables ⋅ mode``), so ``apply_tp`` and the
delta-driven evaluators stop re-deriving join orders on every call;
kernel functions are memoised process-wide by their source text, which
names no predicate and no constant, so structurally equal rules share
one.  Lookups go through the relations' persistent incremental indexes
(:class:`~repro.engine.interpretation.Relation`), which survive across
fixpoint rounds.  See docs/PERFORMANCE.md.
"""

from __future__ import annotations

from functools import lru_cache
from time import perf_counter
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Tuple
from zlib import crc32

from repro.aggregates.base import EmptyAggregateError
from repro.analysis.premap import analyze_premappability, apply_pushdown
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
from repro.datalog.terms import (
    ArithExpr,
    Constant,
    UnboundVariableError,
    Variable,
)
from repro.engine.grounding import (
    EvalContext,
    schedule,
    subgoal_readiness,
)
from repro.testing import faults as _faults
from repro.engine.interpretation import Key
from repro.util.multiset import FrozenMultiset

#: Plan modes: "smart" = selectivity-aware join order; "off" = legacy
#: schedule order (the differential suites' reference; still compiled
#: and indexed).
PLAN_MODES = ("smart", "off")


def _check_mode(mode: str) -> str:
    if mode not in PLAN_MODES:
        raise ValueError(f"unknown plan mode {mode!r}; expected one of {PLAN_MODES}")
    return mode


# ---------------------------------------------------------------------------
# Kernel generation
# ---------------------------------------------------------------------------


def _unbound(name: str) -> Any:
    raise UnboundVariableError(name)


#: Globals shared by every generated kernel.  Everything rule-specific —
#: predicate names, constants, aggregate functions — reaches a kernel
#: through its ``consts`` argument, so the source text (and hence the
#: memoised function) is shared by structurally equal rules.
_KERNEL_GLOBALS: Dict[str, Any] = {
    "EmptyAggregateError": EmptyAggregateError,
    "FrozenMultiset": FrozenMultiset,
    "SafetyError": SafetyError,
    "faults": _faults,
    "unbound": _unbound,
}

@lru_cache(maxsize=512)
def _kernel(source: str) -> Any:
    """The function for one generated kernel source, memoised
    process-wide and bounded (as ``re`` bounds its pattern cache)."""
    scope: Dict[str, Any] = {}
    # A per-source file name keeps distinct kernels apart in profiles.
    filename = f"<rule-kernel {crc32(source.encode()):08x}>"
    exec(compile(source, filename, "exec"), _KERNEL_GLOBALS, scope)
    return scope["kernel"]


def _display(items: Sequence[str]) -> str:
    """Source of a tuple display (or unpacking target) over ``items``."""
    return f"({', '.join(items)}{',' if len(items) == 1 else ''})"


#: Loops per generated function.  CPython rejects more than 20 statically
#: nested blocks, so deeper joins go on in a nested function.
_MAX_LOOPS = 16


class _KernelWriter:
    """Accumulates one rule's kernel: straight-line nested loops with
    registers as local variables.  ``fail`` is the statement that drops
    the current binding (``return out`` before the first loop,
    ``continue`` inside one); ``None`` — the top of an aggregate
    interior, where neither applies — makes :meth:`require` nest an
    ``if`` instead."""

    def __init__(self, rule: Rule, program: Program) -> None:
        self.rule = rule
        self.program = program
        self.consts: List[Any] = []  # unpacked into c0, c1, ... per call
        self.prologue: List[str] = []  # relation fetches
        self.body: List[str] = []
        self.depth = 1
        self.loops = 0
        self.fail: Optional[str] = "return out"
        self.aggregates = 0
        #: (depth, call) of each nested function still being written.
        self.spills: List[Tuple[int, str]] = []

    def const(self, value: Any) -> str:
        self.consts.append(value)
        return f"c{len(self.consts) - 1}"

    def line(self, text: str) -> None:
        self.body.append("    " * self.depth + text)

    def require(self, condition: str) -> None:
        """Go on with the current binding only if ``condition`` holds."""
        if self.fail is None:
            self.line(f"if {condition}:")
            self.depth += 1
        else:
            self.line(f"if not ({condition}): {self.fail}")

    def loop(self, header: str) -> None:
        if self.loops == _MAX_LOOPS:
            # Registers bound so far are read through the closure.
            name = f"deeper{len(self.spills)}"
            self.line(f"def {name}():")
            self.spills.append((self.depth, f"{name}()"))
            self.depth += 1
            self.loops = 0
        self.line(header)
        self.depth += 1
        self.loops += 1
        self.fail = "continue"

    def dedent(self, depth: int) -> None:
        """Back out to ``depth``, calling the nested functions left."""
        while self.spills and self.spills[-1][0] >= depth:
            self.depth, call = self.spills.pop()
            self.line(call)
        self.depth = depth

    def term(self, arg: Any, regs: Dict[Variable, str]) -> str:
        return self.const(arg.value) if isinstance(arg, Constant) else regs[arg]

    def key(self, args: Sequence[Any], regs: Dict[Variable, str]) -> str:
        """A tuple display over ``args``."""
        return _display([self.term(a, regs) for a in args])

    def fetch(self, predicate: str, mode: str, attr: str = "") -> str:
        """Hoist ``ctx.relation(predicate, mode=mode)<attr>`` into the
        prologue (one oracle-routed fetch per call); its local name."""
        name = f"f{len(self.prologue)}"
        kwarg = "" if mode == "positive" else f", mode={mode!r}"
        self.prologue.append(
            f"{name} = ctx.relation({self.const(predicate)}{kwarg}){attr}"
        )
        return name

    def source(self) -> str:
        self.dedent(1)
        lines = ["def kernel(ctx, seeds, consts):"]
        if self.consts:
            names = _display([f"c{n}" for n in range(len(self.consts))])
            lines.append(f"    {names} = consts")
        lines += [f"    {text}" for text in self.prologue]
        lines += ["    out = []", "    emit = out.append"]
        lines += self.body
        lines.append("    return out")
        return "\n".join(lines) + "\n"

    # -- subgoals ------------------------------------------------------------

    def atom(
        self,
        atom: Atom,
        regs: Dict[Variable, str],
        bound: set,
        mode: str = "positive",
    ) -> None:
        """A positive atom (body subgoal or aggregate-interior conjunct):
        a core-or-default read for default-value predicates, otherwise an
        indexed join on the bound argument positions."""
        decl = self.program.decl(atom.predicate)
        if decl.has_default:
            cost_of = self.fetch(atom.predicate, mode, ".cost_of")
            value = f"{cost_of}({self.key(atom.args[: decl.key_arity], regs)})"
            cost = atom.args[-1]
            if isinstance(cost, Constant) or cost in bound:
                self.require(f"{self.term(cost, regs)} == {value}")
            else:
                self.line(f"{regs[cost]} = {value}")
            return
        positions: List[int] = []
        dup_checks: List[str] = []
        writes: List[str] = []
        first_seen: Dict[Variable, int] = {}
        for pos, arg in enumerate(atom.args):
            if isinstance(arg, Constant) or arg in bound:
                positions.append(pos)
            elif arg in first_seen:
                dup_checks.append(
                    f"if row[{pos}] != row[{first_seen[arg]}]: continue"
                )
            else:
                first_seen[arg] = pos
                writes.append(f"{regs[arg]} = row[{pos}]")
        if positions:
            lookup = self.fetch(atom.predicate, mode, ".lookup")
            bound_args = [atom.args[pos] for pos in positions]
            rows = f"{lookup}({tuple(positions)!r}, {self.key(bound_args, regs)})"
        else:
            rows = self.fetch(atom.predicate, mode, ".rows_list") + "()"
        if not writes:
            self.require(rows)  # pure existence check
            return
        self.loop(f"for row in {rows}:")
        for text in dup_checks + writes:
            self.line(text)

    def negated(self, atom: Atom, regs: Dict[Variable, str]) -> None:
        """Ground negation: satisfied iff the ground atom is absent."""
        if self.program.decl(atom.predicate).is_cost_predicate:
            cost_of = self.fetch(atom.predicate, "negated", ".cost_of")
            self.require(
                f"{cost_of}({self.key(atom.args[:-1], regs)}) "
                f"!= {self.term(atom.args[-1], regs)}"
            )
        else:
            rel = self.fetch(atom.predicate, "negated")
            self.require(f"{self.key(atom.args, regs)} not in {rel}.tuples")

    def expr(self, expr: Any, regs: Dict[Variable, str], bound: set) -> str:
        if isinstance(expr, Constant):
            return self.const(expr.value)
        if isinstance(expr, Variable):
            if expr in bound:
                return regs[expr]
            return f"unbound({self.const(expr.name)})"
        left = self.expr(expr.left, regs, bound)
        return f"({left} {expr.op} {self.expr(expr.right, regs, bound)})"

    def arithmetic(self, assignments: Sequence[str]) -> None:
        """Evaluate; a division by zero drops the binding, any other
        error (``TypeError`` on mixed operands) propagates."""
        self.line("try:")
        for text in assignments:
            self.line(f"    {text}")
        self.line("except ZeroDivisionError:")
        self.line(f"    {self.fail}")

    def builtin(
        self, sg: BuiltinSubgoal, regs: Dict[Variable, str], bound: set
    ) -> None:
        """``lhs op rhs``: a ``V = expr`` assignment when one side is an
        unbound variable, otherwise a filter."""
        for target, value in ((sg.lhs, sg.rhs), (sg.rhs, sg.lhs)):
            if (
                sg.op == "="
                and isinstance(target, Variable)
                and target not in bound
            ):
                assign = f"{regs[target]} = {self.expr(value, regs, bound)}"
                if isinstance(value, ArithExpr):
                    self.arithmetic([assign])
                else:
                    self.line(assign)
                return
        left = self.expr(sg.lhs, regs, bound)
        right = self.expr(sg.rhs, regs, bound)
        if isinstance(sg.lhs, ArithExpr) or isinstance(sg.rhs, ArithExpr):
            self.arithmetic([f"lhs = {left}", f"rhs = {right}"])
            left, right = "lhs", "rhs"
        # Incomparable values never satisfy a built-in; the comparison has
        # its own ``try`` so a TypeError *inside* arithmetic still raises.
        op = "==" if sg.op == "=" else sg.op
        self.line("try:")
        self.line(f"    if not ({left} {op} {right}): {self.fail}")
        self.line("except TypeError:")
        self.line(f"    {self.fail}")

    def aggregate(
        self, sg: AggregateSubgoal, regs: Dict[Variable, str], bound: set
    ) -> None:
        """An aggregate subgoal (Definition 2.4): the interior conjunction
        runs as nested loops over private registers, appending the
        multiset value directly; the function is applied once per group."""
        grouping = self.rule.grouping_variables(sg)
        free_grouping = sorted(
            (v for v in grouping if v not in bound), key=lambda v: v.name
        )
        if free_grouping and not sg.restricted:
            raise SafetyError(
                f"'='-form aggregate {sg} evaluated with unbound grouping "
                f"variables "
                f"{', '.join(v.name for v in free_grouping)} "
                f"(range restriction violated)"
            )
        n = self.aggregates
        self.aggregates += 1
        # Bound grouping variables read the outer registers; every other
        # conjunct variable gets a private one — including the multiset
        # variable even if bound outside (the projection retains
        # duplicates over the full solution set, Definition 2.4).
        inner = {v: regs[v] for v in grouping if v in bound}
        inner_bound = set(inner)
        for conjunct in sg.conjuncts:
            for v in conjunct.variables():
                inner.setdefault(v, f"a{n}_{len(inner)}")
        # SQL projection onto the multiset variable, duplicates retained;
        # implicit boolean aggregation counts each solution as 'true'.
        value = inner[sg.multiset_var] if sg.multiset_var is not None else "1"
        if free_grouping:
            # =r subgoal generating its grouping bindings: aggregate each
            # group of the inner solutions separately.
            self.line(f"g{n} = {{}}")
            collect = (
                f"g{n}.setdefault({self.key(free_grouping, inner)}, [])"
                f".append({value})"
            )
        else:
            self.line(f"m{n} = []")
            collect = f"m{n}.append({value})"
        depth, loops, fail = self.depth, self.loops, self.fail
        self.fail = None
        for conjunct in _order_conjuncts(
            sg.conjuncts, self.program, frozenset(inner_bound)
        ):
            self.atom(conjunct, inner, inner_bound, "aggregate")
            inner_bound |= conjunct.variable_set()
        self.line(collect)
        self.dedent(depth)
        self.loops, self.fail = loops, fail
        if free_grouping:
            group = _display([regs[v] for v in free_grouping])
            self.loop(f"for {group}, m{n} in g{n}.items():")
        elif sg.restricted:
            self.require(f"m{n}")
        function = self.program.aggregate_function(sg.function)
        detail = getattr(function, "name", None) or type(function).__name__
        self.line("if faults._ACTIVE is not None:")  # fault-injection seam
        self.line(f"    faults.trip('aggregate_apply', {self.const(detail)})")
        result = sg.result
        check = isinstance(result, Constant) or result in bound
        target = f"v{n}" if check else regs[result]
        apply = f"{target} = {self.const(function)}(FrozenMultiset(m{n}))"
        if free_grouping:
            self.line(apply)
        else:
            self.line("try:")
            self.line(f"    {apply}")
            self.line("except EmptyAggregateError:")
            self.line(f"    {self.fail}")
        if check:
            self.line(f"if {self.term(result, regs)} != v{n}: {self.fail}")


def _lower(
    rule: Rule,
    program: Program,
    order: Sequence[Subgoal],
    pre_bound: FrozenSet[Variable],
) -> Tuple[str, Tuple[Any, ...]]:
    """Lower ``rule`` under the join ``order`` to ``(kernel source,
    consts)``; ``kernel(ctx, seeds, consts)`` returns the list of ground
    head rows.  With ``pre_bound`` variables the kernel's outermost loop
    runs over ``seeds``, tuples in :func:`seed_columns` order."""
    regs: Dict[Variable, str] = {}
    for var in rule.head.variables():
        regs.setdefault(var, f"r{len(regs)}")
    for sg in rule.body:
        for var in sorted(sg.variable_set(), key=lambda v: v.name):
            regs.setdefault(var, f"r{len(regs)}")
    w = _KernelWriter(rule, program)
    if pre_bound:
        # A seed column the rule never mentions binds a throwaway name.
        columns = [
            regs.get(var, f"_{n}")
            for n, var in enumerate(seed_columns(pre_bound))
        ]
        w.loop(f"for {_display(columns)} in seeds:")
    bound: set = set(pre_bound)
    for sg in order:
        if isinstance(sg, AtomSubgoal):
            if sg.negated:
                w.negated(sg.atom, regs)
            else:
                w.atom(sg.atom, regs, bound)
        elif isinstance(sg, BuiltinSubgoal):
            w.builtin(sg, regs, bound)
        elif isinstance(sg, AggregateSubgoal):
            w.aggregate(sg, regs, bound)
        else:  # pragma: no cover - exhaustive
            raise TypeError(f"unknown subgoal type {type(sg).__name__}")
        ready = subgoal_readiness(sg, rule, program, bound)
        if ready is not None:
            bound |= ready[1]
    head = rule.head
    if all(isinstance(a, Constant) or a in bound for a in head.args):
        w.line(f"emit({w.key(head.args, regs)})")
    else:
        message = f"head variable of {rule} unbound after body evaluation"
        w.line(f"raise SafetyError({w.const(message)})")
    return w.source(), tuple(w.consts)


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------


class RulePlan:
    """One rule compiled against a fixed pre-bound variable set: the join
    order plus the generated kernel and the constants it runs with.  The
    kernel's source is not retained; :meth:`source` regenerates it."""

    __slots__ = ("rule", "mode", "order", "pre_bound", "kernel", "consts")

    def __init__(
        self,
        rule: Rule,
        mode: str,
        order: List[Subgoal],
        pre_bound: FrozenSet[Variable],
        kernel: Any,
        consts: Tuple[Any, ...],
    ) -> None:
        self.rule = rule
        self.mode = mode
        self.order = order
        self.pre_bound = pre_bound
        self.kernel = kernel
        self.consts = consts

    def execute(
        self, ctx: EvalContext, seeds: Optional[Sequence[Key]] = None
    ) -> List[Key]:
        """The ground rows of the rule's head predicate derived under
        ``ctx`` — for every seed in turn when the plan is seeded — in
        join order."""
        return self.kernel(ctx, seeds, self.consts)

    def source(self, program: Program) -> str:
        """The kernel's generated source (for tests and docs)."""
        return _lower(self.rule, program, self.order, self.pre_bound)[0]


def _order_conjuncts(
    conjuncts: Sequence[Atom], program: Program, bound: FrozenSet[Variable]
) -> Tuple[Atom, ...]:
    """Static conjunct order for an aggregate interior: atoms whose
    default-value keys are bound go first (mirrors ``solve_conjunction``,
    hoisted out of the per-binding loop)."""
    remaining = list(conjuncts)
    ordered: List[Atom] = []
    known = set(bound)
    while remaining:
        progressed = False
        for idx, conjunct in enumerate(remaining):
            decl = program.decl(conjunct.predicate)
            if decl.has_default:
                key_vars = {
                    a
                    for a in conjunct.args[: decl.key_arity]
                    if isinstance(a, Variable)
                }
                if not key_vars <= known:
                    continue
            ordered.append(remaining.pop(idx))
            known |= conjunct.variable_set()
            progressed = True
            break
        if not progressed:
            raise SafetyError(
                f"cannot schedule aggregate conjuncts "
                f"{[str(c) for c in remaining]}"
            )
    return tuple(ordered)


# ---------------------------------------------------------------------------
# Selectivity-aware ordering
# ---------------------------------------------------------------------------


def _estimate_lookup(
    sg: AtomSubgoal, program: Program, ctx: EvalContext, bound: set
) -> float:
    """Estimated row count of the indexed lookup for a positive atom.

    Uses the live index's average bucket size when one exists; otherwise
    assumes each bound column shrinks the relation by its ``arity``-th
    root (a dimensional-uniformity guess — crude, but it only has to rank
    ready subgoals, not predict run times).
    """
    atom = sg.atom
    rel = ctx.relation(atom.predicate)
    n = len(rel)
    if n == 0:
        return 0.0
    positions = tuple(
        pos
        for pos, arg in enumerate(atom.args)
        if isinstance(arg, Constant) or arg in bound
    )
    if not positions:
        return float(n)
    if len(positions) == len(atom.args):
        return 0.5  # pure existence check
    index = rel._indexes.get(positions)
    if index:
        return n / len(index)
    return float(n) ** (1.0 - len(positions) / len(atom.args))


def plan_order(
    rule: Rule,
    program: Program,
    pre_bound: FrozenSet[Variable],
    *,
    mode: str = "smart",
    ctx: Optional[EvalContext] = None,
) -> List[Subgoal]:
    """A body evaluation order.

    ``mode="off"`` (or no context to estimate against) delegates to the
    legacy :func:`~repro.engine.grounding.schedule`.  ``mode="smart"``
    keeps the legacy priority classes for built-ins, default atoms,
    negation and aggregates, but ranks ready positive atoms by the
    estimated cardinality of their indexed lookup, so the cheapest join
    runs first.
    """
    _check_mode(mode)
    if mode == "off" or ctx is None:
        return schedule(rule, program, pre_bound)
    remaining = list(rule.body)
    ordered: List[Subgoal] = []
    bound: set = set(pre_bound)
    while remaining:
        best_index: Optional[int] = None
        best_key: Tuple[int, float] = (99, float("inf"))
        best_newly: set = set()
        for idx, sg in enumerate(remaining):
            ready = subgoal_readiness(sg, rule, program, bound)
            if ready is None:
                continue
            priority, newly = ready
            if (
                isinstance(sg, AtomSubgoal)
                and not sg.negated
                and not program.decl(sg.atom.predicate).has_default
            ):
                key = (2, _estimate_lookup(sg, program, ctx, bound))
            else:
                key = (priority, 0.0)
            if key < best_key:
                best_key, best_index, best_newly = key, idx, newly
        if best_index is None:
            raise SafetyError(
                f"cannot schedule body of rule {rule}: remaining subgoals "
                f"{[str(s) for s in remaining]} with "
                f"bound={sorted(v.name for v in bound)}"
            )
        ordered.append(remaining.pop(best_index))
        bound |= best_newly
    return ordered


# ---------------------------------------------------------------------------
# Compilation & cache
# ---------------------------------------------------------------------------


def compile_rule(
    rule: Rule,
    program: Program,
    pre_bound: FrozenSet[Variable] = frozenset(),
    *,
    mode: str = "smart",
    ctx: Optional[EvalContext] = None,
) -> RulePlan:
    """Compile ``rule`` against the given pre-bound variable set."""
    order = plan_order(rule, program, pre_bound, mode=mode, ctx=ctx)
    source, consts = _lower(rule, program, order, pre_bound)
    return RulePlan(rule, mode, order, pre_bound, _kernel(source), consts)


def get_plan(
    program: Program,
    rule: Rule,
    pre_bound: FrozenSet[Variable] = frozenset(),
    *,
    mode: str = "smart",
    ctx: Optional[EvalContext] = None,
) -> RulePlan:
    """The cached plan for ``(rule, pre-bound variables, mode)``.

    Plans live on the program object; smart-mode selectivity estimates
    are taken from the relation sizes at first compilation (typically the
    initial ``T_P`` round, where the extensional relations dominate) and
    the resulting order is reused for the program's lifetime.

    When the context carries an enabled tracer (:mod:`repro.obs`), cache
    probes are counted as plan-cache hits/misses.
    """
    cache: Dict[Tuple[int, FrozenSet[Variable], str], RulePlan]
    cache = program.__dict__.setdefault("_exec_plan_cache", {})
    cache_key = (id(rule), pre_bound, mode)
    plan = cache.get(cache_key)
    if ctx is not None and ctx.tracer.enabled:
        ctx.tracer.count_plan(plan is not None)
    if plan is None:  # an unknown mode never hits: plan_order rejects it
        plan = compile_rule(rule, program, pre_bound, mode=mode, ctx=ctx)
        cache[cache_key] = plan
    return plan


def clear_plan_cache(program: Program) -> None:
    """Drop every cached plan (tests / planners that change statistics)."""
    program.__dict__.pop("_exec_plan_cache", None)
    program.__dict__.pop("_pushdown_cache", None)


def get_pushdown(
    program: Program, classification: Any = None, *, facts: Any = None
) -> Any:
    """The cached aggregate-pushdown rewrite of ``program``.

    Like rule plans, the rewrite is computed once per program object and
    cached on it, so repeated solves of one database do not redo it.  On
    the first (cache-filling) call the premappability verdicts come from
    ``facts`` (the run's :class:`~repro.analysis.facts.ProgramFacts`;
    ``solve()`` hands them over) or else from a fresh analysis, reusing
    ``classification`` when given.  Returns a
    :class:`~repro.analysis.premap.PushdownResult`; callers check
    ``.changed`` and evaluate ``.program``.
    """
    cached = program.__dict__.get("_pushdown_cache")
    if cached is None:
        report = (
            facts.premappability
            if facts is not None
            else analyze_premappability(program, classification=classification)
        )
        cached = apply_pushdown(program, report)
        program.__dict__["_pushdown_cache"] = cached
    return cached


def seed_columns(pre_bound: FrozenSet[Variable]) -> Tuple[Variable, ...]:
    """The column order of positional seed tuples for a seed shape."""
    return tuple(sorted(pre_bound, key=lambda v: v.name))


def run_rule(
    rule: Rule,
    ctx: EvalContext,
    *,
    mode: str = "smart",
    pre_bound: FrozenSet[Variable] = frozenset(),
    seeds: Optional[Sequence[Key]] = None,
) -> List[Key]:
    """The ground rows of ``rule``'s head predicate derived under ``ctx``.

    ``seeds`` is a batch of semi-naive delta seeds: tuples binding the
    ``pre_bound`` variables in :func:`seed_columns` order.  The rule
    fires once per seed inside one kernel call (once in all when the
    plan is unseeded); the plan is compiled once per distinct seed
    *shape* and cached on the program.

    With an enabled tracer on the context the call's wall time, firings
    and derived-row count are charged to the rule (``tracer.record_rule``).
    """
    firings = len(seeds) if seeds is not None and pre_bound else 1
    if _faults._ACTIVE is not None:  # fault-injection seam, one hit per firing
        for _ in range(firings):
            _faults.trip("rule_firing", rule.head.predicate)
    plan = get_plan(ctx.program, rule, pre_bound, mode=mode, ctx=ctx)
    tracer = ctx.tracer
    if not tracer.enabled:
        return plan.execute(ctx, seeds)
    t0 = perf_counter()
    derived = plan.execute(ctx, seeds)
    tracer.record_rule(rule, len(derived), perf_counter() - t0, firings)
    return derived
