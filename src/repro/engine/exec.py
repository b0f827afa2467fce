"""Compiled query execution: cached rule plans as generated join kernels.

This layer sits between the fixpoint loop (:mod:`repro.engine.fixpoint`,
every method) and the raw relations.  Per rule — and per *seed shape*, the
set of variables a semi-naive delta seed pre-binds — it compiles once:

* a **join order** for the body, from the one scheduler
  :func:`~repro.engine.grounding.schedule`.  With ``plan="smart"`` it is
  handed :func:`_estimate_lookup`, so ready positive atoms are ranked by
  the estimated cardinality of their indexed lookup instead of by their
  bound-variable count; ``plan="off"`` ranks by readiness priority alone.
* a **kernel**: one generated Python function for that order — nested
  loops over index probes with every rule variable a local variable,
  probe keys as tuple displays, built-ins as native expressions, and
  aggregate interiors folding each value into its group.  Bound and free
  argument positions, constant and duplicate-variable checks, the
  grouping/local split and the conjunct order are all decided while
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
one.  A probe binding a relation's whole key reads the relation's own
map; any other keeps a persistent index as a local from its first probe
on.  Probes are charged to ``IndexStats`` once per call (docs/PERFORMANCE.md §3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial
from time import perf_counter
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Tuple
from zlib import crc32

from repro.analysis.classify import ComponentClassification
from repro.analysis.dependencies import Component
from repro.analysis.premap import PushdownResult, analyze_premappability, apply_pushdown
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
    order_conjuncts,
    schedule,
    subgoal_readiness,
)
from repro.testing import faults as _faults
from repro.engine.interpretation import Key, active_index_stats, binds_key

#: Plan modes: "smart" = selectivity-aware join order; "off" = legacy
#: schedule order (the differential suites' reference; still compiled
#: and indexed).
PLAN_MODES = ("smart", "off")


# ---------------------------------------------------------------------------
# Kernel writing
# ---------------------------------------------------------------------------


def _unbound(name: str) -> Any:
    raise UnboundVariableError(name)


#: Globals shared by every generated kernel.  Everything rule-specific —
#: predicate names, constants, aggregate functions — reaches a kernel
#: through its ``consts`` argument, so the source text (and hence the
#: memoised function) is shared by structurally equal rules.
_KERNEL_GLOBALS: Dict[str, Any] = {
    "SafetyError": SafetyError,
    "faults": _faults,
    "index_stats": active_index_stats,
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
#: nested blocks (the probe counters' ``try`` is one), so deeper joins go
#: on in a nested function.
_MAX_LOOPS = 16

#: A nested function's ``nonlocal`` line until the handles are all known.
_SHARED = "nonlocal <shared>"


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
        self.probes = False  # whether the kernel counts probes
        self.scans = False  # whether it counts unbound scans
        self.handles = 0  # index handles x0, x1, ...: one per index probe site
        self.folds: List[str] = []  # inline group states an interior rebinds
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
            # Registers bound so far are read through the closure, and
            # the probe counters, handles and open folds written through it.
            name = f"deeper{len(self.spills)}"
            self.line(f"def {name}():")
            self.spills.append((self.depth, f"{name}()"))
            self.depth += 1
            self.line(_SHARED)
            if self.folds:
                self.line(f"nonlocal {', '.join(self.folds)}")
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
        """The kernel; one that probes or scans counts its probes and
        scans in locals and charges them once per call, in a ``finally``."""
        self.dedent(1)
        lines = ["def kernel(ctx, seeds, consts):"]
        if self.consts:
            names = _display([f"c{n}" for n in range(len(self.consts))])
            lines.append(f"    {names} = consts")
        lines += [f"    {text}" for text in self.prologue]
        lines += ["    out = []", "    emit = out.append"]
        body = self.body
        if self.probes or self.scans:
            handles = [f"x{n}" for n in range(self.handles)]
            counters = ["probes"] * self.probes + ["misses"] * bool(handles)
            counters += ["scans"] * self.scans
            shared = f"nonlocal {', '.join(counters + handles)}"
            lines += [f"    {' = '.join(handles)} = None"] if handles else []
            lines.append(f"    {' = '.join(counters)} = 0")
            body = [f"    {text.replace(_SHARED, shared)}" for text in body]
            body = ["    try:", *body, "    finally:", "        stats = index_stats()"]
            if self.probes:
                hits = "probes" + " - misses" * bool(handles)
                body.append(f"        stats.hits += {hits}")
            body += ["        stats.misses += misses"] if handles else []
            body += ["        stats.scans += scans"] if self.scans else []
        lines += [text for text in body if not text.endswith(_SHARED)]
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
        a read of the relation's own map when its key is bound
        (:meth:`keyed`), a scan of its container when nothing is bound,
        otherwise an indexed join on the bound argument positions,
        through a handle resolved at the site's first probe (a miss if
        the index is built)."""
        decl = self.program.decl(atom.predicate)
        positions = [
            pos
            for pos, arg in enumerate(atom.args)
            if isinstance(arg, Constant) or arg in bound
        ]
        if positions and not decl.has_default:
            self.probes = True
            self.line("probes += 1")
        if decl.has_default or binds_key(decl, positions):
            self.keyed(atom, regs, bound, mode)
            return
        # A cost relation's unbound scan reads its map's items: the key's
        # positions from ``key``, the cost column from ``cost``.
        scan_costs = not positions and decl.is_cost_predicate
        if scan_costs:
            cells = [f"key[{pos}]" for pos in range(decl.key_arity)] + ["cost"]
        else:
            cells = [f"row[{pos}]" for pos in range(len(atom.args))]
        dup_checks: List[str] = []
        writes: List[str] = []
        first_seen: Dict[Variable, int] = {}
        for pos, arg in enumerate(atom.args):
            if pos in positions:
                continue
            if arg in first_seen:
                dup_checks.append(
                    f"if {cells[pos]} != {cells[first_seen[arg]]}: continue"
                )
            else:
                first_seen[arg] = pos
                writes.append(f"{regs[arg]} = {cells[pos]}")
        if positions:
            rel, index = self.fetch(atom.predicate, mode), f"x{self.handles}"
            self.handles += 1
            self.line(f"if {index} is None:")
            self.line(f"    misses += {tuple(positions)!r} not in {rel}._indexes")
            self.line(f"    {index} = {rel}.index_for({tuple(positions)!r})")
            bound_args = [atom.args[pos] for pos in positions]
            rows = f"{index}.get({self.key(bound_args, regs)}, ())"
        else:
            self.scans = True
            self.line("scans += 1")
            if scan_costs:
                rows = self.fetch(atom.predicate, mode, ".costs") + ".items()"
            else:
                rows = self.fetch(atom.predicate, mode, ".tuples")
        if not writes:
            self.require(rows)  # pure existence check
            return
        self.loop(f"for {'key, cost' if scan_costs else 'row'} in {rows}:")
        for text in dup_checks + writes:
            self.line(text)

    def keyed(
        self, atom: Atom, regs: Dict[Variable, str], bound: set, mode: str
    ) -> None:
        """A read of the relation's own map under a bound key, which holds
        at most one row: a positive atom, a default-value atom (core or
        default), or, with ``mode="negated"``, ground negation (the atom
        is absent).  No index is built or kept for it."""
        decl = self.program.decl(atom.predicate)
        key = self.key(atom.args[: decl.key_arity], regs)
        if not decl.is_cost_predicate:
            test = "not in" if mode == "negated" else "in"
            self.require(f"{key} {test} {self.fetch(atom.predicate, mode, '.tuples')}")
            return
        attr = ".cost_of" if decl.has_default else ".costs.get"
        value = f"{self.fetch(atom.predicate, mode, attr)}({key})"
        cost = atom.args[-1]
        if mode == "negated":
            self.require(f"{value} != {self.term(cost, regs)}")
        elif isinstance(cost, Constant) or cost in bound:
            self.require(f"{self.term(cost, regs)} == {value}")
        else:
            self.line(f"{regs[cost]} = {value}")
            if not decl.has_default:
                self.require(f"{regs[cost]} is not None")

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
        runs as nested loops over private registers, folding each value
        into its group's state with the function's ``process``; each
        group's state is ``convert``-ed once."""
        grouping = self.rule.grouping_variables(sg)
        free_grouping = sorted(
            (v for v in grouping if v not in bound), key=lambda v: v.name
        )
        if free_grouping and not sg.restricted:
            raise SafetyError(
                f"'='-form aggregate {sg} evaluated with unbound grouping "
                f"variables {', '.join(v.name for v in free_grouping)} "
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
        function = self.program.aggregate_function(sg.function)
        start = self.const(function.state_create())
        process = self.const(function.process)
        finish = f"{self.const(function.convert)}(m{n})"
        folds = self.folds
        if free_grouping:
            # =r subgoal generating its grouping bindings: aggregate each
            # group of the inner solutions separately.
            self.line(f"g{n} = {{}}")
            key = self.key(free_grouping, inner)
            fold = f"{process}(g{n}.get(k{n}, {start}), {value})"
            collect = [f"k{n} = {key}", f"g{n}[k{n}] = {fold}"]
        else:  # the count n<k>: an empty group has a state too
            self.line(f"m{n}, n{n} = {start}, 0")
            collect = [f"m{n} = {process}(m{n}, {value})", f"n{n} += 1"]
            self.folds = folds + [f"m{n}", f"n{n}"]  # rebound by the interior
        depth, loops, fail = self.depth, self.loops, self.fail
        self.fail = None
        for conjunct in order_conjuncts(
            sg.conjuncts, self.program, frozenset(inner_bound)
        ):
            self.atom(conjunct, inner, inner_bound, "aggregate")
            inner_bound |= conjunct.variable_set()
        for text in collect:
            self.line(text)
        self.dedent(depth)
        self.folds = folds
        self.loops, self.fail = loops, fail
        if free_grouping:
            group = _display([regs[v] for v in free_grouping])
            self.loop(f"for {group}, m{n} in g{n}.items():")
        elif sg.restricted or not function.has_empty_value:
            self.require(f"n{n}")
        else:  # F(∅), once per plan
            finish += f" if n{n} else {self.const(function.empty_value())}"
        detail = getattr(function, "name", None) or type(function).__name__
        self.line("if faults._ACTIVE is not None:")  # fault-injection seam
        self.line(f"    faults.trip('aggregate_apply', {self.const(detail)})")
        result = sg.result
        check = isinstance(result, Constant) or result in bound
        target = f"v{n}" if check else regs[result]
        self.line(f"{target} = {finish}")
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
        columns = [regs.get(v, f"_{n}") for n, v in enumerate(seed_columns(pre_bound))]
        w.loop(f"for {_display(columns)} in seeds:")
    bound: set = set(pre_bound)
    for sg in order:
        if isinstance(sg, AtomSubgoal):
            if sg.negated:
                w.keyed(sg.atom, regs, bound, "negated")
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


@dataclass(eq=False, slots=True)
class RulePlan:
    """One rule compiled against a fixed pre-bound variable set: the join
    order plus the generated kernel and the constants it runs with.  The
    kernel's source is not retained; :meth:`source` regenerates it."""

    rule: Rule
    mode: str
    order: List[Subgoal]
    pre_bound: FrozenSet[Variable]
    kernel: Any
    consts: Tuple[Any, ...]

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


# ---------------------------------------------------------------------------
# Selectivity-aware ordering
# ---------------------------------------------------------------------------


def _estimate_lookup(ctx: EvalContext, sg: AtomSubgoal, bound: set) -> float:
    """Estimated row count of the indexed lookup for a positive atom.

    A bound key reads the relation's own map, which holds at most one
    row per key.  Otherwise uses the live index's average bucket size when
    one exists, or assumes each bound column shrinks the relation by its
    ``arity``-th root (a dimensional-uniformity guess — crude, but it only
    has to rank ready subgoals, not predict run times).
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
    if binds_key(rel.decl, positions):
        return 1.0
    index = rel._indexes.get(positions)
    if index:
        return n / len(index)
    return float(n) ** (1.0 - len(positions) / len(atom.args))


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
    """Compile ``rule`` against the given pre-bound variable set.  With
    ``mode="smart"`` and a context to estimate against, ready positive
    atoms are ranked by the estimated cardinality of their indexed lookup
    (:func:`~repro.engine.grounding.schedule`)."""
    if mode not in PLAN_MODES:
        raise ValueError(f"unknown plan mode {mode!r}; expected one of {PLAN_MODES}")
    estimate = (
        partial(_estimate_lookup, ctx)
        if mode == "smart" and ctx is not None
        else None
    )
    order = schedule(rule, program, pre_bound, estimate)
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
    if plan is None:  # an unknown mode never hits: compile_rule rejects it
        plan = compile_rule(rule, program, pre_bound, mode=mode, ctx=ctx)
        cache[cache_key] = plan
    return plan


def clear_plan_cache(program: Program) -> None:
    """Drop every cached plan, the rewrite and the prepared records
    (tests / planners that change statistics)."""
    program.__dict__.pop("_exec_plan_cache", None)
    program.__dict__.pop("_pushdown_cache", None)
    program.__dict__.pop("_prepared", None)


@dataclass(eq=False, slots=True)
class Prepared:
    """What every solve of one program derives from its rules alone, for
    one ``(check, pushdown)`` pair: the gate admitted the program under
    that check; it evaluates ``rewrite.program`` (``None``: itself) in
    ``components``, bottom-up; and, once a reader asked, ``classes`` maps
    each component's CDB to its classification.  Verdicts only: no
    report, no diagnostic, no reference back to the program."""

    rewrite: Optional[PushdownResult]
    components: List[Component]
    classes: Optional[Dict[FrozenSet[str], ComponentClassification]] = None
    cones: Dict[Any, List[Tuple[int, Component]]] = field(default_factory=dict)

    def cone(self, query: Any) -> List[Tuple[int, Component]]:
        """``(index, component)`` of each component that ``query``'s rows
        (of a predicate, or a frozenset of them) depend on, bottom-up,
        cached: keep a needed CDB, then need what it reads (Prop. 6.1)."""
        cone = self.cones.get(query)
        if cone is None:
            needed = {query} if isinstance(query, str) else set(query)
            cone = []
            for index in reversed(range(len(self.components))):
                if self.components[index].cdb & needed:
                    cone.insert(0, (index, self.components[index]))
                    needed |= self.components[index].ldb
            cone = self.cones.setdefault(query, cone)
        return cone


def prepared_records(program: Program) -> Dict[Tuple[str, str], Prepared]:
    """The program's records by ``(check, pushdown)``.  A solve publishes
    one with ``setdefault``, so concurrent cold solves take no lock and at
    worst prepare twice."""
    return program.__dict__.setdefault("_prepared", {})


def get_pushdown(
    program: Program, classification: Any = None, *, facts: Any = None
) -> Any:
    """The cached aggregate-pushdown rewrite of ``program``.

    Like rule plans, the rewrite is computed once per program object and
    cached on it (as ``()`` if it changed nothing: that result refers back
    to its program), so later solves do not redo it.  The first call takes
    the premappability verdicts from ``facts`` (the run's
    :class:`~repro.analysis.facts.ProgramFacts`; ``solve()`` hands them
    over) or else from a fresh analysis, reusing ``classification`` when
    given.  Returns a :class:`~repro.analysis.premap.PushdownResult`;
    callers check ``.changed`` and evaluate ``.program``.
    """
    cached = program.__dict__.get("_pushdown_cache")
    if cached is None:
        report = (
            facts.premappability
            if facts is not None
            else analyze_premappability(program, classification=classification)
        )
        cached = apply_pushdown(program, report)
        program.__dict__["_pushdown_cache"] = cached if cached.changed else ()
    return cached or PushdownResult(program)


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
