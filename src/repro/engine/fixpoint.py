"""The least fixpoint of ``T_P`` (Definition 3.7, Cor. 3.5): one loop.

``T_P(J, I)`` applies every rule of a component at once to the current
CDB interpretation ``J`` and the fixed lower-component interpretation
``I``, joined with ``J_∅`` — implicitly, since cores never store default
values (:class:`~repro.engine.interpretation.Relation`).  A round of
:func:`fixpoint` fires rules and writes what they derive through one
write block; the evaluators differ only in what a round fires and where
its rows go:

* ``write="replace"`` — Kleene iteration (Section 6.2): every rule fires
  over ``J`` into a fresh interpretation, ``J_{k+1} = T_P(J_k, I)``,
  until a round reproduces ``J``.  Writes are strict (the paper's
  standing cost-consistency assumption).  Non-monotonic programs may
  oscillate and Example 5.1 ascends forever; both raise
  :class:`~repro.datalog.errors.NonTerminationError`, whose
  ``ascending`` flag tells them apart.
* ``write="join"`` — delta-driven re-derivation (semi-naive): after the
  first full round, each positive CDB atom subgoal is pinned to the rows
  that changed in the previous round, and each CDB aggregate subgoal to
  the *groups* those rows belong to (re-aggregated whole from ``J`` —
  aggregates are not incrementally maintainable in general).  New
  derivations are *joined* into ``J``; for a monotonic component that
  reproduces the Kleene chain, since unpinned instances would re-derive
  values ⊑-below ``J``.  The solver routes only admissibility-certified
  components here.  Which derived rows a join round writes is a
  *worklist policy*: all of them (semi-naive), or the best few by cost
  (:mod:`repro.engine.greedy`).

Property-based tests pin the modes to one another across the paper's
example programs and randomized workloads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Callable, Dict, FrozenSet, Iterator, List, Optional
from typing import Protocol, Sequence, Set, Tuple

from repro.datalog.atoms import AggregateSubgoal, Atom, AtomSubgoal
from repro.datalog.errors import NonTerminationError
from repro.datalog.program import Program
from repro.datalog.rules import Rule
from repro.datalog.terms import Constant, Variable
from repro.engine.exec import run_rule, seed_columns
from repro.engine.grounding import EvalContext
from repro.engine.interpretation import Interpretation, Key, delta_counts
from repro.engine.interpretation import row_projector
from repro.engine.supervisor import NULL_SUPERVISOR, SolveInterrupt, Supervisor
from repro.obs.tracer import NULL_TRACER, Tracer

DeltaRows = Dict[str, List[Tuple[Any, ...]]]
#: ``(head predicate, derived rows)`` per kernel call, in derivation order.
Derived = List[Tuple[str, List[Key]]]


#: Seeds per kernel call, and rows per cost-ordered slice (a slice of
#: changed rows is then one kernel call per seed source).  The supervisor
#: is polled between slices, so this bounds cancel latency; it is large
#: enough to amortise the call.
SEED_SLICE = 64

#: ``method → write`` mode of its rounds (greedy adds a worklist).
WRITE = {"naive": "replace", "seminaive": "join", "greedy": "join"}


@dataclass
class FixpointResult:
    """Outcome of one component's fixpoint computation."""

    #: The component's ``J``: its CDB relations and nothing else.
    interpretation: Interpretation
    iterations: int
    ascending: bool
    #: Sizes of successive interpretations (diagnostics / benches).
    trajectory: List[int] = field(default_factory=list)
    #: ``"complete"`` for a reached fixpoint; a supervised interrupt
    #: leaves the sound-so-far state here tagged with its
    #: :data:`~repro.engine.supervisor.STATUSES` value.
    status: str = "complete"


class SeedSource:
    """One way a changed row re-fires a rule: a positive CDB body atom,
    or a CDB conjunct of an aggregate subgoal, compiled into a row →
    seed-tuple extractor.

    For a body atom the changed row binds the atom's variables directly;
    for an aggregate conjunct it is projected onto the *grouping*
    variables, seeding re-aggregation of exactly the affected groups.
    The full body is then re-evaluated around the seed (the pinned
    subgoal re-matches by a read of its relation's own map, which keeps
    the original rule's grouping/local classification intact).
    """

    __slots__ = (
        "rule", "predicate", "rank", "shape", "group", "checks", "dups", "project",
    )  # fmt: skip

    def __init__(
        self, rule: Rule, rank: int, atom: Atom, keep: Optional[FrozenSet[Variable]]
    ) -> None:
        self.rule = rule
        self.predicate = atom.predicate
        #: Position in rule-major, body order: the derivation order.
        self.rank = rank
        #: Constant checks ``(position, value)`` and repeated-variable
        #: checks ``(position, first position)`` a row must pass.
        checks: List[Tuple[int, Any]] = []
        dups: List[Tuple[int, int]] = []
        first: Dict[Variable, int] = {}
        for pos, arg in enumerate(atom.args):
            if isinstance(arg, Constant):
                checks.append((pos, arg.value))
            elif arg in first:
                dups.append((pos, first[arg]))
            else:
                first[arg] = pos
        self.checks, self.dups = checks, dups
        #: The seeded variables — the plan-cache key of every batch.
        self.shape = frozenset(v for v in first if keep is None or v in keep)
        columns = seed_columns(self.shape)
        self.project = row_projector(tuple(first[v] for v in columns))
        #: Index of the dedup set shared with the rule's other sources of
        #: this shape (equal seeds fire once); -1 when there is none.
        self.group = -1

    def seeds(self, rows: List[Key], seen: Optional[Set[Key]]) -> List[Key]:
        """The distinct seed tuples of ``rows`` not in ``seen``, in row
        order; ``seen`` (the source's group, if any) is updated."""
        if self.checks or self.dups:
            checks, dups = self.checks, self.dups
            rows = [
                row
                for row in rows
                if all(row[pos] == value for pos, value in checks)
                and all(row[pos] == row[pos0] for pos, pos0 in dups)
            ]
        seeds = dict.fromkeys(map(self.project, rows))
        if seen is None:
            return list(seeds)
        fresh = [seed for seed in seeds if seed not in seen]
        seen.update(fresh)
        return fresh


class DeltaDispatch:
    """The delta-dispatch table of one component: changed predicate →
    the seed sources it re-fires, compiled once per fixpoint."""

    def __init__(self, rules: Sequence[Rule], cdb: FrozenSet[str]) -> None:
        self.rules = rules
        self.by_predicate: Dict[str, List[SeedSource]] = {}
        groups: Dict[Tuple[int, FrozenSet[Variable]], List[SeedSource]] = {}
        rank = 0
        for rule in rules:
            for sg in rule.body:
                if isinstance(sg, AtomSubgoal) and not sg.negated:
                    pinned = [(sg.atom, None)]
                elif isinstance(sg, AggregateSubgoal):
                    grouping = rule.grouping_variables(sg)
                    pinned = [(c, grouping) for c in sg.conjuncts]
                else:
                    continue
                for atom, keep in pinned:
                    if atom.predicate not in cdb:
                        continue
                    source = SeedSource(rule, rank, atom, keep)
                    rank += 1
                    self.by_predicate.setdefault(atom.predicate, []).append(source)
                    groups.setdefault((id(rule), source.shape), []).append(source)
        shared = [group for group in groups.values() if len(group) > 1]
        for index, group in enumerate(shared):
            for source in group:
                source.group = index

    def batches(self, delta: DeltaRows) -> List[Tuple[SeedSource, List[Key]]]:
        """``(seed source, its distinct seeds)`` for the changed rows of
        ``delta``, in derivation order: rule, then source, then row."""
        hit: Sequence[SeedSource]
        if len(delta) == 1:
            (predicate,) = delta
            hit = self.by_predicate.get(predicate, ())
        else:
            hit = sorted(
                (s for p in delta for s in self.by_predicate.get(p, ())),
                key=attrgetter("rank"),
            )
        seen: Dict[int, Set[Key]] = {}
        out: List[Tuple[SeedSource, List[Key]]] = []
        for source in hit:
            group = source.group
            seeds = source.seeds(
                delta[source.predicate],
                seen.setdefault(group, set()) if group >= 0 else None,
            )
            if seeds:
                out.append((source, seeds))
        return out

    def fire(
        self,
        delta: DeltaRows,
        ctx: EvalContext,
        mode: str,
        poll: Optional[Callable[[], None]] = None,
    ) -> Derived:
        """Re-fire every rule the changed rows of ``delta`` can touch.
        ``poll`` runs before each kernel call, so at most
        :data:`SEED_SLICE` seeds apart."""
        derived: Derived = []
        for source, seeds in self.batches(delta):
            rule = source.rule
            for start in range(0, len(seeds), SEED_SLICE):
                if poll is not None:
                    poll()
                rows = run_rule(
                    rule,
                    ctx,
                    mode=mode,
                    pre_bound=source.shape,
                    seeds=seeds[start : start + SEED_SLICE],
                )
                if rows:
                    derived.append((rule.head.predicate, rows))
        return derived


class Worklist(Protocol):
    """What a round writes: a policy over the derived-but-unwritten rows."""

    def select(self, derived: Derived, j: Interpretation) -> Derived:
        """Take in a round's ``derived`` rows; return those to write now."""


def cdb_interpretation(program: Program, cdb: FrozenSet[str]) -> Interpretation:
    """An empty ``J`` for the component ``cdb``: one relation per CDB
    predicate, since every other read goes to ``I``."""
    return Interpretation({name: program.declarations[name] for name in sorted(cdb)})


def fire_all(
    rules: Sequence[Rule],
    ctx: EvalContext,
    mode: str,
    poll: Optional[Callable[[], None]] = None,
) -> Iterator[Tuple[str, List[Key]]]:
    """Fire every rule once, unseeded: one ``T_P(J, I)`` application.
    Lazy — a rule fires when its predecessor's rows have been taken, so a
    writer consuming rule by rule meets a rule's cost conflict before
    the next rule runs."""
    for rule in rules:
        if poll is not None:
            poll()
        rows = run_rule(rule, ctx, mode=mode)
        if rows:
            yield rule.head.predicate, rows


def apply_tp(
    program: Program,
    cdb: FrozenSet[str],
    j: Interpretation,
    i: Interpretation,
    *,
    rules: Optional[List[Rule]] = None,
    strict: bool = True,
    negation_source: Optional[Interpretation] = None,
    aggregate_source: Optional[Interpretation] = None,
    plan: str = "smart",
    tracer: Tracer = NULL_TRACER,
    supervisor: Supervisor = NULL_SUPERVISOR,
    scc: Optional[int] = None,
) -> Interpretation:
    """``T_P(J, I)`` of the ``rules`` (default: those with their head in
    ``cdb``) as a fresh interpretation holding the ``cdb`` relations and
    nothing else.  ``strict=False`` joins
    conflicting cost derivations instead of raising;
    ``negation_source`` / ``aggregate_source`` fix those subgoal kinds
    to an oracle (reducts, Sections 5.3–5.5)."""
    if rules is None:
        rules = [r for r in program.rules if r.head.predicate in cdb]
    ctx = EvalContext(
        program, cdb, j, i, tracer=tracer,
        negation_source=negation_source, aggregate_source=aggregate_source,
    )  # fmt: skip
    poll = (lambda: supervisor.poll(scc)) if supervisor.active else None
    out = cdb_interpretation(program, cdb)
    for predicate, rows in fire_all(rules, ctx, plan, poll):
        out.relation(predicate).join_rows(rows, strict=strict)
    return out


def fixpoint(
    program: Program,
    cdb: FrozenSet[str],
    i: Interpretation,
    *,
    write: str = "join",
    worklist: Optional[Worklist] = None,
    max_iterations: Optional[int] = 100_000,
    strict: bool = True,
    plan: str = "smart",
    tracer: Tracer = NULL_TRACER,
    scc: int = 0,
    supervisor: Supervisor = NULL_SUPERVISOR,
    initial: Optional[Interpretation] = None,
) -> FixpointResult:
    """The least fixpoint of one component's ``T_P`` over ``I = i``.

    ``write="replace"`` is Kleene iteration: ``strict`` checks cost
    consistency in every round, and ``iterations`` does not count the
    final round, which reproduced ``J``.  ``write="join"`` fires every
    rule in round 1 and later the rules the previous round's changed
    rows can touch, and joins what the ``worklist`` selects (``None``:
    everything) into ``J``; ``T_P`` is monotone, so any fair schedule
    reaches the same least fixpoint (Cor. 3.5).  There ``strict``
    governs round 1 only: the solver passes ``strict=False`` for
    aggregate-pushdown frontier components, whose rules derive
    conflicting per-key costs for the join to collapse.

    Past ``max_iterations`` rounds the chain raises
    ``NonTerminationError``; ``None`` sets no cap, which the solver
    passes only under a budget that stops every run.

    An enabled ``tracer`` gets one ``iteration`` event per round, tagged
    ``scc``.  An active ``supervisor`` is polled once per round and
    before every kernel call (per rule, or at most :data:`SEED_SLICE`
    seeds apart), and consulted after every round but a converged Kleene
    one; an interrupt escapes with the last complete ``J`` attached.
    ``initial`` resumes from a checkpointed lower bound of the CDB
    relations (nothing else, like every ``J``): round 1
    re-derives over it (Kleene rounds become ``J ⊔ T_P(J, I)``), so the
    pending delta need not be saved.
    """
    replace = write == "replace"
    rules = [r for r in program.rules if r.head.predicate in cdb]
    resumed = initial is not None
    j = initial.copy() if resumed else cdb_interpretation(program, cdb)
    track = tracer.enabled
    supervise = supervisor.active
    # ``j`` only mutates in the write block, which has no check sites
    # unless it writes a fresh interpretation, so every poll sees a
    # round-boundary ``j``.
    poll = (lambda: supervisor.poll(scc, iterations)) if supervise else None

    # A join fixpoint keeps one context: the persistent indexes on the
    # relations of ``j`` and ``i`` survive across rounds and are updated
    # in place by ``join_rows``, so each round touches only its delta.
    ctx = EvalContext(program, cdb, j, i, tracer=tracer)
    dispatch = None if replace else DeltaDispatch(rules, cdb)
    seen = {j.fingerprint(): 0} if replace else {}

    delta: DeltaRows = {}
    atoms = j.total_size()
    trajectory: List[int] = []
    iterations = 0
    ascending = True
    try:
        while True:
            t_round = tracer.clock() if track else 0.0
            if poll is not None:
                poll()
            target = j
            if replace:
                derived: Any = fire_all(rules, ctx, plan, poll)
                target = cdb_interpretation(program, cdb)
                check = strict
            else:
                if iterations:
                    derived = dispatch.fire(delta, ctx, plan, poll)
                else:
                    derived = list(fire_all(rules, ctx, plan, poll))
                if worklist is not None:
                    derived = worklist.select(derived, j)
                # Resuming, conflicting cost derivations join instead of
                # raising: the checkpoint may already hold values above
                # any single rule instance's derivation.
                check = strict and not resumed and not iterations
            delta = {}
            new_atoms = changed_atoms = 0
            for predicate, rows in derived:
                rel = target.relation(predicate)
                size = len(rel)
                changed = rel.join_rows(rows, strict=check)
                if changed and target is j:
                    delta.setdefault(predicate, []).extend(changed)
                    # A changed row either added a key or joined into one.
                    added = len(rel) - size
                    new_atoms += added
                    changed_atoms += len(changed) - added
            if replace:
                if resumed:
                    target = j.join(target)
                atoms = target.total_size()
                if track or supervise:
                    new_atoms, changed_atoms = delta_counts(j, target)
            else:
                atoms += new_atoms
            trajectory.append(atoms)
            iterations += 1
            if track:
                delta_size = new_atoms + changed_atoms
                round_wall = round(tracer.clock() - t_round, 6)
                tracer.emit(
                    "iteration",
                    scc=scc,
                    iteration=iterations,
                    delta_atoms=delta_size,
                    new_atoms=new_atoms,
                    changed_atoms=changed_atoms,
                    total_atoms=atoms,
                    wall_s=round_wall,
                )
                m = tracer.metrics
                m.counter("fixpoint.rounds").inc()
                m.counter("fixpoint.new_atoms").inc(new_atoms)
                m.counter("fixpoint.changed_atoms").inc(changed_atoms)
                m.histogram("fixpoint.delta_atoms").observe(float(delta_size))
                m.timer("fixpoint.round_wall_s").observe(round_wall)
                if worklist is not None:
                    m.counter("greedy.settled").inc(new_atoms)
                    m.timer("greedy.settle_wall_s").observe(round_wall)
            if replace:
                if target == j:
                    break  # the confirming Kleene round: no budget charged
                ascending = ascending and j.leq(target)
                fp = target.fingerprint()
                if fp in seen and not ascending:
                    raise NonTerminationError(
                        f"T_P oscillates (state of step {iterations} already "
                        f"seen at step {seen[fp]}); the component is not "
                        f"monotonic on this extension",
                        ascending=False,
                    )
                seen[fp] = iterations
                j = target
                ctx = EvalContext(program, cdb, j, i, tracer=tracer)
            if supervise:
                supervisor.on_round(
                    scc=scc,
                    iteration=iterations,
                    new_atoms=new_atoms,
                    changed_atoms=changed_atoms,
                    total_atoms=atoms,
                )
            if not (replace or delta):
                break
            if max_iterations is not None and iterations >= max_iterations:
                trend = "not ascending"
                if ascending:
                    trend = "still ascending — may require transfinite iteration"
                raise NonTerminationError(
                    f"no fixpoint after {max_iterations} iterations ({trend})"
                    if replace
                    else f"delta evaluation did not converge after "
                    f"{max_iterations} rounds",
                    ascending=ascending,
                )
    except SolveInterrupt as interrupt:
        interrupt.attach(
            FixpointResult(
                interpretation=j,
                iterations=iterations,
                ascending=ascending,
                trajectory=trajectory,
                status=interrupt.status,
            )
        )
        raise

    return FixpointResult(
        interpretation=j,
        # A converged Kleene chain's last round only confirmed ``J``.
        iterations=iterations - 1 if replace else iterations,
        ascending=ascending,
        trajectory=trajectory,
    )
