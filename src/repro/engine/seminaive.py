"""Semi-naive evaluation for monotonic components.

Classic semi-naive evaluation specialises here to *delta-driven
re-derivation*: after the first full ``T_P`` round, a rule instance only
needs re-evaluation when it can touch an atom whose cost changed in the
previous round.  Concretely, per changed atom we pin

* each positive CDB atom subgoal to the changed rows, evaluating the rest
  of the body around the pinned bindings, and
* each CDB aggregate subgoal to the *groups* the changed rows belong to
  (the group's multiset changed, so the whole group is re-aggregated from
  the current ``J`` — aggregates are not incrementally maintainable in
  general, re-aggregation per affected group is).

New derivations are *joined* into ``J``.  For a monotonic component this
reproduces ``J_{k+1} = T_P(J_k, I)`` exactly: unpinned instances would
re-derive values already ⊑-below what ``J`` holds, so skipping them is
safe, and ``join(old, new) = new`` whenever ``new ⊒ old``.  For
non-monotonic programs the shortcut is unsound — the solver only routes
admissibility-certified components here.

:func:`seminaive_fixpoint` is the one loop both delta evaluators run.
Which derived rows a round writes is a *worklist policy*: all of them
(semi-naive), or the best few by cost with the rest held back
(:mod:`repro.engine.greedy`).  Everything else — firing, the write, the
counts, the ``iteration`` event, the metrics, the supervisor calls, the
interrupt — is written once, here.

The equivalence with the naive evaluator is enforced by property-based
tests across the paper's example programs and randomized workloads.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Protocol
from typing import Sequence, Set, Tuple

from repro.datalog.atoms import AggregateSubgoal, Atom, AtomSubgoal
from repro.datalog.errors import NonTerminationError
from repro.datalog.program import Program
from repro.datalog.rules import Rule
from repro.datalog.terms import Constant, Variable
from repro.engine.exec import run_rule, seed_columns
from repro.engine.grounding import EvalContext
from repro.engine.interpretation import Interpretation, Key, row_projector
from repro.engine.naive import FixpointResult
from repro.engine.supervisor import (
    NULL_SUPERVISOR,
    SolveInterrupt,
    Supervisor,
)
from repro.obs.tracer import NULL_TRACER, Tracer

DeltaRows = Dict[str, List[Tuple[Any, ...]]]
#: ``(head predicate, derived rows)`` per kernel call, in derivation order.
Derived = List[Tuple[str, List[Key]]]


#: Seeds per kernel call, and rows per cost-ordered slice (a slice of
#: changed rows is then one kernel call per seed source).  The supervisor
#: is polled between slices, so this bounds cancel latency; it is large
#: enough to amortise the call.
SEED_SLICE = 64


class SeedSource:
    """One way a changed row re-fires a rule: a positive CDB body atom,
    or a CDB conjunct of an aggregate subgoal, compiled into a row →
    seed-tuple extractor.

    For a body atom the changed row binds the atom's variables directly;
    for an aggregate conjunct it is projected onto the *grouping*
    variables, seeding re-aggregation of exactly the affected groups.
    The full body is then re-evaluated around the seed (the pinned
    subgoal re-matches via an index hit, which keeps the original rule's
    grouping/local classification intact).
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

    def fire_all(
        self, ctx: EvalContext, mode: str, poll: Optional[Callable[[], None]] = None
    ) -> Derived:
        """Fire every rule once, unseeded: one ``T_P(J, I)`` application
        (nothing is written until the caller joins the rows in)."""
        derived: Derived = []
        for rule in self.rules:
            if poll is not None:
                poll()
            rows = run_rule(rule, ctx, mode=mode)
            if rows:
                derived.append((rule.head.predicate, rows))
        return derived

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

    def frontier(self) -> DeltaRows:
        """The rows held back so far (advisory, for checkpoints)."""


def seminaive_fixpoint(
    program: Program,
    cdb: FrozenSet[str],
    i: Interpretation,
    *,
    max_iterations: int = 100_000,
    strict: bool = True,
    plan: str = "smart",
    tracer: Tracer = NULL_TRACER,
    scc: int = 0,
    supervisor: Supervisor = NULL_SUPERVISOR,
    initial: Optional[Interpretation] = None,
    worklist: Optional[Worklist] = None,
) -> FixpointResult:
    """Delta-driven fixpoint of one monotonic component.

    A round fires rules (round 1: every rule once, ``T_P(J, I)``; later
    rounds: the rules the previous round's changed rows can touch),
    *joins* what the ``worklist`` policy selects of the derived rows
    into ``J`` (``Relation.join_rows``) and hands the rows that changed
    to the next round.  The policy is the only difference between the
    two delta evaluators: ``None`` writes every derived row in the round
    that derived it (semi-naive); :class:`repro.engine.greedy.CostOrdered`
    holds them back and writes the best few by cost.  ``T_P`` is
    monotone, so any fair schedule joins its way to the same least
    fixpoint (Cor. 3.5); the order only decides how many revisions that
    takes.

    ``strict`` governs the *first* round's cost-consistency check (later
    rounds always join).  The solver passes ``strict=False`` for
    components holding an aggregate-pushdown frontier predicate, whose
    rules *intentionally* derive conflicting per-key costs for the
    lattice join to collapse.

    With an enabled ``tracer`` one ``iteration`` event is emitted per
    round (tagged with component index ``scc``), carrying the rows the
    round changed — the delta fed to the next round — split into new
    atoms and changed-cost (lattice merge) atoms.

    An active ``supervisor`` is polled once per round and before every
    kernel call (at most :data:`SEED_SLICE` seeds apart) and consulted
    per round; an interrupt escapes with the last consistent ``J`` and
    the pending frontier (the delta plus whatever the policy holds
    back) attached.  ``initial`` resumes from a checkpointed lower
    bound: round 1 re-derives over it (one full ``T_P`` application,
    joined in), so a stale or missing frontier cannot lose derivations
    — pinning to a delta is only a shortcut for work the full round
    would repeat.
    """
    rules = [r for r in program.rules if r.head.predicate in cdb]
    resumed = initial is not None
    j = initial.copy() if resumed else Interpretation(program.declarations)
    track = tracer.enabled
    supervise = supervisor.active
    # ``j`` only mutates in the write block below, which has no check
    # sites, so every poll sees a round-boundary state.
    poll = (lambda: supervisor.poll(scc, iterations)) if supervise else None

    # One context for the whole fixpoint: the persistent indexes on the
    # relations of ``j`` and ``i`` survive across rounds and are updated
    # in place by ``join_rows``, so each round touches only its delta
    # instead of re-hashing every relation.
    ctx = EvalContext(program, cdb, j, i, tracer=tracer)
    dispatch = DeltaDispatch(rules, cdb)

    delta: DeltaRows = {}
    atoms = j.size_of(cdb)  # ``j`` holds CDB atoms only
    trajectory: List[int] = []
    iterations = 0
    try:
        while True:
            t_round = tracer.clock() if track else 0.0
            if poll is not None:
                poll()
            if iterations:
                derived = dispatch.fire(delta, ctx, plan, poll)
            else:
                derived = dispatch.fire_all(ctx, plan, poll)
            if worklist is not None:
                derived = worklist.select(derived, j)
            # Resuming, conflicting cost derivations join instead of
            # raising: the checkpoint may already hold values above any
            # single rule instance's derivation.
            check = strict and not resumed and not iterations
            delta = {}
            new_atoms = changed_atoms = 0
            for predicate, rows in derived:
                rel = j.relation(predicate)
                size = len(rel)
                changed = rel.join_rows(rows, strict=check)
                if changed:
                    delta.setdefault(predicate, []).extend(changed)
                    # A changed row either added a key or joined into one.
                    added = len(rel) - size
                    new_atoms += added
                    changed_atoms += len(changed) - added
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
            if supervise:
                supervisor.on_round(
                    scc=scc,
                    iteration=iterations,
                    new_atoms=new_atoms,
                    changed_atoms=changed_atoms,
                    total_atoms=atoms,
                )
            if not delta:
                break
            if iterations >= max_iterations:
                raise NonTerminationError(
                    f"delta evaluation did not converge after "
                    f"{max_iterations} rounds",
                    ascending=True,
                )
    except SolveInterrupt as interrupt:
        frontier = delta
        if worklist is not None:
            frontier = {name: list(rows) for name, rows in delta.items()}
            for name, rows in worklist.frontier().items():
                frontier.setdefault(name, []).extend(rows)
        interrupt.attach(
            FixpointResult(
                interpretation=j,
                iterations=iterations,
                ascending=True,
                trajectory=trajectory,
                status=interrupt.status,
            ),
            frontier=frontier,
        )
        raise

    return FixpointResult(
        interpretation=j,
        iterations=iterations,
        ascending=True,
        trajectory=trajectory,
    )
