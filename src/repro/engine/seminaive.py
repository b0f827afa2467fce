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

The equivalence with the naive evaluator is enforced by property-based
tests across the paper's example programs and randomized workloads.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.datalog.atoms import AggregateSubgoal, Atom, AtomSubgoal
from repro.datalog.errors import NonTerminationError
from repro.datalog.program import Program
from repro.datalog.rules import Rule
from repro.datalog.terms import Constant, Variable
from repro.engine.exec import run_rule
from repro.engine.grounding import Bindings, EvalContext
from repro.engine.interpretation import Interpretation
from repro.engine.naive import FixpointResult
from repro.engine.supervisor import (
    NULL_SUPERVISOR,
    SolveInterrupt,
    Supervisor,
)
from repro.engine.tp import apply_tp
from repro.obs.tracer import NULL_TRACER, Tracer

DeltaRows = Dict[str, List[Tuple[Any, ...]]]


def _match_row(atom: Atom, row: Tuple[Any, ...]) -> Optional[Bindings]:
    """Bindings making ``atom`` equal to the concrete ``row``, or None."""
    if len(atom.args) != len(row):
        return None
    bindings: Bindings = {}
    for arg, value in zip(atom.args, row):
        if isinstance(arg, Constant):
            if arg.value != value:
                return None
        else:
            existing = bindings.get(arg)
            if existing is None:
                bindings[arg] = value
            elif existing != value:
                return None
    return bindings


def _delta_between(old: Interpretation, new: Interpretation) -> DeltaRows:
    """Rows of ``new`` that are absent from or different in ``old``."""
    delta: DeltaRows = {}
    for name, rel in new.relations.items():
        old_rel = old.relations[name]
        rows: List[Tuple[Any, ...]] = []
        if rel.is_cost:
            for key, value in rel.costs.items():
                if old_rel.costs.get(key) != value:
                    rows.append(key + (value,))
        else:
            for key in rel.tuples - old_rel.tuples:
                rows.append(key)
        if rows:
            delta[name] = rows
    return delta


#: One compiled seed source: (predicate, arity, constant checks as
#: (position, value), duplicate-variable checks as (position, first
#: position), seed writes as (variable, position), seed shape — the
#: written variables, i.e. the plan-cache key of every seed it yields).
_SeedPlan = Tuple[
    str,
    int,
    Tuple[Tuple[int, Any], ...],
    Tuple[Tuple[int, int], ...],
    Tuple[Tuple[Variable, int], ...],
    FrozenSet[Variable],
]


def _row_seed_plan(atom: Atom, keep: Optional[FrozenSet[Variable]]) -> _SeedPlan:
    """Compile ``atom`` into a row → seed-bindings extractor.

    ``keep`` restricts the seed to a variable subset (aggregate grouping
    projection); constant and duplicate-occurrence checks still cover
    every position, exactly like :func:`_match_row`.
    """
    checks: List[Tuple[int, Any]] = []
    dups: List[Tuple[int, int]] = []
    writes: List[Tuple[Variable, int]] = []
    first: Dict[Variable, int] = {}
    for pos, arg in enumerate(atom.args):
        if isinstance(arg, Constant):
            checks.append((pos, arg.value))
        elif arg in first:
            dups.append((pos, first[arg]))
        else:
            first[arg] = pos
            if keep is None or arg in keep:
                writes.append((arg, pos))
    return (
        atom.predicate,
        len(atom.args),
        tuple(checks),
        tuple(dups),
        tuple(writes),
        frozenset(var for var, _ in writes),
    )


def _seed_plans(rule: Rule, cdb: FrozenSet[str]) -> List[_SeedPlan]:
    """The rule's compiled seed sources, cached on the rule object."""
    cache: Dict[FrozenSet[str], List[_SeedPlan]]
    cache = rule.__dict__.setdefault("_delta_seed_plans", {})
    plans = cache.get(cdb)
    if plans is None:
        plans = []
        for sg in rule.body:
            if isinstance(sg, AtomSubgoal) and not sg.negated:
                if sg.atom.predicate in cdb:
                    plans.append(_row_seed_plan(sg.atom, None))
            elif isinstance(sg, AggregateSubgoal):
                grouping = rule.grouping_variables(sg)
                for conjunct in sg.conjuncts:
                    if conjunct.predicate in cdb:
                        plans.append(_row_seed_plan(conjunct, grouping))
        cache[cdb] = plans
    return plans


def _delta_seeds(
    rule: Rule, cdb: FrozenSet[str], delta: DeltaRows
) -> Iterator[Tuple[FrozenSet[Variable], Bindings]]:
    """Pinned initial bindings for re-evaluating ``rule``, each paired
    with its shape (``run_rule``'s ``pre_bound``, computed once per seed
    source rather than once per changed row).

    For a positive CDB atom subgoal the changed row binds the subgoal's
    variables directly; for a CDB aggregate subgoal the changed conjunct
    row is projected onto the *grouping* variables, seeding re-aggregation
    of exactly the affected groups.  The full body is then re-evaluated
    around the seed (the pinned subgoal re-matches via an index hit, which
    keeps the original rule's grouping/local classification intact).

    Seeds are deduplicated by a frozenset-of-items fingerprint — an
    order-free O(k) key (a bindings dict cannot bind one variable twice,
    so equal item sets mean equal seeds).
    """
    seen: Set[FrozenSet[Tuple[Variable, Any]]] = set()
    for predicate, arity, checks, dups, writes, shape in _seed_plans(
        rule, cdb
    ):
        rows = delta.get(predicate)
        if not rows:
            continue
        for row in rows:
            if len(row) != arity:
                continue
            ok = True
            for pos, value in checks:
                if row[pos] != value:
                    ok = False
                    break
            if ok:
                for pos, pos0 in dups:
                    if row[pos] != row[pos0]:
                        ok = False
                        break
            if not ok:
                continue
            seed = {var: row[pos] for var, pos in writes}
            fingerprint = frozenset(seed.items())
            if fingerprint not in seen:
                seen.add(fingerprint)
                yield shape, seed


def _apply_derivation(
    target: Interpretation, predicate: str, args: Tuple[Any, ...]
) -> bool:
    """Join one derived head atom into ``target``; True if it changed.

    Routed through the relation mutators so the persistent indexes stay
    consistent across rounds (``set_cost(strict=False)`` joins on
    conflict, which is exactly the semi-naive merge semantics).
    """
    rel = target.relation(predicate)
    if rel.is_cost:
        assert rel.decl.lattice is not None
        rel.decl.lattice.validate(args[-1])
        return rel.set_cost(args[:-1], args[-1], strict=False)
    return rel.add_tuple(args)


def seminaive_fixpoint(
    program: Program,
    cdb: FrozenSet[str],
    i: Interpretation,
    *,
    max_iterations: int = 100_000,
    strict: bool = True,
    plan: str = "smart",
    storage: str = "boxed",
    tracer: Tracer = NULL_TRACER,
    scc: int = 0,
    supervisor: Supervisor = NULL_SUPERVISOR,
    initial: Optional[Interpretation] = None,
) -> FixpointResult:
    """Delta-driven fixpoint of one monotonic component.

    ``strict`` governs the *first* round's cost-consistency check (later
    rounds always join — see ``_apply_derivation``).  The solver passes
    ``strict=False`` for components holding an aggregate-pushdown
    frontier predicate, whose rules *intentionally* derive conflicting
    per-key costs for the lattice join to collapse.

    With an enabled ``tracer`` one ``iteration`` event is emitted per
    round (tagged with component index ``scc``), carrying the delta fed
    to the next round split into new atoms and changed-cost (lattice
    merge) atoms.

    An active ``supervisor`` is polled at each rule/seed boundary and
    consulted per round; an interrupt escapes with the last consistent
    ``J`` and the pending delta frontier attached.  ``initial`` resumes
    from a checkpointed lower bound: round 0 re-derives over it (one
    full ``T_P`` application, joined in), so a stale or missing frontier
    cannot lose derivations — semi-naive pinning is only a shortcut for
    work the full round would repeat.
    """
    rules = [r for r in program.rules if r.head.predicate in cdb]
    resumed = initial is not None
    start = (
        initial.copy()
        if resumed
        else Interpretation(program.declarations, storage=storage)
    )
    track = tracer.enabled
    supervise = supervisor.active

    j = start
    delta: DeltaRows = {}
    trajectory: List[int] = []
    iterations = 0
    try:
        # Round 0: one full naive T_P application (over the checkpointed
        # state when resuming; conflicting cost derivations then join
        # instead of raising, as the checkpoint may already hold values
        # above any single rule instance's derivation).
        t_round = tracer.clock() if track else 0.0
        out = apply_tp(
            program,
            cdb,
            start,
            i,
            strict=strict and not resumed,
            plan=plan,
            storage=storage,
            tracer=tracer,
            supervisor=supervisor,
            scc=scc,
        )
        j = start.join(out) if resumed else out
        delta = _delta_between(start, j)
        trajectory.append(j.total_size())
        iterations = 1
        if track:
            seeded = sum(len(rows) for rows in delta.values())
            round_wall = round(tracer.clock() - t_round, 6)
            tracer.emit(
                "iteration",
                scc=scc,
                iteration=1,
                delta_atoms=seeded,
                new_atoms=seeded,
                changed_atoms=0,
                total_atoms=j.total_size(),
                wall_s=round_wall,
            )
            m = tracer.metrics
            m.counter("fixpoint.rounds").inc()
            m.counter("fixpoint.new_atoms").inc(seeded)
            m.histogram("fixpoint.delta_atoms").observe(float(seeded))
            m.timer("fixpoint.round_wall_s").observe(round_wall)
        if supervise:
            seeded = sum(len(rows) for rows in delta.values())
            supervisor.on_round(
                scc=scc,
                iteration=1,
                new_atoms=seeded,
                changed_atoms=0,
                total_atoms=j.total_size(),
            )

        # Rules that read no CDB predicate can never fire on a delta.
        dependent_rules = [
            r for r in rules if any(p in cdb for p in r.body_predicates())
        ]

        # One context for the whole fixpoint: the persistent indexes on
        # the relations of ``j`` and ``i`` survive across rounds and are
        # updated in place by ``_apply_derivation``'s mutator calls, so
        # each round touches only its delta instead of re-hashing every
        # relation.
        ctx = EvalContext(program, cdb, j, i, tracer=tracer)

        while delta:
            if iterations >= max_iterations:
                raise NonTerminationError(
                    f"semi-naive evaluation did not converge after "
                    f"{max_iterations} rounds",
                    ascending=True,
                )
            t_round = tracer.clock() if track else 0.0
            derived: List[Tuple[str, Tuple[Any, ...]]] = []
            for rule in dependent_rules:
                for shape, seed in _delta_seeds(rule, cdb, delta):
                    if supervise:
                        # Rule-firing boundary: ``j`` is untouched until
                        # the whole round's derivations apply below.
                        supervisor.poll(scc, iterations)
                    derived.extend(
                        run_rule(
                            rule, ctx, seed=seed, mode=plan, pre_bound=shape
                        )
                    )
            new_delta: DeltaRows = {}
            new_atoms = changed_atoms = 0
            count = track or supervise
            for predicate, args in derived:
                rel = j.relation(predicate)
                if count:
                    existed = (
                        args[:-1] in rel.costs
                        if rel.is_cost
                        else args in rel.tuples
                    )
                if _apply_derivation(j, predicate, args):
                    if count:
                        if existed:
                            changed_atoms += 1
                        else:
                            new_atoms += 1
                    if rel.is_cost:
                        key = args[:-1]
                        row = key + (rel.costs[key],)  # value after joining
                    else:
                        row = args
                    new_delta.setdefault(predicate, []).append(row)
            delta = new_delta
            trajectory.append(j.total_size())
            iterations += 1
            if track:
                delta_size = sum(len(rows) for rows in delta.values())
                round_wall = round(tracer.clock() - t_round, 6)
                tracer.emit(
                    "iteration",
                    scc=scc,
                    iteration=iterations,
                    delta_atoms=delta_size,
                    new_atoms=new_atoms,
                    changed_atoms=changed_atoms,
                    total_atoms=j.total_size(),
                    wall_s=round_wall,
                )
                m = tracer.metrics
                m.counter("fixpoint.rounds").inc()
                m.counter("fixpoint.new_atoms").inc(new_atoms)
                m.counter("fixpoint.changed_atoms").inc(changed_atoms)
                m.histogram("fixpoint.delta_atoms").observe(float(delta_size))
                m.timer("fixpoint.round_wall_s").observe(round_wall)
            if supervise:
                supervisor.on_round(
                    scc=scc,
                    iteration=iterations,
                    new_atoms=new_atoms,
                    changed_atoms=changed_atoms,
                    total_atoms=j.total_size(),
                )
    except SolveInterrupt as interrupt:
        # ``j`` only mutates in the apply-derivations block, which has no
        # check sites — at every interrupt point it is a consistent
        # (sound) round-boundary state.
        interrupt.attach(
            FixpointResult(
                interpretation=j,
                iterations=iterations,
                ascending=True,
                trajectory=trajectory,
                status=interrupt.status,
            ),
            frontier=delta,
        )
        raise

    return FixpointResult(
        interpretation=j,
        iterations=iterations,
        ascending=True,
        trajectory=trajectory,
    )
