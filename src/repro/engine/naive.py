"""Naive bottom-up evaluation: Kleene iteration of ``T_P`` (Section 6.2).

The sequence ``J_∅, T_P(J_∅, I), T_P(T_P(J_∅, I), I), ...`` is monotonically
⊑-increasing for monotonic programs and reaches the least fixpoint after
finitely many steps whenever the relevant cost orders are well-founded on
the values that actually arise (the paper's termination discussion).

Non-monotonic programs may oscillate; programs like Example 5.1 (halfsum)
ascend forever toward a fixpoint only reached at ω or beyond.  Both cases
surface as :class:`~repro.datalog.errors.NonTerminationError`, whose
``ascending`` flag distinguishes them — the caller (and the halfsum bench)
can then report the approximation trajectory instead of a wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional

from repro.datalog.errors import NonTerminationError
from repro.datalog.program import Program
from repro.engine.interpretation import Interpretation, delta_counts
from repro.engine.supervisor import (
    NULL_SUPERVISOR,
    SolveInterrupt,
    Supervisor,
)
from repro.engine.tp import apply_tp
from repro.obs.tracer import NULL_TRACER, Tracer


@dataclass
class FixpointResult:
    """Outcome of one component's fixpoint computation."""

    interpretation: Interpretation
    iterations: int
    ascending: bool
    #: Sizes of successive interpretations (diagnostics / benches).
    trajectory: List[int] = field(default_factory=list)
    #: ``"complete"`` for a reached fixpoint; a supervised interrupt
    #: leaves the sound-so-far state here tagged with its
    #: :data:`~repro.engine.supervisor.STATUSES` value.
    status: str = "complete"


def kleene_fixpoint(
    program: Program,
    cdb: FrozenSet[str],
    i: Interpretation,
    *,
    max_iterations: int = 100_000,
    strict: bool = True,
    on_step: Optional[Callable[[int, Interpretation], None]] = None,
    plan: str = "smart",
    tracer: Tracer = NULL_TRACER,
    scc: int = 0,
    supervisor: Supervisor = NULL_SUPERVISOR,
    initial: Optional[Interpretation] = None,
) -> FixpointResult:
    """Iterate ``J ← T_P(J, I)`` from ``J_∅`` until a fixpoint.

    Raises :class:`NonTerminationError` after ``max_iterations`` steps,
    with ``ascending=True`` when the chain was still ⊑-increasing
    (transfinite behaviour, Example 5.1) and ``ascending=False`` when an
    oscillation was detected (non-monotonic program).

    With an enabled ``tracer`` one ``iteration`` event is emitted per
    ``T_P`` application (so the final, unchanged round appears too),
    tagged with component index ``scc``.

    An active ``supervisor`` is polled inside each ``T_P`` application
    and consulted at every round boundary; on interrupt the sound
    last-completed round is attached to the escaping
    :class:`~repro.engine.supervisor.SolveInterrupt`.  ``initial`` seeds
    the iteration from a checkpointed lower bound instead of ``J_∅``;
    iterates then go through the inflationary ``J ⊔ T_P(J, I)``, which
    converges to the same least fixpoint (checkpoints are taken at round
    boundaries, so resumed chains replay the uninterrupted ones).
    """
    resumed = initial is not None
    j = (
        initial.copy()
        if resumed
        else Interpretation(program.declarations)
    )
    ascending = True
    trajectory: List[int] = []
    seen: Dict[int, int] = {j.fingerprint(): 0}
    supervise = supervisor.active
    for step in range(1, max_iterations + 1):
        t_round = tracer.clock() if tracer.enabled else 0.0
        try:
            j_next = apply_tp(
                program,
                cdb,
                j,
                i,
                strict=strict,
                plan=plan,
                tracer=tracer,
                supervisor=supervisor,
                scc=scc,
            )
        except SolveInterrupt as interrupt:
            # Mid-round: the staging output is discarded; ``j`` is the
            # last complete (hence sound) iterate.
            interrupt.attach(
                FixpointResult(
                    interpretation=j,
                    iterations=step - 1,
                    ascending=ascending,
                    trajectory=trajectory,
                    status=interrupt.status,
                )
            )
            raise
        if resumed:
            j_next = j.join(j_next)
        size = j_next.size_of(cdb)  # ``J`` holds CDB atoms only
        if tracer.enabled or supervise:
            new_atoms, changed = delta_counts(j, j_next)
        if tracer.enabled:
            round_wall = round(tracer.clock() - t_round, 6)
            tracer.emit(
                "iteration",
                scc=scc,
                iteration=step,
                delta_atoms=new_atoms + changed,
                new_atoms=new_atoms,
                changed_atoms=changed,
                total_atoms=size,
                wall_s=round_wall,
            )
            m = tracer.metrics
            m.counter("fixpoint.rounds").inc()
            m.counter("fixpoint.new_atoms").inc(new_atoms)
            m.counter("fixpoint.changed_atoms").inc(changed)
            m.histogram("fixpoint.delta_atoms").observe(
                float(new_atoms + changed)
            )
            m.timer("fixpoint.round_wall_s").observe(round_wall)
        if on_step is not None:
            on_step(step, j_next)
        trajectory.append(size)
        if j_next == j:
            return FixpointResult(
                interpretation=j,
                iterations=step - 1,
                ascending=ascending,
                trajectory=trajectory,
            )
        if ascending and not j.leq(j_next):
            ascending = False
        fp = j_next.fingerprint()
        if fp in seen and not ascending:
            raise NonTerminationError(
                f"T_P oscillates (state of step {step} already seen at step "
                f"{seen[fp]}); the component is not monotonic on this "
                f"extension",
                ascending=False,
            )
        seen[fp] = step
        j = j_next
        if supervise:
            try:
                supervisor.on_round(
                    scc=scc,
                    iteration=step,
                    new_atoms=new_atoms,
                    changed_atoms=changed,
                    total_atoms=size,
                )
            except SolveInterrupt as interrupt:
                interrupt.attach(
                    FixpointResult(
                        interpretation=j,
                        iterations=step,
                        ascending=ascending,
                        trajectory=trajectory,
                        status=interrupt.status,
                    )
                )
                raise
    raise NonTerminationError(
        f"no fixpoint after {max_iterations} iterations "
        f"({'still ascending — may require transfinite iteration' if ascending else 'not ascending'})",
        ascending=ascending,
    )
