"""Solve supervision: budgets, cancellation and divergence detection.

Lemma 2.2 only guarantees finite minimal models for *safe* programs
(Definition 2.5).  The moment evaluation leaves the syntactic conditions
— unbounded lattices, greedy evaluation of merely pseudo-monotonic
components, user-supplied aggregates — the Kleene chain can ascend
forever (Example 5.1) or blow up combinatorially.  The supervisor is the
resource-governance layer that makes such solves *fail predictably*:

* **budgets** (:class:`Budget`) — a wall-clock deadline, a global
  fixpoint-round cap and a derived-atom cap, checked cooperatively at
  iteration and rule-firing boundaries;
* **cancellation** (:class:`CancelToken`) — an external kill switch the
  evaluators poll, also wired to SIGINT by the CLI
  (:func:`sigint_cancels`), so an interrupt lands at a safe boundary
  instead of tearing a :class:`~repro.engine.interpretation.Relation`
  mid-mutation;
* **divergence detection** — two cheap per-round heuristics.  A *cost
  spiral* is 8 consecutive rounds that only revise existing costs (no
  new keys), none fewer than the first, on a component holding a cost
  predicate over an unbounded lattice — the signature of Example 5.1 or
  of shortest paths over a negative cycle, where every round strictly
  improves values that will never converge.  An *atom-growth alarm* is
  8 consecutive rounds each at least doubling the component's atoms.
  Both emit a structured runtime diagnostic (``MAD701`` / ``MAD702``,
  see docs/ROBUSTNESS.md) and a ``divergence_warning`` telemetry event;
  with ``Budget(on_divergence="abort")`` they stop the solve.

A tripped budget raises :class:`SolveInterrupt` at the *boundary*, never
mid-round: the evaluator attaches its partial fixpoint state and the
solver (:mod:`repro.engine.solver`) turns it into a
``SolveResult`` with ``status != "complete"``, a sound partial model
(for monotonic programs every intermediate ``T_P`` iterate is a lower
bound in ⊑) and a resumable :class:`~repro.engine.checkpoint.Checkpoint`.

The default :data:`NULL_SUPERVISOR` is permanently inactive; unbudgeted
solves pay one attribute read per instrumentation site, mirroring the
``NULL_TRACER`` discipline of :mod:`repro.obs.tracer`.
"""

from __future__ import annotations

import math
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterator, List, Optional

from repro.datalog.errors import ReproError
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.util.limits import require

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.analysis.diagnostics import Diagnostic
    from repro.datalog.program import Program

#: ``SolveResult.status`` values a supervised solve can end with.
STATUSES = ("complete", "partial", "timeout", "cancelled", "diverging")

#: How often (in polls) the wall clock is read at rule-firing
#: boundaries; cancellation is checked on every poll.
_POLL_STRIDE = 32


class CancelToken:
    """A thread-safe, one-way cancellation flag.

    Any thread (or a signal handler, see :func:`sigint_cancels`) may call
    :meth:`cancel`; the evaluators poll :attr:`cancelled` at iteration
    and rule-firing boundaries and stop at the next safe point, leaving
    every :class:`~repro.engine.interpretation.Relation` and its indexes
    consistent.
    """

    __slots__ = ("_event", "reason")

    def __init__(self) -> None:
        self._event = threading.Event()
        self.reason: Optional[str] = None

    def cancel(self, reason: Optional[str] = None) -> None:
        """Request cancellation (idempotent; the first reason wins)."""
        if reason is not None and self.reason is None:
            self.reason = reason
        self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "cancelled" if self.cancelled else "armed"
        return f"<CancelToken {state}>"


@contextmanager
def sigint_cancels(token: CancelToken) -> Iterator[CancelToken]:
    """Route SIGINT *and* SIGTERM to ``token.cancel()`` for the block.

    The first Ctrl-C — or an orchestrator's SIGTERM at shutdown —
    cancels the token: the running solve stops at its next cooperative
    boundary with ``status="cancelled"`` and a checkpoint, instead of a
    ``KeyboardInterrupt`` unwinding through a half-applied index update
    (or a default SIGTERM kill tearing the process mid-mutation).  A
    second signal of either kind restores that signal's previous
    handler's behaviour (normally: raise / terminate), for solves that
    stopped polling.  Both previous handlers are restored on exit.
    Outside the main thread (where ``signal.signal`` is unavailable) the
    guard degrades to a no-op.
    """
    guarded = (signal.SIGINT, signal.SIGTERM)
    try:
        previous = {signum: signal.getsignal(signum) for signum in guarded}

        def _handler(signum: int, frame: Any) -> None:
            if token.cancelled:
                # Second signal: fall back to this signal's previous
                # handler (SIGINT: raise KeyboardInterrupt; SIGTERM:
                # terminate).
                earlier = previous[signum]
                signal.signal(signum, earlier)
                if callable(earlier):
                    earlier(signum, frame)
                elif earlier == signal.SIG_DFL and signum == signal.SIGTERM:
                    signal.raise_signal(signal.SIGTERM)
                return
            token.cancel(signal.Signals(signum).name)

        for signum in guarded:
            signal.signal(signum, _handler)
    except ValueError:  # pragma: no cover - non-main thread
        yield token
        return
    try:
        yield token
    finally:
        for signum in guarded:
            signal.signal(signum, previous[signum])


#: Consecutive suspicious rounds before a divergence heuristic trips.
_DIVERGENCE_WINDOW = 8
#: Per-round atom multiplication factor the growth alarm watches for.
_GROWTH_FACTOR = 2.0


@dataclass(frozen=True)
class Budget:
    """Resource limits for one solve.  ``None`` disables a limit.

    ``max_iterations`` counts fixpoint rounds *globally* across all
    components (under the greedy policy a cost-ordered slice is one
    round); exhausting a budget degrades gracefully into a partial
    ``SolveResult`` plus checkpoint.  ``max_atoms`` bounds the model
    size (derived atoms across the whole solve).  Which budget replaces
    the evaluators' hard ``max_iterations`` cap is the solver's rule
    (:func:`repro.engine.solver.solve`).
    """

    #: Wall-clock limit in seconds from solve start.
    timeout: Optional[float] = None
    #: Global fixpoint-round cap (graceful; status ``"partial"``).
    max_iterations: Optional[int] = None
    #: Total derived-atom cap across the solve.
    max_atoms: Optional[int] = None
    #: ``"warn"`` — emit MAD701/702 and keep going; ``"abort"`` — stop
    #: the solve with ``status="diverging"``.
    on_divergence: str = "warn"

    def __post_init__(self) -> None:
        if self.timeout is not None:
            require("timeout", self.timeout, "non-negative number")
        for name in ("max_iterations", "max_atoms"):
            if getattr(self, name) is not None:
                require(name, getattr(self, name), "positive integer")
        if self.on_divergence not in ("warn", "abort"):
            raise ValueError(
                f"on_divergence must be 'warn' or 'abort', "
                f"got {self.on_divergence!r}"
            )

    @property
    def bounded(self) -> bool:
        """True iff any hard limit is set."""
        return (
            self.timeout is not None
            or self.max_iterations is not None
            or self.max_atoms is not None
        )


class SolveInterrupt(ReproError):
    """Control-flow signal: a supervised solve must stop *now*.

    Raised by :meth:`Supervisor.poll` / :meth:`Supervisor.on_round` at a
    safe boundary.  The evaluator catching it on the way out attaches
    its partial fixpoint state (:meth:`attach`); the solver consumes it
    and never lets it escape to callers.
    """

    def __init__(
        self,
        status: str,
        reason: str,
        *,
        scc: Optional[int] = None,
        iteration: Optional[int] = None,
    ) -> None:
        assert status in STATUSES and status != "complete"
        self.status = status
        self.reason = reason
        self.scc = scc
        self.iteration = iteration
        #: Partial component state, attached by the interrupted evaluator.
        self.partial: Optional[Any] = None  # FixpointResult
        super().__init__(f"solve interrupted ({status}): {reason}")

    def attach(self, partial: Any) -> None:
        """Record the interrupted component's sound-so-far state."""
        if self.partial is None:
            self.partial = partial


def _lattice_unbounded(lattice: Any) -> bool:
    """Can ⊑-ascent on this lattice go on forever?  (No reachable top.)"""
    try:
        top = lattice.top
    except Exception:  # pragma: no cover - defensive
        return True
    return isinstance(top, float) and math.isinf(top)


def component_unbounded(program: "Program", cdb: Any) -> bool:
    """True iff some CDB predicate's cost domain has an unreachable top
    (the precondition of the cost-spiral heuristic)."""
    for predicate in cdb:
        decl = program.decl(predicate)
        if decl.is_cost_predicate and _lattice_unbounded(decl.lattice):
            return True
    return False


class Supervisor:
    """Cooperative resource governor for one solve.

    The solver binds one supervisor per solve and rebinds
    :attr:`base_atoms` / :attr:`watch_spiral` before each component; the
    evaluators call the two check methods:

    * :meth:`poll` — once per delta round and between kernel calls
      (per rule, per slice of a seed batch):
      cancellation on every call, the deadline every
      ``_POLL_STRIDE`` calls;
    * :meth:`on_round` — at iteration boundaries, with the round's delta
      statistics: all budgets plus the divergence heuristics.

    Both raise :class:`SolveInterrupt`; neither mutates engine state, so
    an interrupt between them always observes consistent relations.
    """

    __slots__ = (
        "active",
        "budget",
        "cancel",
        "tracer",
        "clock",
        "deadline",
        "started",
        "rounds",
        "base_atoms",
        "watch_spiral",
        "diagnostics",
        "_polls",
        "_spiral_run",
        "_revised",
        "_growth_run",
        "_last_total",
        "_warned",
    )

    def __init__(
        self,
        budget: Optional[Budget] = None,
        cancel: Optional[CancelToken] = None,
        *,
        tracer: Tracer = NULL_TRACER,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.budget = budget if budget is not None else Budget()
        self.cancel = cancel
        self.tracer = tracer
        self.clock = clock
        self.active = True
        self.started = clock()
        self.deadline = (
            self.started + self.budget.timeout
            if self.budget.timeout is not None
            else None
        )
        #: Global fixpoint rounds completed so far (all components).
        self.rounds = 0
        #: Atoms settled in components below the current one (set by the
        #: solver before each component).
        self.base_atoms = 0
        #: Whether the current component can cost-spiral (unbounded
        #: lattice present; set by the solver per component).
        self.watch_spiral = False
        #: Structured MAD7xx runtime diagnostics emitted so far.
        self.diagnostics: List["Diagnostic"] = []
        self._polls = 0
        self._spiral_run = self._revised = 0
        self._growth_run = 0
        self._last_total: Optional[int] = None
        self._warned: set = set()

    @classmethod
    def disabled(cls) -> "Supervisor":
        """A permanently-inactive supervisor (:data:`NULL_SUPERVISOR`)."""
        supervisor = cls()
        supervisor.active = False
        return supervisor

    # -- component lifecycle (called by the solver) ------------------------------

    def enter_component(
        self, *, base_atoms: int, watch_spiral: bool
    ) -> None:
        """Reset the per-component divergence trackers."""
        self.base_atoms = base_atoms
        self.watch_spiral = watch_spiral
        self._spiral_run = 0
        self._growth_run = 0
        self._last_total = None

    # -- cooperative checks ------------------------------------------------------

    def _check_cancel(
        self, scc: Optional[int], iteration: Optional[int]
    ) -> None:
        token = self.cancel
        if token is not None and token.cancelled:
            reason = token.reason or "cancelled by caller"
            if self.tracer.enabled:
                self.tracer.emit("cancelled", scc=scc, iteration=iteration)
                self.tracer.metrics.counter("supervisor.cancellations").inc()
            raise SolveInterrupt("cancelled", reason, scc=scc, iteration=iteration)

    def _check_deadline(
        self, scc: Optional[int], iteration: Optional[int]
    ) -> None:
        if self.deadline is not None and self.clock() > self.deadline:
            reason = f"wall-clock budget of {self.budget.timeout:g}s exhausted"
            self._emit_budget("timeout", self.budget.timeout, scc, iteration)
            raise SolveInterrupt("timeout", reason, scc=scc, iteration=iteration)

    def poll(
        self, scc: Optional[int] = None, iteration: Optional[int] = None
    ) -> None:
        """Cheap check between kernel calls (and once per delta round)."""
        if not self.active:
            return
        self._check_cancel(scc, iteration)
        self._polls += 1
        if self._polls % _POLL_STRIDE == 0:
            self._check_deadline(scc, iteration)

    def on_round(
        self,
        *,
        scc: int,
        iteration: int,
        new_atoms: int,
        changed_atoms: int,
        total_atoms: int,
    ) -> None:
        """Full budget + divergence check at an iteration boundary.

        ``total_atoms`` is the component's current atom count; the solve
        total adds :attr:`base_atoms`.  Raises :class:`SolveInterrupt`
        when a budget is exhausted or a divergence heuristic trips under
        ``on_divergence="abort"``.
        """
        if not self.active:
            return
        budget = self.budget
        self.rounds += 1
        self._check_cancel(scc, iteration)
        self._check_deadline(scc, iteration)
        solve_total = self.base_atoms + total_atoms
        for kind, limit, used, what in (
            ("iterations", budget.max_iterations, self.rounds, "fixpoint-round"),
            ("atoms", budget.max_atoms, solve_total, "derived-atom"),
        ):
            if limit is not None and used >= limit:
                self._emit_budget(kind, limit, scc, iteration)
                held = f" ({solve_total} atoms)" if kind == "atoms" else ""
                raise SolveInterrupt(
                    "partial",
                    f"{what} budget of {limit} exhausted{held}",
                    scc=scc,
                    iteration=iteration,
                )
        self._track_divergence(scc, iteration, new_atoms, changed_atoms, total_atoms)

    # -- divergence heuristics ---------------------------------------------------

    def _track_divergence(
        self,
        scc: int,
        iteration: int,
        new_atoms: int,
        changed_atoms: int,
        total_atoms: int,
    ) -> None:
        # Cost spiral: rounds that only revise existing costs, on a
        # component whose lattice admits unbounded ⊑-ascent; a round that
        # revises fewer than the run's first restarts it (converging tails).
        if not (self.watch_spiral and changed_atoms > 0 and new_atoms == 0):
            self._spiral_run = 0
        elif self._spiral_run and changed_atoms >= self._revised:
            self._spiral_run += 1
        else:
            self._spiral_run, self._revised = 1, changed_atoms
        if self._spiral_run >= _DIVERGENCE_WINDOW:
            self._flag(
                "cost-spiral",
                scc,
                iteration,
                f"{self._spiral_run} consecutive rounds revised existing "
                f"costs without deriving new atoms on an unbounded cost "
                f"domain — the chain may ascend forever (Example 5.1)",
            )
            self._spiral_run = 0  # re-arm: warn once per window
        # Atom-growth alarm: geometric blow-up of the component's model.
        last = self._last_total
        self._last_total = total_atoms
        if (
            last is not None
            and last >= 64
            and total_atoms >= _GROWTH_FACTOR * last
        ):
            self._growth_run += 1
        else:
            self._growth_run = 0
        if self._growth_run >= _DIVERGENCE_WINDOW:
            self._flag(
                "atom-growth",
                scc,
                iteration,
                f"atom count multiplied by ≥{_GROWTH_FACTOR:g} "
                f"for {self._growth_run} consecutive rounds "
                f"({total_atoms} atoms and climbing)",
            )
            self._growth_run = 0

    def _flag(
        self, slug: str, scc: int, iteration: int, detail: str
    ) -> None:
        """Record one divergence finding; abort when the budget says so."""
        from repro.analysis.diagnostics import make_diagnostic

        diagnostic = make_diagnostic(
            slug, f"component {scc}, round {iteration}: {detail}"
        )
        if slug not in self._warned:
            self._warned.add(slug)
            self.diagnostics.append(diagnostic)
        if self.tracer.enabled:
            self.tracer.emit(
                "divergence_warning",
                code=diagnostic.code,
                scc=scc,
                iteration=iteration,
                detail=detail,
            )
            self.tracer.metrics.counter("supervisor.divergence_warnings").inc()
        if self.budget.on_divergence == "abort":
            raise SolveInterrupt(
                "diverging",
                f"{diagnostic.code} {slug}: {detail}",
                scc=scc,
                iteration=iteration,
            )

    # -- telemetry ---------------------------------------------------------------

    def _emit_budget(
        self,
        kind: str,
        limit: Optional[float],
        scc: Optional[int],
        iteration: Optional[int],
    ) -> None:
        if self.tracer.enabled:
            self.tracer.emit(
                "budget_exceeded",
                kind=kind,
                limit=limit,
                scc=scc,
                iteration=iteration,
            )
            self.tracer.metrics.counter("supervisor.budget_trips").inc()


#: The shared inactive supervisor — the engine default; unbudgeted hot
#: loops pay one ``supervisor.active`` attribute read per site.
NULL_SUPERVISOR = Supervisor.disabled()
