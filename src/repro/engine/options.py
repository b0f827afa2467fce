"""What a solve computes: the one :class:`SolveOptions`, validated once.

Every front door forwards its options here and declares none itself, so
a value is checked, and its allowed set spelled out, in this module only.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

from repro.datalog.errors import ReproError
from repro.engine.exec import PLAN_MODES
from repro.util.limits import require

#: field → its allowed values, for the fields that take one of a set.
CHOICES = {
    "check": ("strict", "lenient", "none"),
    "method": ("naive", "seminaive", "greedy", "auto"),
    # The executor's join-ordering modes, plus the solver-level strategy.
    "plan": PLAN_MODES + ("sharded",),
    "pushdown": ("auto", "off"),
}


class OptionError(ReproError, ValueError):
    """A solve option holds a value outside its allowed set."""


@dataclass(frozen=True, slots=True)
class SolveOptions:
    """The seven "what to compute" settings of one solve.

    ==================  =============================  ==========  ==================
    field               values                         default     set through
    ==================  =============================  ==========  ==================
    ``check``           ``strict`` ``lenient``         ``strict``  library, CLI
                        ``none``
    ``method``          ``naive`` ``seminaive``        ``naive``   library, CLI,
                        ``greedy`` ``auto``                        REPL, serve request
    ``max_iterations``  positive int                   100,000     library, CLI
    ``plan``            ``smart`` ``off`` ``sharded``  ``smart``   library, CLI,
                                                                   serve request
    ``pushdown``        ``auto`` ``off``               ``auto``    library, CLI
    ``shards``          positive int or ``None``       ``None``    library, CLI
    ``workers``         positive int or ``None``       ``None``    library, CLI
    ==================  =============================  ==========  ==================

    "library" is the keyword arguments of ``solve`` / ``Database.solve``
    / ``Database.resume`` / ``solve_program``; "CLI" is the like-named
    flag of ``repro solve | profile | explain | metrics`` (README,
    "Solving", has the per-command defaults).

    ``check`` — ``strict`` refuses programs that fail range-restriction
    or per-component admissibility, so the least fixpoint is guaranteed
    to be the unique minimal model (Lemma 4.1 + Corollary 3.5);
    ``lenient`` skips the admissibility gate but keeps runtime
    cost-consistency checking and oscillation detection (used to
    demonstrate the paper's negative examples); ``none`` runs no static
    check at all (benchmarks of the checks themselves).  The checks
    always run against the *original* program.

    ``method`` — the fixpoint driver; ``auto`` picks one *per component*
    from the classification pass (:mod:`repro.analysis.classify`): greedy
    for certified-extremal components, semi-naive for the other
    certified ones, strict naive for anything needing well-founded care.

    ``max_iterations`` — the evaluators' hard cap per component; past it
    they raise ``NonTerminationError`` (a ``Budget`` stops gracefully).

    ``plan`` — ``smart`` orders joins by selectivity
    (:mod:`repro.engine.exec`); ``off`` keeps the written schedule order.
    ``sharded`` additionally hash-partitions every component the
    shard-safety analyzer (:mod:`repro.analysis.sharding`) certifies
    SHARDABLE across ``workers`` OS processes (default: the CPU count)
    and ``shards`` partitions (default: ``max(8, 4 * workers)``), falling
    back to sequential evaluation — with a ``shard_plan`` telemetry event
    naming the lint-consistent reason — for BLOCKED components,
    supervised or resumed solves; join ordering stays ``smart``.

    ``pushdown`` — with ``auto``, premappable extrema are pushed into
    their recursion (:mod:`repro.analysis.premap`): the fixpoint carries
    a collapsed per-group frontier instead of the full interior relation
    and the auxiliary predicates are stripped from the final model, which
    is provably identical to the unoptimised one.  ``off`` evaluates the
    program exactly as written.

    ``plan="off"`` and ``pushdown="off"`` select no faster path and no
    workload sets them; they remain because they are the reference side
    of the differential suites (``tests/test_seminaive_batches.py``,
    ``tests/test_exec.py``, ``tests/test_pushdown_equivalence.py``).
    """

    check: str = "strict"
    method: str = "naive"
    max_iterations: int = 100_000
    plan: str = "smart"
    pushdown: str = "auto"
    shards: Optional[int] = None
    workers: Optional[int] = None

    def __post_init__(self) -> None:
        for name, allowed in CHOICES.items():
            value = getattr(self, name)
            if value not in allowed:
                raise OptionError(
                    f"unknown {name} {value!r}; expected one of {allowed}"
                )
        for name in ("max_iterations", "shards", "workers"):
            value = getattr(self, name)
            if value is not None or name == "max_iterations":
                require(name, value, "positive integer", OptionError)

    @property
    def exec_plan(self) -> str:
        """The executor's join-ordering mode: sharding is a solver-level
        strategy, under which join ordering stays ``smart``."""
        return "smart" if self.plan == "sharded" else self.plan

    @property
    def worker_count(self) -> int:
        return self.workers if self.workers is not None else os.cpu_count() or 1

    @property
    def shard_count(self) -> int:
        if self.shards is not None:
            return self.shards
        return max(8, 4 * self.worker_count)
