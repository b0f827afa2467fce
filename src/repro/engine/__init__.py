"""Evaluation engine: interpretations, ``T_P`` and its one fixpoint loop.

The loop is :func:`repro.engine.fixpoint.fixpoint` (not re-exported
here, where the name is its module's); :func:`solve` runs it per
component.

Robustness layer (docs/ROBUSTNESS.md): :class:`Budget`,
:class:`CancelToken` and :func:`sigint_cancels` supervise a solve;
:class:`Checkpoint` captures the sound partial model of an interrupted
run for ``solve(resume=...)``.
"""

from repro.engine.checkpoint import Checkpoint, CheckpointError
from repro.engine.grounding import (
    Bindings,
    EvalContext,
    evaluate_body,
    ground_head,
    schedule,
    solve_conjunction,
)
from repro.engine.fixpoint import FixpointResult, apply_tp
from repro.engine.greedy import greedy_applicable, greedy_fixpoint
from repro.engine.interpretation import Interpretation, Key, Relation
from repro.engine.magic import MagicProgram, MagicStats, magic_solve, magic_transform
from repro.engine.modelcheck import is_model, is_premodel, violations
from repro.engine.solver import SolveResult, solve
from repro.engine.provenance import Justification, explain, justifications
from repro.engine.supervisor import (
    Budget,
    CancelToken,
    SolveInterrupt,
    Supervisor,
    sigint_cancels,
)

__all__ = [
    "Budget",
    "CancelToken",
    "Checkpoint",
    "CheckpointError",
    "SolveInterrupt",
    "Supervisor",
    "sigint_cancels",
    "Bindings",
    "EvalContext",
    "evaluate_body",
    "ground_head",
    "schedule",
    "solve_conjunction",
    "Interpretation",
    "Key",
    "Relation",
    "greedy_applicable",
    "greedy_fixpoint",
    "MagicProgram",
    "MagicStats",
    "magic_solve",
    "magic_transform",
    "is_model",
    "is_premodel",
    "violations",
    "FixpointResult",
    "SolveResult",
    "solve",
    "Justification",
    "explain",
    "justifications",
    "apply_tp",
]
