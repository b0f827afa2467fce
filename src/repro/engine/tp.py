"""The immediate consequence operator ``T_P(J, I)`` (Definition 3.7).

``T_P(J, I)`` is one *simultaneous* application of every rule of the
component to the current CDB interpretation ``J`` and the fixed
lower-component interpretation ``I``, joined with ``J_∅`` (the
interpretation giving default values to all instances of default-value
cost predicates).  ``J_∅``'s contribution is implicit here: cores never
store default values, and lookups fall back to the default
(:class:`~repro.engine.interpretation.Relation`).

The runtime cost-consistency check lives here: two rule instances deriving
atoms that differ only in the cost argument raise
:class:`~repro.datalog.errors.CostConsistencyError`, per the paper's
standing assumption that components are cost consistent.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional

from repro.datalog.program import Program
from repro.datalog.rules import Rule
from repro.engine.exec import run_rule
from repro.engine.grounding import EvalContext
from repro.engine.interpretation import Interpretation
from repro.engine.supervisor import NULL_SUPERVISOR, Supervisor
from repro.obs.tracer import NULL_TRACER, Tracer


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
    """One application of ``T_P`` for the component with head set ``cdb``.

    ``rules`` defaults to every program rule whose head predicate is in
    ``cdb``.  With ``strict=False`` conflicting cost derivations are
    joined instead of raising (used by the semi-naive evaluator, which is
    only sound for monotonic programs anyway).  ``negation_source`` /
    ``aggregate_source`` fix those subgoal kinds to an oracle
    interpretation (reducts, Sections 5.3–5.5).  Rule bodies run through
    the compiled execution layer (:mod:`repro.engine.exec`); ``plan``
    selects the join-ordering mode (``"smart"`` | ``"off"``).

    An active ``supervisor`` is polled between rules (a rule-firing
    boundary): the staging interpretation ``out`` is discarded on
    interrupt, so ``j`` and ``i`` are never observed half-updated.
    """
    if rules is None:
        rules = [r for r in program.rules if r.head.predicate in cdb]
    ctx = EvalContext(
        program,
        cdb,
        j,
        i,
        negation_source=negation_source,
        aggregate_source=aggregate_source,
        tracer=tracer,
    )
    out = Interpretation(program.declarations)
    check = supervisor.active
    for rule in rules:
        if check:
            supervisor.poll(scc)
        rows = run_rule(rule, ctx, mode=plan)
        if rows:
            out.relation(rule.head.predicate).join_rows(rows, strict=strict)
    return out
