"""The classic well-founded semantics for *normal* programs (no
aggregates), via Van Gelder's alternating fixpoint [19].

This is the substrate for the Section 5.4 comparison: the
Ganguly–Greco–Zaniolo approach rewrites min/max aggregates into negation
(:mod:`repro.semantics.extrema_rewrite`) and takes the well-founded model
of the rewritten *normal* program as the semantics.

The alternating fixpoint: ``S(I)`` is the least fixpoint of the positive
immediate-consequence operator with negated subgoals evaluated against the
fixed oracle ``I``.  Iterating ``I_{k+1} = S(I_k)`` from ``I_0 = ∅`` makes
the even iterates an increasing chain of *surely-true* sets and the odd
iterates a decreasing chain of *possibly-true* sets; at the (finite, for
function-free range-restricted programs) limit, WF-true = lfp of ``S∘S``
and WF-undefined = possible \\ true.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional

from repro.datalog.errors import NonTerminationError, ProgramError
from repro.datalog.program import Program
from repro.engine.grounding import EvalContext, evaluate_body, ground_head
from repro.engine.interpretation import Interpretation
from repro.semantics.threevalued import GroundKey, ThreeValuedModel


def _assert_normal(program: Program) -> None:
    for rule in program.rules:
        if any(True for _ in rule.aggregate_subgoals()):
            raise ProgramError(
                "the classic well-founded semantics handles normal programs "
                "only; rewrite aggregates first (semantics.extrema_rewrite)"
            )


def _positive_fixpoint(
    program: Program,
    cdb: FrozenSet[str],
    edb: Interpretation,
    oracle: Interpretation,
    *,
    max_rounds: int,
) -> Interpretation:
    """lfp of the positive operator with negation fixed to ``oracle``.

    Set-based (inflationary) iteration: normal programs have no cost
    columns to reconcile, so atoms simply accumulate.
    """
    j = Interpretation(program.declarations)
    for _ in range(max_rounds):
        ctx = EvalContext(
            program, cdb, j, edb, negation_source=oracle
        )
        changed = False
        derived = []
        for rule in program.rules:
            for bindings in evaluate_body(rule, ctx):
                derived.append(ground_head(rule, bindings))
        for predicate, args in derived:
            rel = j.relation(predicate)
            if rel.is_cost:
                raise ProgramError(
                    "normal-program evaluation expects ordinary predicates; "
                    f"{predicate} is declared as a cost predicate"
                )
            if rel.join_rows([args]):
                changed = True
        if not changed:
            return j
    raise NonTerminationError(
        f"positive fixpoint did not converge in {max_rounds} rounds"
    )


def alternating_fixpoint(
    program: Program,
    edb: Interpretation,
    *,
    max_alternations: int = 1_000,
    max_rounds: int = 100_000,
) -> ThreeValuedModel:
    """The well-founded model of a normal program.

    Returns the WF-true atoms as an interpretation and the WF-undefined
    atoms (possible-but-not-true) as ground keys.
    """
    _assert_normal(program)
    cdb = program.idb_predicates

    def s(oracle: Interpretation) -> Interpretation:
        out = _positive_fixpoint(
            program, cdb, edb, oracle.join(edb), max_rounds=max_rounds
        )
        return out

    # I_0 = ∅ (everything assumed false), I_1 = S(I_0) over-derives, ...
    current = Interpretation(program.declarations)
    history: List[Interpretation] = [current]
    for _ in range(max_alternations):
        nxt = s(current)
        history.append(nxt)
        if len(history) >= 3 and history[-1] == history[-3]:
            # Converged: even iterate = true set, odd iterate = possible set.
            even, odd = history[-1], history[-2]
            if even.total_size() > odd.total_size():
                even, odd = odd, even
            true = even
            undefined: set[GroundKey] = set()
            for name, rel in odd.relations.items():
                true_rel = true.relation(name)
                for key in rel.tuples - true_rel.tuples:
                    undefined.add((name, key))
            return ThreeValuedModel(true=true.join(edb), undefined=undefined)
        current = nxt
    raise NonTerminationError(
        f"alternating fixpoint did not converge in {max_alternations} "
        f"alternations"
    )
