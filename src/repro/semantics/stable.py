"""Stable models with aggregates (Sections 5.3 and 5.5).

**Kemp–Stuckey stable models.**  Aggregate subgoals are treated like
negative subgoals: the reduct of ``P`` with respect to a candidate ``M``
evaluates aggregates (and negation) against ``M``, leaving a positive
program whose least fixpoint must reproduce ``M`` exactly.  As the paper
shows, this admits *multiple incomparable* stable models — the two models
of Example 3.1 are both stable — while the monotonic semantics selects
the ⊑-least one.

**The Section 5.5 alternative.**  Reduce *negation only*; the residual
program keeps its aggregates.  If the residual is monotonic and ``M`` is
its unique minimal model, call ``M`` alternative-stable.  For monotonic
programs without negation the residual is the program itself, so the
alternative-stable model is exactly our unique minimal model — the
agreement the paper claims.

Enumeration is provided for small instances (it is exponential by
nature): ordinary predicates range over subsets of their possible keys,
and cost predicates over caller-supplied candidate value sets per key.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.datalog.errors import (
    CostConsistencyError,
    NonTerminationError,
    ReproError,
)
from repro.datalog.program import Program
from repro.engine.interpretation import Interpretation, Key
from repro.engine.solver import solve
from repro.engine.fixpoint import apply_tp
from repro.semantics.threevalued import GroundKey
from repro.semantics.wellfounded_agg import possible_keys


def reduct_least_model(
    program: Program,
    edb: Interpretation,
    candidate: Interpretation,
    *,
    max_rounds: int = 100_000,
) -> Optional[Interpretation]:
    """Least model of the KS reduct of ``program`` w.r.t. ``candidate``.

    Aggregates and negation read the fixed ``candidate ⊔ edb``; positive
    atoms read the growing set.  Returns None when the positive fixpoint
    violates a cost functional dependency (then no interpretation is the
    least model, so the candidate is certainly not stable).
    """
    oracle = candidate.join(edb)
    idb = program.idb_predicates
    j = Interpretation(program.declarations)
    for _ in range(max_rounds):
        try:
            derived = apply_tp(
                program,
                idb,
                j,
                edb,
                strict=True,
                negation_source=oracle,
                aggregate_source=oracle,
            )
        except CostConsistencyError:
            return None
        # Accumulate with strict FD checking.
        changed = False
        try:
            for name, rel in derived.relations.items():
                if j.relation(name).join_rows(list(rel.rows()), strict=True):
                    changed = True
        except CostConsistencyError:
            return None
        if not changed:
            return j
    raise NonTerminationError(
        f"reduct fixpoint did not converge in {max_rounds} rounds"
    )


def is_stable_model(
    program: Program,
    edb: Interpretation,
    candidate: Interpretation,
    *,
    max_rounds: int = 100_000,
) -> bool:
    """Is ``candidate`` (IDB atoms only) a KS stable model?"""
    least = reduct_least_model(program, edb, candidate, max_rounds=max_rounds)
    return least is not None and least == candidate


def enumerate_stable_models(
    program: Program,
    edb: Interpretation,
    *,
    cost_candidates: Optional[Dict[GroundKey, Sequence[Any]]] = None,
    max_keys: int = 16,
    max_rounds: int = 100_000,
) -> List[Interpretation]:
    """Brute-force KS stable models over the possible-key universe.

    Ordinary IDB keys are in or out; cost IDB keys take one of their
    ``cost_candidates`` values or are absent.  Guarded by ``max_keys``
    because the search is exponential — the paper's multi-stable-model
    demonstrations are tiny by design.
    """
    cost_candidates = cost_candidates or {}
    possible = possible_keys(program, edb)
    idb = program.idb_predicates

    choices: List[List[Tuple[str, Key, Any]]] = []
    n_keys = 0
    for name in sorted(idb):
        decl = program.decl(name)
        for key in sorted(possible.keys.get(name, ()), key=repr):
            n_keys += 1
            if decl.is_cost_predicate:
                values = list(cost_candidates.get((name, key), ()))
                options: List[Tuple[str, Key, Any]] = [(name, key, _ABSENT)]
                options += [(name, key, v) for v in values]
                choices.append(options)
            else:
                choices.append([(name, key, _ABSENT), (name, key, _PRESENT)])
    if n_keys > max_keys:
        raise ReproError(
            f"stable-model enumeration over {n_keys} keys exceeds "
            f"max_keys={max_keys} (the search is exponential)"
        )

    models: List[Interpretation] = []
    for combo in itertools.product(*choices):
        candidate = Interpretation(program.declarations)
        for name, key, value in combo:
            if value is _ABSENT:
                continue
            rel = candidate.relation(name)
            if rel.is_cost:
                rel.set_cost(key, value)
            else:
                rel.add_tuple(key)
        if is_stable_model(program, edb, candidate, max_rounds=max_rounds):
            models.append(candidate)
    return models


_ABSENT = object()
_PRESENT = object()


def alternative_stable_model(
    program: Program,
    edb: Interpretation,
    candidate: Optional[Interpretation] = None,
    *,
    max_iterations: int = 100_000,
) -> Optional[Interpretation]:
    """The Section 5.5 alternative stable semantics.

    Without negation the residual program is ``program`` itself, so the
    unique alternative-stable model is the minimal model (returned
    directly; ``candidate`` is ignored).  With negation, the reduct keeps
    aggregates and drops negation according to ``candidate``; the
    candidate is alternative-stable iff it equals the residual's minimal
    model — returns the candidate on success, None on failure.
    """
    has_negation = any(
        True for rule in program.rules for _ in rule.negative_atom_subgoals()
    )
    if not has_negation:
        return solve(
            program, edb, check="lenient", max_iterations=max_iterations
        ).model

    if candidate is None:
        raise ReproError(
            "programs with negation need an explicit candidate model"
        )
    # Reducing negation only (and keeping the aggregates live) is
    # equivalent to computing the least fixpoint with negated subgoals
    # pinned to the candidate while aggregates read the growing model —
    # the residual program of Section 5.5 without materialising it.
    oracle = candidate.join(edb)
    idb = program.idb_predicates
    j = Interpretation(program.declarations)
    for _ in range(max_iterations):
        j_next = apply_tp(
            program, idb, j, edb, strict=True, negation_source=oracle
        )
        if j_next == j:
            break
        j = j_next
    else:
        raise NonTerminationError("residual fixpoint did not converge")
    return candidate if j == candidate else None
