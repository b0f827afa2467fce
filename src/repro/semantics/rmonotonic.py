"""Bottom-up evaluation for r-monotonic programs (Section 5.2).

Mumick et al. do not treat aggregated values specially: relations are
plain growing *sets* of tuples (cost columns are ordinary columns), and
the fixpoint is inflationary — ``J_{k+1} = J_k ∪ T(J_k)``.  Earlier
deductions are never revisited, which is exactly why an r-monotonic rule
may not expose an aggregate's value in its head.

``rmonotonic_fixpoint`` runs that semantics: the program's cost
declarations are demoted to ordinary declarations, aggregates are
evaluated over the current (growing) set, and derived atoms accumulate.
For programs that *are* r-monotonic this converges to the intended model
(tested against the monotonic engine on the combined company-control
formulation); on non-r-monotonic programs it happily produces the "stale
aggregates" artifacts the paper warns about — which the comparison bench
shows off.
"""

from __future__ import annotations

from repro.datalog.errors import NonTerminationError
from repro.datalog.program import PredicateDecl, Program
from repro.engine.interpretation import Interpretation
from repro.engine.fixpoint import apply_tp


def demote_cost_declarations(program: Program) -> Program:
    """The same program with every cost predicate made ordinary."""
    decls = [
        PredicateDecl(d.name, d.arity) if d.is_cost_predicate else d
        for d in program.declarations.values()
    ]
    return Program(
        rules=program.rules,
        declarations=decls,
        constraints=program.constraints,
        aggregates=dict(program.aggregates),
        name=f"{program.name}-sets",
    )


def rmonotonic_fixpoint(
    program: Program,
    edb: Interpretation,
    *,
    max_rounds: int = 100_000,
) -> Interpretation:
    """Inflationary set-based fixpoint (the Mumick et al. semantics)."""
    sets_program = demote_cost_declarations(program)
    sets_edb = Interpretation(sets_program.declarations)
    for name, rel in edb.relations.items():
        target = sets_edb.relation(name)
        if rel.is_cost:
            target.merge_tuples(
                {key + (value,) for key, value in rel.costs.items()}
            )
        else:
            target.merge_tuples(rel.tuples)
    idb = sets_program.idb_predicates
    j = Interpretation(sets_program.declarations)
    for _ in range(max_rounds):
        derived = apply_tp(sets_program, idb, j, sets_edb, strict=True)
        changed = False
        for name, rel in derived.relations.items():
            if j.relation(name).join_rows(list(rel.rows()), strict=True):
                changed = True
        if not changed:
            return j
    raise NonTerminationError(
        f"r-monotonic fixpoint did not converge in {max_rounds} rounds"
    )
