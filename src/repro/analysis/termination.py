"""Termination of bottom-up evaluation (Section 6.2).

Safety guarantees finiteness of each ``T_P`` application, not of the
iteration: the ascending chain may be infinite when cost values can climb
forever (halfsum, Example 5.1).  Section 6.2 gives sufficient conditions
for termination, implemented here per component:

* **finite lattices** — the chain of interpretations over finitely many
  keys (Lemma 2.2) and finitely many values must close;
* **well-founded ascending order on the reachable values** — for
  function-free programs whose cost arithmetic cannot ascend forever:
  integers under the ``min`` order (⊑-ascending = numerically descending,
  bounded below by the derivations' own positivity is *not* needed — the
  paper's condition is that ⊒ be well-founded, true for ``N`` with ≥ and
  for any chain with no infinite ascending sequences between the bottom
  and the values that occur).

The check is a *sufficient* classifier with three verdicts:

* ``TERMINATES`` — one of the conditions applies;
* ``UNKNOWN`` — no condition applies (the program may still terminate on
  a given extension, as most do);
* it never claims non-termination — that is undecidable in general.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional

from repro.analysis.admissible import check_component_admissible
from repro.analysis.dependencies import Component
from repro.datalog.program import Program
from repro.lattices.base import Lattice
from repro.lattices.boolean import BooleanAnd, BooleanOr
from repro.lattices.combinators import FiniteChain, FlatLattice, ProductLattice
from repro.lattices.sets import EdgeMultisets, PowersetIntersection, PowersetUnion


class TerminationVerdict(enum.Enum):
    TERMINATES = "terminates"
    UNKNOWN = "unknown"


def _is_finite(lattice: Lattice) -> bool:
    """Finitely many elements (hence finite ascending chains)."""
    if isinstance(lattice, (BooleanAnd, BooleanOr, FiniteChain, FlatLattice)):
        return True
    if isinstance(lattice, (PowersetUnion, PowersetIntersection)):
        return True  # fixed finite universe
    if isinstance(lattice, EdgeMultisets):
        return True  # capped multiplicity over a finite universe
    if isinstance(lattice, ProductLattice):
        return all(_is_finite(f) for f in lattice.factors)
    return False


def _ascending_chains_finite(lattice: Lattice) -> bool:
    """No infinite ⊑-ascending chains from any starting value that occurs.

    * ``(N ∪ {∞}, ≥)`` — numerically descending chains of naturals are
      finite... but our Naturals lattice is ≤-ordered (count's range):
      ascending = numerically increasing = infinite.  NOT chain-finite.
    * ``DescendingReals`` restricted to integers: ⊑-ascending means
      numerically strictly decreasing; over the *integers bounded below
      by some value reachable from the data* that is finite — but the
      reals are dense, so in general it is not.  We therefore only accept
      lattices that are outright finite, plus integer min-style chains
      when the program's arithmetic preserves integrality, which we
      cannot see statically — so the numeric case stays UNKNOWN and the
      engine's runtime budget takes over.
    """
    return _is_finite(lattice)


@dataclass
class TerminationReport:
    component: Component
    verdict: TerminationVerdict
    reason: str

    def __str__(self) -> str:
        return f"{self.component}: {self.verdict.value} ({self.reason})"


def check_component_termination(
    component: Component,
    program: Program,
    *,
    admissible: Optional[bool] = None,
) -> TerminationReport:
    """Section 6.2's sufficient conditions for one component.

    Both conditions presuppose a *monotonic* component — only then is the
    Kleene sequence an ascending chain that a finite value space forces
    to close.  A non-monotonic component may oscillate forever over a
    finite atom space (the two-minimal-models program does), so
    non-admissible components are UNKNOWN regardless of their lattices.
    ``admissible`` is the component's Definition 4.5 verdict when the
    caller already holds it.
    """
    if admissible is None:
        admissible = check_component_admissible(component, program).ok
    if not admissible:
        return TerminationReport(
            component,
            TerminationVerdict.UNKNOWN,
            "component not certified monotonic: the iteration may "
            "oscillate rather than ascend",
        )

    lattices: List[Lattice] = []
    for predicate in component.cdb:
        decl = program.decl(predicate)
        if decl.is_cost_predicate:
            assert decl.lattice is not None
            lattices.append(decl.lattice)

    if not lattices:
        return TerminationReport(
            component,
            TerminationVerdict.TERMINATES,
            "no cost predicates: a plain Datalog component over the finite "
            "active domain (Lemma 2.2)",
        )
    if all(_ascending_chains_finite(lat) for lat in lattices):
        return TerminationReport(
            component,
            TerminationVerdict.TERMINATES,
            "all cost lattices are finite: the ascending chain over "
            "finitely many keys and values must close",
        )
    return TerminationReport(
        component,
        TerminationVerdict.UNKNOWN,
        "cost values range over an infinite domain; termination depends on "
        "the extension (cf. Example 5.1) — rely on the iteration budget",
    )
