"""One-call static analysis: the full pipeline of the paper's conditions.

``analyze_program(program)`` forces every entry of the run's
:class:`repro.analysis.facts.ProgramFacts`: range-restriction (Definition
2.5), cost-respecting (2.7), conflict-freedom (2.10, Lemma 2.3),
admissibility per component (4.5, Lemma 4.1), r-monotonicity (Section
5.2), lattice typing and the per-component classification, shard safety,
premappability, and the linter's diagnostics.  That object is the report:
it holds the verdicts and renders as ``repro analyze`` prints it.
``solve()`` does not come through here; it reads only what it gates on.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.diagnostics import Linter, lint_program
from repro.analysis.facts import ProgramFacts
from repro.datalog.program import Program

#: The order the entries are forced in: the first pass to raise is the
#: error the caller sees.
_ORDER = (
    "safety", "cost_respecting", "conflict", "admissibility",
    "r_monotonic_reports", "typing", "classification", "sharding",
    "premappability",
)  # fmt: skip


def analyze_program(
    program: Program,
    *,
    linter: "Linter | None" = None,
    facts: Optional[ProgramFacts] = None,
) -> ProgramFacts:
    """Run the full static pipeline on ``program``.

    Every pass runs once, on one :class:`ProgramFacts`, and ``linter``
    (the default one when ``None``) reads the same results into
    ``diagnostics``.  ``facts`` is the internal hand-off for a caller
    that already holds them; it must be ``ProgramFacts(program)``.
    """
    if facts is None:
        facts = ProgramFacts(program)
    for name in _ORDER:
        getattr(facts, name)
    facts.diagnostics = lint_program(program, linter=linter, facts=facts)
    return facts
