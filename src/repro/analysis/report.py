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

from repro.analysis.facts import ProgramFacts
from repro.datalog.program import Program

#: The order the entries are forced in: the first pass to raise is the
#: error the caller sees; the default linter's diagnostics come last.
_ORDER = (
    "safety", "cost_respecting", "conflict", "admissibility",
    "r_monotonic_reports", "typing", "classification", "sharding",
    "premappability", "diagnostics",
)  # fmt: skip


def analyze_program(program: Program) -> ProgramFacts:
    """Run the full static pipeline on ``program``: every pass runs once,
    on one :class:`ProgramFacts`, and the default linter reads the same
    results into its ``diagnostics``."""
    facts = ProgramFacts(program)
    for name in _ORDER:
        getattr(facts, name)
    return facts
