"""One property over generated programs: every configuration computes
the one least model.

Cor. 3.5 makes the least fixpoint of ``T_P`` the unique minimal model,
so every ``method`` × ``plan`` × ``pushdown`` must return it, row for
row and type for type (Zaniolo et al.'s PreM result says the same of the
pushdown rewrite).  Each component's semi-naive and cost-ordered runs
must be the tuple-at-a-time reference's (``tests/reference_eval.py``):
the same ``J``, round and slice counts, row order under ``plan="off"``,
and one firing per distinct seed.  Programs come from
:func:`tests.generate.programs`; hand-written templates are
``@example``\\ s.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, event, example, given, settings

from repro.analysis.dependencies import condense
from repro.engine.exec import get_pushdown
from repro.engine.greedy import greedy_applicable
from repro.programs import circuit, company_control, company_control_r_monotonic
from repro.programs import party_invitations, shortest_path, student_averages
from repro.workloads import random_circuit, random_digraph, random_ownership, random_party
from tests.conftest import examples
from tests.generate import BRAIDED, BRAIDED_MAX, BRAIDED_MIN, MAX_PROGRAM, MIN_PROGRAM
from tests.generate import WIDE_PROGRAM, case, programs
from tests.reference_eval import assert_configurations_agree, assert_drivers_match_reference

#: PR 23's instance: a negative arc, no negative cycle.
NEGATIVE_ARC = [("a", "b", 2), ("a", "c", 3), ("c", "b", -2), ("b", "d", 1)]
ARCS = [(0, 1, 4.0), (1, 2, 1.0), (2, 0, 2.0), (0, 2, 7.0), (2, 3, 1.0), (3, 1, 5.0)]
DAG = [(0, 1, 4.0), (1, 2, 1.0), (0, 2, 7.0), (2, 3, 1.0), (1, 3, 5.0)]
BRAID = {"e": [(0, 1), (1, 0.5), (2, 2)], "f": [(0, 1), (1, 2), (2, 0)], "g": [(1, 0), (2, 1)]}
RECORDS = [("s", "c", 3.0), ("s", "d", 2.0), ("t", "c", 1.0)]
#: 0 controls 2 and 1 in one round, and so owns 0.3, 0.1 and 0.2 of 3:
#: added in derivation order, that is 0.6000000000000001 under naive
#: evaluation and 0.6 under semi-naive.
TENTHS = [(0, 2, 0.6), (0, 1, 0.6), (0, 3, 0.3), (1, 3, 0.1), (2, 3, 0.2)]
KNOWS, REQUIRES = random_party(8, seed=0)
GATES = random_circuit(8, seed=0, feedback_fraction=0.3)
@settings(max_examples=examples(120), deadline=None, suppress_health_check=[HealthCheck.too_slow])
@example(case(shortest_path.source, arc=random_digraph(6, seed=0)))
@example(case(shortest_path.source, arc=NEGATIVE_ARC))
@example(case(company_control.source, s=random_ownership(6, seed=0)))
@example(case(company_control_r_monotonic.source, s=random_ownership(5, seed=1)))
@example(case(company_control.source, s=TENTHS))
@example(case(party_invitations.source, knows=KNOWS, requires=list(REQUIRES.items())))
@example(case(circuit.source, gate=GATES.gates, connect=GATES.connects, input=GATES.inputs))
@example(case(student_averages.source, record=RECORDS, courses=[("c",), ("e",)]))
@example(case(MIN_PROGRAM, arc=ARCS))
@example(case(WIDE_PROGRAM, arc=ARCS))
@example(case(MAX_PROGRAM, arc=DAG))
@example(case(BRAIDED, True, **BRAID))
@example(case(BRAIDED_MIN, True, **BRAID))
@example(case(BRAIDED_MAX, True, **BRAID))
@given(programs())
def test_every_configuration_computes_one_model(generated):
    db = generated.database()
    program, edb = db.program, db.edb()
    components = condense(program)
    for feature in generated.features | {
        "3+ components" if len(components) >= 3 else "1-2 components",
        *["greedy applies"] * any(greedy_applicable(program, c) is not None for c in components),
        *["pushdown fires"] * get_pushdown(program).changed,
    }:
        event(feature)
    if not generated.conflicts:
        assert_configurations_agree(program, edb)
    assert_drivers_match_reference(program, edb)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "a model's value types depend on its derivation order: Python-equal values "
    "of different types share one hashed slot, the first derived is kept"))
@pytest.mark.parametrize("arcs", [
    # Tied costs 4 and 4.0: naive and semi-naive store s(2, 1) = 4.0,
    # greedy and auto store 4.
    [(0, 1, 1.0), (0, 2, 2.0), (2, 0, 3.0), (2, 3, 1), (3, 1, 3), (3, 4, 1.0), (4, 0, 1.0)],
    # Keys 1.0 and True: plan="smart" with pushdown keeps other
    # representatives in ``path`` than every other configuration.
    [(1.0, 0, 1.0), (0, 2, 1.0), (True, 1, 2.0)],
])
def test_mixed_value_types_in_one_column(arcs):
    db = case(shortest_path.source, arc=arcs).database()
    assert_configurations_agree(db.program, db.edb())
