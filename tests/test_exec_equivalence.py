"""Every evaluator × plan × pushdown computes the same typed model on
random instances of the catalog's workloads.

One instance of each is an ``@example`` of the generated-program
property (``tests/test_generated_programs.py``); here each draws its
own.  The oracle halves are in ``tests/test_properties.py``.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.programs import circuit, company_control, party_invitations, shortest_path
from repro.workloads import random_circuit, random_ownership, random_party
from tests.conftest import examples
from tests.generate import case
from tests.reference_eval import assert_configurations_agree

nodes = st.integers(0, 5)
arcs_strategy = st.lists(st.tuples(nodes, nodes, st.integers(1, 9)), min_size=1, max_size=12).map(
    lambda rows: [(u, v, float(w)) for (u, v), w in {(u, v): w for u, v, w in rows}.items() if u != v]
)


def agree(source, **facts):
    db = case(source, **facts).database()
    assert_configurations_agree(db.program, db.edb())


@settings(max_examples=examples(20), deadline=None)
@given(arcs_strategy)
def test_shortest_path_methods_and_plans_agree(arcs):
    agree(shortest_path.source, arc=arcs)


@settings(max_examples=examples(15), deadline=None)
@given(st.integers(4, 20), st.integers(0, 1000))
def test_company_control_methods_and_plans_agree(n, seed):
    """Bit for bit across methods too: ``sum`` is exact and rounds once,
    in ``convert``, so the order in which naive, semi-naive and
    cost-ordered rounds derive a group's values cannot reach the float
    total.  (It would, were the floats added with plain ``+`` as they
    are folded.)"""
    agree(company_control.source, s=random_ownership(n, seed=seed))


@settings(max_examples=examples(15), deadline=None)
@given(st.integers(4, 24), st.integers(0, 1000))
def test_party_plans_agree(n, seed):
    knows, requires = random_party(n, seed=seed)
    agree(party_invitations.source, knows=knows, requires=list(requires.items()))


@settings(max_examples=examples(15), deadline=None)
@given(st.integers(4, 20), st.integers(0, 1000))
def test_circuit_plans_agree(n, seed):
    inst = random_circuit(n, seed=seed)
    agree(circuit.source, gate=inst.gates, connect=inst.connects, input=inst.inputs)
