"""Differential suite: the pushdown rewrite is model-preserving.

Premappable templates (``tests/generate.py``: min and max orientation,
a wider interior) over random graphs are solved with ``pushdown="auto"``
and ``"off"`` under every evaluator and plan that accepts them; the
typed models, original predicates only, must be identical.  This is the
executable form of the rewrite's correctness argument
(docs/OPTIMIZATION.md): collapsing the frontier through the lattice join
commutes with the iterated fixpoint when the occurrence is premappable.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine.exec import get_pushdown
from tests.generate import MAX_PROGRAM, MIN_PROGRAM, WIDE_PROGRAM, case
from tests.reference_eval import assert_configurations_agree

budget = settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def arcs_strategy(*, dag: bool, max_nodes: int = 7):
    """Random small weighted digraphs (DAG-shaped when ``dag``)."""

    def build(pairs):
        arcs = {}
        for u, v, w in pairs:
            if dag and u >= v:
                u, v = min(u, v), max(u, v) + 1
            if u != v:
                arcs.setdefault((u, v), float(w))
        return [(u, v, w) for (u, v), w in arcs.items()]

    node = st.integers(min_value=0, max_value=max_nodes - 1)
    weight = st.integers(min_value=1, max_value=9)
    return st.lists(st.tuples(node, node, weight), min_size=1, max_size=16).map(build)


def assert_equivalent(source, arcs):
    db = case(source, arc=arcs).database()
    assert get_pushdown(db.program).changed, "template must stay premappable"
    assert_configurations_agree(db.program, db.edb())


@settings(budget, max_examples=20)
@given(arcs=arcs_strategy(dag=False))
def test_min_programs_agree(arcs):
    # Cyclic graphs are the paper's headline case; greedy (Dijkstra-
    # style) accepts min over non-negative costs, so it runs too.
    assert_equivalent(MIN_PROGRAM, arcs)


@budget
@given(arcs=arcs_strategy(dag=False))
def test_wide_interior_programs_agree(arcs):
    assert_equivalent(WIDE_PROGRAM, arcs)


@budget
@given(arcs=arcs_strategy(dag=True))
def test_max_programs_agree(arcs):
    # Longest path diverges on cycles, so max draws from DAGs.
    assert_equivalent(MAX_PROGRAM, arcs)
