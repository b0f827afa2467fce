"""Property tests: every evaluator × plan mode computes the same model.

The compiled execution layer must be semantically invisible: for any
workload instance, naive / semi-naive / greedy evaluation with the
selectivity-aware planner on (``plan="smart"``) and off (``plan="off"``,
legacy schedule order) all reach the identical minimal model — and agree
with the engine-independent oracles where one exists.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.programs import (
    circuit,
    company_control,
    party_invitations,
    shortest_path,
)
from repro.workloads import (
    company_control_oracle,
    dijkstra_all_pairs,
    party_oracle,
    random_circuit,
    random_ownership,
    random_party,
)
from tests.conftest import examples

nodes = st.integers(0, 5)
arcs_strategy = st.lists(
    st.tuples(nodes, nodes, st.integers(1, 9)),
    min_size=1,
    max_size=12,
).map(
    lambda rows: [
        (u, v, float(w))
        for (u, v, w) in {(u, v): (u, v, w) for u, v, w in rows if u != v}.values()
    ]
)


@settings(max_examples=examples(20), deadline=None)
@given(arcs_strategy)
def test_shortest_path_methods_and_plans_agree(arcs):
    if not arcs:
        return
    models = [
        shortest_path.database({"arc": arcs}).solve(method=m, plan=p).model
        for m in ("naive", "seminaive", "greedy")
        for p in ("smart", "off")
    ]
    assert all(m == models[0] for m in models[1:])
    assert dict(models[0]["s"]) == dijkstra_all_pairs(arcs)


@settings(max_examples=examples(15), deadline=None)
@given(st.integers(4, 20), st.integers(0, 1000))
def test_company_control_methods_and_plans_agree(n, seed):
    """Bit for bit across methods too: ``Sum.fold`` adds a group's values
    in sorted order, so the order in which naive, semi-naive and
    cost-ordered rounds derive them cannot reach the float total.  (It
    would, were ``sum`` folded inline in derivation order: it declares
    no ``exact_fold``.)"""
    shares = random_ownership(n, seed=seed)
    models = {
        (m, p): company_control.database({"s": shares}).solve(method=m, plan=p).model
        for m in ("naive", "seminaive", "auto")
        for p in ("smart", "off")
    }
    reference = models[("naive", "smart")]
    assert all(model == reference for model in models.values())
    assert set(reference["c"]) == company_control_oracle(shares)


@settings(max_examples=examples(15), deadline=None)
@given(st.integers(4, 24), st.integers(0, 1000))
def test_party_plans_agree(n, seed):
    knows, requires = random_party(n, seed=seed)
    facts = {"knows": knows, "requires": list(requires.items())}
    smart = party_invitations.database(facts).solve(plan="smart").model
    off = party_invitations.database(facts).solve(plan="off").model
    assert smart == off
    assert {g for (g,) in smart["coming"]} == party_oracle(knows, requires)


@settings(max_examples=examples(15), deadline=None)
@given(st.integers(4, 20), st.integers(0, 1000))
def test_circuit_plans_agree(n, seed):
    inst = random_circuit(n, seed=seed)
    facts = {
        "gate": inst.gates,
        "connect": inst.connects,
        "input": inst.inputs,
    }
    smart = circuit.database(facts).solve(plan="smart").model
    off = circuit.database(facts).solve(plan="off").model
    assert smart == off
