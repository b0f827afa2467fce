"""Cross-cutting property-based tests (hypothesis) of the core theorems.

These are the heavyweight invariants that tie the whole system to the
paper's results:

* the engine's output is a model and a pre-model (Propositions 3.2–3.4);
* it is ⊑-below every pre-model we can construct by perturbing it upward
  (Corollary 3.5's least-ness, sampled);
* the engine equals the engine-independent oracles (Dijkstra, party,
  company control, circuits);
* naive ≡ semi-naive ≡ greedy, every plan and pushdown, on shortest path;
* the parser and pretty-printer are mutually inverse on generated rules;
* T_P is monotone in J on admissible programs (Lemma 4.1, randomized).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Interpretation, apply_tp, is_model, is_premodel
from repro.programs import party_invitations, shortest_path
from repro.workloads import dijkstra_all_pairs, party_oracle
from tests.reference_eval import assert_configurations_agree

# ---------------------------------------------------------------------------
# Graph strategies
# ---------------------------------------------------------------------------

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


@settings(max_examples=25, deadline=None)
@given(arcs_strategy)
def test_engine_equals_dijkstra(arcs):
    if not arcs:
        return
    result = shortest_path.database({"arc": arcs}).solve()
    assert result["s"] == dijkstra_all_pairs(arcs)


@settings(max_examples=25, deadline=None)
@given(arcs_strategy)
def test_methods_agree(arcs):
    db = shortest_path.database({"arc": arcs})
    assert_configurations_agree(db.program, db.edb())


@settings(max_examples=20, deadline=None)
@given(arcs_strategy)
def test_result_is_model_and_premodel(arcs):
    if not arcs:
        return
    db = shortest_path.database({"arc": arcs})
    result = db.solve()
    assert is_model(db.program, result.model)
    assert is_premodel(db.program, result.model)


@settings(max_examples=20, deadline=None)
@given(arcs_strategy, st.floats(min_value=0.5, max_value=5))
def test_least_among_perturbed_premodels(arcs, delta):
    """Corollary 3.5 sampled: uniformly ⊑-raising every derived cost atom
    (numerically lowering, under the ≥ order) yields another pre-model
    that dominates the minimal model — the minimal model is ⊑-least.
    Lowering ⊑ (numerically raising) instead breaks pre-modelhood: the
    base-path rule's consequences stop being dominated."""
    if not arcs:
        return
    db = shortest_path.database({"arc": arcs})
    minimal = db.solve().model

    above = minimal.copy()
    for name in ("s", "path"):
        rel = above.relation(name)
        for key in list(rel.costs):
            rel.costs[key] -= delta  # ⊑-increase under (R, ≥)
    assert minimal.leq(above)
    assert is_premodel(db.program, above)

    below = minimal.copy()
    for name in ("s", "path"):
        rel = below.relation(name)
        for key in list(rel.costs):
            rel.costs[key] += delta  # ⊑-decrease
    assert below.leq(minimal)
    assert not is_premodel(db.program, below)


@settings(max_examples=20, deadline=None)
@given(arcs_strategy)
def test_tp_monotone_along_kleene_chain(arcs):
    """Lemma 4.1 via the chain itself: J_k ⊑ J_{k+1} at every step."""
    if not arcs:
        return
    db = shortest_path.database({"arc": arcs})
    program = db.program
    edb = db.edb()
    cdb = frozenset({"path", "s"})
    j = Interpretation(program.declarations)
    for _ in range(8):
        j_next = apply_tp(program, cdb, j, edb)
        assert j.leq(j_next)
        if j_next == j:
            break
        j = j_next


# ---------------------------------------------------------------------------
# Party instances
# ---------------------------------------------------------------------------

party_strategy = st.tuples(
    st.lists(
        st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=20
    ).map(lambda pairs: sorted({(a, b) for a, b in pairs if a != b})),
    st.dictionaries(st.integers(0, 6), st.integers(0, 3), min_size=1),
)


@settings(max_examples=25, deadline=None)
@given(party_strategy)
def test_party_engine_equals_oracle(instance):
    knows, requires = instance
    facts = {"knows": knows, "requires": list(requires.items())}
    result = party_invitations.database(facts).solve()
    assert {g for (g,) in result["coming"]} == party_oracle(knows, requires)


@settings(max_examples=15, deadline=None)
@given(party_strategy)
def test_party_attendance_monotone_in_edges(instance):
    """Adding knows-edges can only grow attendance (monotonicity made
    observable)."""
    knows, requires = instance
    facts = {"knows": knows, "requires": list(requires.items())}
    base = {
        g
        for (g,) in party_invitations.database(facts).solve()["coming"]
    }
    extra = sorted(set(knows) | {(0, 1)} if (0, 1) != (1, 0) else set(knows))
    if (0, 1) in knows or 0 not in requires or 1 not in requires:
        return
    facts2 = {"knows": extra, "requires": list(requires.items())}
    more = {
        g
        for (g,) in party_invitations.database(facts2).solve()["coming"]
    }
    assert base <= more


# ---------------------------------------------------------------------------
# Parser ↔ printer on generated rules
# ---------------------------------------------------------------------------

from repro.core.builder import V, agg_r, atom, not_, rule  # noqa: E402
from repro.datalog.parser import parse_rule  # noqa: E402

variable_names = st.sampled_from(["X", "Y", "Z", "C", "D", "N"])
constants = st.one_of(
    st.integers(-5, 20),
    st.sampled_from(["a", "b", "direct"]),
)
terms = st.one_of(variable_names.map(lambda n: V(n)), constants)


@st.composite
def generated_rules(draw):
    head_args = draw(st.lists(variable_names, min_size=1, max_size=3, unique=True))
    head = atom("h", *[V(n) for n in head_args])
    body = []
    # Ground the head vars through one positive atom.
    body.append(atom("e", *[V(n) for n in head_args]))
    if draw(st.booleans()):
        body.append(not_(atom("q", V(head_args[0]))))
    if draw(st.booleans()):
        result = V("Agg")
        body.append(
            agg_r(result, "sum", V("M"), atom("w", V(head_args[0]), V("M")))
        )
        body.append(result > draw(st.integers(0, 5)))
    return rule(head, *body)


@settings(max_examples=50, deadline=None)
@given(generated_rules())
def test_rule_roundtrip_generated(generated):
    assert parse_rule(str(generated)) == generated


# ---------------------------------------------------------------------------
# Company-control and circuit instances
# ---------------------------------------------------------------------------

from repro.programs import circuit as circuit_program  # noqa: E402
from repro.programs import company_control  # noqa: E402
from repro.workloads import circuit_oracle, company_control_oracle, random_circuit  # noqa: E402

ownership_strategy = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(1, 10)),
    min_size=1,
    max_size=10,
).map(
    lambda rows: [
        (o, c, w / 10.0)
        for (o, c), (o2, c2, w) in {
            (o, c): (o, c, w) for o, c, w in rows if o != c
        }.items()
    ]
)


@settings(max_examples=25, deadline=None)
@given(ownership_strategy)
def test_company_control_equals_oracle(shares):
    """Engine vs direct fixpoint on arbitrary (even over-allocated)
    ownership structures — over-allocation is fine for the semantics, the
    oracle mirrors it."""
    if not shares:
        return
    result = company_control.database({"s": shares}).solve()
    assert set(result["c"]) == company_control_oracle(shares)


@settings(max_examples=20, deadline=None)
@given(
    st.integers(2, 10),
    st.integers(0, 10_000),
    st.floats(min_value=0.0, max_value=0.6),
)
def test_circuit_equals_oracle(n_gates, seed, feedback):
    inst = random_circuit(n_gates, seed=seed, feedback_fraction=feedback)
    db = circuit_program.database(
        {"gate": inst.gates, "connect": inst.connects, "input": inst.inputs}
    )
    result = db.solve()
    mine = {k[0]: v for k, v in result["t"].items()}
    for wire, value in circuit_oracle(inst).items():
        assert mine.get(wire, 0) == value
