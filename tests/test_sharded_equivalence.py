"""Differential suite: ``plan="sharded"`` is model-preserving.

Randomized shardable programs are solved three ways — ``plan="sharded"``
with ≥2 workers, the default sequential plan, and the naive evaluator —
and the models must be bit-identical.  This is the executable form of
the shard-safety proof (docs/PARALLELISM.md): when the analyzer certifies
a component SHARDABLE, every derivation is key-local and the aggregate's
merge algebra is a commutative monoid, so hash-partitioned evaluation
plus a barrier lattice-merge computes exactly the monolithic model.

The sum-based program additionally checks that the shard merge order
does not leak float noise past the lattice's tolerance.
"""

import random
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.sharding import SHARDABLE, analyze_sharding
from repro.core.database import Database
from repro.datalog.errors import NonTerminationError
from repro.engine.sharded import sharded_supported
from repro.obs import Tracer
from repro.programs import company_control, shortest_path
from repro.workloads import (
    company_control_oracle,
    dijkstra_all_pairs,
    random_ownership,
)
from tests.generate import typed_rows

#: min over (R ∪ {±∞}, ≥): the paper's shortest-path idiom — the
#: recursive component keys on the source vertex.
MIN_PROGRAM = shortest_path.source

#: max over (R ∪ {±∞}, ≤): longest path — terminating on DAGs only.
MAX_PROGRAM = MIN_PROGRAM.replace("reals_ge", "reals_le").replace("min{", "max{")


def arcs_strategy(*, dag: bool, max_nodes: int = 7):
    """Random small weighted digraphs (DAG-shaped when ``dag``)."""

    def build(pairs):
        arcs = []
        seen = set()
        for u, v, w in pairs:
            if dag and u >= v:
                u, v = min(u, v), max(u, v) + 1
            if u == v or (u, v) in seen:
                continue
            seen.add((u, v))
            arcs.append((u, v, float(w)))
        return arcs

    node = st.integers(min_value=0, max_value=max_nodes - 1)
    weight = st.integers(min_value=1, max_value=9)
    return st.lists(
        st.tuples(node, node, weight), min_size=1, max_size=16
    ).map(build)


def assert_sharded_agrees(source, facts, methods, *, workers=2, shards=8):
    """sharded == plan-default == naive, per evaluator, bit for bit."""
    db = Database()
    db.load(source)
    report = analyze_sharding(db.program)
    assert any(c.status == SHARDABLE for c in report.components), (
        "template must stay shardable"
    )
    reference = None
    for method in methods:
        models = {}
        for plan in ("sharded", "smart"):
            db = Database()
            db.load(source)
            for predicate, rows in facts.items():
                db.add_facts(predicate, rows)
            result = db.solve(
                method=method, plan=plan, workers=workers, shards=shards
            )
            assert result.status == "complete"
            if plan == "sharded":
                assert any(
                    used.endswith("+sharded")
                    for used in result.component_methods
                ), result.component_methods
            models[plan] = result.model
        assert typed_rows(models["sharded"]) == typed_rows(models["smart"]), (
            method
        )
        if reference is None:
            reference = models["smart"]
    # Across evaluators, naive is the semantic oracle (Kleene iteration
    # of T_P from Section 3) — sharded models must match it too.
    assert reference is not None
    return reference


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(arcs=arcs_strategy(dag=False))
def test_min_programs_agree(arcs):
    if not arcs:
        return
    model = assert_sharded_agrees(
        MIN_PROGRAM,
        {"arc": arcs},
        ("naive", "seminaive", "greedy", "auto"),
    )
    assert dict(model["s"]) == dijkstra_all_pairs(arcs)


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(arcs=arcs_strategy(dag=True))
def test_max_programs_agree(arcs):
    if not arcs:
        return
    assert_sharded_agrees(MAX_PROGRAM, {"arc": arcs}, ("naive", "seminaive"))


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(n=st.integers(4, 14), seed=st.integers(0, 1000))
def test_company_control_agrees(n, seed):
    # sum + count through mutual recursion; merge order varies with the
    # partition, so bit-identity here also pins down the float path.
    shares = random_ownership(n, seed=seed)
    model = assert_sharded_agrees(
        company_control.source, {"s": shares}, ("naive", "seminaive")
    )
    assert set(model["c"]) == company_control_oracle(shares)


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    arcs=arcs_strategy(dag=False),
    workers=st.integers(1, 4),
    shards=st.sampled_from([1, 2, 8, 32]),
)
def test_worker_and_shard_counts_are_invisible(arcs, workers, shards):
    """The model must not depend on the fan-out geometry."""
    if not arcs:
        return
    assert_sharded_agrees(
        MIN_PROGRAM,
        {"arc": arcs},
        ("seminaive",),
        workers=workers,
        shards=shards,
    )


def test_blocked_program_falls_back_to_identical_model():
    """party-invitations is BLOCKED (`=` form): sharded solves must fall
    back per component and still produce the sequential model."""
    from repro.programs import party_invitations
    from repro.workloads import party_oracle, random_party

    knows, requires = random_party(12, seed=5)
    facts = {"knows": knows, "requires": list(requires.items())}
    sharded = party_invitations.database(facts).solve(plan="sharded")
    default = party_invitations.database(facts).solve()
    assert not any(
        used.endswith("+sharded") for used in sharded.component_methods
    )
    assert sharded.model == default.model
    assert {g for (g,) in sharded.model["coming"]} == party_oracle(
        knows, requires
    )


#: Two shardable components over EDB values whose Python types must
#: survive the fork both ways: node ids mixing small ints, ints beyond
#: int64 and (heavily repeated, some non-ASCII) strings in the key
#: column; ``bool`` flags in an ordinary column; float costs; and empty
#: relations (``hop`` in the EDB, ``q`` in the CDB).
TYPED_PROGRAM = """
@cost arc/3  : reals_ge.
@cost path/4 : reals_ge.
@cost s/3    : reals_ge.
@constraint arc(direct, Z, C).
path(X, direct, Y, C) <- arc(X, Y, C).
path(X, Z, Y, C) <- s(X, Z, C1), arc(Z, Y, C2), C = C1 + C2.
s(X, Y, C) <- C =r min{D : path(X, Z, Y, D)}.
r(X, Y, F) <- e(X, Y, F).
r(X, Y, F) <- r(X, Z, G), e(Z, Y, F).
r(X, Y, F) <- q(X, Z), e(Z, Y, F).
q(X, Z) <- r(X, Z, G), hop(Z).
"""


def test_value_types_survive_the_fork():
    rng = random.Random(25)
    nodes = [0, 1, 7, 1 << 70, -(1 << 65), "a", "b", "naïve", "日本"]
    nodes += [f"n{k}" for k in range(11)]
    arcs, flags, seen = [], [], set()
    while len(arcs) < 60:
        u, v = rng.choice(nodes), rng.choice(nodes)
        if u != v and (repr(u), repr(v)) not in seen:
            seen.add((repr(u), repr(v)))
            arcs.append((u, v, float(rng.randint(1, 9))))
            flags.append((u, v, rng.random() < 0.5))
    db = Database()
    db.load(TYPED_PROGRAM)
    report = analyze_sharding(db.program)
    assert [c.status for c in report.components].count(SHARDABLE) == 2
    model = assert_sharded_agrees(
        TYPED_PROGRAM,
        {"arc": arcs, "e": flags, "hop": []},
        ("naive", "seminaive"),
    )
    rows = typed_rows(model)
    assert {row[2] for row in rows["r"]} == {
        ("bool", "True"),
        ("bool", "False"),
    }
    assert ("int", repr(1 << 70)) in {row[0] for row in rows["s"]}
    assert rows["q"] == [] and rows["hop"] == []


DIVERGING = Path(__file__).resolve().parent.parent / "examples" / "diverging.mad"


@pytest.mark.skipif(not sharded_supported()[0], reason="needs fork")
def test_worker_fixpoint_error_is_the_verdict_not_a_worker_failure():
    """A worker's NonTerminationError is the program's answer: it is
    raised after one (sharded) run, never reported as a worker failure
    and never re-run sequentially."""
    db = Database()
    db.load(DIVERGING.read_text(encoding="utf-8"))
    tracer = Tracer()
    with pytest.raises(NonTerminationError) as raised:
        db.solve(
            method="naive",
            plan="sharded",
            workers=2,
            shards=4,
            max_iterations=400,
            tracer=tracer,
        )
    assert raised.value.ascending is True
    plans = [e for e in tracer.events if e["type"] == "shard_plan"]
    assert [e["action"] for e in plans] == ["sharded"]
    assert not any("worker failure" in e["reason"] for e in plans)
    assert "shard.worker_failures" not in tracer.metrics.snapshot()
    # A sequential re-run would have traced its rounds parent-side.
    assert not any(e["type"] == "iteration" for e in tracer.events)
