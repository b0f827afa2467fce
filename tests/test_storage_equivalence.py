"""Differential suite: ``storage="columnar"`` is model-preserving.

The columnar backend sits behind the same ``Relation`` API the boxed
backend implements, so every evaluator × plan × pushdown combination
must produce *bit-identical* models on either storage mode — same
values, same Python types (``1`` stays ``int``, ``1.0`` stays
``float``, ``True`` stays ``bool``).  Randomized instances come from
hypothesis; the comparison canonicalises rows through ``repr`` so
cross-type numeric equality (``1 == 1.0 == True``) cannot mask a type
drift.

Mirrors tests/test_sharded_equivalence.py and
tests/test_pushdown_equivalence.py.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.database import Database
from repro.datalog.errors import CostConsistencyError
from repro.datalog.parser import parse_program
from repro.engine.interpretation import make_relation
from repro.programs import company_control, shortest_path
from repro.testing import check_relation_indexes
from repro.workloads import (
    ROAD_NETWORK_PROGRAM,
    company_control_oracle,
    dijkstra_all_pairs,
    random_ownership,
)

METHODS = ("naive", "seminaive", "greedy", "auto")


def canonical(model):
    """Type-sensitive snapshot: predicate → sorted repr'd rows."""
    return sorted(
        (name, sorted(map(repr, rel.rows())))
        for name, rel in model.relations.items()
    )


def assert_storage_agrees(
    source, facts, methods=METHODS, *, plans=("smart",), **solve_kwargs
):
    """columnar == boxed, bit for bit, per evaluator and plan."""
    reference = None
    for method in methods:
        for plan in plans:
            snapshots = {}
            for storage in ("boxed", "columnar"):
                db = Database()
                db.load(source)
                for predicate, rows in facts.items():
                    db.add_facts(predicate, rows)
                result = db.solve(
                    method=method,
                    plan=plan,
                    storage=storage,
                    **solve_kwargs,
                )
                assert result.status == "complete"
                snapshots[storage] = canonical(result.model)
            assert snapshots["boxed"] == snapshots["columnar"], (
                method,
                plan,
            )
            if reference is None:
                reference = snapshots["boxed"]
    return reference


def arcs_strategy(max_nodes=6):
    def build(pairs):
        seen = {}
        for u, v, w in pairs:
            if u != v:
                seen.setdefault((u, v), float(w))
        return [(u, v, w) for (u, v), w in seen.items()]

    node = st.integers(min_value=0, max_value=max_nodes - 1)
    return st.lists(
        st.tuples(node, node, st.integers(1, 9)), min_size=1, max_size=14
    ).map(build)


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(arcs=arcs_strategy())
def test_shortest_path_agrees(arcs):
    model = assert_storage_agrees(shortest_path.source, {"arc": arcs})
    rows = {tuple(eval(r)) for r in dict(model)["s"]}  # noqa: S307
    assert {(u, v): c for u, v, c in rows} == dijkstra_all_pairs(arcs)


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(n=st.integers(min_value=3, max_value=8), seed=st.integers(0, 99))
def test_company_control_agrees(n, seed):
    shares = random_ownership(n, seed=seed, chain_length=min(4, n - 1))
    model = assert_storage_agrees(
        company_control.source,
        {"s": shares},
        methods=("naive", "seminaive"),
    )
    controls = {tuple(eval(r)) for r in dict(model)["c"]}  # noqa: S307
    assert controls == company_control_oracle(shares)


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(arcs=arcs_strategy(max_nodes=5))
def test_sharded_plan_agrees(arcs):
    sources = sorted({u for u, _, _ in arcs})[:2]
    assert_storage_agrees(
        ROAD_NETWORK_PROGRAM,
        {"arc": arcs, "source": [(s,) for s in sources]},
        methods=("seminaive", "auto"),
        plans=("smart", "sharded"),
        workers=2,
        shards=4,
    )


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(arcs=arcs_strategy(max_nodes=5))
def test_pushdown_off_agrees(arcs):
    assert_storage_agrees(
        shortest_path.source,
        {"arc": arcs},
        methods=("seminaive",),
        pushdown="off",
    )


def test_mixed_type_constants_stay_bit_identical():
    # Constants spanning every column kind, plus cross-type numeric
    # collisions (1 vs 1.0) that set/dict semantics must resolve the
    # same way on both backends.
    source = """
        @pred node/1.
        @pred edge/2.
        reach(X) <- node(X).
        reach(Y) <- reach(X), edge(X, Y).
    """
    facts = {
        "node": [(1,), (1.0,), ("a",), (2,)],
        "edge": [(1, "a"), ("a", 2), (2, 1 << 70), (1 << 70, "ü")],
    }
    assert_storage_agrees(source, facts, methods=("naive", "seminaive"))


# -- the bulk mutator ----------------------------------------------------------

JOIN_ROWS_DECLS = """
    @pred e/2.
    @cost c/2 : reals_ge.
    @default t/2 : naturals_le.
"""
_small = st.integers(0, 3)
JOIN_ROWS_BATCHES = {
    "e": st.lists(st.tuples(_small, st.sampled_from(["a", "b", 1, 1.0]))),
    "c": st.lists(st.tuples(_small, st.sampled_from([0, 1, 2.5, 7.0]))),
    "t": st.lists(st.tuples(_small, st.integers(0, 3))),  # 0 = the default
}


@settings(max_examples=60, deadline=None)
@given(
    predicate=st.sampled_from(sorted(JOIN_ROWS_BATCHES)),
    data=st.data(),
    strict=st.booleans(),
)
def test_join_rows_agrees_with_boxed_and_with_the_row_mutators(
    predicate, data, strict
):
    """``join_rows`` on either backend == validate + ``set_cost`` /
    ``add_tuple`` row by row: same changed-row lists (values as stored
    after joining), same contents, same error at the same row, and live
    indexes and row cache equal to a rebuild — over an ordinary, a cost
    and a default-value predicate."""
    decl = parse_program(JOIN_ROWS_DECLS).declarations[predicate]
    batches = data.draw(st.lists(JOIN_ROWS_BATCHES[predicate], max_size=3))

    def row_by_row(rel, rows):
        changed = []
        for row in rows:
            if not rel.is_cost:
                if rel.add_tuple(row):
                    changed.append(row)
                continue
            decl.lattice.validate(row[-1])
            if rel.set_cost(row[:-1], row[-1], strict=strict):
                changed.append(row[:-1] + (rel.cost_of(row[:-1]),))
        return changed

    outcomes = []
    for storage, bulk in (("boxed", True), ("columnar", True), ("boxed", False)):
        rel = make_relation(decl, storage)
        log = []
        for rows in batches:
            rel.lookup((0,), (0,))  # keep an index and the row cache live
            rel.rows_list()
            try:
                log.append(
                    rel.join_rows(rows, strict=strict)
                    if bulk
                    else row_by_row(rel, rows)
                )
            except CostConsistencyError as error:
                log.append(str(error))
            assert check_relation_indexes(rel) == []
        outcomes.append((repr(log), sorted(map(repr, rel.rows()))))
    assert outcomes[0] == outcomes[1] == outcomes[2]
