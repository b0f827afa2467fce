"""Rows cross the shard barrier unchanged.

The sharded executor (:mod:`repro.engine.sharded`) ships rows between
processes as pickled ``{predicate: list(rel.rows())}`` dicts and lands
them with :meth:`~repro.engine.interpretation.Relation.join_rows`.  The
landed rows must be bit-identical to the shipped ones — values, types,
row order — because they are the barrier merge's input and any coercion
would leak into the model.  The test names keep the vocabulary of the
packed-column wire format the plain row lists replaced; each pins the
value kind that format special-cased.
"""

from __future__ import annotations

import math
import pickle

from hypothesis import given
from hypothesis import strategies as st

from repro.datalog.program import PredicateDecl
from repro.engine.interpretation import Interpretation
from repro.lattices import REALS_GE


def ship(batch, decls):
    """Write ``batch`` into a sender interpretation, ship its rows as
    the executor does (pickled ``list(rel.rows())``) and land them in a
    fresh interpretation; returns ``(the unpickled payload, landed)``."""
    declarations = {decl.name: decl for decl in decls}
    sender = Interpretation(declarations)
    for name, rows in batch.items():
        sender.relation(name).join_rows(list(rows))
    payload = {name: list(sender.relation(name).rows()) for name in batch}
    payload = pickle.loads(pickle.dumps(payload))
    landed = Interpretation(declarations)
    for name, rows in payload.items():
        landed.relation(name).join_rows(rows)
    return payload, landed


def typed(rows):
    """Rows as sorted ``(type name, repr)`` tuples: equal only bit for bit."""
    return sorted(
        tuple((type(v).__name__, repr(v)) for v in row) for row in rows
    )


def assert_bit_identical(batch, decls):
    payload, landed = ship(batch, decls)
    assert set(payload) == set(batch)
    for name, rows in batch.items():
        got = list(landed.relation(name).rows())
        assert typed(got) == typed(payload[name]), name
        assert typed(got) == typed(set(rows)), name
    return landed


def test_int_column_packs_as_q():
    rows = [(1, 2), (3, 4), (-(1 << 63), (1 << 63) - 1)]
    landed = assert_bit_identical({"t": rows}, [PredicateDecl("t", 2)])
    assert sorted(landed.relation("t").rows()) == sorted(rows)


def test_float_column_packs_as_d_nan_included():
    batch = {"t": [(1.5,), (float("nan"),), (float("inf"),), (-0.0,)]}
    _, landed = ship(batch, [PredicateDecl("t", 1)])
    out = [v for (v,) in landed.relation("t").rows()]
    assert all(type(v) is float for v in out)
    assert 1.5 in out and float("inf") in out
    assert sum(math.isnan(v) for v in out) == 1
    zero = [v for v in out if v == 0.0]
    assert zero and math.copysign(1.0, zero[0]) == -1.0  # -0.0 survives
    # Float costs land in the cost column as the same floats.
    costs = [("a", 1.5), ("b", float("inf")), ("c", -0.0)]
    _, landed = ship({"c": costs}, [PredicateDecl("c", 2, REALS_GE)])
    got = list(landed.relation("c").rows())
    assert got == costs
    assert math.copysign(1.0, got[2][1]) == -1.0


def test_string_column_interns_uniques():
    batch = {"t": [("a", "x"), ("b", "x"), ("a", "x")]}
    payload, _ = ship(batch, [PredicateDecl("t", 2)])
    assert_bit_identical(batch, [PredicateDecl("t", 2)])
    # pickle memoizes: a repeated string crosses once and lands shared.
    assert len({id(row[1]) for row in payload["t"]}) == 1


def test_unicode_strings_roundtrip():
    assert_bit_identical(
        {"t": [("naïve", "✓"), ("строка", "日本語")]}, [PredicateDecl("t", 2)]
    )


def test_bool_and_mixed_columns_fall_back_to_boxed():
    landed = assert_bit_identical(
        {"t": [(True,), (False,)]}, [PredicateDecl("t", 1)]
    )
    assert {type(v) for (v,) in landed.relation("t").rows()} == {bool}
    landed = assert_bit_identical(
        {"m": [(1,), ("a",), (2.5,), (None,)]}, [PredicateDecl("m", 1)]
    )
    assert {type(v).__name__ for (v,) in landed.relation("m").rows()} == {
        "int",
        "str",
        "float",
        "NoneType",
    }


def test_huge_ints_fall_back_to_boxed():
    rows = [(1 << 80,), (5,), (-(1 << 70),)]
    landed = assert_bit_identical({"t": rows}, [PredicateDecl("t", 1)])
    assert sorted(landed.relation("t").rows()) == sorted(rows)


def test_empty_batches_and_zero_arity():
    assert ship({}, [])[0] == {}
    payload, landed = ship({"t": []}, [PredicateDecl("t", 1)])
    assert payload == {"t": []} and len(landed.relation("t")) == 0
    payload, landed = ship({"n": [(), ()]}, [PredicateDecl("n", 0)])
    assert payload == {"n": [()]}
    assert list(landed.relation("n").rows()) == [()]


def test_row_order_preserved():
    rows = [(i,) for i in (5, 1, 4, 2, 3)]
    landed = Interpretation({"t": PredicateDecl("t", 1)})
    # join_rows reports the rows that changed the relation, in order.
    assert landed.relation("t").join_rows(pickle.loads(pickle.dumps(rows))) == rows
    # Cost relations also read back in the order the rows were shipped.
    costs = [(k, float(k)) for k in (5, 1, 4, 2, 3)]
    _, landed = ship({"c": costs}, [PredicateDecl("c", 2, REALS_GE)])
    assert list(landed.relation("c").rows()) == costs


scalar = st.one_of(
    st.integers(min_value=-(1 << 70), max_value=1 << 70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=8),
    st.booleans(),
    st.none(),
)


@given(
    st.lists(st.tuples(scalar, scalar, scalar), max_size=30),
)
def test_roundtrip_fuzz(rows):
    payload, landed = ship({"t": rows}, [PredicateDecl("t", 3)])
    sent = Interpretation({"t": PredicateDecl("t", 3)})
    sent.relation("t").join_rows(list(rows))
    expected = typed(sent.relation("t").rows())
    assert typed(payload["t"]) == expected
    assert typed(landed.relation("t").rows()) == expected
