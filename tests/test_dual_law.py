"""The order-dual law for Figure 1's ≥-lattices.

``reals_ge`` (min), ``bool_ge`` (AND) and ``(2^S, ⊇)`` (intersection)
are the duals of ``reals_le``, ``bool_le`` and ``(2^S, ⊆)``: over random
carrier values each flips ⊑, swaps join/meet and ⊥/⊤, keeps the carrier
(membership, column check, ``validate``) and reverses the sample, and
dualising twice gives the inner lattice back.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lattices import (
    BOOL_GE,
    BOOL_LE,
    INF,
    NEG_INF,
    REALS_GE,
    REALS_LE,
    DualLattice,
    LatticeValueError,
    PowersetIntersection,
    PowersetUnion,
)

from tests.conftest import examples

_REALS = st.one_of(
    st.integers(-100, 100),
    st.floats(allow_nan=False),
    st.sampled_from([INF, NEG_INF, 0, 0.0, -0.0]),
)
_SETS = st.frozensets(st.sampled_from("abc"))

#: name -> (dual, its ≤ twin, carrier values, other values).
DUALS = {
    "reals_ge": (
        REALS_GE,
        REALS_LE,
        _REALS,
        st.sampled_from([True, False, float("nan"), "1", None, 2j]),
    ),
    "bool_ge": (
        BOOL_GE,
        BOOL_LE,
        st.sampled_from([0, 1, True, False, 0.0, 1.0]),
        st.sampled_from([2, -1, 0.5, "1", None]),
    ),
    "powerset_intersection[3]": (
        PowersetIntersection("abc"),
        PowersetUnion("abc"),
        _SETS,
        st.sampled_from([frozenset("az"), frozenset("d"), "a", None]),
    ),
}


def outcome(call, *args):
    """A call's value with its type, or the error it raised less the
    lattice's name (the one thing a dual may say differently)."""
    try:
        value = call(*args)
    except LatticeValueError as error:
        return ("raises", str(error).rsplit(" ", 1)[0])
    return (value, type(value))


def flipped(direction):
    return None if direction is None else -direction


def same_carrier(dual, lattice, probes):
    for value in probes:
        assert (value in dual) == (value in lattice)
        assert outcome(dual.validate, value) == outcome(lattice.validate, value)
    assert dual.accepts_all(probes) == lattice.accepts_all(probes)


def behaves_alike(dual, lattice, a, b, probes):
    """``dual`` is ``lattice`` on every observable face over the values."""
    assert dual.leq(a, b) == lattice.leq(a, b)
    assert outcome(dual.join, a, b) == outcome(lattice.join, a, b)
    assert outcome(dual.meet, a, b) == outcome(lattice.meet, a, b)
    assert (dual.bottom, dual.top) == (lattice.bottom, lattice.top)
    assert dual.is_chain == lattice.is_chain
    assert dual.numeric_direction == lattice.numeric_direction
    same_carrier(dual, lattice, probes)
    assert list(dual.sample()) == list(lattice.sample())


@pytest.mark.parametrize("name", sorted(DUALS))
@settings(max_examples=examples(60), deadline=None)
@given(data=st.data())
def test_dual_law(name, data):
    dual, lattice, carrier, others = DUALS[name]
    a, b = data.draw(carrier), data.draw(carrier)
    probes = data.draw(st.lists(st.one_of(carrier, others), max_size=6))

    assert dual.leq(a, b) == lattice.leq(b, a)
    assert outcome(dual.join, a, b) == outcome(lattice.meet, a, b)
    assert outcome(dual.meet, a, b) == outcome(lattice.join, a, b)
    assert (dual.bottom, dual.top) == (lattice.top, lattice.bottom)
    assert dual.is_chain == lattice.is_chain
    assert dual.numeric_direction == flipped(lattice.numeric_direction)
    same_carrier(dual, lattice, probes)
    same_carrier(dual, lattice, [a, b])
    assert list(dual.sample()) == list(lattice.sample())[::-1]
    behaves_alike(DualLattice(DualLattice(lattice)), lattice, a, b, probes)
    behaves_alike(DualLattice(dual), lattice, a, b, probes)
