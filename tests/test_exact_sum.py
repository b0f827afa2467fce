"""``sum``, ``halfsum`` and ``average`` are exact: integers at any size,
floats rounded once.

Their partial state keeps an ``int`` total and a float total held as a
non-overlapping expansion, so the result is the exact sum rounded once in
``convert`` — an ``int`` when every value was one, else the float nearest
to the exact rational total (``float(sum(map(Fraction, values)))``).  The
order in which a group's values are folded cannot reach it.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import Database
from repro.aggregates import Average, HalfSum, Sum
from tests.conftest import examples

#: Integers on both sides of 2**53, where a float total stops being exact.
integers = st.integers(0, 2**53 + 4) | st.integers(2**53 - 4, 2**70)
#: Finite non-negative floats, subnormals included; bounded so that a list
#: of them sums below the largest float.
floats = st.floats(0.0, 1e300, allow_nan=False, allow_infinity=False)


def _exactly(value):
    """``value`` with its type, and a float by its ``repr`` (``-0.0``)."""
    return (type(value), repr(value) if isinstance(value, float) else value)


def _rounded_once(values, divisor=1):
    return float(sum(map(Fraction, values), Fraction(0)) / divisor)


@settings(max_examples=examples(100), deadline=None)
@given(st.lists(integers, max_size=12))
@example([2**53, 1])
@example([10**17, 3])
def test_an_integer_sum_is_the_exact_int(values):
    assert _exactly(Sum()(values)) == _exactly(sum(values))


@settings(max_examples=examples(100), deadline=None)
@given(st.lists(integers | floats, max_size=12))
@example([0.1] * 10)
@example([2**53, 1.0])
@example([0.0, 0])
def test_a_float_sum_rounds_once(values):
    expected = sum(values) if all(isinstance(v, int) for v in values) else (
        _rounded_once(values)
    )
    assert _exactly(Sum()(values)) == _exactly(expected)
    if values:  # halfsum(∅) is the range's bottom, 0
        assert _exactly(HalfSum()(values)) == _exactly(_rounded_once(values, 2))


@settings(max_examples=examples(100), deadline=None)
@given(st.lists(integers | floats | floats.map(lambda f: -f), min_size=1, max_size=12))
@example([0.1, 0.2, 0.3])
@example([-5e-324, 0.0])
@example([2**53, 1])
def test_an_average_rounds_once(values):
    expected = _rounded_once(values, len(values))
    assert _exactly(Average()(values)) == _exactly(expected)


def test_edge_cases():
    assert _exactly(Sum()([10**17, 3])) == _exactly(10**17 + 3)
    assert _exactly(Sum()([0.0])) == _exactly(0.0)
    assert Sum()([1e308, 1e308]) == math.inf  # past the largest float
    assert Sum()([math.inf, 1, 2.5]) == math.inf
    assert math.isnan(Average()([math.inf, -math.inf, 1]))


@pytest.mark.parametrize("method", ["naive", "seminaive", "auto"])
def test_a_solved_integer_sum_is_exact(method):
    db = Database()
    db.load(
        "@cost v/3 : nonneg_reals_le.\n@cost t/2 : nonneg_reals_le.\n@pred k/1.\n"
        "t(X, C) <- k(X), C = sum{V : v(X, W, V)}."
    )
    db.add_fact("k", "a")
    db.add_fact("v", "a", "w1", 2**53)
    db.add_fact("v", "a", "w2", 1)
    assert db.solve(method=method)["t"][("a",)] == 9007199254740993
