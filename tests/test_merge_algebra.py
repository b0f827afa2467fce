"""Merge-algebra properties of every registered two-phase aggregate.

Sharded evaluation (docs/PARALLELISM.md) is sound only when each
aggregate's partial-state algebra ``(S, merge, state_create())`` is a
commutative monoid acted on compatibly by ``process``:

* soundness:     ``convert(merge(fold(A), fold(B))) = F(A ⊎ B)``
* commutativity: ``merge(s, t) ≡ merge(t, s)``
* associativity: ``merge(merge(s, t), u) ≡ merge(s, merge(t, u))``
* identity:      ``state_create()`` is two-sided neutral

The systematic sweep in :mod:`repro.aggregates.algebra` feeds the
analyzer's witness chain; this suite stresses the same properties with
hypothesis-randomized multisets, so the long tail (large counts, mixed
int/float sums, adversarial partitions) gets covered too.

It also holds every aggregate to order independence: the rule kernels
fold a group value by value, in join order, and the reference folds the
projected list in solution order, so ``F`` may not depend on the order.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregates import (
    MERGE_PROPERTIES,
    Intersection,
    LatticeJoin,
    LatticeMeet,
    Minimum,
    Union,
    default_registry,
    verify_merge_algebra,
)
from repro.aggregates.algebra import (
    multiset_union,
    sample_multisets,
    states_equivalent,
)
from repro.aggregates.base import EmptyAggregateError
from repro.lattices import BOOL_LE, REALS_GE
from repro.util.multiset import FrozenMultiset
from tests.conftest import examples

REGISTRY = default_registry()
ALL_FUNCTIONS = dict(REGISTRY)
ALL_FUNCTIONS["join_reals_ge"] = LatticeJoin(REALS_GE)
ALL_FUNCTIONS["meet_bool_le"] = LatticeMeet(BOOL_LE)


# ---------------------------------------------------------------------------
# The systematic verifier: every function, all four properties
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(ALL_FUNCTIONS), ids=str)
def test_systematic_verifier_passes(name):
    verdicts = verify_merge_algebra(ALL_FUNCTIONS[name])
    assert [v.property_checked for v in verdicts] == list(MERGE_PROPERTIES)
    for verdict in verdicts:
        assert verdict.holds, str(verdict)
        assert verdict.cases_checked > 0


def test_verifier_catches_broken_merge():
    """A deliberately wrong merge must produce a failing verdict."""
    from repro.aggregates.standard import Sum

    class BadSum(Sum):
        def merge(self, state, other):
            ints, partials, special = super().merge(state, other)
            return (ints + 1, partials, special)  # off by one per merge

    verdicts = verify_merge_algebra(BadSum())
    failed = [v for v in verdicts if not v.holds]
    assert failed, "broken merge slipped through"
    assert all(v.counterexample for v in failed)


# ---------------------------------------------------------------------------
# Hypothesis stress: randomized multisets, every registered aggregate
# ---------------------------------------------------------------------------

# Values drawn per function family: the domain lattices differ (reals,
# booleans, sets, edges), so each gets a matching strategy.
_REAL_NAMES = [
    name
    for name, fn in ALL_FUNCTIONS.items()
    if fn.domain.name.startswith("reals")
]
_BOOL_NAMES = [
    name
    for name, fn in ALL_FUNCTIONS.items()
    if fn.domain.name.startswith("bool")
]

reals = st.one_of(
    st.integers(-9, 9),
    st.floats(
        min_value=-16.0, max_value=16.0, allow_nan=False, allow_infinity=False
    ),
)
real_multisets = st.lists(reals, max_size=6).map(FrozenMultiset)
bool_multisets = st.lists(st.integers(0, 1), max_size=6).map(FrozenMultiset)


def _check_partition_soundness(fn, parts):
    """fold-per-part + merge == monolithic fold, for any partition."""
    whole = parts[0]
    for part in parts[1:]:
        whole = multiset_union(whole, part)
    state = fn.state_create()
    for part in parts:
        state = fn.merge(state, fn.fold(part))
    if not whole:
        # Zero-state aggregates (sum, count, ...) convert the empty
        # state to their neutral element, which must then be F(∅);
        # everything else must raise.
        try:
            converted = fn.convert(state)
        except EmptyAggregateError:
            return
        assert fn.has_empty_value, (
            f"{fn.name}: empty partition converts to {converted!r} "
            f"but F(∅) is undefined"
        )
        assert fn.range_.close(converted, fn.empty_value())
        return
    merged = fn.convert(state)
    direct = fn.apply_nonempty(whole)
    assert fn.range_.close(merged, direct), (
        f"{fn.name}: partitioned {merged!r} != monolithic {direct!r} "
        f"for parts {parts!r}"
    )


@settings(max_examples=examples(30), deadline=None)
@given(
    st.lists(real_multisets, min_size=1, max_size=4),
    st.sampled_from(sorted(_REAL_NAMES)),
)
def test_real_aggregates_partition_soundness(parts, name):
    _check_partition_soundness(ALL_FUNCTIONS[name], parts)


@settings(max_examples=examples(30), deadline=None)
@given(
    st.lists(bool_multisets, min_size=1, max_size=4),
    st.sampled_from(sorted(_BOOL_NAMES)),
)
def test_bool_aggregates_partition_soundness(parts, name):
    _check_partition_soundness(ALL_FUNCTIONS[name], parts)


@settings(max_examples=examples(30), deadline=None)
@given(
    real_multisets,
    real_multisets,
    real_multisets,
    st.sampled_from(sorted(_REAL_NAMES)),
)
def test_real_aggregates_merge_commutes_and_associates(a, b, c, name):
    fn = ALL_FUNCTIONS[name]
    s, t, u = fn.fold(a), fn.fold(b), fn.fold(c)
    assert states_equivalent(fn, fn.merge(s, t), fn.merge(t, s))
    assert states_equivalent(
        fn, fn.merge(fn.merge(s, t), u), fn.merge(s, fn.merge(t, u))
    )
    empty = fn.state_create()
    assert states_equivalent(fn, fn.merge(s, empty), s)
    assert states_equivalent(fn, fn.merge(empty, s), s)


# ---------------------------------------------------------------------------
# Two-phase interface invariants the executor relies on
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(ALL_FUNCTIONS), ids=str)
def test_fold_equals_apply_nonempty(name):
    """F(I) must factor through the two-phase pipeline exactly."""
    fn = ALL_FUNCTIONS[name]
    for multiset in sample_multisets(fn.domain, max_size=3):
        if not multiset:
            continue
        via_phases = fn.convert(fn.fold(multiset))
        direct = fn.apply_nonempty(multiset)
        assert fn.range_.close(via_phases, direct)


@pytest.mark.parametrize("name", sorted(ALL_FUNCTIONS), ids=str)
def test_empty_state_converts_consistently(name):
    """convert(state_create()) raises, or equals F(∅) where defined.

    Zero-state aggregates (sum, count, ...) conflate the empty state
    with their neutral element; that is sound exactly when the neutral
    element *is* ``F(∅)``.  Everything else must raise so the ``=r``
    form stays false on empty groups.
    """
    fn = ALL_FUNCTIONS[name]
    try:
        converted = fn.convert(fn.state_create())
    except EmptyAggregateError:
        return
    assert fn.has_empty_value, (
        f"{fn.name}: empty state converts to {converted!r} but F(∅) "
        f"is undefined"
    )
    assert fn.range_.close(converted, fn.empty_value())


@pytest.mark.parametrize("name", sorted(ALL_FUNCTIONS), ids=str)
def test_states_are_picklable_plain_values(name):
    """States cross process boundaries: must pickle and compare equal."""
    import pickle

    fn = ALL_FUNCTIONS[name]
    for multiset in sample_multisets(fn.domain, max_size=2)[:16]:
        state = fn.fold(multiset)
        clone = pickle.loads(pickle.dumps(state))
        assert states_equivalent(fn, state, clone)


def test_sum_merge_int_float_promotion():
    """Mixed int/float partitions agree with the monolithic sum's type."""
    fn = REGISTRY["sum"]
    a = FrozenMultiset([1, 2.5])
    b = FrozenMultiset([3])
    merged = fn.convert(fn.merge(fn.fold(a), fn.fold(b)))
    assert merged == fn.apply_nonempty(multiset_union(a, b)) == 6.5


def test_sum_merge_infinity_absorbs():
    fn = REGISTRY["sum"]
    inf = FrozenMultiset([math.inf])
    finite = FrozenMultiset([2, 3])
    merged = fn.convert(fn.merge(fn.fold(inf), fn.fold(finite)))
    assert math.isinf(merged)


# ---------------------------------------------------------------------------
# Order independence: what a rule kernel and the reference both rely on
# ---------------------------------------------------------------------------

#: Every aggregate: the registry, the generic lattice folds, and the two
#: parametric ones (their values are sets).
EVERY = dict(ALL_FUNCTIONS)
EVERY["union"] = Union(range(4))
EVERY["intersection"] = Intersection(range(4))

#: The extrema and the lattice folds keep the first of Python-equal values
#: of different types (``1``/``1.0``, ``0``/``-0.0``; ROADMAP item 15), so
#: for them an order changes the type, not the value.
FIRST_OF_EQUALS = {
    "max", "max_ge", "max_nonneg", "min", "min_le", "join_reals_ge", "meet_bool_le",
}  # fmt: skip

#: Duplicates, a bool beside an equal int (1 == True), both zeros, both
#: infinities, a subnormal, an integer above 2**53 and a float near the top
#: of the range; each aggregate draws the ones its domain accepts.
SCALARS = [0, 1, 2, -3, 2.5, 0.1, True, False, 0.0, -0.0, math.inf, -math.inf]
SCALARS += [5e-324, 2**60 + 1, 1e300]
SETS = [frozenset(), frozenset({1}), frozenset({True}), frozenset({1, 2}), frozenset({0, 3})]


def _outcome(thunk):
    """What ``thunk`` gives, compared with ``==`` and ``type()`` (and a
    float by its ``repr``, so ``-0.0`` and NaN are told apart exactly), or
    the type of the exception it raises."""
    try:
        value = thunk()
    except Exception as error:  # noqa: BLE001 - the type is the outcome
        return ("raises", type(error))
    return ("value", type(value), repr(value) if isinstance(value, float) else value)


@settings(max_examples=examples(200), deadline=None)
@given(st.data())
def test_every_aggregate_is_independent_of_the_order_of_its_values(data):
    """``F`` of a list of values, with repetition, and ``F`` of any
    permutation of it are the same: equal, of one type, one float."""
    name = data.draw(st.sampled_from(sorted(EVERY)))
    fn = EVERY[name]
    pool = [v for v in SCALARS + SETS if v in fn.domain]
    values = data.draw(st.lists(st.sampled_from(pool), max_size=8))
    permuted = data.draw(st.permutations(values))
    if name in FIRST_OF_EQUALS:
        assert fn(values) == fn(permuted), (name, values, permuted)
    else:
        assert _outcome(lambda: fn(values)) == _outcome(lambda: fn(permuted)), (
            name, values, permuted,
        )  # fmt: skip


@pytest.mark.parametrize("method", ["__call__", "fold", "apply_nonempty"])
def test_a_subclass_that_redefines_evaluation_is_refused(method):
    def redefined(self, values):
        return Minimum.__call__(self, values)

    with pytest.raises(TypeError, match=f"redefines {method}"):
        type("Picky", (Minimum,), {method: redefined})

    class Renamed(Minimum):  # the two-phase interface may be redefined
        name = "renamed_min"

        def process(self, state, value):
            return super().process(state, value)

    assert Renamed()([3, 1, 2]) == 1
