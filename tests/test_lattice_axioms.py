"""Complete-lattice axioms (Definition 2.1) for every shipped lattice.

``check_lattice`` verifies reflexivity/antisymmetry/transitivity of ⊑,
⊥ ⊑ x ⊑ ⊤, and the lub/glb laws on samples.  Hypothesis feeds random
samples for the numeric chains; the structured lattices use their built-in
samples plus targeted cases.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lattices import (
    BOOL_GE,
    BOOL_LE,
    INF,
    NATURALS_LE,
    NEG_INF,
    NONNEG_REALS_LE,
    POS_INTS_LE,
    REALS_GE,
    REALS_LE,
    REGISTRY,
    BoundedReals,
    DualLattice,
    EdgeMultisets,
    FiniteChain,
    FlatLattice,
    PowersetIntersection,
    PowersetUnion,
    ProductLattice,
    check_lattice,
)
from tests.conftest import examples

ALL_LATTICES = [
    REALS_LE,
    REALS_GE,
    NONNEG_REALS_LE,
    POS_INTS_LE,
    NATURALS_LE,
    BOOL_LE,
    BOOL_GE,
    BoundedReals(0, 1),
    PowersetUnion("abc"),
    PowersetIntersection("abc"),
    EdgeMultisets(["e1", "e2"], max_multiplicity=2),
    DualLattice(REALS_LE),
    DualLattice(PowersetUnion("ab")),
    FiniteChain([0, 1, 2, 3]),
    FlatLattice(["x", "y", "z"]),
    ProductLattice([BOOL_LE, NATURALS_LE]),
    ProductLattice([REALS_GE, PowersetUnion("ab")]),
]


@pytest.mark.parametrize("lattice", ALL_LATTICES, ids=lambda lat: lat.name)
def test_axioms_on_builtin_sample(lattice):
    report = check_lattice(lattice)
    assert report.ok, str(report.violations[:5])


#: Values that compare equal across types (``1 == 1.0 == True``,
#: ``0.0 == -0.0``): each lattice keeps the ones its carrier admits.
TWINS = [0, 0.0, -0.0, False, 1, 1.0, True, 2, 2.0]

HASHED_LATTICES = {
    **{f"registry:{name}": lattice for name, lattice in REGISTRY.items()},
    "product": ProductLattice([NATURALS_LE, REALS_GE]),
    "flat": FlatLattice([1, "x", frozenset("ab")]),
}


def carrier_samples(lattice):
    values = [lattice.bottom, lattice.top, *(lattice.sample() or ())]
    if isinstance(lattice, ProductLattice):
        twins = [(a, b) for a in TWINS for b in TWINS]
    else:
        twins = TWINS
    return values + [v for v in twins if v in lattice]


@pytest.mark.parametrize("name", sorted(HASHED_LATTICES))
def test_carrier_values_hash_like_equality(name):
    """The hashability contract of :class:`Lattice`: interpretations
    compare and fingerprint carrier values as dict items."""
    lattice = HASHED_LATTICES[name]
    values = carrier_samples(lattice)
    assert len(values) > 2
    for a in values:
        assert a in lattice
        for b in values:
            if a == b:
                assert hash(a) == hash(b), (a, b)
                assert not {"k": a}.items() - {"k": b}.items()


finite_reals = st.one_of(
    st.integers(-50, 50),
    st.floats(
        min_value=-50, max_value=50, allow_nan=False, allow_infinity=False
    ),
    st.just(INF),
    st.just(NEG_INF),
)


@settings(max_examples=examples(30))
@given(st.lists(finite_reals, min_size=1, max_size=5, unique=True))
def test_ascending_reals_axioms_random(sample):
    assert check_lattice(REALS_LE, sample).ok


@settings(max_examples=examples(30))
@given(st.lists(finite_reals, min_size=1, max_size=5, unique=True))
def test_descending_reals_axioms_random(sample):
    assert check_lattice(REALS_GE, sample).ok


@settings(max_examples=examples(30))
@given(
    st.lists(
        st.frozensets(st.sampled_from("abcd")), min_size=1, max_size=5, unique=True
    )
)
def test_powerset_axioms_random(sample):
    assert check_lattice(PowersetUnion("abcd"), sample).ok


@settings(max_examples=examples(30))
@given(
    st.lists(
        st.tuples(st.sampled_from([0, 1]), st.integers(0, 5)),
        min_size=1,
        max_size=4,
        unique=True,
    )
)
def test_product_axioms_random(sample):
    lattice = ProductLattice([BOOL_LE, NATURALS_LE])
    assert check_lattice(lattice, sample).ok


class TestDualInvolution:
    def test_double_dual_behaves_like_original(self):
        double = DualLattice(DualLattice(REALS_GE))
        for a, b in [(1, 2), (2, 1), (3, 3), (NEG_INF, INF)]:
            assert double.leq(a, b) == REALS_GE.leq(a, b)
            assert double.join(a, b) == REALS_GE.join(a, b)
        assert double.bottom == REALS_GE.bottom
        assert double.top == REALS_GE.top

    def test_dual_flips_direction(self):
        assert DualLattice(REALS_LE).numeric_direction == -1
        assert DualLattice(REALS_GE).numeric_direction == 1


class TestFiniteChain:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            FiniteChain([1, 1])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            FiniteChain([])

    def test_unknown_element(self):
        chain = FiniteChain(["lo", "hi"])
        with pytest.raises(KeyError):
            chain.leq("lo", "mystery")


class TestFlatLattice:
    def test_atoms_incomparable(self):
        flat = FlatLattice(["x", "y"])
        assert not flat.leq("x", "y")
        assert not flat.leq("y", "x")
        assert flat.join("x", "y") == flat.top
        assert flat.meet("x", "y") == flat.bottom

    def test_is_not_chain(self):
        assert not FlatLattice(["x", "y"]).is_chain


class TestCheckLatticeDetectsViolations:
    def test_broken_join_is_reported(self):
        class Broken(FiniteChain):
            def join(self, a, b):
                return self.bottom  # deliberately wrong

        report = check_lattice(Broken([0, 1, 2]))
        assert not report.ok
        assert any("upper bound" in v for v in report.violations)
