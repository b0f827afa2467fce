"""Concrete lattices: orders, bounds, joins/meets, membership (Figure 1)."""

from decimal import Decimal
from fractions import Fraction

import pytest

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
    BoundedReals,
    EdgeMultisets,
    LatticeValueError,
    PowersetIntersection,
    PowersetUnion,
)
from repro.util.multiset import FrozenMultiset


class _Int(int):
    pass


class _Float(float):
    pass


class TestNumericMembershipPinned:
    """``x in lattice`` for every numeric lattice, pinned value by value
    (``_is_real`` answers exact ``int``/``float`` before its
    ``isinstance`` probes; subclasses and look-alikes take those)."""

    VALUES = [
        True, False, float("nan"), _Float("nan"), INF, NEG_INF,
        0, 1, -1, 2.5, -2.5, 0.5,
        _Int(3), _Int(-3), _Float(2.5), _Float(-2.5),
        Fraction(1, 2), Decimal("1.5"), "1", None,
    ]  # fmt: skip
    T, F = True, False
    EXPECTED = {
        REALS_LE: [F, F, F, F, T, T, T, T, T, T, T, T, T, T, T, T, F, F, F, F],
        REALS_GE: [F, F, F, F, T, T, T, T, T, T, T, T, T, T, T, T, F, F, F, F],
        NONNEG_REALS_LE: [F, F, F, F, T, F, T, T, F, T, F, T, T, F, T, F, F, F, F, F],
        POS_INTS_LE: [F, F, F, F, T, F, F, T, F, F, F, F, T, F, F, F, F, F, F, F],
        NATURALS_LE: [F, F, F, F, T, F, T, T, F, F, F, F, T, F, F, F, F, F, F, F],
        BoundedReals(0, 1): [F, F, F, F, F, F, T, T, F, F, F, T, F, F, F, F, F, F, F, F],
    }  # fmt: skip

    @pytest.mark.parametrize("lattice", list(EXPECTED), ids=lambda l: l.name)
    def test_membership_table(self, lattice):
        assert [v in lattice for v in self.VALUES] == self.EXPECTED[lattice]

    @pytest.mark.parametrize("lattice", list(EXPECTED), ids=lambda l: l.name)
    def test_accepts_all_never_outvotes_membership(self, lattice):
        """The column-wide answer is sound — True only if every value is
        a member — over every pair and triple of the pinned values, and
        complete for exact ``int``/``float`` columns of members."""
        members = [v for v in self.VALUES if v in lattice]
        exact = [v for v in members if type(v) in (int, float)]
        if lattice in (POS_INTS_LE, NATURALS_LE):
            exact.remove(INF)  # the one float member: decided one by one
        assert lattice.accepts_all([])
        assert lattice.accepts_all(exact) and exact
        for a in self.VALUES:
            for b in self.VALUES:
                for column in ([a], [a, b], [b, *exact, a]):
                    if lattice.accepts_all(column):
                        assert all(v in lattice for v in column), column

    def test_accepts_all_defaults_to_one_by_one(self):
        for lattice in (BOOL_LE, BOOL_GE, PowersetUnion("ab")):
            assert not lattice.accepts_all([lattice.bottom])


class TestAscendingReals:
    def test_order(self):
        assert REALS_LE.leq(1, 2)
        assert not REALS_LE.leq(2, 1)
        assert REALS_LE.leq(NEG_INF, -1e300)
        assert REALS_LE.leq(1e300, INF)

    def test_bounds(self):
        assert REALS_LE.bottom == NEG_INF
        assert REALS_LE.top == INF

    def test_join_meet(self):
        assert REALS_LE.join(3, 5) == 5
        assert REALS_LE.meet(3, 5) == 3

    def test_join_all_empty_is_bottom(self):
        assert REALS_LE.join_all([]) == NEG_INF

    def test_meet_all_empty_is_top(self):
        assert REALS_LE.meet_all([]) == INF

    def test_membership(self):
        assert 1.5 in REALS_LE
        assert INF in REALS_LE
        assert "x" not in REALS_LE
        assert True not in REALS_LE  # bools are not cost values
        assert float("nan") not in REALS_LE

    def test_validate(self):
        assert REALS_LE.validate(2) == 2
        with pytest.raises(LatticeValueError):
            REALS_LE.validate("two")

    def test_numeric_direction(self):
        assert REALS_LE.numeric_direction == 1


class TestDescendingReals:
    """The min lattice: 'Beware! ⊑ here means ≥' (Example 3.1)."""

    def test_order_reversed(self):
        assert REALS_GE.leq(5, 3)  # 5 ⊑ 3: smaller costs are ⊑-larger
        assert not REALS_GE.leq(3, 5)

    def test_bottom_is_plus_infinity(self):
        assert REALS_GE.bottom == INF
        assert REALS_GE.top == NEG_INF

    def test_join_is_numeric_min(self):
        assert REALS_GE.join(3, 5) == 3
        assert REALS_GE.meet(3, 5) == 5

    def test_join_all_empty(self):
        assert REALS_GE.join_all([]) == INF

    def test_numeric_direction(self):
        assert REALS_GE.numeric_direction == -1

    def test_strict_and_equivalence(self):
        assert REALS_GE.lt(5, 3)
        assert not REALS_GE.lt(3, 3)
        assert REALS_GE.equivalent(3, 3)
        assert REALS_GE.comparable(1, 100)


class TestNonNegativeReals:
    def test_bottom_is_zero(self):
        assert NONNEG_REALS_LE.bottom == 0

    def test_membership_excludes_negative(self):
        assert 0 in NONNEG_REALS_LE
        assert 0.5 in NONNEG_REALS_LE
        assert -0.1 not in NONNEG_REALS_LE


class TestPositiveIntegers:
    def test_bottom_is_one(self):
        assert POS_INTS_LE.bottom == 1

    def test_membership(self):
        assert 1 in POS_INTS_LE
        assert INF in POS_INTS_LE
        assert 0 not in POS_INTS_LE
        assert 1.5 not in POS_INTS_LE


class TestNaturals:
    def test_bottom_is_zero(self):
        assert NATURALS_LE.bottom == 0

    def test_membership(self):
        assert 0 in NATURALS_LE
        assert -1 not in NATURALS_LE
        assert INF in NATURALS_LE


class TestBooleans:
    def test_or_orientation(self):
        assert BOOL_LE.leq(0, 1)
        assert BOOL_LE.bottom == 0
        assert BOOL_LE.join(0, 1) == 1
        assert BOOL_LE.meet(0, 1) == 0

    def test_and_orientation(self):
        assert BOOL_GE.leq(1, 0)  # 1 ⊑ 0 under ≥
        assert BOOL_GE.bottom == 1
        assert BOOL_GE.join(0, 1) == 0
        assert BOOL_GE.meet(0, 1) == 1

    def test_membership(self):
        assert 0 in BOOL_LE and 1 in BOOL_LE
        assert 2 not in BOOL_LE

    def test_directions(self):
        assert BOOL_LE.numeric_direction == 1
        assert BOOL_GE.numeric_direction == -1


class TestBoundedReals:
    def test_bounds(self):
        lat = BoundedReals(0, 1)
        assert lat.bottom == 0
        assert lat.top == 1
        assert 0.5 in lat
        assert 1.5 not in lat

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            BoundedReals(1, 1)

    def test_equality_by_parameters(self):
        assert BoundedReals(0, 1) == BoundedReals(0, 1)
        assert BoundedReals(0, 1) != BoundedReals(0, 2)


class TestPowersets:
    def test_union_order(self):
        lat = PowersetUnion("abc")
        assert lat.leq(frozenset("a"), frozenset("ab"))
        assert lat.bottom == frozenset()
        assert lat.top == frozenset("abc")
        assert lat.join(frozenset("a"), frozenset("b")) == frozenset("ab")
        assert lat.meet(frozenset("ab"), frozenset("bc")) == frozenset("b")

    def test_intersection_order_is_dual(self):
        lat = PowersetIntersection("abc")
        assert lat.leq(frozenset("ab"), frozenset("a"))  # ⊇ order
        assert lat.bottom == frozenset("abc")
        assert lat.top == frozenset()
        assert lat.join(frozenset("ab"), frozenset("bc")) == frozenset("b")

    def test_membership_respects_universe(self):
        lat = PowersetUnion("ab")
        assert frozenset("a") in lat
        assert frozenset("az") not in lat

    def test_mutable_sets_are_not_carrier_values(self):
        # Carrier values are hashable (the Lattice contract).
        for lat in (PowersetUnion("ab"), PowersetIntersection("ab")):
            assert set("a") not in lat
            with pytest.raises(LatticeValueError):
                lat.validate(set("a"))


class TestEdgeMultisets:
    def test_order_is_multiset_inclusion(self):
        lat = EdgeMultisets(["e1", "e2"], max_multiplicity=2)
        a = FrozenMultiset(["e1"])
        b = FrozenMultiset(["e1", "e1", "e2"])
        assert lat.leq(a, b)
        assert not lat.leq(b, a)

    def test_join_meet(self):
        lat = EdgeMultisets(["e1", "e2"], max_multiplicity=3)
        a = FrozenMultiset(["e1", "e1"])
        b = FrozenMultiset(["e1", "e2"])
        assert lat.join(a, b) == FrozenMultiset(["e1", "e1", "e2"])
        assert lat.meet(a, b) == FrozenMultiset(["e1"])

    def test_bounds(self):
        lat = EdgeMultisets(["e"], max_multiplicity=2)
        assert lat.bottom == FrozenMultiset()
        assert lat.top == FrozenMultiset(["e", "e"])

    def test_membership(self):
        lat = EdgeMultisets(["e"], max_multiplicity=1)
        assert FrozenMultiset(["e"]) in lat
        assert FrozenMultiset(["e", "e"]) not in lat
        assert FrozenMultiset(["other"]) not in lat


class TestDivisibility:
    """(N, |): join = lcm, meet = gcd, ⊥ = 1, ⊤ = 0."""

    def setup_method(self):
        from repro.lattices import Divisibility

        self.lat = Divisibility()

    def test_order(self):
        assert self.lat.leq(2, 6)
        assert not self.lat.leq(4, 6)
        assert self.lat.leq(1, 7)       # bottom below everything
        assert self.lat.leq(7, 0)       # top above everything
        assert not self.lat.leq(0, 7)

    def test_join_is_lcm(self):
        assert self.lat.join(4, 6) == 12
        assert self.lat.join(3, 5) == 15
        assert self.lat.join(0, 5) == 0

    def test_meet_is_gcd(self):
        assert self.lat.meet(4, 6) == 2
        assert self.lat.meet(0, 5) == 5  # gcd with the top

    def test_axioms(self):
        from repro.lattices import check_lattice

        assert check_lattice(self.lat).ok

    def test_membership(self):
        assert 0 in self.lat and 7 in self.lat
        assert -1 not in self.lat and 2.5 not in self.lat

    def test_lcm_aggregate_via_lattice_join(self):
        """LatticeJoin over divisibility = the lcm aggregate."""
        from repro.aggregates import LatticeJoin, verify_declared_class
        from repro.util.multiset import FrozenMultiset

        lcm = LatticeJoin(self.lat, name="lcm")
        assert lcm(FrozenMultiset([4, 6, 10])) == 60
        assert lcm(FrozenMultiset()) == 1
        assert all(v.holds for v in verify_declared_class(lcm))

    def test_cycle_length_analysis_end_to_end(self):
        """The stride of a node: lcm of the cycle lengths reaching it."""
        from repro.aggregates import LatticeJoin
        from repro.core.database import Database
        from repro.lattices import Divisibility

        div = Divisibility()
        db = Database()
        db.register_lattice("divisibility", div)
        db.register_aggregate(LatticeJoin(div, name="lcm"))
        db.load(
            """
            @pred feeds/2.
            @cost cyclen/2 : divisibility.
            @cost stride/2 : divisibility default.
            @constraint cyclen(X, L), fed(X).
            stride(X, S) <- cyclen(X, S).
            stride(X, S) <- fed(X), S = lcm{D : feeds(Y, X), stride(Y, D)}.
            fed(X) <- feeds(Y, X).
            """
        )
        # two generators with cycle lengths 4 and 6 both feed a mixer
        db.add_fact("cyclen", "gen4", 4)
        db.add_fact("cyclen", "gen6", 6)
        db.add_fact("feeds", "gen4", "mixer")
        db.add_fact("feeds", "gen6", "mixer")
        db.add_fact("feeds", "mixer", "out")
        result = db.solve()
        stride = {k[0]: v for k, v in result["stride"].items()}
        assert stride["mixer"] == 12
        assert stride["out"] == 12
