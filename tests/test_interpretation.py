"""Interpretations: the complete lattice of Theorem 3.1, FD enforcement,
default-value cores."""

import math
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.api import solve_program
from repro.datalog.errors import CostConsistencyError, ProgramError
from repro.datalog.parser import parse_program
from repro.datalog.program import PredicateDecl
from repro.engine import interpretation
from repro.engine.interpretation import (
    _COLUMN_MIN,
    IndexStats,
    Interpretation,
    Relation,
    delta_counts,
    use_index_stats,
)
from repro.lattices import (
    BOOL_LE,
    INF,
    NONNEG_REALS_LE,
    REALS_GE,
    REALS_LE,
    DescendingReals,
    PowersetUnion,
)
from repro.lattices.base import Lattice, LatticeValueError
from repro.testing import (
    Fault,
    FaultInjected,
    FaultPlan,
    check_relation_indexes,
    inject,
)
from tests.conftest import examples
from tests.reference_write import join_rows as reference_join_rows

DECLS = {
    "edge": PredicateDecl("edge", 2),
    "s": PredicateDecl("s", 3, REALS_GE),
    "t": PredicateDecl("t", 2, BOOL_LE, has_default=True),
}


def interp(**facts):
    out = Interpretation(DECLS)
    for predicate, rows in facts.items():
        for row in rows:
            out.add_fact(predicate, *row)
    return out


class TestBasics:
    def test_add_and_read_ordinary(self):
        i = interp(edge=[("a", "b")])
        assert i["edge"] == {("a", "b")}

    def test_add_and_read_cost(self):
        i = interp(s=[("a", "b", 3)])
        assert i["s"] == {("a", "b"): 3}

    def test_arity_checked(self):
        with pytest.raises(ProgramError):
            interp(edge=[("a",)])

    def test_cost_value_validated(self):
        with pytest.raises(Exception):
            interp(s=[("a", "b", "not-a-number")])

    def test_unknown_predicate(self):
        with pytest.raises(ProgramError):
            Interpretation(DECLS).relation("mystery")

    def test_fd_conflict_raises(self):
        i = interp(s=[("a", "b", 3)])
        with pytest.raises(CostConsistencyError):
            i.add_fact("s", "a", "b", 4)

    def test_fd_same_value_idempotent(self):
        i = interp(s=[("a", "b", 3)])
        assert not i.add_fact("s", "a", "b", 3)

    def test_nonstrict_joins(self):
        i = interp(s=[("a", "b", 3)])
        i.relation("s").join_rows([("a", "b", 2)])
        assert i["s"][("a", "b")] == 2  # join under ≥ is numeric min


class TestDefaults:
    def test_default_read_without_storage(self):
        i = interp()
        assert i.relation("t").cost_of(("w",)) == 0

    def test_bottom_values_not_stored(self):
        i = interp()
        assert not i.add_fact("t", "w", 0)
        assert i["t"] == {}

    def test_non_default_values_stored(self):
        i = interp(t=[("w", 1)])
        assert i["t"] == {("w",): 1}

    def test_non_default_predicate_absent_reads_none(self):
        i = interp()
        assert i.relation("s").cost_of(("a", "b")) is None


#: Rows of each predicate of ``DECLS``: two key letters, and costs that
#: compare equal across types (``1`` and ``1.0``).
ROWS = {
    "edge": st.tuples(st.sampled_from("ab"), st.sampled_from("ab")),
    "s": st.tuples(
        st.sampled_from("ab"), st.sampled_from("ab"), st.sampled_from([0, 1, 1.0, 2.5])
    ),
    "t": st.tuples(st.sampled_from("ab"), st.sampled_from([0, 1])),
}


class TestKeyedLookup:
    """``lookup`` on positions that bind a relation's whole key reads the
    relation's own map: the rows a filtered scan finds (core or default,
    for a default-value predicate), counted as one hit (a default read is
    not counted), and no index is built."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_the_rows_a_scan_finds_without_an_index(self, data):
        name = data.draw(st.sampled_from(sorted(DECLS)))
        decl = DECLS[name]
        rel = Relation.empty(decl)
        rel.join_rows(data.draw(st.lists(ROWS[name], max_size=6)))
        probe = data.draw(ROWS[name])
        k = decl.key_arity
        positions = tuple(range(k))
        if decl.is_cost_predicate and data.draw(st.booleans()):
            positions += (k,)  # the cost bound too
        key = probe[:k]
        rows = [key + (rel.cost_of(key),)] if decl.has_default else rel.rows()
        expected = [row for row in rows if all(row[p] == probe[p] for p in positions)]
        with use_index_stats(IndexStats()) as stats:
            found = rel.lookup(positions, tuple(probe[p] for p in positions))
        assert list(found) == expected
        assert rel._indexes == {}
        assert (stats.hits, stats.misses, stats.builds, stats.scans) == (
            0 if decl.has_default else 1, 0, 0, 0
        )


class TestOrder:
    def test_reflexive(self):
        i = interp(s=[("a", "b", 3)], edge=[("x", "y")])
        assert i.leq(i)

    def test_cost_order_uses_lattice(self):
        low = interp(s=[("a", "b", 5)])
        high = interp(s=[("a", "b", 3)])  # numerically smaller = ⊑-greater
        assert low.leq(high)
        assert not high.leq(low)

    def test_missing_key_breaks_order(self):
        some = interp(s=[("a", "b", 3)])
        empty = interp()
        assert empty.leq(some)
        assert not some.leq(empty)

    def test_default_keys_absorb(self):
        # t(w)=0 is implicit, so {t(w):1} dominates the empty core.
        low = interp()
        high = interp(t=[("w", 1)])
        assert low.leq(high)
        assert not high.leq(low)

    def test_ordinary_tuples_by_inclusion(self):
        small = interp(edge=[("a", "b")])
        large = interp(edge=[("a", "b"), ("b", "c")])
        assert small.leq(large)
        assert not large.leq(small)


class TestJoinMeet:
    def test_join_takes_lub_per_key(self):
        a = interp(s=[("a", "b", 5), ("x", "y", 1)])
        b = interp(s=[("a", "b", 3)])
        joined = a.join(b)
        assert joined["s"] == {("a", "b"): 3, ("x", "y"): 1}

    def test_meet_intersects_non_default_keys(self):
        a = interp(s=[("a", "b", 5), ("x", "y", 1)])
        b = interp(s=[("a", "b", 3)])
        met = a.meet(b)
        assert met["s"] == {("a", "b"): 5}

    def test_meet_default_drops_to_core(self):
        a = interp(t=[("w", 1)])
        b = interp()
        met = a.meet(b)
        assert met["t"] == {}  # meet(1, default 0) = 0 = not in core

    def test_join_is_upper_bound(self):
        a = interp(s=[("a", "b", 5)], edge=[("p", "q")])
        b = interp(s=[("a", "b", 3), ("c", "d", 2)])
        joined = a.join(b)
        assert a.leq(joined) and b.leq(joined)

    def test_meet_is_lower_bound(self):
        a = interp(s=[("a", "b", 5)], edge=[("p", "q")])
        b = interp(s=[("a", "b", 3), ("c", "d", 2)])
        met = a.meet(b)
        assert met.leq(a) and met.leq(b)


class TestAbsorb:
    """``absorb`` is ``join`` in place: adopt into empty, join otherwise."""

    def test_equals_join(self):
        a = interp(s=[("a", "b", 5), ("x", "y", 1)], edge=[("p", "q")])
        b = interp(s=[("a", "b", 3), ("c", "d", 2)], t=[("w", 1)])
        expected = a.join(b)
        a.absorb(b)
        assert a == expected

    def test_empty_target_adopts_the_relation_with_its_indexes(self):
        state = interp(edge=[("p", "q")])
        component = interp(s=[("a", "b", 5)])
        rel = component.relation("s")
        rel.lookup((0,), ("a",))  # a warm index
        state.absorb(component)
        assert state.relation("s") is rel
        assert (0,) in state.relation("s")._indexes
        assert state.relation("edge") is not component.relation("edge")

    def test_non_empty_target_joins_and_keeps_its_own_relation(self):
        state = interp(s=[("a", "b", 5)])
        own = state.relation("s")
        own.lookup((0,), ("a",))
        component = interp(s=[("a", "b", 3), ("a", "c", 1)])
        state.absorb(component)
        assert state.relation("s") is own
        assert sorted(own.lookup((0,), ("a",))) == [("a", "b", 3), ("a", "c", 1)]
        assert component["s"] == {("a", "b"): 3, ("a", "c"): 1}


values = st.integers(0, 5)
keys = st.sampled_from([("a", "b"), ("b", "c"), ("c", "a")])
cost_maps = st.dictionaries(keys, values, max_size=3)


def from_map(mapping):
    out = Interpretation(DECLS)
    for key, value in mapping.items():
        out.add_fact("s", *key, value)
    return out


class TestLatticeLawsRandom:
    """Theorem 3.1 on randomly generated interpretations."""

    @settings(max_examples=50)
    @given(cost_maps, cost_maps)
    def test_join_least_upper_bound(self, m1, m2):
        a, b = from_map(m1), from_map(m2)
        j = a.join(b)
        assert a.leq(j) and b.leq(j)

    @settings(max_examples=50)
    @given(cost_maps, cost_maps)
    def test_meet_greatest_lower_bound(self, m1, m2):
        a, b = from_map(m1), from_map(m2)
        m = a.meet(b)
        assert m.leq(a) and m.leq(b)

    @settings(max_examples=50)
    @given(cost_maps, cost_maps)
    def test_absorption(self, m1, m2):
        a, b = from_map(m1), from_map(m2)
        assert a.join(a.meet(b)) == a
        assert a.meet(a.join(b)) == a

    @settings(max_examples=50)
    @given(cost_maps, cost_maps)
    def test_commutativity(self, m1, m2):
        a, b = from_map(m1), from_map(m2)
        assert a.join(b) == b.join(a)
        assert a.meet(b) == b.meet(a)

    @settings(max_examples=50)
    @given(cost_maps, cost_maps)
    def test_antisymmetry(self, m1, m2):
        a, b = from_map(m1), from_map(m2)
        if a.leq(b) and b.leq(a):
            assert a == b


nodes = st.sampled_from("abc")
#: Rows for every predicate of ``DECLS``; ``t``'s 0 is its default.
contents = st.fixed_dictionaries(
    {
        "edge": st.lists(st.tuples(nodes, nodes), max_size=3),
        "s": st.lists(st.tuples(nodes, nodes, st.integers(0, 5)), max_size=3),
        "t": st.lists(st.tuples(nodes, st.integers(0, 1)), max_size=2),
    }
)
held = st.sets(st.sampled_from(sorted(DECLS)))


def holding(names, atoms):
    """An interpretation holding the relations of ``names`` only, with
    the rows ``atoms`` gives for them joined in."""
    out = Interpretation({name: DECLS[name] for name in names})
    for name in names:
        out.relation(name).join_rows(atoms.get(name, []))
    return out


@settings(max_examples=150, deadline=None)
@given(held, contents, held, contents, held)
def test_an_absent_relation_reads_as_empty(held_a, rows_a, held_b, rows_b, wider):
    """Every lattice operation, ``==`` and ``fingerprint`` agree that an
    absent relation is the empty relation of its predicate."""
    atoms_a = {name: rows_a[name] for name in held_a}
    atoms_b = {name: rows_b[name] for name in held_b}
    a, b = holding(held_a, atoms_a), holding(held_b, atoms_b)
    full_a, full_b = holding(DECLS, atoms_a), holding(DECLS, atoms_b)
    # The same atoms over more (empty) relations.
    a_wide = holding(held_a | wider, atoms_a)
    for x, y in ((a, b), (a, full_a), (a, a_wide), (full_a, b), (a_wide, full_b)):
        assert (x == y) == (x.leq(y) and y.leq(x))
        if x == y:
            assert x.fingerprint() == y.fingerprint()
    assert a == full_a == a_wide
    assert a.leq(b) == full_a.leq(full_b)
    assert a.join(b) == full_a.join(full_b)
    assert a.meet(b) == full_a.meet(full_b)
    absorbed = a.copy()
    absorbed.absorb(b)
    assert absorbed == full_a.join(full_b)


class TestMisc:
    def test_copy_is_independent(self):
        a = interp(s=[("a", "b", 3)])
        b = a.copy()
        b.add_fact("s", "x", "y", 1)
        assert ("x", "y") not in a["s"]

    def test_copy_starts_cold(self):
        a = interp(edge=[("a", "b"), ("a", "c")])
        rel = a.relation("edge")
        rel.index_for((0,))
        cold = rel.copy()
        assert not cold._indexes
        assert sorted(cold.index_for((0,))[("a",)]) == [("a", "b"), ("a", "c")]

    def test_empty_join_rows_keeps_indexes(self):
        rel = interp(edge=[("a", "b"), ("a", "c")]).relation("edge")
        index = rel.index_for((0,))
        stats = IndexStats()
        with use_index_stats(stats):
            assert rel.join_rows([]) == []
            assert rel.join_rows(iter(())) == []
            assert rel.join_rows(set()) == []
            assert rel.index_for((0,)) is index
        assert rel._indexes == {(0,): index}
        assert stats.snapshot() == IndexStats().snapshot()

    def test_index_update_fault_in_add_fact_leaves_no_torn_index(self):
        i = interp(s=[("a", "b", 3)])
        rel = i.relation("s")
        rel.lookup((0,), ("a",))
        plan = FaultPlan([Fault("index_update")])
        with inject(plan), pytest.raises(FaultInjected):
            i.add_fact("s", "a", "c", 1)
        assert plan.touched_relations() == [rel]
        assert rel.costs == {("a", "b"): 3, ("a", "c"): 1}  # the write stays
        assert check_relation_indexes(rel) == []
        assert sorted(rel.lookup((0,), ("a",))) == [("a", "b", 3), ("a", "c", 1)]

    def test_index_update_fault_in_meet_leaves_no_torn_index(self):
        a = interp(edge=[("a", "b"), ("c", "d")], s=[("a", "b", 5)])
        b = interp(edge=[("a", "b"), ("c", "d")], s=[("a", "b", 3)])
        plan = FaultPlan([Fault("index_update", at=2)])
        with inject(plan), pytest.raises(FaultInjected):
            a.meet(b)
        (rel,) = plan.touched_relations()
        assert rel.decl.name == "edge" and len(rel) == 2
        assert check_relation_indexes(rel) == []

    def test_fingerprint_changes_with_content(self):
        a = interp(s=[("a", "b", 3)])
        b = interp(s=[("a", "b", 4)])
        assert a.fingerprint() != b.fingerprint()
        assert a.fingerprint() == interp(s=[("a", "b", 3)]).fingerprint()

    def test_str_renders_rows(self):
        text = str(interp(s=[("a", "b", 3)], edge=[("x", "y")]))
        assert "s('a', 'b', 3)" in text
        assert "edge('x', 'y')" in text

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(interp())


# -- the bulk mutator ----------------------------------------------------------

#: What no numeric lattice holds, each defeating a column-wide check in its
#: own way: ``True`` *is* an ``int``, NaN *is* a ``float``, a ``Fraction``
#: compares and sums like a number.
NOT_REAL = (True, float("nan"), Fraction(1, 2), "x")

JOIN_ROWS_DECLS = """
    @pred e/2.
    @cost c/2 : reals_ge.
    @default t/2 : naturals_le.
"""
_small = st.integers(0, 3)
JOIN_ROWS_BATCHES = {
    "e": st.lists(st.tuples(_small, st.sampled_from(["a", "b", 1, 1.0]))),
    "c": st.lists(
        st.tuples(
            _small,
            st.one_of(
                st.sampled_from([0, 1, 2.5, 7.0]),
                st.sampled_from([0, 1, 2.5, 7.0, INF, *NOT_REAL]),
            ),
        )
    ),
    # 0 = the default; naturals_le has no floats but INF, no negatives
    "t": st.lists(
        st.tuples(
            _small,
            st.one_of(
                st.integers(0, 3),
                st.sampled_from([0, 1, 2, INF, -1, 2.0, *NOT_REAL]),
            ),
        )
    ),
}


@settings(max_examples=60, deadline=None)
@given(
    predicate=st.sampled_from(sorted(JOIN_ROWS_BATCHES)),
    data=st.data(),
    strict=st.booleans(),
)
def test_join_rows_agrees_with_a_container_oracle(predicate, data, strict):
    """``join_rows`` == a plain ``set`` / ``dict`` written row by row
    with ``validate`` and ``lattice.join``: same changed-row lists
    (values as stored after joining), same contents, same error at the
    same row, and live indexes equal to a rebuild — over
    an ordinary, a cost and a default-value predicate."""
    decl = parse_program(JOIN_ROWS_DECLS).declarations[predicate]
    lattice = decl.lattice
    batches = data.draw(st.lists(JOIN_ROWS_BATCHES[predicate], max_size=3))

    def oracle(state, rows):
        changed = []
        for row in rows:
            if lattice is None:
                if row not in state:
                    state.add(row)
                    changed.append(row)
                continue
            key, value = row[:-1], row[-1]
            lattice.validate(value)
            existing = state.get(key)
            if decl.has_default and value == lattice.bottom:
                if strict and existing is not None and existing != value:
                    raise CostConsistencyError(
                        f"{decl.name}{key}: derived both "
                        f"{existing!r} and default {value!r}"
                    )
                continue
            if existing is not None:
                if existing == value:
                    continue
                if strict:
                    raise CostConsistencyError(
                        f"{decl.name}{key}: derived both {existing!r} and "
                        f"{value!r} in one T_P application"
                    )
                value = lattice.join(existing, value)
                if value == existing:
                    continue
            state[key] = value
            changed.append(key + (value,))
        return changed

    def outcome(write):
        try:
            return write()
        except (CostConsistencyError, LatticeValueError) as error:
            return str(error)

    rel = Relation.empty(decl)
    state = set() if lattice is None else {}
    bulk, reference = [], []
    for rows in batches:
        rel.lookup((0,), (0,))  # keep an index live
        bulk.append(outcome(lambda: rel.join_rows(rows, strict=strict)))
        reference.append(outcome(lambda: oracle(state, rows)))
        assert check_relation_indexes(rel) == []
    assert repr(bulk) == repr(reference)
    expected = state if lattice is None else [k + (v,) for k, v in state.items()]
    assert sorted(map(repr, rel.rows())) == sorted(map(repr, expected))


@pytest.mark.parametrize("intruder", NOT_REAL + (-1,), ids=repr)
@pytest.mark.parametrize("at", [0, 3, 19])
def test_join_rows_validates_a_mixed_column_row_by_row(intruder, at, monkeypatch):
    """One decision per call only for a column the lattice accepts
    whole.  With one bool / NaN / ``Fraction`` / string / out-of-range
    value anywhere in it, every row is validated on its own, so the
    offending row raises what ``validate`` raises, with exactly the rows
    ahead of it applied — as ``add_fact`` row by row leaves them."""
    decl = PredicateDecl("w", 2, NONNEG_REALS_LE)
    rows = [(i, float(i)) for i in range(20)]
    rows[at] = (at, intruder)
    validated = []
    monkeypatch.setattr(
        NONNEG_REALS_LE,
        "validate",
        lambda value: validated.append(value) or Lattice.validate(NONNEG_REALS_LE, value),
        raising=False,
    )
    rel = Relation.empty(decl)
    with pytest.raises(LatticeValueError) as bulk:
        rel.join_rows(rows)
    assert repr(validated) == repr([value for _, value in rows[: at + 1]])

    reference = Interpretation({"w": decl})
    with pytest.raises(LatticeValueError) as single:
        for row in rows:
            reference.add_fact("w", *row)
    assert str(bulk.value) == str(single.value)
    assert list(rel.rows()) == list(reference.relation("w").rows()) == rows[:at]

    # ... whereas a clean list is decided once — unless it is an
    # iterator, or too short for three passes to beat a call per row.
    del validated[:]
    clean = [(i, float(i)) for i in range(20)]
    assert Relation.empty(decl).join_rows(clean) == clean
    assert validated == []
    assert Relation.empty(decl).join_rows(iter(clean)) == clean
    assert validated == [value for _, value in clean]
    short = clean[: _COLUMN_MIN - 1]
    assert Relation.empty(decl).join_rows(short) == short
    assert validated == [value for _, value in clean + short]


# -- the bulk write against the row-at-a-time reference ----------------------------

NAN = float("nan")


class PickyMin(DescendingReals):
    """``reals_ge`` whose lub refuses 13: a raising lub on a column that
    ``accepts_all`` takes whole."""

    name = "picky_min"

    def join(self, a, b):
        if 13 in (a, b):
            raise ArithmeticError(f"no lub of {a!r} and {b!r}")
        return super().join(a, b)


_NUMBERS = [0, 1, 2.5, 7.0, 13, INF, 0.0, -0.0]
_SETS = [frozenset(), frozenset("a"), frozenset("ab"), frozenset("abc")]
#: lattice -> (values it holds, values it rejects).
WRITE_LATTICES = {
    "min": (REALS_GE, _NUMBERS, [True, NAN, Fraction(1, 2), "x"]),
    "max": (REALS_LE, _NUMBERS, [True, NAN, "x"]),
    "sum": (NONNEG_REALS_LE, _NUMBERS, [-1, True, NAN]),
    "bool": (BOOL_LE, [0, 1, True, False, 0.0, 1.0], [2, -1, "x"]),
    "powerset": (PowersetUnion("abc"), _SETS, [frozenset("z"), "a"]),
    "picky": (PickyMin(), _NUMBERS, [NAN]),
}
_KEY_PART = st.one_of(
    st.integers(0, 40), st.sampled_from([True, 1, 1.0, 0.0, -0.0, NAN, "a"])
)
#: An equal constant of another type or sign: ``1 == 1.0 == True``,
#: ``0 == -0.0 == 0.0 == False``.
_TWIN = {"1": 1.0, "1.0": True, "True": 1, "0": -0.0, "-0.0": 0.0, "0.0": False}


def write_decl(draw, bulk):
    """A relation to write: ordinary, or cost over one of
    :data:`WRITE_LATTICES`; ``bulk``: mostly one the bulk write takes."""
    lattices = [*WRITE_LATTICES, None]
    if bulk:
        lattices = [name for name in lattices if name not in ("bool", "powerset")]
    lattice = draw(st.sampled_from(lattices))
    key_arity = draw(st.sampled_from([1, 2] if bulk or not lattice else [1, 2, 0]))
    if lattice is None:
        return PredicateDecl("e", key_arity)
    defaults = [False, False, True] if bulk else [False, True]
    has_default = draw(st.sampled_from(defaults), label="default")
    return PredicateDecl("c", key_arity + 1, WRITE_LATTICES[lattice][0], has_default)


def key_pool(draw, key_arity):
    """The keys one relation's batches draw from: more distinct keys
    than a batch holds, so batches overlap, plus equal twins of some."""
    if not key_arity:
        return [()]
    pool = draw(
        st.lists(
            st.tuples(*[_KEY_PART] * key_arity),
            min_size=_COLUMN_MIN + 6,
            max_size=_COLUMN_MIN + 12,
            unique=True,
        ),
        label="keys",
    )
    twins = draw(st.lists(st.sampled_from(pool), max_size=6), label="twinned")
    return pool + [tuple(_TWIN.get(repr(part), part) for part in key) for key in twins]


def write_batch(draw, decl, pool, bulk):
    """A batch around ``_COLUMN_MIN`` or short of it, its keys repeating
    or not, its cost column clean or not; ``bulk``: long and clean."""
    sizes = [(_COLUMN_MIN - 2, _COLUMN_MIN + 6)] + ([] if bulk else [(0, 3)])
    low, high = draw(st.sampled_from(sizes))
    if decl.key_arity and draw(st.sampled_from([True, True, False]), label="unique"):
        distinct = list(dict.fromkeys(draw(st.permutations(pool))))  # twins: one each
        keys = distinct[: draw(st.integers(low, min(high, len(distinct))))]
    else:
        keys = draw(st.lists(st.sampled_from(pool), min_size=low, max_size=high))
    if decl.lattice is None:
        return keys
    _, held, rejected = next(
        entry for entry in WRITE_LATTICES.values() if entry[0] is decl.lattice
    )
    clean = bulk or draw(st.booleans(), label="clean")
    values = st.sampled_from(held if clean else held + rejected)
    costs = draw(st.lists(values, min_size=len(keys), max_size=len(keys)))
    return [key + (cost,) for key, cost in zip(keys, costs)]


def _write_outcome(write):
    try:
        return ("ok", repr(write()))
    except Exception as error:  # the type and message must agree
        return ("raised", type(error).__name__, str(error))


def _containers(rel):
    return sorted(map(repr, rel.tuples)), repr(rel.costs), repr(rel._indexes)


@settings(max_examples=examples(150), deadline=None)
@given(data=st.data())
def test_join_rows_agrees_with_the_row_at_a_time_reference(data):
    """The bulk ``join_rows`` against the loop it replaced
    (``tests/reference_write.py``), batch after batch on one relation:
    the same changed rows, the same stored keys and values — their types
    and the dict's order included — the same live indexes, and the same
    exception, type and message, with the same rows applied before it.
    Batches straddle ``_COLUMN_MIN`` and hold repeated keys,
    ``True``/``1``/``1.0``, ``±0.0`` and NaN; they are written as lists,
    as iterators, under a live index, under an active ``index_update``
    seam (which may fire), and — when ``accepts_all`` takes the cost
    column — through the CSV loader's keyed write."""
    # Half the examples stay where the bulk write applies: strict lists.
    bulk = data.draw(st.booleans(), label="bulk")
    strict = data.draw(st.sampled_from([True, True, False] if bulk else [True, False]))
    decl = write_decl(data.draw, bulk)
    mine, reference = Relation.empty(decl), Relation.empty(decl)
    pool = key_pool(data.draw, decl.key_arity)
    modes = ["list", "keyed", "index", "seam"] + (["list"] if bulk else ["iter"])
    # Short slices put slice boundaries inside a batch.
    slice_rows = data.draw(st.sampled_from([interpretation._SLICE, 5]), label="slice")
    with patch.object(interpretation, "_SLICE", slice_rows):
        for _ in range(data.draw(st.integers(2, 4), label="batches")):
            rows = write_batch(data.draw, decl, pool, bulk)
            mode = data.draw(st.sampled_from(modes), label="mode")
            keys, values = None, [row[-1] for row in rows]
            if mode == "index":
                for rel in (mine, reference):
                    rel.index_for((decl.arity - 1,))
            elif mode == "keyed" and strict and decl.lattice:
                if decl.lattice.accepts_all(values):
                    keys = [row[:-1] for row in rows]

            def write():
                if keys is not None:  # as the CSV loader writes: rows built lazily
                    lazy = (key + (value,) for key, value in zip(keys, values))
                    return list(mine._join_keyed(keys, values, lazy, None))
                batch = iter(rows) if mode == "iter" else rows
                return mine.join_rows(batch, strict=strict)

            def reference_write():
                return reference_join_rows(reference, rows, strict=strict)

            if mode == "seam":
                at = data.draw(st.integers(1, 2 * _COLUMN_MIN), label="fault at")
                with inject(FaultPlan([Fault("index_update", at=at)])):
                    got = _write_outcome(write)
                with inject(FaultPlan([Fault("index_update", at=at)])):
                    want = _write_outcome(reference_write)
            else:
                got, want = _write_outcome(write), _write_outcome(reference_write)
            assert got == want
            assert _containers(mine) == _containers(reference)


def test_mixed_type_constants_naive_equals_seminaive():
    # Constants of every kind, plus cross-type numeric collisions
    # (1 vs 1.0) that set/dict semantics must resolve the same way under
    # both evaluators; rows compare through ``repr`` so ``1 == 1.0``
    # cannot mask a type drift.
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
    models = []
    for method in ("naive", "seminaive"):
        result = solve_program(source, facts, method=method)
        assert result.status == "complete"
        models.append(
            sorted(
                (name, sorted(map(repr, rel.rows())))
                for name, rel in result.model.relations.items()
            )
        )
    assert models[0] == models[1]
    assert dict(models[0])["reach"] == sorted(
        map(repr, [(1,), ("a",), (2,), (1 << 70,), ("ü",)])
    )


# -- the set-difference checks against the per-key definitions --------------------


def _reference_leq(a, b):
    """``a ⊑ b`` by the per-key definition: every stored entry read."""
    for name, rel in a._held().items():
        other_rel = b._read(name, rel.decl)
        if rel.is_cost:
            for key, value in rel.costs.items():
                other_value = other_rel.cost_of(key)
                if other_value is None or not rel.decl.lattice.leq(value, other_value):
                    return False
        elif not rel.tuples <= other_rel.tuples:
            return False
    return True


def _reference_join(a, b):
    """``a ⊔ b`` by the per-key definition: every row of ``b`` joined in."""
    out = a.copy()
    for name, rel in b.relations.items():
        if len(rel):
            target = out.relations.get(name)
            if target is None:
                target = out.relations[name] = Relation.empty(rel.decl)
            target.join_rows(list(rel.rows()))
    return out


def _reference_delta_counts(old, new):
    """``delta_counts`` by the per-key definition: one probe per cost key."""
    new_atoms = changed = 0
    for name, rel in new.relations.items():
        old_rel = old._read(name, rel.decl)
        new_atoms += len(rel.tuples - old_rel.tuples)
        for key, value in rel.costs.items():
            existing = old_rel.costs.get(key)
            if existing is None:
                new_atoms += 1
            elif existing != value:
                changed += 1
    return new_atoms, changed


#: Values equal across types (``1 == 1.0``, ``0 == 0.0 == -0.0``, ``w``'s
#: default is ``0``), a default-value bool, and a set-valued lattice.
TWIN_DECLS = {
    "edge": PredicateDecl("edge", 2),
    "s": PredicateDecl("s", 2, REALS_GE),
    "w": PredicateDecl("w", 2, NONNEG_REALS_LE, has_default=True),
    "t": PredicateDecl("t", 2, BOOL_LE, has_default=True),
    "u": PredicateDecl("u", 2, PowersetUnion("abc")),
}
twins = st.sampled_from([0, 0.0, -0.0, 1, 1.0, 2, 2.5])
twin_rows = st.fixed_dictionaries(
    {
        "edge": st.lists(st.tuples(nodes, nodes), max_size=4),
        "s": st.lists(st.tuples(nodes, twins), max_size=4),
        "w": st.lists(st.tuples(nodes, twins), max_size=4),
        "t": st.lists(st.tuples(nodes, st.integers(0, 1)), max_size=3),
        "u": st.lists(st.tuples(nodes, st.frozensets(nodes)), max_size=4),
    }
)
twin_held = st.sets(st.sampled_from(sorted(TWIN_DECLS)))


def twin_interp(names, rows):
    out = Interpretation({name: TWIN_DECLS[name] for name in names})
    for name in names:
        out.relation(name).join_rows(rows[name])
    return out


def exactly(i):
    """``i``'s held entries with each value's type and float sign, so
    ``1`` vs ``1.0`` or ``0.0`` vs ``-0.0`` cannot hide behind ``==``."""
    def tag(v):
        return type(v), v, math.copysign(1, v) if type(v) is float else 0

    return {
        name: (rel.tuples, {key: tag(v) for key, v in rel.costs.items()})
        for name, rel in i._held().items()
    }


@settings(max_examples=examples(150), deadline=None)
@given(twin_held, twin_rows, twin_held, twin_rows, st.booleans())
def test_set_difference_checks_match_the_per_key_definitions(
    held_a, rows_a, held_b, rows_b, above
):
    a, b = twin_interp(held_a, rows_a), twin_interp(held_b, rows_b)
    if above:  # make ``a ⊑ b`` likely, the Kleene chain's common case
        b = _reference_join(a, b)
    for x, y in ((a, b), (b, a), (a, a)):
        assert x.leq(y) == _reference_leq(x, y)
        assert exactly(x.join(y)) == exactly(_reference_join(x, y))
        assert delta_counts(x, y) == _reference_delta_counts(x, y)


@settings(max_examples=examples(100), deadline=None)
@given(twin_rows, st.randoms(use_true_random=False))
def test_fingerprint_ignores_insertion_order(rows, rng):
    names = sorted(TWIN_DECLS)
    shuffled = {name: rng.sample(rows[name], len(rows[name])) for name in names}
    a = twin_interp(names, rows)
    b = twin_interp(list(reversed(names)), shuffled)
    # Equal, not identical: a shuffled lub may store ``1.0`` for ``1``.
    assert a == b
    assert a.fingerprint() == b.fingerprint()
