"""Typed column-major relation storage behind the ``Relation`` API.

A :class:`ColumnarRelation` stores one predicate's extension as
per-argument-position *columns* instead of a set/dict of boxed tuples:

* ``'q'`` — exact machine integers in an ``array('q')`` (``bool`` is
  excluded: it is a distinct value in the model, ``True`` is not ``1``
  for bit-identity purposes, so it takes the boxed fallback);
* ``'d'`` — exact floats in an ``array('d')`` (NaN demotes the column:
  its identity-based membership semantics cannot survive re-boxing);
* ``'s'`` — interned string ids in an ``array('q')``, backed by an
  append-only per-column :class:`_SymbolTable` (shared by reference
  across copies — ids are stable because the table only ever grows);
* ``'o'`` — a plain boxed list, the fallback for columns holding any
  other value kind or a mix of kinds.

A column starts untyped and commits to a kind on its first value; a
later value the kind cannot represent *demotes the whole column* to
boxed — never silently coerced, so the decoded rows are bit-identical
to what the boxed backend stores (``docs/STORAGE.md`` spells out the
rules).  Row membership goes through an open-addressing table of row
ids keyed by the Python hash of the boxed key tuple, so no per-row
tuple objects are retained — that is the memory win.

Everything else — the persistent incremental indexes, the
generation-counted rows cache, apply-or-rollback exception safety,
core-only default-value storage — is *inherited unchanged* from
:class:`~repro.engine.interpretation.Relation`: the mutators here feed
the same ``_on_insert``/``_on_replace`` hooks, so the three evaluators,
the compiled executors and ``plan="sharded"`` run on top without
modification.
"""

from __future__ import annotations

from array import array
from collections.abc import Mapping as MappingABC
from collections.abc import Set as SetABC
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.datalog.errors import CostConsistencyError
from repro.datalog.program import PredicateDecl
from repro.engine.interpretation import Key, Relation

_MASK64 = 0xFFFFFFFFFFFFFFFF
_MIN_TABLE = 8
# Row-id slots are 32-bit: a relation would need 2**31 - 1 rows (and
# tens of GB of column data) before a slot assignment overflows, and
# the array module raises OverflowError rather than truncating there.
_SLOT_TYPE = "i"


class _SymbolTable:
    """Append-only string interning: id ↦ string and back.

    Shared by reference between a column and its copies: ids are
    assigned once and never reused, so divergent copies appending
    different strings still agree on every id either of them stores.
    """

    __slots__ = ("ids", "strings")

    def __init__(self) -> None:
        self.ids: Dict[str, int] = {}
        self.strings: List[str] = []

    def intern(self, value: str) -> int:
        sid = self.ids.get(value)
        if sid is None:
            sid = len(self.strings)
            self.strings.append(value)
            self.ids[value] = sid
        return sid


class _Column:
    """One argument position's values: a typed array or the boxed list."""

    __slots__ = ("kind", "data", "symbols")

    def __init__(self) -> None:
        self.kind = ""  # untyped until the first value arrives
        self.data: Any = None
        self.symbols: Optional[_SymbolTable] = None

    def copy(self) -> "_Column":
        out = _Column()
        out.kind = self.kind
        if self.kind == "o":
            out.data = list(self.data)
        elif self.kind:
            out.data = self.data[:]
        out.symbols = self.symbols  # append-only, safe to share
        return out

    def _commit(self, value: Any) -> None:
        """Pick this column's kind from its first value."""
        if type(value) is int:
            self.kind, self.data = "q", array("q")
        elif type(value) is float and value == value:
            self.kind, self.data = "d", array("d")
        elif type(value) is str:
            self.kind, self.data = "s", array("q")
            self.symbols = _SymbolTable()
        else:
            self.kind, self.data = "o", []

    def _demote(self) -> None:
        """Re-box the whole column (type mismatch; see module docstring)."""
        if self.kind == "s":
            symbols = self.symbols
            assert symbols is not None
            self.data = [symbols.strings[sid] for sid in self.data]
            self.symbols = None
        else:
            self.data = list(self.data)
        self.kind = "o"

    def append(self, value: Any) -> None:
        kind = self.kind
        if not kind:
            self._commit(value)
            kind = self.kind
        if kind == "q":
            if type(value) is int:
                try:
                    self.data.append(value)
                    return
                except OverflowError:
                    pass
            self._demote()
        elif kind == "d":
            if type(value) is float and value == value:
                self.data.append(value)
                return
            self._demote()
        elif kind == "s":
            if type(value) is str:
                assert self.symbols is not None
                self.data.append(self.symbols.intern(value))
                return
            self._demote()
        self.data.append(value)

    def pop(self) -> None:
        """Roll back the most recent append (exception safety)."""
        self.data.pop()
        if not self.data:
            # Back to empty: release the committed kind so a failed
            # first append leaves the column exactly as it started.
            self.kind = ""
            self.data = None
            self.symbols = None

    def get(self, i: int) -> Any:
        if self.kind == "s":
            assert self.symbols is not None
            return self.symbols.strings[self.data[i]]
        return self.data[i]

    def set(self, i: int, value: Any) -> None:
        kind = self.kind
        if kind == "q":
            if type(value) is int:
                try:
                    self.data[i] = value
                    return
                except OverflowError:
                    pass
            self._demote()
        elif kind == "d":
            if type(value) is float and value == value:
                self.data[i] = value
                return
            self._demote()
        elif kind == "s":
            if type(value) is str:
                assert self.symbols is not None
                self.data[i] = self.symbols.intern(value)
                return
            self._demote()
        self.data[i] = value

    def match(self, i: int, value: Any) -> bool:
        """Whether row ``i`` holds ``value`` — by Python equality, so
        cross-type numeric equality (``1 == 1.0 == True``) behaves
        exactly as it does for boxed tuples in a set."""
        kind = self.kind
        if kind == "s":
            assert self.symbols is not None
            try:
                sid = self.symbols.ids.get(value)
            except TypeError:  # unhashable probe can never equal a str
                return False
            return sid is not None and self.data[i] == sid
        if kind == "o":
            stored = self.data[i]
            return stored is value or stored == value
        return bool(self.data[i] == value)


class _TupleView(SetABC):
    """Read-only live view of an ordinary relation's tuples.

    O(1) membership via the row-id table; iteration materialises rows
    on the fly.  Set algebra (``-``, ``&``, ``<=``, ``==``) comes from
    :class:`collections.abc.Set` and yields plain ``set`` results.
    """

    __slots__ = ("_rel",)

    def __init__(self, rel: "ColumnarRelation") -> None:
        self._rel = rel

    @classmethod
    def _from_iterable(cls, it: Any) -> set:
        return set(it)

    def __contains__(self, key: Any) -> bool:
        rel = self._rel
        if (
            rel._cost_col is not None
            or not isinstance(key, tuple)
            or len(key) != rel._key_width
        ):
            return False
        return rel._find(key, hash(key)) >= 0

    def __iter__(self) -> Iterator[Key]:
        rel = self._rel
        if rel._cost_col is not None:
            return iter(())
        return rel.rows()

    def __len__(self) -> int:
        rel = self._rel
        return 0 if rel._cost_col is not None else rel._n

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{{{', '.join(map(repr, self))}}}"


class _CostItems:
    """Re-iterable ``(key, value)`` pairs of a columnar cost relation."""

    __slots__ = ("_rel",)

    def __init__(self, rel: "ColumnarRelation") -> None:
        self._rel = rel

    def __len__(self) -> int:
        return len(self._rel)

    def __iter__(self) -> Iterator[Tuple[Key, Any]]:
        rel = self._rel
        cost = rel._cost_col
        if cost is None:
            return
        cols = rel._cols
        for i in range(rel._n):
            yield tuple(col.get(i) for col in cols), cost.get(i)


class _CostView(MappingABC):
    """Read-only live mapping view of a cost relation's core."""

    __slots__ = ("_rel",)

    def __init__(self, rel: "ColumnarRelation") -> None:
        self._rel = rel

    def __getitem__(self, key: Any) -> Any:
        rel = self._rel
        if rel._cost_col is None:
            raise KeyError(key)
        rowid = rel._find(key, hash(key))
        if rowid < 0:
            raise KeyError(key)
        return rel._cost_col.get(rowid)

    def get(self, key: Any, default: Any = None) -> Any:
        rel = self._rel
        if (
            rel._cost_col is None
            or not isinstance(key, tuple)
            or len(key) != rel._key_width
        ):
            return default
        rowid = rel._find(key, hash(key))
        if rowid < 0:
            return default
        return rel._cost_col.get(rowid)

    def __contains__(self, key: Any) -> bool:
        rel = self._rel
        if (
            rel._cost_col is None
            or not isinstance(key, tuple)
            or len(key) != rel._key_width
        ):
            return False
        return rel._find(key, hash(key)) >= 0

    def __iter__(self) -> Iterator[Key]:
        rel = self._rel
        if rel._cost_col is None:
            return
        cols = rel._cols
        for i in range(rel._n):
            yield tuple(col.get(i) for col in cols)

    def __len__(self) -> int:
        rel = self._rel
        return rel._n if rel._cost_col is not None else 0

    def items(self) -> _CostItems:  # type: ignore[override]
        return _CostItems(self._rel)

    def values(self) -> Iterator[Any]:  # type: ignore[override]
        rel = self._rel
        cost = rel._cost_col
        if cost is None:
            return iter(())
        return (cost.get(i) for i in range(rel._n))

    def __eq__(self, other: object) -> Any:
        if other is self:
            return True
        if not isinstance(other, MappingABC):
            return NotImplemented
        if len(self) != len(other):
            return False
        absent = object()
        for key, value in self.items():
            if other.get(key, absent) != value:
                return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        pairs = ", ".join(f"{k!r}: {v!r}" for k, v in self.items())
        return f"{{{pairs}}}"


class ColumnarRelation(Relation):
    """A :class:`Relation` whose rows live in typed columns.

    The raw ``tuples``/``costs`` containers are exposed as read-only
    live views; mutation goes through the same
    ``add_tuple``/``set_cost``/``merge_tuples`` API, which feeds the
    inherited index-maintenance hooks.  The whole documented contract —
    persistent incremental indexes, generation-counted rows cache,
    apply-or-rollback exception safety, core-only default storage — is
    preserved (differentially tested against the boxed backend).
    """

    def __init__(self, decl: PredicateDecl) -> None:
        self.decl = decl
        self.generation = 0
        self._indexes: Dict[Tuple[int, ...], Dict[Key, List[Key]]] = {}
        self._rows_cache: Optional[List[Key]] = None
        self._rows_cache_gen = -1
        is_cost = decl.is_cost_predicate
        self._key_width = decl.arity - 1 if is_cost else decl.arity
        self._cols = [_Column() for _ in range(self._key_width)]
        self._cost_col: Optional[_Column] = _Column() if is_cost else None
        self._hashes = array("q")
        self._n = 0
        self._mask = _MIN_TABLE - 1
        self._slots = array(_SLOT_TYPE, [0]) * _MIN_TABLE  # rowid+1; 0=empty
        self._shared = False
        self._tuple_view = _TupleView(self)
        self._cost_view = _CostView(self)

    @classmethod
    def empty(cls, decl: PredicateDecl) -> "ColumnarRelation":
        return cls(decl)

    # -- the boxed containers, as live views -----------------------------------

    @property
    def tuples(self) -> _TupleView:  # type: ignore[override]
        return self._tuple_view

    @property
    def costs(self) -> _CostView:  # type: ignore[override]
        return self._cost_view

    def __len__(self) -> int:
        return self._n

    def copy(self, warm: bool = False) -> "ColumnarRelation":
        """A detached copy — O(1) via copy-on-write.

        The copy *shares* the column arrays and row-id table with the
        original; whichever of the two mutates first re-materialises
        its own private arrays (:meth:`_materialize`).  The solver
        pipeline copies relations freely (EDB seeding, result models,
        rollback snapshots) and most copies are never written, so
        sharing is what keeps the columnar backend's memory at one
        resident copy of the data instead of one per pipeline stage.
        """
        out = ColumnarRelation(self.decl)
        out._cols = self._cols
        out._cost_col = self._cost_col
        out._hashes = self._hashes
        out._n = self._n
        out._mask = self._mask
        out._slots = self._slots
        out._shared = True
        self._shared = True
        if warm:
            out._adopt_hot_state(self)
        return out

    def _materialize(self) -> None:
        """Take private ownership of the (possibly shared) arrays.

        Called by every mutation path before the first write.  The
        sibling that shared the arrays keeps the old ones — its
        ``_shared`` flag stays set, costing it at most one redundant
        materialise if it also mutates later.
        """
        self._cols = [col.copy() for col in self._cols]
        if self._cost_col is not None:
            self._cost_col = self._cost_col.copy()
        self._hashes = self._hashes[:]
        self._slots = self._slots[:]
        self._shared = False

    # -- row-id hash table -------------------------------------------------------

    def _row_matches(self, rowid: int, key: Key) -> bool:
        for col, value in zip(self._cols, key):
            if not col.match(rowid, value):
                return False
        return True

    def _find(self, key: Key, h: int) -> int:
        """The row id holding ``key``, or -1."""
        mask = self._mask
        slots = self._slots
        hashes = self._hashes
        i = h & mask
        perturb = h & _MASK64
        while True:
            slot = slots[i]
            if slot == 0:
                return -1
            rowid = slot - 1
            if hashes[rowid] == h and self._row_matches(rowid, key):
                return rowid
            perturb >>= 5
            i = (5 * i + 1 + perturb) & mask

    def _grow(self) -> None:
        size = (self._mask + 1) * 2
        mask = size - 1
        slots = array(_SLOT_TYPE, [0]) * size
        for rowid in range(self._n):
            h = self._hashes[rowid]
            i = h & mask
            perturb = h & _MASK64
            while slots[i] != 0:
                perturb >>= 5
                i = (5 * i + 1 + perturb) & mask
            slots[i] = rowid + 1
        self._mask = mask
        self._slots = slots

    def _append_row(self, key: Key, h: int, *, cost: Any = None) -> None:
        """Append one row atomically: a failing column append (only user
        value types can fail — the table math cannot) rolls every
        already-appended column back, so the containers stay valid."""
        if self._shared:
            self._materialize()
        appended: List[_Column] = []
        try:
            for col, value in zip(self._cols, key):
                col.append(value)
                appended.append(col)
            if self._cost_col is not None:
                self._cost_col.append(cost)
                appended.append(self._cost_col)
            self._hashes.append(h)
        except BaseException:
            for col in appended:
                col.pop()
            raise
        rowid = self._n
        if (rowid + 1) * 3 >= (self._mask + 1) * 2:
            self._grow()
        mask = self._mask
        slots = self._slots
        i = h & mask
        perturb = h & _MASK64
        while slots[i] != 0:
            perturb >>= 5
            i = (5 * i + 1 + perturb) & mask
        slots[i] = rowid + 1
        self._n = rowid + 1

    # -- mutation (same contract as the boxed base class) -------------------------

    def add_tuple(self, key: Key) -> bool:
        h = hash(key)
        if self._find(key, h) >= 0:
            return False
        self._append_row(key, h)
        try:
            self._on_insert(key)
        except BaseException:
            self.invalidate_indexes()
            raise
        return True

    def set_cost(self, key: Key, value: Any, *, strict: bool = True) -> bool:
        lattice = self.decl.lattice
        assert lattice is not None
        cost_col = self._cost_col
        assert cost_col is not None
        h = hash(key)
        rowid = self._find(key, h)
        if self.decl.has_default and value == lattice.bottom:
            # The default is implicit; storing it would bloat the core.
            if strict and rowid >= 0:
                existing = cost_col.get(rowid)
                if existing != value:
                    raise CostConsistencyError(
                        f"{self.decl.name}{key}: derived both "
                        f"{existing!r} and default {value!r}"
                    )
            return False
        if rowid < 0:
            self._append_row(key, h, cost=value)
            try:
                self._on_insert(key + (value,))
            except BaseException:
                self.invalidate_indexes()
                raise
            return True
        existing = cost_col.get(rowid)
        if existing == value:
            return False
        if strict:
            raise CostConsistencyError(
                f"{self.decl.name}{key}: derived both {existing!r} and "
                f"{value!r} in one T_P application"
            )
        # The lattice lub runs *before* any mutation: a raising join
        # (user-supplied lattice) leaves the relation untouched.
        joined = lattice.join(existing, value)
        if joined == existing:
            return False
        if self._shared:
            self._materialize()
            cost_col = self._cost_col
            assert cost_col is not None
        cost_col.set(rowid, joined)
        try:
            self._on_replace(key + (existing,), key + (joined,))
        except BaseException:
            self.invalidate_indexes()
            raise
        return True

    def join_rows(self, rows: Any, *, strict: bool = False) -> List[Key]:
        if self._cost_col is None:
            return [row for row in rows if self.add_tuple(row)]
        lattice = self.decl.lattice
        assert lattice is not None
        changed: List[Key] = []
        for row in rows:
            key = row[:-1]
            lattice.validate(row[-1])
            if self.set_cost(key, row[-1], strict=strict):
                changed.append(key + (self.cost_of(key),))
        return changed

    def merge_tuples(self, keys: Any) -> None:
        # Hashes are computed up front so an iterable (or a key) that
        # raises mid-iteration mutates nothing, matching the base class.
        pending = [(key, hash(key)) for key in keys]
        try:
            for key, h in pending:
                if self._find(key, h) < 0:
                    self._append_row(key, h)
        finally:
            self.invalidate_indexes()

    # -- queries -----------------------------------------------------------------

    def cost_of(self, key: Key) -> Optional[Any]:
        cost_col = self._cost_col
        if cost_col is not None:
            rowid = self._find(key, hash(key))
            if rowid >= 0:
                return cost_col.get(rowid)
        if self.decl.has_default:
            return self.decl.default_value
        return None

    def has_tuple(self, key: Key) -> bool:
        if self._cost_col is not None:
            return False
        return self._find(key, hash(key)) >= 0

    def rows(self) -> Iterator[Tuple[Any, ...]]:
        cols = self._cols
        cost_col = self._cost_col
        if cost_col is not None:
            for i in range(self._n):
                yield tuple(col.get(i) for col in cols) + (cost_col.get(i),)
        else:
            for i in range(self._n):
                yield tuple(col.get(i) for col in cols)

    # -- introspection -----------------------------------------------------------

    def column_kinds(self) -> Tuple[str, ...]:
        """The committed column kinds (``''`` = no value seen yet), the
        cost column last for cost predicates — docs/STORAGE.md's typing
        rules, observable for tests and the repl's ``.storage``."""
        kinds = tuple(col.kind for col in self._cols)
        if self._cost_col is not None:
            kinds += (self._cost_col.kind,)
        return kinds


def columnar_stats(
    interpretation: Any,
) -> Mapping[str, Tuple[int, Tuple[str, ...]]]:
    """Per-predicate ``(rows, column kinds)`` for columnar relations."""
    out: Dict[str, Tuple[int, Tuple[str, ...]]] = {}
    for name, rel in interpretation.relations.items():
        if isinstance(rel, ColumnarRelation):
            out[name] = (len(rel), rel.column_kinds())
    return out
