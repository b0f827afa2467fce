"""Aggregate Herbrand interpretations (Definition 3.3, Theorem 3.1).

An interpretation stores, per predicate:

* ordinary predicates — a set of key tuples;
* cost predicates — a dict from key tuple (the non-cost arguments) to a
  cost value, which makes the functional dependency of Definition 2.3
  structural;
* default-value cost predicates — only the *core* (Section 2.3.3): entries
  whose value differs from the lattice bottom; lookups of absent keys read
  the default.

On these representations the paper's order ``⊑`` and the lub/glb of
Theorem 3.1 are pointwise lattice operations, implemented here, making the
space of interpretations a complete lattice as the theorem states.

Values are raw Python objects (floats, ints, frozensets, ...); keys are
tuples of raw constants.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import asdict, dataclass, field
from operator import add, itemgetter
from typing import Any, Callable, Dict, Iterable, Iterator, List, Mapping
from typing import Optional, Sequence, Set, Tuple

from repro.datalog.errors import CostConsistencyError, ProgramError
from repro.datalog.program import PredicateDecl
from repro.testing import faults as _faults

Key = Tuple[Any, ...]


@dataclass
class IndexStats:
    """Counters for the persistent index layer.

    ``hits``/``misses`` count probes served by an existing index or the
    relation's own map versus probes that built an index first (a rule
    kernel charges its own once per call); ``builds`` counts index builds,
    ``invalidations`` whole-index drops when index upkeep raises, and
    ``scans`` full-relation scans performed: one each time an atom with
    no argument bound enumerates its relation's container.

    Ownership is *solve-scoped*: every solve binds its own instance (the
    tracer's, see :mod:`repro.obs.tracer`) via :func:`use_index_stats`,
    so concurrent solves never share one counter; relation operations
    outside any solve are charged to the context variable's default.
    """

    hits: int = 0
    misses: int = 0
    builds: int = 0
    invalidations: int = 0
    scans: int = 0

    def snapshot(self) -> Dict[str, int]:
        return asdict(self)


#: The stats object charged for index work on the current (thread/task)
#: context; its default collects operations outside any solve.
_ACTIVE_STATS: ContextVar[IndexStats] = ContextVar(
    "repro_index_stats", default=IndexStats()
)


def active_index_stats() -> IndexStats:
    """The :class:`IndexStats` charged for index work right now."""
    return _ACTIVE_STATS.get()


@contextmanager
def use_index_stats(stats: IndexStats) -> Iterator[IndexStats]:
    """Bind ``stats`` as the active counter object for this context.

    Context variables are per-thread (and per-task), so two concurrent
    solves each see only their own counters.
    """
    token = _ACTIVE_STATS.set(stats)
    try:
        yield stats
    finally:
        _ACTIVE_STATS.reset(token)


#: A row's key and cost; the batch length from which one column-wide
#: decision beats ``validate`` per row (measured break-even: about ten
#: rows); the rows of a long list written at a time (one slice's dict).
_KEY, _COST = itemgetter(slice(None, -1)), itemgetter(-1)
_COLUMN_MIN, _SLICE = 16, 512


def row_projector(positions: Tuple[int, ...]) -> Callable[[Key], Key]:
    """``row -> tuple(row[p] for p in positions)`` without a per-row
    generator (index bucket keys, delta-seed projection)."""
    if len(positions) > 1:
        return itemgetter(*positions)
    if positions:
        (p,) = positions
        return lambda row: (row[p],)
    return lambda row: ()


def binds_key(decl: PredicateDecl, positions: Sequence[int]) -> bool:
    """Whether a probe on ``positions`` binds ``decl``'s whole key: the
    relation's own map then answers it, with no index."""
    return bool(positions) and set(range(decl.key_arity)) <= set(positions)


@dataclass
class Relation:
    """The extension of one predicate inside an interpretation: its
    ``tuples``/``costs`` container and its indexes, nothing else.

    The container is the index on the whole key, and an unbound scan
    iterates it directly.  For probes short of the whole key a relation
    owns *persistent incremental indexes*: hash indexes keyed by argument
    positions, built lazily on first lookup, then maintained in place by
    :meth:`join_rows`, the one way rows enter a relation.  They survive
    across fixpoint rounds — a semi-naive round touches only its delta, and
    a Kleene round's successor takes them by :meth:`carry` (see
    docs/PERFORMANCE.md §2).
    """

    decl: PredicateDecl
    tuples: Set[Key]  # ordinary predicates
    costs: Dict[Key, Any]  # cost predicates (core only for defaults)
    #: position tuple -> bound-value tuple -> full rows.
    _indexes: Dict[Tuple[int, ...], Dict[Key, List[Key]]] = field(
        default_factory=dict, compare=False, repr=False
    )

    @classmethod
    def empty(cls, decl: PredicateDecl) -> "Relation":
        return cls(decl=decl, tuples=set(), costs={})

    def copy(self) -> "Relation":
        """A detached copy of the container; indexes are not copied, the
        copy builds its own on demand."""
        return Relation(self.decl, set(self.tuples), dict(self.costs))

    @property
    def is_cost(self) -> bool:
        return self.decl.is_cost_predicate

    def __len__(self) -> int:
        return len(self.costs) if self.is_cost else len(self.tuples)

    # -- mutation ------------------------------------------------------------
    #
    # ``join_rows`` is the one write.  Exception safety (apply-or-rollback):
    # the raw ``tuples``/``costs`` containers are the source of truth and
    # are always left in a valid state — a single-key container write
    # cannot fail halfway, and the lattice lub runs before it.  The
    # incremental indexes *can* be left half-updated if index upkeep
    # raises (an injected fault, a pathological __eq__/__hash__ on user
    # values), so ``join_rows`` drops them before re-raising: the rows
    # written so far stay applied and the indexes rebuild lazily from the
    # containers — consistent by reconstruction, never torn.

    def join_rows(self, rows: Iterable[Key], *, strict: bool = False) -> List[Key]:
        """Join full ``rows`` (the cost column last for cost predicates)
        into the relation; the rows that changed it, as stored after
        joining, in order.

        ``strict=False`` is the pointwise lub of Theorem 3.1;
        ``strict=True`` is the same write with Definition 2.6's check —
        a key already holding a different value raises
        :class:`CostConsistencyError`.  A default-value predicate's
        bottom values are never stored.  A list of ``_COLUMN_MIN`` cost
        rows or more is checked by ``Lattice.accepts_all`` per column,
        not ``validate`` per row; a strict one is written ``_SLICE`` rows
        at a time by :meth:`_join_keyed`.  Everything else goes row by
        row, so the first offending row raises with the rows before it
        applied.
        """
        lattice = self.decl.lattice
        validate = None if lattice is None else lattice.validate
        if lattice is not None and type(rows) is list and len(rows) >= _COLUMN_MIN:
            if not strict:  # a delta round's keys are mostly held or repeated
                accepted = lattice.accepts_all(list(map(_COST, rows)))
                return self._join_each(rows, strict, None if accepted else validate)
            changed: List[Key] = []
            for start in range(0, len(rows), _SLICE):
                part = rows[start : start + _SLICE]
                keys, values = list(map(_KEY, part)), list(map(_COST, part))
                check = None if lattice.accepts_all(values) else validate
                changed += self._join_keyed(keys, values, part, check)
            return changed
        return self._join_each(rows, strict, validate)

    def _join_keyed(
        self,
        keys: List[Key],
        values: List[Any],
        rows: Iterable[Key],
        validate: Optional[Callable[..., Any]],
    ) -> Iterable[Key]:
        """A strict write of cost ``rows`` sliced into ``keys`` and their
        cost column, ``validate`` None when ``accepts_all`` took it; the
        changed rows.  With no default, index or seam, an accepted column
        whose keys neither repeat nor are held is one ``dict`` and one
        ``update``; otherwise ``rows`` go row by row (the CSV loader
        passes them lazily, so they are built only then)."""
        if validate is None and not (
            self.decl.has_default or self._indexes or _faults._ACTIVE is not None
        ):
            costs, batch = self.costs, dict(zip(keys, values))
            if len(batch) == len(keys) and costs.keys().isdisjoint(batch):
                costs.update(batch)
                return rows
        return self._join_each(rows, True, validate)

    def _join_each(
        self, rows: Iterable[Key], strict: bool, validate: Optional[Callable[..., Any]]
    ) -> List[Key]:
        """The row-by-row write (``validate``: each cost's, unless None):
        per row the container write, upkeep of every live index and the
        ``index_update`` fault seam, with what is per relation read once."""
        changed: List[Key] = []
        keyers = [
            (row_projector(positions), index)
            for positions, index in self._indexes.items()
        ]
        seam = _faults._ACTIVE is not None
        name = self.decl.name
        tuples, costs = self.tuples, self.costs
        lattice = self.decl.lattice
        has_default = self.decl.has_default
        if lattice is not None:
            join, bottom = lattice.join, lattice.bottom
        for row in rows:
            replaced = None
            if lattice is None:
                if row in tuples:
                    continue
                tuples.add(row)
            else:
                key, value = row[:-1], row[-1]
                if validate is not None:
                    validate(value)
                existing = costs.get(key)
                if has_default and value == bottom:
                    # The default is implicit, never stored.
                    if strict and existing is not None and existing != value:
                        raise CostConsistencyError(
                            f"{name}{key}: derived both "
                            f"{existing!r} and default {value!r}"
                        )
                    continue
                if existing is None:
                    costs[key] = value
                elif existing == value:
                    continue
                elif strict:
                    raise CostConsistencyError(
                        f"{name}{key}: derived both {existing!r} and "
                        f"{value!r} in one T_P application"
                    )
                else:
                    # The lub runs before any mutation: a raising
                    # (user-supplied) join leaves the key untouched.
                    joined = join(existing, value)
                    if joined == existing:
                        continue
                    costs[key] = joined
                    replaced, row = key + (existing,), key + (joined,)
            changed.append(row)
            try:
                if seam:
                    _faults.trip("index_update", name, self)
                if replaced is None:
                    for keyer, index in keyers:
                        index.setdefault(keyer(row), []).append(row)
                else:
                    for keyer, index in keyers:
                        bucket = index.get(keyer(replaced))
                        if bucket is not None:
                            try:
                                bucket.remove(replaced)
                            except ValueError:  # pragma: no cover - defensive
                                pass
                        index.setdefault(keyer(row), []).append(row)
            except BaseException:
                self._drop_indexes()
                raise
        return changed

    def carry(self, old: "Relation") -> None:
        """Take ``old``'s live indexes (a Kleene round's ``J``, which this
        ``T_P(J)`` replaces), patched by the entries that differ both ways
        (:meth:`unequal`); an ordinary relation takes ``old``'s rows, so index
        and container share row objects.  If the patch raises, the indexes
        go; the container is whole, so only a non-``Exception`` propagates."""
        if not old._indexes:
            return
        left, entered = old.unequal(self), self.unequal(old)
        if self.is_cost:
            left, entered = {k + (v,) for k, v in left}, {k + (v,) for k, v in entered}
        else:  # ``old`` is dropped: its set becomes the successor's
            rows = self.tuples = old.tuples
            rows -= left
            rows |= entered
        self._indexes, old._indexes = old._indexes, {}
        try:
            if _faults._ACTIVE is not None:
                _faults.trip("index_update", self.decl.name, self)
            for positions, index in self._indexes.items():
                keyer = row_projector(positions)
                for row in left:
                    index[keyer(row)].remove(row)
                for row in entered:
                    index.setdefault(keyer(row), []).append(row)
        except BaseException as error:
            self._drop_indexes()
            if not isinstance(error, Exception):
                raise

    def _drop_indexes(self) -> None:
        """Drop every live index (the error path of ``join_rows``, ``carry``)."""
        if self._indexes:
            active_index_stats().invalidations += 1
        self._indexes.clear()

    # -- indexed access ----------------------------------------------------------

    def index_for(self, positions: Tuple[int, ...]) -> Dict[Key, List[Key]]:
        """The hash index on ``positions`` (short of the whole key), built
        on first use and then maintained incrementally by :meth:`join_rows`."""
        index = self._indexes.get(positions)
        if index is None:
            active_index_stats().builds += 1
            index, keyer = {}, row_projector(positions)
            for row in self.tuples or [k + (v,) for k, v in self.costs.items()]:
                index.setdefault(keyer(row), []).append(row)
            self._indexes[positions] = index
        return index

    def lookup(
        self, positions: Tuple[int, ...], values: Key
    ) -> Sequence[Key]:
        """Rows whose ``positions`` equal ``values``.  A probe that binds
        the whole key, and any default-value read (core or default), is
        answered from the relation's own map, which holds at most one
        row; as in a kernel, a default-value read is not counted as a
        probe.  Any other probe is indexed."""
        decl = self.decl
        if decl.has_default or binds_key(decl, positions):
            if not decl.has_default:
                active_index_stats().hits += 1
            k = decl.key_arity
            if not self.is_cost:
                return (values,) if values in self.tuples else ()
            value = self.cost_of(values[:k])
            if value is None or (len(values) > k and not values[k] == value):
                return ()
            return (values[:k] + (value,),)
        index = self._indexes.get(positions)
        if index is None:
            active_index_stats().misses += 1
            index = self.index_for(positions)
        else:
            active_index_stats().hits += 1
        return index.get(values, ())

    # -- queries ---------------------------------------------------------------

    def cost_of(self, key: Key) -> Optional[Any]:
        """The cost of ``key``: stored value, the default for default-value
        predicates, or None when the atom is absent."""
        value = self.costs.get(key)
        if value is not None:
            return value
        if self.decl.has_default:
            return self.decl.default_value
        return None

    def rows(self) -> Iterator[Tuple[Any, ...]]:
        """Full rows (key + cost column for cost predicates).

        For default-value predicates this iterates the *core* only; the
        engine must never enumerate a default-value predicate unbound
        (range-restriction forbids it).
        """
        if self.is_cost:
            return map(add, self.costs.keys(), zip(self.costs.values()))
        return iter(self.tuples)

    def unequal(self, other: "Relation") -> Set[Any]:
        """The entries ``self`` holds that ``other`` does not hold equally
        — keys of an ordinary relation, ``(key, value)`` items of a cost
        one — as one C-level set difference, so a Kleene round's checks
        cost the entries that differ, not all of ``J`` (carrier values are
        hashable: see :class:`~repro.lattices.base.Lattice`)."""
        if self.is_cost:
            return self.costs.items() - other.costs.items()
        return self.tuples - other.tuples


def delta_counts(
    old: "Interpretation", new: "Interpretation"
) -> Tuple[int, int]:
    """``(new atoms, changed-cost atoms)`` of ``new`` relative to ``old``.

    A *new* atom is a key absent from ``old``; a *changed* one is a cost
    key whose stored value differs (a lattice merge).  Telemetry only —
    the evaluators never act on these counts.
    """
    new_atoms = changed = 0
    for name, rel in new.relations.items():
        old_rel = old._read(name, rel.decl)
        unequal = len(rel.unequal(old_rel))
        added = len(rel.costs.keys() - old_rel.costs.keys()) if rel.is_cost else unequal
        new_atoms += added
        changed += unequal - added
    return new_atoms, changed


class Interpretation:
    """A (finite-core) aggregate Herbrand interpretation: one map from
    predicate name to :class:`Relation`, holding the relations it was
    built with.  Every lattice operation, ``==`` and :meth:`fingerprint`
    read an absent relation as empty (for a default-value predicate:
    every key at its default)."""

    def __init__(self, declarations: Mapping[str, PredicateDecl]) -> None:
        self.relations: Dict[str, Relation] = {
            name: Relation.empty(decl) for name, decl in declarations.items()
        }

    # -- construction ------------------------------------------------------------

    def copy(self) -> "Interpretation":
        out = Interpretation({})
        out.relations = {name: rel.copy() for name, rel in self.relations.items()}
        return out

    def relation(self, predicate: str) -> Relation:
        try:
            return self.relations[predicate]
        except KeyError:
            raise ProgramError(f"unknown predicate {predicate}") from None

    def _read(self, name: str, decl: PredicateDecl) -> Relation:
        """The relation of ``name``; an absent one reads as empty."""
        rel = self.relations.get(name)
        return rel if rel is not None else Relation.empty(decl)

    def add_fact(self, predicate: str, *args: Any) -> bool:
        """Insert a ground fact given its full argument list; True if new.
        A cost key already holding another value raises."""
        rel = self.relation(predicate)
        if rel.decl.arity != len(args):
            raise ProgramError(
                f"{predicate} expects {rel.decl.arity} arguments, got {len(args)}"
            )
        return bool(rel.join_rows([tuple(args)], strict=True))

    # -- the lattice of Theorem 3.1 -------------------------------------------------

    def leq(self, other: "Interpretation") -> bool:
        """``self ⊑ other`` (Definition 3.3).  Entries held equally on
        both sides are ``⊑`` by reflexivity; only the rest are read."""
        for name, rel in self.relations.items():
            other_rel = other._read(name, rel.decl)
            lattice = rel.decl.lattice
            for entry in rel.unequal(other_rel):
                if lattice is None:
                    return False
                other_value = other_rel.cost_of(entry[0])
                if other_value is None or not lattice.leq(entry[1], other_value):
                    return False
        return True

    def join(self, other: "Interpretation") -> "Interpretation":
        """``self ⊔ other`` per Theorem 3.1's construction.

        A copy joined through :meth:`Relation.join_rows`, whose
        non-strict write *is* the pointwise lattice lub, fed only the
        entries of ``other`` the copy does not already hold equally.
        """
        out = self.copy()
        for name, rel in other._held().items():
            target = out.relations.setdefault(name, Relation.empty(rel.decl))
            rows = rel.unequal(target)
            target.join_rows([k + (v,) for k, v in rows] if rel.is_cost else rows)
        return out

    def absorb(self, other: "Interpretation") -> None:
        """``self ← self ⊔ other`` in place, without copying either side.

        An empty or absent relation *adopts* ``other``'s relation object,
        its indexes included (the two interpretations then share it —
        callers own both sides, as the solver does with its state and a
        finished component); a non-empty one is joined through
        :meth:`Relation.join_rows`.
        """
        for name, rel in other.relations.items():
            if not len(rel):
                continue
            target = self.relations.get(name)
            if target is None or not len(target):
                self.relations[name] = rel
            else:
                target.join_rows(rel.rows())

    def meet(self, other: "Interpretation") -> "Interpretation":
        """``self ⊓ other`` per Theorem 3.1's construction.

        For a non-default cost predicate a key must be present on both
        sides ("if *every* S_i has a cost atom ..."); for default-value
        predicates an absent key reads as bottom, so the meet of a core
        entry with an absent one is bottom and leaves the core.
        """
        out = Interpretation(
            {name: rel.decl for name, rel in self.relations.items()}
        )
        for name, rel in self.relations.items():
            other_rel = other._read(name, rel.decl)
            lattice = rel.decl.lattice
            if lattice is None:
                rows: Iterable[Key] = rel.tuples & other_rel.tuples
            else:
                rows = []
                for key, value in rel.costs.items():
                    other_value = other_rel.cost_of(key)
                    if other_value is not None:
                        rows.append(key + (lattice.meet(value, other_value),))
            # Keys are unique, so the write never joins; bottoms of a
            # default-value predicate leave the core.
            out.relations[name].join_rows(rows)
        return out

    # -- comparisons & reporting -----------------------------------------------------

    def _held(self) -> Dict[str, Relation]:
        """The non-empty relations: an empty one reads as absent."""
        return {name: rel for name, rel in self.relations.items() if len(rel)}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Interpretation):
            return NotImplemented
        mine, theirs = self._held(), other._held()
        # An ordinary relation's ``costs`` and a cost relation's
        # ``tuples`` are empty, so one comparison covers both kinds.
        return mine.keys() == theirs.keys() and all(
            rel.tuples == theirs[name].tuples and rel.costs == theirs[name].costs
            for name, rel in mine.items()
        )

    def __hash__(self):  # pragma: no cover - interpretations are mutable
        raise TypeError("interpretations are mutable and unhashable")

    def fingerprint(self) -> int:
        """A hash of the current contents (oscillation detection): one
        frozenset of ``(name, frozenset(entries))`` over the held
        relations, so it needs no order, and equal interpretations
        (an absent relation reads as empty) hash equal."""
        return hash(frozenset(
            (name, frozenset(rel.costs.items() if rel.is_cost else rel.tuples))
            for name, rel in self._held().items()
        ))  # fmt: skip

    def total_size(self) -> int:
        return sum(len(rel) for rel in self.relations.values())

    def __getitem__(self, predicate: str):
        """Convenience read access: a dict for cost predicates, a frozenset
        for ordinary predicates."""
        rel = self.relation(predicate)
        if rel.is_cost:
            return dict(rel.costs)
        return frozenset(rel.tuples)

    def __str__(self) -> str:
        lines = []
        for name, rel in sorted(self._held().items()):
            for row in sorted(rel.rows(), key=repr):
                rendered = ", ".join(map(repr, row))
                lines.append(f"{name}({rendered})")
        return "\n".join(lines) or "(empty)"
