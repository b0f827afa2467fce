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
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Callable, Dict, Iterable, Iterator, List, Mapping
from typing import Optional, Sequence, Set, Tuple

from repro.datalog.errors import CostConsistencyError, ProgramError
from repro.datalog.program import PredicateDecl
from repro.testing import faults as _faults

Key = Tuple[Any, ...]


@dataclass
class IndexStats:
    """Counters for the persistent index layer.

    ``hits``/``misses`` count indexed lookups served by an existing index
    versus lookups that had to build one first; ``builds`` counts index
    constructions, ``invalidations`` whole-index drops forced by bulk or
    in-place mutations, and ``scans`` full-relation row materialisations.

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

    def reset(self) -> None:
        self.hits = self.misses = self.builds = 0
        self.invalidations = self.scans = 0

    def snapshot(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "builds": self.builds,
            "invalidations": self.invalidations,
            "scans": self.scans,
        }


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


#: A full row's cost column (``join_rows``' batched membership) and the
#: batch length from which one column-wide decision beats ``validate``
#: per row (measured break-even: about ten rows).
_COST = itemgetter(-1)
_COLUMN_MIN = 16


def row_projector(positions: Tuple[int, ...]) -> Callable[[Key], Key]:
    """``row -> tuple(row[p] for p in positions)`` without a per-row
    generator (index bucket keys, delta-seed projection)."""
    if len(positions) > 1:
        return itemgetter(*positions)
    if positions:
        (p,) = positions
        return lambda row: (row[p],)
    return lambda row: ()


@dataclass
class Relation:
    """The extension of one predicate inside an interpretation.

    Beyond the raw ``tuples``/``costs`` containers, a relation owns its
    *persistent incremental indexes*: hash indexes keyed by argument
    positions that are built lazily on first lookup and then maintained in
    place by :meth:`join_rows`, the one way rows enter a relation.  They
    survive across fixpoint rounds — a semi-naive round touches only its
    delta instead of re-hashing every relation (see docs/PERFORMANCE.md).
    """

    decl: PredicateDecl
    tuples: Set[Key]  # ordinary predicates
    costs: Dict[Key, Any]  # cost predicates (core only for defaults)
    #: Bumped on every mutation; validates the materialized-row cache.
    generation: int = field(default=0, compare=False, repr=False)
    #: position tuple -> bound-value tuple -> full rows.
    _indexes: Dict[Tuple[int, ...], Dict[Key, List[Key]]] = field(
        default_factory=dict, compare=False, repr=False
    )
    _rows_cache: Optional[List[Key]] = field(
        default=None, compare=False, repr=False
    )
    _rows_cache_gen: int = field(default=-1, compare=False, repr=False)

    @classmethod
    def empty(cls, decl: PredicateDecl) -> "Relation":
        return cls(decl=decl, tuples=set(), costs={})

    def copy(self, warm: bool = False) -> "Relation":
        """A detached copy.

        By default indexes are not copied: the copy starts cold and
        re-indexes on demand (copies are usually mutated immediately,
        e.g. by join).  ``warm=True`` additionally clones the live
        indexes and row cache — :meth:`join_rows` keeps maintaining
        them incrementally, so snapshot points that previously
        re-indexed from cold (``Interpretation.join``'s accumulation
        across components) skip the rebuild.
        """
        out = Relation(self.decl, set(self.tuples), dict(self.costs))
        if warm:
            # Same logical rows, so the derived structures carry over.
            out.generation = self.generation
            out._indexes = {
                positions: {key: list(bucket) for key, bucket in index.items()}
                for positions, index in self._indexes.items()
            }
            if self._rows_cache is not None:
                out._rows_cache = list(self._rows_cache)
                out._rows_cache_gen = self._rows_cache_gen
        return out

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
    # cannot fail halfway, and the lattice lub runs before it.  The derived
    # structures (incremental indexes, row cache) *can* be left
    # half-updated if index upkeep raises (an injected fault, a
    # pathological __eq__/__hash__ on user values), so ``join_rows`` drops
    # them before re-raising: the rows written so far stay applied and the
    # indexes rebuild lazily from the containers — consistent by
    # reconstruction, never torn.

    def join_rows(self, rows: Iterable[Key], *, strict: bool = False) -> List[Key]:
        """Join full ``rows`` (the cost column last for cost predicates)
        into the relation; the rows that changed it, as stored after
        joining, in order.

        ``strict=False`` is the pointwise lub of Theorem 3.1;
        ``strict=True`` is the same write with Definition 2.6's check —
        a key already holding a different value raises
        :class:`CostConsistencyError`.  A default-value predicate's
        bottom values are never stored.  Per row: ``lattice.validate``,
        the container write, index and row-cache upkeep and the
        ``index_update`` fault seam, with everything that is per
        relation read once per call.  Membership is one decision per
        call when ``rows`` is a list whose cost column the lattice
        accepts whole (``Lattice.accepts_all``); otherwise — another
        lattice, a bool/NaN/subclass anywhere in the column, an
        iterator — it is ``validate`` per row, so the first offending
        row raises with the rows before it applied.
        """
        changed: List[Key] = []
        keyers = [
            (row_projector(positions), index)
            for positions, index in self._indexes.items()
        ]
        live = self._rows_cache_gen == self.generation
        cache = self._rows_cache if live else None
        seam = _faults._ACTIVE is not None
        name = self.decl.name
        tuples, costs = self.tuples, self.costs
        lattice = self.decl.lattice
        has_default = self.decl.has_default
        if lattice is not None:
            validate, join, bottom = lattice.validate, lattice.join, lattice.bottom
            if (
                type(rows) is list
                and len(rows) >= _COLUMN_MIN
                and lattice.accepts_all(list(map(_COST, rows)))
            ):
                validate = None
        try:
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
                        if cache is not None:
                            cache.append(row)
                        for keyer, index in keyers:
                            index.setdefault(keyer(row), []).append(row)
                    else:
                        cache = self._rows_cache = None
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
        finally:
            self.generation += len(changed)
            if cache is not None and cache is self._rows_cache:
                self._rows_cache_gen = self.generation
        return changed

    def _drop_indexes(self) -> None:
        """Drop every live index and the row cache (``join_rows``' error
        path)."""
        if self._indexes or self._rows_cache is not None:
            active_index_stats().invalidations += 1
        self._indexes.clear()
        self._rows_cache = None
        self.generation += 1

    # -- indexed access ----------------------------------------------------------

    def rows_list(self) -> List[Key]:
        """The materialized full-row list, cached per generation."""
        if self._rows_cache is None or self._rows_cache_gen != self.generation:
            active_index_stats().scans += 1
            self._rows_cache = list(self.rows())
            self._rows_cache_gen = self.generation
        return self._rows_cache

    def index_for(self, positions: Tuple[int, ...]) -> Dict[Key, List[Key]]:
        """The hash index on ``positions``, built on first use and then
        maintained incrementally by :meth:`join_rows`."""
        index = self._indexes.get(positions)
        if index is None:
            active_index_stats().builds += 1
            index = {}
            for row in self.rows():
                bucket_key = tuple(row[p] for p in positions)
                index.setdefault(bucket_key, []).append(row)
            self._indexes[positions] = index
        return index

    def lookup(
        self, positions: Tuple[int, ...], values: Key
    ) -> Sequence[Key]:
        """Rows whose ``positions`` equal ``values`` (indexed)."""
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

    def has_tuple(self, key: Key) -> bool:
        return key in self.tuples

    def rows(self) -> Iterator[Tuple[Any, ...]]:
        """Full rows (key + cost column for cost predicates).

        For default-value predicates this iterates the *core* only; the
        engine must never enumerate a default-value predicate unbound
        (range-restriction forbids it).
        """
        if self.is_cost:
            for key, value in self.costs.items():
                yield key + (value,)
        else:
            yield from self.tuples


def delta_counts(
    old: "Interpretation", new: "Interpretation"
) -> Tuple[int, int]:
    """``(new atoms, changed-cost atoms)`` of ``new`` relative to ``old``.

    A *new* atom is a key absent from ``old``; a *changed* one is a cost
    key whose stored value differs (a lattice merge).  Telemetry only —
    the evaluators never act on these counts.
    """
    new_atoms = 0
    changed = 0
    for name, rel in new.relations.items():
        old_rel = old.relations.get(name)
        if rel.is_cost:
            old_costs = old_rel.costs if old_rel is not None else {}
            for key, value in rel.costs.items():
                existing = old_costs.get(key)
                if existing is None:
                    new_atoms += 1
                elif existing != value:
                    changed += 1
        else:
            old_tuples = old_rel.tuples if old_rel is not None else set()
            new_atoms += len(rel.tuples - old_tuples)
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

    def copy(self, warm: bool = False) -> "Interpretation":
        out = Interpretation({})
        out.relations = {
            name: rel.copy(warm=warm) for name, rel in self.relations.items()
        }
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
        """``self ⊑ other`` (Definition 3.3)."""
        for name, rel in self._held().items():
            other_rel = other._read(name, rel.decl)
            if rel.is_cost:
                lattice = rel.decl.lattice
                assert lattice is not None
                for key, value in rel.costs.items():
                    other_value = other_rel.cost_of(key)
                    if other_value is None or not lattice.leq(value, other_value):
                        return False
            else:
                if not rel.tuples <= other_rel.tuples:
                    return False
        return True

    def join(self, other: "Interpretation") -> "Interpretation":
        """``self ⊔ other`` per Theorem 3.1's construction.

        A warm copy (live indexes carried over, then maintained in place
        — a state accumulated by repeated joins never re-indexes from
        cold) joined through :meth:`Relation.join_rows`, whose
        non-strict write *is* the pointwise lattice lub.
        """
        out = self.copy(warm=True)
        for name, rel in other.relations.items():
            if len(rel):
                target = out.relations.get(name)
                if target is None:
                    target = out.relations[name] = Relation.empty(rel.decl)
                target.join_rows(list(rel.rows()))
        return out

    def absorb(self, other: "Interpretation") -> None:
        """``self ← self ⊔ other`` in place, without copying either side.

        An empty or absent relation *adopts* ``other``'s relation object,
        warm indexes included (the two interpretations then share it —
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
        """A hash of the current contents (for oscillation detection)."""
        parts: List[Tuple[Any, ...]] = []
        for name, rel in sorted(self._held().items()):
            rows = rel.costs.items() if rel.is_cost else rel.tuples
            parts.append((name,) + tuple(sorted(rows, key=repr)))
        return hash(tuple(parts))

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
