"""The row-at-a-time ``Relation.join_rows``, kept as the reference for the
bulk write.

:meth:`repro.engine.interpretation.Relation.join_rows` writes a long list
batch as one ``dict``/``set`` operation; this is the loop it replaced,
one row at a time, unchanged except that it is a function of the
relation.  ``tests/test_interpretation.py`` drives both over generated
batches and requires equal containers, equal changed-row lists and the
same exception at the same row.  Not a test module, and imported by
nothing under ``src/``.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Iterable, List

from repro.datalog.errors import CostConsistencyError
from repro.engine.interpretation import _COLUMN_MIN, Relation, row_projector
from repro.testing import faults as _faults

_COST = itemgetter(-1)


def join_rows(rel: Relation, rows: Iterable[Any], *, strict: bool = False) -> List[Any]:
    """Join full ``rows`` into ``rel``; the rows that changed it, as
    stored after joining, in order."""
    changed: List[Any] = []
    keyers = [
        (row_projector(positions), index)
        for positions, index in rel._indexes.items()
    ]
    seam = _faults._ACTIVE is not None
    name = rel.decl.name
    tuples, costs = rel.tuples, rel.costs
    lattice = rel.decl.lattice
    has_default = rel.decl.has_default
    if lattice is not None:
        validate, join, bottom = lattice.validate, lattice.join, lattice.bottom
        if (
            type(rows) is list
            and len(rows) >= _COLUMN_MIN
            and lattice.accepts_all(list(map(_COST, rows)))
        ):
            validate = None
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
                joined = join(existing, value)
                if joined == existing:
                    continue
                costs[key] = joined
                replaced, row = key + (existing,), key + (joined,)
        changed.append(row)
        try:
            if seam:
                _faults.trip("index_update", name, rel)
            if replaced is None:
                for keyer, index in keyers:
                    index.setdefault(keyer(row), []).append(row)
            else:
                for keyer, index in keyers:
                    bucket = index.get(keyer(replaced))
                    if bucket is not None:
                        try:
                            bucket.remove(replaced)
                        except ValueError:
                            pass
                    index.setdefault(keyer(row), []).append(row)
        except BaseException:
            rel._drop_indexes()
            raise
    return changed
