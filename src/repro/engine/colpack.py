"""Packed column buffers: the sharded executor's wire format.

``plan="sharded"`` moves row batches between the parent and its forked
workers (seed partitions out, derived rows back).  Pickling a
``List[Tuple]`` ships one boxed object per value; packing the batch
column-wise first ships typed buffers instead:

* ``'q'`` — exact machine ints as ``array('q')`` bytes;
* ``'d'`` — floats as ``array('d')`` bytes (bit-exact, NaN included —
  transport only cares about value fidelity);
* ``'s'`` — the column's unique strings once, plus an ``array('q')`` of
  ids;
* ``'o'`` — the boxed fallback, a plain pickled list (``bool`` and every
  other kind land here: ``True`` must round-trip as ``True``, not ``1``).

The encoding is lossless: ``unpack_rows(pack_rows(b))`` reproduces the
batch bit-identically (row order included, which shard merge order
depends on for reproducible telemetry).
"""

from __future__ import annotations

from array import array
from typing import Any, Dict, List, Tuple

#: predicate → rows; cost rows are ``key + (cost,)``.  Mirrors
#: :data:`repro.engine.sharded.RowBatch` (not imported: sharded imports us).
RowBatch = Dict[str, List[Tuple[Any, ...]]]

#: ``(kind, payload)``: kind ``'q'``/``'d'`` carry raw bytes, ``'s'``
#: carries ``(unique strings, id bytes)``, ``'o'`` the boxed list.
PackedColumn = Tuple[str, Any]

#: ``(row count, packed columns)`` for one predicate.
PackedRows = Tuple[int, List[PackedColumn]]

PackedBatch = Dict[str, PackedRows]

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1


def _pack_column(values: List[Any]) -> PackedColumn:
    kinds = {type(v) for v in values}
    if kinds == {int}:
        if all(_INT64_MIN <= v <= _INT64_MAX for v in values):
            return ("q", array("q", values).tobytes())
    elif kinds == {float}:
        return ("d", array("d", values).tobytes())
    elif kinds == {str}:
        ids: Dict[str, int] = {}
        encoded = array("q")
        for v in values:
            sid = ids.get(v)
            if sid is None:
                sid = len(ids)
                ids[v] = sid
            encoded.append(sid)
        return ("s", (list(ids), encoded.tobytes()))
    return ("o", values)


def _unpack_column(packed: PackedColumn, count: int) -> List[Any]:
    kind, payload = packed
    if kind == "q":
        out = array("q")
        out.frombytes(payload)
        return list(out)
    if kind == "d":
        out = array("d")
        out.frombytes(payload)
        return list(out)
    if kind == "s":
        strings, raw = payload
        ids = array("q")
        ids.frombytes(raw)
        return [strings[i] for i in ids]
    return list(payload)


def pack_rows(batch: RowBatch) -> PackedBatch:
    """Column-pack ``batch`` for cheap pickling across processes."""
    out: PackedBatch = {}
    for name, rows in batch.items():
        count = len(rows)
        width = len(rows[0]) if rows else 0
        columns = [
            _pack_column([row[pos] for row in rows]) for pos in range(width)
        ]
        out[name] = (count, columns)
    return out


def unpack_rows(packed: PackedBatch) -> RowBatch:
    """Invert :func:`pack_rows` bit-identically (row order preserved)."""
    out: RowBatch = {}
    for name, (count, columns) in packed.items():
        if not columns:
            out[name] = [() for _ in range(count)]
            continue
        decoded = [_unpack_column(column, count) for column in columns]
        out[name] = list(zip(*decoded)) if count else []
    return out
