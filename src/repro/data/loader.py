"""Bulk data plane: stream CSV / JSONL facts in and out of an EDB.

The loaders here exist so real datasets enter the engine *without* ever
materialising the file: rows are read :data:`LOAD_SLICE` at a time,
shape-checked and decoded a slice at a time (CSV: a column at a time),
written by one strict ``Relation.join_rows`` (CSV: its keyed write, fed
columns) — the write every derived row takes — and discarded; at most
one slice is ever held.  A slice that is not uniformly well-formed is
instead walked row by row, in file order, so diagnostics, their line
numbers and the first error raised are those of a row-at-a-time load.
See docs/STORAGE.md.

Two formats:

* **CSV** — one predicate per file, one fact per row.  CSV is
  text-typed, so fields are decoded by :func:`decode_field`: ``int`` if
  the field parses as one, else ``float``, else the verbatim string.
  The round-trip through :func:`export_csv` is therefore faithful only
  when no *string* field looks numeric; JSONL is the lossless format.
* **JSONL** — one fact per line, ``{"predicate": "arc", "row":
  ["a", "b", 1]}``, any mix of predicates per file.  JSON scalars map
  onto fact values directly (``true`` stays ``True``, ``1.0`` stays a
  float), so :func:`export_jsonl` round-trips exactly.

Malformed input is reported as MAD10xx-coded diagnostics
(:mod:`repro.analysis.diagnostics`): MAD1001 for rows that cannot be
decoded at all, MAD1002 for arity mismatches, MAD1003 when a bulk load
targets a rule-defined predicate (whose facts must become fact rules —
see :attr:`repro.core.database.Database.program` — which a streaming
load cannot provide).  ``strict=True`` (the default) raises
:class:`DataLoadError` on the first bad row; ``strict=False`` collects
the diagnostics on the returned :class:`LoadReport` and skips the rows.

Cost predicates read the last field as the cost value (exactly like
:meth:`Interpretation.add_fact`); duplicate keys with conflicting costs
raise :class:`~repro.datalog.errors.CostConsistencyError` as every
other fact-insertion path does.
"""

from __future__ import annotations

import csv
import json
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import islice, repeat
from operator import add, contains
from typing import (
    Any,
    ContextManager,
    Dict,
    FrozenSet,
    IO,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.analysis.diagnostics import Diagnostic, make_diagnostic
from repro.datalog.errors import ReproError
from repro.datalog.spans import Span
from repro.engine.interpretation import Interpretation, Relation
from repro.lattices.base import LatticeValueError

#: A path or an already-open text handle.
Source = Union[str, IO[str]]

#: Rows read, checked, decoded and written per ``join_rows`` call — all
#: of a file that is resident at once.  Measured: 512 beat 64 and 4096.
LOAD_SLICE = 512

#: JSON scalars accepted as fact values.
_SCALARS = (str, int, float, bool, type(None))


class DataLoadError(ReproError):
    """A data file failed to load; carries the MAD-coded diagnostic."""

    def __init__(self, diagnostic: Diagnostic):
        self.diagnostic = diagnostic
        super().__init__(diagnostic.format())


@dataclass
class LoadReport:
    """What one bulk load did."""

    #: rows read and written, per predicate (a repeat counts each time).
    rows: Dict[str, int] = field(default_factory=dict)
    #: rows dropped by ``strict=False`` (one diagnostic each).
    skipped: int = 0
    diagnostics: List[Diagnostic] = field(default_factory=list)

    @property
    def loaded(self) -> int:
        return sum(self.rows.values())

    def _count(self, predicate: str, rows: int = 1) -> None:
        self.rows[predicate] = self.rows.get(predicate, 0) + rows


def decode_field(text: str) -> Any:
    """CSV field → fact value: ``int`` | ``float`` | verbatim string."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _source_name(source: Source) -> str:
    if isinstance(source, str):
        return source
    return str(getattr(source, "name", None) or "<stream>")


def _diagnose(
    report: LoadReport,
    strict: bool,
    slug: str,
    message: str,
    *,
    source: str,
    line: int,
) -> None:
    """Raise (strict) or record-and-skip (lenient) one bad row."""
    diagnostic = make_diagnostic(slug, message, span=Span.point(line, 1))
    diagnostic.source = source
    if strict:
        raise DataLoadError(diagnostic)
    report.diagnostics.append(diagnostic)
    report.skipped += 1


def _opened(source: Source, mode: str = "r", **kwargs: Any) -> ContextManager[IO[str]]:
    """``source`` opened if it is a path; a handle is the caller's.  A
    read drops a leading UTF-8 byte-order mark; a write never adds one."""
    if isinstance(source, str):
        encoding = "utf-8-sig" if mode == "r" else "utf-8"
        return open(source, mode, encoding=encoding, **kwargs)
    return nullcontext(source)


def _slices(items: Iterator[Any], line: int = 1) -> Iterator[Tuple[int, List[Any]]]:
    """``(line number of the first item, items)`` per :data:`LOAD_SLICE`
    consecutive items.  When ``items`` fails part-way (``csv.Error``, an
    undecodable byte) what it gave first is still yielded before the
    failure propagates, so the rows ahead of it load as they always did."""
    while True:
        chunk: List[Any] = []
        try:
            chunk.extend(islice(items, LOAD_SLICE))
        finally:
            if chunk:
                yield line, chunk
        if not chunk:
            return
        line += len(chunk)


def _csv_slices(
    source: Source, delimiter: str, header: bool
) -> Iterator[Tuple[int, List[List[str]]]]:
    """Slices of reader rows, blank ones included, the header not."""
    with _opened(source, newline="") as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        if header:
            next(reader, None)
        yield from _slices(reader, 2 if header else 1)


def _iter_lines(source: Source) -> Iterator[Tuple[int, str]]:
    """``(line number, stripped text)`` per non-blank line."""
    with _opened(source) as handle:
        for line, text in enumerate(handle, start=1):
            text = text.strip()
            if text:
                yield line, text


def _write(rel: Relation, rows: List[Tuple[Any, ...]], report: LoadReport) -> None:
    """The one EDB write: strict, so a duplicate key with another cost
    raises ``CostConsistencyError`` with the rows before it applied."""
    if rows:
        rel.join_rows(rows, strict=True)
        report._count(rel.decl.name, len(rows))


def _decode_column(column: Sequence[str]) -> List[Any]:
    """:func:`decode_field` over one column of a slice, converted whole
    only where every field provably takes the branch ``decode_field``
    would: ``int`` when all parse as one; ``float`` when each holds a
    ``"."`` (which ``int()`` never accepts) and all parse; field by
    field otherwise — ``"3"`` beside ``"3.5"`` stays ``3`` and ``3.5``."""
    try:
        return list(map(int, column))
    except ValueError:
        pass
    if all(map(contains, column, repeat("."))):
        try:
            return list(map(float, column))
        except ValueError:
            pass
    return list(map(decode_field, column))


# -- CSV ---------------------------------------------------------------------


def load_csv(
    interpretation: Interpretation,
    predicate: str,
    source: Source,
    *,
    delimiter: str = ",",
    header: bool = False,
    strict: bool = True,
) -> LoadReport:
    """Stream a CSV of ``predicate`` facts into ``interpretation``.

    One fact per row; for cost predicates the last field is the cost
    value.  Rows are written a slice at a time via ``join_rows`` and
    discarded — only one slice is ever held.  ``header=True`` skips the
    first row; :func:`decode_field` converts each text field, a column
    at a time where the slice allows it.
    """
    rel = interpretation.relation(predicate)
    arity = rel.decl.arity
    lattice = rel.decl.lattice
    report = LoadReport()
    name = _source_name(source)
    for first, chunk in _csv_slices(source, delimiter, header):
        if set(map(len, chunk)) == {arity}:
            columns = list(map(_decode_column, zip(*chunk)))
            if lattice is None:
                _write(rel, list(zip(*columns)), report)
                continue
            if lattice.accepts_all(columns[-1]):
                # Keys and the accepted cost column; rows built only if needed.
                keys = list(zip(*columns[:-1])) if arity > 1 else [()] * len(chunk)
                lazy = map(add, keys, zip(columns[-1]))
                rel._join_keyed(keys, columns[-1], lazy, None)
                report._count(predicate, len(chunk))
                continue
        # Not uniformly well-formed: row by row.
        rows: List[Tuple[Any, ...]] = []
        try:
            for line, fields in enumerate(chunk, start=first):
                if not fields:
                    continue
                if len(fields) != arity:
                    _diagnose(
                        report,
                        strict,
                        "row-arity-mismatch",
                        f"{predicate}/{arity} row has {len(fields)} fields",
                        source=name,
                        line=line,
                    )
                    continue
                row = tuple(map(decode_field, fields))
                if lattice is not None:
                    try:
                        lattice.validate(row[-1])
                    except LatticeValueError as error:
                        _diagnose(
                            report,
                            strict,
                            "malformed-input-row",
                            f"{predicate} cost value rejected: {error}",
                            source=name,
                            line=line,
                        )
                        continue
                rows.append(row)
        finally:
            # Also ahead of a propagating diagnostic: an earlier row's
            # CostConsistencyError is never overtaken by a later MAD10xx.
            _write(rel, rows, report)
    return report


def scan_csv(
    source: Source,
    *,
    arity: Optional[int] = None,
    delimiter: str = ",",
    header: bool = False,
    strict: bool = True,
    predicate: str = "<csv>",
) -> Tuple[int, Optional[int], LoadReport]:
    """Validation-only pass over a CSV: nothing is stored.

    Returns ``(data rows, arity, report)`` where arity is the declared
    one, or inferred from the first row when ``arity=None`` (``None``
    for an empty file).  Shape errors are diagnosed exactly as
    :func:`load_csv` would.
    """
    report = LoadReport()
    name = _source_name(source)
    count = 0
    for first, chunk in _csv_slices(source, delimiter, header):
        if arity is None:
            arity = next(filter(None, map(len, chunk)), None)
        if arity and set(map(len, chunk)) == {arity}:  # no blank row either
            count += len(chunk)
            continue
        for line, fields in enumerate(chunk, start=first):
            if not fields:
                continue
            if len(fields) != arity:
                _diagnose(
                    report,
                    strict,
                    "row-arity-mismatch",
                    f"{predicate}/{arity} row has {len(fields)} fields",
                    source=name,
                    line=line,
                )
                continue
            count += 1
    return count, arity, report


def export_csv(
    interpretation: Interpretation,
    predicate: str,
    target: Source,
    *,
    delimiter: str = ",",
) -> int:
    """Write ``predicate``'s rows as CSV (cost value last), sorted for
    determinism.  Returns the row count."""

    with _opened(target, "w", newline="") as handle:
        rows = sorted(interpretation.relation(predicate).rows(), key=repr)
        csv.writer(handle, delimiter=delimiter, lineterminator="\n").writerows(rows)
        return len(rows)


# -- JSONL -------------------------------------------------------------------


def _decode_json_line(
    text: str,
    *,
    line: int,
    name: str,
    report: LoadReport,
    strict: bool,
) -> Optional[Tuple[str, List[Any]]]:
    """One JSONL line → ``(predicate, row)``; None after diagnosing."""
    try:
        payload = json.loads(text)
    except ValueError as error:
        _diagnose(
            report,
            strict,
            "malformed-input-row",
            f"invalid JSON: {error}",
            source=name,
            line=line,
        )
        return None
    if (
        not isinstance(payload, dict)
        or not isinstance(payload.get("predicate"), str)
        or not isinstance(payload.get("row"), list)
    ):
        _diagnose(
            report,
            strict,
            "malformed-input-row",
            'expected {"predicate": <str>, "row": [<scalars>]}',
            source=name,
            line=line,
        )
        return None
    row = payload["row"]
    if not all(isinstance(value, _SCALARS) for value in row):
        _diagnose(
            report,
            strict,
            "malformed-input-row",
            "row fields must be JSON scalars",
            source=name,
            line=line,
        )
        return None
    return payload["predicate"], row


def load_jsonl(
    interpretation: Interpretation,
    source: Source,
    *,
    strict: bool = True,
    forbidden: FrozenSet[str] = frozenset(),
) -> LoadReport:
    """Stream JSONL facts into ``interpretation``.

    Each line is ``{"predicate": ..., "row": [...]}``; any mix of
    predicates per file.  ``forbidden`` names predicates that may not be
    bulk-loaded (the :class:`~repro.core.database.Database` passes its
    rule-defined heads) — rows targeting them diagnose as MAD1003.
    """
    report = LoadReport()
    name = _source_name(source)
    for _, chunk in _slices(_iter_lines(source)):
        # The slice's good rows as runs of one predicate, in file order.
        runs: List[Tuple[Relation, List[Tuple[Any, ...]]]] = []
        try:
            for line, text in chunk:
                decoded = _decode_json_line(
                    text, line=line, name=name, report=report, strict=strict
                )
                if decoded is None:
                    continue
                predicate, row = decoded
                if predicate in forbidden:
                    _diagnose(
                        report,
                        strict,
                        "intensional-load-target",
                        f"{predicate} is defined by rules; bulk rows cannot "
                        f"become fact rules",
                        source=name,
                        line=line,
                    )
                    continue
                rel = interpretation.relations.get(predicate)
                if rel is None:
                    _diagnose(
                        report,
                        strict,
                        "malformed-input-row",
                        f"unknown predicate {predicate!r}",
                        source=name,
                        line=line,
                    )
                    continue
                if rel.decl.arity != len(row):
                    _diagnose(
                        report,
                        strict,
                        "row-arity-mismatch",
                        f"{predicate}/{rel.decl.arity} row has {len(row)} fields",
                        source=name,
                        line=line,
                    )
                    continue
                if rel.decl.lattice is not None:
                    try:
                        rel.decl.lattice.validate(row[-1])
                    except LatticeValueError as error:
                        _diagnose(
                            report,
                            strict,
                            "malformed-input-row",
                            f"{predicate} cost value rejected: {error}",
                            source=name,
                            line=line,
                        )
                        continue
                if not runs or runs[-1][0] is not rel:
                    runs.append((rel, []))
                runs[-1][1].append(tuple(row))
        finally:
            # Flush before a diagnostic propagates (see load_csv).
            for rel, rows in runs:
                _write(rel, rows, report)
    return report


def scan_jsonl(
    source: Source,
    *,
    arities: Optional[Dict[str, int]] = None,
    strict: bool = True,
) -> Tuple[Dict[str, int], LoadReport]:
    """Validation-only pass over a JSONL file: nothing is stored.

    ``arities`` maps already-declared predicates to their arity; rows
    for other predicates infer it from first occurrence.  Returns the
    full predicate → arity map (callers declare the new ones) and the
    report, whose ``rows`` counts valid rows per predicate.
    """
    known: Dict[str, int] = dict(arities or {})
    report = LoadReport()
    name = _source_name(source)
    for line, text in _iter_lines(source):
        decoded = _decode_json_line(
            text, line=line, name=name, report=report, strict=strict
        )
        if decoded is None:
            continue
        predicate, row = decoded
        arity = known.setdefault(predicate, len(row))
        if arity != len(row):
            _diagnose(
                report,
                strict,
                "row-arity-mismatch",
                f"{predicate}/{arity} row has {len(row)} fields",
                source=name,
                line=line,
            )
            continue
        report._count(predicate)
    return known, report


def export_jsonl(
    interpretation: Interpretation,
    target: Source,
    predicates: Optional[Iterable[str]] = None,
) -> int:
    """Write facts as JSONL, predicates and rows sorted for determinism.

    Defaults to every non-empty relation.  Returns the line count; the
    output re-loads bit-identically via :func:`load_jsonl`.
    """
    names = sorted(
        predicates
        if predicates is not None
        else (
            name
            for name, rel in interpretation.relations.items()
            if len(rel)
        )
    )

    with _opened(target, "w") as handle:
        count = 0
        for name in names:
            rel = interpretation.relation(name)
            for row in sorted(rel.rows(), key=repr):
                json.dump(
                    {"predicate": name, "row": list(row)},
                    handle,
                    separators=(",", ":"),
                )
                handle.write("\n")
                count += 1
        return count
