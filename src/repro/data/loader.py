"""Bulk data plane: stream CSV / JSONL facts in and out of an EDB.

The loaders here exist so real datasets enter the engine *without* ever
materialising a Python list of row tuples: each file row is decoded,
validated, written into its relation via the ordinary mutators
(``add_tuple`` / ``set_cost``) and immediately discarded.  See
docs/STORAGE.md.

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
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    IO,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

from repro.analysis.diagnostics import Diagnostic, make_diagnostic
from repro.datalog.errors import ReproError
from repro.datalog.spans import Span
from repro.engine.interpretation import Interpretation
from repro.lattices.base import LatticeValueError

#: A path or an already-open text handle.
Source = Union[str, IO[str]]

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

    #: rows actually inserted, per predicate.
    rows: Dict[str, int] = field(default_factory=dict)
    #: rows dropped by ``strict=False`` (one diagnostic each).
    skipped: int = 0
    diagnostics: List[Diagnostic] = field(default_factory=list)

    @property
    def loaded(self) -> int:
        return sum(self.rows.values())

    def _count(self, predicate: str) -> None:
        self.rows[predicate] = self.rows.get(predicate, 0) + 1


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


def _iter_csv(
    source: Source, delimiter: str, header: bool
) -> Iterator[Tuple[int, List[str]]]:
    """``(line number, fields)`` per data row; blank rows skipped."""

    def rows(handle: IO[str]) -> Iterator[Tuple[int, List[str]]]:
        reader = csv.reader(handle, delimiter=delimiter)
        for line, fields in enumerate(reader, start=1):
            if (header and line == 1) or not fields:
                continue
            yield line, fields

    if isinstance(source, str):
        with open(source, "r", encoding="utf-8", newline="") as handle:
            yield from rows(handle)
    else:
        yield from rows(source)


def _iter_lines(source: Source) -> Iterator[Tuple[int, str]]:
    """``(line number, stripped text)`` per non-blank line."""

    def lines(handle: IO[str]) -> Iterator[Tuple[int, str]]:
        for line, text in enumerate(handle, start=1):
            text = text.strip()
            if text:
                yield line, text

    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as handle:
            yield from lines(handle)
    else:
        yield from lines(source)


# -- CSV ---------------------------------------------------------------------


def load_csv(
    interpretation: Interpretation,
    predicate: str,
    source: Source,
    *,
    delimiter: str = ",",
    header: bool = False,
    decode: Callable[[str], Any] = decode_field,
    strict: bool = True,
) -> LoadReport:
    """Stream a CSV of ``predicate`` facts into ``interpretation``.

    One fact per row; for cost predicates the last field is the cost
    value.  Rows are written via the relation mutators and discarded —
    nothing row-shaped is retained.  ``header=True`` skips the first
    row; ``decode`` converts each text field (:func:`decode_field` by
    default).
    """
    rel = interpretation.relation(predicate)
    arity = rel.decl.arity
    lattice = rel.decl.lattice
    report = LoadReport()
    name = _source_name(source)
    for line, fields in _iter_csv(source, delimiter, header):
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
        row = tuple(decode(text) for text in fields)
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
            rel.set_cost(row[:-1], row[-1])
        else:
            rel.add_tuple(row)
        report._count(predicate)
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
    for line, fields in _iter_csv(source, delimiter, header):
        if arity is None:
            arity = len(fields)
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

    def write(handle: IO[str]) -> int:
        writer = csv.writer(handle, delimiter=delimiter, lineterminator="\n")
        rel = interpretation.relation(predicate)
        count = 0
        for row in sorted(rel.rows(), key=repr):
            writer.writerow(row)
            count += 1
        return count

    if isinstance(target, str):
        with open(target, "w", encoding="utf-8", newline="") as handle:
            return write(handle)
    return write(target)


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
    for line, text in _iter_lines(source):
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
        lattice = rel.decl.lattice
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
            rel.set_cost(tuple(row[:-1]), row[-1])
        else:
            rel.add_tuple(tuple(row))
        report._count(predicate)
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

    def write(handle: IO[str]) -> int:
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

    if isinstance(target, str):
        with open(target, "w", encoding="utf-8") as handle:
            return write(handle)
    return write(target)
