"""The bulk data plane: CSV/JSONL loaders, exports, MAD10xx rejects.

Three layers under test (docs/STORAGE.md):

* the core streaming functions in :mod:`repro.data.loader` — round
  trips, field decoding, and every MAD-coded rejection in both strict
  (raise :class:`DataLoadError`) and lenient (collect + skip) modes;
* :class:`Database`'s bulk sources — validation happens at
  ``load_csv``/``load_jsonl`` time, rows re-stream at every ``edb()``
  materialisation, and an intensional target is rejected even when the
  offending rules arrive *after* the file was attached;
* the checked-in sample datasets under ``examples/data/`` — the same
  files the CI smoke job and EXPERIMENTS.md use.
"""

from __future__ import annotations

import csv
import io
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.database import Database
from repro.data import (
    DataLoadError,
    decode_field,
    export_csv,
    export_jsonl,
    load_csv,
    load_jsonl,
    scan_csv,
    scan_jsonl,
)
from repro.data import loader
from repro.data.loader import (
    LOAD_SLICE,
    LoadReport,
    _decode_json_line,
    _diagnose,
    _source_name,
)
from repro.datalog.errors import CostConsistencyError, ProgramError
from repro.lattices.base import LatticeValueError
from repro.programs import company_control
from repro.workloads import ROAD_NETWORK_PROGRAM

DATA_DIR = os.path.join(os.path.dirname(__file__), "..", "examples", "data")
ROADS_CSV = os.path.join(DATA_DIR, "roads.csv")
SHARES_JSONL = os.path.join(DATA_DIR, "shares.jsonl")


def fresh_interp(text):
    db = Database()
    db.load(text)
    return db.edb()


# ---------------------------------------------------------------------------
# decode_field
# ---------------------------------------------------------------------------


def test_decode_field_int_float_str():
    assert decode_field("42") == 42 and type(decode_field("42")) is int
    assert decode_field("-7") == -7
    assert decode_field("2.5") == 2.5 and type(decode_field("2.5")) is float
    assert decode_field("1e3") == 1000.0
    assert decode_field("avon") == "avon"
    assert decode_field("") == ""
    # Whitespace-padded numerics still decode (int()/float() strip).
    assert decode_field(" 3 ") == 3


# ---------------------------------------------------------------------------
# CSV: load, scan, export, round trip
# ---------------------------------------------------------------------------


def test_load_csv_cost_predicate():
    interp = fresh_interp("@cost arc/3 : reals_ge.")
    report = load_csv(interp, "arc", io.StringIO("a,b,1.5\nb,c,2\n"))
    assert report.rows == {"arc": 2}
    assert report.skipped == 0
    rel = interp.relation("arc")
    assert rel.cost_of(("a", "b")) == 1.5
    # "2" decodes as the *int* 2, bit-identically preserved.
    assert rel.cost_of(("b", "c")) == 2
    assert type(rel.cost_of(("b", "c"))) is int


def test_load_csv_ordinary_predicate_and_header():
    interp = fresh_interp("@pred edge/2.")
    report = load_csv(
        interp,
        "edge",
        io.StringIO("from,to\na,b\nb,c\n"),
        header=True,
    )
    assert report.rows == {"edge": 2}
    assert sorted(interp.relation("edge").rows()) == [("a", "b"), ("b", "c")]


def test_load_csv_duplicate_rows_merge():
    interp = fresh_interp("@pred edge/2.")
    load_csv(interp, "edge", io.StringIO("a,b\na,b\n"))
    assert len(interp.relation("edge")) == 1


def test_load_report_counts_rows_read_not_rows_stored(tmp_path):
    """``LoadReport.rows`` counts each row read, a repeat each time; the
    relation stores it once.  ``Database.load_csv`` reports the same
    count from its scan."""
    interp = fresh_interp("@pred edge/2.\n@cost arc/3 : reals_ge.")
    assert load_csv(interp, "edge", io.StringIO("a,b\na,b\n")).rows == {"edge": 2}
    arcs = "".join(f"{i},{i + 1},1.5\n" for i in range(20)) * 2
    assert load_csv(interp, "arc", io.StringIO(arcs)).rows == {"arc": 40}
    assert (len(interp.relation("edge")), len(interp.relation("arc"))) == (1, 20)

    path = tmp_path / "edges.csv"
    path.write_text("a,b\na,b\n", encoding="utf-8")
    db = Database()
    db.load("@pred edge/2.")
    assert db.load_csv("edge", str(path)).rows == {"edge": 2}
    assert db.edb().relation("edge").tuples == {("a", "b")}


BOM = b"\xef\xbb\xbf"


@pytest.mark.parametrize("declaration", ["@pred p/3.", "@cost p/3 : reals_ge."])
def test_csv_reads_drop_a_utf8_bom(tmp_path, declaration):
    """A CSV that starts with a byte-order mark loads its first field as
    ``1``, not ``'\\ufeff1'``, on every read path; an export adds none."""
    path = tmp_path / "bom.csv"
    path.write_bytes(BOM + b"1,2,3\n4,5,6\n")
    interp = fresh_interp(declaration)
    load_csv(interp, "p", str(path))
    assert sorted(interp.relation("p").rows()) == [(1, 2, 3), (4, 5, 6)]
    assert scan_csv(str(path))[:2] == (2, 3)

    db = Database()
    db.load(declaration)
    db.load_csv("p", str(path))
    assert sorted(db.edb().relation("p").rows()) == [(1, 2, 3), (4, 5, 6)]

    out = tmp_path / "out.csv"
    export_csv(interp, "p", str(out))
    assert out.read_bytes() == b"1,2,3\n4,5,6\n"


def test_jsonl_reads_drop_a_utf8_bom(tmp_path):
    """A JSONL file that starts with a byte-order mark loads line 1, not
    MAD1001 "Unexpected UTF-8 BOM"; an export adds none."""
    path = tmp_path / "bom.jsonl"
    path.write_bytes(BOM + b'{"predicate": "p", "row": [1, 2]}\n')
    interp = fresh_interp("@pred p/2.")
    assert load_jsonl(interp, str(path)).rows == {"p": 1}
    assert interp.relation("p").tuples == {(1, 2)}
    known, report = scan_jsonl(str(path))
    assert known == {"p": 2} and report.rows == {"p": 1}

    out = tmp_path / "out.jsonl"
    export_jsonl(interp, str(out))
    assert out.read_bytes() == b'{"predicate":"p","row":[1,2]}\n'


def test_load_csv_arity_mismatch_strict():
    interp = fresh_interp("@pred edge/2.")
    with pytest.raises(DataLoadError) as info:
        load_csv(interp, "edge", io.StringIO("a,b\na,b,c\n"))
    assert info.value.diagnostic.code == "MAD1002"
    assert info.value.diagnostic.span.line == 2


def test_load_csv_arity_mismatch_lenient_skips():
    interp = fresh_interp("@pred edge/2.")
    report = load_csv(
        interp, "edge", io.StringIO("a,b\na,b,c\nc,d\n"), strict=False
    )
    assert report.rows == {"edge": 2}
    assert report.skipped == 1
    assert [d.code for d in report.diagnostics] == ["MAD1002"]


def test_load_csv_invalid_cost_value():
    interp = fresh_interp("@cost arc/3 : reals_ge.")
    with pytest.raises(DataLoadError) as info:
        load_csv(interp, "arc", io.StringIO("a,b,not_a_number\n"))
    assert info.value.diagnostic.code == "MAD1001"


def test_scan_csv_infers_arity_and_stores_nothing():
    count, arity, report = scan_csv(io.StringIO("a,b,1\nc,d,2\n"))
    assert (count, arity) == (2, 3)
    assert report.skipped == 0 and not report.diagnostics


def test_scan_csv_checks_declared_arity():
    with pytest.raises(DataLoadError) as info:
        scan_csv(io.StringIO("a,b\n"), arity=3)
    assert info.value.diagnostic.code == "MAD1002"


def test_csv_round_trip():
    interp = fresh_interp("@cost arc/3 : reals_ge.")
    load_csv(interp, "arc", io.StringIO("a,b,1.5\nb,c,2.25\n"))
    out = io.StringIO()
    assert export_csv(interp, "arc", out) == 2
    reloaded = fresh_interp("@cost arc/3 : reals_ge.")
    load_csv(reloaded, "arc", io.StringIO(out.getvalue()))
    assert sorted(reloaded.relation("arc").rows()) == sorted(
        interp.relation("arc").rows()
    )


# ---------------------------------------------------------------------------
# JSONL: load, scan, export, round trip
# ---------------------------------------------------------------------------

DECLS = "@pred edge/2.\n@cost w/2 : reals_ge."


def test_load_jsonl_mixed_predicates():
    interp = fresh_interp(DECLS)
    text = (
        '{"predicate": "edge", "row": ["a", "b"]}\n'
        '{"predicate": "w", "row": ["a", 1.5]}\n'
    )
    report = load_jsonl(interp, io.StringIO(text))
    assert report.rows == {"edge": 1, "w": 1}
    assert interp.relation("w").cost_of(("a",)) == 1.5


@pytest.mark.parametrize(
    "line",
    [
        "not json at all",
        '{"predicate": "edge"}',  # missing row
        '{"row": ["a", "b"]}',  # missing predicate
        '{"predicate": "edge", "row": "ab"}',  # row not a list
        '{"predicate": "edge", "row": ["a", ["b"]]}',  # non-scalar field
        '{"predicate": "ghost", "row": ["a", "b"]}',  # unknown predicate
        '{"predicate": "w", "row": ["a", "cheap"]}',  # invalid cost
    ],
)
def test_load_jsonl_malformed_rows_are_mad1001(line):
    interp = fresh_interp(DECLS)
    with pytest.raises(DataLoadError) as info:
        load_jsonl(interp, io.StringIO(line + "\n"))
    assert info.value.diagnostic.code == "MAD1001"


def test_load_jsonl_arity_mismatch_is_mad1002():
    interp = fresh_interp(DECLS)
    with pytest.raises(DataLoadError) as info:
        load_jsonl(
            interp, io.StringIO('{"predicate": "edge", "row": ["a"]}\n')
        )
    assert info.value.diagnostic.code == "MAD1002"


def test_load_jsonl_forbidden_is_mad1003():
    interp = fresh_interp(DECLS)
    with pytest.raises(DataLoadError) as info:
        load_jsonl(
            interp,
            io.StringIO('{"predicate": "edge", "row": ["a", "b"]}\n'),
            forbidden=frozenset({"edge"}),
        )
    assert info.value.diagnostic.code == "MAD1003"


def test_load_jsonl_lenient_collects_everything():
    interp = fresh_interp(DECLS)
    text = (
        '{"predicate": "edge", "row": ["a", "b"]}\n'
        "garbage\n"
        '{"predicate": "edge", "row": ["a"]}\n'
        '{"predicate": "edge", "row": ["c", "d"]}\n'
    )
    report = load_jsonl(interp, io.StringIO(text), strict=False)
    assert report.rows == {"edge": 2}
    assert report.skipped == 2
    codes = [d.code for d in report.diagnostics]
    assert codes == ["MAD1001", "MAD1002"]
    # Diagnostics carry the source line for the offending row.
    assert [d.span.line for d in report.diagnostics] == [2, 3]


def test_scan_jsonl_reports_arities():
    known, report = scan_jsonl(
        io.StringIO(
            '{"predicate": "edge", "row": ["a", "b"]}\n'
            '{"predicate": "w", "row": ["a", 1.0]}\n'
        )
    )
    assert known == {"edge": 2, "w": 2}
    assert report.rows == {"edge": 1, "w": 1}


def test_jsonl_round_trip_bit_identical():
    interp = fresh_interp(DECLS)
    load_jsonl(
        interp,
        io.StringIO(
            '{"predicate": "edge", "row": ["a", "b"]}\n'
            '{"predicate": "w", "row": ["a", 1.5]}\n'
            '{"predicate": "w", "row": ["b", 2]}\n'
        ),
    )
    out = io.StringIO()
    assert export_jsonl(interp, out) == 3
    reloaded = fresh_interp(DECLS)
    load_jsonl(reloaded, io.StringIO(out.getvalue()))
    for name in ("edge", "w"):
        assert sorted(
            map(repr, reloaded.relation(name).rows())
        ) == sorted(map(repr, interp.relation(name).rows()))


# ---------------------------------------------------------------------------
# Database bulk sources
# ---------------------------------------------------------------------------


def test_database_csv_source_restreams_per_edb():
    db = Database()
    db.load("@cost arc/3 : reals_ge.")
    report = db.load_csv("arc", ROADS_CSV)
    assert report.rows == {"arc": 22}
    first = db.edb()
    second = db.edb()
    assert first is not second
    assert sorted(first.relation("arc").rows()) == sorted(
        second.relation("arc").rows()
    )
    assert len(first.relation("arc")) == 22


def test_database_csv_infers_arity_when_undeclared(tmp_path):
    path = tmp_path / "pairs.csv"
    path.write_text("a,b\nc,d\n", encoding="utf-8")
    db = Database()
    db.load_csv("edge", str(path))
    decl = db.program.declarations.get("edge")
    assert decl is not None and decl.arity == 2


def test_database_csv_empty_undeclared_needs_declaration(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("", encoding="utf-8")
    db = Database()
    with pytest.raises(ProgramError, match="arity"):
        db.load_csv("edge", str(path))


def test_database_rejects_intensional_target_at_attach():
    db = Database()
    db.load(ROAD_NETWORK_PROGRAM)
    with pytest.raises(DataLoadError) as info:
        db.load_csv("d", ROADS_CSV)
    assert info.value.diagnostic.code == "MAD1003"


def test_database_rejects_intensional_target_at_edb_time(tmp_path):
    # The file is attached while its predicate is still extensional;
    # rules defining it arrive later.  The re-check at edb() time is
    # what catches the now-invalid source.
    path = tmp_path / "d.csv"
    path.write_text("a,b,1.0\n", encoding="utf-8")
    db = Database()
    db.load("@cost d/3 : reals_ge.")
    db.load_csv("d", str(path))
    db.load(
        "@cost e/3 : reals_ge.\n"
        "@constraint e(direct, Z, C).\n"
        "d(X, Y, C) <- e(X, Y, C)."
    )
    with pytest.raises(DataLoadError) as info:
        db.edb()
    assert info.value.diagnostic.code == "MAD1003"


def test_database_jsonl_source_solves():
    db = company_control.database()
    report = db.load_jsonl(SHARES_JSONL)
    assert report.rows == {"s": 12}
    result = db.solve()
    assert sorted(result.model.relation("c").rows()) == [
        ("apex", "leaf"),
        ("apex", "mid1"),
        ("apex", "mid2"),
        ("other", "side"),
    ]


def test_sample_road_network_solves_to_the_pinned_model():
    db = Database()
    db.load(ROAD_NETWORK_PROGRAM)
    db.load_csv("arc", ROADS_CSV)
    db.add_facts("source", [("avon",), ("iona",)])
    result = db.solve()
    # pinned; the CI smoke job greps this count
    assert result.model.total_size() == 92


# ---------------------------------------------------------------------------
# Differential: the slice-at-a-time loaders against the row-at-a-time ones
# ---------------------------------------------------------------------------
#
# The reference below is the loader this repository had before ingest was
# moved onto slices: one row decoded, validated and written at a time.  It
# is kept here, not in ``src/``, as the oracle.  Everything observable must be equal: the model *and its
# row order*, the ``LoadReport`` (counts, skipped, every diagnostic's code,
# message, file and line), the exception type and message, and the rows
# already applied when a strict load raises.


def reference_iter_csv(source, delimiter, header):
    reader = csv.reader(source, delimiter=delimiter)
    for line, fields in enumerate(reader, start=1):
        if (header and line == 1) or not fields:
            continue
        yield line, fields


def reference_load_csv(
    interpretation,
    predicate,
    source,
    *,
    delimiter=",",
    header=False,
    decode=decode_field,
    strict=True,
):
    rel = interpretation.relation(predicate)
    arity = rel.decl.arity
    lattice = rel.decl.lattice
    report = LoadReport()
    name = _source_name(source)
    for line, fields in reference_iter_csv(source, delimiter, header):
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
        rel.join_rows([row], strict=True)
        report._count(predicate)
    return report


def reference_scan_csv(
    source, *, arity=None, delimiter=",", header=False, strict=True,
    predicate="<csv>",
):  # fmt: skip
    report = LoadReport()
    name = _source_name(source)
    count = 0
    for line, fields in reference_iter_csv(source, delimiter, header):
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


def reference_load_jsonl(
    interpretation, source, *, strict=True, forbidden=frozenset()
):
    report = LoadReport()
    name = _source_name(source)
    for line, text in enumerate(source, start=1):
        text = text.strip()
        if not text:
            continue
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
        rel.join_rows([tuple(row)], strict=True)
        report._count(predicate)
    return report


#: One declaration per way a cost column can be checked: two of the
#: numeric lattices that answer ``accepts_all`` for a whole column, the
#: int-only one, a default-value predicate, a lattice that never does
#: (so every slice walks row by row), and no lattice at all.
DIFF_DECLS = """
@cost arc/3 : reals_ge.
@cost flow/3 : nonneg_reals_le.
@cost hops/3 : naturals_le.
@default lit/3 : bool_le.
@pred edge/3.
@pred unit/1.
"""
DIFF_PREDICATES = ("arc", "flow", "hops", "lit", "edge")


def observed(load, *args, **kwargs):
    """Everything a caller can see of one load, NaN- and type-exact
    (``repr`` tells ``5`` from ``5.0`` and equates NaN with NaN)."""
    interp = fresh_interp(DIFF_DECLS)
    try:
        report = load(interp, *args, **kwargs)
    except Exception as error:  # noqa: BLE001 - the type is what is compared
        outcome = ("raised", type(error).__name__, str(error))
    else:
        outcome = (
            "loaded",
            sorted(report.rows.items()),
            report.skipped,
            [
                (d.code, d.message, d.source, d.span.line, d.span.column)
                for d in report.diagnostics
            ],
        )
    # Cost relations in stored (insertion) order; an ordinary relation is
    # a set, whose order a NaN key (hashed by identity) perturbs.
    state = {
        name: list(rel.rows()) if rel.is_cost else sorted(rel.rows(), key=repr)
        for name, rel in interp.relations.items()
    }
    return repr((outcome, state))


def assert_same_csv_load(monkeypatch, text, predicate, slice_rows=4, **kwargs):
    if slice_rows is not None:
        monkeypatch.setattr(loader, "LOAD_SLICE", slice_rows)
    for strict in (True, False):
        want = observed(
            reference_load_csv, predicate, io.StringIO(text, newline=""),
            strict=strict, **kwargs,
        )  # fmt: skip
        got = observed(
            load_csv, predicate, io.StringIO(text, newline=""),
            strict=strict, **kwargs,
        )  # fmt: skip
        assert got == want, text


def assert_same_jsonl_load(monkeypatch, text, slice_rows=4, **kwargs):
    monkeypatch.setattr(loader, "LOAD_SLICE", slice_rows)
    for strict in (True, False):
        want = observed(
            reference_load_jsonl, io.StringIO(text), strict=strict, **kwargs
        )
        got = observed(load_jsonl, io.StringIO(text), strict=strict, **kwargs)
        assert got == want, text


def csv_text(rows, delimiter=","):
    out = io.StringIO(newline="")
    writer = csv.writer(out, delimiter=delimiter, lineterminator="\n")
    for row in rows:
        if row:
            writer.writerow(row)
        else:
            out.write("\n")  # a blank row: skipped, but it has a line number
    return out.getvalue()


#: Keys collide on purpose (``2`` and ``2.0`` are one dict key), so that
#: duplicates — with equal and with conflicting costs — are common.
KEY_FIELDS = st.sampled_from(["a", "b", "1", "2", "2.0", " 2 ", "x y", ""])
#: Numeric-looking strings of every branch ``decode_field`` has, the
#: values a numeric lattice rejects, and plain strings.
COST_FIELDS = st.sampled_from(
    [
        "5", "5.0", "1e3", " 7 ", "1_000", "inf", "-inf", "nan", "3.5",
        "-2", "-2.5", "0", "0.0", "1", "007", "+4", "1.", ".5", "٣",
        "1.5.2", "a.b", "abc", "true", "", "9" * 400,
    ]
)  # fmt: skip
GOOD_ROWS = st.tuples(KEY_FIELDS, KEY_FIELDS, COST_FIELDS).map(list)
RAGGED_ROWS = st.lists(COST_FIELDS, max_size=5)
CSV_ROWS = st.lists(
    st.one_of(GOOD_ROWS, GOOD_ROWS, GOOD_ROWS, RAGGED_ROWS), max_size=14
)


@settings(max_examples=300, deadline=None)
@given(
    rows=CSV_ROWS,
    predicate=st.sampled_from(DIFF_PREDICATES),
    header=st.booleans(),
)
def test_load_csv_matches_the_row_at_a_time_loader(rows, predicate, header):
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_same_csv_load(
            monkeypatch, csv_text(rows), predicate, header=header
        )


@settings(max_examples=100, deadline=None)
@given(rows=CSV_ROWS, header=st.booleans(), declared=st.booleans())
def test_scan_csv_matches_the_row_at_a_time_scan(rows, header, declared):
    text = csv_text(rows)
    kwargs = {"header": header, "arity": 3 if declared else None}
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(loader, "LOAD_SLICE", 4)
        for strict in (True, False):
            results = []
            for scan in (reference_scan_csv, scan_csv):
                try:
                    count, arity, report = scan(
                        io.StringIO(text, newline=""), strict=strict, **kwargs
                    )
                except DataLoadError as error:
                    results.append(("raised", str(error)))
                else:
                    results.append(
                        (
                            count,
                            arity,
                            report.skipped,
                            [d.format() for d in report.diagnostics],
                        )
                    )
            assert results[0] == results[1], text


@pytest.mark.parametrize(
    "text",
    [
        # "3" beside "3.5" in one slice column stays 3 and 3.5
        "a,b,3\na,c,3.5\na,d,1e3\n",
        # an int column with one padded and one underscored literal
        "a,b, 7 \na,c,1_000\na,d,5\n",
        # equal duplicates are one atom; a conflicting one is the FD's error
        "a,b,1\na,b,1\na,b,1.0\nc,d,2\n",
        "a,b,1\nc,d,2\na,b,3\ne,f,4\n",
        # the FD conflict sits before the shape error, inside one slice ...
        "a,b,1\na,b,2\na,b,c,d\n",
        # ... and after it
        "a,b,1\na,b,c,d\na,b,2\n",
        # ... and in the slice after the shape error
        "a,b,1\na,b,c,d\nx,y,1\nx,z,1\na,b,2\n",
        # a rejected cost value before and after a conflict
        "a,b,nan\na,c,1\na,c,2\n",
        "a,c,1\na,c,2\na,b,nan\n",
        # blank rows keep their line numbers
        "\n\na,b,1\n\na,b\n",
        # a header that is itself ragged or blank is still skipped
        "\na,b,1\n",
    ],
)
@pytest.mark.parametrize("header", [False, True])
def test_load_csv_first_error_in_file_order(monkeypatch, text, header):
    for predicate in DIFF_PREDICATES:
        assert_same_csv_load(monkeypatch, text, predicate, header=header)


@pytest.mark.parametrize("extra", [-1, 0, 1])
@pytest.mark.parametrize("tail", ["", "0,1,9.5\n", "0,1\n", "0,1,nan\n"])
def test_load_csv_at_the_slice_boundary(monkeypatch, extra, tail):
    """Files of ``LOAD_SLICE`` - 1, + 0 and + 1 good rows (the real
    constant), then nothing, a conflicting duplicate, a ragged row or a
    rejected cost: the row that straddles or follows the boundary is
    diagnosed with its own line number."""
    count = LOAD_SLICE + extra
    text = "".join(f"{i},{i + 1},{i}.5\n" for i in range(count)) + tail
    assert_same_csv_load(monkeypatch, text, "arc", slice_rows=None)
    interp = fresh_interp(DIFF_DECLS)
    source = io.StringIO(text + "x,y,1\n")
    if tail == "0,1,9.5\n":
        with pytest.raises(CostConsistencyError, match="both 0.5 and 9.5"):
            load_csv(interp, "arc", source, strict=False)
        assert len(interp.relation("arc")) == count
        return
    report = load_csv(interp, "arc", source, strict=False)
    assert report.rows == {"arc": count + 1}
    assert [d.span.line for d in report.diagnostics] == (
        [count + 1] if tail else []
    )


def test_load_csv_custom_decoder_stays_per_field(monkeypatch):
    def decode(text):
        if text == "boom":
            raise RuntimeError("decoder failed")
        return text.upper()

    text = "a,b,c\nd,e,f\ng,boom,h\ni,j,k\n"
    assert_same_csv_load(monkeypatch, text, "edge", decode=decode, slice_rows=3)
    assert "RuntimeError" in observed(
        load_csv, "edge", io.StringIO(text), decode=decode
    )
    # ... and the rows ahead of the failing field were written.
    interp = fresh_interp(DIFF_DECLS)
    with pytest.raises(RuntimeError):
        load_csv(interp, "edge", io.StringIO(text), decode=decode)
    assert interp["edge"] == {("A", "B", "C"), ("D", "E", "F")}


def test_load_csv_reader_failure_keeps_the_rows_before_it(monkeypatch):
    # A source that fails under the reader, two good rows in.
    class Lines:
        name = "lines"

        def __init__(self):
            self.lines = iter(["a,b,1\n", "c,d,2\n", "e,f,3\n"])

        def __iter__(self):
            return self

        def __next__(self):
            line = next(self.lines)
            if line.startswith("e"):
                raise OSError("disk went away")
            return line

    monkeypatch.setattr(loader, "LOAD_SLICE", 8)
    results = []
    for load in (reference_load_csv, load_csv):
        interp = fresh_interp(DIFF_DECLS)
        with pytest.raises(OSError):
            load(interp, "arc", Lines())
        results.append(list(interp.relation("arc").rows()))
    assert results[0] == results[1] == [("a", "b", 1), ("c", "d", 2)]


JSON_VALUES = st.sampled_from(
    [5, 5.0, 1000.0, 0, 1, -2, 3.5, True, False, None, "abc", "5",
     float("inf"), float("nan")]
)  # fmt: skip
JSON_KEYS = st.sampled_from(["a", "b", 1, 2, 2.0, True])
JSON_RECORDS = st.builds(
    lambda predicate, row: json.dumps({"predicate": predicate, "row": row}),
    st.sampled_from(DIFF_PREDICATES + ("unit", "s", "nowhere")),
    st.one_of(
        st.tuples(JSON_KEYS, JSON_KEYS, JSON_VALUES).map(list),
        st.tuples(JSON_KEYS, JSON_KEYS, JSON_VALUES).map(list),
        st.lists(JSON_VALUES, max_size=4),
    ),
)
JSON_JUNK = st.sampled_from(
    [
        "", "   ", "garbage", "[1, 2]", '{"predicate": "arc"}',
        '{"predicate": 3, "row": []}', '{"predicate": "arc", "row": [[1], 2, 3]}',
        '{"predicate": "arc", "row": ["a", "b", 1]} trailing',
        # two records on one line are "extra data", however well-formed
        '{"predicate": "arc", "row": ["a", "b", 1]}, '
        '{"predicate": "arc", "row": ["a", "c", 1]}',
    ]
)  # fmt: skip


@settings(max_examples=300, deadline=None)
@given(
    lines=st.lists(
        st.one_of(JSON_RECORDS, JSON_RECORDS, JSON_RECORDS, JSON_JUNK),
        max_size=14,
    )
)
def test_load_jsonl_matches_the_row_at_a_time_loader(lines):
    text = "".join(line + "\n" for line in lines)
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_same_jsonl_load(monkeypatch, text, forbidden=frozenset({"s"}))


@pytest.mark.parametrize(
    "rows",
    [
        # interleaved predicates: each one's conflict is raised in file order
        [("arc", ["a", "b", 1]), ("flow", ["a", "b", 1]),
         ("flow", ["a", "b", 2]), ("arc", ["a", "b", 2])],
        [("arc", ["a", "b", 1]), ("flow", ["a", "b", 1]),
         ("arc", ["a", "b", 2]), ("flow", ["a", "b", 2])],
        # JSON true is not a number, whatever ``True == 1`` says
        [("arc", ["a", "b", True])],
        [("hops", ["a", "b", 1]), ("hops", ["a", "c", 1.0])],
        # a forbidden / unknown predicate after a conflict does not overtake it
        [("arc", ["a", "b", 1]), ("arc", ["a", "b", 2]), ("s", [1])],
        [("arc", ["a", "b", 1]), ("nowhere", [1]), ("arc", ["a", "b", 2])],
        # a zero-arity fact
        [("unit", []), ("unit", [])],
    ],
)  # fmt: skip
def test_load_jsonl_first_error_in_file_order(monkeypatch, rows):
    text = "".join(
        json.dumps({"predicate": predicate, "row": row}) + "\n"
        for predicate, row in rows
    )
    for slice_rows in (1, 2, 3, 512):
        assert_same_jsonl_load(
            monkeypatch, text, slice_rows=slice_rows, forbidden=frozenset({"s"})
        )


def test_database_inline_facts_take_the_same_write():
    """``add_fact(s)`` rows reach the EDB through ``join_rows`` too: the
    model and its row order are the insertion order, and the three
    errors of ``Interpretation.add_fact`` surface unchanged."""
    rows = [(i % 7, i, float(i)) for i in range(LOAD_SLICE + 3)]
    db = Database()
    db.load(DIFF_DECLS)
    db.add_facts("arc", rows)
    db.add_fact("edge", 1, 2, 3)
    db.add_facts("arc", [(0, 0, 0.0), (9, 9, 9)])  # one duplicate, one new
    reference = fresh_interp(DIFF_DECLS)
    for row in rows + [(9, 9, 9)]:
        reference.add_fact("arc", *row)
    reference.add_fact("edge", 1, 2, 3)
    edb = db.edb()
    assert edb == reference
    assert list(edb.relation("arc").rows()) == list(reference.relation("arc").rows())

    db.add_fact("arc", 0, 0, 1.0)
    with pytest.raises(CostConsistencyError, match="derived both 0.0 and 1.0"):
        db.edb()
    bad = Database()
    bad.load(DIFF_DECLS)
    bad.add_fact("arc", 1, 2, float("nan"))
    with pytest.raises(LatticeValueError):
        bad.edb()
    bad = Database()
    bad.load(DIFF_DECLS)
    bad.add_fact("arc", 1, 2, True)
    with pytest.raises(LatticeValueError):
        bad.edb()
