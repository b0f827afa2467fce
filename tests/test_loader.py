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

import io
import os

import pytest

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
from repro.datalog.errors import ProgramError
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
