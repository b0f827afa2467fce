"""The diagnostics engine: golden corpus, registry, CLI and integration.

Every ``tests/lint_corpus/*.mad`` file opens with a header line

    % expect: MAD101 MAD402 ...

naming exactly the error- and warning-severity codes the linter must
emit for it (info-severity classification notes are not pinned).  The
corpus gives each code at least one dedicated trigger, so the stable
code set is locked end to end: analysis pass → Violation → Diagnostic →
CLI.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.analysis.diagnostics import (
    BY_CODE,
    BY_SLUG,
    Diagnostic,
    Linter,
    Severity,
    expected_mismatches,
    lint_program,
    lint_source,
    make_diagnostic,
    render_json,
    render_text,
)
from repro.cli import main
from repro.core.database import Database
from repro.datalog.errors import NotAdmissibleError, SafetyError
from repro.datalog.parser import parse_program
from repro.programs.catalog import ALL_PROGRAMS

CORPUS = sorted(
    (pathlib.Path(__file__).parent / "lint_corpus").glob("*.mad")
)

#: Codes with no source anchor: MAD002 points at a declaration clash the
#: declaration table cannot locate.  (MAD504 gained a span when
#: declarations started carrying source regions.)
SPANLESS = {"MAD002"}


def expected_codes(text: str) -> list:
    header = text.splitlines()[0]
    assert header.startswith("% expect:"), "corpus file without header"
    return sorted(header.split(":", 1)[1].split())


def actionable_codes(diagnostics) -> list:
    return sorted(
        {d.code for d in diagnostics if d.severity > Severity.INFO}
    )


# -- the golden corpus -------------------------------------------------------


@pytest.mark.parametrize(
    "path", CORPUS, ids=[p.stem for p in CORPUS]
)
def test_corpus_codes(path):
    text = path.read_text(encoding="utf-8")
    diagnostics = lint_source(text, name=path.name)
    assert actionable_codes(diagnostics) == expected_codes(text)


@pytest.mark.parametrize(
    "path", CORPUS, ids=[p.stem for p in CORPUS]
)
def test_corpus_diagnostics_are_located_and_explained(path):
    text = path.read_text(encoding="utf-8")
    for d in lint_source(text, name=path.name):
        assert d.code in BY_CODE
        assert d.source == path.name
        assert d.why and d.reference
        if d.severity > Severity.INFO and d.code not in SPANLESS:
            assert d.span is not None, f"{d.code} lost its span"
            assert d.span.line >= 1 and d.span.column >= 1


def test_corpus_covers_every_code():
    """Each registered error/warning code has at least one trigger file.

    MAD7xx are runtime divergence findings raised by the engine
    supervisor, not by any static pass — no lint corpus file can trigger
    them (tests/test_supervisor.py covers them instead).  Likewise the
    MAD10xx loader diagnostics fire on data files, not rule text
    (tests/test_loader.py covers them); note "MAD100" matches the
    four-digit MAD1001.. family only, not safety's MAD101.
    """
    covered = set()
    for path in CORPUS:
        covered.update(expected_codes(path.read_text(encoding="utf-8")))
    uncovered = {
        entry.code
        for entry in BY_CODE.values()
        if entry.severity > Severity.INFO
        and not entry.code.startswith(("MAD7", "MAD100"))
    } - covered
    assert not uncovered, f"codes without a corpus trigger: {uncovered}"


def test_distinct_codes_for_distinct_failures():
    """Safety, conflict-freedom and admissibility violations are told
    apart by code (the acceptance criterion of the diagnostics engine)."""
    unsafe = lint_source("p(X, Y) <- q(X). q(a).")
    conflict = lint_source(
        """
        @cost p/2 : reals_ge.
        @cost q/2 : reals_ge.
        @cost r/2 : reals_ge.
        q(a, 1). r(a, 2).
        p(X, C) <- q(X, C).
        p(X, C) <- r(X, C).
        """
    )
    inadmissible = lint_source(
        "@pred p/1. @pred q/1. p(b). q(b).\n"
        "p(a) <- 1 =r count{q(X)}.\n"
        "q(a) <- 1 =r count{p(X)}.\n"
    )
    assert "MAD101" in {d.code for d in unsafe}
    assert "MAD201" in {d.code for d in conflict}
    assert {d.code for d in inadmissible} & {
        "MAD301", "MAD302", "MAD303", "MAD304", "MAD305"
    }
    # and the three families do not bleed into each other
    assert "MAD201" not in {d.code for d in unsafe}
    assert "MAD101" not in {d.code for d in conflict}


# -- registry ----------------------------------------------------------------


def test_registry_is_consistent():
    assert len(BY_CODE) == len(BY_SLUG)
    for slug, entry in BY_SLUG.items():
        assert entry.slug == slug
        assert BY_CODE[entry.code] is entry
        assert entry.code.startswith("MAD")
        assert entry.why and entry.reference
    # family conventions: MAD4xx never error, MAD0-3xx errors
    for entry in BY_CODE.values():
        if entry.code.startswith("MAD4"):
            assert entry.severity < Severity.ERROR
        if entry.code[:4] in ("MAD0", "MAD1", "MAD2", "MAD3"):
            assert entry.severity is Severity.ERROR


def test_diagnostic_rendering_roundtrip():
    d = make_diagnostic("unsafe-variable", "Y not limited (head)")
    assert d.code == "MAD101"
    assert "error[MAD101]" in d.format()
    assert "Definition 2.5" in d.format(explain=True)
    payload = d.to_dict()
    assert payload["severity"] == "error"
    assert payload["span"] is None
    report = json.loads(render_json([d]))
    assert report["summary"]["errors"] == 1
    assert report["summary"]["max_severity"] == "error"
    assert "1 error(s)" in render_text([d])


def test_unknown_slug_raises():
    with pytest.raises(KeyError):
        make_diagnostic("no-such-lint", "boom")


def test_custom_linter_registration():
    linter = Linter()
    before = len(linter.checks)
    linter.register(
        "always-warn",
        lambda program: iter(
            [make_diagnostic("duplicate-rule", "custom finding")]
        ),
    )
    assert len(linter.checks) == before + 1
    diagnostics = linter.lint(parse_program("p(a)."))
    assert any(d.message == "custom finding" for d in diagnostics)


# -- catalog self-check ------------------------------------------------------


@pytest.mark.parametrize(
    "paper_program", ALL_PROGRAMS, ids=[p.name for p in ALL_PROGRAMS]
)
def test_catalog_lints_as_the_paper_classifies(paper_program):
    diagnostics = lint_source(
        paper_program.source, name=paper_program.name
    )
    assert expected_mismatches(paper_program.expected, diagnostics) == []


EXAMPLES = sorted(
    (pathlib.Path(__file__).parent.parent / "examples").glob("*.mad")
)


@pytest.mark.parametrize(
    "path", EXAMPLES, ids=[p.stem for p in EXAMPLES]
)
def test_example_files_lint_clean(path):
    diagnostics = lint_source(
        path.read_text(encoding="utf-8"), name=str(path)
    )
    assert actionable_codes(diagnostics) == []


# -- integration: report, solver, database ----------------------------------


def test_analysis_report_carries_diagnostics():
    db = Database()
    db.load("p(X, Y) <- q(X).")
    db.add_fact("q", "a")
    report = db.analyze()
    assert not report.ok
    assert "MAD101" in {d.code for d in report.diagnostics}
    assert report.diagnostics_by_severity(Severity.ERROR)
    assert "MAD101" in str(report)


def test_strict_solve_attaches_diagnostics():
    db = Database()
    db.load("p(X, Y) <- q(X).")
    db.add_fact("q", "a")
    with pytest.raises(SafetyError) as excinfo:
        db.solve()
    assert {d.code for d in excinfo.value.diagnostics} == {"MAD101"}

    db2 = Database()
    db2.load(
        "@pred p/1. @pred q/1. p(b). q(b).\n"
        "p(a) <- 1 =r count{q(X)}.\n"
        "q(a) <- 1 =r count{p(X)}.\n"
    )
    with pytest.raises(NotAdmissibleError) as excinfo:
        db2.solve()
    assert excinfo.value.diagnostics
    assert all(
        d.code.startswith("MAD3") for d in excinfo.value.diagnostics
    )


def test_database_lint_of_programmatic_rules():
    db = Database()
    db.load("@cost p/2 : reals_ge.\np(X, 1) <- q(X).\np(X, 2) <- q(X).")
    db.add_fact("q", "a")
    diagnostics = db.lint()
    codes = {d.code for d in diagnostics}
    assert "MAD201" in codes and "MAD303" in codes
    # Programmatic/merged programs have no rule text, hence no spans,
    # but codes and messages survive.
    assert all(isinstance(d, Diagnostic) for d in diagnostics)


def test_lint_program_without_source_spans():
    db = Database()
    db.declare("p", 2)
    db.load("p(X, Y) <- q(X). q(a).")
    diagnostics = lint_program(db.program)
    assert "MAD101" in {d.code for d in diagnostics}


# -- CLI ---------------------------------------------------------------------


def test_cli_lint_json(tmp_path, capsys):
    target = tmp_path / "bad.mad"
    target.write_text("p(X, Y) <- q(X).\nq(a).\n", encoding="utf-8")
    exit_code = main(["lint", str(target), "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert exit_code == 2
    codes = {d["code"] for d in payload["diagnostics"]}
    assert "MAD101" in codes
    spans = [
        d["span"] for d in payload["diagnostics"] if d["code"] == "MAD101"
    ]
    assert spans and all(
        s is not None and s["line"] == 1 for s in spans
    )
    assert payload["summary"]["max_severity"] == "error"


def test_cli_lint_exit_codes(tmp_path, capsys):
    clean = tmp_path / "clean.mad"
    clean.write_text("p(a).\n", encoding="utf-8")
    assert main(["lint", str(clean)]) == 0

    warn = tmp_path / "warn.mad"
    warn.write_text("@pred ghost/1.\np(a).\n", encoding="utf-8")
    assert main(["lint", str(warn)]) == 1
    capsys.readouterr()


def test_cli_lint_builtin_program(capsys):
    assert main(["lint", "--program", "shortest-path"]) == 0
    out = capsys.readouterr().out
    assert "0 error(s)" in out


def test_cli_lint_catalog_gate(capsys):
    assert main(["lint", "--catalog"]) == 0
    out = capsys.readouterr().out
    assert "8/8" in out


def test_cli_lint_explain(tmp_path, capsys):
    target = tmp_path / "bad.mad"
    target.write_text("p(X, Y) <- q(X).\nq(a).\n", encoding="utf-8")
    main(["lint", str(target), "--explain"])
    out = capsys.readouterr().out
    assert "Definition 2.5" in out


def test_cli_lint_requires_input(capsys):
    # Usage-class mistake: exit 1 (see the CLI exit-code taxonomy).
    assert main(["lint"]) == 1
    assert "nothing to lint" in capsys.readouterr().err
