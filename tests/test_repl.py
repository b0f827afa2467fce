"""``repro repl``: dot commands, rule buffering, error resilience.

The shell is pipeable by design — every test drives it with a
StringIO script exactly the way the CI smoke job pipes
``examples/data/smoke.repl`` through the CLI.
"""

from __future__ import annotations

import io
import os

from repro.core.database import Database
from repro.repl import Repl, run_repl

DATA_DIR = os.path.join(os.path.dirname(__file__), "..", "examples", "data")
ROADS_CSV = os.path.join(DATA_DIR, "roads.csv")
SHARES_JSONL = os.path.join(DATA_DIR, "shares.jsonl")
SMOKE_SCRIPT = os.path.join(DATA_DIR, "smoke.repl")


def run_script(text, db=None, **kwargs):
    out = io.StringIO()
    rc = run_repl(
        db,
        input_stream=io.StringIO(text),
        output_stream=out,
        **kwargs,
    )
    return rc, out.getvalue()


def test_rules_load_and_solve():
    rc, out = run_script(
        "@pred edge/2.\n"
        "edge(a, b).\n"
        "reach(X) <- edge(X, Y).\n"
        ".solve\n"
        ".query reach\n"
    )
    assert rc == 0
    assert "model:" in out
    assert "reach('a')" in out
    assert "% 1 rows" in out


def test_facts_of_a_rule_head_added_after_a_solve_are_kept():
    """The REPL path of the ``add_fact`` fix: a later fact of a derived
    predicate joins the next model instead of being dropped."""
    rc, out = run_script(
        "q(1).\n"
        "p(X) <- q(X).\n"
        ".solve\n"
        ".query p\n"
        "p(2).\n"
        ".solve\n"
        ".query p\n"
    )
    assert rc == 0
    first, second = out.split("model:")[1:]
    assert "% 1 rows" in first and "% 2 rows" in second
    assert "p(2)" in second


def test_multiline_rule_buffers_until_dot():
    rc, out = run_script(
        "@pred edge/2.\n"
        "edge(a, b).\n"
        "reach(X) <-\n"
        "    edge(X, Y).\n"
        ".solve\n"
    )
    assert rc == 0 and "model:" in out


def test_comments_and_blank_lines_skipped():
    rc, out = run_script("% nothing here\n\n.solve\n")
    assert rc == 0 and "model: 0 atoms" in out


def test_csv_and_jsonl_commands():
    db = Database()
    db.load("@cost arc/3 : reals_ge.\n@cost s/3 : nonneg_reals_le.")
    rc, out = run_script(
        f".csv arc {ROADS_CSV}\n.jsonl {SHARES_JSONL}\n.solve\n", db
    )
    assert rc == 0
    assert "attached" in out and "22 arc rows" in out
    assert "12 s" in out
    assert "model: 34 atoms" in out  # 22 arcs + 12 shares, no rules


def test_method_knob():
    rc, out = run_script(".method\n.method greedy\n.method\n.method nosuch\n")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[:3] == ["method = auto", "method = greedy", "method = greedy"]
    assert lines[3].startswith("error:") and "auto" in lines[3]


def test_errors_do_not_kill_the_shell():
    rc, out = run_script(
        ".bogus\n"
        ".csv onearg\n"
        ".query nothing_solved\n"
        "this is not valid rule text.\n"
        ".solve\n"
    )
    assert rc == 0
    errors = [line for line in out.splitlines() if line.startswith("error:")]
    assert len(errors) == 4
    assert "model:" in out  # the shell kept going


def test_quit_stops_processing():
    rc, out = run_script(".quit\n.solve\n")
    assert rc == 0 and "model:" not in out


def test_unterminated_rule_flushes_at_eof_with_error():
    # A dangling buffer is flushed at EOF; broken text surfaces as an
    # error line instead of being silently dropped.
    rc, out = run_script("reach(X) <- edge(X, Y)\n")
    assert rc == 0
    assert out.startswith("error:")


def test_help_lists_commands():
    rc, out = run_script(".help\n")
    assert rc == 0
    for command in (".csv", ".jsonl", ".solve", ".query", ".method"):
        assert command in out


def test_interactive_mode_prints_prompts():
    out = io.StringIO()
    repl = Repl(
        input_stream=io.StringIO(".quit\n"),
        output_stream=out,
        interactive=True,
    )
    assert repl.run() == 0
    assert "mad>" in out.getvalue()


def test_smoke_script_end_to_end(monkeypatch):
    # The exact artifact CI pipes through the CLI, run from repo root.
    monkeypatch.chdir(os.path.join(DATA_DIR, "..", ".."))
    with open(SMOKE_SCRIPT, encoding="utf-8") as handle:
        rc, out = run_script(handle.read())
    assert rc == 0
    assert "attached examples/data/roads.csv: 22 arc rows" in out
    assert "model: 92 atoms in 2 components (13 iterations)" in out
    assert "source('avon')" in out and "source('iona')" in out
