"""The command-line interface."""

from pathlib import Path

import pytest

from repro.cli import main


@pytest.fixture
def sp_files(tmp_path):
    rules = tmp_path / "sp.mad"
    rules.write_text(
        """
        @cost arc/3  : reals_ge.
        @cost path/4 : reals_ge.
        @cost s/3    : reals_ge.
        @constraint arc(direct, Z, C).
        path(X, direct, Y, C) <- arc(X, Y, C).
        path(X, Z, Y, C) <- s(X, Z, C1), arc(Z, Y, C2), C = C1 + C2.
        s(X, Y, C) <- C =r min{D : path(X, Z, Y, D)}.
        """
    )
    facts = tmp_path / "facts.mad"
    facts.write_text("arc(a, b, 1).\narc(b, c, 2).\n")
    return str(rules), str(facts)


class TestSolve:
    def test_solve_files(self, sp_files, capsys):
        rules, facts = sp_files
        assert main(["solve", rules, "--facts", facts, "--query", "s"]) == 0
        out = capsys.readouterr().out
        assert "s('a', 'c', 3)" in out

    def test_builtin_program(self, sp_files, capsys):
        _, facts = sp_files
        code = main(
            ["solve", "--program", "shortest-path", "--facts", facts,
             "--query", "s"]
        )
        assert code == 0
        assert "s('a', 'b', 1)" in capsys.readouterr().out

    def test_methods(self, sp_files, capsys):
        rules, facts = sp_files
        for method in ("naive", "seminaive", "greedy"):
            assert (
                main(
                    ["solve", rules, "--facts", facts, "--method", method,
                     "--query", "s"]
                )
                == 0
            )

    def test_strict_rejects_bad_program(self, capsys):
        assert main(["solve", "--program", "two-minimal-models"]) == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_builtin(self, capsys):
        # Usage-class mistake: exit 1, not the diagnostics exit 2.
        assert main(["solve", "--program", "no-such"]) == 1

    def test_missing_file(self, capsys):
        assert main(["solve", "/nonexistent/file.mad"]) == 1


class TestTelemetrySurfaces:
    def test_solve_trace_writes_valid_jsonl(self, sp_files, tmp_path, capsys):
        rules, facts = sp_files
        out = tmp_path / "trace.jsonl"
        assert (
            main(["solve", rules, "--facts", facts, "--trace", str(out)]) == 0
        )
        assert out.exists()
        from repro.obs import validate_jsonl

        assert validate_jsonl(str(out)) == []
        # And the CLI validator agrees.
        capsys.readouterr()
        assert main(["validate-trace", str(out)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_validate_trace_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"v": 1, "seq": 1, "t": 0.0, "type": "warp"}\n')
        assert main(["validate-trace", str(bad)]) == 1
        assert "INVALID" in capsys.readouterr().out

    def test_solve_stats_prints_tables(self, sp_files, capsys):
        rules, facts = sp_files
        assert main(["solve", rules, "--facts", facts, "--stats"]) == 0
        err = capsys.readouterr().err
        assert "scc" in err
        assert "solve:" in err

    def test_solve_reports_scc_membership(self, sp_files, capsys):
        rules, facts = sp_files
        assert (
            main(["solve", rules, "--facts", facts, "--method", "auto"]) == 0
        )
        err = capsys.readouterr().err
        # Which predicates each per-component method applied to.  The
        # aggregate pushdown (on by default) rewrites the recursive
        # component to read the collapsed frontier (docs/OPTIMIZATION.md).
        assert "% scc {path__frontier, s}:" in err

    def test_profile_ranks_rules(self, sp_files, capsys):
        rules, facts = sp_files
        assert main(["profile", rules, "--facts", facts]) == 0
        out = capsys.readouterr().out
        assert "hot rules" in out
        assert "convergence" in out
        assert "s(X, Y, C)" in out

    def test_explain_command(self, sp_files, capsys):
        rules, facts = sp_files
        assert main(["explain", rules, "s(a, c)", "--facts", facts]) == 0
        out = capsys.readouterr().out
        assert "s('a', 'c', 3)" in out
        assert "[EDB fact]" in out

    @pytest.mark.parametrize("command", ["explain", "solve"])
    def test_explain_of_a_non_ground_atom_is_a_usage_error(
        self, sp_files, capsys, command
    ):
        rules, facts = sp_files
        argv = (
            ["explain", rules, "s(X, c)", "--facts", facts]
            if command == "explain"
            else ["solve", rules, "--facts", facts, "--explain", "s(X, c)"]
        )
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "error: cannot explain s(X, c): argument X is not ground\n"
        )
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["solve-query", "solve-explain", "explain"])
    def test_unknown_predicate_is_a_usage_error(self, sp_files, capsys, command):
        """Checked against the program's declarations before solving:
        exit 1 with one ``error:`` line, nothing printed."""
        rules, facts = sp_files
        argv = {
            "solve-query": ["solve", rules, "--facts", facts, "--query", "nope"],
            "solve-explain": ["solve", rules, "--facts", facts, "--explain", "nope(a)"],
            "explain": ["explain", rules, "nope(a)", "--facts", facts],
        }[command]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: unknown predicate nope\n"
        assert captured.out == ""


class TestAnalyze:
    def test_admissible_exit_zero(self, sp_files, capsys):
        rules, _ = sp_files
        assert main(["analyze", rules]) == 0
        assert "admissible/monotonic:  True" in capsys.readouterr().out

    def test_non_admissible_exits_diagnostics(self, capsys):
        assert main(["analyze", "--program", "two-minimal-models"]) == 2


class TestSupervisionFlags:
    DIVERGING = str(
        Path(__file__).resolve().parent.parent / "examples" / "diverging.mad"
    )

    def test_timeout_on_diverging_exits_budget_code(self, capsys):
        assert main(["solve", self.DIVERGING, "--timeout", "0.5"]) == 4
        captured = capsys.readouterr()
        assert "solve interrupted (timeout" in captured.err
        assert "MAD701" in captured.err
        # The sound partial model was still printed.
        assert "s(" in captured.out

    @pytest.mark.parametrize("method", ["auto", "greedy", "seminaive"])
    def test_timeout_on_diverging_is_resumable_under_every_delta_policy(
        self, method, tmp_path, capsys
    ):
        """The example's own header promises exit 4 plus a checkpoint;
        the cost-ordered policy keeps it (it used to exit 0 with
        ``s(a,b)=1``, which is not even a pre-model)."""
        ckpt = tmp_path / "div.ckpt.json"
        args = ["solve", self.DIVERGING, "--method", method]
        assert main(args + ["--timeout", "0.3", "--checkpoint", str(ckpt)]) == 4
        assert "solve interrupted (timeout" in capsys.readouterr().err
        assert main(args + ["--timeout", "0.3", "--resume", str(ckpt)]) == 4
        assert "solve interrupted (timeout" in capsys.readouterr().err

    def test_unknown_query_predicate_fails_before_the_budgeted_solve(
        self, tmp_path, capsys
    ):
        """No solve runs, so no partial model and no checkpoint: the
        mistake is reported as a usage error up front."""
        ckpt = tmp_path / "div.ckpt.json"
        argv = ["solve", self.DIVERGING, "--timeout", "0.3",
                "--checkpoint", str(ckpt), "--query", "nope"]  # fmt: skip
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: unknown predicate nope\n"
        assert captured.out == ""
        assert not ckpt.exists()

    def test_on_divergence_abort_exits_budget_code(self, capsys):
        code = main(["solve", self.DIVERGING, "--on-divergence", "abort"])
        assert code == 4
        assert "diverging" in capsys.readouterr().err

    def test_checkpoint_then_resume_matches_plain_solve(
        self, sp_files, tmp_path, capsys
    ):
        rules, facts = sp_files
        ckpt = tmp_path / "solve.ckpt.json"
        code = main(
            ["solve", rules, "--facts", facts, "--max-iterations", "1",
             "--checkpoint", str(ckpt), "--query", "s"]
        )
        assert code == 4
        assert ckpt.exists()
        assert "checkpoint written" in capsys.readouterr().err

        code = main(
            ["solve", rules, "--facts", facts, "--resume", str(ckpt),
             "--query", "s"]
        )
        assert code == 0
        resumed = capsys.readouterr().out

        assert main(["solve", rules, "--facts", facts, "--query", "s"]) == 0
        assert resumed == capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["profile", "--top", "-1"], "top must be a positive integer, got -1"),
            (["profile", "--top", "0"], "top must be a positive integer, got 0"),
            (["explain", "s(a, c)", "--max-depth", "-1"],
             "max_depth must be a non-negative integer, got -1"),
        ],
    )
    def test_count_flags_reject_out_of_range_values(
        self, sp_files, capsys, argv, message
    ):
        """``--top -1`` used to print "top -1" and drop the coldest rule;
        ``--max-depth -1`` was accepted.  Each is one usage line now,
        before any solve runs."""
        rules, facts = sp_files
        command, *rest = argv
        atom = [rest.pop(0)] if command == "explain" else []
        assert main([command, rules, *atom, "--facts", facts, *rest]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    def test_bad_flag_exits_usage(self, capsys):
        assert main(["solve", "--no-such-flag"]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0


def test_unlexable_digit_exits_two_with_a_located_message(tmp_path, capsys):
    # "²" passes str.isdigit but not int(): a parse error, not a traceback,
    # on every front door that reads rule text.
    bad = tmp_path / "superscript.mad"
    bad.write_text("p(²).\n", encoding="utf-8")
    assert main(["solve", str(bad)]) == 2
    assert "error: unexpected character '²' at line 1, column 3" in capsys.readouterr().err
    assert main(["lint", str(bad)]) == 2
    assert f"{bad}:1:3: error[MAD001] unexpected character '²'" in capsys.readouterr().out
    # The server loads every hosted file before it binds a port.
    assert main(["serve", f"db0={bad}", "--port", "0"]) == 2
    assert "unexpected character '²'" in capsys.readouterr().err


def test_examples_lists_catalog(capsys):
    assert main(["examples"]) == 0
    out = capsys.readouterr().out
    assert "shortest-path" in out
    assert "Example 2.6" in out
