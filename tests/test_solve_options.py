"""One ``SolveOptions``: every front door rejects a bad option value the
same way, and obeys none.

The table is each bad value × each door that can carry it.  The expected
message is whatever ``SolveOptions`` itself says, so a door that
re-validates (or re-words) fails here.
"""

import io
from pathlib import Path

import pytest

from repro import Budget, solve_program
from repro.cli import EXIT_USAGE, main
from repro.engine.options import CHOICES, OptionError, SolveOptions
from repro.engine.solver import solve
from repro.engine.supervisor import CancelToken
from repro.programs import shortest_path, two_minimal_models
from repro.repl import run_repl
from repro.serve import RequestSupervisor, host_program_text

EXAMPLE = str(Path(__file__).parent.parent / "examples" / "shortest_path.mad")
ARCS = [("a", "b", 1), ("b", "c", 2), ("c", "a", 4)]

BAD = [
    {"check": "stirct"},
    # At the parent these two ran naive, returned ``complete`` and echoed
    # the typo in ``component_methods``.
    {"method": "semi-naive"},
    {"method": None},
    {"plan": "fancy"},
    {"plan": ["x"]},
    {"pushdown": "sideways"},
    {"shards": 0},
    {"shards": 2.5},
    {"workers": -2},
    {"max_iterations": 0},
    {"max_iterations": -1},
    {"max_iterations": True},
    {"max_iterations": "x"},
]


def _id(bad):
    ((name, value),) = bad.items()
    return f"{name}={value!r}"


def _message(bad) -> str:
    with pytest.raises(ValueError) as caught:
        SolveOptions(**bad)
    ((name, _),) = bad.items()
    assert name in str(caught.value)
    return str(caught.value)


def _database():
    return shortest_path.database({"arc": ARCS})


def _door_solve(bad):
    db = _database()
    solve(db.program, db.edb(), **bad)


def _door_database_solve(bad):
    _database().solve(**bad)


def _door_database_resume(bad):
    db = _database()
    partial = db.solve(budget=Budget(max_iterations=1))
    assert partial.checkpoint is not None
    db.resume(partial.checkpoint, **bad)


def _door_solve_program(bad):
    solve_program(shortest_path.source, {"arc": ARCS}, **bad)


LIBRARY_DOORS = [
    _door_solve,
    _door_database_solve,
    _door_database_resume,
    _door_solve_program,
]


@pytest.mark.parametrize("bad", BAD, ids=_id)
@pytest.mark.parametrize("door", LIBRARY_DOORS, ids=lambda d: d.__name__[6:])
def test_library_doors_reject_with_the_one_message(door, bad):
    expected = _message(bad)
    with pytest.raises(ValueError) as caught:
        door(bad)
    assert str(caught.value) == expected


@pytest.mark.parametrize("bad", BAD, ids=_id)
@pytest.mark.parametrize("command", ["solve", "profile", "explain", "metrics"])
def test_cli_exits_usage(command, bad, capsys):
    ((name, value),) = bad.items()
    if value is None or isinstance(value, list):
        pytest.skip("not expressible as a flag")
    argv = [command, "--program", "shortest-path"]
    argv += ["s(a, b)"] if command == "explain" else []
    argv += ["--" + name.replace("_", "-"), str(value)]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if not err.startswith("usage:"):  # argparse's own rejection
        assert err == f"error: {_message(bad)}\n"


def test_cli_sharded_zero_shards_is_one_error_line(capsys):
    # A ZeroDivisionError traceback out of ``shard_of`` at the parent.
    code = main(
        ["solve", EXAMPLE, "--plan", "sharded", "--shards", "0"]
    )
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == (
        "error: shards must be a positive integer, got 0\n"
    )


@pytest.mark.parametrize(
    "bad", [b for b in BAD if "method" in b and b["method"]], ids=_id
)
def test_repl_method_rejects_with_the_one_message(bad):
    out = io.StringIO()
    script = f".method {bad['method']}\n.method\n"
    assert run_repl(input_stream=io.StringIO(script), output_stream=out) == 0
    assert out.getvalue().splitlines() == [
        f"error: {_message(bad)}",
        "method = auto",  # the typo was not obeyed
    ]


@pytest.mark.parametrize(
    "bad", [b for b in BAD if "method" in b or "plan" in b], ids=_id
)
def test_served_request_is_422_and_nothing_is_cached(bad):
    sup = RequestSupervisor()
    outcome = sup.execute(
        host_program_text("tiny", "edge(a, b).\npath(X, Y) <- edge(X, Y).\n"),
        {"query": "path", **bad},
        request_id="r",
        cancel=CancelToken(),
    )
    assert outcome.http_status == 422
    assert outcome.body == {"status": "rejected", "error": _message(bad)}
    assert outcome.metrics_snapshot == {}  # no solve, no cache traffic
    assert (sup.answers.bytes, len(sup.answers._answers)) == (0, 0)


def test_requests_differing_only_in_an_option_never_share_an_answer():
    sup = RequestSupervisor()
    hosted = host_program_text(
        "tiny", "edge(a, b).\npath(X, Y) <- edge(X, Y).\n"
    )

    def solves(**option) -> int:
        outcome = sup.execute(
            hosted, {"query": "path", **option}, request_id="r",
            cancel=CancelToken(),
        )  # fmt: skip
        assert outcome.http_status == 200
        return outcome.metrics_snapshot.get("solve.wall_s", {}).get("count", 0)

    assert [solves(method=m) for m in ("naive", "seminaive", "naive")] == [
        1, 1, 0,
    ]  # fmt: skip
    assert [solves(method="naive", plan=p) for p in ("off", "off")] == [1, 0]
    assert len(sup.answers._answers) == 3
    for _, _, options in sup.answers._answers:
        assert isinstance(options, SolveOptions)


# -- the typo is rejected, never obeyed -------------------------------------


def test_mistyped_check_does_not_switch_the_gate_off():
    db = two_minimal_models.database()
    # At the parent "stirct" != "strict" skipped the admissibility gate
    # and the program oscillated to NonTerminationError.
    with pytest.raises(ValueError, match="unknown check 'stirct'"):
        db.solve(check="stirct")
    # ... and before the program is looked at at all:
    with pytest.raises(ValueError, match="unknown check"):
        solve(object(), check="stirct")


def test_unknown_plan_message_lists_sharded():
    with pytest.raises(ValueError) as caught:
        _database().solve(plan="fancy")
    assert "'sharded'" in str(CHOICES["plan"])
    assert str(CHOICES["plan"]) in str(caught.value)


def test_an_option_error_is_a_value_error_and_a_library_error():
    from repro.datalog.errors import ReproError

    assert issubclass(OptionError, ValueError)
    assert issubclass(OptionError, ReproError)


def test_an_unknown_option_is_a_type_error():
    with pytest.raises(TypeError, match="storage"):
        _database().solve(storage="columnar")


# -- the four solving subcommands take the same flags -----------------------


def test_explain_takes_the_sharded_plan(capsys):
    code = main(
        ["explain", EXAMPLE, "s(a, b)", "--plan", "sharded", "--shards", "4",
         "--workers", "2"]
    )  # fmt: skip
    assert code == 0, capsys.readouterr().err
    assert capsys.readouterr().out.startswith("s('a', 'b', 1)")


def test_solve_program_forwards_every_option():
    reference = solve_program(shortest_path.source, {"arc": ARCS})
    result = solve_program(
        shortest_path.source,
        {"arc": ARCS},
        method="seminaive",
        plan="off",
        pushdown="off",
    )
    assert result.component_methods[-1] == "seminaive"
    assert result["s"] == reference["s"]


def test_options_are_hashable_and_compare_by_value():
    assert SolveOptions(method="auto") == SolveOptions(method="auto")
    assert len({SolveOptions(), SolveOptions(), SolveOptions(plan="off")}) == 2
    with pytest.raises(AttributeError):
        SolveOptions().method = "auto"
