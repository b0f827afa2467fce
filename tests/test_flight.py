"""The flight recorder: ring semantics, dumps, and ``repro postmortem``."""

import json
import os
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.cli import main
from repro.obs import (
    FlightRecorder,
    Tracer,
    default_dump_path,
    load_dump,
    render_postmortem,
)
from repro.obs.events import SCHEMA_VERSION


def make_recorder(total_events, capacity=4):
    """A recorder fed ``total_events`` synthetic events via a tracer."""
    flight = FlightRecorder(capacity=capacity)
    tracer = Tracer(flight, collect=False)
    for i in range(total_events):
        tracer.emit(
            "iteration", scc=0, iteration=i, delta_atoms=1, new_atoms=1,
            changed_atoms=0, total_atoms=i + 1, wall_s=0.0,
        )
    return flight


class TestRing:
    def test_retains_only_last_capacity_events(self):
        flight = make_recorder(10, capacity=4)
        assert len(flight.events) == 4
        rounds = [event["iteration"] for event in flight.events]
        assert rounds == [6, 7, 8, 9]

    def test_counts_dropped_events(self):
        assert make_recorder(10, capacity=4).dropped == 6
        assert make_recorder(3, capacity=4).dropped == 0
        assert make_recorder(4, capacity=4).dropped == 0

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)


class TestDumpRoundTrip:
    def test_dump_and_load(self, tmp_path):
        flight = make_recorder(10, capacity=4)
        path = str(tmp_path / "dump.jsonl")
        flight.dump(path, status="budget_exceeded", reason="iterations 3/3")
        header, events = load_dump(path)
        assert header["type"] == "postmortem"
        assert header["v"] == SCHEMA_VERSION
        assert header["status"] == "budget_exceeded"
        assert header["reason"] == "iterations 3/3"
        assert header["capacity"] == 4
        assert header["retained"] == 4
        assert header["dropped"] == 6
        assert [event["iteration"] for event in events] == [6, 7, 8, 9]

    def test_event_lines_are_replayable_jsonl(self, tmp_path):
        """Every non-header line parses standalone — the dump can be fed
        to any JSONL tooling."""
        flight = make_recorder(3, capacity=8)
        path = str(tmp_path / "dump.jsonl")
        flight.dump(path, status="cancelled", reason="")
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        assert len(lines) == 1 + 3
        for line in lines[1:]:
            event = json.loads(line)
            assert event["type"] == "iteration"
            assert event["v"] == SCHEMA_VERSION


class TestLoadDumpRejections:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="empty file"):
            load_dump(str(path))

    def test_non_json_file(self, tmp_path):
        path = tmp_path / "junk.jsonl"
        path.write_text("this is not json\n")
        with pytest.raises(ValueError, match="not JSONL"):
            load_dump(str(path))

    def test_plain_trace_file_named_in_error(self, tmp_path):
        """A regular --trace stream starts with a trace event, not the
        postmortem header; the error should say so."""
        path = tmp_path / "trace.jsonl"
        path.write_text(
            json.dumps({"v": SCHEMA_VERSION, "type": "solve_start"}) + "\n"
        )
        with pytest.raises(ValueError, match="postmortem header"):
            load_dump(str(path))

    def test_mistyped_field_names_the_line(self, tmp_path):
        """Each event is checked against the schema (not the stream: a
        ring may start after ``trace_start``), so the digest never reads
        a mistyped field."""
        flight = make_recorder(3, capacity=8)
        path = tmp_path / "dump.jsonl"
        flight.dump(str(path), status="partial", reason="")
        lines = path.read_text().splitlines()
        event = json.loads(lines[2])
        event["scc"] = "zero"
        lines[2] = json.dumps(event)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"dump.jsonl:3: iteration.scc must be int"):
            load_dump(str(path))


class TestRenderPostmortem:
    def render(self, tmp_path, total=10, capacity=4, tail=10):
        flight = make_recorder(total, capacity=capacity)
        path = str(tmp_path / "dump.jsonl")
        flight.dump(path, status="budget_exceeded", reason="wall 1.0s/0.5s")
        header, events = load_dump(path)
        return render_postmortem(header, events, tail=tail)

    def test_header_and_reason_rendered(self, tmp_path):
        text = self.render(tmp_path)
        assert "== postmortem: budget_exceeded ==" in text
        assert "reason: wall 1.0s/0.5s" in text
        assert "4 events retained" in text
        assert "6 older" in text

    def test_tail_limits_event_listing(self, tmp_path):
        text = self.render(tmp_path, total=10, capacity=8, tail=2)
        assert "-- last 2 events --" in text
        listed = [line for line in text.splitlines() if "iteration" in line]
        assert len(listed) == 2

    def test_tail_past_a_short_ring_lists_every_event(self, tmp_path):
        text = self.render(tmp_path, total=6, capacity=8, tail=10)
        assert "-- last 6 events --" in text
        listed = [line for line in text.splitlines() if "iteration" in line]
        assert len(listed) == 6

    def test_empty_ring_renders(self):
        header = {
            "type": "postmortem",
            "v": SCHEMA_VERSION,
            "status": "error",
            "reason": "",
            "capacity": 4,
            "retained": 0,
            "dropped": 0,
        }
        text = render_postmortem(header, [])
        assert "(ring is empty)" in text


class TestFlightCli:
    def chain_facts(self, tmp_path, n=30):
        facts = tmp_path / "facts.mad"
        facts.write_text(
            "".join(f"arc({i}, {i + 1}, 1.0).\n" for i in range(n))
        )
        return str(facts)

    def test_budget_exceeded_solve_writes_replayable_dump(
        self, tmp_path, capsys
    ):
        dump = str(tmp_path / "fr.jsonl")
        code = main(
            [
                "solve",
                "--program",
                "shortest-path",
                "--facts",
                self.chain_facts(tmp_path),
                "--max-iterations",
                "3",
                "--flight",
                dump,
            ]
        )
        assert code == 4  # EXIT_BUDGET
        assert "flight recorder dump written" in capsys.readouterr().err
        header, events = load_dump(dump)
        assert header["status"] == "partial"
        assert "budget" in header["reason"]
        assert events, "budget-exceeded solve should retain events"

        assert main(["postmortem", dump]) == 0
        out = capsys.readouterr().out
        assert "== postmortem: partial ==" in out
        assert "-- captured telemetry --" in out

    def test_postmortem_tail_is_a_count(self, tmp_path, capsys):
        """``--tail -3`` used to list all but the first three events, and
        ``--tail 0`` the whole ring under the heading "last 0 events"."""
        dump = str(tmp_path / "fr.jsonl")
        argv = ["solve", "--program", "shortest-path", "--facts",
                self.chain_facts(tmp_path), "--max-iterations", "3",
                "--flight", dump]  # fmt: skip
        assert main(argv) == 4
        capsys.readouterr()
        assert main(["postmortem", dump, "--tail", "-3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: tail must be a non-negative integer, got -3\n"
        assert main(["postmortem", dump, "--tail", "0"]) == 0
        out = capsys.readouterr().out
        assert "-- last 0 events --" in out
        assert "seq=" not in out

    def test_postmortem_on_plain_trace_file_is_usage_error(
        self, tmp_path, capsys
    ):
        trace = str(tmp_path / "trace.jsonl")
        code = main(
            [
                "solve",
                "--program",
                "shortest-path",
                "--facts",
                self.chain_facts(tmp_path, n=3),
                "--trace",
                trace,
            ]
        )
        assert code == 0
        capsys.readouterr()
        assert main(["postmortem", trace]) == 1  # EXIT_USAGE
        assert "postmortem header" in capsys.readouterr().err

    def test_normal_solve_leaves_no_dump(self, tmp_path, capsys):
        dump = tmp_path / "fr.jsonl"
        code = main(
            [
                "solve",
                "--program",
                "shortest-path",
                "--facts",
                self.chain_facts(tmp_path, n=3),
                "--flight",
                str(dump),
            ]
        )
        assert code == 0
        capsys.readouterr()
        assert not dump.exists()

    def test_flight_size_caps_the_retained_ring(self, tmp_path, capsys):
        dump = str(tmp_path / "fr.jsonl")
        code = main(
            [
                "solve",
                "--program",
                "shortest-path",
                "--facts",
                self.chain_facts(tmp_path),
                "--max-iterations",
                "3",
                "--flight",
                dump,
                "--flight-size",
                "4",
            ]
        )
        assert code == 4  # EXIT_BUDGET
        capsys.readouterr()
        header, events = load_dump(dump)
        assert header["retained"] == len(events) <= 4

    def test_dump_path_defaults_to_collision_safe_name(
        self, tmp_path, capsys, monkeypatch
    ):
        """Without ``--flight PATH`` the dump lands on the timestamped
        pid-suffixed default, so concurrent CLI runs never clobber.
        (``--stats`` arms the tracer ring without naming a dump path.)"""
        monkeypatch.chdir(tmp_path)
        code = main(
            [
                "solve",
                "--program",
                "shortest-path",
                "--facts",
                self.chain_facts(tmp_path),
                "--max-iterations",
                "3",
                "--stats",
            ]
        )
        assert code == 4
        err = capsys.readouterr().err
        assert "flight recorder dump written" in err
        dumps = sorted(tmp_path.glob("repro-postmortem-*.jsonl"))
        assert len(dumps) == 1
        assert f"-{os.getpid()}" in dumps[0].name
        header, events = load_dump(str(dumps[0]))
        assert header["status"] == "partial"
        assert events

    def test_default_paths_in_one_second_are_distinct(self, tmp_path):
        """Two dumps from one process in the same second (two ``repro
        serve`` request threads crashing together) get two files: the
        name is reserved when it is handed out, not when it is written."""
        first = default_dump_path(str(tmp_path))
        second = default_dump_path(str(tmp_path))
        assert first != second
        assert os.path.exists(first) and os.path.exists(second)
        # More threads than cores racing for the same names.
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [
                pool.submit(default_dump_path, str(tmp_path)) for _ in range(32)
            ]
            paths = [f.result(timeout=30) for f in futures]
        assert len(set(paths) | {first, second}) == 34

    def test_postmortem_on_truncated_dump_is_usage_error(
        self, tmp_path, capsys
    ):
        dump = str(tmp_path / "fr.jsonl")
        code = main(
            [
                "solve",
                "--program",
                "shortest-path",
                "--facts",
                self.chain_facts(tmp_path),
                "--max-iterations",
                "3",
                "--flight",
                dump,
            ]
        )
        assert code == 4
        capsys.readouterr()
        lines = open(dump).read().splitlines()
        assert len(lines) > 2
        # Drop the final events: the header now promises more than the
        # file holds — the reader must refuse, loudly.
        with open(dump, "w") as fh:
            fh.write("\n".join(lines[:2]) + "\n")
        assert main(["postmortem", dump]) == 1  # EXIT_USAGE
        assert "truncated dump" in capsys.readouterr().err

    def test_postmortem_on_mangled_line_is_usage_error(
        self, tmp_path, capsys
    ):
        dump = str(tmp_path / "fr.jsonl")
        code = main(
            [
                "solve",
                "--program",
                "shortest-path",
                "--facts",
                self.chain_facts(tmp_path),
                "--max-iterations",
                "3",
                "--flight",
                dump,
            ]
        )
        assert code == 4
        capsys.readouterr()
        raw = open(dump).read()
        # Chop the file mid-line: a half-written record from a crash.
        with open(dump, "w") as fh:
            fh.write(raw[: len(raw) - 20])
        assert main(["postmortem", dump]) == 1
        assert "truncated dump" in capsys.readouterr().err

    def test_postmortem_on_mistyped_field_is_usage_error(self, tmp_path, capsys):
        dump = tmp_path / "fr.jsonl"
        code = main(
            [
                "solve",
                "--program",
                "shortest-path",
                "--facts",
                self.chain_facts(tmp_path),
                "--max-iterations",
                "3",
                "--flight",
                str(dump),
            ]
        )
        assert code == 4
        capsys.readouterr()
        lines = dump.read_text().splitlines()
        at = next(i for i, line in enumerate(lines) if '"type": "iteration"' in line)
        event = json.loads(lines[at])
        event["scc"] = "zero"
        lines[at] = json.dumps(event)
        dump.write_text("\n".join(lines) + "\n")
        assert main(["postmortem", str(dump)]) == 1  # EXIT_USAGE
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: {dump}:{at + 1}: iteration.scc must be int")
