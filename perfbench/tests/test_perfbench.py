"""The benchmark's own tests (smoke sizes)::

    python -m pytest perfbench/tests

They check the harness, not the engine: that ``BENCHMARK.json`` keeps to
its contract, that every declared metric is printed with its unit, that
the exact counters repeat at equal seed and move with the seed, that
each oracle rejects a perturbed model, and that spans nest.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import compare  # noqa: E402
import run as run_module  # noqa: E402
import runner  # noqa: E402
from layers import EXACT  # noqa: E402
from measure import Spans  # noqa: E402

SPEC = run_module.load_spec()
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def session(tmp_path_factory):
    return runner.Session(
        str(tmp_path_factory.mktemp("out")), os.path.join(ROOT, "src"), smoke=True
    )


def run_cli(*argv):
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), *argv],
        capture_output=True, text=True, timeout=120,
    )  # fmt: skip
    return done.returncode, done.stdout.splitlines()


# -- BENCHMARK.json ----------------------------------------------------------------------


def test_spec_keeps_to_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }  # fmt: skip
    assert SPEC["paths"] == ["perfbench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = []
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
        names.append(metric["name"])
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    size = os.path.getsize(os.path.join(ROOT, "BENCHMARK.json"))
    assert size <= 64 * 1024


def test_exact_metrics_are_declared():
    assert EXACT <= {m["name"] for m in SPEC["per_layer"]}


# -- one run, as the driver makes it -----------------------------------------------------


@pytest.mark.parametrize(
    "workload, trace, kind",
    [
        ("sp_seminaive", 0, "end_to_end"),
        ("bulk_load", 1, "per_layer"),
        ("serve_cold", 0, "end_to_end"),
        ("serve_repeat", 1, "per_layer"),
    ],
)
def test_every_declared_metric_is_printed_with_its_unit(workload, trace, kind):
    code, lines = run_cli(
        "--workload", workload, "--smoke", "--seed", "3", "--trace", str(trace)
    )
    assert code == 0
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    assert list(last["metrics"]) == [m["name"] for m in SPEC[kind]]
    for declared in SPEC[kind]:
        metric = last["metrics"][declared["name"]]
        assert metric["unit"] == declared["unit"]
        assert isinstance(metric["value"], (int, float))
        if kind == "end_to_end":
            assert metric["value"] > 0
        assert any(
            line.split()[1:2] == [declared["name"]] and line.endswith(declared["unit"])
            for line in lines[:-1]
        )


def test_no_engine_means_no_result(tmp_path):
    env = dict(os.environ, PERFBENCH_SRC=str(tmp_path))
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "bulk_load"],
        env=env, capture_output=True, text=True, timeout=60,
    )  # fmt: skip
    assert done.returncode != 0 and not done.stdout.strip()


# -- exact counters ------------------------------------------------------------------------


def traced(session, name, seed):
    run = runner.run_serve if name.startswith("serve") else runner.run_solve
    record = run(session, name, seed, 0.3, True)
    assert record.failed == 0
    return {k: v for k, v in record.metrics.items() if k in EXACT}


@pytest.mark.parametrize("name", ["sp_seminaive", "party_naive", "wide_program"])
def test_exact_counters_repeat_at_equal_seed_and_move_with_the_seed(session, name):
    first, again, other = (traced(session, name, seed) for seed in (5, 5, 6))
    assert first == again
    assert first != other


# -- oracles -------------------------------------------------------------------------------


def perturbations(rows):
    """One row dropped; one cost lowered (or, for a plain predicate, one
    row replaced by a key that is not in the model)."""
    query = next(q for q, found in rows.items() if found)
    dropped = dict(rows, **{query: rows[query][1:]})
    head = rows[query][0]
    if isinstance(head[-1], (int, float)) and len(head) > 1:
        changed = head[:-1] + (head[-1] - 1,)
    else:
        changed = head[:-1] + (-1,)
    lowered = dict(rows, **{query: [changed] + rows[query][1:]})
    return dropped, lowered


def test_each_oracle_rejects_a_perturbed_model(session):
    for name, workload in session.workloads.solve_workloads().items():
        workload.generate(7, session.out_dir, True)
        workload.compute_oracle()
        result, rows = workload.op()
        record = runner.Record(name, 7, False)
        assert record.count(workload.check(result, rows)), name
        for bad in perturbations(rows):
            assert not record.count(workload.check(result, bad)), name
        assert record.failed / record.attempted > 0


def test_serve_oracle_rejects_bad_responses(session):
    serving = session.serving
    workload = serving.serve_workloads()["serve_repeat"]
    workload.generate(7, session.out_dir, True)
    workload.compute_oracle()
    rows = [[x, y, c] for (x, y), c in workload.expected["db0"].items()]
    body = {"status": "complete", "rows": rows}
    assert workload.ok(serving.Sample("db0", 200, body, 0.01))
    assert not workload.ok(serving.Sample("db0", 503, body, 0.01))
    assert not workload.ok(serving.Sample("db0", 200, dict(body, rows=rows[1:]), 0.01))
    lowered = [[rows[0][0], rows[0][1], rows[0][2] - 1]] + rows[1:]
    assert not workload.ok(serving.Sample("db0", 200, dict(body, rows=lowered), 0.01))
    assert not workload.ok(serving.Sample("db0", 200, dict(body, status="timeout"), 0.01))


# -- spans ---------------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["roads_greedy", "straggler_sharded"])
def test_spans_nest_and_cover_the_op(session, name):
    workload = session.workloads.solve_workloads()[name]
    workload.generate(9, session.out_dir, True)
    workload.compute_oracle()
    workload.op()
    spans = Spans()
    for op in range(3):
        result, rows = workload.layered(spans, op)
        assert workload.check(result, rows)
    for record in spans.records:
        assert record["end"] >= record["start"]
        if record["name"] == "op":
            assert record["parent"] is None
            continue
        parent = spans.records[record["parent"]]
        assert parent["name"] == "op" and parent["op"] == record["op"]
        assert parent["start"] <= record["start"] and record["end"] <= parent["end"]
    durations = spans.durations(2)
    children = sum(v for k, v in durations.items() if k != "op")
    assert 0.9 <= children / durations["op"] <= 1.0
    selfs = workload.self_times(durations)
    assert all(value >= 0 for value in selfs.values())
    assert sum(selfs.values()) <= children
    path = os.path.join(session.out_dir, "spans.jsonl")
    spans.write_jsonl(path)
    with open(path, encoding="utf-8") as handle:
        written = [json.loads(line) for line in handle]
    assert {"id", "name", "start", "end", "parent", "op"} <= set(written[0])


def test_layers_cover_is_within_bounds(session):
    record = runner.run_solve(session, "bulk_load", 9, 0.5, True)
    assert record.failed == 0
    assert 0.7 <= record.metrics["layers_cover"] <= 1.3


# -- gates ---------------------------------------------------------------------------------


def test_check_against_flags_exact_and_bound_violations(tmp_path):
    metrics = {m["name"]: 10.0 for m in SPEC["end_to_end"]}
    metrics.update({name: 5 for name in EXACT})
    previous = {"seed": 1, "smoke": True, "workloads": {"w": {"metrics": metrics}}}
    path = tmp_path / "prev.json"
    path.write_text(json.dumps(previous))
    assert run_module.check_against(previous, str(path), SPEC) == []
    moved = json.loads(json.dumps(previous))
    moved["workloads"]["w"]["metrics"]["engine.rounds"] = 6
    moved["workloads"]["w"]["metrics"]["op_p50_ms"] = 13.0  # 30% slower
    moved["workloads"]["w"]["metrics"]["ops_per_s"] = 7.0  # base/new = 1.43
    problems = run_module.check_against(moved, str(path), SPEC)
    assert len(problems) == 3
    # Another seed: counts may differ, bounds still hold.
    moved["seed"] = 2
    assert len(run_module.check_against(moved, str(path), SPEC)) == 2


def test_compare_verdicts():
    base = [100.0 + i for i in range(10)]
    assert compare.verdict(base, base, "lower", 0.1)["verdict"] == "unchanged"
    faster = [v * 0.5 for v in base]
    assert compare.verdict(base, faster, "lower", 0.1)["verdict"] == "improved"
    assert compare.verdict(base, faster, "higher", 0.1)["verdict"] == "regressed"
    slower = [v * 1.2 for v in base]
    assert compare.verdict(base, slower, "lower", 0.1)["verdict"] == "regressed"
    wide = [50.0, 150.0] * 5
    assert compare.verdict(wide, faster, "lower", 0.1)["verdict"] == "unresolved"
