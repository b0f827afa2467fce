#!/usr/bin/env python3
"""perfbench: the layered, oracle-checked benchmark.

One run of one workload (what the driver calls)::

    python3 perfbench/run.py --workload sp_seminaive --seed 11 --seconds 10 --trace 0

prints the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``) and, as the last line of standard output, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.

Without ``--workload`` every workload of ``BENCHMARK.json`` is run both
ways, each run in a process of its own, every metric is printed by name
with its unit, and the slim result lands in ``perfbench/out/result.json``.
The exit code is non-zero when any op failed, when a metric of
``BENCHMARK.json`` is missing, or when ``--check-against`` finds a
difference.  The engine is taken from ``$PERFBENCH_SRC`` (default: the
``src`` directory beside ``perfbench``).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
DEFAULT_SEED = 11


def load_spec() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def source_dir() -> str:
    return os.path.abspath(os.environ.get("PERFBENCH_SRC") or os.path.join(ROOT, "src"))


# -- one run ----------------------------------------------------------------------------


def run_one(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    src = source_dir()
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: no engine at {src} (set PERFBENCH_SRC)", file=sys.stderr)
        return 2
    sys.path[:0] = [HERE, src]
    import runner

    session = runner.Session(OUT_DIR, src, args.smoke)
    serve = args.workload in session.serving.serve_workloads()
    run = runner.run_serve if serve else runner.run_solve
    record = run(session, args.workload, args.seed, args.seconds, bool(args.trace))

    kind = "per_layer" if args.trace else "end_to_end"
    values = dict(record.metrics)
    if args.trace:
        host = record.detail["host"]
        values.update(
            {"host.calib_s": host["calib_s"], "host.load1": host["load1"],
             "host.nproc": host["nproc"]}
        )  # fmt: skip
    metrics: Dict[str, Dict[str, Any]] = {}
    missing: List[str] = []
    for declared in spec[kind]:
        name = declared["name"]
        # A layer that is idle on this workload reports 0.
        value = values.get(name, 0.0 if args.trace else None)
        if value is None:
            missing.append(name)
            continue
        metrics[name] = {"value": value, "unit": declared["unit"]}
        print(f"{args.workload:18} {name:28} {value:>16.6g} {declared['unit']}")
    detail = dict(record.detail, seed=args.seed, workload=args.workload)
    print("detail: " + json.dumps(detail, sort_keys=True))
    if record.detail["host"]["noisy"]:
        print(f"{args.workload}: noisy (calibration drifted >10%)", file=sys.stderr)
    if missing:
        # No result line: without its metrics the run measured nothing.
        print(f"perfbench: no value for {missing}: {detail}", file=sys.stderr)
        return 1
    print(
        json.dumps(
            {
                "correct": record.failed == 0,
                "attempted": record.attempted,
                "failed": record.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if record.failed == 0 else 1


# -- every workload, both passes --------------------------------------------------------


def run_all(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    result: Dict[str, Any] = {"seed": args.seed, "smoke": args.smoke, "workloads": {}}
    attempted = failed = 0
    status = 0
    flat: Dict[str, Dict[str, Any]] = {}
    for workload in (w["name"] for w in spec["workloads"]):
        entry: Dict[str, Any] = {"metrics": {}, "noisy": []}
        for trace in (0, 1):
            argv = [
                sys.executable, os.path.join(HERE, "run.py"),
                "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
            ]  # fmt: skip
            if args.smoke:
                argv.append("--smoke")
            done = subprocess.run(argv, capture_output=True, text=True, timeout=600)
            lines = done.stdout.splitlines()
            for line in lines:
                if not line.startswith(("{", "detail: ")):
                    print(line)
            if done.returncode != 0:
                status = 1
                sys.stderr.write(done.stderr)
            if not lines or not lines[-1].startswith("{"):
                continue
            last = json.loads(lines[-1])
            attempted += last["attempted"]
            failed += last["failed"]
            entry["metrics"].update(
                {name: m["value"] for name, m in last["metrics"].items()}
            )
            flat.update({f"{workload}/{n}": m for n, m in last["metrics"].items()})
            for line in lines:
                if line.startswith("detail: "):
                    detail = json.loads(line[len("detail: "):])
                    entry["noisy"].append(detail["host"]["noisy"])
                    if not trace:
                        entry["quartiles"] = {
                            k: detail[k] for k in ("op_ms", "setup_s") if k in detail
                        }
        if entry["noisy"] and all(entry["noisy"]):
            print(f"{workload}: noisy in both passes", file=sys.stderr)
        result["workloads"][workload] = entry
    result["failed_share"] = failed / attempted if attempted else 1.0
    print(f"{'all':18} {'failed_share':28} {result['failed_share']:>16.6g} ratio")
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(args.out or os.path.join(OUT_DIR, "result.json"), "w") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
    if args.check_against:
        problems = check_against(result, args.check_against, spec)
        for problem in problems:
            print(f"check-against: {problem}", file=sys.stderr)
        status = status or bool(problems)
    print(
        json.dumps(
            {"correct": failed == 0 and attempted > 0, "attempted": attempted,
             "failed": failed, "metrics": flat}
        )  # fmt: skip
    )
    return status or int(failed > 0 or attempted == 0)


def check_against(
    result: Dict[str, Any], previous_path: str, spec: Dict[str, Any]
) -> List[str]:
    """Differences that fail the gate: an end-to-end metric outside its
    bound, or (at equal seed and sizes) an exact count that moved."""
    sys.path[:0] = [HERE, source_dir()]
    from layers import EXACT

    with open(previous_path, encoding="utf-8") as handle:
        previous = json.load(handle)
    same_inputs = all(result[k] == previous.get(k) for k in ("seed", "smoke"))
    problems: List[str] = []
    for workload, entry in result["workloads"].items():
        old = previous["workloads"].get(workload, {}).get("metrics", {})
        new = entry["metrics"]
        for declared in spec["end_to_end"]:
            name, bound = declared["name"], declared["bound"]
            if name not in old or name not in new:
                problems.append(f"{workload}/{name}: missing on one side")
                continue
            worse = new[name] / old[name] - 1.0
            if declared["better"] == "higher":
                worse = old[name] / new[name] - 1.0
            if worse > bound:
                problems.append(
                    f"{workload}/{name}: {new[name]:.6g} is {worse:.1%} worse than "
                    f"{old[name]:.6g} (bound {bound:.0%})"
                )
        if same_inputs:
            for name in sorted(EXACT):
                if old.get(name) != new.get(name):
                    problems.append(
                        f"{workload}/{name}: exact count {old.get(name)} -> {new.get(name)}"
                    )
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const", const=1)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, 1 s runs")
    parser.add_argument("--out", help="where the all-workloads result JSON goes")
    parser.add_argument("--check-against", metavar="PREV.json")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(spec["run_seconds"])
    if args.workload:
        return run_one(args, spec)
    return run_all(args, spec)


if __name__ == "__main__":
    sys.exit(main())
