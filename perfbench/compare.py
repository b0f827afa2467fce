#!/usr/bin/env python3
"""A/B comparison of two source trees with the same harness.

    python3 perfbench/compare.py A_SRC B_SRC [--pairs 10] [--workload W ...]

``A_SRC`` is the parent's ``src`` directory, ``B_SRC`` the change's.  For
every workload, ``--pairs`` (at least 10) pairs of untraced runs are
made with this checkout's ``perfbench/run.py``, ``PERFBENCH_SRC``
switched per side, both sides of a pair on the same seed, and the side
that goes first alternating.  One row is printed per workload and
end-to-end metric: each side's median and quartiles, B's share of the
pairs won, the ratio of the medians with its base, and the verdict:

``improved``    B wins at least nine tenths of the pairs (ties count for
                neither side) and the medians differ by more than the
                distance between A's own quartiles;
``regressed``   B's median is worse than A's by more than the bound;
``unresolved``  A's own quartile distance exceeds the bound, so the runs
                cannot tell (reported instead of ``unchanged``);
``unchanged``   otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def verdict(
    a: Sequence[float], b: Sequence[float], better: str, bound: float
) -> Dict[str, Any]:
    """Compare paired samples of one metric (``a[i]`` with ``b[i]``)."""
    qa = statistics.quantiles(a, n=4)
    qb = statistics.quantiles(b, n=4)
    lower = better == "lower"
    wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
    ties = sum(x == y for x, y in zip(a, b))
    decided = len(a) - ties
    win_share = wins / decided if decided else 0.0
    spread = qa[2] - qa[0]
    # Positive = B worse, as a share of A's median.
    worse = (qb[1] - qa[1]) / qa[1] * (1 if lower else -1)
    if spread / qa[1] > bound:
        label = "unresolved"
    elif win_share >= 0.9 and worse < 0 and abs(qb[1] - qa[1]) > spread:
        label = "improved"
    elif worse > bound:
        label = "regressed"
    else:
        label = "unchanged"
    return {
        "a": qa, "b": qb, "win_share": win_share, "decided": decided,
        "ratio": qb[1] / qa[1], "verdict": label,
    }  # fmt: skip


def run_side(src: str, workload: str, seed: int, seconds: int) -> Dict[str, float]:
    argv = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]  # fmt: skip
    env = dict(os.environ, PERFBENCH_SRC=os.path.abspath(src))
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=600)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines or not lines[-1].startswith("{"):
        raise SystemExit(
            f"compare: {workload} seed {seed} failed on {src}:\n{done.stderr}"
        )
    return {n: m["value"] for n, m in json.loads(lines[-1])["metrics"].items()}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a_src", help="parent's src directory")
    parser.add_argument("b_src", help="change's src directory")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seed", type=int, default=1000, help="seed of the first pair")
    args = parser.parse_args()
    if args.pairs < 10:
        parser.error("at least 10 pairs, or no verdict can be an improvement")
    seconds = spec["run_seconds"]
    print(f"A = {args.a_src}   B = {args.b_src}   {args.pairs} pairs, {seconds} s runs")
    regressed = False
    for workload in args.workload or names:
        sides: Tuple[List[Dict[str, float]], List[Dict[str, float]]] = ([], [])
        for pair in range(args.pairs):
            order = (0, 1) if pair % 2 == 0 else (1, 0)
            for side in order:
                src = (args.a_src, args.b_src)[side]
                sides[side].append(run_side(src, workload, args.seed + pair, seconds))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            v = verdict(
                [run[name] for run in sides[0]],
                [run[name] for run in sides[1]],
                metric["better"],
                metric["bound"],
            )
            regressed |= v["verdict"] == "regressed"
            (a1, a2, a3), (b1, b2, b3) = v["a"], v["b"]
            print(
                f"{workload:18} {name:20} "
                f"A {a2:.5g} [{a1:.5g}, {a3:.5g}]  B {b2:.5g} [{b1:.5g}, {b3:.5g}] "
                f"{metric['unit']:5} B wins {v['win_share']:.0%} of {v['decided']}  "
                f"B/A {v['ratio']:.3f} (A = {a2:.5g})  {v['verdict']}"
            )
    return int(regressed)


if __name__ == "__main__":
    sys.exit(main())
