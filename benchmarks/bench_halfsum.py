"""Experiment E5.1 — the halfsum limit program (Example 5.1).

The least model is {p(a,1), p(b,1)} but only at ω: the Kleene chain climbs
1/2, 3/4, 7/8, ...  Regenerates the value-vs-iteration series, shows the
chain is strictly ascending at every finite prefix, and records where
float arithmetic closes the chain (once the increment drops below one ulp
— the computable shadow of transfinite convergence).
"""

from __future__ import annotations

import pytest

from repro.datalog.errors import NonTerminationError
from repro.engine.fixpoint import apply_tp, fixpoint
from repro.engine.interpretation import Interpretation
from repro.programs import halfsum_limit


def trajectory(max_iterations):
    db = halfsum_limit.database()
    edb, j = db.edb(), Interpretation(db.program.declarations)
    values = []
    for step in range(max_iterations):
        j, previous = apply_tp(db.program, frozenset({"p"}), j, edb), j
        values.append(j["p"].get(("a",), 0.0))
        if j == previous:
            return values, step  # the last step only confirmed the chain
    return values, None


@pytest.mark.benchmark(group="halfsum")
def test_ascending_series(benchmark, reporter):
    values, converged_at = benchmark(lambda: trajectory(200))
    # The exact series is 0, 1/2, 3/4, ... = 1 - 2^-k.
    for k in range(1, 12):
        assert values[k] == pytest.approx(1 - 2 ** -k)
    assert values == sorted(values)
    assert converged_at is not None
    assert values[-1] == pytest.approx(1.0)

    shown = [1, 2, 3, 4, 5, 10, 20, 40, converged_at - 1]
    reporter.add("Example 5.1 — p(a) value per Kleene iteration")
    reporter.add("(paper: least model p(a,1) reached only in the limit):")
    reporter.add_table(
        ["iteration", "p(a)", "exact chain value 1 - 2^-k"],
        [
            [k, f"{values[min(k, len(values) - 1)]:.12f}", f"1 - 2^-{k}"]
            for k in shown
        ],
    )
    reporter.add()
    reporter.add(
        f"float arithmetic closes the chain after {converged_at} iterations "
        f"(increment < 1 ulp); with exact rationals the engine reports an "
        f"ascending non-terminating chain, matching §6.2's beyond-ω remark."
    )


@pytest.mark.benchmark(group="halfsum")
def test_small_budget_reports_ascending(benchmark, reporter):
    """With a budget below the float-precision horizon the engine refuses
    to claim convergence and flags the chain as still ascending."""

    def run():
        db = halfsum_limit.database()
        try:
            fixpoint(
                db.program,
                frozenset({"p"}),
                db.edb(),
                write="replace",
                max_iterations=25,
            )
        except NonTerminationError as exc:
            return exc.ascending
        return None

    ascending = benchmark(run)
    assert ascending is True
    reporter.add("Example 5.1 with a 25-iteration budget:")
    reporter.add("NonTerminationError(ascending=True) — the engine reports a")
    reporter.add("still-ascending chain rather than a wrong fixpoint.")
