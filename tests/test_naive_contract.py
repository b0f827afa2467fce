"""Golden pin of ``method="naive"``'s observable contract.

``tests/golden/naive_contract.json`` holds, per case, what a traced naive
solve shows the outside world: the ``iteration`` events (without
``wall_s``), each component's ``FixpointResult`` iterations / trajectory
/ ascending, the rule-firing, fixpoint and index counters, the model rows,
and — for the diverging cases — the error class, message and
``ascending`` flag.  It also pins which error wins when one rule of a
round breaks cost consistency and a later rule of the same round raises
inside a built-in.

Regenerate (only for a deliberate contract change)::

    PYTHONPATH=src python tests/test_naive_contract.py > tests/golden/naive_contract.json
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict

import pytest

from repro.datalog.parser import parse_program
from repro.engine.interpretation import Interpretation
from repro.engine.solver import solve
from repro.obs.tracer import Tracer
from repro.programs import company_control, halfsum_limit, party_invitations
from repro.workloads import random_ownership, random_party

GOLDEN = Path(__file__).parent / "golden" / "naive_contract.json"

OSCILLATING = (
    "@pred p/1.\n@pred q/1.\n"
    "p(a) <- 1 =r count{q(X)}.\n"
    "q(a) <- 0 = count{p(X)}, e(Y)."
)

#: Rule 1 derives two costs for one key (a cost conflict); rule 2, of
#: the same component and round, adds a string to a number.
CONFLICT_THEN_TYPE_ERROR = (
    "@cost p/2 : reals_ge.\n"
    "@pred e/3.\n"
    "@pred f/1.\n"
    "p(X, C) <- e(X, Z, C), f(Y).\n"
    "p(X, C) <- e(X, Z, D), f(Y), C = Y + D."
)

COUNTERS = (
    "rule.firings",
    "rule.derived",
    "fixpoint.rounds",
    "fixpoint.new_atoms",
    "fixpoint.changed_atoms",
)


def _cases():
    knows, requires = random_party(16, seed=1)
    party = party_invitations.database(
        {"knows": knows, "requires": list(requires.items())}
    )
    company = company_control.database({"s": random_ownership(12, seed=0)})
    yield "party_invitations", party.program, party.edb(), {}
    yield "company_control", company.program, company.edb(), {}
    # Floats close the chain after 55 rounds; 40 sees it still ascending.
    # One Database per case: a second solve of one program is prepared
    # and emits no front-end phase, which would shift the pinned seqs.
    for rounds in (60, 40):
        halfsum = halfsum_limit.database()
        yield f"halfsum_{rounds}", halfsum.program, halfsum.edb(), {"max_iterations": rounds}

    program = parse_program(OSCILLATING)
    edb = Interpretation(program.declarations)
    edb.add_fact("e", "y")
    yield "oscillation", program, edb, {"max_iterations": 50, "check": "none"}

    program = parse_program(CONFLICT_THEN_TYPE_ERROR)
    edb = Interpretation(program.declarations)
    # Numbers hash the same in every process, so the conflict's two
    # derivations always come in the same order.
    edb.add_fact("e", 1, 10, 1.0)
    edb.add_fact("e", 1, 20, 2.0)
    edb.add_fact("f", "s")
    yield "conflict_then_type_error", program, edb, {"check": "none"}


def _rows(model: Interpretation) -> Dict[str, Any]:
    return {
        name: sorted(repr(row) for row in rel.rows())
        for name, rel in sorted(model.relations.items())
        if len(rel)
    }


def record() -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    for name, program, edb, options in _cases():
        tracer = Tracer()
        case: Dict[str, Any] = {}
        try:
            result = solve(program, edb, method="naive", tracer=tracer, **options)
        except Exception as exc:  # the pinned verdict of a diverging case
            case["error"] = {
                "type": type(exc).__name__,
                "message": str(exc),
                "ascending": getattr(exc, "ascending", None),
            }
        else:
            case["components"] = [
                {
                    "iterations": r.iterations,
                    "trajectory": r.trajectory,
                    "ascending": r.ascending,
                    "status": r.status,
                }
                for r in result.component_results
            ]
            case["model"] = _rows(result.model)
        case["iterations"] = [
            {k: v for k, v in event.items() if k not in ("wall_s", "t")}
            for event in tracer.events
            if event["type"] == "iteration"
        ]
        snapshot = tracer.metrics.snapshot()
        case["counters"] = {
            key: snapshot.get(key, {}).get("value", 0) for key in COUNTERS
        }
        case["index"] = tracer.index_stats.snapshot()
        out[name] = case
    return out


@pytest.fixture(scope="module")
def recorded():
    return record()


@pytest.mark.parametrize(
    "case",
    [
        "party_invitations",
        "company_control",
        "halfsum_60",
        "halfsum_40",
        "oscillation",
        "conflict_then_type_error",
    ],
)
def test_naive_matches_golden(case, recorded):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert recorded[case] == golden[case]


def test_golden_covers_both_divergence_verdicts():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert golden["halfsum_40"]["error"]["ascending"] is True
    assert golden["oscillation"]["error"]["ascending"] is False
    assert golden["conflict_then_type_error"]["error"]["type"] == (
        "CostConsistencyError"
    )


if __name__ == "__main__":
    print(json.dumps(record(), indent=1, sort_keys=True))
