"""Golden pin of every join order the engine compiles.

``tests/golden/join_orders.json`` holds, for every non-fact rule of the
paper catalog (over a small sample EDB), of ``examples/*.mad`` and of
``tests/lint_corpus/*.mad``:

* the ``plan="off"`` order (:func:`~repro.engine.grounding.schedule`)
  for the empty pre-bound set and for each delta-dispatch seed shape;
* the ``plan="smart"`` order, compiled against a context over the
  sample EDB, for the same shapes;
* the conjunct order of each aggregate subgoal along each of those
  orders (:func:`~repro.engine.grounding.order_conjuncts`);
* the MAD507 verdict (:func:`~repro.analysis.fixes.is_left_to_right_evaluable`).

The orders decide every generated kernel and every index probe, so a
change to the scheduler that moves any of them shows here first.

Regenerate (only for a deliberate change of a join order)::

    PYTHONPATH=src python tests/test_join_orders.py > tests/golden/join_orders.json
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List

import pytest

from repro.analysis.fixes import is_left_to_right_evaluable
from repro.core.database import Database
from repro.datalog.atoms import AggregateSubgoal
from repro.datalog.errors import ReproError, SafetyError
from repro.engine.exec import compile_rule
from repro.engine.fixpoint import DeltaDispatch
from repro.engine.grounding import (
    EvalContext,
    order_conjuncts,
    schedule,
    subgoal_readiness,
)
from repro.engine.interpretation import Interpretation
from repro.programs import ALL_PROGRAMS
from repro.workloads import (
    random_circuit,
    random_digraph,
    random_ownership,
    random_party,
)

ROOT = Path(__file__).parent.parent
GOLDEN = Path(__file__).parent / "golden" / "join_orders.json"


def _sample_facts() -> Dict[str, Dict[str, List[tuple]]]:
    """A small, deterministic EDB per catalog program."""
    knows, requires = random_party(12, seed=5)
    circuit = random_circuit(10, seed=6)
    ownership = random_ownership(10, seed=4)
    return {
        "shortest-path": {"arc": random_digraph(8, seed=3)},
        "company-control": {"s": ownership},
        "company-control-r-monotonic": {"s": ownership},
        "party-invitations": {
            "knows": knows,
            "requires": list(requires.items()),
        },
        "circuit": {
            "gate": circuit.gates,
            "connect": circuit.connects,
            "input": circuit.inputs,
        },
        "student-averages": {
            "record": [
                (s, c, float(g))
                for s, c, g in (
                    ("ann", "math", 3), ("ann", "art", 4), ("bob", "math", 2),
                    ("bob", "bio", 4), ("cy", "art", 3),
                )
            ],
            "courses": [("math",), ("art",), ("bio",), ("law",)],
        },
    }


def _databases() -> Dict[str, Database]:
    """Every program of the pin, by name; inputs that do not load are
    left out (the corpus holds deliberately broken files)."""
    facts = _sample_facts()
    out: Dict[str, Database] = {}
    for paper in ALL_PROGRAMS:
        out[f"catalog/{paper.name}"] = paper.database(facts.get(paper.name))
    files = sorted(ROOT.glob("examples/*.mad")) + sorted(
        ROOT.glob("tests/lint_corpus/*.mad")
    )
    for path in files:
        db = Database(name=path.stem)
        try:
            db.load(path.read_text(encoding="utf-8"))
        except ReproError:
            continue
        out[str(path.relative_to(ROOT))] = db
    return out


def _shape_name(shape) -> str:
    return ",".join(sorted(v.name for v in shape))


def _conjunct_orders(rule, program, order) -> List[List[str]]:
    """The interior order of each aggregate subgoal along ``order``."""
    out: List[List[str]] = []
    bound: set = set()
    for sg in order:
        if isinstance(sg, AggregateSubgoal):
            inner = frozenset(rule.grouping_variables(sg) & bound)
            try:
                conjuncts = order_conjuncts(sg.conjuncts, program, inner)
            except SafetyError:
                out.append(["unschedulable"])
            else:
                out.append([str(c) for c in conjuncts])
        ready = subgoal_readiness(sg, rule, program, bound)
        if ready is not None:
            bound |= ready[1]
    return out


def _record_program(db: Database) -> List[Dict[str, Any]]:
    program = db.program
    cdb = program.idb_predicates
    ctx = EvalContext(program, cdb, Interpretation(program.declarations), db.edb())
    rules = [rule for rule in program.rules if not rule.is_fact]
    shapes: Dict[int, set] = {id(rule): {frozenset()} for rule in rules}
    for sources in DeltaDispatch(rules, cdb).by_predicate.values():
        for source in sources:
            shapes[id(source.rule)].add(source.shape)
    records = []
    for rule in rules:
        record: Dict[str, Any] = {
            "rule": str(rule),
            "evaluable": is_left_to_right_evaluable(rule, program),
            "off": {},
            "smart": {},
        }
        for shape in sorted(shapes[id(rule)], key=_shape_name):
            name = _shape_name(shape)
            for mode in ("off", "smart"):
                try:
                    if mode == "off":
                        order = schedule(rule, program, shape)
                    else:
                        order = compile_rule(
                            rule, program, shape, mode="smart", ctx=ctx
                        ).order
                except SafetyError:
                    record[mode][name] = "unschedulable"
                    continue
                record[mode][name] = {
                    "order": [str(sg) for sg in order],
                    "conjuncts": _conjunct_orders(rule, program, order),
                }
        records.append(record)
    return records


def record() -> Dict[str, List[Dict[str, Any]]]:
    return {name: _record_program(db) for name, db in _databases().items()}


@pytest.fixture(scope="module")
def golden() -> Dict[str, Any]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def recorded() -> Dict[str, Any]:
    return record()


def test_golden_covers_the_same_programs(golden, recorded):
    assert sorted(recorded) == sorted(golden)


def test_join_orders_match_golden(golden, recorded):
    moved = [name for name in golden if recorded.get(name) != golden[name]]
    assert moved == []


def test_golden_exercises_every_kind_of_order(golden):
    records = [r for rs in golden.values() for r in rs]
    assert any(not r["evaluable"] for r in records)
    assert any(len(r["off"]) > 1 for r in records)  # seeded shapes
    assert any(r["off"] != r["smart"] for r in records)  # selectivity
    assert any(
        v != "unschedulable" and v["conjuncts"]
        for r in records
        for v in r["off"].values()
    )


if __name__ == "__main__":
    print(json.dumps(record(), indent=1, sort_keys=True))
