"""A query evaluates its cone and nothing else.

The iterated minimal model (§6.3, Prop. 6.1) builds each component's
model from the components below it alone, so ``solve(query=p)`` runs only
the components ``p``'s rows depend on: the downward closure of ``p`` in
the program actually evaluated (after pushdown).  Against the full solve,
under every ``method`` × ``plan`` × ``pushdown``, each relation of that
closure holds the same rows in the same order, and each derived relation
outside it is empty.  The closure is computed here from the rule bodies,
not from the solver's components, so a cone that stops short of what it
reads fails.  The programs are the example files, the paper catalog over
small instances, the lint corpus and :func:`tests.generate.programs`.
"""

from __future__ import annotations

import itertools
import pathlib

import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.database import Database
from repro.datalog.errors import ReproError
from repro.engine.exec import get_pushdown
from repro.engine.solver import solve
from repro.engine.supervisor import Budget
from repro.obs.tracer import Tracer
from repro.programs import (
    ALL_PROGRAMS,
    circuit,
    company_control,
    party_invitations,
    shortest_path,
)
from repro.workloads import (
    random_circuit,
    random_digraph,
    random_ownership,
    random_party,
)
from tests.conftest import examples
from tests.generate import programs, typed_rows
from tests.reference_eval import METHODS

ROOT = pathlib.Path(__file__).resolve().parent.parent
CONFIGS = list(itertools.product(METHODS, ("off", "smart"), ("off", "auto")))
#: Enough rounds for every converging program here; a diverging one
#: (examples/diverging.mad) stops fast and is skipped.
ROUNDS = 400

KNOWS, REQUIRES = random_party(8, seed=0)
GATES = random_circuit(8, seed=0, feedback_fraction=0.3)
INSTANCES = {
    shortest_path.name: {"arc": random_digraph(6, seed=0)},
    company_control.name: {"s": random_ownership(6, seed=0)},
    party_invitations.name: {"knows": KNOWS, "requires": list(REQUIRES.items())},
    circuit.name: {"gate": GATES.gates, "connect": GATES.connects, "input": GATES.inputs},
}


def _sources():
    out = {}
    for program in ALL_PROGRAMS:
        out[f"catalog:{program.name}"] = (program.source, INSTANCES.get(program.name, {}))
    for path in sorted(
        [*(ROOT / "examples").glob("*.mad")]
        + [*(ROOT / "tests" / "lint_corpus").glob("*.mad")]
    ):
        out[f"{path.parent.name}/{path.name}"] = (path.read_text(encoding="utf-8"), {})
    return out


SOURCES = _sources()


def closure(program, predicate):
    """``predicate`` and every predicate its rules read, transitively."""
    needed, todo = set(), [predicate]
    while todo:
        name = todo.pop()
        if name not in needed:
            needed.add(name)
            todo += [
                p
                for r in program.rules
                if r.head.predicate == name
                for p in r.body_predicates()
            ]
    return needed


def assert_cones_agree(program, edb, **options):
    """Every derived predicate's cone solve against the full solve, in
    every configuration the full solve completes."""
    derived = sorted({r.head.predicate for r in program.rules})
    for method, plan, pushdown in CONFIGS:
        config = dict(options, method=method, plan=plan, pushdown=pushdown)
        try:
            full = solve(program, edb, max_iterations=ROUNDS, **config)
        except (ReproError, ArithmeticError, TypeError):
            continue  # refused, diverging or failing: nothing to compare to
        expected = typed_rows(full.model, order=list)
        rewrite = get_pushdown(program) if pushdown == "auto" else None
        evaluated = rewrite.program if rewrite is not None and rewrite.changed else program
        for predicate in derived:
            cone = solve(program, edb, max_iterations=ROUNDS, query=predicate, **config)
            assert cone.complete, (predicate, config)
            got, needed = typed_rows(cone.model, order=list), closure(evaluated, predicate)
            for name in got:
                if name in needed:
                    assert got[name] == expected[name], (predicate, name, config)
                elif name in derived:
                    assert got[name] == [], (predicate, name, config)


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_cone_solves_agree_with_the_full_solve(name):
    source, facts = SOURCES[name]
    db = Database(name=name)
    try:
        db.load(source)
        for predicate, rows in facts.items():
            db.add_facts(predicate, rows)
        program, edb = db.program, db.edb()
    except ReproError:
        pytest.skip("does not load: nothing to solve")
    for check in ("strict", "lenient"):
        assert_cones_agree(program, edb, check=check)


@settings(max_examples=examples(25), deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(programs())
def test_generated_cone_solves_agree(generated):
    db = generated.database()
    assert_cones_agree(db.program, db.edb())


# -- component indexes, checkpoints and resume ----------------------------------

#: Example 3.1 plus components off ``s``'s cone, above and below it.
BESIDE = shortest_path.source + (
    "hop(X, Y) <- arc(X, Y, C).\n"
    "far(X) <- s(X, Y, C), C > 5.\n"
)


def _db():
    db = Database(name="beside")
    db.load(BESIDE)
    db.add_facts("arc", random_digraph(7, seed=3))
    return db


def _scc_starts(tracer):
    return {
        tuple(e["predicates"]): e["scc"] for e in tracer.events if e["type"] == "scc_start"
    }


@pytest.mark.parametrize("method", ["naive", "seminaive", "auto"])
def test_a_cone_solve_names_the_full_solves_components(method):
    full_trace, cone_trace = Tracer(), Tracer()
    _db().solve(method=method, tracer=full_trace)
    _db().solve(method=method, tracer=cone_trace, query="s")
    full, ours = _scc_starts(full_trace), _scc_starts(cone_trace)
    assert len(ours) < len(full)
    assert ours == {predicates: full[predicates] for predicates in ours}
    assert cone_trace.metrics.snapshot()["solve.components"]["value"] == len(ours)
    # Rule profiles name a rule's component by its index in the full solve.
    profiled = {e["head"]: e["scc"] for e in cone_trace.events if e["type"] == "rule_profile"}
    assert set(profiled) == {"s", "path__frontier"}
    assert profiled == {
        e["head"]: e["scc"] for e in full_trace.events
        if e["type"] == "rule_profile" and e["head"] in profiled
    }  # fmt: skip


@pytest.mark.parametrize("method", ["naive", "seminaive", "auto"])
def test_an_interrupted_cone_solve_resumes_either_way(method):
    partial = _db().solve(method=method, query="s", budget=Budget(max_iterations=1))
    assert partial.status == "partial"
    trace = Tracer()
    _db().solve(method=method, tracer=trace)
    assert partial.checkpoint.component == _scc_starts(trace)[("path__frontier", "s")]
    assert partial.interrupted_component == partial.checkpoint.component

    resumed_full = _db().resume(partial.checkpoint, method=method)
    assert resumed_full.complete
    assert typed_rows(resumed_full.model) == typed_rows(_db().solve(method=method).model)

    resumed_cone = _db().resume(partial.checkpoint, method=method, query="s")
    assert resumed_cone.complete
    cone = _db().solve(method=method, query="s")
    assert typed_rows(resumed_cone.model) == typed_rows(cone.model)
    assert typed_rows(cone.model)["path"] == [] and typed_rows(cone.model)["far"] == []
