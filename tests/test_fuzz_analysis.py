"""Fuzzing the static pipeline: ``analyze_program`` must be *total* —
classify or reject with a report, never crash — on arbitrary generated
programs, including unsafe and non-monotonic ones.  Plus Lemma 2.2's
active-domain property on solver output."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.analysis import analyze_program
from repro.datalog.errors import ReproError
from repro.datalog.program import Program
from tests.generate import random_program


@settings(max_examples=120, deadline=None)
@given(random_program())
def test_analyze_is_total(generated):
    """Build + analyze either succeeds with a report or raises a
    library error — never an unexpected exception."""
    rules, declarations = generated
    try:
        program = Program(rules, declarations=declarations)
    except ReproError:
        return  # structurally invalid: rejected with a proper error
    report = analyze_program(program)
    # The report renders without crashing, whatever the verdicts.
    assert isinstance(str(report), str)
    assert isinstance(report.ok, bool)


class TestActiveDomainProperty:
    """Lemma 2.2: head constants in non-cost arguments come from the
    active domain (EDB constants + program constants)."""

    @pytest.mark.parametrize("seed", range(3))
    def test_shortest_path_active_domain(self, seed):
        from repro.programs import shortest_path
        from repro.workloads import random_digraph

        arcs = random_digraph(10, seed=seed)
        db = shortest_path.database({"arc": arcs})
        result = db.solve()
        active = {u for u, _, _ in arcs} | {v for _, v, _ in arcs} | {"direct"}
        for key in result["s"]:
            assert set(key) <= active
        for key in result["path"]:
            assert set(key) <= active
