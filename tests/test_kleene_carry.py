"""A Kleene round's successor carries ``J``'s indexes (``Relation.carry``).

``J_{k+1} = T_P(J_k, I)`` is written into a fresh interpretation, which
takes ``J_k``'s live indexes patched by the entries that differ instead
of rebuilding them.  After every round each live index of ``J`` must
equal a rebuild from its relation's container
(:func:`~repro.testing.check_relation_indexes`), and an ordinary
relation's index rows must be its set's own row objects: on generated
programs, on a naive shortest path (improved costs leave their buckets)
and on a converging chain that is not ascending (ordinary rows leave).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator, List, Tuple

from hypothesis import HealthCheck, given, settings

from repro.datalog.errors import CostConsistencyError
from repro.datalog.parser import parse_program
from repro.engine.interpretation import Interpretation, Relation
from repro.engine.solver import solve
from repro.programs import shortest_path
from repro.programs.catalog import PaperProgram
from repro.testing import check_relation_indexes
from repro.workloads import dijkstra_all_pairs, random_digraph
from tests.conftest import examples
from tests.generate import programs

#: ``p`` holds every ``e`` row while ``q`` is empty, and none once ``q``
#: holds them: ``J_1 = {q: e, p: e}``, ``J_2 = J_3 = {q: e}``.  ``p`` is
#: probed on ``X`` alone (``plan="off"`` keeps the body order), so its
#: rows leave a live index.
NOT_ASCENDING = """
@pred e/2. @pred p/2. @pred q/2.
q(X, Y) <- e(X, Y), p(X, Z).
q(X, Y) <- e(X, Y).
p(X, Y) <- e(X, Y), 0 = count{q(X, Z)}.
"""

#: ``(predicate, entries that left, entries that entered, problems)``.
Carry = Tuple[str, int, int, List[str]]


def stray_rows(rel: Relation) -> List[str]:
    """An ordinary relation's index rows that are not its set's own row
    objects: the successor takes ``J``'s set, so there are none."""
    if rel.is_cost:
        return []
    held = {id(row) for row in rel.tuples}
    strays = sum(
        id(row) not in held
        for index in rel._indexes.values()
        for bucket in index.values()
        for row in bucket
    )
    return [f"{rel.decl.name}: {strays} index rows not in its set"] * bool(strays)


@contextmanager
def checked_carries() -> Iterator[List[Carry]]:
    """Check the successor after every carry of a live index."""
    log: List[Carry] = []
    carry = Relation.carry

    def checked(self: Relation, old: Relation) -> None:
        live = bool(old._indexes)
        left, entered = len(old.unequal(self)), len(self.unequal(old))
        carry(self, old)
        if live:
            problems = check_relation_indexes(self) + stray_rows(self)
            log.append((self.decl.name, left, entered, problems))

    Relation.carry = checked
    try:
        yield log
    finally:
        Relation.carry = carry


def assert_consistent(log: List[Carry]) -> None:
    assert [problems for *_, problems in log if problems] == []


@settings(
    max_examples=examples(40),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(programs())
def test_generated_programs_keep_consistent_indexes_every_round(generated):
    db = generated.database()
    for plan in ("smart", "off"):  # "off" probes in body order
        with checked_carries() as log:
            try:
                db.solve(method="naive", plan=plan)
            except CostConsistencyError:
                # Rules that derive two costs for one key are a join
                # round's to collapse; a strict Kleene round refuses them.
                assert generated.conflicts
        assert_consistent(log)


#: Example 3.1 with the recursive rule's body reordered: under
#: ``plan="off"`` ``s`` is probed on ``Z`` alone, short of its key.
PROBED_SHORTEST_PATH = shortest_path.source.replace(
    "s(X, Z, C1), arc(Z, Y, C2)", "arc(Z, Y, C2), s(X, Z, C1)"
)


def test_improved_costs_leave_their_buckets():
    arcs = random_digraph(10, seed=3)
    db = PaperProgram("sp", "", PROBED_SHORTEST_PATH).database({"arc": arcs})
    with checked_carries() as log:
        result = db.solve(method="naive", plan="off")
    assert_consistent(log)
    # A key whose cost improved left its old bucket.
    assert any(name == "s" and left for name, left, _, _ in log)
    assert result.model["s"] == dijkstra_all_pairs(arcs)


def _not_ascending() -> Tuple[Any, Interpretation]:
    program = parse_program(NOT_ASCENDING)
    edb = Interpretation(program.declarations)
    for row in [(1, 2), (1, 3), (2, 3)]:
        edb.add_fact("e", *row)
    return program, edb


def test_rows_that_leave_a_converging_chain_leave_its_indexes():
    program, edb = _not_ascending()
    with checked_carries() as log:
        result = solve(program, edb, method="naive", check="none", plan="off")
    (component,) = result.component_results
    assert not component.ascending
    assert result.model["p"] == frozenset()
    assert_consistent(log)
    assert ("p", 3, 0, []) in log
