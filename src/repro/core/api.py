"""One-shot convenience functions over the ``Database`` façade."""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional, Tuple, Union

from repro.analysis.facts import ProgramFacts
from repro.analysis.report import analyze_program
from repro.core.database import Database
from repro.datalog.parser import parse_program
from repro.datalog.program import Program
from repro.engine.solver import SolveResult

Facts = Dict[str, Iterable[Tuple[Any, ...]]]


def analyze(program: Union[str, Program]) -> ProgramFacts:
    """Run the full static pipeline on rule text or a built program."""
    if isinstance(program, str):
        program = parse_program(program)
    return analyze_program(program)


def solve_program(
    source: str,
    facts: Optional[Facts] = None,
    *,
    name: str = "program",
    **kwargs: Any,
) -> SolveResult:
    """Parse, load facts, and solve in one call; ``kwargs`` are
    :meth:`Database.solve`'s.

    >>> result = solve_program('''
    ...     @cost arc/3 : reals_ge.
    ...     @cost path/4 : reals_ge.
    ...     @cost s/3 : reals_ge.
    ...     @constraint arc(direct, Z, C).
    ...     path(X, direct, Y, C) <- arc(X, Y, C).
    ...     path(X, Z, Y, C) <- s(X, Z, C1), arc(Z, Y, C2), C = C1 + C2.
    ...     s(X, Y, C) <- C =r min{D : path(X, Z, Y, D)}.
    ... ''', facts={"arc": [("a", "b", 1), ("b", "b", 0)]})
    >>> result["s"][("a", "b")]
    1
    """
    db = Database(name=name)
    db.load(source)
    for predicate, rows in (facts or {}).items():
        db.add_facts(predicate, rows)
    return db.solve(**kwargs)
