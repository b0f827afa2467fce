"""Named databases hosted by the solve service.

A :class:`HostedDatabase` wraps one :class:`repro.core.database.Database`
for concurrent serving: the program is assembled once (the ``Database``
caches it) and the extensional database is materialized once, behind a
lock, so a request never re-streams bulk CSV/JSONL sources.  Every
request then solves over the shared materialization — safe because
:func:`repro.engine.solver.solve` copies its EDB on entry, so
concurrent solves read one immutable, shared snapshot and write only
their private copies.  The snapshot is the freshly built EDB itself:
each relation's container, with no index built on it.

:func:`share_programs` gives the databases of one rule text one
``Program`` object, so they share what a solve derives from the rules
alone: the admitted front end, the pushdown rewrite and the compiled
plans (docs/SERVING.md, "One program per rule text").
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.core.database import Database
from repro.datalog.program import Program
from repro.engine.interpretation import Interpretation

__all__ = ["HostedDatabase", "host_program_text", "share_programs"]


class HostedDatabase:
    """One named database plus its shared EDB snapshot."""

    def __init__(self, name: str, db: Database) -> None:
        self.name = name
        self.db = db
        #: The program solved: the ``Database``'s, or an equal one that
        #: :func:`share_programs` gave every database of its rule text.
        self.program: Program = db.program
        self._lock = threading.Lock()
        self._snapshot: Optional[Interpretation] = None

    def snapshot(self) -> Interpretation:
        """The shared read snapshot of the EDB.

        Materialized on first use and never mutated afterwards: the
        solver copies it on entry, so requests are isolated from each
        other and from the snapshot itself.
        """
        with self._lock:
            if self._snapshot is None:
                self._snapshot = self.db.edb()
                # The snapshot now holds the rows, and the program the fact
                # rules: the Database need not keep its facts as well.
                self.db._facts = []
            return self._snapshot

    def predicates(self) -> list:
        """Predicate names the program declares (for ``/databases``)."""
        return sorted(self.program.declarations)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<HostedDatabase {self.name!r}>"


def host_program_text(name: str, source: str) -> HostedDatabase:
    """Host a database assembled from rule text."""
    db = Database(name=name)
    db.load(source)
    return HostedDatabase(name, db)


def share_programs(databases: Iterable[HostedDatabase]) -> None:
    """Give the hosted databases whose programs are equal one ``Program``:
    the same rules, constraints and declarations (lattice and default
    included) and the same aggregate functions, by type and state.  The
    name does not count; each database keeps its own EDB snapshot."""
    shared: Dict[Tuple[Any, ...], List[Program]] = {}
    for hosted in databases:
        program = hosted.db.program
        decls = frozenset(program.declarations.items())
        peers = shared.setdefault((program.rules, program.constraints, decls), [])
        aggregates = program.aggregates
        match = next((p for p in peers if _same_functions(p.aggregates, aggregates)), None)
        if match is None:
            peers.append(program)
        hosted.program = match or program


def _same_functions(a: Dict[str, Any], b: Dict[str, Any]) -> bool:
    return a.keys() == b.keys() and all(
        type(f) is type(b[name]) and vars(f) == vars(b[name]) for name, f in a.items()
    )
