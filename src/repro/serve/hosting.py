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
"""

from __future__ import annotations

import threading
from typing import Optional

from repro.core.database import Database
from repro.datalog.program import Program
from repro.engine.interpretation import Interpretation

__all__ = ["HostedDatabase", "host_program_text"]


class HostedDatabase:
    """One named database plus its shared EDB snapshot."""

    def __init__(self, name: str, db: Database) -> None:
        self.name = name
        self.db = db
        self._lock = threading.Lock()
        self._snapshot: Optional[Interpretation] = None

    @property
    def program(self) -> Program:
        """The assembled program (cached by the ``Database``)."""
        return self.db.program

    def snapshot(self) -> Interpretation:
        """The shared read snapshot of the EDB.

        Materialized on first use and never mutated afterwards: the
        solver copies it on entry, so requests are isolated from each
        other and from the snapshot itself.
        """
        with self._lock:
            if self._snapshot is None:
                self._snapshot = self.db.edb()
            return self._snapshot

    def predicates(self) -> list:
        """Predicate names the program declares (for ``/databases``)."""
        return sorted(self.program.declarations)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<HostedDatabase {self.name!r}>"


def host_program_text(name: str, source: str) -> HostedDatabase:
    """Host a database assembled from rule text (tests)."""
    db = Database(name=name)
    db.load(source)
    return HostedDatabase(name, db)
