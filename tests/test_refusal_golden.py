"""Golden pin of what ``solve()`` refuses, and with what diagnostics.

``tests/golden/refusal.json`` holds, for every program of the lint
corpus, the paper catalog and ``examples/*.mad``, under ``check="strict"``
and ``check="lenient"``, the outcome of one solve: ``"admitted"``, or the
exception it raised — its type, its message and the ``to_dict()`` of
each diagnostic it carries.  A corpus file that does not load records
the load error instead.  The strict gate reads range restriction, then
admissibility, then conflict-freedom; the lenient gate reads range
restriction only; and the refusal's diagnostics are the linter's, so a
change to any of those moves this file.

Regenerate (only for a deliberate change to what is refused or said)::

    PYTHONPATH=src python tests/test_refusal_golden.py > tests/golden/refusal.json
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Callable, Dict

import pytest

from repro.core.database import Database
from repro.programs import ALL_PROGRAMS

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "refusal.json"

CHECKS = ("strict", "lenient")


def _loaded(path: pathlib.Path) -> Callable[[], Database]:
    def build() -> Database:
        db = Database(path.stem)
        db.load(path.read_text(encoding="utf-8"))
        return db

    return build


#: name → a builder of a fresh Database.
PROGRAMS: Dict[str, Callable[[], Database]] = {
    **{f"catalog:{paper.name}": paper.database for paper in ALL_PROGRAMS},
    **{
        f"{path.parent.name}/{path.name}": _loaded(path)
        for path in sorted(
            [*(ROOT / "examples").glob("*.mad")]
            + [*(ROOT / "tests" / "lint_corpus").glob("*.mad")]
        )
    },
}


def _raised(exc: Exception) -> Dict[str, Any]:
    return {
        "type": type(exc).__name__,
        "message": str(exc),
        "diagnostics": [d.to_dict() for d in getattr(exc, "diagnostics", [])],
    }


def outcome(name: str, check: str) -> Any:
    """What one solve of ``name`` under ``check`` came to."""
    try:
        db = PROGRAMS[name]()
    except Exception as exc:
        return {"load": _raised(exc)}
    try:
        # diverging.mad never converges: bound every solve the same way.
        db.solve(check=check, max_iterations=60)
    except Exception as exc:
        return _raised(exc)
    return "admitted"


def record() -> Dict[str, Dict[str, Any]]:
    return {
        name: {check: outcome(name, check) for check in CHECKS}
        for name in PROGRAMS
    }


@pytest.fixture(scope="module")
def golden() -> Dict[str, Dict[str, Any]]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_program(golden):
    assert sorted(golden) == sorted(PROGRAMS)


@pytest.mark.parametrize("check", CHECKS)
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_refusal_replays(name, check, golden):
    assert outcome(name, check) == golden[name][check]


if __name__ == "__main__":
    print(json.dumps(record(), indent=1, sort_keys=True))
