"""Shared benchmark plumbing.

Every benchmark regenerates one experiment-index row group from DESIGN.md:
it *asserts* the qualitative claim (who wins / what is undefined / what
converges), prints the reproduction table, and, under
``--benchmark-only``, records it under ``benchmarks/out/`` so
EXPERIMENTS.md can quote measured output.  Timing numbers come from
pytest-benchmark on top.
"""

from __future__ import annotations

import pathlib
from typing import Iterable, List

import pytest

OUT_DIR = pathlib.Path(__file__).parent / "out"


class TableReporter:
    """Collects formatted lines, prints them, and persists them."""

    def __init__(self, name: str, record: bool) -> None:
        self.name = name
        self.record = record
        self.lines: List[str] = []

    def add(self, line: str = "") -> None:
        self.lines.append(line)

    def add_table(self, headers: Iterable[str], rows: Iterable[Iterable]) -> None:
        headers = list(headers)
        rendered_rows = [[str(c) for c in row] for row in rows]
        widths = [
            max(len(headers[i]), *(len(r[i]) for r in rendered_rows))
            if rendered_rows
            else len(headers[i])
            for i in range(len(headers))
        ]
        fmt = "  ".join(f"{{:<{w}}}" for w in widths)
        self.add(fmt.format(*headers))
        self.add(fmt.format(*("-" * w for w in widths)))
        for row in rendered_rows:
            self.add(fmt.format(*row))

    def flush(self) -> None:
        text = "\n".join([f"== {self.name} =="] + self.lines) + "\n"
        if self.record:
            OUT_DIR.mkdir(exist_ok=True)
            (OUT_DIR / f"{self.name}.txt").write_text(text)
        print("\n" + text)


@pytest.fixture
def reporter(request):
    # Only the measuring run EXPERIMENTS.md names (--benchmark-only)
    # rewrites out/, which EXPERIMENTS.md quotes verbatim; a claim check
    # (--benchmark-disable) asserts and prints without touching it.
    record = bool(request.config.getoption("benchmark_only", False))
    table = TableReporter(request.node.name.replace("/", "_"), record)
    yield table
    table.flush()
