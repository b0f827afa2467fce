"""The solve workloads: inputs, the timed op, the oracle check and the
layered (traced) op.

One *op* is what a CLI user pays for one answer: program text plus
facts/CSV go into a fresh ``Database``, ``solve()`` runs, and the rows of
the query predicates are extracted.  Workloads pass ``method=`` only
(``straggler_sharded`` adds ``plan="sharded", workers=2, shards=64``) so
that deleting other knobs later cannot break the benchmark.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import Database, Tracer
from repro.aggregates.standard import default_registry
from repro.analysis.classify import classify_program
from repro.analysis.report import analyze_program
from repro.analysis.sharding import analyze_sharding
from repro.datalog.parser import parse_program
from repro.engine.exec import compile_rule, get_pushdown
from repro.engine.solver import solve
from repro.lattices import REGISTRY as LATTICES

import gen
from measure import Spans

Rows = Dict[str, List[Tuple[Any, ...]]]

#: Stage spans of the layered op, in pipeline order.
STAGES = (
    "datalog.parse",
    "core.assemble",
    "data.scan",
    "core.edb",
    "analysis.analyze",
    "analysis.pushdown",
    "analysis.classify",
    "analysis.shard_plan",
    "engine.fixpoint",
    "engine.extract",
)


@dataclass
class Inputs:
    """Everything one op is given, plus what its answer must be."""

    text: str
    facts: List[Tuple[str, List[Tuple[Any, ...]]]] = field(default_factory=list)
    csv: List[Tuple[str, str]] = field(default_factory=list)
    #: Predicates whose rows the op extracts.
    queries: Tuple[str, ...] = ()
    #: Computes ``{query predicate: expected}``: a ``{key: cost}`` dict,
    #: a set of key tuples, or ``(row count, checksum)`` for bulk rows.
    oracle: Callable[[], Dict[str, Any]] = dict


@dataclass
class SolveWorkload:
    name: str
    solve_kwargs: Dict[str, Any]
    #: ``(rng, out_dir, smoke) -> Inputs``; None when ``inputs`` is set
    #: directly (the serve workloads' in-process twin).
    build: Optional[Callable[[random.Random, str, bool], Inputs]] = None
    inputs: Inputs = None  # type: ignore[assignment]
    expected: Dict[str, Any] = None  # type: ignore[assignment]

    # -- set-up --------------------------------------------------------------

    def generate(self, seed: int, out_dir: str, smoke: bool) -> None:
        self.inputs = self.build(random.Random(seed), out_dir, smoke)

    def compute_oracle(self) -> None:
        self.expected = self.inputs.oracle()

    # -- the op ----------------------------------------------------------------

    def _assemble(self, db: Database) -> None:
        db.load(self.inputs.text)
        for predicate, rows in self.inputs.facts:
            db.add_facts(predicate, rows)

    def _extract(self, result: Any) -> Rows:
        return {q: list(result.model.relation(q).rows()) for q in self.inputs.queries}

    def database(self) -> Tuple[Database, int]:
        """A fresh ``Database`` holding the inputs, and the number of CSV
        rows its loader skipped."""
        db = Database()
        self._assemble(db)
        skipped = sum(
            db.load_csv(predicate, path).skipped
            for predicate, path in self.inputs.csv
        )
        return db, skipped

    def op(self, tracer: Tracer | None = None) -> Tuple[Any, Rows]:
        db, _ = self.database()
        result = db.solve(tracer=tracer, **self.solve_kwargs)
        return result, self._extract(result)

    def check(self, result: Any, rows: Rows) -> bool:
        """True iff the solve completed and every query predicate holds
        exactly the oracle's answer."""
        if result.status != "complete":
            return False
        return all(
            _matches(rows.get(query, []), expected)
            for query, expected in self.expected.items()
        )

    # -- the layered op -----------------------------------------------------------

    def layered(self, spans: Spans, op: int) -> Tuple[Any, Rows]:
        """One op taken apart: a child span around a direct call into
        each layer, in pipeline order on one fresh ``Database``."""
        kwargs = self.solve_kwargs
        sharded = kwargs.get("plan") == "sharded"
        lattices, aggregates = dict(LATTICES), default_registry()
        with spans.span("op", op):
            with spans.span("datalog.parse", op):
                parse_program(
                    self.inputs.text, lattices=lattices, aggregates=aggregates
                )
            db = Database()
            with spans.span("core.assemble", op):
                self._assemble(db)
            with spans.span("data.scan", op):
                for predicate, path in self.inputs.csv:
                    db.load_csv(predicate, path)
            with spans.span("core.assemble", op):
                program = db.program
            with spans.span("core.edb", op):
                edb = db.edb()
            with spans.span("analysis.analyze", op):
                report = analyze_program(program)
            with spans.span("analysis.pushdown", op):
                rewrite = get_pushdown(program, report.classification)
            classification = report.classification
            if rewrite.changed:
                with spans.span("analysis.classify", op):
                    classification = classify_program(rewrite.program)
            if sharded:
                with spans.span("analysis.shard_plan", op):
                    analyze_sharding(
                        rewrite.program, classification=classification
                    )
            with spans.span("engine.fixpoint", op):
                result = solve(program, edb, check="none", **kwargs)
            with spans.span("engine.extract", op):
                rows = self._extract(result)
                result.model.total_size()
        return result, rows

    def self_times(self, durations: Dict[str, float]) -> Dict[str, float]:
        """Per-stage self time of one layered op.

        Two spans contain work a sibling span already paid for, because
        the public entry points repeat it: ``Database.load`` parses, and
        ``solve(check="none")`` re-derives the classification when
        ``method="auto"`` or the plan is sharded, and the shard plan.  A
        span's self time is its duration minus that part.
        """
        out = {stage: durations.get(stage, 0.0) for stage in STAGES}
        out["core.assemble"] -= out["datalog.parse"]
        kwargs = self.solve_kwargs
        if kwargs.get("method") == "auto" or kwargs.get("plan") == "sharded":
            out["engine.fixpoint"] -= out["analysis.classify"]
        out["engine.fixpoint"] -= out["analysis.shard_plan"]
        return {stage: max(0.0, value) for stage, value in out.items()}

    def compile_all(self) -> float:
        """Seconds to compile directly every rule of the program that is
        evaluated (fresh, so no plan is cached).  Informational: outside
        any op."""
        program = get_pushdown(self.database()[0].program).program
        t0 = time.perf_counter()
        for rule in program.rules:
            compile_rule(rule, program)
        return time.perf_counter() - t0


def _matches(rows: List[Tuple[Any, ...]], expected: Any) -> bool:
    if isinstance(expected, tuple):  # (row count, checksum)
        return (len(rows), gen.arc_checksum(rows)) == expected
    if isinstance(expected, dict):
        # Atoms at a default predicate's bottom value 0 are implicit.
        got = {tuple(row[:-1]): row[-1] for row in rows if row[-1] != 0}
        return got == expected
    return {tuple(row) for row in rows} == expected


# -- the six solve workloads ---------------------------------------------------------
# Sizes are frozen: they put the calibrated op at 0.3-0.45 s on the
# reference host, so a 10 s run times 20-30 ops.  ``smoke`` sizes keep
# the test suite under 30 s.


def _sp_seminaive(rng: random.Random, out_dir: str, smoke: bool) -> Inputs:
    arcs = gen.regular_digraph(rng, 16 if smoke else 80)
    return Inputs(
        text=gen.SHORTEST_PATH,
        facts=[("arc", arcs)],
        queries=("s",),
        oracle=lambda: {"s": gen.shortest_distances(arcs)},
    )


def _roads_greedy(rng: random.Random, out_dir: str, smoke: bool) -> Inputs:
    side = 6 if smoke else 36
    arcs = gen.grid_roads(rng, side)
    path = os.path.join(out_dir, "roads_greedy.csv")
    gen.write_arc_csv(path, arcs)
    sources = rng.sample(range(side * side), 4)
    return Inputs(
        text=gen.ROAD_NETWORK,
        facts=[("source", [(s,) for s in sources])],
        csv=[("arc", path)],
        queries=("d",),
        oracle=lambda: {"d": gen.shortest_distances(arcs, sources)},
    )


def _party_naive(rng: random.Random, out_dir: str, smoke: bool) -> Inputs:
    if smoke:
        knows, requires = gen.layered_party(rng, 60, layers=5)
    else:
        knows, requires = gen.layered_party(rng, 800)
    return Inputs(
        text=gen.PARTY,
        facts=[("knows", knows), ("requires", requires)],
        queries=("coming",),
        oracle=lambda: {
            "coming": {(g,) for g in gen.party_oracle(knows, requires)}
        },
    )


def _straggler_sharded(rng: random.Random, out_dir: str, smoke: bool) -> Inputs:
    arcs = gen.straggler_graph(rng, *((24, 8) if smoke else (300, 30)))
    return Inputs(
        text=gen.SHORTEST_PATH,
        facts=[("arc", arcs)],
        queries=("s",),
        oracle=lambda: {"s": gen.shortest_distances(arcs)},
    )


def _wide_program(rng: random.Random, out_dir: str, smoke: bool) -> Inputs:
    text, expected = gen.wide_program(rng, 2 if smoke else 3)
    return Inputs(text=text, queries=tuple(expected), oracle=lambda: expected)


def _bulk_load(rng: random.Random, out_dir: str, smoke: bool) -> Inputs:
    arcs = gen.grid_roads(rng, 12 if smoke else 159)
    path = os.path.join(out_dir, "bulk_load.csv")
    gen.write_arc_csv(path, arcs)
    return Inputs(
        text=gen.ARC_ONLY,
        csv=[("arc", path)],
        queries=("arc",),
        oracle=lambda: {"arc": (len(arcs), gen.arc_checksum(arcs))},
    )


def solve_workloads() -> Dict[str, SolveWorkload]:
    sharded = {"method": "naive", "plan": "sharded", "workers": 2, "shards": 64}
    specs = [
        ("sp_seminaive", _sp_seminaive, {"method": "seminaive"}),
        ("roads_greedy", _roads_greedy, {"method": "auto"}),
        ("party_naive", _party_naive, {"method": "naive"}),
        ("straggler_sharded", _straggler_sharded, sharded),
        ("wide_program", _wide_program, {"method": "auto"}),
        ("bulk_load", _bulk_load, {"method": "naive"}),
    ]
    return {
        name: SolveWorkload(name, kwargs, build) for name, build, kwargs in specs
    }
