"""One run, one set of facts: every whole-program pass at most once.

``ProgramFacts`` (:mod:`repro.analysis.facts`) sits under
``analyze_program``, the linter, the pushdown and ``solve()``.  These
tests pin what that buys and what it must not cost:

* *once-ness* — each whole-program pass runs at most once per (front-end
  run, program), counted by wrapping the pass functions themselves;
* the deterministic work counter ``analysis.passes_run`` a traced solve
  publishes;
* nothing is retained once the result is dropped, nothing is stored on
  the ``Program``, and concurrent solves of one ``Program`` share no
  facts object;
* ``Linter.register`` keeps its public ``fn(program)`` contract.
"""

from __future__ import annotations

import collections
import gc
import pathlib
import re
import sys
import threading
import weakref

import pytest

from repro.analysis import analyze_program
from repro.analysis.diagnostics import (
    Linter,
    lint_program,
    lint_source,
    make_diagnostic,
)
from repro.analysis.facts import ProgramFacts
from repro.analysis.premap import apply_pushdown
from repro.cli import main as cli_main
from repro.core.database import Database
from repro.datalog.errors import ReproError
from repro.datalog.program import Program
from repro.engine.solver import solve
from repro.obs import Tracer
from repro.programs import ALL_PROGRAMS, shortest_path
from repro.workloads import ROAD_NETWORK_PROGRAM

ROOT = pathlib.Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.mad"))
CORPUS = sorted((ROOT / "tests" / "lint_corpus").glob("*.mad"))

#: The whole-program passes, by defining module.
PASSES = {
    "repro.analysis.dependencies": ["condense"],
    "repro.analysis.safety": ["check_program_safety"],
    "repro.analysis.conflict": ["check_conflict_freedom"],
    "repro.analysis.admissible": ["check_program_admissible"],
    "repro.analysis.rmonotonic": ["check_program_r_monotonic"],
    "repro.analysis.typing": ["infer_types"],
    "repro.analysis.classify": ["classify_program"],
    "repro.analysis.premap": ["analyze_premappability"],
    "repro.analysis.sharding": ["analyze_sharding"],
}


def wide_text(copies: int = 3) -> str:
    """``copies`` renamed copies of the four paper examples, facts and
    all, as one program text (the shape of perfbench's ``wide_program``)."""
    names = ("shortest_path", "company_control", "party_invitations", "circuit")
    blocks = []
    for k in range(copies):
        for name in names:
            text = (ROOT / "examples" / f"{name}.mad").read_text(encoding="utf-8")
            text = re.sub(r"%.*", "", text)
            blocks.append(
                re.sub(r"\b([a-z]\w*)(?=[(/])", rf"\1_{name[:2]}{k}", text)
            )
    return "\n".join(blocks)


@pytest.fixture
def pass_calls(monkeypatch):
    """Wrap every whole-program pass — in its home module and wherever it
    was imported by name — with a per-(pass, program) call counter."""
    calls: collections.Counter = collections.Counter()
    programs = []  # keep every program alive so ids stay unique

    def wrap(name, fn):
        def counted(program, *args, **kwargs):
            programs.append(program)
            calls[name, id(program)] += 1
            return fn(program, *args, **kwargs)

        return counted

    for module_name, names in PASSES.items():
        for name in names:
            original = getattr(sys.modules[module_name], name)
            wrapped = wrap(name, original)
            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").startswith(("repro", "tests")):
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            monkeypatch.setattr(module, attr, wrapped)
    return calls


def assert_once(calls, *, ran=()):
    repeated = {key: n for key, n in calls.items() if n > 1}
    assert not repeated, f"passes run more than once on one program: {repeated}"
    names = {name for name, _ in calls}
    assert names >= set(ran), f"counter saw {sorted(names)}, expected {ran}"
    calls.clear()


def _loaded(text: str, name: str = "db") -> Database:
    db = Database(name)
    db.load(text)
    return db


#: name → a builder of a fresh Database (catalog, examples, corpus, wide).
DATABASES = {
    **{paper.name: paper.database for paper in ALL_PROGRAMS},
    **{
        f"{path.parent.name}/{path.stem}": (
            lambda text=path.read_text(encoding="utf-8"): _loaded(text)
        )
        for path in EXAMPLES + CORPUS
    },
    "wide": lambda: _loaded(wide_text()),
}


COMBOS = [
    (method, plan, pushdown)
    for method in ("naive", "seminaive", "greedy", "auto")
    for plan in ("smart", "sharded")
    for pushdown in ("auto", "off")
]


@pytest.mark.parametrize("name", DATABASES)
def test_strict_solve_runs_each_pass_at_most_once(name, pass_calls):
    build = DATABASES[name]
    try:
        build()
    except ReproError:
        pytest.skip("the corpus file does not load: no program to solve")
    for method, plan, pushdown in COMBOS:
        # A fresh Database per solve: a front-end run is one solve, and
        # the plan/pushdown caches on the Program start cold.
        try:
            build().solve(
                check="strict",
                method=method,
                plan=plan,
                pushdown=pushdown,
                workers=1,
                shards=2,
                max_iterations=60,
            )
        except ReproError:
            pass  # rejected or non-terminating programs still analyse once
        assert_once(pass_calls, ran=["condense"])


def test_wide_program_counts(pass_calls):
    """Eight pass executions: seven on the program (the gate's three,
    then what the pushdown reads) and the condensation of its pushdown
    rewrite, whose other facts derive from the program's.  The shard
    pass and the linter's r-monotonic list are never read."""
    tracer = Tracer()
    _loaded(wide_text()).solve(method="auto", tracer=tracer)
    by_pass = collections.Counter(name for name, _ in pass_calls.elements())
    assert by_pass == {
        "condense": 2,
        "check_program_admissible": 1,
        "infer_types": 1,
        "classify_program": 1,
        "check_program_safety": 1,
        "check_conflict_freedom": 1,
        "analyze_premappability": 1,
    }
    assert_once(pass_calls)
    metrics = tracer.metrics.snapshot()
    assert metrics["analysis.passes_run"]["value"] == 8
    assert metrics["analysis.programs_analyzed"]["value"] == 1


@pytest.mark.parametrize("path", EXAMPLES + CORPUS, ids=lambda p: p.stem)
def test_analyze_and_lint_run_each_pass_at_most_once(path, pass_calls):
    text = path.read_text(encoding="utf-8")
    lint_source(text, name=path.name)
    assert_once(pass_calls)
    try:
        program = _loaded(text).program
    except ReproError:
        return
    lint_program(program)
    assert_once(pass_calls, ran=["condense", "infer_types"])
    try:
        analyze_program(program)
    except ReproError:
        pass
    assert_once(pass_calls, ran=["condense", "check_program_safety"])


@pytest.mark.parametrize("command", ["lint", "optimize", "shard-plan"])
def test_cli_front_ends_run_each_pass_at_most_once(command, pass_calls, capsys):
    for path in EXAMPLES:
        cli_main([command, str(path)])
        assert_once(pass_calls, ran=["condense", "classify_program"])
    capsys.readouterr()


# -- the work counter ---------------------------------------------------------------


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_examples_stay_within_the_pass_budget(path, pass_calls):
    """CI's analyse-once gate (``lint`` job): a traced solve of an example
    runs at most 7 passes on the program plus 1 (the condensation) on a
    pushdown rewrite, and the run's facts account for every pass call —
    so an adapter or a solver branch that calls a pass itself fails here,
    without a timer."""
    from repro.engine.supervisor import Budget

    tracer = Tracer()
    # diverging.mad never converges; its front end runs all the same.
    db = _loaded(path.read_text(encoding="utf-8"))
    db.solve(tracer=tracer, budget=Budget(max_iterations=50))
    metrics = tracer.metrics.snapshot()
    passes = metrics["analysis.passes_run"]["value"]
    assert metrics["analysis.programs_analyzed"]["value"] == 1
    rewritten = any(e["type"] == "rewrite_applied" for e in tracer.events)
    assert passes <= 7 + 1 * rewritten
    # The per-rule r-monotonic list is held by the facts but not counted.
    calls = {k: n for k, n in pass_calls.items() if k[0] != "check_program_r_monotonic"}
    assert sum(calls.values()) == passes, calls


def test_strict_solve_reads_only_what_it_gates_on(pass_calls, monkeypatch):
    """An admitted strict solve runs no lint check, and the shard pass
    only under ``plan="sharded"``; a refusal runs the linter for its
    diagnostics."""
    from repro.analysis import diagnostics
    from repro.engine.supervisor import Budget

    checks_run = collections.Counter()

    def counted(check):
        def fn(facts):
            checks_run[check.name] += 1
            return check.fn(facts)

        return diagnostics.LintCheck(check.name, fn, check.structural)

    monkeypatch.setattr(
        diagnostics.DEFAULT_LINTER,
        "checks",
        [counted(c) for c in diagnostics.DEFAULT_LINTER.checks],
    )
    for path in EXAMPLES:
        for plan in ("smart", "sharded"):
            # diverging.mad never converges; it is admitted all the same.
            _loaded(path.read_text(encoding="utf-8")).solve(
                check="strict", plan=plan, budget=Budget(max_iterations=50)
            )
            shard_passes = sum(
                n for (name, _), n in pass_calls.items() if name == "analyze_sharding"
            )
            assert shard_passes == (plan == "sharded"), (path.stem, plan)
            pass_calls.clear()
    assert not checks_run, checks_run
    with pytest.raises(ReproError) as refused:
        _loaded("@pred p/2. @pred q/1. p(X, Y) <- q(X). q(a).").solve()
    assert [d.code for d in refused.value.diagnostics] == ["MAD101"]
    assert checks_run


def test_passes_run_is_published_per_traced_solve():
    for kwargs, passes, programs in [
        ({}, 8, 1),  # gated, pushed down, rewrite condensed (traced)
        ({"pushdown": "off"}, 6, 1),  # the gate's three, classified (traced)
        ({"check": "none", "pushdown": "off"}, 1, 1),  # condense only
        ({"check": "none", "pushdown": "off", "method": "auto"}, 4, 1),
    ]:
        db = shortest_path.database({"arc": [("a", "b", 1), ("b", "c", 2)]})
        tracer = Tracer()
        db.solve(tracer=tracer, **kwargs)
        metrics = tracer.metrics.snapshot()
        assert metrics["analysis.passes_run"]["value"] == passes, kwargs
        assert metrics["analysis.programs_analyzed"]["value"] == programs, kwargs


def test_rewrite_is_classified_only_for_a_reader(pass_calls, monkeypatch):
    """With an explicit method, a sequential plan and no tracer nobody
    reads the rewritten program's verdicts; a reader gets the two
    components the rewrite touched classified, and nothing else."""
    from repro.analysis import facts

    touched = []
    classify_component = facts.classify_component

    def counted(component, program, *args):
        touched.append(program.name)
        return classify_component(component, program, *args)

    monkeypatch.setattr(facts, "classify_component", counted)
    arcs = {"arc": [("a", "b", 1), ("b", "c", 2)]}
    shortest_path.database(arcs).solve(method="seminaive")
    assert touched == []
    for kwargs in ({"method": "auto"}, {"tracer": Tracer()}, {"plan": "sharded", "workers": 1}):
        shortest_path.database(arcs).solve(**kwargs)
        assert touched == ["shortest-path+pushdown"] * 2, kwargs
        touched.clear()
    assert collections.Counter(n for n, _ in pass_calls.elements())[
        "classify_program"
    ] == 4


def test_traced_scc_start_reports_the_rewritten_verdicts():
    arcs = {"arc": [("a", "b", 1), ("b", "c", 2)]}
    tracer = Tracer()
    shortest_path.database(arcs).solve(method="seminaive", tracer=tracer)
    starts = [e for e in tracer.events if e["type"] == "scc_start"]
    assert [e["verdict"] for e in starts] == ["monotonic", "stratified"]
    assert any("path__frontier" in e["predicates"] for e in starts)
    # Unanalysed solves never reported verdicts, traced or not.
    tracer = Tracer()
    shortest_path.database(arcs).solve(check="none", tracer=tracer)
    starts = [e for e in tracer.events if e["type"] == "scc_start"]
    assert {e["verdict"] for e in starts} == {None}


# -- the pushdown rewrite's facts --------------------------------------------------


def test_rewrite_facts_equal_a_fresh_analysis_of_the_rewrite():
    """``ProgramFacts.rewritten`` reuses the program's reports for every
    component the pushdown left alone and analyses the touched ones
    against the program's typing; on every program the pushdown changes,
    the result equals a fresh analysis of the rewritten program."""
    programs = {
        **DATABASES,
        "road_network": lambda: _loaded(ROAD_NETWORK_PROGRAM),
    }
    rewritten = []
    for name, build in programs.items():
        try:
            facts = ProgramFacts(build().program)
            rewrite = apply_pushdown(facts.program, facts.premappability)
        except ReproError:
            continue  # does not load or classify: nothing to rewrite
        if not rewrite.changed:
            continue
        rewritten.append(name)
        passes = facts.passes_run
        derived = facts.rewritten(rewrite.program)
        fresh = ProgramFacts(rewrite.program)
        assert derived.components == fresh.components, name
        # Verdict, certified, method, aggregate functions and reasons.
        assert derived.classification.components == (
            fresh.classification.components
        ), name
        assert derived.sharding == fresh.sharding, name
        # The condensation and the shard pass, counted on the program's
        # facts; each applied pushdown touched two components (the
        # frontier's recursion and the interior's reconstruction), and
        # every other verdict is the program's own object.
        assert (derived.passes_run, facts.passes_run) == (0, passes + 2), name
        kept = [id(c) for c in facts.classification.components]
        touched = [c for c in derived.classification.components if id(c) not in kept]
        assert len(touched) == 2 * len(rewrite.applied), name
    assert {"wide", "road_network", "examples/shortest_path"} <= set(rewritten)


# -- the linter's public contract ---------------------------------------------------


def test_registered_user_check_still_receives_the_program():
    seen = []

    def user_check(program):
        seen.append(program)
        yield make_diagnostic("duplicate-rule", "custom finding")

    linter = Linter()
    linter.register("always-warn", user_check)
    program = shortest_path.database().program
    diagnostics = linter.lint(program)
    assert any(d.message == "custom finding" for d in diagnostics)
    assert seen == [program]
    assert all(isinstance(p, Program) for p in seen)


# -- lifetime -----------------------------------------------------------------------


def test_nothing_is_retained_after_the_result_is_dropped(monkeypatch):
    built = []  # the solve's facts objects (slotted: no weak references)
    init = ProgramFacts.__init__

    def recording_init(self, program):
        built.append(self)
        init(self, program)

    monkeypatch.setattr(ProgramFacts, "__init__", recording_init)
    db = shortest_path.database({"arc": [("a", "b", 1), ("b", "c", 2)]})
    program = db.program
    result = solve(program, db.edb(), method="auto")
    assert len(built) == 2  # the program's and its pushdown rewrite's
    held = [weakref.ref(f.typing) for f in built]
    held += [weakref.ref(f.classification) for f in built]
    built.clear()
    gc.collect()
    # Not even the live result keeps a report.
    assert all(ref() is None for ref in held) and result.complete
    # The Program holds what it held before: the compiled plans and the
    # rewrite (here the plans sit on the rewrite's own Program).
    extras = set(program.__dict__) - set(Program([]).__dict__)
    assert "_pushdown_cache" in extras
    assert extras <= {"_exec_plan_cache", "_pushdown_cache"}


def test_concurrent_solves_of_one_program_share_no_facts(monkeypatch):
    db = shortest_path.database(
        {"arc": [("a", "b", 1), ("b", "c", 2), ("c", "a", 4), ("a", "c", 9)]}
    )
    program, edb = db.program, db.edb()
    queries = {"s": "seminaive", "path": "auto"}
    sequential = {q: solve(program, edb, method=m)[q] for q, m in queries.items()}

    built = collections.defaultdict(list)  # thread → its facts objects
    init = ProgramFacts.__init__

    def recording_init(self, program):
        built[threading.get_ident()].append(self)
        init(self, program)

    monkeypatch.setattr(ProgramFacts, "__init__", recording_init)
    barrier = threading.Barrier(len(queries))
    answers = {}

    def run(query, method):
        barrier.wait(timeout=30)
        answers[query] = solve(program, edb, method=method)[query]

    threads = [threading.Thread(target=run, args=item) for item in queries.items()]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()
    assert answers == sequential
    assert len(built) == len(queries)  # each solve built its own
    everything = [facts for per_thread in built.values() for facts in per_thread]
    assert len({id(f) for f in everything}) == len(everything)
