"""The shared-facts front end against the pass-by-pass one it replaced.

``analyze_program`` and the linter now read one
:class:`~repro.analysis.facts.ProgramFacts`; ``tests/reference_analysis.py``
keeps the self-contained originals.  Both are driven over the lint
corpus, the paper catalog, the example files and generated programs, and
must agree on every diagnostic (code, severity, message, span, fix-its,
order) and every field of the reference's report, which ``ProgramFacts``
holds under the same name — including on structurally broken programs
and when a pass raises ``ProgramError``.
"""

from __future__ import annotations

import dataclasses
import enum
import pathlib

import pytest
from hypothesis import given, settings

from repro.analysis import analyze_program
from repro.analysis.diagnostics import lint_program
from repro.analysis.facts import ProgramFacts
from repro.analysis.premap import analyze_premappability
from repro.datalog.errors import ProgramError, ReproError
from repro.datalog.parser import parse_program
from repro.datalog.program import Program
from repro.programs import ALL_PROGRAMS
from tests import reference_analysis as reference
from tests.test_fuzz_analysis import random_program

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = {
    **{f"catalog:{p.name}": p.source for p in ALL_PROGRAMS},
    **{
        f"{path.parent.name}/{path.name}": path.read_text(encoding="utf-8")
        for path in sorted(
            [*(ROOT / "examples").glob("*.mad")]
            + [*(ROOT / "tests" / "lint_corpus").glob("*.mad")]
        )
    },
}


def _program(source: str, name: str) -> Program | None:
    """What ``lint_source`` lints: parsed, not validated; None when the
    text does not even parse (no program, nothing to analyse)."""
    try:
        return parse_program(source, name=name, validate=False)
    except ReproError:
        return None


def canon(x):
    """A report as plain comparable data (programs by name, dataclasses
    and plain objects by field, everything else by ``repr``)."""
    if isinstance(x, Program):
        return ("Program", x.name, len(x.rules))
    if isinstance(x, enum.Enum):
        return repr(x)
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return (
            type(x).__name__,
            {f.name: canon(getattr(x, f.name)) for f in dataclasses.fields(x)},
        )
    if isinstance(x, dict):
        return {repr(k): canon(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [canon(i) for i in x]
    if isinstance(x, (set, frozenset)):
        return sorted(repr(i) for i in x)
    if type(x).__repr__ is object.__repr__ and hasattr(x, "__dict__"):
        return (type(x).__name__, canon(vars(x)))
    return repr(x)


def _outcome(fn, program):
    """The canonical result of ``fn(program)``, or the error it raised
    (a library error, or a crash on a program nothing validated)."""
    try:
        return canon(fn(program))
    except Exception as exc:
        return ("raised", type(exc).__name__, str(exc))


def _lint_dicts(diagnostics):
    return [d.to_dict() for d in diagnostics]


#: What both front ends report, by the reference record's field names.
FIELDS = [f.name for f in dataclasses.fields(reference.ReferenceReport)]


def _fields(report):
    return {name: canon(getattr(report, name)) for name in FIELDS}


def assert_same_front_end(program: Program) -> None:
    ours = _outcome(lambda p: _lint_dicts(lint_program(p)), program)
    theirs = _outcome(
        lambda p: _lint_dicts(reference.reference_linter().lint(p)), program
    )
    assert ours == theirs

    new = _outcome(lambda p: _fields(analyze_program(p)), program)
    old = _outcome(lambda p: _fields(reference.reference_analyze(p)), program)
    assert new == old
    if isinstance(new, dict):  # not ("raised", ...)
        # The one entry the reference lacks is what the pass says when
        # run on its own.
        assert canon(analyze_program(program).premappability) == canon(
            analyze_premappability(program)
        )


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_corpus_catalog_and_examples_agree(name):
    program = _program(SOURCES[name], name)
    if program is None:
        pytest.skip("does not parse: nothing reaches the analysis")
    assert_same_front_end(program)


def test_structurally_broken_programs_still_skip_the_semantic_checks():
    program = _program(SOURCES["lint_corpus/arity_mismatch.mad"], "broken")
    facts = ProgramFacts(program)
    diagnostics = lint_program(program, facts=facts)
    assert {d.code for d in diagnostics} == {"MAD501"}
    assert facts.passes_run == 0


@settings(max_examples=60, deadline=None)
@given(random_program())
def test_generated_programs_agree(generated):
    rules, declarations = generated
    try:
        program = Program(rules, declarations=declarations)
    except ReproError:
        # Rejected as built; what the linter sees instead is the same
        # rules unvalidated (structural checks, or a pass giving up).
        try:
            program = Program(rules, declarations=declarations, validate=False)
        except ReproError:
            return
    assert_same_front_end(program)


# -- a pass that raises ----------------------------------------------------------


def _boom(*_args, **_kwargs):
    raise ProgramError("boom")


#: pass → (where to break it so both front ends hit it, the checks whose
#: ``invalid-program`` diagnostic must name them).
BREAKS = {
    "safety": (["repro.analysis.safety.check_rule_safety"], {"safety"}),
    "admissibility": (
        ["repro.analysis.admissible.check_rule_admissible"],
        {"admissibility", "termination"},
    ),
    "typing": (
        [
            "repro.analysis.facts.infer_types",
            "repro.analysis.classify.infer_types",
            "tests.reference_analysis.infer_types",
        ],
        {"lattice-typing"},
    ),
    "conflict": (["repro.analysis.conflict._discharge"], {"conflict-freedom"}),
}


@pytest.mark.parametrize("broken", sorted(BREAKS))
def test_a_raising_pass_aborts_the_same_checks(broken, monkeypatch):
    targets, aborted = BREAKS[broken]
    for target in targets:
        monkeypatch.setattr(target, _boom)
    program = _program(SOURCES["examples/shortest_path.mad"], "sp")
    assert_same_front_end(program)
    messages = [
        d.message for d in lint_program(program) if d.slug == "invalid-program"
    ]
    assert sorted(messages) == sorted(f"{name} aborted: boom" for name in aborted)


def _held(facts: ProgramFacts, name: str) -> bool:
    """Whether the slot is filled, without triggering the computation."""
    try:
        type(facts).__dict__[name].__get__(facts)
    except AttributeError:
        return False
    return True


def test_a_failed_pass_is_not_cached_as_a_success(monkeypatch):
    program = _program(SOURCES["examples/shortest_path.mad"], "sp")
    facts = ProgramFacts(program)
    with monkeypatch.context() as patch:
        patch.setattr("repro.analysis.facts.infer_types", _boom)
        for fact in ("typing", "classification", "sharding", "typing"):
            with pytest.raises(ProgramError, match="boom"):
                getattr(facts, fact)
    # Nothing is held for the failed pass or for what depends on it; what
    # succeeded on the way is held, and is not redone afterwards.
    assert not any(
        _held(facts, name) for name in ("typing", "classification", "sharding")
    )
    assert _held(facts, "admissibility") and _held(facts, "components")
    admissibility = facts.admissibility
    assert facts.typing.conflicts == []
    assert facts.classification.certified
    assert facts.admissibility is admissibility
