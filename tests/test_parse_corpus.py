"""Golden pin of what the parser makes of a corpus of rule texts.

``tests/golden/parse_corpus.json`` holds, per text, the ``str`` and the
span of every declaration, rule, atom, subgoal and constraint the parser
builds, or the message and span of the :class:`ParseError` it raises.
The corpus is every paper-catalog program, every ``examples/*.mad`` and
``tests/lint_corpus/*.mad`` file, a fact-heavy generated text and a set
of malformed inputs.  A change to the lexer or the grammar that moves
any node, any span or any error position shows here first.

Regenerate (only for a deliberate change of the language)::

    PYTHONPATH=src python tests/test_parse_corpus.py > tests/golden/parse_corpus.json
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Any, Dict, List, Optional

import pytest

from repro.datalog.atoms import AggregateSubgoal, Atom, AtomSubgoal
from repro.datalog.errors import ParseError, ProgramError
from repro.datalog.parser import Parser
from repro.datalog.spans import Span
from repro.programs import ALL_PROGRAMS

ROOT = Path(__file__).parent.parent
GOLDEN = Path(__file__).parent / "golden" / "parse_corpus.json"

#: Inputs the parser must reject, each at a pinned position.
MALFORMED = {
    "unterminated_string": 'p("oops).\n',
    "string_across_lines": 'p("a\nb").\n',
    "unexpected_arrow": "p(X) ← q(X).\n",
    "unexpected_hash": "p(a).\n  q(#).\n",
    "missing_terminator": "p(a)\nq(b).\n",
    "missing_arrow": "p(X) q(X).\n",
    "eq_r_outside_aggregate": "p(X) <- q(X), X =r 3.\n",
    "aggregate_lhs_expression": "p(C) <- C + 1 = min{D : q(D)}.\n",
    "bad_arity": "@cost p/x : reals_ge.\n",
    "float_arity": "@pred p/1.5.\n",
    "unknown_lattice": "@cost p/2 : nowhere.\n",
    "unknown_declaration": "@frobnicate p/2.\n",
    "no_comparison": "p(X) <- q(X), X + 1.\n",
    "empty_aggregate": "p(N) <- N = count{}.\n",
    "aggregate_same_variable": "p(D) <- D = min{D : q(D)}.\n",
    "trailing_comma": "p(X) <- q(X),.\n",
    "bad_term": "p(<-).\n",
    "tab_column": "p(a).\n\tq(b) $.\n",
    "crlf_column": "p(a).\r\n  q(b) !\r\n",
    "eof_in_rule": "p(X) <- q(X)",
    "dangling_minus": "p(- a).\n",
    "double_dot_number": "p(1.5.2).\n",
    "ident_after_number": "p(3abc).\n",
    "number_then_terminator": "n(1.).\n",
}

#: Valid inputs at the lexer's edges: ``=r`` against ``=rate``, numbers
#: against the terminator, Unicode letters and digits, escapes.
EDGES = (
    "p(X) <- q(X), X =rate.\n"
    "s(X, C) <- C =r min{D : q(X, D)}.\n"
    "s(X, C) <- C=r min{D:q(X,D)}.\n"
    "n(1). n(.5). n(1.5). n(0.25).n(10).\n"
    "v(é, É, _x, café, Ünter, x٣, ٣, ٣.٣).\n"
    'w("a\\"b", "tab\there", "%not a comment", "").  % a comment\n'
    "\tt(X) <- u(X, Y), Y != -3, X >= Y * 2 / (1 - Y).\r\n"
    "<- t(a), u(a, b).\n"
    "@default def/2 : reals_ge.\n"
    "@cost d2/2 : reals_ge default.\n"
    "halt. h <- halt, not stop.\n"
)


def fact_heavy_text(seed: int = 7, rows: int = 300) -> str:
    """Ground facts of every constant kind, with comments, tabs and
    ``\\r\\n`` line ends, under a few declarations and rules."""
    rng = random.Random(seed)
    lines = [
        "% generated facts",
        "@cost arc/3 : reals_ge.",
        "@cost s/3 : reals_ge.",
        "@pred tag/2.",
        "s(X, Y, C) <- C =r min{D : arc(X, Y, D)}.",
    ]
    names = ["a", "b_1", "node7", "x_y_z", "inf_node"]
    for i in range(rows):
        src = rng.choice(names) + str(rng.randrange(40))
        dst = rng.choice(names) + str(rng.randrange(40))
        cost = rng.choice(
            [str(rng.randrange(100)), f"{rng.random() * 100:.3f}", "inf",
             f"-{rng.randrange(9)}", f".{rng.randrange(10)}"]
        )
        sep = rng.choice([", ", ",\t", " , "])
        end = rng.choice(["\n", "\r\n", "  % trailing comment\n"])
        lines.append(f"arc({src}{sep}{dst}{sep}{cost}).{end}".rstrip("\n"))
        if i % 7 == 0:
            label = rng.choice(["plain", 'with \\"quote\\"', "tab\tin", "é ü"])
            lines.append(f'tag({src}, "{label}").')
    return "\n".join(lines) + "\n"


def corpus() -> Dict[str, str]:
    texts: Dict[str, str] = {}
    for program in ALL_PROGRAMS:
        texts[f"catalog/{program.name}"] = program.source
    for folder in ("examples", "tests/lint_corpus"):
        for path in sorted((ROOT / folder).glob("*.mad")):
            texts[f"{folder}/{path.name}"] = path.read_text(encoding="utf-8")
    texts["generated/fact_heavy"] = fact_heavy_text()
    texts["generated/edges"] = EDGES
    for name, text in MALFORMED.items():
        texts[f"malformed/{name}"] = text
    return texts


def _span(span: Optional[Span]) -> Optional[List[int]]:
    if span is None:
        return None
    return [span.line, span.column, span.end_line, span.end_column]


def _atom(atom: Atom) -> Dict[str, Any]:
    return {"str": str(atom), "span": _span(atom.span)}


def _subgoal(subgoal: Any) -> Dict[str, Any]:
    out: Dict[str, Any] = {
        "kind": type(subgoal).__name__,
        "str": str(subgoal),
        "span": _span(subgoal.span),
    }
    if isinstance(subgoal, AtomSubgoal):
        out["atom"] = _atom(subgoal.atom)
    elif isinstance(subgoal, AggregateSubgoal):
        out["conjuncts"] = [_atom(atom) for atom in subgoal.conjuncts]
    return out


def record_text(text: str) -> Dict[str, Any]:
    try:
        parser = Parser(text, validate=False)
        parser.parse_program()
    except ParseError as exc:
        return {"error": {"message": exc.bare_message, "span": _span(exc.span)}}
    except ProgramError:
        pass  # parsed, but not a program (e.g. a duplicate declaration)
    return {
        "declarations": [
            {
                "str": f"{d.name}/{d.arity}"
                + (f" : {d.lattice.name}" if d.lattice is not None else "")
                + (" default" if d.has_default else ""),
                "span": _span(d.span),
            }
            for d in parser.declarations
        ],
        "rules": [
            {
                "str": str(rule),
                "span": _span(rule.span),
                "head": _atom(rule.head),
                "body": [_subgoal(sg) for sg in rule.body],
            }
            for rule in parser.rules
        ],
        "constraints": [
            {
                "span": _span(c.span),
                "body": [_subgoal(sg) for sg in c.body],
            }
            for c in parser.constraints
        ],
    }


def record() -> Dict[str, Dict[str, Any]]:
    return {name: record_text(text) for name, text in corpus().items()}


def render(records: Dict[str, Dict[str, Any]]) -> str:
    """The golden file's exact text."""
    return json.dumps(records, indent=1, ensure_ascii=False, sort_keys=True) + "\n"


@pytest.fixture(scope="module")
def golden() -> Dict[str, Any]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def recorded() -> Dict[str, Any]:
    return record()


def test_golden_covers_the_same_texts(golden, recorded):
    assert sorted(recorded) == sorted(golden)


def test_parses_match_golden(golden, recorded):
    moved = [name for name in golden if recorded.get(name) != golden[name]]
    assert moved == []
    assert render(recorded) == GOLDEN.read_text(encoding="utf-8")


def test_golden_rejects_every_malformed_input(golden):
    for name in MALFORMED:
        assert "error" in golden[f"malformed/{name}"], name
    parsed = [r for name, r in golden.items() if not name.startswith("malformed/")]
    assert parsed and all("rules" in r for r in parsed if "error" not in r)


if __name__ == "__main__":
    print(render(record()), end="")
