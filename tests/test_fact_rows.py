"""Ground facts in rule text load as rows (docs/PERFORMANCE.md §1).

A one-line ground fact that starts a statement is one lexeme.
``Database.load`` takes its row straight from it, and ``parse_program``
builds its rule from it.  Each is checked against the token path:
``tests/reference_load.py`` (the fact-rules load) and
``Parser(source).parse_program()`` (fact lexemes off), on fact-heavy
adversarial text and on the edge cases one by one.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.database import Database
from repro.datalog.atoms import Atom
from repro.datalog.errors import ReproError
from repro.datalog.parser import Parser, TokenKind, parse_program, tokenize
from repro.datalog.rules import Rule
from repro.datalog.spans import Span
from repro.datalog.terms import Constant
from tests import reference_lexer, reference_load
from tests.conftest import examples
from tests.test_parser import _PIECES, _lex


def _state(db: Database):
    """Everything ``load`` leaves on the database; ``repr`` tells 1 from
    1.0 and -0.0 from 0.0, and shows every span."""
    return (
        repr(db._facts),
        [(name, repr(decl), decl.span) for name, decl in db._declarations.items()],
        repr(db._rules),
        repr(db._constraints),
        sorted(db._head_predicates),
    )


def _outcome(loader, text: str, base: str = ""):
    db = Database()
    loader(db, base)
    try:
        loader(db, text)
    except ReproError as exc:
        return ("error", type(exc), str(exc), getattr(exc, "span", None))
    return _state(db)


def _rows_outcome(text: str, base: str = ""):
    return _outcome(Database.load, text, base)


def _reference_outcome(text: str, base: str = ""):
    return _outcome(reference_load.load, text, base)


def _parsed(parse, text: str):
    """A parse's program, every node's repr (spans included), or its error."""
    try:
        program = parse(text)
    except ReproError as exc:
        return ("error", type(exc), str(exc), getattr(exc, "span", None))
    return (
        repr(program.rules),
        repr(program.constraints),
        [(name, repr(decl), decl.span) for name, decl in program.declarations.items()],
    )


def _agree(text: str, base: str = "") -> None:
    assert _rows_outcome(text, base) == _reference_outcome(text, base)
    assert _parsed(parse_program, text) == _parsed(
        lambda t: Parser(t).parse_program(), text
    )
    lexed, reference = _lex(tokenize, text), _lex(reference_lexer.tokenize, text)
    # The char loop's one known difference (tests/reference_lexer.py).
    assert lexed == reference or (reference == ("crash",) and lexed[0] == "error")


#: Well-formed statements, one arity per predicate: every constant form
#: and spacing, facts that are not one lexeme, rules that end on a body
#: atom's line, and the declarations and rules that fix a fact's arity.
_STATEMENTS = [
    "p(1, a).", "p(-3, .5).", "p( 1 , 2 ) .", "q(inf, -inf, 3).", "q(a,b,-0.0).",
    "r(inf_x).", "r(-0).", "s(a, b).", 'p("a", 1).', "p(X, 1).", "r(é).", "r(٣).",
    "p(1,\n2).", "p(1, 2). r(3).", "p(1, % c\n2).", "h.", "h().",
    "q(X, Y, Z) <- p(X, Y), r(Z).", "t(X) <-\nr(1).", "t(X) <- r(X),\np(1, 2).",
    "t(X) <- u(X).",
    "@pred p/2.", "@cost q/3 : reals_ge.", "<- p(1, 2), r(2).", "@constraint s(X, Y).",
]
#: Texts at the fact lexeme's edges, and facts of another arity.
_EDGES = [
    "p(1).5", "p(1).٣", "p(3abc).", "p(abc٣).", "inf(1).", "p(- 1).", "p(-a).",
    "p(1)", "p(7).", "q(1, 2).", "r(X, 2).",
]
_SEPARATORS = ["\n", "\n", "\n", " ", "", "\n  ", "\r\n", "\t"]


def _after(pieces):
    return st.tuples(st.sampled_from(_SEPARATORS), st.sampled_from(pieces)).map("".join)


_statements = st.lists(_after(_STATEMENTS), max_size=12).map("".join)
#: Statements alone; statements around one edge; statements mixed with
#: ``test_parser.py``'s adversarial pieces.
_fact_heavy_text = st.one_of(
    _statements,
    st.tuples(_statements, _after(_EDGES), _statements).map("".join),
    st.lists(
        st.one_of(_after(_STATEMENTS), st.sampled_from(_PIECES)), max_size=14
    ).map("".join),
)


@settings(max_examples=examples(200), deadline=None)
@given(_fact_heavy_text, st.sampled_from(["", "@pred p/1.", "p(1, 2).", "q(7)."]))
def test_load_matches_the_fact_rules_load(text, base):
    _agree(text, base)


#: Text, the rows it loads (value types included), and its fact lexemes.
ROWS = [
    pytest.param(
        "p(-3, .5, inf, -inf, inf_x).",
        [("p", (-3, 0.5, math.inf, -math.inf, "inf_x"))],
        1,
        id="constants",
    ),
    pytest.param("p( 1 , 2 ) .", [("p", (1, 2))], 1, id="spaced"),
    pytest.param("p(abc٣).", [("p", ("abc٣",))], 0, id="non-ascii-letter"),
    pytest.param("p(1). p(2).", [("p", (1,)), ("p", (2,))], 1, id="two-on-a-line"),
    pytest.param("p(1,\n2).", [("p", (1, 2))], 0, id="split-across-lines"),
    pytest.param("p(1).\n", [("p", (1,))], 1, id="one"),
    pytest.param('p("a").\np(b).', [("p", ("a",)), ("p", ("b",))], 1, id="string-first"),
]


@pytest.mark.parametrize("text, rows, lexemes", ROWS)
def test_fact_rows(text, rows, lexemes):
    _agree(text)
    db = Database()
    db.load(text)
    assert db._facts == rows
    assert [(p, tuple(map(type, v))) for p, v in db._facts] == [
        (p, tuple(map(type, v))) for p, v in rows
    ]
    kinds = [token.kind for token in tokenize(text, facts=True)]
    assert kinds.count(TokenKind.FACT) == lexemes


@pytest.mark.parametrize(
    "text",
    [
        pytest.param("p(1).5", id="number-after-the-dot"),
        pytest.param("p(1).٣", id="arabic-digit-after-the-dot"),
        pytest.param("p(3abc).", id="digit-led-word"),
        pytest.param("inf(1).", id="inf-as-a-name"),
        pytest.param("p(-a).", id="negated-name"),
        pytest.param("p(1, 2).\nq(X) <- p(X).", id="clash-fact-first"),
        pytest.param("q(X) <- p(X).\np(1, 2).", id="clash-rule-first"),
        pytest.param("@pred p/1.\np(1, 2).", id="clash-declaration"),
        pytest.param("p(1).\np(1, 2).", id="clash-between-facts"),
    ],
)
def test_refused_text_raises_the_fact_rules_error(text):
    _agree(text)
    assert _rows_outcome(text)[0] == "error"


def test_an_arity_clash_points_at_the_fact_or_the_rule():
    fact_first = _rows_outcome("p(1, 2).\nq(X) <- p(X).")
    rule_first = _rows_outcome("q(X) <- p(X).\np(1, 2).")
    assert fact_first[3] == Span(2, 9, 2, 12)  # the body atom p(X)
    assert rule_first[3] == Span(2, 1, 2, 7)  # the fact p(1, 2)


def test_a_body_atom_on_its_own_line_stays_in_its_rule():
    text = "q(X) <- r(X),\np(1).\nr(2).\n"
    _agree(text)
    db = Database()
    db.load(text)
    assert db._facts == [("r", (2,))]
    assert [str(rule) for rule in db._rules] == ["q(X) <- r(X), p(1)."]


def test_a_fact_of_a_head_predicate_is_a_fact_rule_of_the_program():
    text = "q(X) <- r(X).\nq(1).\nr(2).\n"
    _agree(text)
    db = Database()
    db.load(text)
    assert db._facts == [("q", (1,)), ("r", (2,))]
    assert Rule(Atom("q", (Constant(1),))) in db.program.rules
    assert db.solve()["q"] == {(1,), (2,)}


def test_parse_program_spans_a_fact_lexeme_as_its_tokens():
    (rule,) = parse_program("  \np( a ,-2 ) .").rules
    assert rule.span == Span(2, 1, 2, 12)
    assert rule.head.span == Span(2, 1, 2, 10)
    assert rule.head.args == (Constant("a"), Constant(-2))


def test_a_fact_only_text_builds_no_rule_atom_or_span(monkeypatch):
    text = "".join(f"arc({i}, {i + 1}, {i / 4}).\nnode(n{i}).\n" for i in range(40))
    built = []
    for cls in (Rule, Atom, Span, Constant):
        init = cls.__init__

        def counting(self, *args, _init=init, **kwargs):
            built.append(type(self).__name__)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    db = Database()
    db.load(text)
    assert built == []
    assert len(db._facts) == 80 and db._facts[1] == ("node", ("n0",))
    assert [decl.arity for decl in db._declarations.values()] == [3, 1]
