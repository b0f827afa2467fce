"""The rule-language parser: happy paths, edge cases, diagnostics."""

import importlib.util
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog.atoms import AggregateSubgoal, AtomSubgoal, BuiltinSubgoal
from repro.datalog.errors import ParseError
from repro.datalog.parser import (
    parse_atom_text,
    parse_program,
    parse_rule,
    tokenize,
)
from repro.datalog.spans import Span
from repro.datalog.terms import ArithExpr, Constant, Variable
from repro.lattices import REALS_GE
from tests import reference_lexer
from tests.conftest import examples

ROOT = Path(__file__).parent.parent


class TestTokenizer:
    def test_comments_ignored(self):
        tokens = tokenize("p(X). % a comment\nq(Y).")
        texts = [t.text for t in tokens if t.text]
        assert "%" not in "".join(texts)
        assert "comment" not in texts

    def test_string_literals(self):
        tokens = tokenize('p("hello world").')
        values = [t.value for t in tokens]
        assert "hello world" in values

    def test_string_escape(self):
        tokens = tokenize(r'p("a\"b").')
        assert 'a"b' in [t.value for t in tokens]

    def test_unterminated_string(self):
        with pytest.raises(ParseError):
            tokenize('p("oops')

    def test_numbers(self):
        tokens = tokenize("p(3, 2.5, inf).")
        values = [t.value for t in tokens]
        assert 3 in values
        assert 2.5 in values
        assert float("inf") in values

    def test_integer_followed_by_period_terminator(self):
        tokens = tokenize("p(3).")
        assert [t.text for t in tokens if t.text] == ["p", "(", "3", ")", "."]

    def test_eq_r_lexed_as_unit(self):
        texts = [t.text for t in tokenize("C =r min")]
        assert "=r" in texts

    def test_eq_r_not_confused_with_identifier(self):
        texts = [t.text for t in tokenize("C =rate")]
        assert "=r" not in texts
        assert "rate" in texts

    def test_line_column_tracking(self):
        tokens = tokenize("p(X).\n  q(Y).")
        q_token = next(t for t in tokens if t.text == "q")
        assert q_token.line == 2
        assert q_token.column == 3

    def test_unexpected_character(self):
        with pytest.raises(ParseError):
            tokenize("p(X) ← q(X).")  # unicode arrow is not in the syntax

    def test_superscript_digit_is_a_located_parse_error(self):
        # "²" is a digit to str.isdigit but not to int(): it is neither a
        # number nor an identifier start.  The char loop crashed on it.
        with pytest.raises(ValueError):
            reference_lexer.tokenize("p(²).")
        with pytest.raises(ParseError) as info:
            parse_program("p(²).")
        assert info.value.bare_message == "unexpected character '²'"
        assert (info.value.line, info.value.column) == (1, 3)

    def test_unicode_letters_and_digits(self):
        tokens = tokenize("p(é, É, ٣, ٣.٥, x²).")
        kinds = [(t.kind.value, t.value) for t in tokens if t.kind.value != "punct"]
        assert kinds == [
            ("ident", "p"), ("ident", "é"), ("variable", "É"),
            ("number", 3), ("number", 3.5), ("ident", "x²"), ("eof", None),
        ]

    def test_token_span_is_computed_from_its_coordinates(self):
        token = tokenize("  arc(a).")[0]
        assert token.span == Span(1, 3, 1, 5)


def _lex(lexer, text):
    """A lexer's outcome: its tokens, value types included, or its error."""
    try:
        tokens = lexer(text)
    except ParseError as exc:
        return ("error", exc.bare_message, exc.line, exc.column)
    except ValueError:
        return ("crash",)
    return [
        (kind, text, type(value), value, line, column)
        for kind, text, value, line, column in tokens
    ]


#: Pieces that sit at the lexer's edges: "=r" against "=rate", numbers
#: against the terminator, comments, escapes and unterminated strings,
#: column-counting whitespace, and Unicode letters, digits and numerals
#: (``²`` and ``½`` are digits or numerals to str but not to int).
_PIECES = [
    "=r", "=rate", "=r_", "=r(", "1.", ".5", "1.5.2", "12", "٣", "٣.٥",
    "%", "% note", '"', '"a\\"b"', '"tab\there"', "\\", '"open',
    "\t", "\r\n", "\n", " ", "é", "É", "²", "½", "Ⅻ", "ǅ", "x²",
    "p", "X", "_", "inf", "(", ")", ",", ".", "<-", "<", "<=", ">=",
    "!=", "!", "=", "-", "+", "*", "/", "{", "}", ":", "@", "#", "~",
]
_adversarial_text = st.lists(
    st.one_of(
        st.sampled_from(_PIECES),
        st.text(alphabet="".join(set("".join(_PIECES))), max_size=3),
    ),
    max_size=25,
).map("".join)


@settings(max_examples=examples(200), deadline=None)
@given(_adversarial_text)
def test_tokenize_matches_the_char_loop(text):
    ours = _lex(tokenize, text)
    reference = _lex(reference_lexer.tokenize, text)
    if reference == ("crash",):
        # The one allowed difference: a digit int() rejects is a
        # ParseError here, a bare ValueError in the char loop.
        assert ours[0] == "error"
    else:
        assert ours == reference


def _wide_program_text() -> str:
    """The text of the benchmark's ``wide_program`` workload at seed 11."""
    spec = importlib.util.spec_from_file_location("gen", ROOT / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    text, _ = gen.wide_program(random.Random(11), 3)
    return text


def _spans_held(program):
    """Every distinct span object the parsed program's nodes hold."""
    nodes = [*program.declarations.values(), *program.constraints]
    for rule in program.rules:
        nodes += [rule, rule.head]
    for clause in [*program.rules, *program.constraints]:
        for subgoal in clause.body:
            nodes.append(subgoal)
            nodes += getattr(subgoal, "conjuncts", ())
            if hasattr(subgoal, "atom"):
                nodes.append(subgoal.atom)
    return {id(node.span): node.span for node in nodes if node.span is not None}


def test_one_span_is_built_per_spanned_node(monkeypatch):
    text = _wide_program_text()
    built = []
    check = Span.__post_init__
    monkeypatch.setattr(Span, "__post_init__", lambda span: built.append(check(span)))
    program = parse_program(text)
    # A plain atom subgoal shares its atom's span; every other node holds
    # the one span its parse built.
    assert len(built) == len(_spans_held(program)) == 536


class TestAtoms:
    def test_simple(self):
        atom = parse_atom_text("arc(a, b, 3)")
        assert atom.predicate == "arc"
        assert atom.args == (Constant("a"), Constant("b"), Constant(3))

    def test_zero_arity(self):
        assert parse_atom_text("halt").args == ()

    def test_variables_uppercase(self):
        atom = parse_atom_text("p(X, Y1, _tmp)")
        assert all(isinstance(a, Variable) for a in atom.args)

    def test_negative_number_argument(self):
        atom = parse_atom_text("p(-3)")
        assert atom.args == (Constant(-3),)


class TestRules:
    def test_fact(self):
        rule = parse_rule("arc(a, b, 1).")
        assert rule.is_fact

    def test_positive_body(self):
        rule = parse_rule("p(X) <- q(X), r(X).")
        assert len(rule.body) == 2
        assert all(isinstance(sg, AtomSubgoal) for sg in rule.body)

    def test_negation(self):
        rule = parse_rule("p(X) <- q(X), not r(X).")
        negated = [sg for sg in rule.body if getattr(sg, "negated", False)]
        assert len(negated) == 1

    def test_builtin_arithmetic(self):
        rule = parse_rule("p(X, C) <- q(X, A, B), C = A + B * 2.")
        builtin = rule.body[-1]
        assert isinstance(builtin, BuiltinSubgoal)
        assert isinstance(builtin.rhs, ArithExpr)
        # precedence: A + (B * 2)
        assert builtin.rhs.op == "+"
        assert builtin.rhs.right.op == "*"

    def test_parentheses_override_precedence(self):
        rule = parse_rule("p(C) <- q(A, B), C = (A + B) * 2.")
        builtin = rule.body[-1]
        assert builtin.rhs.op == "*"

    def test_comparisons(self):
        for op in ("<", "<=", ">", ">=", "!="):
            rule = parse_rule(f"p(X) <- q(X, N), N {op} 5.")
            assert rule.body[-1].op == op

    def test_aggregate_with_multiset_variable(self):
        rule = parse_rule("s(X, Y, C) <- C =r min{D : path(X, Z, Y, D)}.")
        agg = rule.body[0]
        assert isinstance(agg, AggregateSubgoal)
        assert agg.function == "min"
        assert agg.restricted
        assert agg.multiset_var == Variable("D")
        assert len(agg.conjuncts) == 1

    def test_aggregate_unrestricted(self):
        rule = parse_rule("t(G, C) <- gate(G, or), C = or{D : connect(G, W), t(W, D)}.")
        agg = rule.body[1]
        assert not agg.restricted
        assert len(agg.conjuncts) == 2

    def test_aggregate_implicit_boolean(self):
        rule = parse_rule("coming(X) <- requires(X, K), N = count{kc(X, Y)}, N >= K.")
        agg = rule.body[1]
        assert agg.multiset_var is None
        assert agg.function == "count"

    def test_aggregate_constant_result(self):
        rule = parse_rule("p(a) <- 1 =r count{q(X)}.")
        agg = rule.body[0]
        assert agg.result == Constant(1)

    def test_eq_r_requires_aggregate(self):
        with pytest.raises(ParseError):
            parse_rule("p(X) <- X =r 3.")

    def test_aggregate_lhs_must_be_term(self):
        with pytest.raises(ParseError):
            parse_rule("p(X) <- X + 1 = min{D : q(D)}.")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_rule("p(X) <- q(X). extra")

    def test_missing_period(self):
        with pytest.raises(ParseError):
            parse_rule("p(X) <- q(X)")

    def test_error_carries_location(self):
        try:
            parse_program("p(X) <- q(X).\np(Y) <- ,")
        except ParseError as exc:
            assert exc.line == 2
        else:
            pytest.fail("expected ParseError")


class TestDeclarations:
    def test_cost_declaration(self):
        program = parse_program("@cost arc/3 : reals_ge.\np(X) <- arc(X, Y, C).")
        decl = program.decl("arc")
        assert decl.is_cost_predicate
        assert decl.lattice == REALS_GE
        assert not decl.has_default

    def test_default_declaration(self):
        program = parse_program("@default t/2 : bool_le.\np(X) <- t(X, D).")
        decl = program.decl("t")
        assert decl.has_default
        assert decl.default_value == 0

    def test_cost_with_default_keyword(self):
        program = parse_program("@cost t/2 : bool_le default.\np(X) <- t(X, D).")
        assert program.decl("t").has_default

    def test_pred_declaration(self):
        program = parse_program("@pred edge/2.\np(X) <- edge(X, Y).")
        assert program.decl("edge").arity == 2
        assert not program.decl("edge").is_cost_predicate

    def test_unknown_lattice(self):
        with pytest.raises(ParseError):
            parse_program("@cost p/2 : no_such_lattice.")

    def test_unknown_declaration_keyword(self):
        with pytest.raises(ParseError):
            parse_program("@frobnicate p/2.")

    def test_constraint_via_at(self):
        program = parse_program("@constraint arc(direct, Z, C).\np(X) <- arc(X, Y, C).")
        assert len(program.constraints) == 1

    def test_constraint_via_headless_rule(self):
        program = parse_program("<- gate(G, or), gate(G, and).\np(X) <- gate(X, T).")
        assert len(program.constraints) == 1
        assert len(program.constraints[0].body) == 2


class TestCustomRegistries:
    def test_custom_lattice_binding(self):
        from repro.lattices import BoundedReals

        fractions = BoundedReals(0, 1, name="fractions")
        program = parse_program(
            "@cost own/3 : fractions.\np(X) <- own(X, Y, F).",
            lattices={"fractions": fractions},
        )
        assert program.decl("own").lattice == fractions
