r"""A parser for the aggregate-Datalog rule language.

The textual syntax stays close to the paper's notation::

    % Example 2.6 — shortest paths.
    @cost arc/3  : reals_ge.
    @cost path/4 : reals_ge.
    @cost s/3    : reals_ge.
    @constraint arc(direct, Z, C).

    path(X, direct, Y, C) <- arc(X, Y, C).
    path(X, Z, Y, C) <- s(X, Z, C1), arc(Z, Y, C2), C = C1 + C2.
    s(X, Y, C) <- C =r min{D : path(X, Z, Y, D)}.

Lexical conventions
-------------------
One compiled pattern (``_LEXEME``) splits the text; anything it has no
token for is ``unexpected character`` at its line and column, which
count characters (a tab or ``\r`` is one column).

* ``% ...`` comments to end of line.
* An identifier is a run of word characters (``\w``: ``str.isalnum``
  characters and ``_``) whose first character is a letter
  (``str.isalpha``) or ``_``.  One led by an uppercase letter
  (``str.isupper``) or ``_`` is a variable; any other is a symbolic
  constant or a predicate/aggregate name, depending on position.
* A number is decimal digits (``\d``, any script's), optionally with a
  fraction: ``\d+(\.\d+)?`` or ``\.\d+``, an int or a float.  A ``.``
  without a digit after it ends the statement.  ``inf`` is the IEEE
  infinity constant.  Other numerals (``²``, ``½``) are not tokens.
* Strings are double-quoted, on one line; ``\`` escapes the next
  character.
* Statements end with ``.``.

Statements
----------
* ``@cost p/arity : lattice_name [default].`` — declare a cost predicate
  (the final argument is the cost argument); ``default`` marks a
  default-value cost predicate (Section 2.3.2) whose default is the
  lattice bottom.
* ``@default p/arity : lattice_name.`` — sugar for a default-marked
  ``@cost``.
* ``@pred p/arity.`` — optional explicit ordinary-predicate declaration.
* ``@constraint subgoal, ..., subgoal.`` — an integrity constraint
  (Definition 2.9).
* ``head <- subgoal, ..., subgoal.`` — a rule; ``head.`` — a fact.  A
  fact that leads its line and ends on it, with ASCII lowercase names and
  ``inf``, int or float constants (optionally negative), is one lexeme:
  it becomes its rule, or with ``parse_program(rows=...)`` its row, with
  no token in between.  Any other fact is lexed token by token.

Aggregate subgoals are written ``C = f{E : atom, ..., atom}`` or the
restricted form ``C =r f{E : ...}``; the multiset variable and colon are
omitted when aggregating implicit-boolean atoms: ``N = count{q(X)}``.
"""

from __future__ import annotations

import enum
import re
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from repro.aggregates.base import AggregateFunction
from repro.datalog.atoms import (
    COMPARISON_OPS,
    AggregateSubgoal,
    Atom,
    AtomSubgoal,
    BuiltinSubgoal,
    Subgoal,
)
from repro.datalog.errors import ParseError
from repro.datalog.program import PredicateDecl, Program
from repro.datalog.rules import IntegrityConstraint, Rule
from repro.datalog.spans import Span
from repro.datalog.terms import ArithExpr, Constant, Expr, Term, Variable
from repro.lattices import REGISTRY as LATTICE_REGISTRY
from repro.lattices.base import Lattice


class TokenKind(enum.Enum):
    IDENT = "ident"          # identifier led by a non-uppercase letter
    VARIABLE = "variable"    # identifier led by an uppercase letter or "_"
    NUMBER = "number"
    STRING = "string"
    PUNCT = "punct"
    FACT = "fact"            # a one-line ground fact (``tokenize(facts=True)``)
    EOF = "eof"


class Token(NamedTuple):
    kind: TokenKind
    text: str
    value: Any
    line: int
    column: int

    def __str__(self) -> str:
        return self.text or "<eof>"

    @property
    def span(self) -> Span:
        """The source region this token occupies."""
        width = max(len(self.text), 1)
        return Span(self.line, self.column, self.line, self.column + width - 1)


# One alternative per lexeme, tried in order.  Whitespace runs (newlines
# included) and comments produce no token; a string's backslash escapes
# any character, a newline included.  A number's "." needs a digit after
# it, or it is the statement terminator.  "=r" is lexed only when no word
# character follows it, so "=rate" stays "=", "rate".  A ground fact that
# leads a line and ends on it is one lexeme (module docstring, Statements).
_CONSTANT = r"(?:-?(?:[0-9]+(?:\.[0-9]+)?|\.[0-9]+|inf)|[a-z][A-Za-z0-9_]*)"
_FACT_LEXEME = (
    rf"^(?P<name>(?!inf[ \t(])[a-z][A-Za-z0-9_]*)[ \t]*\((?P<args>[ \t]*{_CONSTANT}"
    rf"(?:[ \t]*,[ \t]*{_CONSTANT})*)[ \t]*\)[ \t]*\.(?!\d)"
)
_LEXEME = re.compile(
    r"""
      (?P<skip>[ \t\r\n]+)
    | (?P<comment>%[^\n]*)
    | (?P<string>"(?:\\.|[^"\\\n])*")
    | (?P<number>\d+(?:\.\d+)?|\.\d+)
    | (?P<fact>""" + _FACT_LEXEME + r""")
    | (?P<word>\w+)
    | (?P<punct>=r(?!\w)|<-|<=|>=|!=|[(){},:.=<>+\-*/@])
    | (?P<other>.)
    """,
    re.VERBOSE | re.DOTALL | re.MULTILINE,
)
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)
_IDENT, _VARIABLE, _NUMBER, _STRING, _PUNCT, _FACT, _EOF = TokenKind  # in order
#: ``Token(...)`` without the Python frame of its generated ``__new__``.
_new = tuple.__new__
_INF = float("inf")


def _constant(text: str) -> Any:
    """The value of one constant of a fact lexeme."""
    text = text.strip(" \t")
    if text[0] == "-":
        return -_constant(text[1:])
    if text[0] in "0123456789.":
        return float(text) if "." in text else int(text)
    return _INF if text == "inf" else text


def tokenize(source: str, *, facts: bool = False) -> List[Token]:
    """Split rule text into tokens, tracking line/column for diagnostics.

    A column counts characters from the last newline outside a string,
    so a tab or ``\\r`` is one column and an escaped newline inside a
    string does not start a line.  With ``facts``, a fact lexeme that
    starts a statement is one ``FACT`` token whose value is its row,
    ``(predicate, values)``; any other is its ordinary tokens.
    """
    tokens: List[Token] = []
    append = tokens.append
    line, line_start, pos = 1, 0, 0
    match = None
    while True:
        for match in _LEXEME.finditer(source, pos):
            group = match.lastgroup
            text = match[0]
            start = match.start()
            if group == "skip":
                if "\n" in text:
                    line += text.count("\n")
                    line_start = start + text.rindex("\n") + 1
                continue
            column = start - line_start + 1
            if group == "punct":
                append(_new(Token, (_PUNCT, text, text, line, column)))
            elif group == "word":
                first = text[0]
                if not (first.isalpha() or first == "_"):
                    raise ParseError(f"unexpected character {first!r}", line, column)
                if text == "inf":
                    append(_new(Token, (_NUMBER, text, _INF, line, column)))
                elif first.isupper() or first == "_":
                    append(_new(Token, (_VARIABLE, text, text, line, column)))
                else:
                    append(_new(Token, (_IDENT, text, text, line, column)))
            elif group == "number":
                value = float(text) if "." in text else int(text)
                append(_new(Token, (_NUMBER, text, value, line, column)))
            elif group == "fact":
                name = match["name"]
                if facts and (not tokens or tokens[-1].text[-1] == "."):
                    row = (name, tuple(map(_constant, match["args"].split(","))))
                    append(_new(Token, (_FACT, text, row, line, column)))
                    continue
                # Not a statement's start: the name, then lex on after it.
                append(_new(Token, (_IDENT, name, name, line, column)))
                pos = match.end("name")
                break
            elif group == "string":
                value = _ESCAPE.sub(r"\1", text[1:-1])
                append(_new(Token, (_STRING, text, value, line, column)))
            elif group == "other":
                if text == '"':  # a string that does not close on its line
                    raise ParseError("unterminated string literal", line, column)
                raise ParseError(f"unexpected character {text!r}", line, column)
        else:
            break
    # A comment ends at its newline; one that ends the text leaves the
    # end-of-input position where it began.
    end = len(source)
    if match is not None and match.lastgroup == "comment":
        end = match.start()
    append(Token(_EOF, "", None, line, end - line_start + 1))
    return tokens


class Parser:
    """Recursive-descent parser producing a :class:`Program`."""

    def __init__(
        self,
        source: str,
        *,
        lattices: Optional[Dict[str, Lattice]] = None,
        aggregates: Optional[Dict[str, AggregateFunction]] = None,
        name: str = "program",
        validate: bool = True,
        facts: bool = False,
        rows: Optional[List[Tuple[str, tuple]]] = None,
    ) -> None:
        self.tokens = tokenize(source, facts=facts)
        self.rows = rows
        self.pos = 0
        self.name = name
        self.validate = validate
        self.lattices = dict(LATTICE_REGISTRY)
        if lattices:
            self.lattices.update(lattices)
        self.extra_aggregates = aggregates
        self.rules: List[Rule] = []
        self.constraints: List[IntegrityConstraint] = []
        self.declarations: List[PredicateDecl] = []

    # -- token plumbing --------------------------------------------------------

    @property
    def current(self) -> Token:
        return self.tokens[self.pos]

    def peek(self, offset: int = 1) -> Token:
        index = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind is not TokenKind.EOF:
            self.pos += 1
        return token

    def error(self, message: str) -> ParseError:
        token = self.current
        return ParseError(f"{message} (found {token})", span=token.span)

    def span_from(self, start: Token) -> Span:
        """Span from ``start`` to the last consumed token (inclusive).

        Tokens do not overlap, so the span runs from ``start`` to the end
        of the later of the two tokens.
        """
        last = self.tokens[self.pos - 1] if self.pos > 0 else start
        if (last.line, last.column) < (start.line, start.column):
            last = start
        return Span(
            start.line,
            start.column,
            last.line,
            last.column + max(len(last.text), 1) - 1,
        )

    # A punctuation test compares text alone: no other kind of token has
    # the text of a punctuation mark.

    def expect_punct(self, text: str) -> Token:
        token = self.tokens[self.pos]
        if token.text != text:
            raise self.error(f"expected {text!r}")
        self.pos += 1
        return token

    def at_punct(self, *texts: str) -> bool:
        return self.tokens[self.pos].text in texts

    def expect_ident(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind is not TokenKind.IDENT:
            raise self.error("expected an identifier")
        self.pos += 1
        return token

    # -- grammar ----------------------------------------------------------------

    def parse_program(self) -> Program:
        rows = self.rows
        # With ``rows``: each predicate's arity at its first occurrence.
        seen: Dict[str, int] = {}
        while self.current.kind is not TokenKind.EOF:
            token = self.tokens[self.pos]
            if token.kind is _FACT:
                self.pos += 1
                if rows is not None:
                    rows.append(token.value)
                    seen.setdefault(token.value[0], len(token.value[1]))
                    continue
                # The fact rule, spanned as its tokens would span it.
                predicate, values = token.value
                line, column = token.line, token.column
                span = Span(line, column, line, column + token.text.rindex(")"))
                head = Atom(predicate, tuple(map(Constant, values)), span=span)
                self.rules.append(Rule(head=head, span=token.span))
            elif self.at_punct("@"):
                self.parse_declaration()
            elif self.at_punct("<-"):
                # A headless rule is an integrity constraint (Definition
                # 2.9's own notation; equivalent to "@constraint ...").
                start = self.advance()
                body = self.parse_subgoal_list()
                self.expect_punct(".")
                self.constraints.append(
                    IntegrityConstraint(tuple(body), span=self.span_from(start))
                )
            else:
                rule = self.parse_rule()
                if rows is not None:
                    for atom in rule.atoms():
                        seen.setdefault(atom.predicate, atom.arity)
                    if not rule.body and rule.head.is_ground():
                        values = tuple(arg.value for arg in rule.head.args)
                        rows.append((rule.head.predicate, values))
                        continue
                self.rules.append(rule)
        declarations = self.declarations
        if rows is not None:
            # Declare what the rows' fact rules would have inferred, in the
            # same order; the constraints' own are inferred after them.
            named = {decl.name for decl in declarations}
            declarations = declarations + [
                PredicateDecl(p, arity) for p, arity in seen.items() if p not in named
            ]
        from repro.aggregates.standard import default_registry

        aggregates = default_registry()
        if self.extra_aggregates:
            aggregates.update(self.extra_aggregates)
        return Program(
            rules=self.rules,
            declarations=declarations,
            constraints=self.constraints,
            aggregates=aggregates,
            name=self.name,
            validate=self.validate,
        )

    def parse_declaration(self) -> None:
        at_token = self.current
        self.expect_punct("@")
        keyword = self.expect_ident().text
        if keyword in ("cost", "default"):
            predicate = self.expect_ident().text
            self.expect_punct("/")
            arity_token = self.advance()
            if arity_token.kind is not TokenKind.NUMBER or not isinstance(
                arity_token.value, int
            ):
                raise self.error("expected an integer arity")
            self.expect_punct(":")
            lattice_name = self.expect_ident().text
            lattice = self.lattices.get(lattice_name)
            if lattice is None:
                raise self.error(f"unknown lattice {lattice_name!r}")
            has_default = keyword == "default"
            if self.current.kind is TokenKind.IDENT and self.current.text == "default":
                self.advance()
                has_default = True
            self.expect_punct(".")
            self.declarations.append(
                PredicateDecl(
                    predicate,
                    arity_token.value,
                    lattice,
                    has_default,
                    span=self.span_from(at_token),
                )
            )
        elif keyword == "pred":
            predicate = self.expect_ident().text
            self.expect_punct("/")
            arity_token = self.advance()
            if arity_token.kind is not TokenKind.NUMBER or not isinstance(
                arity_token.value, int
            ):
                raise self.error("expected an integer arity")
            self.expect_punct(".")
            self.declarations.append(
                PredicateDecl(
                    predicate, arity_token.value, span=self.span_from(at_token)
                )
            )
        elif keyword == "constraint":
            start = self.current
            body = self.parse_subgoal_list()
            self.expect_punct(".")
            self.constraints.append(
                IntegrityConstraint(tuple(body), span=self.span_from(start))
            )
        else:
            raise self.error(f"unknown declaration @{keyword}")

    def parse_rule(self) -> Rule:
        start = self.tokens[self.pos]
        head = self.parse_atom()
        if self.tokens[self.pos].text == ".":
            self.pos += 1
            return Rule(head=head, span=self.span_from(start))
        self.expect_punct("<-")
        body = self.parse_subgoal_list()
        self.expect_punct(".")
        return Rule(head=head, body=tuple(body), span=self.span_from(start))

    def parse_subgoal_list(self) -> List[Subgoal]:
        tokens = self.tokens
        subgoals = [self.parse_subgoal()]
        while tokens[self.pos].text == ",":
            self.pos += 1
            subgoals.append(self.parse_subgoal())
        return subgoals

    def parse_subgoal(self) -> Subgoal:
        token = self.tokens[self.pos]
        if token.kind is TokenKind.IDENT:
            if token.text == "not":
                self.pos += 1
                atom = self.parse_atom()
                return AtomSubgoal(atom, negated=True, span=self.span_from(token))
            # An identifier followed by "(" is always an atom (built-ins
            # operate on terms, so "f(X) + 1 = Y" is not a built-in); one
            # followed by no operator is a zero-arity atom such as "halt".
            if self.peek().text == "(" or not self.at_after_ident_comparison():
                atom = self.parse_atom()
                return AtomSubgoal(atom, span=atom.span)
        return self.parse_builtin_or_aggregate()

    def at_after_ident_comparison(self) -> bool:
        """True if the identifier at the cursor begins a built-in subgoal
        (e.g. a symbolic constant compared with '=')."""
        nxt = self.peek()
        return nxt.kind is TokenKind.PUNCT and nxt.text in (
            COMPARISON_OPS + ("=r", "+", "-", "*", "/")
        )

    def parse_builtin_or_aggregate(self) -> Subgoal:
        start = self.current
        lhs = self.parse_expr()
        token = self.current
        if token.kind is not TokenKind.PUNCT or token.text not in (
            COMPARISON_OPS + ("=r",)
        ):
            raise self.error("expected a comparison operator")
        op = self.advance().text
        # Aggregate subgoal: "<term> =|=r  fname { ... }".
        if (
            op in ("=", "=r")
            and self.current.kind is TokenKind.IDENT
            and self.peek().text == "{"
        ):
            if not isinstance(lhs, (Variable, Constant)):
                raise self.error(
                    "the left side of an aggregate subgoal must be a variable "
                    "or constant"
                )
            return self.parse_aggregate(lhs, restricted=(op == "=r"), start=start)
        if op == "=r":
            raise self.error("'=r' may only introduce an aggregate subgoal")
        rhs = self.parse_expr()
        return BuiltinSubgoal(op, lhs, rhs, span=self.span_from(start))

    def parse_aggregate(
        self, result: Term, restricted: bool, start: Optional[Token] = None
    ) -> AggregateSubgoal:
        start = start or self.current
        function = self.expect_ident().text
        self.expect_punct("{")
        multiset_var: Optional[Variable] = None
        if self.current.kind is TokenKind.VARIABLE and self.peek().text == ":":
            multiset_var = Variable(self.advance().text)
            self.expect_punct(":")
        conjuncts = [self.parse_atom()]
        while self.at_punct(","):
            self.advance()
            conjuncts.append(self.parse_atom())
        self.expect_punct("}")
        try:
            return AggregateSubgoal(
                result=result,
                function=function,
                multiset_var=multiset_var,
                conjuncts=tuple(conjuncts),
                restricted=restricted,
                span=self.span_from(start),
            )
        except ValueError as exc:
            raise self.error(str(exc)) from exc

    def parse_atom(self) -> Atom:
        tokens = self.tokens
        start = self.expect_ident()
        if tokens[self.pos].text != "(":
            return Atom(start.text, (), span=self.span_from(start))
        self.pos += 1
        args: List[Term] = []
        if tokens[self.pos].text != ")":
            args.append(self.parse_term())
            while tokens[self.pos].text == ",":
                self.pos += 1
                args.append(self.parse_term())
        self.expect_punct(")")
        return Atom(start.text, tuple(args), span=self.span_from(start))

    def parse_term(self) -> Term:
        token = self.tokens[self.pos]
        kind = token.kind
        if kind is TokenKind.VARIABLE:
            self.pos += 1
            return Variable(token.text)
        if kind is TokenKind.IDENT or kind is TokenKind.NUMBER or kind is TokenKind.STRING:
            self.pos += 1
            return Constant(token.value)
        if token.text == "-" and self.peek().kind is TokenKind.NUMBER:
            self.pos += 2
            return Constant(-self.tokens[self.pos - 1].value)
        raise self.error("expected a term")

    # Expressions: standard precedence, terms at the leaves.

    def parse_expr(self) -> Expr:
        expr = self.parse_mul()
        while self.at_punct("+", "-"):
            op = self.advance().text
            right = self.parse_mul()
            expr = ArithExpr(op, expr, right)
        return expr

    def parse_mul(self) -> Expr:
        expr = self.parse_primary()
        while self.at_punct("*", "/"):
            op = self.advance().text
            right = self.parse_primary()
            expr = ArithExpr(op, expr, right)
        return expr

    def parse_primary(self) -> Expr:
        if self.at_punct("("):
            self.advance()
            expr = self.parse_expr()
            self.expect_punct(")")
            return expr
        return self.parse_term()


def parse_program(
    source: str,
    *,
    lattices: Optional[Dict[str, Lattice]] = None,
    aggregates: Optional[Dict[str, AggregateFunction]] = None,
    name: str = "program",
    validate: bool = True,
    rows: Optional[List[Tuple[str, tuple]]] = None,
) -> Program:
    """Parse rule text into a :class:`Program`.

    ``lattices`` and ``aggregates`` extend (and may override) the built-in
    registries for custom cost domains and aggregate functions.
    ``validate=False`` skips the structural validation pass (the linter
    uses this to report arity/aggregate problems as diagnostics instead of
    letting construction raise on the first one).  Given ``rows``, every
    ground fact goes there as ``(predicate, values)``, in source order,
    instead of into the program, whose declarations still cover it; the
    arity of a row is not checked.
    """
    return Parser(
        source, lattices=lattices, aggregates=aggregates, name=name,
        validate=validate, facts=True, rows=rows,
    ).parse_program()


def parse_rule(source: str) -> Rule:
    """Parse a single rule (handy in tests and docs)."""
    parser = Parser(source)
    rule = parser.parse_rule()
    if parser.current.kind is not TokenKind.EOF:
        raise parser.error("trailing input after rule")
    return rule


def parse_atom_text(source: str) -> Atom:
    """Parse a single atom such as ``arc(a, b, 3)``."""
    parser = Parser(source)
    atom = parser.parse_atom()
    if parser.current.kind is not TokenKind.EOF:
        raise parser.error("trailing input after atom")
    return atom
