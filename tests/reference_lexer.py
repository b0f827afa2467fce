"""The char-by-char tokenizer, kept as the reference for the regex lexer.

:func:`repro.datalog.parser.tokenize` is one compiled master pattern;
this is the loop it replaced, one character at a time, unchanged except
that it yields plain ``(kind, text, value, line, column)`` tuples.
``tests/test_parser.py`` drives both over adversarial text and requires
the same token stream or the same :class:`ParseError`.  The one known
difference: on a digit that :meth:`str.isdigit` accepts and :func:`int`
does not (``²``), this loop raises a bare ``ValueError`` where the lexer
raises ``unexpected character``.  Not a test module, and imported by
nothing under ``src/``.
"""

from __future__ import annotations

from typing import Any, List, Tuple

from repro.datalog.errors import ParseError
from repro.datalog.parser import TokenKind

RefToken = Tuple[TokenKind, str, Any, int, int]

_PUNCT_TWO = ("<-", "<=", ">=", "!=")
_PUNCT_ONE = "(){},:.=<>+-*/@"


def tokenize(source: str) -> List[RefToken]:
    """Split rule text into tokens, tracking line/column for diagnostics."""
    tokens: List[RefToken] = []
    line, column = 1, 1
    i, n = 0, len(source)

    def error(message: str) -> ParseError:
        return ParseError(message, line, column)

    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            column = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            column += 1
            continue
        if ch == "%":
            while i < n and source[i] != "\n":
                i += 1
            continue
        start_line, start_column = line, column
        if ch == '"':
            j = i + 1
            chars: List[str] = []
            while j < n and source[j] != '"':
                if source[j] == "\n":
                    raise error("unterminated string literal")
                if source[j] == "\\" and j + 1 < n:
                    chars.append(source[j + 1])
                    j += 2
                else:
                    chars.append(source[j])
                    j += 1
            if j >= n:
                raise error("unterminated string literal")
            text = source[i : j + 1]
            tokens.append(
                (TokenKind.STRING, text, "".join(chars), start_line, start_column)
            )
            column += j + 1 - i
            i = j + 1
            continue
        if ch.isdigit() or (
            ch == "." and i + 1 < n and source[i + 1].isdigit()
        ):
            j = i
            seen_dot = False
            while j < n and (source[j].isdigit() or (source[j] == "." and not seen_dot)):
                if source[j] == ".":
                    # A trailing "." is the statement terminator, not a
                    # decimal point: require a digit after it.
                    if j + 1 >= n or not source[j + 1].isdigit():
                        break
                    seen_dot = True
                j += 1
            text = source[i:j]
            value: Any = float(text) if seen_dot else int(text)
            tokens.append((TokenKind.NUMBER, text, value, start_line, start_column))
            column += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            text = source[i:j]
            if text == "inf":
                tokens.append(
                    (TokenKind.NUMBER, text, float("inf"), start_line, start_column)
                )
            elif text[0].isupper() or text[0] == "_":
                tokens.append((TokenKind.VARIABLE, text, text, start_line, start_column))
            else:
                tokens.append((TokenKind.IDENT, text, text, start_line, start_column))
            column += j - i
            i = j
            continue
        two = source[i : i + 2]
        if two == "=r":
            # "=r" is the restricted-aggregation equality; only lex it when
            # the "r" is not the start of a longer identifier (e.g. "=rate").
            after = source[i + 2] if i + 2 < n else ""
            if not (after.isalnum() or after == "_"):
                tokens.append((TokenKind.PUNCT, "=r", "=r", start_line, start_column))
                i += 2
                column += 2
                continue
        if two in _PUNCT_TWO:
            tokens.append((TokenKind.PUNCT, two, two, start_line, start_column))
            i += 2
            column += 2
            continue
        if ch in _PUNCT_ONE:
            tokens.append((TokenKind.PUNCT, ch, ch, start_line, start_column))
            i += 1
            column += 1
            continue
        raise error(f"unexpected character {ch!r}")
    tokens.append((TokenKind.EOF, "", None, line, column))
    return tokens
