"""SQL tokenizer: one compiled master regex.

Supports:

* line comments (``--``) and block comments (``/* ... */``),
* single-quoted string literals with ``''`` escaping,
* double-quoted identifiers with ``""`` escaping, and backquoted identifiers,
* integer and decimal numeric literals (with exponents),
* the operator set in :data:`repro.sql.tokens.OPERATORS`.

Every alternative of :data:`_TOKEN` is one lexeme kind; the scan is one
``finditer`` over the text, and a token's line and column come from the
newlines counted in the lexemes before it.  A doubled quote inside a string
or quoted identifier is always an escape (a closing quote is never followed
by another), as in a left-to-right scan.  The last alternative matches any
one character, so the scan never skips input: an unterminated ``/*``, ``'``
or ``"`` lands there and is reported at its opening position.
"""

from __future__ import annotations

import re

from repro.errors import LexerError
from repro.sql.tokens import KEYWORDS, OPERATORS, Token, TokenType

__all__ = ["tokenize", "is_bare_identifier"]

#: A bare (unquoted) word: an identifier, or a keyword when its upper-cased
#: text is in :data:`KEYWORDS`.
_WORD = "[A-Za-z_][A-Za-z0-9_$]*"

_TOKEN = re.compile(
    rf"""
      (?P<trivia>(?:[ \t\r\n]+|--[^\n]*|/\*.*?\*/)+)
    | (?P<word>{_WORD})
    | (?P<float>[0-9]+(?:\.[0-9]+(?:[eE][+-]?[0-9]+)?|[eE][+-]?[0-9]+))
    | (?P<integer>[0-9]+)
    | '(?P<string>[^']*(?:''[^']*)*)'(?!')
    | "(?P<quoted>[^"]*(?:""[^"]*)*)"(?!")
    | `(?P<backquoted>[^`]*)`
    | (?P<operator>{"|".join(re.escape(op) for op in OPERATORS if op != "/")}|/(?!\*))
    | (?P<error>.)
    """,
    re.VERBOSE | re.DOTALL,
)

_BARE = re.compile(_WORD)

_UNTERMINATED = {
    "'": "unterminated string literal",
    '"': "unterminated quoted identifier",
    "`": "unterminated quoted identifier",
    "/": "unterminated block comment",  # a "/" the operator refused opens "/*"
}

_KEYWORD = TokenType.KEYWORD
_IDENT = TokenType.IDENT


def is_bare_identifier(name: str) -> bool:
    """Does ``name`` lex back as itself, unquoted, as an identifier?"""
    return _BARE.fullmatch(name) is not None and name.upper() not in KEYWORDS


def tokenize(text: str) -> list[Token]:
    """Tokenize ``text`` into a list ending with a single EOF token."""
    tokens: list[Token] = []
    append = tokens.append
    line = 1
    line_start = 0  # index of the first character of the current line
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        start = match.start()
        if kind == "word":
            word = match.group()
            upper = word.upper()
            if upper in KEYWORDS:
                append(Token(_KEYWORD, upper, word, line, start - line_start + 1))
            else:
                append(Token(_IDENT, word, word, line, start - line_start + 1))
            continue
        if kind == "operator":
            op = match.group()
            append(Token(TokenType.OPERATOR, op, op, line, start - line_start + 1))
            continue
        if kind == "integer" or kind == "float":
            number = match.group()
            value = int(number) if kind == "integer" else float(number)
            append(Token(TokenType.NUMBER, number, value, line, start - line_start + 1))
            continue
        if kind == "error":
            ch = match.group()
            message = _UNTERMINATED.get(ch) or f"unexpected character {ch!r}"
            raise LexerError(message, line, start - line_start + 1)
        if kind == "string":
            value = match.group(kind).replace("''", "'")
            append(Token(TokenType.STRING, value, value, line, start - line_start + 1))
        elif kind != "trivia":
            value = match.group(kind)
            if kind == "quoted":
                value = value.replace('""', '"')
            append(Token(_IDENT, value, value, line, start - line_start + 1))
        end = match.end()
        newlines = text.count("\n", start, end)
        if newlines:
            line += newlines
            line_start = text.rindex("\n", start, end) + 1
    append(Token(TokenType.EOF, "", None, line, len(text) - line_start + 1))
    return tokens
