"""Tokenizer unit tests."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LexerError
from repro.sql.lexer import tokenize
from repro.sql.tokens import KEYWORDS, OPERATORS, TokenType


def kinds(sql: str) -> list[str]:
    return [t.type.name for t in tokenize(sql)[:-1]]


def texts(sql: str) -> list[str]:
    return [t.text for t in tokenize(sql)[:-1]]


def test_empty_input_yields_only_eof():
    tokens = tokenize("")
    assert len(tokens) == 1
    assert tokens[0].type is TokenType.EOF


def test_keywords_are_case_insensitive():
    assert texts("select SELECT SeLeCt") == ["SELECT", "SELECT", "SELECT"]


def test_identifiers_preserve_case():
    tokens = tokenize("prodName CustAge")
    assert tokens[0].value == "prodName"
    assert tokens[1].value == "CustAge"


def test_integer_literal():
    token = tokenize("42")[0]
    assert token.type is TokenType.NUMBER
    assert token.value == 42
    assert isinstance(token.value, int)


def test_decimal_literal():
    token = tokenize("3.25")[0]
    assert token.value == 3.25
    assert isinstance(token.value, float)


def test_exponent_literal():
    assert tokenize("1e3")[0].value == 1000.0
    assert tokenize("2.5E-2")[0].value == 0.025
    assert tokenize("7e+1")[0].value == 70.0


def test_number_followed_by_dot_method_is_not_float():
    # "1." without digits stays an integer followed by an operator.
    tokens = tokenize("1.x")
    assert tokens[0].value == 1
    assert tokens[1].text == "."


def test_string_literal():
    token = tokenize("'hello'")[0]
    assert token.type is TokenType.STRING
    assert token.value == "hello"


def test_string_with_escaped_quote():
    assert tokenize("'it''s'")[0].value == "it's"


def test_empty_string_literal():
    assert tokenize("''")[0].value == ""


def test_unterminated_string_raises():
    with pytest.raises(LexerError):
        tokenize("'oops")


def test_double_quoted_identifier():
    token = tokenize('"Weird Name"')[0]
    assert token.type is TokenType.IDENT
    assert token.value == "Weird Name"


def test_backquoted_identifier():
    assert tokenize("`from`")[0].value == "from"


def test_unterminated_quoted_identifier_raises():
    with pytest.raises(LexerError):
        tokenize('"oops')


def test_line_comment_is_skipped():
    assert texts("SELECT -- comment here\n1") == ["SELECT", "1"]


def test_block_comment_is_skipped():
    assert texts("SELECT /* multi\nline */ 1") == ["SELECT", "1"]


def test_unterminated_block_comment_raises():
    with pytest.raises(LexerError):
        tokenize("SELECT /* oops")


@pytest.mark.parametrize(
    "sql, message",
    [
        ("SELECT 1,\n  'it''s\n", "unterminated string literal"),
        ('SELECT 1,\n  "a""b\n', "unterminated quoted identifier"),
        ("SELECT 1,\n  `ab\n", "unterminated quoted identifier"),
        ("SELECT 1,\n  /* a * / b\n", "unterminated block comment"),
        ("SELECT 1,\n  /*/", "unterminated block comment"),
    ],
)
def test_unterminated_lexeme_raises_at_its_opening(sql, message):
    """Never an operator, never a later position: the opening character."""
    with pytest.raises(LexerError) as exc:
        tokenize(sql)
    assert str(exc.value) == f"{message} at line 2, column 3"


def test_doubled_quote_inside_quoted_identifier():
    token = tokenize('"a""b"')[0]
    assert (token.type, token.value) == (TokenType.IDENT, 'a"b')
    assert [t.value for t in tokenize('"" x')[:-1]] == ["", "x"]


def test_multichar_operators_lex_greedily():
    assert texts("<> <= >= != || ->") == ["<>", "<=", ">=", "!=", "||", "->"]


def test_single_char_operators():
    assert texts("( ) , . ; + - * / % < > =") == list("(),.;+-*/%<>=")


def test_unexpected_character_raises_with_position():
    with pytest.raises(LexerError) as exc:
        tokenize("SELECT @")
    assert exc.value.line == 1
    assert exc.value.column == 8


def test_line_and_column_tracking():
    tokens = tokenize("SELECT\n  x")
    assert (tokens[0].line, tokens[0].column) == (1, 1)
    assert (tokens[1].line, tokens[1].column) == (2, 3)


def test_measure_keywords_recognized():
    assert kinds("MEASURE AGGREGATE AT VISIBLE CURRENT") == ["KEYWORD"] * 5


def test_is_keyword_helper():
    token = tokenize("SELECT")[0]
    assert token.is_keyword("SELECT")
    assert token.is_keyword("SELECT", "FROM")
    assert not token.is_keyword("FROM")


def test_identifier_with_underscore_and_dollar():
    assert tokenize("_foo$bar")[0].value == "_foo$bar"


def test_adjacent_tokens_without_spaces():
    assert texts("a+b*(c)") == ["a", "+", "b", "*", "(", "c", ")"]


def test_eof_sits_after_trailing_trivia():
    eof = tokenize("SELECT 1 -- done\n  /* x\ny */ ")[-1]
    assert (eof.type, eof.line, eof.column) == (TokenType.EOF, 3, 6)


# -- property: trivia never changes the tokens, positions point at lexemes ----

_CHARS = "abc XYZ_09$\n\t;,()*-/'\"`é"

_LEXEMES = st.one_of(
    st.sampled_from(sorted(KEYWORDS)).flatmap(
        lambda word: st.sampled_from([word, word.lower(), word.title()])
    ),
    st.from_regex(r"[A-Za-z_][A-Za-z0-9_$]{0,6}", fullmatch=True),
    st.from_regex(r"[0-9]{1,4}(\.[0-9]{1,3})?([eE][+-]?[0-9]{1,2})?", fullmatch=True),
    st.text(_CHARS, max_size=6).map(lambda s: "'" + s.replace("'", "''") + "'"),
    st.text(_CHARS, max_size=6).map(lambda s: '"' + s.replace('"', '""') + '"'),
    st.text(_CHARS.replace("`", ""), max_size=6).map(lambda s: "`" + s + "`"),
    st.sampled_from(OPERATORS),
)

_TRIVIA = st.one_of(
    st.sampled_from([" ", "  ", "\t", "\r\n", "\n"]),
    st.text("ab -*/'\"\t", max_size=8).map(lambda s: "--" + s + "\n"),
    st.text("ab -/'\"\n\t", max_size=8).map(lambda s: "/*" + s + "*/"),
)

# A whitespace character first, so no trivia merges with the token before
# it (``-`` then ``--`` would read as one comment).
_SEPARATOR = st.tuples(
    st.sampled_from([" ", "\t", "\n", "\r\n"]), st.lists(_TRIVIA, max_size=3)
).map(lambda parts: parts[0] + "".join(parts[1]))


def _triples(sql: str) -> list[tuple]:
    return [(t.type, t.text, t.value) for t in tokenize(sql)[:-1]]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.tuples(_SEPARATOR, _LEXEMES), min_size=1, max_size=12), _SEPARATOR)
def test_trivia_changes_nothing_and_positions_point_at_lexemes(pairs, tail):
    lexemes = [lexeme for _, lexeme in pairs]
    source = "".join(separator + lexeme for separator, lexeme in pairs) + tail
    tokens = tokenize(source)[:-1]
    assert _triples(source) == _triples(" ".join(lexemes))
    line_starts = [0] + [i + 1 for i, ch in enumerate(source) if ch == "\n"]
    for token, lexeme in zip(tokens, lexemes, strict=True):
        offset = line_starts[token.line - 1] + token.column - 1
        assert source.startswith(lexeme, offset), (token, lexeme)
