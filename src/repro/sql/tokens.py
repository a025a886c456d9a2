"""Token definitions for the SQL lexer.

Keywords are kept in a single frozen set; the lexer classifies identifiers
against it case-insensitively, and the parser matches on the upper-cased
keyword text.  Non-reserved words (function names, most keywords) may still be
used as identifiers; the parser decides that contextually, so the lexer only
distinguishes KEYWORD from IDENT for words in :data:`KEYWORDS`.
"""

from __future__ import annotations

import enum
from typing import Any


class TokenType(enum.Enum):
    KEYWORD = "KEYWORD"
    IDENT = "IDENT"
    NUMBER = "NUMBER"
    STRING = "STRING"
    OPERATOR = "OPERATOR"
    EOF = "EOF"


class Token:
    """A single lexical token with its source position (1-based).

    A plain ``__slots__`` class: the lexer makes one per lexeme, so it is
    kept cheap to construct.
    """

    __slots__ = ("type", "text", "value", "line", "column")

    def __init__(self, type: TokenType, text: str, value: Any, line: int, column: int):
        self.type = type
        self.text = text
        self.value = value
        self.line = line
        self.column = column

    def is_keyword(self, *words: str) -> bool:
        return self.type is TokenType.KEYWORD and self.text in words

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Token({self.type.name}, {self.text!r}, {self.line}:{self.column})"


#: Reserved and semi-reserved words recognized by the lexer.  The measure
#: extensions add AGGREGATE, AT, CURRENT, MEASURE and VISIBLE to the standard
#: vocabulary.
KEYWORDS = frozenset(
    """
    ALL AND ANY AS ASC AT BETWEEN BOOLEAN BY CASE CAST CREATE CROSS CUBE
    CURRENT DATE DELETE DESC DISTINCT DROP ELSE END ESCAPE EXCEPT EXISTS
    EXTRACT FALSE FILTER FIRST FOLLOWING FROM FULL GROUP GROUPING HAVING IF
    IN INNER INSERT INTERSECT INTO IS JOIN LAST LEFT LIKE LIMIT MATERIALIZED
    MEASURE NATURAL
    NOT NULL NULLS OFFSET ON OR ORDER OUTER OVER PARTITION PRECEDING RANGE
    REFRESH REPLACE RIGHT ROLLUP ROW ROWS SELECT SET SETS TABLE THEN TRUE
    UNBOUNDED
    UNION UNKNOWN UPDATE USING VALUES VIEW VISIBLE WHEN WHERE WINDOW WITH
    WITHIN AGGREGATE EVAL INTERVAL QUALIFY PIVOT UNPIVOT FOR
    """.split()
)

#: Multi-character operators, longest first so the lexer can greedily match.
OPERATORS = (
    "<>",
    "!=",
    "<=",
    ">=",
    "||",
    "->",
    "(",
    ")",
    ",",
    ".",
    ";",
    "+",
    "-",
    "*",
    "/",
    "%",
    "<",
    ">",
    "=",
    "?",
)
