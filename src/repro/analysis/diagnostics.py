"""Diagnostic objects and the RPxxx code registry.

Every static-analysis finding is a :class:`Diagnostic` carrying a stable
``RPxxx`` code, a :class:`~repro.sql.ast.Span` locating the offending
construct in the original SQL text, a human message, and (usually) a hint
suggesting the fix.  Codes are stable across releases so tests and editor
integrations can match on them; new rules take new codes rather than reusing
retired ones.

Severity ordering is ``error > warning > info``.  Errors mean the statement
will not bind or will not do what it says; warnings flag constructs that run
but are probably mistakes; info diagnostics are advisory (e.g. the
summary-matchability advisor explaining why a materialized summary cannot
answer a query).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.sql.ast import Span

__all__ = ["BIND_CODES", "Diagnostic", "Severity", "RULES", "rule_severity"]


class Severity(enum.IntEnum):
    """Diagnostic severity; higher values sort first in reports."""

    INFO = 1
    WARNING = 2
    ERROR = 3

    def __str__(self) -> str:  # "error", not "Severity.ERROR"
        return self.name.lower()


#: code -> (severity, one-line rule summary, hint or None).  The catalogue of
#: every rule the linter can emit; ``docs/STATIC_ANALYSIS.md`` documents each
#: with examples.  The hint goes with the rules the binder reports (a bind
#: error carries only its message); every other rule words its own.
RULES: dict[str, tuple[Severity, str, Optional[str]]] = {
    "RP001": (Severity.ERROR, "statement does not lex or parse", None),
    "RP002": (Severity.ERROR, "statement does not bind (semantic error)", None),
    "RP101": (
        Severity.WARNING,
        "measure referenced at row grain outside AGGREGATE/AT",
        None,
    ),
    "RP102": (
        Severity.ERROR,
        "AT applied to a non-measure expression",
        "only measure columns carry an evaluation context to transform",
    ),
    "RP103": (
        Severity.ERROR,
        "AT modifier names a column that is not a dimension of the "
        "measure's source",
        "AT dimensions must be expressions over the measure table's "
        "dimension columns",
    ),
    "RP104": (Severity.WARNING, "duplicate or shadowed alias", None),
    "RP105": (Severity.WARNING, "CTE is defined but never referenced", None),
    "RP106": (
        Severity.ERROR,
        "aggregate function call in WHERE, ON or GROUP BY",
        "filter groups with HAVING, or rows with a plain predicate",
    ),
    "RP107": (
        Severity.ERROR,
        "unqualified column name is ambiguous",
        "qualify the column with its table alias",
    ),
    "RP108": (Severity.WARNING, "LIMIT without a deterministic ORDER BY", None),
    "RP109": (Severity.WARNING, "SELECT * in a view or summary definition", None),
    "RP110": (
        Severity.INFO,
        "grouped query cannot be answered from a materialized summary",
        None,
    ),
    "RP111": (
        Severity.ERROR,
        "EXPLAIN [ANALYZE] applied to a DDL/DML statement",
        None,
    ),
    "RP112": (
        Severity.ERROR,
        "SHOW STATS nested inside a view, subquery, or EXPLAIN",
        "query the metrics from application code via Database.metrics() "
        "instead",
    ),
    "RP113": (
        Severity.ERROR,
        "materialized view defined over a repro_* system table",
        None,
    ),
    "RP114": (Severity.ERROR, "comparison between incompatible types", None),
    "RP115": (Severity.WARNING, "predicate is always NULL or always false", None),
    "RP116": (Severity.ERROR, "CAST of a constant that can never succeed", None),
    "RP117": (
        Severity.ERROR,
        "AT SET value type is incompatible with the dimension column",
        None,
    ),
    "RP118": (
        Severity.WARNING,
        "grouping key may be NULL from outer-join padding",
        None,
    ),
}

#: The codes a :class:`~repro.errors.BindError` can carry (``rule``, or RP002
#: when it has none): a statement that does not bind gets exactly one
#: diagnostic, under one of these.
BIND_CODES = frozenset({"RP002", "RP102", "RP103", "RP106", "RP107", "RP112"})


def rule_severity(code: str) -> Severity:
    return RULES[code][0]


@dataclass(frozen=True)
class Diagnostic:
    """One static-analysis finding.

    ``span`` is ``None`` only when the problem has no source position at all
    (e.g. a lexer error at end of input); rules over parsed SQL always carry
    the span of the offending node.
    """

    code: str
    severity: Severity
    message: str
    span: Optional[Span] = None
    hint: Optional[str] = None

    @property
    def line(self) -> int:
        return self.span.line if self.span else 0

    @property
    def column(self) -> int:
        return self.span.column if self.span else 0

    def render(self) -> str:
        """``error RP106 at line 3, column 7: ... (hint: ...)``"""
        where = f" at {self.span}" if self.span else ""
        hint = f" (hint: {self.hint})" if self.hint else ""
        return f"{self.severity} {self.code}{where}: {self.message}{hint}"

    def __str__(self) -> str:
        return self.render()


def sort_key(diag: Diagnostic) -> tuple:
    """Severity-major, then source order."""
    return (-int(diag.severity), diag.line, diag.column, diag.code)


def sorted_diagnostics(diags: list[Diagnostic]) -> list[Diagnostic]:
    return sorted(diags, key=sort_key)
