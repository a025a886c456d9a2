"""Statement fingerprints and plan hashes.

A **fingerprint** identifies a statement up to its constants: literals are
replaced by ``?`` placeholders and IN-lists collapse to a single ``?``, so
``WHERE x = 1`` and ``WHERE x = 2`` — or ``IN (1, 2)`` and ``IN (1, 2, 3)``
— aggregate under one ``repro_stat_statements`` row, pg_stat_statements
style.  Normalization is one pass of the canonical printer with those two
renderings overridden, so two spellings of the same statement (whitespace,
comments, redundant parens the parser drops) share a fingerprint too.

A **plan hash** identifies *how* a statement ran: the chosen execution
strategy (``summary`` vs ``interpreter``) plus the bound plan's operator
tree shape.  The flip detector compares consecutive plan hashes per
fingerprint; a change is the "why did this query get slow" primitive.
"""

from __future__ import annotations

import hashlib
from typing import Optional

from repro.plan import logical as plans
from repro.sql import ast
from repro.sql.printer import _Printer

__all__ = [
    "fingerprint_statement",
    "normalize_statement",
    "plan_shape",
    "plan_hash",
    "is_introspection_plan",
]

#: Hex digest prefix lengths.  Short enough to read in a result grid, long
#: enough that collisions are out of reach for any real workload.
_FINGERPRINT_LEN = 16
_PLAN_HASH_LEN = 12


class _Normalizer(_Printer):
    """The canonical printer with every literal printed as ``?`` and every
    IN list of other than one item as ``IN (?)``, so the list's length is
    irrelevant; a one-item list keeps its (normalized) item."""

    def _render_Literal(self, node: ast.Literal) -> str:
        return "?"

    def _in_items(self, items: list) -> str:
        return super()._in_items(items) if len(items) == 1 else "?"


def normalize_statement(statement: ast.Node) -> str:
    """The canonical, literal-free SQL text of ``statement``."""
    return _Normalizer().render(statement)


def fingerprint_statement(statement: ast.Node) -> tuple[str, str]:
    """``(fingerprint, normalized_sql)`` for a parsed statement.

    The fingerprint is a sha256 prefix of the normalized text; identical
    statements modulo constants hash identically.
    """
    text = normalize_statement(statement)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return digest[:_FINGERPRINT_LEN], text


def plan_shape(plan: plans.LogicalPlan) -> str:
    """A nested-label rendering of the plan's operator tree.

    Labels carry the discriminating detail (``Scan(Orders)`` vs
    ``Scan(prod_rev)``), so a summary rewrite or a join-order change
    yields a different shape string.
    """
    children = ", ".join(plan_shape(child) for child in plan.inputs())
    label = plan.label()
    return f"{label}[{children}]" if children else label


def plan_hash(strategy: str, shape: str) -> str:
    """Hash of (execution strategy, operator tree shape)."""
    digest = hashlib.sha256(f"{strategy}|{shape}".encode("utf-8")).hexdigest()
    return digest[:_PLAN_HASH_LEN]


def is_introspection_plan(plan: Optional[plans.LogicalPlan]) -> bool:
    """True when the plan scans at least one system table and no base table.

    Such queries are the database observing itself; they count in
    ``introspection_queries_total`` instead of ``queries_total``,
    mirroring the internal-maintenance exclusion.
    """
    if plan is None:
        return False
    saw_system = False
    for node in plan.walk():
        if isinstance(node, plans.SystemScan):
            saw_system = True
        elif isinstance(node, plans.Scan):
            return False
    return saw_system
