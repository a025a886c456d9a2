"""The WinMagic rewrite: correlated subqueries to window aggregates.

Paper section 5.1 builds on Zuzarte et al. (SIGMOD 2003), whose WinMagic
algorithm rewrites Listing 12's query 1 (correlated subquery) into query 3
(window aggregate), eliminating the second scan of the input.  This module
implements that classic rewrite for the shape the paper discusses::

    SELECT ... FROM T AS o
    WHERE o.x <op> (SELECT AGG(expr) FROM T AS i WHERE i.k = o.k [AND ...])

becomes::

    SELECT ... FROM
      (SELECT *, AGG(expr) OVER (PARTITION BY k) AS __win FROM T) AS o
    WHERE o.x <op> o.__win

Applicability conditions (checked, with :class:`UnsupportedError` raised
otherwise):

* the subquery scans the same table as the outer query, with no further
  nesting, grouping, or set operations;
* every subquery WHERE conjunct is either an equality correlation
  ``i.col = o.col`` on the *same* column (it becomes PARTITION BY) or a
  purely local predicate matching an outer WHERE conjunct verbatim (both
  sides see the same rows, so it moves into the derived table);
* the aggregate is a plain single-argument aggregate (no DISTINCT needed
  by the classic algorithm, though DISTINCT is carried through).

Completing the strategy triangle of section 5.1: measures rewrite to both
correlated subqueries (:mod:`repro.core.expansion`) and window aggregates
(:mod:`repro.core.strategies`), and WinMagic connects the remaining pair.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, TYPE_CHECKING

from repro.engine.aggregates import is_aggregate_function
from repro.errors import UnsupportedError
from repro.sql import ast
from repro.sql.visitor import split_and, transform_topdown

if TYPE_CHECKING:  # pragma: no cover
    from repro.api import Database

__all__ = ["winmagic_rewrite"]


def winmagic_rewrite(db: "Database", query: ast.Query) -> ast.Query:
    """Rewrite eligible correlated subqueries in ``query`` to window
    aggregates.  Raises UnsupportedError when nothing is eligible; each
    outcome is counted on ``winmagic_total`` when telemetry is on.
    """
    telemetry = getattr(db, "telemetry", None)
    try:
        result = _winmagic_rewrite_impl(db, query)
    except UnsupportedError:
        if telemetry is not None:
            telemetry.record_winmagic("unsupported")
        raise
    if telemetry is not None:
        telemetry.record_winmagic("rewritten")
    return result


def _winmagic_rewrite_impl(db: "Database", query: ast.Query) -> ast.Query:
    if not isinstance(query, ast.Select):
        raise UnsupportedError("WinMagic requires a plain SELECT")
    if not isinstance(query.from_clause, ast.TableName):
        raise UnsupportedError("WinMagic requires a single-table FROM clause")
    if query.group_by or query.having is not None:
        raise UnsupportedError("WinMagic applies to non-aggregate queries")

    table = query.from_clause
    outer_alias = table.alias or table.name
    rewriter = _Rewriter(db, table.name, outer_alias, split_and(query.where))
    where = None if query.where is None else rewriter.rewrite(query.where)
    items = [
        item
        if isinstance(item.expr, ast.Star)
        else ast.SelectItem(rewriter.rewrite(item.expr), item.alias)
        for item in query.items
    ]
    if not rewriter.windows:
        raise UnsupportedError("no eligible correlated subquery found")

    # Build the derived table: every base column plus the window columns.
    base = db.catalog.base_table(table.name)
    inner_items = [
        ast.SelectItem(ast.ColumnRef((c.name,)), c.name)
        for c in base.schema.columns
    ] + [ast.SelectItem(expr, name) for name, expr in rewriter.windows]
    derived = ast.Select(items=inner_items, from_clause=ast.TableName(table.name))
    return replace(
        query,
        items=items,
        where=where,
        from_clause=ast.SubqueryRef(derived, outer_alias),
    )


class _Rewriter:
    def __init__(self, db, table_name: str, outer_alias: str, outer_conjuncts):
        self.db = db
        self.table_name = table_name.lower()
        self.outer_alias = outer_alias
        self.outer_conjuncts = outer_conjuncts
        self.windows: list[tuple[str, ast.Expression]] = []

    def rewrite(self, expr: ast.Expression) -> ast.Expression:
        def visit(node: ast.Node):
            if isinstance(node, ast.ScalarSubquery):
                replacement = self._try_subquery(node.query)
                if replacement is not None:
                    return replacement
            return None

        return transform_topdown(expr, visit)  # type: ignore[return-value]

    def _try_subquery(self, subquery: ast.Query) -> Optional[ast.Expression]:
        if not isinstance(subquery, ast.Select):
            return None
        if subquery.group_by or subquery.having is not None:
            return None
        if len(subquery.items) != 1:
            return None
        inner_from = subquery.from_clause
        if not isinstance(inner_from, ast.TableName):
            return None
        if inner_from.name.lower() != self.table_name:
            return None
        inner_alias = (inner_from.alias or inner_from.name).lower()

        call = subquery.items[0].expr
        if not (
            isinstance(call, ast.FunctionCall)
            and is_aggregate_function(call.name)
            and call.over is None
            and not call.star_arg
            and len(call.args) == 1
            and call.filter_where is None
            and not call.order_by
            and not call.within_distinct
        ):
            return None

        partition: list[ast.Expression] = []
        for conjunct in split_and(subquery.where):
            key = self._correlation_key(conjunct, inner_alias)
            if key is not None:
                partition.append(ast.ColumnRef((key,)))
                continue
            # A purely local predicate is eligible only when the outer query
            # applies the same predicate verbatim — then both sides see the
            # same row set and the filter can live in the derived table...
            # but our derived table is built pre-filter, so local predicates
            # would change the window input.  Disqualify (classic WinMagic's
            # conservative case).
            return None

        windowed = ast.FunctionCall(
            call.name,
            [_strip_qualifier(a, inner_alias) for a in call.args],
            distinct=call.distinct,
            over=ast.WindowSpec(partition_by=partition),
        )
        name = self._window_name(windowed)
        return ast.ColumnRef((self.outer_alias, name))

    def _correlation_key(
        self, conjunct: ast.Expression, inner_alias: str
    ) -> Optional[str]:
        """``i.k = o.k`` (either side order) -> the column name ``k``."""
        if not (isinstance(conjunct, ast.Binary) and conjunct.op == "="):
            return None
        sides = [conjunct.left, conjunct.right]
        if not all(isinstance(s, ast.ColumnRef) for s in sides):
            return None
        left, right = sides  # type: ignore[misc]
        quals = {
            (left.qualifier or "").lower(),
            (right.qualifier or "").lower(),
        }
        if quals != {inner_alias, self.outer_alias.lower()}:
            return None
        if left.name.lower() != right.name.lower():
            return None
        return left.name

    def _window_name(self, windowed: ast.FunctionCall) -> str:
        """The column computing ``windowed``: one per distinct window call."""
        for name, existing in self.windows:
            if existing == windowed:
                return name
        name = f"__win{len(self.windows)}"
        self.windows.append((name, windowed))
        return name


def _strip_qualifier(expr: ast.Expression, alias: str) -> ast.Expression:
    def visit(node: ast.Node):
        if (
            isinstance(node, ast.ColumnRef)
            and node.qualifier is not None
            and node.qualifier.lower() == alias
        ):
            return ast.ColumnRef((node.name,))
        return None

    return transform_topdown(expr, visit)  # type: ignore[return-value]
