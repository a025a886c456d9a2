"""The paper's lambda exposition of measure semantics (section 4).

Section 4.2 explains measures with a functional device: every measure ``M``
gets an auxiliary function ``computeM(rowPredicate)`` that aggregates the
source rows accepted by the predicate, and each measure reference becomes a
call ``computeM(r -> <context predicate>)`` (paper Listing 11).  The lambdas
exist only during planning — "there are no function values at runtime"
(section 4.1) — and this engine honours that: this module *renders* the
lambda form for study; execution always goes through the interpreter or the
plain-SQL expansion.

:func:`explain_lambda_semantics` reproduces Listing 11 for any supported
query::

    -- Row definition
    CREATE TYPE OrdersRow AS ROW (prodName VARCHAR, ...);
    -- Auxiliary computation for sumRevenue
    CREATE FUNCTION computeSumRevenue(rowPredicate FUNCTION(OrdersRow)
      RETURNS BOOLEAN) AS
      SELECT SUM(o.revenue) FROM Orders AS o WHERE APPLY(rowPredicate, o);
    -- After expansion of sumRevenue occurrences
    SELECT ... computeSumRevenue(r -> r.prodName = o.prodName AND ...) ...
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.catalog.objects import BaseTable
from repro.core.expansion import Expander
from repro.errors import UnsupportedError
from repro.semantics.unbind import unbind
from repro.sql import ast, parse_statement
from repro.sql.printer import to_sql
from repro.sql.visitor import and_all

if TYPE_CHECKING:  # pragma: no cover
    from repro.api import Database

__all__ = ["explain_lambda_semantics"]


@dataclass
class _Use:
    measure_name: str
    table_name: str
    formula: ast.Expression
    source_where: ast.Expression | None
    predicate_sql: str


class _LambdaExpander(Expander):
    """An Expander that emits ``computeM($LAMBDAi)`` placeholders instead of
    scalar subqueries, recording the row predicate for each use."""

    def __init__(self, db: "Database"):
        super().__init__(db)
        self.uses: list[_Use] = []

    def measure_subquery(self, node, level, site):
        source_sql = node.measure.group.source_sql
        table = source_sql.from_clause
        if not isinstance(table, ast.TableName):
            raise UnsupportedError(
                "the lambda exposition requires single-table measure sources"
            )
        # The source row is ``r`` inside the row predicate and ``o`` inside
        # the auxiliary function.
        (relation,) = source_sql.scope.relations
        r = self.names(source_sql, {id(relation): "r"})
        o = [self.names(source_sql, {id(relation): "o"})]
        predicate = and_all(
            [unbind(pred, [r]) for pred in source_sql.where]
            + self.context(node.context, level, r, site)
        )
        self.uses.append(
            _Use(
                measure_name=node.measure.name,
                table_name=table.name,
                formula=unbind(node.measure.formula, o),
                source_where=and_all([unbind(pred, o) for pred in source_sql.where]),
                predicate_sql="TRUE" if predicate is None else to_sql(predicate),
            )
        )
        return ast.FunctionCall("APPLY_LAMBDA", [ast.Literal(len(self.uses) - 1)])


def explain_lambda_semantics(db: "Database", sql: str) -> str:
    """Render a measure query per the paper's section 4.2 rules."""
    statement = parse_statement(sql)
    if not isinstance(statement, ast.QueryStatement):
        raise UnsupportedError("explain_lambda_semantics requires a query")

    expander = _LambdaExpander(db)
    expanded = expander.expand_query(statement.query)
    if not expander.uses:
        raise UnsupportedError("the query uses no measures")

    body = to_sql(expanded)
    for index, use in enumerate(expander.uses):
        call = f"compute{_title(use.measure_name)}(r -> {use.predicate_sql})"
        body = body.replace(f"APPLY_LAMBDA({index})", call)
        # The aggregate wrapper of a global measure reads oddly in the
        # lambda exposition; the paper presents the bare call.
        body = body.replace(f"CASE WHEN (COUNT(*) >= 0) THEN {call} END", call)

    lines: list[str] = []
    seen_types: set[str] = set()
    seen_functions: set[str] = set()
    for use in expander.uses:
        table = db.catalog.resolve(use.table_name)
        if not isinstance(table, BaseTable):
            raise UnsupportedError(
                "the lambda exposition requires base-table measure sources"
            )
        row_type = f"{_title(table.name)}Row"
        if row_type not in seen_types:
            seen_types.add(row_type)
            columns = ", ".join(
                f"{c.name} {c.dtype}" for c in table.schema.columns
            )
            lines.append("-- Row definition")
            lines.append(f"CREATE TYPE {row_type} AS ROW ({columns});")
            lines.append("")
        function = f"compute{_title(use.measure_name)}"
        if function not in seen_functions:
            seen_functions.add(function)
            lines.append(f"-- Auxiliary computation for {use.measure_name}")
            lines.append(
                f"CREATE FUNCTION {function}(rowPredicate FUNCTION({row_type})"
                " RETURNS BOOLEAN) AS"
            )
            where = f"APPLY(rowPredicate, o)"
            if use.source_where is not None:
                where = f"{to_sql(use.source_where)} AND {where}"
            lines.append(
                f"  SELECT {to_sql(use.formula)} FROM {table.name} AS o"
                f" WHERE {where};"
            )
            lines.append("")
    lines.append(f"-- After expansion of measure occurrences")
    lines.append(body)
    return "\n".join(lines)


def _title(name: str) -> str:
    return name[:1].upper() + name[1:] if name else name
