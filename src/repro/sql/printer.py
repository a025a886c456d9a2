"""Render AST nodes back to SQL text.

The printer produces canonical, re-parseable SQL.  It is used for:

* round-trip testing of the parser,
* rendering the output of measure expansion (the paper's Listing 5 / 11),
* error messages and EXPLAIN EXPAND output.
"""

from __future__ import annotations

import datetime
from typing import Any

from repro.errors import UnsupportedError
from repro.sql import ast
from repro.sql.lexer import is_bare_identifier

__all__ = ["to_sql", "format_literal"]


def format_literal(value: Any) -> str:
    """Render a Python value as a SQL literal."""
    if value is None:
        return "NULL"
    if value is True:
        return "TRUE"
    if value is False:
        return "FALSE"
    if isinstance(value, str):
        escaped = value.replace("'", "''")
        return f"'{escaped}'"
    if isinstance(value, datetime.date):
        return f"DATE '{value.isoformat()}'"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _ident(name: str) -> str:
    """``name`` as the lexer reads it back: bare when it lexes as itself,
    double-quoted (``"`` doubled) when it is a keyword or not a bare word."""
    if is_bare_identifier(name):
        return name
    escaped = name.replace('"', '""')
    return f'"{escaped}"'


def to_sql(node: ast.Node) -> str:
    """Render any AST node (statement, query, or expression) to SQL."""
    return _Printer().render(node)


class _Printer:
    def render(self, node: ast.Node) -> str:
        method = getattr(self, f"_render_{type(node).__name__}", None)
        if method is None:
            raise UnsupportedError(f"cannot print {type(node).__name__}")
        return method(node)

    # -- expressions -------------------------------------------------------

    def _render_Literal(self, node: ast.Literal) -> str:
        return format_literal(node.value)

    def _render_ColumnRef(self, node: ast.ColumnRef) -> str:
        return ".".join(_ident(part) for part in node.parts)

    def _render_Parameter(self, node: ast.Parameter) -> str:
        return "?"

    def _render_Star(self, node: ast.Star) -> str:
        return f"{_ident(node.qualifier)}.*" if node.qualifier else "*"

    def _render_Unary(self, node: ast.Unary) -> str:
        if node.op == "NOT":
            return f"NOT ({self.render(node.operand)})"
        return f"{node.op}({self.render(node.operand)})"

    def _render_Binary(self, node: ast.Binary) -> str:
        left = self.render(node.left)
        right = self.render(node.right)
        if node.op in ("AND", "OR"):
            return f"({left} {node.op} {right})"
        return f"({left} {node.op} {right})"

    def _render_IsNull(self, node: ast.IsNull) -> str:
        op = "IS NOT NULL" if node.negated else "IS NULL"
        return f"({self.render(node.operand)} {op})"

    def _render_IsDistinctFrom(self, node: ast.IsDistinctFrom) -> str:
        op = "IS NOT DISTINCT FROM" if node.negated else "IS DISTINCT FROM"
        return f"({self.render(node.left)} {op} {self.render(node.right)})"

    def _render_Between(self, node: ast.Between) -> str:
        word = "NOT BETWEEN" if node.negated else "BETWEEN"
        return (
            f"({self.render(node.operand)} {word} "
            f"{self.render(node.low)} AND {self.render(node.high)})"
        )

    def _render_InList(self, node: ast.InList) -> str:
        word = "NOT IN" if node.negated else "IN"
        return f"({self.render(node.operand)} {word} ({self._in_items(node.items)}))"

    def _in_items(self, items: list) -> str:
        return ", ".join(self.render(item) for item in items)

    def _render_InSubquery(self, node: ast.InSubquery) -> str:
        word = "NOT IN" if node.negated else "IN"
        return f"({self.render(node.operand)} {word} ({self.render(node.query)}))"

    def _render_Like(self, node: ast.Like) -> str:
        word = "NOT LIKE" if node.negated else "LIKE"
        text = f"({self.render(node.operand)} {word} {self.render(node.pattern)}"
        if node.escape is not None:
            text += f" ESCAPE {self.render(node.escape)}"
        return text + ")"

    def _render_Case(self, node: ast.Case) -> str:
        parts = ["CASE"]
        if node.operand is not None:
            parts.append(self.render(node.operand))
        for when in node.whens:
            parts.append(
                f"WHEN {self.render(when.condition)} THEN {self.render(when.result)}"
            )
        if node.else_result is not None:
            parts.append(f"ELSE {self.render(node.else_result)}")
        parts.append("END")
        return " ".join(parts)

    def _render_Cast(self, node: ast.Cast) -> str:
        suffix = " MEASURE" if node.is_measure_type else ""
        return f"CAST({self.render(node.operand)} AS {node.type_name}{suffix})"

    def _render_FunctionCall(self, node: ast.FunctionCall) -> str:
        if node.star_arg:
            inner = "*"
        else:
            prefix = "DISTINCT " if node.distinct else ""
            inner = prefix + ", ".join(self.render(arg) for arg in node.args)
        if node.order_by:
            inner += " ORDER BY " + ", ".join(
                self._order_item(i) for i in node.order_by
            )
        text = f"{node.name}({inner})"
        if node.within_distinct:
            keys = ", ".join(self.render(k) for k in node.within_distinct)
            text += f" WITHIN DISTINCT ({keys})"
        if node.filter_where is not None:
            text += f" FILTER (WHERE {self.render(node.filter_where)})"
        if node.over is not None:
            text += f" OVER {self._render_WindowSpec(node.over)}"
        elif node.over_name is not None:
            text += f" OVER {_ident(node.over_name)}"
        return text

    def _render_WindowSpec(self, node: ast.WindowSpec) -> str:
        parts = []
        if node.partition_by:
            exprs = ", ".join(self.render(e) for e in node.partition_by)
            parts.append(f"PARTITION BY {exprs}")
        if node.order_by:
            items = ", ".join(self._order_item(i) for i in node.order_by)
            parts.append(f"ORDER BY {items}")
        if node.frame is not None:
            parts.append(
                f"{node.frame.unit} BETWEEN {self._bound(node.frame.start)}"
                f" AND {self._bound(node.frame.end)}"
            )
        return "(" + " ".join(parts) + ")"

    def _bound(self, bound: ast.FrameBound) -> str:
        if bound.kind == "UNBOUNDED_PRECEDING":
            return "UNBOUNDED PRECEDING"
        if bound.kind == "UNBOUNDED_FOLLOWING":
            return "UNBOUNDED FOLLOWING"
        if bound.kind == "CURRENT_ROW":
            return "CURRENT ROW"
        keyword = "PRECEDING" if bound.kind == "PRECEDING" else "FOLLOWING"
        return f"{self.render(bound.offset)} {keyword}"

    def _render_ScalarSubquery(self, node: ast.ScalarSubquery) -> str:
        return f"({self.render(node.query)})"

    def _render_Exists(self, node: ast.Exists) -> str:
        prefix = "NOT " if node.negated else ""
        return f"{prefix}EXISTS ({self.render(node.query)})"

    def _render_At(self, node: ast.At) -> str:
        modifiers = " ".join(self.render(m) for m in node.modifiers)
        return f"{self.render(node.operand)} AT ({modifiers})"

    def _render_AllModifier(self, node: ast.AllModifier) -> str:
        if not node.dims:
            return "ALL"
        return "ALL " + ", ".join(self.render(d) for d in node.dims)

    def _render_SetModifier(self, node: ast.SetModifier) -> str:
        return f"SET {self.render(node.dim)} = {self.render(node.value)}"

    def _render_VisibleModifier(self, node: ast.VisibleModifier) -> str:
        return "VISIBLE"

    def _render_WhereModifier(self, node: ast.WhereModifier) -> str:
        return f"WHERE {self.render(node.predicate)}"

    def _render_CurrentDim(self, node: ast.CurrentDim) -> str:
        return f"CURRENT {self._render_ColumnRef(node.dim)}"

    # -- query structure -----------------------------------------------------

    def _order_item(self, item: ast.OrderItem) -> str:
        text = self.render(item.expr)
        if item.descending:
            text += " DESC"
        if item.nulls_first is True:
            text += " NULLS FIRST"
        elif item.nulls_first is False:
            text += " NULLS LAST"
        return text

    def _render_Select(self, node: ast.Select) -> str:
        parts = ["SELECT"]
        if node.distinct:
            parts.append("DISTINCT")
        parts.append(", ".join(self._select_item(i) for i in node.items))
        if node.from_clause is not None:
            parts.append(f"FROM {self.render(node.from_clause)}")
        if node.where is not None:
            parts.append(f"WHERE {self.render(node.where)}")
        if node.group_by:
            parts.append(
                "GROUP BY " + ", ".join(self.render(g) for g in node.group_by)
            )
        if node.having is not None:
            parts.append(f"HAVING {self.render(node.having)}")
        if node.qualify is not None:
            parts.append(f"QUALIFY {self.render(node.qualify)}")
        if node.windows:
            windows = ", ".join(
                f"{_ident(w.name)} AS {self._render_WindowSpec(w.spec)}"
                for w in node.windows
            )
            parts.append(f"WINDOW {windows}")
        if node.order_by:
            parts.append(
                "ORDER BY " + ", ".join(self._order_item(i) for i in node.order_by)
            )
        if node.limit is not None:
            parts.append(f"LIMIT {self.render(node.limit)}")
        if node.offset is not None:
            parts.append(f"OFFSET {self.render(node.offset)}")
        return " ".join(parts)

    def _select_item(self, item: ast.SelectItem) -> str:
        text = self.render(item.expr)
        if item.alias:
            keyword = "AS MEASURE" if item.is_measure else "AS"
            text += f" {keyword} {_ident(item.alias)}"
        return text

    def _render_SimpleGrouping(self, node: ast.SimpleGrouping) -> str:
        return self.render(node.expr)

    def _render_Rollup(self, node: ast.Rollup) -> str:
        return "ROLLUP(" + ", ".join(self.render(e) for e in node.exprs) + ")"

    def _render_Cube(self, node: ast.Cube) -> str:
        return "CUBE(" + ", ".join(self.render(e) for e in node.exprs) + ")"

    def _render_GroupingSets(self, node: ast.GroupingSets) -> str:
        sets = ", ".join(
            "(" + ", ".join(self.render(e) for e in group) + ")"
            for group in node.sets
        )
        return f"GROUPING SETS ({sets})"

    def _render_TableName(self, node: ast.TableName) -> str:
        text = _ident(node.name)
        if node.alias:
            text += f" AS {_ident(node.alias)}"
        return text

    def _render_SubqueryRef(self, node: ast.SubqueryRef) -> str:
        text = f"({self.render(node.query)})"
        if node.alias:
            text += f" AS {_ident(node.alias)}"
        return text

    def _render_PivotRef(self, node: ast.PivotRef) -> str:
        values = ", ".join(
            self.render(literal) + (f" AS {_ident(alias)}" if alias else "")
            for literal, alias in node.values
        )
        text = (
            f"{self.render(node.input)} PIVOT({self.render(node.agg)} "
            f"FOR {self.render(node.key)} IN ({values}))"
        )
        if node.alias:
            text += f" AS {_ident(node.alias)}"
        return text

    def _render_UnpivotRef(self, node: ast.UnpivotRef) -> str:
        columns = ", ".join(
            _ident(column) + (f" AS '{label}'" if label else "")
            for column, label in node.columns
        )
        text = (
            f"{self.render(node.input)} UNPIVOT({_ident(node.value_column)} "
            f"FOR {_ident(node.name_column)} IN ({columns}))"
        )
        if node.alias:
            text += f" AS {_ident(node.alias)}"
        return text

    def _render_Join(self, node: ast.Join) -> str:
        left = self.render(node.left)
        right = self.render(node.right)
        prefix = "NATURAL " if node.natural else ""
        if node.kind == "CROSS":
            return f"{left} CROSS JOIN {right}"
        kind = "JOIN" if node.kind == "INNER" else f"{node.kind} JOIN"
        text = f"{left} {prefix}{kind} {right}"
        if node.condition is not None:
            text += f" ON {self.render(node.condition)}"
        elif node.using:
            text += " USING (" + ", ".join(_ident(c) for c in node.using) + ")"
        return text

    def _render_SetOp(self, node: ast.SetOp) -> str:
        keyword = node.op + (" ALL" if node.all else "")
        text = f"{self.render(node.left)} {keyword} {self.render(node.right)}"
        if node.order_by:
            text += " ORDER BY " + ", ".join(
                self._order_item(i) for i in node.order_by
            )
        if node.limit is not None:
            text += f" LIMIT {self.render(node.limit)}"
        if node.offset is not None:
            text += f" OFFSET {self.render(node.offset)}"
        return text

    def _render_Values(self, node: ast.Values) -> str:
        rows = ", ".join(
            "(" + ", ".join(self.render(e) for e in row) + ")" for row in node.rows
        )
        return f"VALUES {rows}"

    def _render_ShowStats(self, node: ast.ShowStats) -> str:
        return "SHOW STATS"

    def _render_WithQuery(self, node: ast.WithQuery) -> str:
        ctes = ", ".join(
            _ident(cte.name)
            + (
                " (" + ", ".join(_ident(c) for c in cte.columns) + ")"
                if cte.columns
                else ""
            )
            + f" AS ({self.render(cte.query)})"
            for cte in node.ctes
        )
        return f"WITH {ctes} {self.render(node.body)}"

    # -- statements ----------------------------------------------------------

    def _render_QueryStatement(self, node: ast.QueryStatement) -> str:
        return self.render(node.query)

    def _render_CreateTable(self, node: ast.CreateTable) -> str:
        columns = ", ".join(
            f"{_ident(c.name)} {c.type_name}" for c in node.columns
        )
        replace = "OR REPLACE " if node.or_replace else ""
        exists = "IF NOT EXISTS " if node.if_not_exists else ""
        return f"CREATE {replace}TABLE {exists}{_ident(node.name)} ({columns})"

    def _render_CreateView(self, node: ast.CreateView) -> str:
        replace = "OR REPLACE " if node.or_replace else ""
        columns = (
            " (" + ", ".join(_ident(c) for c in node.column_names) + ")"
            if node.column_names
            else ""
        )
        return (
            f"CREATE {replace}VIEW {_ident(node.name)}{columns} AS "
            f"{self.render(node.query)}"
        )

    def _render_CreateMaterializedView(self, node: ast.CreateMaterializedView) -> str:
        replace = "OR REPLACE " if node.or_replace else ""
        return (
            f"CREATE {replace}MATERIALIZED VIEW {_ident(node.name)} AS "
            f"{self.render(node.query)}"
        )

    def _render_RefreshMaterializedView(self, node: ast.RefreshMaterializedView) -> str:
        return f"REFRESH MATERIALIZED VIEW {_ident(node.name)}"

    def _render_DropObject(self, node: ast.DropObject) -> str:
        exists = "IF EXISTS " if node.if_exists else ""
        return f"DROP {node.kind} {exists}{_ident(node.name)}"

    def _render_Insert(self, node: ast.Insert) -> str:
        columns = (
            " (" + ", ".join(_ident(c) for c in node.columns) + ")"
            if node.columns
            else ""
        )
        return f"INSERT INTO {_ident(node.table)}{columns} {self.render(node.source)}"

    def _render_ExplainExpand(self, node: ast.ExplainExpand) -> str:
        return f"EXPLAIN EXPAND {self.render(node.query)}"

    def _render_CreateTableAs(self, node: ast.CreateTableAs) -> str:
        replace = "OR REPLACE " if node.or_replace else ""
        return f"CREATE {replace}TABLE {_ident(node.name)} AS {self.render(node.query)}"

    def _render_Truncate(self, node: ast.Truncate) -> str:
        return f"TRUNCATE TABLE {_ident(node.table)}"

    def _render_Analyze(self, node: ast.Analyze) -> str:
        if node.table is None:
            return "ANALYZE"
        return f"ANALYZE {_ident(node.table)}"

    def _render_ExplainPlan(self, node: ast.ExplainPlan) -> str:
        # Canonical option form: bare ANALYZE when it is the only option,
        # parenthesized list otherwise (LINT/TYPES always print in parens).
        options = [
            name
            for name, enabled in (
                ("LINT", node.lint),
                ("ANALYZE", node.analyze),
                ("TYPES", node.types),
            )
            if enabled
        ]
        if options == ["ANALYZE"]:
            option = "ANALYZE "
        elif options:
            option = "(" + ", ".join(options) + ") "
        else:
            option = ""
        inner = node.query if node.query is not None else node.target
        return f"EXPLAIN {option}{self.render(inner)}"

    def _render_Update(self, node: ast.Update) -> str:
        sets = ", ".join(
            f"{_ident(a.column)} = {self.render(a.value)}" for a in node.assignments
        )
        text = f"UPDATE {_ident(node.table)} SET {sets}"
        if node.where is not None:
            text += f" WHERE {self.render(node.where)}"
        return text

    def _render_Delete(self, node: ast.Delete) -> str:
        text = f"DELETE FROM {_ident(node.table)}"
        if node.where is not None:
            text += f" WHERE {self.render(node.where)}"
        return text
