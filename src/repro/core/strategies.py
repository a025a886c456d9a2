"""Alternative measure-rewrite strategies (paper sections 5.1 and 6.4).

The general correlated-subquery expansion (:mod:`repro.core.expansion`) is,
as the paper notes, "general-purpose but not very efficient".  Two special
shapes admit cheaper rewrites:

* :func:`inline_expand` — "in simple cases (such as a query with GROUP BY and
  no JOIN) it may be valid to inline the measure definition": a plain
  aggregate query over one measure table, where every measure use carries the
  default VISIBLE context, becomes an ordinary GROUP BY over the source
  (the paper's Listing 3 rewritten back to Listing 1);

* :func:`window_expand` — the measures/window-aggregate correspondence of
  section 5.1: a row-grain measure use whose context is an equality partition
  becomes a window aggregate computed in a derived table (Listing 12's
  query 4 rewritten to query 3).

Both raise :class:`~repro.errors.UnsupportedError` when the query does not
match their shape, so callers can fall back to the general strategy.
"""

from __future__ import annotations

import copy
from typing import TYPE_CHECKING, Optional

from repro.core.expansion import (
    ExpRelation,
    Expander,
    _apply_rename,
    _detect_aggregate,
)
from repro.errors import MeasureError, UnsupportedError
from repro.sql import ast
from repro.sql.printer import to_sql
from repro.sql.visitor import split_and, transform, transform_topdown

if TYPE_CHECKING:  # pragma: no cover
    from repro.api import Database

__all__ = ["inline_expand", "window_expand"]


def _single_measure_relation(
    expander: Expander, select: ast.Select
) -> tuple[ExpRelation, ast.TableRef]:
    """The query's FROM must be exactly one measure-bearing relation."""
    if select.from_clause is None or isinstance(select.from_clause, ast.Join):
        raise UnsupportedError("strategy requires a single-table FROM clause")
    relations: list[ExpRelation] = []
    new_from = expander._expand_from(select.from_clause, relations, [])
    if len(relations) != 1 or relations[0].table is None:
        raise UnsupportedError("strategy requires one measure-bearing relation")
    return relations[0], new_from


def inline_expand(db: "Database", query: ast.Query, *, tracer=None) -> ast.Query:
    """Inline measure formulas into a simple GROUP BY query.

    Shape: ``SELECT g..., AGGREGATE(m)... FROM MT [WHERE w] GROUP BY g...``
    over a single measure table with no AT modifiers.  The result reads the
    source directly — one scan, no correlated subqueries.
    """
    if not isinstance(query, ast.Select):
        raise UnsupportedError("inline strategy requires a plain SELECT")
    select = query
    if not _detect_aggregate(select):
        raise UnsupportedError("inline strategy requires an aggregate query")
    for element in select.group_by:
        if not isinstance(element, ast.SimpleGrouping):
            raise UnsupportedError("inline strategy does not support grouping sets")

    expander = Expander(db)
    relation, _ = _single_measure_relation(expander, select)
    table = relation.table
    assert table is not None

    rename = {"": "", **{}}  # leave source refs unqualified; single relation

    def translate(expr: ast.Expression) -> ast.Expression:
        """Rewrite exposed-column refs to source expressions; inline
        AGGREGATE(m) to the measure formula.  Top-down so that AGGREGATE(m)
        is matched before its bare measure argument."""

        def visit(node: ast.Node):
            if isinstance(node, ast.At):
                raise UnsupportedError(
                    "inline strategy does not support AT modifiers"
                )
            if isinstance(node, ast.FunctionCall) and node.name in (
                "AGGREGATE",
                "EVAL",
            ):
                inner = node.args[0] if node.args else None
                if not isinstance(inner, ast.ColumnRef) or not relation.has_measure(
                    inner.name
                ):
                    raise MeasureError(f"{node.name} argument must be a measure")
                formula = copy.deepcopy(table.measures[inner.name.lower()])
                return _apply_rename(formula, rename)
            if isinstance(node, ast.ColumnRef):
                if relation.has_measure(node.name):
                    raise UnsupportedError(
                        "inline strategy requires AGGREGATE(...) around "
                        "measure uses (bare uses ignore the WHERE clause)"
                    )
                dim = table.dims.get(node.name.lower())
                if dim is not None:
                    return _apply_rename(copy.deepcopy(dim), rename)
            return None

        return transform_topdown(copy.deepcopy(expr), visit)

    new_items = [
        ast.SelectItem(translate(item.expr), item.alias) for item in select.items
    ]
    new_group = [
        ast.SimpleGrouping(translate(element.expr))  # type: ignore[union-attr]
        for element in select.group_by
    ]
    conjuncts: list[ast.Expression] = []
    if table.source_where is not None:
        conjuncts.append(_apply_rename(copy.deepcopy(table.source_where), rename))
    if select.where is not None:
        conjuncts.append(translate(select.where))
    where: Optional[ast.Expression] = None
    for conjunct in conjuncts:
        where = conjunct if where is None else ast.Binary("AND", where, conjunct)

    if tracer is not None and tracer.current is not None:
        tracer.current.meta["inlined_items"] = len(new_items)
    return ast.Select(
        items=new_items,
        from_clause=copy.deepcopy(table.source_from),
        where=where,
        group_by=new_group,
        having=translate(select.having) if select.having is not None else None,
        order_by=[
            ast.OrderItem(translate(o.expr), o.descending, o.nulls_first)
            for o in select.order_by
        ],
        limit=select.limit,
        offset=select.offset,
        distinct=select.distinct,
    )


def window_expand(db: "Database", query: ast.Query, *, tracer=None) -> ast.Query:
    """Rewrite row-grain measure uses to window aggregates (section 5.1).

    Shape: a non-aggregate query over a single measure table where every
    measure use is either bare (row grain: partition by all dimensions) or
    ``m AT (WHERE dim = alias.dim AND ...)`` (partition by those dimensions).
    The measure formula's aggregate calls become window aggregates over the
    partition, computed in a derived table so that the WHERE clause can
    reference them (exactly how the paper's Listing 12 query 3 is written).
    """
    if not isinstance(query, ast.Select):
        raise UnsupportedError("window strategy requires a plain SELECT")
    select = query
    if _detect_aggregate(select):
        raise UnsupportedError(
            "window strategy applies to row-grain (non-aggregate) queries"
        )

    expander = Expander(db)
    relation, _ = _single_measure_relation(expander, select)
    table = relation.table
    assert table is not None
    if select.distinct:
        raise UnsupportedError("window strategy does not support DISTINCT")

    rename = {"": ""}
    window_columns: list[tuple[str, ast.Expression]] = []  # (name, window expr)
    column_keys: dict[str, str] = {}

    def window_column_for(measure_name: str, partition: list[ast.Expression]) -> str:
        formula = _apply_rename(
            copy.deepcopy(table.measures[measure_name.lower()]), rename
        )
        spec = ast.WindowSpec(partition_by=[copy.deepcopy(p) for p in partition])

        def add_over(node: ast.Expression) -> ast.Expression:
            from repro.engine.aggregates import is_aggregate_function

            if (
                isinstance(node, ast.FunctionCall)
                and is_aggregate_function(node.name)
                and node.over is None
            ):
                return ast.FunctionCall(
                    node.name,
                    node.args,
                    distinct=node.distinct,
                    star_arg=node.star_arg,
                    over=copy.deepcopy(spec),
                )
            return node

        windowed = transform(formula, add_over, into_queries=False)
        key = f"{measure_name.lower()}|{to_sql(windowed)}"
        if key in column_keys:
            return column_keys[key]
        name = f"__{measure_name}_{len(window_columns)}"
        window_columns.append((name, windowed))
        column_keys[key] = name
        return name

    def partition_of_where(pred: ast.Expression) -> list[ast.Expression]:
        """AT WHERE as an equality partition: every conjunct must be
        ``dim = alias.samedim``."""
        partition = []
        for conjunct in split_and(pred):
            if not (
                isinstance(conjunct, ast.Binary)
                and conjunct.op == "="
                and isinstance(conjunct.left, ast.ColumnRef)
                and isinstance(conjunct.right, ast.ColumnRef)
            ):
                raise UnsupportedError(
                    "window strategy requires AT WHERE conjuncts of the form "
                    "dim = alias.dim"
                )
            left, right = conjunct.left, conjunct.right
            if len(left.parts) != 1 or left.name.lower() not in table.dims:
                raise UnsupportedError("AT WHERE left side must be a dimension")
            if right.name.lower() != left.name.lower():
                raise UnsupportedError(
                    "window strategy requires self-correlation on the same "
                    "dimension"
                )
            source_dim = table.dims[left.name.lower()]
            partition.append(_apply_rename(copy.deepcopy(source_dim), rename))
        return partition

    def rewrite_use(node: ast.Node):
        if not isinstance(node, (ast.FunctionCall, ast.At, ast.ColumnRef)):
            return None
        modifiers: list[ast.AtModifier] = []
        inner: ast.Expression = node  # type: ignore[assignment]
        if isinstance(inner, ast.FunctionCall):
            if inner.name != "EVAL" or not inner.args:
                return None
            inner = inner.args[0]
        while isinstance(inner, ast.At):
            modifiers.extend(inner.modifiers)
            inner = inner.operand
        if not isinstance(inner, ast.ColumnRef) or not relation.has_measure(inner.name):
            return None
        if len(modifiers) > 1:
            raise UnsupportedError("window strategy supports at most one modifier")
        if modifiers and isinstance(modifiers[0], ast.WhereModifier):
            partition = partition_of_where(modifiers[0].predicate)
        elif modifiers:
            raise UnsupportedError(
                "window strategy only supports AT (WHERE ...) modifiers"
            )
        else:
            partition = [
                _apply_rename(copy.deepcopy(table.dims[c.lower()]), rename)
                for c in table.columns
            ]
        name = window_column_for(inner.name, partition)
        return ast.ColumnRef((relation.alias, name))

    def rewrite(expr: Optional[ast.Expression]) -> Optional[ast.Expression]:
        if expr is None:
            return None
        return transform_topdown(copy.deepcopy(expr), rewrite_use)

    new_items = [
        item
        if isinstance(item.expr, ast.Star)
        else ast.SelectItem(rewrite(item.expr), item.alias)
        for item in select.items
    ]
    new_where = rewrite(select.where)
    new_order = [
        ast.OrderItem(rewrite(o.expr), o.descending, o.nulls_first)
        for o in select.order_by
    ]

    if not window_columns:
        raise UnsupportedError("query uses no measures; nothing to rewrite")
    if tracer is not None and tracer.current is not None:
        tracer.current.meta["window_columns"] = len(window_columns)

    inner_items = [
        ast.SelectItem(copy.deepcopy(table.dims[c.lower()]), c)
        for c in table.columns
    ] + [ast.SelectItem(expr, name) for name, expr in window_columns]
    derived = ast.Select(
        items=[
            ast.SelectItem(
                _apply_rename(item.expr, rename)
                if not isinstance(item.expr, ast.Star)
                else item.expr,
                item.alias,
            )
            for item in inner_items
        ],
        from_clause=copy.deepcopy(table.source_from),
        where=(
            _apply_rename(copy.deepcopy(table.source_where), rename)
            if table.source_where is not None
            else None
        ),
    )
    return ast.Select(
        items=new_items,
        from_clause=ast.SubqueryRef(derived, relation.alias),
        where=new_where,
        order_by=new_order,
        limit=select.limit,
        offset=select.offset,
    )
