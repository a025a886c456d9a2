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

Both read the same bound query the general strategy prints — the call
sites' ``ContextSpec``\\ s, the relation's dimensions, the group's source —
and raise :class:`~repro.errors.UnsupportedError` when the query does not
match their shape, so callers can fall back to the general strategy.
"""

from __future__ import annotations

import copy
import dataclasses
from typing import TYPE_CHECKING, Optional

from repro.core.expansion import Expander
from repro.core.modifiers import BoundVisible, BoundWhere
from repro.engine.aggregates import is_aggregate_function
from repro.errors import BindError, UnsupportedError
from repro.semantics import bound as b
from repro.semantics.binder import BoundSelect, materialize_measures
from repro.semantics.scope import Relation
from repro.semantics.unbind import unbind
from repro.sql import ast
from repro.sql.printer import to_sql
from repro.sql.visitor import and_all, transform, transform_topdown

if TYPE_CHECKING:  # pragma: no cover
    from repro.api import Database

__all__ = ["inline_expand", "window_expand"]


def _single_measure_relation(
    expander: Expander, query: ast.Query, strategy: str
) -> tuple[ast.Select, BoundSelect, Relation]:
    """Bind ``query``: it must be one SELECT over exactly one
    measure-bearing relation."""
    select = expander.bind(query)
    if not isinstance(select, ast.Select):
        raise UnsupportedError(f"{strategy} strategy requires a plain SELECT")
    if select.from_clause is None or isinstance(select.from_clause, ast.Join):
        raise UnsupportedError("strategy requires a single-table FROM clause")
    bound = expander.binder.selects[id(select)]
    (relation,) = bound.scope.relations
    if relation.group is None:
        raise UnsupportedError("strategy requires one measure-bearing relation")
    return select, bound, relation


def inline_expand(db: "Database", query: ast.Query, *, tracer=None) -> ast.Query:
    """Inline measure formulas into a simple GROUP BY query.

    Shape: ``SELECT g..., AGGREGATE(m)... FROM MT [WHERE w] GROUP BY g...``
    over a single measure table with no AT modifiers.  The result reads the
    source directly — one scan, no correlated subqueries.
    """
    expander = Expander(db)
    select, bound, relation = _single_measure_relation(expander, query, "inline")
    if bound.group_exprs is None:
        raise UnsupportedError("inline strategy requires an aggregate query")
    source = relation.group.source_sql
    src = [expander.names(source)]

    def translate(expr: Optional[ast.Expression]) -> Optional[ast.Expression]:
        """Rewrite exposed-column refs to source expressions; inline
        AGGREGATE(m) to the measure formula."""

        def visit(node: ast.Node):
            site = expander.binder.sites.get(id(node))
            if site is not None:
                if [type(m) for m in site.context.modifiers] != [BoundVisible]:
                    raise UnsupportedError(
                        "inline strategy requires AGGREGATE(...) around "
                        "measure uses and no AT modifiers (bare uses ignore "
                        "the WHERE clause)"
                    )
                return unbind(site.measure.formula, src)
            if isinstance(node, ast.ColumnRef):
                try:
                    column = bound.scope.resolve(node.parts).column
                except BindError:
                    return None  # an output name (ORDER BY, GROUP BY alias)
                dim = relation.dim_for_offset.get(column.offset)
                if dim is None:
                    raise UnsupportedError(
                        f"inline strategy: {column.name!r} is not a dimension"
                    )
                return unbind(dim, src)
            return None

        return None if expr is None else transform_topdown(expr, visit)

    new_items = [
        ast.SelectItem(translate(item.expr), item.alias) for item in select.items
    ]
    if tracer is not None:
        tracer.current.meta["inlined_items"] = len(new_items)
    conjuncts = [unbind(pred, src) for pred in source.where]
    if select.where is not None:
        conjuncts.append(translate(select.where))
    return ast.Select(
        items=new_items,
        from_clause=copy.deepcopy(source.from_clause),
        where=and_all(conjuncts),
        group_by=[
            ast.SimpleGrouping(translate(element.expr))  # type: ignore[union-attr]
            for element in select.group_by
        ],
        having=translate(select.having),
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
    measure use is either bare (row grain: partition by the context's
    dimensions) or ``m AT (WHERE dim = alias.dim AND ...)`` (partition by
    those dimensions).  The measure formula's aggregate calls become window
    aggregates over the partition, computed in a derived table so that the
    WHERE clause can reference them (exactly how the paper's Listing 12
    query 3 is written).
    """
    expander = Expander(db)
    select, bound, relation = _single_measure_relation(expander, query, "window")
    if bound.group_exprs is not None:
        raise UnsupportedError(
            "window strategy applies to row-grain (non-aggregate) queries"
        )
    if select.distinct:
        raise UnsupportedError("window strategy does not support DISTINCT")
    source = relation.group.source_sql
    src = [expander.names(source)]
    window_columns: list[tuple[str, ast.Expression]] = []  # (name, window expr)
    column_keys: dict[str, str] = {}

    def partition_of(spec) -> list[b.BoundExpr]:
        """The context as an equality partition of the source: the group
        terms, or an AT WHERE whose every conjunct is ``dim = alias.dim``."""
        if not spec.modifiers:
            return [term.source_expr for term in spec.group_terms]
        if len(spec.modifiers) > 1 or not isinstance(spec.modifiers[0], BoundWhere):
            raise UnsupportedError(
                "window strategy supports one AT (WHERE ...) modifier at most"
            )
        where = spec.modifiers[0]
        if where.pred is not None:
            raise UnsupportedError(
                "window strategy requires AT WHERE conjuncts of the form "
                "dim = alias.dim"
            )
        for dim, value in where.eq_pairs:
            other = None
            if isinstance(value, b.BoundOuterColumn) and value.depth == 1:
                other = relation.dim_for_offset.get(value.offset)
            if other is None or b.fingerprint(other) != b.fingerprint(dim):
                raise UnsupportedError(
                    "window strategy requires self-correlation on the same "
                    "dimension"
                )
        return [dim for dim, _ in where.eq_pairs]

    def window_column_for(site: b.BoundMeasureEval) -> ast.Expression:
        if site.measure.group.source_sql is not source:
            raise UnsupportedError(
                "window strategy: the query's WHERE is baked into the "
                "measures it re-exports"
            )
        partition = [unbind(dim, src) for dim in partition_of(site.context)]

        def add_over(node: ast.Expression) -> ast.Expression:
            if (
                isinstance(node, ast.FunctionCall)
                and is_aggregate_function(node.name)
                and node.over is None
            ):
                if node.filter_where is not None or node.order_by or node.within_distinct:
                    raise UnsupportedError(
                        "window strategy: a window call takes no FILTER, "
                        "ORDER BY or WITHIN DISTINCT"
                    )
                spec = ast.WindowSpec(partition_by=copy.deepcopy(partition))
                return dataclasses.replace(node, over=spec)
            return node

        windowed = transform(unbind(site.measure.formula, src), add_over)
        measure_name = site.measure.name
        key = f"{measure_name.lower()}|{to_sql(windowed)}"
        if key not in column_keys:
            column_keys[key] = f"__{measure_name}_{len(window_columns)}"
            window_columns.append((column_keys[key], windowed))
        return ast.ColumnRef((relation.alias, column_keys[key]))

    def rewrite(expr: Optional[ast.Expression]) -> Optional[ast.Expression]:
        def visit(node: ast.Node):
            site = expander.binder.sites.get(id(node))
            return None if site is None else window_column_for(site)

        return None if expr is None else transform_topdown(expr, visit)

    # A bare measure column of the query's own output is evaluated over the
    # output's dimensions: the binder's ``materialize_measures`` says which.
    materialized = (
        materialize_measures(bound.relation)[0].exprs
        if bound.relation.has_measures
        else [None] * len(bound.items)
    )
    new_items = []
    for item, column, expr in zip(bound.items, bound.relation.columns, materialized):
        if column.is_measure:
            new_items.append(ast.SelectItem(window_column_for(expr), column.name))
        else:
            new_items.append(ast.SelectItem(rewrite(item.expr), item.alias))
    new_where = rewrite(select.where)
    new_qualify = rewrite(select.qualify)
    new_order = [
        ast.OrderItem(rewrite(o.expr), o.descending, o.nulls_first)
        for o in select.order_by
    ]

    if not window_columns:
        raise UnsupportedError("query uses no measures; nothing to rewrite")
    if tracer is not None:
        tracer.current.meta["window_columns"] = len(window_columns)

    dims = []
    for column in relation.columns:
        if not column.is_measure:
            dim = relation.dim_for_offset.get(column.offset)
            if dim is None:
                raise UnsupportedError(
                    f"window strategy: {column.name!r} is not a dimension"
                )
            dims.append(ast.SelectItem(unbind(dim, src), column.name))
    derived = ast.Select(
        items=dims + [ast.SelectItem(expr, name) for name, expr in window_columns],
        from_clause=copy.deepcopy(source.from_clause),
        where=and_all([unbind(pred, src) for pred in source.where]),
    )
    return ast.Select(
        items=new_items,
        from_clause=ast.SubqueryRef(derived, relation.alias),
        where=new_where,
        qualify=new_qualify,
        windows=select.windows,
        order_by=new_order,
        limit=select.limit,
        offset=select.offset,
    )
