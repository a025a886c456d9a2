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

Both print the same bind the general strategy prints — the call sites'
``ContextSpec``\\ s, the relation's dimensions, the group's source — through
:func:`~repro.semantics.unbind.unbind`: inline over a name function that maps
the measure relation's offsets to its dimension expressions, window with the
formula's aggregate calls printed as window calls.  Each raises
:class:`~repro.errors.UnsupportedError` when the query does not match its
shape, so callers can fall back to the general strategy.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Optional

from repro.core.expansion import Expander, materialized, output_order
from repro.core.modifiers import BoundVisible, BoundWhere
from repro.errors import UnsupportedError
from repro.semantics import bound as b
from repro.semantics.binder import BoundSelect
from repro.semantics.scope import Relation
from repro.semantics.unbind import unbind
from repro.sql import ast
from repro.sql.visitor import and_all, transform_topdown

if TYPE_CHECKING:  # pragma: no cover
    from repro.api import Database

__all__ = ["inline_expand", "window_expand"]


def _single_measure_relation(
    expander: Expander, query: ast.Query, strategy: str
) -> tuple[ast.Select, BoundSelect, Relation]:
    """Bind ``query``: it must be one SELECT with a plain GROUP BY, if any,
    over exactly one measure-bearing relation."""
    expander.binder.bind_query_top(query)
    if not isinstance(query, ast.Select):
        raise UnsupportedError(f"{strategy} strategy requires a plain SELECT")
    if query.from_clause is None or isinstance(query.from_clause, ast.Join):
        raise UnsupportedError("strategy requires a single-table FROM clause")
    if any(not isinstance(e, ast.SimpleGrouping) for e in query.group_by):
        raise UnsupportedError(f"{strategy} strategy requires a plain GROUP BY")
    bound = expander.binder.selects[id(query)]
    (relation,) = bound.scope.relations
    if relation.group is None:
        raise UnsupportedError("strategy requires one measure-bearing relation")
    return query, bound, relation


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
    if select.qualify is not None:
        raise UnsupportedError("inline strategy does not support QUALIFY")
    source_sql = relation.group.source_sql
    source, src = expander.instantiate(source_sql, "i")
    column_names = {column.offset: column.name for column in relation.columns}

    def dimension(offset: int) -> ast.Expression:
        """The measure relation's column ``offset``, over the source row."""
        dim = relation.dim_for_offset.get(offset)
        if dim is None:
            raise UnsupportedError(
                f"inline strategy: {column_names[offset]!r} is not a dimension"
            )
        return unbind(dim, [src])

    def formula(node: b.BoundExpr) -> Optional[ast.Expression]:
        if not isinstance(node, b.BoundMeasureEval):
            return None
        if [type(m) for m in node.context.modifiers] != [BoundVisible]:
            raise UnsupportedError(
                "inline strategy requires AGGREGATE(...) around measure uses "
                "and no AT modifiers (bare uses ignore the WHERE clause)"
            )
        return unbind(node.measure.formula, [src])

    keys = bound.group_exprs
    slots = [*keys, *bound.agg_calls]

    def group(slot: int) -> ast.Expression:
        """Column ``slot`` of the Aggregate row, over the source row."""
        return unbind(slots[slot], [dimension])

    def printed(expr: b.BoundExpr) -> ast.Expression:
        return unbind(expr, [group], hook=formula)

    items = [
        ast.SelectItem(printed(expr), column.name)
        for expr, column in zip(bound.item_exprs, bound.relation.columns)
    ]
    if tracer is not None:
        tracer.current.meta["inlined_items"] = len(items)
    conjuncts = [unbind(pred, [src]) for pred in source_sql.where]
    conjuncts += [unbind(pred, [dimension], hook=formula) for pred in bound.where]
    return ast.Select(
        items=items,
        from_clause=source,
        where=and_all(conjuncts),
        group_by=[ast.SimpleGrouping(group(slot)) for slot in range(len(keys))],
        having=None if bound.having is None else printed(bound.having),
        order_by=output_order(bound, printed),
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
    source_sql = relation.group.source_sql
    source, src = expander.instantiate(source_sql, "i")
    alias = relation.alias or expander.fresh_alias("t")
    window_columns: list[tuple[str, ast.Expression]] = []  # (name, window expr)
    column_keys: dict[tuple, str] = {}

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
        if site.measure.group.source_sql is not source_sql:
            raise UnsupportedError(
                "window strategy: the query's WHERE is baked into the "
                "measures it re-exports"
            )
        partition = partition_of(site.context)

        def over(node: b.BoundExpr) -> Optional[ast.Expression]:
            """An aggregate call of the formula, as a window call."""
            if not isinstance(node, b.BoundAggCall):
                return None
            if node.filter_where is not None or node.order_by or node.within_distinct:
                raise UnsupportedError(
                    "window strategy: a window call takes no FILTER, "
                    "ORDER BY or WITHIN DISTINCT"
                )
            spec = ast.WindowSpec(partition_by=[unbind(d, [src]) for d in partition])
            return replace(unbind(node, [src]), over=spec)

        measure = site.measure
        key = (measure.name.lower(), b.fingerprint(measure.formula),
               *[b.fingerprint(d) for d in partition])
        if key not in column_keys:
            column_keys[key] = f"__{measure.name}_{len(window_columns)}"
            windowed = unbind(measure.formula, [src], hook=over)
            window_columns.append((column_keys[key], windowed))
        return ast.ColumnRef((alias, column_keys[key]))

    def rewrite(expr: Optional[ast.Expression]) -> Optional[ast.Expression]:
        def visit(node: ast.Node):
            site = expander.binder.sites.get(id(node))
            return None if site is None else window_column_for(site)

        return None if expr is None else transform_topdown(expr, visit)

    # A bare measure column of the query's own output is evaluated over the
    # output's dimensions: the binder's ``materialize_measures`` says which.
    new_items = []
    for item, column, expr in zip(
        bound.items, bound.relation.columns, materialized(bound.relation)
    ):
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
            dims.append(ast.SelectItem(unbind(dim, [src]), column.name))
    derived = ast.Select(
        items=dims + [ast.SelectItem(expr, name) for name, expr in window_columns],
        from_clause=source,
        where=and_all([unbind(pred, [src]) for pred in source_sql.where]),
    )
    return ast.Select(
        items=new_items,
        from_clause=ast.SubqueryRef(derived, alias),
        where=new_where,
        qualify=new_qualify,
        windows=select.windows,
        order_by=new_order,
        limit=select.limit,
        offset=select.offset,
    )
