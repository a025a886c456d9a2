"""Alternative measure-rewrite strategies (paper sections 5.1 and 6.4).

The general correlated-subquery expansion (:mod:`repro.core.expansion`) is,
as the paper notes, "general-purpose but not very efficient".  Two special
shapes admit cheaper rewrites:

* :func:`inline_expand` — "in simple cases (such as a query with GROUP BY and
  no JOIN) it may be valid to inline the measure definition": a plain
  aggregate query over one measure table, where every measure use carries the
  default VISIBLE context, becomes an ordinary GROUP BY over the source
  (the paper's Listing 3 rewritten back to Listing 1);

* :func:`window_expand` — the correspondence of section 5.1: a row-grain
  measure use whose context is an equality partition, and a correlated
  subquery that aggregates the query's own table on equal columns, both
  become a window aggregate computed in a derived table (Listing 12's
  queries 4 and 1 rewritten to query 3; for the subquery this is WinMagic).

Both print the same bind the general strategy prints — the call sites'
``ContextSpec``\\ s, the relation's dimensions, the group's source, a
subquery's bound SELECT — through :func:`~repro.semantics.unbind.unbind`:
inline over a name function that maps the measure relation's offsets to its
dimension expressions, window with the aggregate calls printed as window
calls.  Each raises
:class:`~repro.errors.UnsupportedError` when the query does not match its
shape, so callers can fall back to the general strategy.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Optional

from repro.catalog.objects import BaseTable, View
from repro.core.expansion import Expander, materialized, output_order
from repro.core.modifiers import BoundVisible, BoundWhere
from repro.engine.aggregates import make_accumulator
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


def _single_relation(
    expander: Expander, query: ast.Query, strategy: str
) -> tuple[ast.Select, BoundSelect, Relation]:
    """What ``expander`` bound of ``query``, which must be one SELECT with a
    plain GROUP BY, if any, over exactly one relation; and a fresh start for
    printing it."""
    expander.restart()
    if not isinstance(query, ast.Select):
        raise UnsupportedError(f"{strategy} strategy requires a plain SELECT")
    if query.from_clause is None or isinstance(query.from_clause, ast.Join):
        raise UnsupportedError("strategy requires a single-table FROM clause")
    if any(not isinstance(e, ast.SimpleGrouping) for e in query.group_by):
        raise UnsupportedError(f"{strategy} strategy requires a plain GROUP BY")
    bound = expander.binder.selects[id(query)]
    (relation,) = bound.scope.relations
    return query, bound, relation


def inline_expand(expander: Expander, query: ast.Query, *, tracer=None) -> ast.Query:
    """Inline measure formulas into a simple GROUP BY query.

    Shape: ``SELECT g..., AGGREGATE(m)... FROM MT [WHERE w] GROUP BY g...``
    over a single measure table with no AT modifiers.  The result reads the
    source directly — one scan, no correlated subqueries.
    """
    select, bound, relation = _single_relation(expander, query, "inline")
    if relation.group is None:
        raise UnsupportedError("strategy requires one measure-bearing relation")
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


def window_expand(expander: Expander, query: ast.Query, *, tracer=None) -> ast.Query:
    """Rewrite row-grain measure uses and correlated subqueries to window
    aggregates (section 5.1).

    Shape: a non-aggregate query over a single relation whose every call
    site is one of

    * a measure use, bare (row grain: partition by the context's
      dimensions) or ``m AT (WHERE dim = alias.dim AND ...)`` (partition by
      those dimensions): Listing 12's query 4;
    * a scalar subquery that is one aggregate over the query's own table
      (a base table or a view without measures), each of whose WHERE
      conjuncts pins an inner column to the same column of the outer row
      (``=`` or ``IS NOT DISTINCT FROM``): query 1.  This is WinMagic
      (Zuzarte et al., SIGMOD 2003), read off the bind.

    Each becomes query 3: the aggregate calls as window calls over the
    partition, computed in a derived table so that the WHERE clause can
    reference them.  A key pinned by ``=`` matches no row when it is NULL,
    where ``PARTITION BY`` would gather the NULL-key rows; so those calls
    aggregate ``CASE WHEN <every such key> IS NOT NULL THEN arg END``.
    """
    select, bound, relation = _single_relation(expander, query, "window")
    if bound.group_exprs is not None:
        raise UnsupportedError(
            "window strategy applies to row-grain (non-aggregate) queries"
        )
    if select.distinct:
        raise UnsupportedError("window strategy does not support DISTINCT")
    # The derived table's rows are the relation's, and ``dims`` gives each
    # of its columns over ``src``, the derived table's source row: the
    # measure source's dimensions (its WHERE baked in), or the query's own
    # FROM row itself (its WHERE applied outside, after the windows).
    if relation.group is not None:
        source_sql = relation.group.source_sql
        baked = source_sql.where
        dims = relation.dim_for_offset
    else:
        source_sql, baked = bound, ()
        dims = {
            column.offset: b.BoundColumn(column.offset, column.dtype, column.name)
            for column in relation.columns
        }
    source, src = expander.instantiate(source_sql, "i")
    alias = relation.alias or expander.fresh_alias("t")
    #: What a column computes -> (its name, its window expression).
    window_columns: dict[tuple, tuple[str, ast.Expression]] = {}

    def pinned(pairs) -> list[tuple[b.BoundExpr, bool]]:
        """``(dim, value, guarded)`` triples as partition keys: every value
        must be the same dimension of the call-site row."""
        for dim, value, _ in pairs:
            outer = isinstance(value, b.BoundOuterColumn) and value.depth == 1
            other = dims.get(value.offset) if outer else None
            if other is None or b.fingerprint(other) != b.fingerprint(dim):
                raise UnsupportedError(
                    "window strategy requires conjuncts of the form "
                    "dim = alias.dim, on the same dimension"
                )
        return [(dim, guarded) for dim, _, guarded in pairs]

    def partition_of(spec) -> list[tuple[b.BoundExpr, bool]]:
        """The context as an equality partition of the source: the group
        terms, or an AT WHERE whose every conjunct is ``dim = alias.dim``."""
        if not spec.modifiers:
            return [(term.source_expr, False) for term in spec.group_terms]
        if len(spec.modifiers) > 1 or not isinstance(spec.modifiers[0], BoundWhere):
            raise UnsupportedError(
                "window strategy supports one AT (WHERE ...) modifier at most"
            )
        where = spec.modifiers[0]
        residual = [] if where.pred is None else [(where.pred, None, False)]
        return pinned([(dim, value, True) for dim, value in where.eq_pairs] + residual)

    def window_column(
        label: str, key: tuple, printed: b.BoundExpr, frames: list, partition
    ) -> ast.Expression:
        """The derived table's column computing ``printed`` over ``frames``
        with each aggregate call windowed over ``partition``."""
        key = (*key, *[(b.fingerprint(d), guarded) for d, guarded in partition])
        if key not in window_columns:
            over = lambda node: _windowed(node, partition, src)  # noqa: E731
            name = f"__{label}_{len(window_columns)}"
            window_columns[key] = name, unbind(printed, frames, hook=over)
        return ast.ColumnRef((alias, window_columns[key][0]))

    def measure_column(site: b.BoundMeasureEval) -> ast.Expression:
        measure = site.measure
        if measure.group.source_sql is not source_sql:
            raise UnsupportedError(
                "window strategy: the query's WHERE is baked into the "
                "measures it re-exports"
            )
        key = (measure.name.lower(), b.fingerprint(measure.formula))
        partition = partition_of(site.context)
        return window_column(measure.name, key, measure.formula, [src], partition)

    def subquery_column(node: ast.Expression) -> ast.Expression:
        """A scalar subquery as a window column: the row it reads is the
        query's own row, so its columns are spelled over ``src`` too."""
        subquery = node.query  # type: ignore[attr-defined]
        sub = expander.binder.selects.get(id(subquery))
        table = _catalog_table(expander.db, select.from_clause)
        if not (
            isinstance(node, ast.ScalarSubquery)
            and relation.group is None
            and table is not None
            and isinstance(subquery, ast.Select)
            and _catalog_table(expander.db, subquery.from_clause) is table
            and sub.group_exprs == []
            and not any([sub.having, subquery.qualify, subquery.limit, subquery.offset])
        ):
            raise UnsupportedError(
                "window strategy: a subquery must be a scalar aggregate over "
                "the query's own table"
            )
        partition = pinned([_correlation(conjunct) for conjunct in sub.where])
        (item,) = sub.item_exprs
        key = ("", b.fingerprint(item), b.fingerprint(sub.agg_calls))
        slot = lambda index: _windowed(sub.agg_calls[index], partition, src)  # noqa: E731
        return window_column("w", key, item, [slot, src], partition)

    def rewrite(expr: Optional[ast.Expression]) -> Optional[ast.Expression]:
        def visit(node: ast.Node):
            site = expander.binder.sites.get(id(node))
            if site is not None:
                return measure_column(site)
            if isinstance(node, (ast.ScalarSubquery, ast.Exists, ast.InSubquery)):
                return subquery_column(node)
            return None

        return None if expr is None else transform_topdown(expr, visit)

    # A bare measure column of the query's own output is evaluated over the
    # output's dimensions: the binder's ``materialize_measures`` says which.
    new_items = [
        ast.SelectItem(
            measure_column(expr) if column.is_measure else rewrite(item.expr),
            column.name,
        )
        for item, column, expr in zip(
            bound.items, bound.relation.columns, materialized(bound.relation)
        )
    ]
    new_where = rewrite(select.where)
    new_qualify = rewrite(select.qualify)
    new_order = [
        ast.OrderItem(rewrite(o.expr), o.descending, o.nulls_first)
        for o in select.order_by
    ]

    if not window_columns:
        raise UnsupportedError("query has no call site to rewrite")
    if tracer is not None:
        tracer.current.meta["window_columns"] = len(window_columns)

    items = []
    for column in relation.columns:
        if not column.is_measure:
            dim = dims.get(column.offset)
            if dim is None:
                raise UnsupportedError(
                    f"window strategy: {column.name!r} is not a dimension"
                )
            items.append(ast.SelectItem(unbind(dim, [src]), column.name))
    items += [ast.SelectItem(expr, name) for name, expr in window_columns.values()]
    derived = ast.Select(
        items=items,
        from_clause=source,
        where=and_all([unbind(pred, [src]) for pred in baked]),
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


def _catalog_table(db: "Database", ref: Optional[ast.TableRef]):
    """The base table or measure-free view a lone FROM item names (no CTE
    is in scope of a plain top-level SELECT), else None."""
    table = isinstance(ref, ast.TableName) and db.catalog.get(ref.name)
    return table if isinstance(table, (BaseTable, View)) else None


def _correlation(conjunct: b.BoundExpr) -> tuple:
    """A subquery's WHERE conjunct ``inner = outer`` (either order) as
    ``(inner, outer, guarded)``: under ``=`` a NULL matches nothing, under
    ``IS NOT DISTINCT FROM`` the NULLs.  Anything else pairs with no outer
    value, which pins nothing."""
    if isinstance(conjunct, b.BoundCall) and conjunct.op in ("=", "IS NOT DISTINCT"):
        inner, outer = conjunct.args
        if isinstance(inner, b.BoundOuterColumn):
            inner, outer = outer, inner
        return inner, outer, conjunct.op == "="
    return conjunct, None, False


def _windowed(node: b.BoundExpr, partition: list, src) -> Optional[ast.Expression]:
    """An aggregate call as a window call over ``partition``, its argument
    NULL-guarded by the keys that must be non-NULL to match anything; None
    for any other node."""
    if not isinstance(node, b.BoundAggCall):
        return None
    if node.filter_where is not None or node.order_by or node.within_distinct:
        raise UnsupportedError(
            "window strategy: a window call takes no FILTER, "
            "ORDER BY or WITHIN DISTINCT"
        )
    if b.max_outer_depth(node):
        raise UnsupportedError(
            "window strategy: an aggregate argument reads the outer row"
        )
    call = unbind(node, [src])
    guards = [ast.IsNull(unbind(d, [src]), negated=True) for d, null in partition if null]
    if guards:
        # Over a NULL key the subquery aggregates no row; here every
        # argument is NULL, which only an aggregate that skips NULLs reads
        # as no row.
        if node.star:
            call = replace(call, star_arg=False, args=[ast.Literal(1)])
        elif not make_accumulator(node.func).skips_nulls:
            raise UnsupportedError(
                f"window strategy: {node.func} reads NULL inputs, so a NULL "
                "key cannot be guarded"
            )
        guarded = ast.Case(None, [ast.CaseWhen(and_all(guards), call.args[0])], None)
        call = replace(call, args=[guarded, *call.args[1:]])
    keys = [unbind(d, [src]) for d, _ in partition]
    return replace(call, over=ast.WindowSpec(partition_by=keys))
