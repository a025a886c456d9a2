"""Static expansion of measures to plain SQL (paper sections 3.3 and 4.2).

Every measure reference can be rewritten to a correlated scalar subquery over
the measure's source table whose WHERE clause expresses the evaluation
context (Listing 5).  The input is a query using measures, the output is
measure-free SQL that the same engine (or any SQL engine) can run, and
equivalence with the top-down interpreter is property-tested.

Example (the paper's Listing 3 becomes its Listing 5)::

    SELECT prodName, AGGREGATE(profitMargin)
    FROM EnhancedOrders GROUP BY prodName

expands to::

    SELECT prodName,
           (SELECT (SUM(i1.revenue) - SUM(i1.cost)) / SUM(i1.revenue)
            FROM Orders AS i1
            WHERE i1.prodName IS NOT DISTINCT FROM EnhancedOrders.prodName)
    FROM (SELECT orderDate, prodName FROM Orders) AS EnhancedOrders
    GROUP BY prodName

**The expansion is a projection of the bound query.**  There is one
definition of a measure's context, the binder's; this module resolves no
name and derives no context.  The query is prepared at the AST level (views
inlined, FROM subqueries aliased, grouping sets rewritten to a UNION ALL of
plain branches), bound once by the ordinary :class:`Binder`, and then every
measure call site the binder recorded is printed from what it bound to:
the formula from ``MeasureInstance.formula``, the FROM and baked WHERE from
``MeasureGroup.source_sql``, the context from the site's ``ContextSpec``
through the one modifier algebra (:func:`repro.core.modifiers.apply_modifiers`),
each bound expression turned back into SQL by
:func:`repro.semantics.unbind.unbind`.

Scope: everything the interpreter runs whose context ``unbind`` can print —
plain and grouped queries, GROUP BY aliases and ordinals, DISTINCT,
re-exported measures, row-grain call sites, all AT modifiers, grouping sets,
VISIBLE within one relation (the query's conjuncts over the candidate row)
and across join inputs (an ``EXISTS`` over a copy of the query's FROM).  What
it cannot print — a measure composed from other measures, a subquery inside
a measure definition or a VISIBLE conjunct — raises the one
:class:`~repro.errors.UnsupportedError` of ``unbind``; it never prints
different rows.  The ``inline`` and ``window`` strategies in
:mod:`repro.core.strategies` cover the special shapes of paper section 6.4.
A ``?`` copied into a measure's subquery keeps its parameter index in the
expanded AST; the printed text shows one ``?`` per *use*.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Optional

from repro.catalog.objects import View
from repro.core.modifiers import BoundSet, BoundWhere, apply_modifiers
from repro.errors import UnsupportedError
from repro.semantics import bound as b
from repro.semantics.binder import (
    Binder,
    BoundSelect,
    FromSql,
    materialize_measures,
)
from repro.semantics.unbind import unbind
from repro.sql import ast
from repro.sql.printer import to_sql
from repro.sql.visitor import and_all, transform_topdown

if TYPE_CHECKING:  # pragma: no cover
    from repro.api import Database

__all__ = [
    "EXPANSION_STRATEGIES",
    "expand_to_sql",
    "expand_query_ast",
    "Expander",
]

#: The strategy names :func:`expand_query_ast` dispatches on.
EXPANSION_STRATEGIES = ("subquery", "inline", "window", "winmagic", "auto")


def expand_to_sql(
    db: "Database", query: ast.Query, *, strategy: str = "subquery", tracer=None
) -> str:
    """Expand ``query``'s measures and render the result as SQL text."""
    return to_sql(expand_query_ast(db, query, strategy=strategy, tracer=tracer))


def _traced_attempt(tracer, name: str, thunk):
    """Run one strategy attempt under an ``expand:<name>`` span (if any),
    recording whether the shape was supported."""
    if tracer is None:
        return thunk()
    span = tracer.begin(f"expand:{name}", "expand")
    try:
        result = thunk()
    except UnsupportedError:
        if span is not None:
            span.meta["outcome"] = "unsupported"
        tracer.end(span)
        raise
    if span is not None:
        span.meta["outcome"] = "ok"
    tracer.end(span)
    return result


def expand_query_ast(
    db: "Database", query: ast.Query, *, strategy: str = "subquery", tracer=None
) -> ast.Query:
    if strategy == "auto":
        # Cheapest shape first: inline produces a plain GROUP BY, window a
        # single-pass window query, subquery the general (but correlated)
        # form.  The specialized strategies reject unsupported shapes with
        # UnsupportedError, so the cascade is safe.
        for candidate in ("inline", "window"):
            try:
                return expand_query_ast(
                    db, query, strategy=candidate, tracer=tracer
                )
            except UnsupportedError:
                continue
        return expand_query_ast(db, query, strategy="subquery", tracer=tracer)
    if strategy == "subquery":
        return _traced_attempt(
            tracer,
            "subquery",
            lambda: Expander(db).expand_query(copy.deepcopy(query)),
        )
    if strategy == "inline":
        from repro.core.strategies import inline_expand

        return _traced_attempt(
            tracer,
            "inline",
            lambda: inline_expand(db, copy.deepcopy(query), tracer=tracer),
        )
    if strategy == "window":
        from repro.core.strategies import window_expand

        return _traced_attempt(
            tracer,
            "window",
            lambda: window_expand(db, copy.deepcopy(query), tracer=tracer),
        )
    if strategy == "winmagic":
        # Section 6.3: expand to the general correlated-subquery form,
        # then de-correlate it into window aggregates.  Raises
        # UnsupportedError when the expanded shape is not a WinMagic
        # pattern, so the strategy composes with the others' contract.
        from repro.core.winmagic import winmagic_rewrite

        def _winmagic() -> ast.Query:
            expanded = Expander(db).expand_query(copy.deepcopy(query))
            if isinstance(expanded, ast.Select):
                expanded.from_clause = _collapse_identity_projection(
                    expanded.from_clause
                )
            return winmagic_rewrite(db, expanded, tracer=tracer)

        return _traced_attempt(tracer, "winmagic", _winmagic)
    raise UnsupportedError(f"unknown expansion strategy {strategy!r}")


def _collapse_identity_projection(
    from_clause: Optional[ast.TableRef],
) -> Optional[ast.TableRef]:
    """``(SELECT c AS c, ... FROM T) AS o`` -> ``T AS o`` when trivial.

    The subquery expander wraps the source table in an identity
    projection of the referenced columns; WinMagic wants the bare table.
    Collapsing is only done when the inner query is a pure column-list
    projection of a single base table — no predicate, grouping, DISTINCT,
    ordering, or computed item — so it never changes row multiplicity or
    values.
    """
    if not isinstance(from_clause, ast.SubqueryRef):
        return from_clause
    inner = from_clause.query
    if not isinstance(inner, ast.Select):
        return from_clause
    if not isinstance(inner.from_clause, ast.TableName):
        return from_clause
    if (
        inner.where is not None
        or inner.group_by
        or inner.having is not None
        or inner.qualify is not None
        or inner.order_by
        or inner.limit is not None
        or inner.offset is not None
        or inner.distinct
        or inner.from_clause.alias is not None
    ):
        return from_clause
    for item in inner.items:
        if not isinstance(item.expr, ast.ColumnRef) or len(item.expr.parts) != 1:
            return from_clause
        if item.alias is not None and item.alias.lower() != item.expr.name.lower():
            return from_clause
    return ast.TableName(inner.from_clause.name, alias=from_clause.alias)


# ---------------------------------------------------------------------------
# The expander
# ---------------------------------------------------------------------------

#: How a row is spelled: offset -> the SQL expression reading that column.
Names = Callable[[int], ast.Expression]

#: Expression nodes that hold a nested query.
_QUERY_HOLDERS = (ast.SubqueryRef, ast.ScalarSubquery, ast.Exists, ast.InSubquery)


def _same_level(node: ast.Node):
    """The nodes of one query level below ``node``: a nested query is
    yielded, not entered."""
    for child in node.children():
        yield child
        if not isinstance(child, ast.Query):
            yield from _same_level(child)


@dataclass
class _Level:
    """One SELECT being printed, and how the rows around it are spelled."""

    bound: BoundSelect
    row: Names  # its FROM row
    outer: list  # the rows of the enclosing levels, innermost first
    #: The row a call site outside WHERE / ON sits on: the Aggregate's output
    #: in an aggregate query (keys, then aggregate calls), else ``row``.
    site: Names


@dataclass
class _SqlTerm:
    """One conjunct of an evaluation context, as SQL.  ``value`` is what
    ``CURRENT dim`` reads off it (dimension terms only)."""

    dim_key: Optional[str]
    predicate: ast.Expression
    value: Optional[ast.Expression] = None


class Expander:
    """Rewrites measure references into correlated scalar subqueries."""

    def __init__(self, db: "Database"):
        self.db = db
        self._alias_counter = 0
        self.binder = Binder(db.catalog)

    def fresh_alias(self, prefix: str = "i") -> str:
        self._alias_counter += 1
        return f"{prefix}{self._alias_counter}"

    def expand_query(self, query: ast.Query) -> ast.Query:
        query = self.bind(query)
        self._rewrite_query(query, [], top=True)
        return query

    # -- prepare and bind -----------------------------------------------------

    def bind(self, query: ast.Query) -> ast.Query:
        """``query`` (changed in place) made ready — views inlined, every
        FROM subquery aliased, grouping sets a UNION ALL of plain branches —
        and bound once: ``self.binder`` then knows every SELECT of the
        returned tree and every measure call site in it."""
        query = self._prepare(query, {})
        self.binder.bind_query_top(query)
        return query

    def _prepare(self, query: ast.Query, ctes: dict) -> ast.Query:
        """``ctes`` maps the lowered name of each CTE in scope to the name it
        is printed under."""
        if isinstance(query, ast.WithQuery):
            for cte in query.ctes:
                cte.query = self._prepare(cte.query, ctes)
                name = cte.name
                if self.db.catalog.get(name) is not None:
                    # The printed SQL inlines views and names measure sources
                    # where this CTE is in scope; those names mean the
                    # catalog's objects, so the CTE takes a fresh name.
                    cte.name = self._fresh_cte_name()
                ctes = {**ctes, name.lower(): cte.name}
            query.body = self._prepare(query.body, ctes)
        elif isinstance(query, ast.SetOp):
            query.left = self._prepare(query.left, ctes)
            query.right = self._prepare(query.right, ctes)
        elif isinstance(query, ast.Select):
            views: set = set()
            if query.from_clause is not None:
                query.from_clause = self._prepare_from(query.from_clause, ctes, views)
            for node in _same_level(query):
                if isinstance(node, _QUERY_HOLDERS):
                    # An inlined view's names resolve in the catalog, as the
                    # binder binds it (Binder.bind_view): no CTE is in scope.
                    scope = {} if id(node) in views else ctes
                    node.query = self._prepare(node.query, scope)
            if any(not isinstance(e, ast.SimpleGrouping) for e in query.group_by):
                return self._expand_grouping_sets(query)
        return query

    def _fresh_cte_name(self) -> str:
        name = self.fresh_alias("w")
        while self.db.catalog.get(name) is not None:
            name = self.fresh_alias("w")
        return name

    def _prepare_from(self, ref: ast.TableRef, ctes: dict, views: set) -> ast.TableRef:
        """``views`` collects the ids of the refs that inline a view."""
        if isinstance(ref, ast.Join):
            ref.left = self._prepare_from(ref.left, ctes, views)
            ref.right = self._prepare_from(ref.right, ctes, views)
        elif isinstance(ref, ast.TableName):
            printed = ctes.get(ref.name.lower())
            if printed is not None:
                if printed.lower() != ref.name.lower():
                    ref.alias = ref.alias or ref.name
                    ref.name = printed
                return ref
            view = self.db.catalog.get(ref.name)
            if isinstance(view, View):
                inlined = ast.SubqueryRef(self._view_query(view), ref.alias or view.name)
                views.add(id(inlined))
                return inlined
        elif isinstance(ref, ast.SubqueryRef):
            ref.alias = ref.alias or self.fresh_alias("t")
        else:
            raise UnsupportedError(f"cannot expand {type(ref).__name__} in FROM")
        return ref

    def _view_query(self, view: View) -> ast.Query:
        """A private copy of the view's query, its items named as the view
        names its columns (:meth:`Binder.bind_view`)."""
        query = copy.deepcopy(view.query)
        if view.column_names:
            if not isinstance(query, ast.Select) or any(
                isinstance(item.expr, ast.Star) for item in query.items
            ):
                raise UnsupportedError(
                    f"cannot expand view {view.name!r}: its column list renames "
                    "the columns of a * or of a set operation"
                )
            for item, column in zip(query.items, self.binder.bind_view(view).columns):
                item.alias = column.name
        return query

    def _expand_grouping_sets(self, select: ast.Select) -> ast.Query:
        """Rewrite ROLLUP/CUBE/GROUPING SETS as a UNION ALL of plain GROUP BY
        branches, each bound and printed like any other query (so measures
        work under grouping sets too — the paper's Listing 8 becomes
        statically expandable).  Under DISTINCT the branches are joined by
        UNION: the grouping sets are one bag of rows, deduplicated whole.

        Per branch: inactive grouping keys become NULL literals in the
        projection and GROUPING/GROUPING_ID calls become constants.
        """
        registry: dict[str, ast.Expression] = {}

        def register(expr: ast.Expression) -> str:
            key = to_sql(expr)
            registry.setdefault(key, expr)
            return key

        element_sets: list[list[list[str]]] = []
        for element in select.group_by:
            if isinstance(element, ast.SimpleGrouping):
                element_sets.append([[register(element.expr)]])
            elif isinstance(element, ast.Rollup):
                keys = [register(e) for e in element.exprs]
                element_sets.append(
                    [keys[:i] for i in range(len(keys), -1, -1)]
                )
            elif isinstance(element, ast.Cube):
                keys = [register(e) for e in element.exprs]
                sets = []
                for mask in range(1 << len(keys)):
                    sets.append(
                        [keys[i] for i in range(len(keys)) if mask & (1 << i)]
                    )
                sets.sort(key=len, reverse=True)
                element_sets.append(sets)
            elif isinstance(element, ast.GroupingSets):
                element_sets.append(
                    [[register(e) for e in group] for group in element.sets]
                )
            else:  # pragma: no cover - parser guarantees
                raise UnsupportedError(type(element).__name__)

        grouping_sets: list[list[str]] = [[]]
        for sets in element_sets:
            grouping_sets = [
                existing + candidate
                for existing in grouping_sets
                for candidate in sets
            ]

        branches: list[ast.Query] = []
        for keys in grouping_sets:
            active: list[str] = []
            for key in keys:
                if key not in active:
                    active.append(key)
            branch = ast.Select(
                items=copy.deepcopy(select.items),
                from_clause=copy.deepcopy(select.from_clause),
                where=copy.deepcopy(select.where),
                group_by=[
                    ast.SimpleGrouping(copy.deepcopy(registry[key]))
                    for key in active
                ],
                having=copy.deepcopy(select.having),
                force_aggregate=True,
            )
            active_set = set(active)
            transform = _GroupingSetBranch(registry, active_set).transform
            branch.items = [
                ast.SelectItem(transform(item.expr), item.alias, item.is_measure)
                for item in branch.items
            ]
            if branch.having is not None:
                branch.having = transform(branch.having)
            branches.append(branch)

        union: ast.Query = branches[0]
        for branch in branches[1:]:
            union = ast.SetOp("UNION", not select.distinct, union, branch)
        if isinstance(union, ast.Select):
            union.distinct = select.distinct

        if select.order_by and isinstance(union, ast.Select):
            # A single grouping set degenerates to one plain branch.
            union.order_by = copy.deepcopy(select.order_by)
        elif select.order_by:
            item_keys = [to_sql(item.expr) for item in select.items]
            mapped: list[ast.OrderItem] = []
            for order_item in select.order_by:
                expr = order_item.expr
                if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
                    mapped.append(order_item)
                    continue
                key = to_sql(expr)
                if key in item_keys:
                    mapped.append(
                        ast.OrderItem(
                            ast.Literal(item_keys.index(key) + 1),
                            order_item.descending,
                            order_item.nulls_first,
                        )
                    )
                    continue
                aliases = [
                    (item.alias or "").lower() for item in select.items
                ]
                if (
                    isinstance(expr, ast.ColumnRef)
                    and len(expr.parts) == 1
                    and expr.parts[0].lower() in aliases
                ):
                    mapped.append(
                        ast.OrderItem(
                            ast.Literal(aliases.index(expr.parts[0].lower()) + 1),
                            order_item.descending,
                            order_item.nulls_first,
                        )
                    )
                    continue
                raise UnsupportedError(
                    "ORDER BY on a grouping-set expansion must reference "
                    "output columns"
                )
            union.order_by = mapped
        if select.limit is not None:
            union.limit = copy.deepcopy(select.limit)  # type: ignore[union-attr]
        if select.offset is not None:
            union.offset = copy.deepcopy(select.offset)  # type: ignore[union-attr]
        return union

    # -- print what was bound ---------------------------------------------------

    def _rewrite_query(self, query: ast.Query, outer: list, *, top: bool) -> None:
        """Replace, in place, every measure call site of ``query`` by its
        subquery.  ``top``: the binder materialized the query's measure
        columns (``bind_query_top``: a statement, a set-operation branch, a
        subquery in an expression); otherwise they stay virtual and are
        dropped from the SELECT list (a FROM item, a CTE)."""
        if isinstance(query, ast.WithQuery):
            for cte in query.ctes:
                self._rewrite_query(cte.query, outer, top=False)
            self._rewrite_query(query.body, outer, top=top)
        elif isinstance(query, ast.SetOp):
            self._rewrite_query(query.left, outer, top=True)
            self._rewrite_query(query.right, outer, top=True)
        elif isinstance(query, ast.Select):
            self._rewrite_select(query, outer, top)

    def _rewrite_select(self, select: ast.Select, outer: list, top: bool) -> None:
        bound = self.binder.selects[id(select)]
        row = self.names(bound)
        site = row
        if bound.group_exprs is not None:
            slots = [*bound.group_exprs, *bound.agg_calls]
            site = lambda slot: unbind(slots[slot], [row] + outer)  # noqa: E731
        level = _Level(bound, row, outer, site)
        if select.from_clause is not None:
            self._rewrite_from(select.from_clause, level)

        if bound.relation.has_measures:
            self._rewrite_measure_columns(select, level, top)
        else:
            for item in select.items:
                if not isinstance(item.expr, ast.Star):
                    item.expr = self._rewrite_expr(item.expr, level, grouped=True)
        select.where = self._rewrite_expr(select.where, level)
        select.having = self._rewrite_expr(select.having, level, grouped=True)
        select.qualify = self._rewrite_expr(select.qualify, level, grouped=True)
        for order_item in select.order_by:
            order_item.expr = self._rewrite_expr(order_item.expr, level, grouped=True)

    def _rewrite_measure_columns(self, select: ast.Select, level: _Level, top: bool):
        """The SELECT list of a query that defines or re-exports measures,
        ``*`` expanded: the measure columns dropped (they stay virtual), or,
        at the top, evaluated the way the binder's ``materialize_measures``
        does — over the *output's* dimensions, offset i of that row being
        the i-th non-measure item."""
        bound = level.bound
        plan, _ = materialize_measures(bound.relation)
        output = lambda i: unbind(  # noqa: E731
            bound.item_exprs[i], [level.row] + level.outer
        )
        items = []
        for item, column, expr in zip(bound.items, bound.relation.columns, plan.exprs):
            if not column.is_measure:
                value = self._rewrite_expr(item.expr, level)
            elif top:
                value = self.measure_subquery(expr, level, [output] + level.outer)
            else:
                continue
            items.append(ast.SelectItem(value, column.name))
        select.items = items

    def _rewrite_from(self, ref: ast.TableRef, level: _Level) -> None:
        if isinstance(ref, ast.Join):
            self._rewrite_from(ref.left, level)
            self._rewrite_from(ref.right, level)
            ref.condition = self._rewrite_expr(ref.condition, level)
        elif isinstance(ref, ast.SubqueryRef):
            self._rewrite_query(ref.query, level.outer, top=False)

    def _rewrite_expr(
        self, expr: Optional[ast.Expression], level: _Level, grouped: bool = False
    ) -> Optional[ast.Expression]:
        """``expr`` with its measure call sites replaced.  ``grouped``: the
        clause sits above the query's Aggregate, if it has one."""
        if expr is None:
            return None
        here = level.site if grouped else level.row
        frames = [here] + level.outer
        # What a subquery in this clause sees one level out: the FROM row —
        # the binder renumbers references into an Aggregate's output only in
        # the plan, not in the contexts this prints from.
        nested = [here if here is level.row else None] + level.outer
        # No group keys: the subquery is the same for every input row, but
        # the query must stay an aggregate query so that it returns exactly
        # one row.  ANY_VALUE keeps that shape; over no input row it is NULL,
        # and the subquery itself is the value.
        lone = grouped and level.bound.group_exprs == []

        def visit(node: ast.Node):
            site = self.binder.sites.get(id(node))
            if site is not None:
                subquery = self.measure_subquery(site, level, frames)
                if not lone:
                    return subquery
                any_value = ast.FunctionCall("ANY_VALUE", [subquery])
                again = self.measure_subquery(site, level, frames)
                return ast.FunctionCall("COALESCE", [any_value, again])
            if isinstance(node, _QUERY_HOLDERS):
                self._rewrite_query(node.query, nested, top=True)
            return None

        return transform_topdown(expr, visit)  # type: ignore[return-value]

    # -- one call site ----------------------------------------------------------

    @staticmethod
    def names(bound: FromSql, aliases: Optional[dict] = None) -> Names:
        """How ``bound``'s FROM row is spelled: ``alias.column`` per offset,
        under the relations' own aliases or ``aliases[id(relation)]``."""
        parts = {
            column.offset: (
                aliases[id(relation)] if aliases else relation.alias,
                column.name,
            )
            for relation in bound.scope.relations
            for column in relation.columns
            if column.offset is not None
        }
        return lambda offset: ast.ColumnRef(parts[offset])

    def instantiate(
        self, bound: FromSql, prefix: str, outer: list = ()
    ) -> tuple[Optional[ast.TableRef], Names]:
        """A copy of ``bound``'s FROM clause under fresh aliases — every join
        condition as the binder bound it, so USING / NATURAL become ON — and
        how a row of it is spelled."""
        relations, joins = iter(bound.scope.relations), iter(bound.joins)
        aliases: dict[int, str] = {}
        conditions: list[tuple[ast.Join, Optional[b.BoundExpr]]] = []

        def copy_of(ref: ast.TableRef) -> ast.TableRef:
            if isinstance(ref, ast.Join):
                join = ast.Join(ref.kind, copy_of(ref.left), copy_of(ref.right))
                conditions.append((join, next(joins)))
                return join
            aliases[id(next(relations))] = alias = self.fresh_alias(prefix)
            if isinstance(ref, ast.TableName):
                return ast.TableName(ref.name, alias)
            return ast.SubqueryRef(copy.deepcopy(ref.query), alias)

        ref = bound.from_clause
        source = None if ref is None else copy_of(ref)
        names = self.names(bound, aliases)
        for join, condition in conditions:
            if condition is not None:
                join.condition = unbind(condition, [names, *outer])
        return source, names

    def measure_subquery(
        self, node: b.BoundMeasureEval, level: _Level, site: list
    ) -> ast.Expression:
        """The paper's rewrite: the measure evaluated at ``node`` as a
        correlated scalar subquery over its source.  ``site`` spells the
        call-site row (and the rows around it) the context's values read."""
        source_sql = node.measure.group.source_sql
        source, src = self.instantiate(source_sql, "i")
        conjuncts = [unbind(pred, [src]) for pred in source_sql.where]
        conjuncts += self.context(node.context, level, src, site)
        inner = ast.Select(
            items=[ast.SelectItem(unbind(node.measure.formula, [src]))],
            from_clause=source,
            where=and_all(conjuncts),
        )
        return ast.ScalarSubquery(inner)

    def context(
        self, spec, level: _Level, src: Names, site: list
    ) -> list[ast.Expression]:
        """The evaluation context ``spec`` builds, as predicates over the
        source row ``src``: its group terms, then its modifiers."""
        make = _SqlTerms(self, level, src, site)
        terms = [
            make.pin(t.dim_key, t.source_expr, unbind(t.value_expr, site))
            for t in spec.group_terms
        ]
        return [t.predicate for t in apply_modifiers(terms, spec, make)]


class _SqlTerms:
    """SQL expansion's terms for :func:`apply_modifiers`: each modifier's
    value stays an expression over the call-site row, correlated."""

    def __init__(self, expander: Expander, level: _Level, src: Names, site: list):
        self.expander = expander
        self.level = level
        self.src = src
        self.site = site

    def pin(self, dim_key, source_expr: b.BoundExpr, value: ast.Expression) -> _SqlTerm:
        source = unbind(source_expr, [self.src])
        return _SqlTerm(dim_key, ast.IsDistinctFrom(source, value, negated=True), value)

    def set_term(self, modifier: BoundSet, terms: list[_SqlTerm]) -> _SqlTerm:
        # CURRENT d: the value the incoming context pins d to, symbolically
        # (unbind prints NULL for an unconstrained one).
        current: dict[str, ast.Expression] = {}
        for term in terms:
            if term.value is not None:
                current.setdefault(term.dim_key, term.value)
        value = unbind(modifier.value_expr, self.site, current)
        return self.pin(modifier.dim_key, modifier.source_expr, value)

    def where_terms(self, modifier: BoundWhere) -> list[_SqlTerm]:
        # The predicate's row is the source row; the call site is one out.
        frames = [self.src] + self.site
        preds = [
            ast.Binary("=", unbind(source, frames), unbind(value, [None] + self.site))
            for source, value in modifier.eq_pairs
        ]
        if modifier.pred is not None:
            preds.append(unbind(modifier.pred, frames))
        return [_SqlTerm(None, pred) for pred in preds]

    def visible_terms(self, spec) -> list[_SqlTerm]:
        """VISIBLE: a source row is visible iff some row of the current
        group still satisfies the query's conjuncts with the measure
        relation's columns replaced by the candidate's dimensions."""
        info = spec.visible
        if info is None:
            return []
        level = self.level
        dims = [
            None if expr is None else unbind(expr, [self.src])
            for expr in info.offset_dim_exprs
        ]

        def substituted(rest: Names) -> Names:
            def name(offset: int) -> ast.Expression:
                if info.range_start <= offset < info.range_end:
                    return dims[offset - info.range_start] or ast.Literal(None)
                return rest(offset)

            return name

        if spec.captured_rows_offset is None or not (
            info.outer or info.keys or info.residual
        ):
            # The witness is the call-site row itself (row grain), or no
            # conjunct reads anything but the candidate: no group to search.
            frames = [substituted(level.row)] + level.outer
            return [_SqlTerm(None, unbind(pred, frames)) for pred in info.preds]
        # The semijoin the interpreter runs, in SQL: a row g of the query's
        # own FROM that passed its WHERE, belongs to the outer row's group,
        # and satisfies the conjuncts with the candidate substituted in.
        bound = level.bound
        source, g = self.expander.instantiate(bound, "g", level.outer)
        frames = [g] + level.outer
        conjuncts = [unbind(pred, frames) for pred in bound.where]
        conjuncts += [
            ast.IsDistinctFrom(unbind(expr, frames), level.site(slot), negated=True)
            for slot, expr in enumerate(bound.group_exprs)
        ]
        # (A WHERE conjunct that reads nothing of the measure relation is
        # already there, unsubstituted.)
        said = {id(p) for p in info.outer} & {id(p) for p in bound.where}
        conjuncts += [
            unbind(pred, [substituted(g)] + level.outer)
            for pred in info.preds
            if id(pred) not in said
        ]
        witness = ast.Select(
            items=[ast.SelectItem(ast.Literal(1))],
            from_clause=source,
            where=and_all(conjuncts),
        )
        return [_SqlTerm(None, ast.Exists(witness))]


class _GroupingSetBranch:
    """Rewrites one grouping-set branch: inactive keys -> NULL, GROUPING ->
    constants; inside ``AT (...)`` only the call site's references."""

    def __init__(self, registry: dict[str, ast.Expression], active: set[str]):
        self.registry = registry
        self.active = active
        self.inactive = [expr for key, expr in registry.items() if key not in active]

    def transform(self, expr: ast.Expression) -> ast.Expression:
        def visit(node: ast.Node):
            if isinstance(node, ast.FunctionCall) and node.name in (
                "GROUPING",
                "GROUPING_ID",
            ):
                bitmap = 0
                for argument in node.args:
                    key = to_sql(argument)
                    if key not in self.registry:
                        raise UnsupportedError(
                            "GROUPING arguments must be grouping expressions"
                        )
                    bitmap = (bitmap << 1) | (0 if key in self.active else 1)
                return ast.Literal(bitmap)
            if isinstance(node, ast.At):
                return replace(
                    node,
                    operand=transform_topdown(node.operand, visit),
                    modifiers=[
                        transform_topdown(modifier, self._call_site)
                        for modifier in node.modifiers
                    ],
                )
            if isinstance(node, ast.Expression):
                key = to_sql(node)
                if key in self.registry and key not in self.active:
                    return ast.Literal(None)
            return None

        return transform_topdown(copy.deepcopy(expr), visit)  # type: ignore[return-value]

    def _call_site(self, node: ast.Node):
        """Inside ``AT (...)`` a bare name is the measure's dimension and
        ``CURRENT dim`` reads the branch's own context; only a qualified
        reference is the call site's column — NULL when its key is inactive
        (by text, or by name against a bare key)."""
        if isinstance(node, ast.ColumnRef) and node.qualifier is not None:
            for key in self.inactive:
                if to_sql(key) == to_sql(node) or (
                    isinstance(key, ast.ColumnRef)
                    and key.qualifier is None
                    and key.name.lower() == node.name.lower()
                ):
                    return ast.Literal(None)
        return None
