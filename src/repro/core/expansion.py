"""Static expansion of measures to plain SQL (paper sections 3.3 and 4.2).

Every measure reference can be rewritten to a correlated scalar subquery over
the measure's source table whose WHERE clause expresses the evaluation
context (Listing 5).  This module implements that rewrite at the AST level:
the input is a query using measures, the output is measure-free SQL that the
same engine (or any SQL engine) can run, and equivalence with the top-down
interpreter is property-tested.

Example (the paper's Listing 3 becomes its Listing 5)::

    SELECT prodName, AGGREGATE(profitMargin)
    FROM EnhancedOrders GROUP BY prodName

expands to::

    SELECT prodName,
           (SELECT (SUM(i1.revenue) - SUM(i1.cost)) / SUM(i1.revenue)
            FROM Orders AS i1
            WHERE i1.prodName IS NOT DISTINCT FROM o.prodName)
    FROM (SELECT orderDate, prodName FROM Orders) AS o
    GROUP BY prodName

Scope: the general correlated-subquery strategy supports plain GROUP BY
queries, row-grain call sites, all AT modifiers, and grouping sets (rewritten
to a UNION ALL of plain branches); measures composed from other measures and
VISIBLE across join inputs are only supported by the interpreter (see
DESIGN.md).  The ``inline`` and ``window`` strategies in
:mod:`repro.core.strategies` cover the special shapes of paper section 6.4.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.catalog.objects import BaseTable, View
from repro.errors import BindError, MeasureError, UnsupportedError
from repro.sql import ast
from repro.sql.printer import to_sql
from repro.sql.visitor import and_all, split_and, transform, transform_topdown

if TYPE_CHECKING:  # pragma: no cover
    from repro.api import Database

__all__ = ["expand_to_sql", "expand_query_ast", "Expander"]


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
# Descriptors
# ---------------------------------------------------------------------------


@dataclass
class ExpTable:
    """Expansion-time description of a measure-bearing relation."""

    #: Exposed non-measure column names (original case), in order.
    columns: list[str]
    #: lower name -> dimension expression over the source (refs unqualified).
    dims: dict[str, ast.Expression]
    #: lower name -> measure formula over the source.
    measures: dict[str, ast.Expression]
    #: The defining query's FROM clause (shared; deep-copied per use).
    source_from: ast.TableRef
    source_where: Optional[ast.Expression]


@dataclass
class ExpRelation:
    """One FROM item as seen by the expander."""

    alias: str
    columns: list[str]  # exposed non-measure column names (original case)
    table: Optional[ExpTable] = None  # set when the relation has measures

    def has_column(self, name: str) -> bool:
        lowered = name.lower()
        return any(c.lower() == lowered for c in self.columns)

    def has_measure(self, name: str) -> bool:
        return self.table is not None and name.lower() in self.table.measures


@dataclass
class _Term:
    """One conjunct of an expansion-time evaluation context."""

    kind: str  # 'dim' or 'pred'
    key: str  # canonical source-expression text ('' for preds)
    source_expr: ast.Expression  # over the scalar subquery's source
    outer_value: Optional[ast.Expression]  # correlated value (dim terms)
    predicate: Optional[ast.Expression] = None  # pred terms

    def to_predicate(self) -> ast.Expression:
        if self.kind == "pred":
            assert self.predicate is not None
            return self.predicate
        assert self.outer_value is not None
        return ast.IsDistinctFrom(self.source_expr, self.outer_value, negated=True)


# ---------------------------------------------------------------------------
# The expander
# ---------------------------------------------------------------------------


class Expander:
    """Rewrites measure references into correlated scalar subqueries."""

    def __init__(self, db: "Database"):
        self.db = db
        self._alias_counter = 0
        self._cte_tables: list[dict[str, tuple[ExpTable, list[str]]]] = []

    def fresh_alias(self, prefix: str = "i") -> str:
        self._alias_counter += 1
        return f"{prefix}{self._alias_counter}"

    # -- queries -------------------------------------------------------------

    def expand_query(self, query: ast.Query) -> ast.Query:
        if isinstance(query, ast.WithQuery):
            return self._expand_with(query)
        if isinstance(query, ast.Select):
            if any(
                not isinstance(e, ast.SimpleGrouping) for e in query.group_by
            ):
                return self._expand_grouping_sets(query)
            select, _ = self._expand_select(query)
            return select
        if isinstance(query, ast.SetOp):
            query.left = self.expand_query(query.left)
            query.right = self.expand_query(query.right)
            return query
        if isinstance(query, ast.Values):
            return query
        raise UnsupportedError(f"cannot expand {type(query).__name__}")

    def _expand_with(self, query: ast.WithQuery) -> ast.Query:
        frame: dict[str, tuple[ExpTable, list[str]]] = {}
        self._cte_tables.append(frame)
        try:
            kept_ctes: list[ast.Cte] = []
            for cte in query.ctes:
                if isinstance(cte.query, ast.Select) and any(
                    item.is_measure for item in cte.query.items
                ):
                    table, stripped = self._measure_table_of(cte.query)
                    frame[cte.name.lower()] = (table, table.columns)
                    kept_ctes.append(ast.Cte(cte.name, cte.columns, stripped))
                else:
                    kept_ctes.append(
                        ast.Cte(cte.name, cte.columns, self.expand_query(cte.query))
                    )
            body = self.expand_query(query.body)
            return ast.WithQuery(kept_ctes, body)
        finally:
            self._cte_tables.pop()

    def _lookup_cte(self, name: str) -> Optional[tuple[ExpTable, list[str]]]:
        lowered = name.lower()
        for frame in reversed(self._cte_tables):
            if lowered in frame:
                return frame[lowered]
        return None

    # -- measure-table extraction ----------------------------------------------

    def _measure_table_of(
        self, select: ast.Select
    ) -> tuple[ExpTable, ast.Select]:
        """Build an ExpTable from a measure-defining SELECT and return the
        stripped (measure-free) version of the query."""
        if select.group_by or select.having is not None:
            raise UnsupportedError(
                "expansion of measures defined in grouped queries is not supported"
            )
        # The defining query's FROM may itself use measures: expand first.
        inner_from = select.from_clause
        if inner_from is None:
            raise UnsupportedError("measure definitions require a FROM clause")
        source_relations: list[ExpRelation] = []
        inner_from = self._expand_from(inner_from, source_relations, [])
        source_scope = _ExpScope(source_relations)

        columns: list[str] = []
        dims: dict[str, ast.Expression] = {}
        measures: dict[str, ast.Expression] = {}
        kept_items: list[ast.SelectItem] = []
        star_columns = self._star_columns(inner_from)

        def add_dim(name: str, expr: ast.Expression) -> None:
            columns.append(name)
            dims[name.lower()] = _mark_source_refs(copy.deepcopy(expr))

        for item in select.items:
            if item.is_measure:
                assert item.alias is not None
                measures[item.alias.lower()] = item.expr
                continue
            if isinstance(item.expr, ast.Star):
                for col in star_columns:
                    add_dim(col, ast.ColumnRef((col,)))
                    kept_items.append(
                        ast.SelectItem(ast.ColumnRef((col,)), col)
                    )
                continue
            name = item.alias or (
                item.expr.name if isinstance(item.expr, ast.ColumnRef) else None
            )
            if name is None:
                raise UnsupportedError(
                    "measure-defining queries must name computed columns"
                )
            add_dim(name, item.expr)
            kept_items.append(ast.SelectItem(item.expr, name))

        # Measures composed from the input's measures cannot be expanded
        # statically (paper section 6.4); the interpreter handles them.
        for formula in measures.values():
            if _contains_measure_use(formula, source_scope):
                raise UnsupportedError(
                    "static expansion of measures composed from other "
                    "measures is not supported; use the interpreter"
                )

        # Resolve sibling measure references by textual inlining, then mark
        # source-side references for the alias rename at use sites.
        measures = _inline_siblings(measures)
        measures = {
            name: _mark_source_refs(formula) for name, formula in measures.items()
        }

        table = ExpTable(
            columns=columns,
            dims=dims,
            measures=measures,
            source_from=inner_from,
            source_where=(
                _mark_source_refs(copy.deepcopy(select.where))
                if select.where is not None
                else None
            ),
        )
        stripped = ast.Select(
            items=kept_items,
            from_clause=inner_from,
            where=select.where,
            distinct=select.distinct,
            order_by=select.order_by,
            limit=select.limit,
            offset=select.offset,
        )
        return table, stripped

    def _star_columns(self, from_clause: ast.TableRef) -> list[str]:
        """Column names produced by ``SELECT *`` over ``from_clause``."""
        if isinstance(from_clause, ast.TableName):
            cte = self._lookup_cte(from_clause.name)
            if cte is not None:
                return list(cte[1])
            obj = self.db.catalog.resolve(from_clause.name)
            if isinstance(obj, BaseTable):
                return [c.name for c in obj.schema.columns]
            assert isinstance(obj, View)
            from repro.semantics.binder import Binder

            bound = Binder(self.db.catalog).bind_query_as_relation(obj.query, None)
            return [c.name for c in bound.columns if not c.is_measure]
        if isinstance(from_clause, ast.SubqueryRef):
            from repro.semantics.binder import Binder

            bound = Binder(self.db.catalog).bind_query_as_relation(
                from_clause.query, None
            )
            return [c.name for c in bound.columns if not c.is_measure]
        if isinstance(from_clause, ast.Join):
            return self._star_columns(from_clause.left) + self._star_columns(
                from_clause.right
            )
        raise UnsupportedError("cannot expand * over this FROM clause")

    # -- SELECT expansion -----------------------------------------------------

    def _expand_select(
        self, select: ast.Select
    ) -> tuple[ast.Select, list[ExpRelation]]:
        relations: list[ExpRelation] = []
        join_conds: list[ast.Expression] = []
        if select.from_clause is not None:
            select.from_clause = self._expand_from(
                select.from_clause, relations, join_conds
            )

        scope = _ExpScope(relations)
        is_aggregate = _detect_aggregate(select)

        # Group terms available to measures at aggregate call sites.
        group_exprs: list[ast.Expression] = []
        if is_aggregate:
            for element in select.group_by:
                group_exprs.append(element.expr)  # type: ignore[union-attr]

        rewriter = _UseRewriter(
            self, scope, select, group_exprs, is_aggregate, join_conds
        )
        for item in select.items:
            if not isinstance(item.expr, ast.Star):
                item.expr = rewriter.rewrite(item.expr, site="select")
        if select.where is not None:
            select.where = rewriter.rewrite(select.where, site="row")
        if select.having is not None:
            select.having = rewriter.rewrite(select.having, site="select")
        for order_item in select.order_by:
            order_item.expr = rewriter.rewrite(order_item.expr, site="select")
        return select, relations

    def _expand_grouping_sets(self, select: ast.Select) -> ast.Query:
        """Rewrite ROLLUP/CUBE/GROUPING SETS as a UNION ALL of plain GROUP BY
        branches, then expand each branch (so measures work under grouping
        sets too — the paper's Listing 8 becomes statically expandable).

        Per branch: inactive grouping keys become NULL literals in the
        projection and GROUPING/GROUPING_ID calls become constants.
        """
        if select.distinct:
            raise UnsupportedError(
                "expansion of DISTINCT with grouping sets is not supported"
            )

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
            branches.append(self.expand_query(branch))

        union: ast.Query = branches[0]
        for branch in branches[1:]:
            union = ast.SetOp("UNION", True, union, branch)

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

    def _expand_from(
        self,
        ref: ast.TableRef,
        relations: list[ExpRelation],
        join_conds: list[ast.Expression],
    ) -> ast.TableRef:
        if isinstance(ref, ast.TableName):
            cte = self._lookup_cte(ref.name)
            if cte is not None:
                table, columns = cte
                relations.append(
                    ExpRelation(ref.alias or ref.name, list(columns), table)
                )
                return ref
            obj = self.db.catalog.resolve(ref.name)
            if isinstance(obj, BaseTable):
                relations.append(
                    ExpRelation(
                        ref.alias or ref.name,
                        [c.name for c in obj.schema.columns],
                    )
                )
                return ref
            assert isinstance(obj, View)
            view_query = copy.deepcopy(obj.query)
            return self._relation_from_query(
                view_query, ref.alias or obj.name, relations
            )
        if isinstance(ref, ast.SubqueryRef):
            alias = ref.alias or self.fresh_alias("t")
            return self._relation_from_query(ref.query, alias, relations)
        if isinstance(ref, ast.Join):
            ref.left = self._expand_from(ref.left, relations, join_conds)
            ref.right = self._expand_from(ref.right, relations, join_conds)
            if ref.condition is not None:
                join_conds.append(ref.condition)
            elif ref.using:
                for name in ref.using:
                    left_rel = _owner_of(relations[:-1], name)
                    right_rel = relations[-1]
                    if left_rel is not None:
                        join_conds.append(
                            ast.Binary(
                                "=",
                                ast.ColumnRef((left_rel.alias, name)),
                                ast.ColumnRef((right_rel.alias, name)),
                            )
                        )
            return ref
        raise UnsupportedError(f"cannot expand {type(ref).__name__} in FROM")

    def _relation_from_query(
        self, query: ast.Query, alias: str, relations: list[ExpRelation]
    ) -> ast.TableRef:
        if isinstance(query, ast.Select) and any(
            item.is_measure for item in query.items
        ):
            table, stripped = self._measure_table_of(query)
            relations.append(ExpRelation(alias, list(table.columns), table))
            return ast.SubqueryRef(stripped, alias)
        expanded = self.expand_query(query)
        from repro.semantics.binder import Binder

        bound = Binder(self.db.catalog).bind_query_as_relation(expanded, None)
        relations.append(
            ExpRelation(alias, [c.name for c in bound.columns])
        )
        return ast.SubqueryRef(expanded, alias)

    # -- scalar-subquery construction -------------------------------------------

    def build_measure_subquery(
        self,
        relation: ExpRelation,
        measure_name: str,
        terms: list[_Term],
    ) -> ast.ScalarSubquery:
        """The paper's rewrite: measure -> correlated scalar subquery."""
        table = relation.table
        assert table is not None
        source, rename = self._instantiate_source(table)
        formula = _apply_rename(copy.deepcopy(table.measures[measure_name.lower()]), rename)
        conjuncts: list[ast.Expression] = []
        if table.source_where is not None:
            conjuncts.append(
                _apply_rename(copy.deepcopy(table.source_where), rename)
            )
        for term in terms:
            pred = term.to_predicate()
            conjuncts.append(_apply_rename(pred, rename))
        where = and_all(conjuncts)
        inner = ast.Select(
            items=[ast.SelectItem(formula)],
            from_clause=source,
            where=where,
        )
        return ast.ScalarSubquery(inner)

    def _instantiate_source(
        self, table: ExpTable
    ) -> tuple[ast.TableRef, dict[str, str]]:
        """Deep-copy the measure source with fresh aliases.

        Returns the copied FROM tree and the alias-rename map (old lower
        name -> new alias), used to re-qualify references in the formula,
        dimension expressions, and baked WHERE clause.
        """
        source = copy.deepcopy(table.source_from)
        rename: dict[str, str] = {}
        alias_map: dict[str, str] = {}

        def assign(ref: ast.TableRef) -> None:
            if isinstance(ref, ast.TableName):
                old = (ref.alias or ref.name).lower()
                ref.alias = self.fresh_alias()
                rename[old] = ref.alias
                alias_map[old] = ref.alias
            elif isinstance(ref, ast.SubqueryRef):
                old = (ref.alias or "").lower()
                ref.alias = self.fresh_alias()
                if old:
                    rename[old] = ref.alias
                    alias_map[old] = ref.alias
            elif isinstance(ref, ast.Join):
                assign(ref.left)
                assign(ref.right)
                if ref.condition is not None:
                    ref.condition = _rename_plain_qualifiers(
                        ref.condition, alias_map
                    )

        assign(source)
        if isinstance(source, (ast.TableName, ast.SubqueryRef)):
            rename[""] = source.alias or ""
        else:
            rename[""] = ""  # multi-relation source: leave refs unqualified
        return source, rename

    def translate_to_source(
        self,
        expr: ast.Expression,
        relation: ExpRelation,
        scope: "_ExpScope",
    ) -> Optional[ast.Expression]:
        """Rewrite a call-site expression onto the measure source, or None if
        it references columns outside the relation's dimensions."""
        table = relation.table
        assert table is not None
        failed = False

        def visit(node: ast.Expression) -> ast.Expression:
            nonlocal failed
            if isinstance(node, ast.ColumnRef):
                owner = scope.owner(node)
                if owner is not relation:
                    failed = True
                    return node
                dim = table.dims.get(node.name.lower())
                if dim is None:
                    failed = True
                    return node
                return copy.deepcopy(dim)
            if isinstance(node, (ast.ScalarSubquery, ast.Exists, ast.InSubquery)):
                failed = True
            return node

        rewritten = transform(expr, visit, into_queries=False)
        return None if failed else rewritten


class _GroupingSetBranch:
    """Rewrites one grouping-set branch: inactive keys -> NULL, GROUPING ->
    constants."""

    def __init__(self, registry: dict[str, ast.Expression], active: set[str]):
        self.registry = registry
        self.active = active

    def transform(self, expr: ast.Expression) -> ast.Expression:
        from repro.sql.visitor import transform_topdown

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
            if isinstance(node, ast.Expression):
                key = to_sql(node)
                if key in self.registry and key not in self.active:
                    return ast.Literal(None)
            return None

        return transform_topdown(copy.deepcopy(expr), visit)  # type: ignore[return-value]


class _ExpScope:
    def __init__(self, relations: list[ExpRelation]):
        self.relations = relations

    def owner(self, ref: ast.ColumnRef) -> Optional[ExpRelation]:
        if ref.qualifier is not None:
            lowered = ref.qualifier.lower()
            for relation in self.relations:
                if relation.alias.lower() == lowered:
                    return relation
            return None
        matches = [
            r
            for r in self.relations
            if r.has_column(ref.name) or r.has_measure(ref.name)
        ]
        return matches[0] if len(matches) >= 1 else None

    def qualify(self, expr: ast.Expression) -> ast.Expression:
        """Qualify unqualified column references with their relation alias."""

        def visit(node: ast.Expression) -> ast.Expression:
            if isinstance(node, ast.ColumnRef) and len(node.parts) == 1:
                owner = self.owner(node)
                if owner is not None:
                    return ast.ColumnRef((owner.alias, node.parts[0]))
            return node

        return transform(copy.deepcopy(expr), visit, into_queries=False)


class _UseRewriter:
    """Rewrites measure uses in one query's clauses."""

    def __init__(
        self,
        expander: Expander,
        scope: _ExpScope,
        select: ast.Select,
        group_exprs: list[ast.Expression],
        is_aggregate: bool,
        join_conds: list[ast.Expression],
    ):
        self.expander = expander
        self.scope = scope
        self.select = select
        self.group_exprs = group_exprs
        self.is_aggregate = is_aggregate
        self.join_conds = join_conds

    def rewrite(self, expr: ast.Expression, *, site: str) -> ast.Expression:
        def visit(node: ast.Node):
            if not isinstance(
                node, (ast.FunctionCall, ast.At, ast.ColumnRef)
            ):
                return None
            use = self._match_measure_use(node)
            if use is None:
                return None
            relation, measure_name, modifiers = use
            terms = self._base_terms(relation, site)
            terms = self._apply_modifiers(terms, modifiers, relation)
            subquery = self.expander.build_measure_subquery(
                relation, measure_name, terms
            )
            if self.is_aggregate and not self.group_exprs and site != "row":
                # No group keys: the subquery is the same for every input
                # row, but the query must stay an aggregate query so that it
                # returns exactly one row.  ANY_VALUE keeps that shape.
                return ast.FunctionCall("ANY_VALUE", [subquery])
            return subquery

        return transform_topdown(expr, visit)

    def _match_measure_use(
        self, node: ast.Expression
    ) -> Optional[tuple[ExpRelation, str, list[ast.AtModifier]]]:
        """Match m / m AT (...) / AGGREGATE(m) / EVAL(m AT ...)."""
        modifiers: list[ast.AtModifier] = []
        if isinstance(node, ast.FunctionCall) and node.name in ("AGGREGATE", "EVAL"):
            if len(node.args) != 1:
                raise BindError(f"{node.name} takes exactly one argument")
            inner = node.args[0]
            if node.name == "AGGREGATE":
                modifiers.append(ast.VisibleModifier())
            node = inner
        while isinstance(node, ast.At):
            modifiers.extend(node.modifiers)
            node = node.operand
        if not isinstance(node, ast.ColumnRef):
            return None
        owner = self.scope.owner(node)
        if owner is None or not owner.has_measure(node.name):
            if modifiers:
                raise MeasureError("AT can only be applied to a measure")
            return None
        return owner, node.name, modifiers

    # -- context construction ------------------------------------------------

    def _base_terms(self, relation: ExpRelation, site: str) -> list[_Term]:
        table = relation.table
        assert table is not None
        terms: list[_Term] = []
        if site == "row" or not self.is_aggregate:
            for column in table.columns:
                dim = table.dims[column.lower()]
                terms.append(
                    _Term(
                        "dim",
                        to_sql(dim),
                        copy.deepcopy(dim),
                        ast.ColumnRef((relation.alias, column)),
                    )
                )
            return terms
        for group_expr in self.group_exprs:
            translated = self.expander.translate_to_source(
                copy.deepcopy(group_expr), relation, self.scope
            )
            if translated is None:
                continue
            terms.append(
                _Term(
                    "dim",
                    to_sql(translated),
                    translated,
                    self.scope.qualify(group_expr),
                )
            )
        return terms

    def _apply_modifiers(
        self,
        terms: list[_Term],
        modifiers: list[ast.AtModifier],
        relation: ExpRelation,
    ) -> list[_Term]:
        for modifier in modifiers:
            if isinstance(modifier, ast.AllModifier):
                if not modifier.dims:
                    terms = []
                    continue
                removed = set()
                for dim in modifier.dims:
                    translated = self.expander.translate_to_source(
                        copy.deepcopy(dim), relation, self.scope
                    )
                    if translated is None:
                        raise MeasureError(
                            f"{to_sql(dim)} is not a dimension of the measure's table"
                        )
                    removed.add(to_sql(translated))
                terms = [t for t in terms if t.key not in removed]
            elif isinstance(modifier, ast.SetModifier):
                translated = self.expander.translate_to_source(
                    copy.deepcopy(modifier.dim), relation, self.scope
                )
                if translated is None:
                    raise MeasureError(
                        f"{to_sql(modifier.dim)} is not a dimension of the "
                        "measure's table"
                    )
                key = to_sql(translated)
                value = self._resolve_current(modifier.value, terms, relation)
                terms = [t for t in terms if t.key != key]
                terms.append(_Term("dim", key, translated, value))
            elif isinstance(modifier, ast.VisibleModifier):
                terms = terms + self._visible_terms(relation)
            elif isinstance(modifier, ast.WhereModifier):
                pred = self._translate_at_where(modifier.predicate, relation)
                terms = [_Term("pred", "", ast.Literal(True), None, pred)]
            else:
                raise UnsupportedError(type(modifier).__name__)
        return terms

    def _resolve_current(
        self,
        value: ast.Expression,
        terms: list[_Term],
        relation: ExpRelation,
    ) -> ast.Expression:
        def visit(node: ast.Expression) -> ast.Expression:
            if isinstance(node, ast.CurrentDim):
                translated = self.expander.translate_to_source(
                    copy.deepcopy(node.dim), relation, self.scope
                )
                if translated is None:
                    raise MeasureError(
                        f"CURRENT {to_sql(node.dim)}: not a dimension"
                    )
                key = to_sql(translated)
                for term in terms:
                    if term.kind == "dim" and term.key == key:
                        assert term.outer_value is not None
                        return copy.deepcopy(term.outer_value)
                return ast.Literal(None)
            return node

        resolved = transform(copy.deepcopy(value), visit, into_queries=False)
        return self.scope.qualify(resolved)

    def _visible_terms(self, relation: ExpRelation) -> list[_Term]:
        preds: list[ast.Expression] = []
        preds.extend(split_and(self.select.where))
        for cond in self.join_conds:
            preds.extend(split_and(cond))
        terms: list[_Term] = []
        for pred in preds:
            if _contains_measure_use(pred, self.scope):
                continue
            translated = self.expander.translate_to_source(
                copy.deepcopy(pred), relation, self.scope
            )
            if translated is None:
                raise UnsupportedError(
                    "static expansion of VISIBLE across join inputs is not "
                    "supported; use the interpreter (see DESIGN.md)"
                )
            terms.append(_Term("pred", "", ast.Literal(True), None, translated))
        return terms

    def _translate_at_where(
        self, predicate: ast.Expression, relation: ExpRelation
    ) -> ast.Expression:
        """Inside AT WHERE, unqualified dimension names denote the source row;
        qualified names denote the enclosing query (correlated)."""
        table = relation.table
        assert table is not None

        def visit(node: ast.Expression) -> ast.Expression:
            if isinstance(node, ast.ColumnRef):
                if len(node.parts) == 1:
                    dim = table.dims.get(node.name.lower())
                    if dim is not None:
                        return copy.deepcopy(dim)
                return self.scope.qualify(node)
            return node

        return transform(copy.deepcopy(predicate), visit, into_queries=False)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


SRC_MARKER = "$src"


def _owner_of(relations: list["ExpRelation"], name: str) -> Optional["ExpRelation"]:
    """First relation exposing column ``name`` (for USING translation)."""
    for relation in relations:
        if relation.has_column(name):
            return relation
    return None


def _rename_plain_qualifiers(
    expr: ast.Expression, alias_map: dict[str, str]
) -> ast.Expression:
    """Rename alias qualifiers inside the instantiated source tree itself
    (join conditions of a multi-relation measure source)."""

    def visit(node: ast.Expression) -> ast.Expression:
        if isinstance(node, ast.ColumnRef) and len(node.parts) >= 2:
            new_alias = alias_map.get(node.qualifier.lower())
            if new_alias:
                return ast.ColumnRef((new_alias, node.name))
        return node

    return transform(expr, visit, into_queries=False)


def _mark_source_refs(expr: ast.Expression) -> ast.Expression:
    """Tag source-side column references with a marker qualifier.

    Inside context-term predicates, source-row references coexist with
    correlated call-site references; marking the source side makes the later
    alias rename unambiguous (call-site aliases are never rewritten even if
    they collide with the defining query's aliases).
    """

    def visit(node: ast.Expression) -> ast.Expression:
        if isinstance(node, ast.ColumnRef):
            if node.parts and node.parts[0].startswith(SRC_MARKER):
                return node
            if len(node.parts) == 1:
                return ast.ColumnRef((SRC_MARKER, node.parts[0]))
            return ast.ColumnRef(
                (f"{SRC_MARKER}${node.qualifier.lower()}", node.name)
            )
        return node

    return transform(expr, visit, into_queries=False)


def _detect_aggregate(select: ast.Select) -> bool:
    from repro.engine.aggregates import is_aggregate_function

    if select.group_by or select.having is not None or select.force_aggregate:
        return True

    def scan(expr: ast.Node) -> bool:
        if isinstance(expr, ast.Query):
            return False
        if isinstance(expr, ast.FunctionCall):
            name = expr.name.upper()
            if name == "AGGREGATE":
                return True
            if (
                is_aggregate_function(name)
                and expr.over is None
                and expr.over_name is None
            ):
                return True
        return any(scan(child) for child in expr.children())

    return any(not item.is_measure and scan(item.expr) for item in select.items)


def _uses_measures(select: ast.Select, scope: _ExpScope) -> bool:
    def scan(expr: ast.Node) -> bool:
        if isinstance(expr, ast.Query):
            return False
        if isinstance(expr, ast.ColumnRef):
            owner = scope.owner(expr)
            if owner is not None and owner.has_measure(expr.name):
                return True
        return any(scan(child) for child in expr.children())

    for item in select.items:
        if scan(item.expr):
            return True
    for clause in (select.where, select.having):
        if clause is not None and scan(clause):
            return True
    return False


def _contains_measure_use(expr: ast.Expression, scope: _ExpScope) -> bool:
    for node in expr.walk():
        if isinstance(node, ast.ColumnRef):
            owner = scope.owner(node)
            if owner is not None and owner.has_measure(node.name):
                return True
    return False


def _inline_siblings(measures: dict[str, ast.Expression]) -> dict[str, ast.Expression]:
    """Inline references between measures defined in the same SELECT."""
    resolved: dict[str, ast.Expression] = {}
    visiting: list[str] = []

    def resolve(name: str) -> ast.Expression:
        if name in resolved:
            return resolved[name]
        if name in visiting:
            cycle = " -> ".join(visiting + [name])
            raise MeasureError(f"recursive measure definition: {cycle}")
        visiting.append(name)
        try:
            formula = measures[name]

            def visit(node: ast.Expression) -> ast.Expression:
                if (
                    isinstance(node, ast.ColumnRef)
                    and len(node.parts) == 1
                    and node.name.lower() in measures
                ):
                    return copy.deepcopy(resolve(node.name.lower()))
                return node

            result = transform(copy.deepcopy(formula), visit, into_queries=False)
        finally:
            visiting.pop()
        resolved[name] = result
        return result

    return {name: resolve(name) for name in measures}


def _apply_rename(expr: ast.Expression, rename: dict[str, str]) -> ast.Expression:
    """Resolve ``$src`` markers to the instantiated source's fresh aliases.

    Unmarked references (correlated call-site refs) pass through untouched.
    ``rename[""]`` is the default alias for unqualified source refs; an empty
    value means "leave unqualified" (multi-relation sources, where innermost
    scoping resolves the name).
    """

    def visit(node: ast.Expression) -> ast.Expression:
        if isinstance(node, ast.ColumnRef) and node.parts[0].startswith(SRC_MARKER):
            marker = node.parts[0]
            if marker == SRC_MARKER:
                default = rename.get("", "")
                if default:
                    return ast.ColumnRef((default, node.name))
                return ast.ColumnRef((node.name,))
            old_alias = marker[len(SRC_MARKER) + 1 :]
            new_alias = rename.get(old_alias)
            if new_alias is None:
                raise MeasureError(
                    f"unknown source alias {old_alias!r} in measure expansion"
                )
            return ast.ColumnRef((new_alias, node.name))
        return node

    return transform(expr, visit, into_queries=False)
