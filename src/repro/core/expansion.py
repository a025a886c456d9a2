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

**The expansion prints the bind.**  There is one definition of a measure's
context, the binder's; this module resolves no name and derives no context.
The statement's own AST is bound once, by the :meth:`Binder.bind_query_top`
call the interpreter makes, and a new tree is printed from what it bound; the
input is never changed.

* A measure call site becomes a correlated subquery: the formula from
  ``MeasureInstance.formula``, the FROM and baked WHERE from
  ``MeasureGroup.source_sql``, the context from the site's ``ContextSpec``
  through the one modifier algebra (:func:`repro.core.modifiers.apply_modifiers`),
  each bound expression turned back into SQL by
  :func:`repro.semantics.unbind.unbind`.
* A view becomes a FROM subquery printed from its own bound selects
  (:meth:`Binder.bind_view`), under the view's column names.
* A grouping-set query, bound as one Aggregate, becomes a UNION ALL of plain
  GROUP BY branches, one per entry of the Aggregate's ``grouping_sets`` (a
  grouping set is a union of GROUP BYs, Gray et al.'s data cube).  Each branch
  prints the bound items and HAVING over the Aggregate row, decided by slot as
  the evaluator decides them: an inactive key is NULL, ``GROUPING()`` is its
  constant bitmap, and a measure's term on a rolled-up key is dropped.

Scope: everything the interpreter runs whose context ``unbind`` can print —
plain and grouped queries, GROUP BY aliases and ordinals, DISTINCT,
re-exported measures, row-grain call sites, all AT modifiers, grouping sets,
VISIBLE within one relation (the query's conjuncts over the candidate row)
and across join inputs (an ``EXISTS`` over a copy of the query's FROM).  What
it cannot print — a measure composed from other measures, a subquery inside
a measure definition or a VISIBLE conjunct — raises the one
:class:`~repro.errors.UnsupportedError` of ``unbind``; it never prints
different rows.  The ``inline`` and ``window`` strategies in
:mod:`repro.core.strategies` print the same bind for the special shapes of
paper section 6.4.  A ``?`` copied into a measure's subquery keeps its
parameter index in the expanded AST; the printed text shows one ``?`` per
*use*.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Collection, Optional

from repro.catalog.objects import View
from repro.core.modifiers import BoundSet, BoundWhere, apply_modifiers
from repro.errors import UnsupportedError
from repro.semantics import bound as b
from repro.semantics.binder import (
    Binder,
    BoundRelation,
    BoundSelect,
    FromSql,
    materialize_measures,
)
from repro.semantics.unbind import unbind
from repro.sql import ast
from repro.sql.visitor import and_all, transform_topdown

if TYPE_CHECKING:  # pragma: no cover
    from repro.api import Database

__all__ = [
    "EXPANSION_STRATEGIES",
    "expand_query_ast",
    "Expander",
]

#: The strategy names :func:`expand_query_ast` dispatches on.
EXPANSION_STRATEGIES = ("subquery", "inline", "window", "auto")


def _traced_attempt(tracer, name: str, thunk):
    """Run one strategy attempt under an ``expand:<name>`` span (if any),
    recording whether the shape was supported."""
    if tracer is None:
        return thunk()
    with tracer.span(f"expand:{name}", "expand") as span:
        try:
            result = thunk()
        except UnsupportedError:
            span.meta["outcome"] = "unsupported"
            raise
        span.meta["outcome"] = "ok"
    return result


def expand_query_ast(
    db: "Database", query: ast.Query, *, strategy: str = "subquery", tracer=None
) -> ast.Query:
    """``query`` with its measures expanded by ``strategy``, as a new tree;
    ``query`` itself is left as it was.  The statement is bound once, and
    every attempt prints that one bind."""
    from repro.core.strategies import inline_expand, window_expand

    attempts = {
        "subquery": lambda expander: expander.print_query(query),
        "inline": lambda expander: inline_expand(expander, query, tracer=tracer),
        "window": lambda expander: window_expand(expander, query, tracer=tracer),
    }
    if strategy == "auto":
        # Cheapest shape first: inline produces a plain GROUP BY, window a
        # single-pass window query, subquery the general (but correlated)
        # form.  The specialized strategies reject unsupported shapes with
        # UnsupportedError, so the cascade is safe.
        cascade = ["inline", "window", "subquery"]
    elif strategy in attempts:
        cascade = [strategy]
    else:
        raise UnsupportedError(f"unknown expansion strategy {strategy!r}")
    expander = Expander(db)
    expander.binder.bind_query_top(query)
    for name in cascade[:-1]:
        try:
            return _traced_attempt(tracer, name, lambda: attempts[name](expander))
        except UnsupportedError:
            continue
    return _traced_attempt(tracer, cascade[-1], lambda: attempts[cascade[-1]](expander))


def materialized(relation: BoundRelation) -> list:
    """Per output column of ``relation``, what the binder's
    ``materialize_measures`` evaluates it as (a measure column: over the
    output's dimensions, at row grain); all None when it has no measure."""
    if not relation.has_measures:
        return [None] * len(relation.columns)
    return materialize_measures(relation)[0].exprs


def output_order(
    bound: BoundSelect, hidden: Callable[[b.BoundExpr], ast.Expression]
) -> list[ast.OrderItem]:
    """An aggregate query's ORDER BY: a key the SELECT list computes as its
    output ordinal, any other key as ``hidden`` prints it."""
    positions = [b.fingerprint(expr) for expr in bound.item_exprs]

    def key(expr: b.BoundExpr) -> ast.Expression:
        fp = b.fingerprint(expr)
        return ast.Literal(positions.index(fp) + 1) if fp in positions else hidden(expr)

    return [
        ast.OrderItem(key(spec.expr), spec.descending, spec.nulls_first)
        for spec in bound.order_by
    ]


# ---------------------------------------------------------------------------
# The expander
# ---------------------------------------------------------------------------

#: How a row is spelled: offset -> the SQL expression reading that column.
Names = Callable[[int], ast.Expression]


@dataclass
class _Level:
    """One SELECT being printed, and how the rows around it are spelled."""

    bound: BoundSelect
    row: Names  # its FROM row
    outer: list  # the rows of the enclosing levels, innermost first
    #: The lowered name of each CTE in scope -> the name it prints under.
    ctes: dict
    #: The Aggregate's active key slots: all of them, or one grouping set's
    #: (None: not an aggregate query).
    active: Optional[Collection[int]] = None

    def site(self, slot: int) -> ast.Expression:
        """Column ``slot`` of the row a call site outside WHERE / ON sits
        on: the Aggregate's output in an aggregate query (keys, an inactive
        one NULL, then aggregate calls), else the FROM row."""
        keys = self.bound.group_exprs
        if keys is None:
            return self.row(slot)
        if slot >= len(keys):
            expr = self.bound.agg_calls[slot - len(keys)]
        elif slot in self.active:
            expr = keys[slot]
        else:
            return ast.Literal(None)
        return unbind(expr, [self.row] + self.outer)


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
        self.binder = Binder(db.catalog)
        self.restart()

    def restart(self) -> None:
        """Forget what an earlier print numbered and recorded; the bind is
        kept, so another strategy can print the same statement."""
        self._alias_counter = 0
        #: id(a FROM clause printed) -> the CTEs in scope where it stands,
        #: for the copies of it a measure's subquery makes.
        self._ctes_at: dict[int, dict] = {}

    def fresh_alias(self, prefix: str = "i") -> str:
        self._alias_counter += 1
        return f"{prefix}{self._alias_counter}"

    def expand_query(self, query: ast.Query) -> ast.Query:
        """``query`` bound once by ``self.binder`` and printed as a new,
        measure-free tree."""
        self.binder.bind_query_top(query)
        return self.print_query(query)

    def print_query(self, query: ast.Query) -> ast.Query:
        """``query``, which ``self.binder`` has bound, printed as a new,
        measure-free tree."""
        self.restart()
        return self._query(query, [], {}, top=True)

    # -- print what was bound ---------------------------------------------------

    def _query(
        self, query: ast.Query, outer: list, ctes: dict, *, top: bool, names=None
    ) -> ast.Query:
        """``query`` with every measure call site replaced by its subquery.
        ``top``: the binder materialized the query's measure columns
        (``bind_query_top``: a statement, a set-operation branch, a subquery
        in an expression); otherwise they stay virtual and are dropped from
        the SELECT list (a FROM item, a CTE).  ``names``: a view's column
        list, which the output columns print under."""
        if isinstance(query, ast.WithQuery):
            ctes = dict(ctes)
            printed = []
            for cte in query.ctes:
                body = self._query(cte.query, outer, ctes, top=False)
                name = cte.name
                while self.db.catalog.get(name) is not None:
                    # The printed SQL inlines views and names measure
                    # sources where this CTE is in scope; those names mean
                    # the catalog's objects, so the CTE takes a fresh name.
                    name = self.fresh_alias("w")
                ctes[cte.name.lower()] = name
                printed.append(replace(cte, name=name, query=body))
            body = self._query(query.body, outer, ctes, top=top, names=names)
            return replace(query, ctes=printed, body=body)
        if isinstance(query, ast.SetOp):
            return replace(
                query,
                left=self._query(query.left, outer, ctes, top=True, names=names),
                right=self._query(query.right, outer, ctes, top=True),
            )
        if isinstance(query, ast.Select):
            return self._select(query, outer, ctes, top, names)
        return query

    def _select(
        self, select: ast.Select, outer: list, ctes: dict, top: bool, names
    ) -> ast.Query:
        bound = self.binder.selects[id(select)]
        self._ctes_at[id(select.from_clause)] = ctes
        # An unaliased FROM subquery is named before anything inside it.
        aliases = {
            id(relation): self.fresh_alias("t")
            for relation in bound.scope.relations
            if relation.alias is None
        }
        keys = None if bound.group_exprs is None else range(len(bound.group_exprs))
        level = _Level(bound, self.names(bound, aliases), outer, ctes, keys)
        from_clause = None
        if select.from_clause is not None:
            relations = iter(bound.scope.relations)
            from_clause = self._from(select.from_clause, level, aliases, relations)
        if any(not isinstance(e, ast.SimpleGrouping) for e in select.group_by):
            return self._grouping_sets(select, level, from_clause, names)

        if bound.relation.has_measures or names:
            items = self._output_items(level, top, names)
        else:
            items = [
                item
                if isinstance(item.expr, ast.Star)
                else replace(item, expr=self._rewrite_expr(item.expr, level, True))
                for item in select.items
            ]
        return replace(
            select,
            items=items,
            from_clause=from_clause,
            where=self._rewrite_expr(select.where, level),
            having=self._rewrite_expr(select.having, level, True),
            qualify=self._rewrite_expr(select.qualify, level, True),
            order_by=[
                replace(o, expr=self._rewrite_expr(o.expr, level, True))
                for o in select.order_by
            ],
        )

    def _output_items(self, level: _Level, top: bool, names) -> list:
        """The SELECT list, ``*`` expanded, each item under its output
        column's name (or ``names``'): a measure column dropped (it stays
        virtual), or, at the top, evaluated the way the binder's
        ``materialize_measures`` does — over the *output's* dimensions,
        offset i of that row being the i-th non-measure item."""
        bound = level.bound
        output = lambda i: unbind(  # noqa: E731
            bound.item_exprs[i], [level.row] + level.outer
        )
        exprs, columns = materialized(bound.relation), bound.relation.columns
        items = []
        for index, (item, column) in enumerate(zip(bound.items, columns)):
            if not column.is_measure:
                value = self._rewrite_expr(item.expr, level, True)
            elif top:
                frames = [output] + level.outer
                value = self.measure_subquery(exprs[index], level, frames)
            else:
                continue
            items.append(ast.SelectItem(value, names[index] if names else column.name))
        return items

    def _from(
        self, ref: ast.TableRef, level: _Level, aliases: dict, relations
    ) -> ast.TableRef:
        """The query's own FROM clause as written (a join keeps its ON,
        USING or NATURAL); ``relations`` yields each leaf's relation."""
        if isinstance(ref, ast.Join):
            left = self._from(ref.left, level, aliases, relations)
            right = self._from(ref.right, level, aliases, relations)
            condition = self._rewrite_expr(ref.condition, level)
            return replace(ref, left=left, right=right, condition=condition)
        relation = next(relations)
        alias = ref.alias or aliases.get(id(relation))  # type: ignore[union-attr]
        return self._leaf(ref, alias, level.ctes, level.outer)

    def _leaf(
        self, ref: ast.TableRef, alias: Optional[str], ctes: dict, outer: list
    ) -> ast.TableRef:
        """One FROM item under ``alias`` (or its own name): a CTE under the
        name it prints as, a view as a subquery printed from its own bind in
        the catalog's scope, a subquery from its bound selects."""
        if isinstance(ref, ast.SubqueryRef):
            query = self._query(ref.query, outer, ctes, top=False)
            return ast.SubqueryRef(query, alias)
        if not isinstance(ref, ast.TableName):
            raise UnsupportedError(f"cannot expand {type(ref).__name__} in FROM")
        printed = ctes.get(ref.name.lower())
        if printed is None:
            view = self.db.catalog.get(ref.name)
            if isinstance(view, View):
                names = view.column_names
                query = self._query(view.query, [], {}, top=False, names=names)
                return ast.SubqueryRef(query, alias or view.name)
        elif printed.lower() != ref.name.lower():
            return ast.TableName(printed, alias or ref.name)
        return ast.TableName(ref.name, alias)

    def _rewrite_expr(
        self, expr: Optional[ast.Expression], level: _Level, grouped: bool = False
    ) -> Optional[ast.Expression]:
        """``expr`` with its measure call sites replaced.  ``grouped``: the
        clause sits above the query's Aggregate, if it has one."""
        if expr is None:
            return None
        aggregate = grouped and level.bound.group_exprs is not None
        frames = [level.site if aggregate else level.row] + level.outer
        # What a subquery in this clause sees one level out: the FROM row —
        # the binder renumbers references into an Aggregate's output only in
        # the plan, not in the contexts this prints from.
        nested = [None if aggregate else level.row] + level.outer
        lone = aggregate and not level.active

        def visit(node: ast.Node):
            site = self.binder.sites.get(id(node))
            if site is not None:
                return self._measure_call(site, level, frames, lone)
            if isinstance(node, (ast.ScalarSubquery, ast.Exists, ast.InSubquery)):
                query = self._query(node.query, nested, level.ctes, top=True)
                if isinstance(node, ast.InSubquery):
                    operand = transform_topdown(node.operand, visit)
                    return replace(node, operand=operand, query=query)
                return replace(node, query=query)
            return None

        return transform_topdown(expr, visit)  # type: ignore[return-value]

    def _grouping_sets(
        self, select: ast.Select, level: _Level, from_clause, names
    ) -> ast.Query:
        """One plain GROUP BY branch per grouping set of the bound Aggregate,
        joined by UNION ALL — by UNION under DISTINCT: the grouping sets are
        one bag of rows, deduplicated whole (paper Listing 8)."""
        if select.qualify is not None:
            raise UnsupportedError("cannot expand QUALIFY over grouping sets")
        bound = level.bound
        where = self._rewrite_expr(select.where, level)
        columns = names or [column.name for column in bound.relation.columns]
        union: Optional[ast.Query] = None
        for active in bound.grouping_sets:
            branch = replace(level, active=active)
            printed = self._printer(branch)
            select_branch = ast.Select(
                items=[
                    ast.SelectItem(printed(expr), name)
                    for expr, name in zip(bound.item_exprs, columns)
                ],
                from_clause=from_clause,
                where=where,
                group_by=[ast.SimpleGrouping(branch.site(slot)) for slot in active],
                having=None if bound.having is None else printed(bound.having),
                force_aggregate=True,
            )
            union = (
                select_branch
                if union is None
                else ast.SetOp("UNION", not select.distinct, union, select_branch)
            )
        if isinstance(union, ast.Select):
            union = replace(union, distinct=select.distinct)

        def hidden(expr: b.BoundExpr) -> ast.Expression:
            if isinstance(union, ast.Select):  # one grouping set: one query
                return printed(expr)
            raise UnsupportedError(
                "ORDER BY on a grouping-set expansion must reference output columns"
            )

        return replace(
            union,  # type: ignore[arg-type]
            order_by=output_order(bound, hidden),
            limit=select.limit,
            offset=select.offset,
        )

    def _printer(self, level: _Level) -> Callable[[b.BoundExpr], ast.Expression]:
        """Prints an expression over ``level``'s Aggregate row, with its
        measure calls and ``GROUPING()`` as the grouping set makes them."""
        frames = [level.site] + level.outer

        def hook(node: b.BoundExpr) -> Optional[ast.Expression]:
            if isinstance(node, b.BoundMeasureEval):
                return self._measure_call(node, level, frames, not level.active)
            if isinstance(node, b.BoundGroupingId):
                bitmap = 0
                for slot in node.key_indexes:
                    bitmap = bitmap << 1 | (slot not in level.active)
                return ast.Literal(bitmap)
            return None

        return lambda expr: unbind(expr, frames, hook=hook)

    # -- one call site ----------------------------------------------------------

    def _measure_call(
        self, node: b.BoundMeasureEval, level: _Level, frames: list, lone: bool
    ) -> ast.Expression:
        """The call site ``node`` as its subquery.  ``lone``: it sits in an
        aggregate query with no group key."""
        subquery = self.measure_subquery(node, level, frames)
        if not lone:
            return subquery
        # No group keys: the subquery is the same for every input row, but
        # the query must stay an aggregate query, one row over no input row
        # too.  COUNT(*), never negative, is this query's aggregate even
        # where the subquery reads only an enclosing query's columns (an
        # aggregate of those alone belongs to that query, by the standard).
        count = ast.FunctionCall("COUNT", star_arg=True)
        return ast.Case(
            None,
            [ast.CaseWhen(ast.Binary(">=", count, ast.Literal(0)), subquery)],
            None,
        )

    @staticmethod
    def names(bound: FromSql, aliases: Optional[dict] = None) -> Names:
        """How ``bound``'s FROM row is spelled: ``alias.column`` per offset,
        under ``aliases[id(relation)]`` or else the relation's own alias."""
        aliases = aliases or {}
        parts = {
            column.offset: (aliases.get(id(relation), relation.alias), column.name)
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
        ctes = self._ctes_at.get(id(bound.from_clause), {})
        aliases: dict[int, str] = {}
        conditions: list[tuple[ast.Join, Optional[b.BoundExpr]]] = []

        def copy_of(ref: ast.TableRef) -> ast.TableRef:
            if isinstance(ref, ast.Join):
                join = ast.Join(ref.kind, copy_of(ref.left), copy_of(ref.right))
                conditions.append((join, next(joins)))
                return join
            aliases[id(next(relations))] = alias = self.fresh_alias(prefix)
            return self._leaf(ref, alias, ctes, list(outer))

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
        source row ``src``: its group terms, then its modifiers.  A term on
        a key the grouping set rolls up pins nothing (the evaluator's
        ``_base_terms``)."""
        make = _SqlTerms(self, level, src, site)
        terms = [
            make.pin(t.dim_key, t.source_expr, unbind(t.value_expr, site))
            for t in spec.group_terms
            if t.grouping_bit is None or t.grouping_bit in level.active
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

        if spec.groups is None or not (info.reads_group_rows or not level.active):
            # The witness is the call-site row itself (row grain), or no
            # conjunct reads anything but the candidate and the group, of a
            # grouping set with keys, is never empty: no group to search.
            # (The global set's is empty over an empty input.)
            frames = [substituted(level.row)] + level.outer
            return [_SqlTerm(None, unbind(pred, frames)) for pred in info.preds]
        # The semijoin the interpreter runs, in SQL: a row g of the query's
        # own FROM that passed its WHERE, belongs to the outer row's group
        # (its active keys), and satisfies the conjuncts with the candidate
        # substituted in.
        bound = level.bound
        source, g = self.expander.instantiate(bound, "g", level.outer)
        frames = [g] + level.outer
        conjuncts = [unbind(pred, frames) for pred in bound.where]
        conjuncts += [
            ast.IsDistinctFrom(unbind(expr, frames), level.site(slot), negated=True)
            for slot, expr in enumerate(bound.group_exprs)
            if slot in level.active
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
