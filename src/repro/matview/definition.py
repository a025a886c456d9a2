"""A summary's definition, bound once.

``CREATE`` and ``REFRESH`` bind ``SELECT dim..., agg(...) AS name... FROM
relation [WHERE ...] GROUP BY dim...`` once, with the ordinary
:class:`~repro.semantics.binder.Binder`, and keep what that bind decided:
each dimension as the ``fingerprint`` of its bound grouping expression; each
stored aggregate as the fingerprint of its ``BoundAggCall`` or, for a
measure evaluated at the group (``AGGREGATE(m)``, a bare ``m``), by the
bound measure's name (a view's column list renames the column, not the
measure); the WHERE conjuncts; and the refresh plan.

A summary stores *states* (:mod:`repro.engine.aggregates`): an item that
rolls up is kept as one bound expression over the states of its calls, each
evaluated in the group's context and stored once — ``AVG(x)`` is
``SAFE_DIVIDE`` over ``SUM(x)`` and ``COUNT(x)``, the paper's
``profitMargin`` its formula over its ``SUM`` states.  A state lives in the
column of an item whose value it is, else in a hidden ``__`` column.  A
coarser query re-aggregates each state by its roll-up aggregate and
finishes again; an INSERT folds the delta's states into the stored ones.
An item with a call of any other kind (DISTINCT ``SUM``, ``MEDIAN``, …), or
a measure whose formula holds a measure or a subquery, keeps only its value
and answers only a query grouped by exactly the summary's dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Optional

from repro.catalog.objects import MaterializedView, SystemTable
from repro.catalog.schema import Column, TableSchema
from repro.core.definition import MeasureInstance
from repro.core.modifiers import BoundVisible
from repro.engine.aggregates import AGGREGATES, finished
from repro.errors import CatalogError, UnsupportedError
from repro.plan import logical as plans
from repro.semantics import bound as b
from repro.semantics.binder import Binder, BoundSelect
from repro.semantics.correlate import transform_expr
from repro.semantics.unbind import unbind
from repro.sql import ast
from repro.sql.printer import to_sql
from repro.types import UNKNOWN, VARCHAR

if TYPE_CHECKING:  # pragma: no cover
    from repro.api import Database

__all__ = [
    "SummaryDefinition",
    "analyze_definition",
    "context_mismatch",
    "measure_key",
    "spelling",
    "table_schema",
]


@dataclass
class SummaryDimension:
    name: str  # column name in the summary table
    key: str  # fingerprint of the bound grouping expression


@dataclass
class SummaryState:
    column: str  # the summary column holding it: an item's own, or __item_func
    rollup: str  # the aggregate that re-aggregates it: SUM, MIN or MAX


@dataclass
class SummaryMeasure:
    name: str  # column name in the summary table
    #: The fingerprint of the call, or the :func:`measure_key` of the
    #: measure, a query must evaluate to read this column; None for a measure
    #: evaluated ``AT`` another context.
    key: Optional[str]
    #: The value over the summary's states (``BoundColumn(i)`` reads
    #: ``states[i]``); None when it answers only the summary's own grain.
    expr: Optional[b.BoundExpr]


@dataclass
class SummaryDefinition:
    source_name: str  # lowered name of the FROM relation
    depends_on: frozenset  # lowered names of every table and view its bind read
    dimensions: list[SummaryDimension]
    measures: list[SummaryMeasure]
    states: list[SummaryState]
    where: dict[str, str]  # fingerprint -> SQL of each WHERE conjunct
    plan: plans.LogicalPlan  # the refresh plan: the states, then every column
    schema: TableSchema

    def rollup(self, measure: SummaryMeasure) -> str:
        """How ``measure`` rolls up, in *Data Cube*'s terms: ``distributive``
        when its own column is its one state, ``algebraic`` when it is
        finished from states, ``exact grain`` when it has none."""
        if measure.expr is None:
            return "exact grain"
        if any(state.column == measure.name for state in self.states):
            return "distributive"
        return "algebraic"


def analyze_definition(
    db: "Database", name: str, query: ast.Query
) -> SummaryDefinition:
    """Bind a summary definition, check its shape, and keep what it bound."""
    shape = CatalogError(
        f"materialized view {name!r} must be SELECT <grouping columns>, "
        f"<aliased aggregates> FROM <one table or view> [WHERE ...] "
        f"GROUP BY <grouping columns>"
    )
    if not isinstance(query, ast.Select) or not isinstance(
        query.from_clause, ast.TableName
    ):
        raise shape
    if any(isinstance(node, ast.Parameter) for node in query.walk()):
        raise CatalogError(f"materialized view {name!r} cannot use ? parameters")
    binder = Binder(db.catalog)
    plan, _ = binder.bind_query_top(query)
    for obj in binder.reads.values():
        if isinstance(obj, (MaterializedView, SystemTable)):
            # A system table changes on every query (lint RP113) and a
            # summary's rows on REFRESH, and neither makes this one stale.
            raise CatalogError(
                f"materialized view {name!r} cannot be defined over "
                f"{obj.kind.lower()} {obj.name!r}: its rows are volatile"
            )
    bound = binder.selects[id(query)]
    # Anything but one plain grouping — HAVING, DISTINCT, ORDER BY, LIMIT,
    # QUALIFY, windows, grouping sets, no aggregate at all — is another node.
    aggregate = plan.input if isinstance(plan, plans.Project) else None
    if not isinstance(aggregate, plans.Aggregate) or aggregate.has_grouping_id:
        raise shape
    dimensions: dict[int, SummaryDimension] = {}
    items: list[tuple] = []  # (bound item, its measure, its value, its site)
    for item, expr, (column, _) in zip(bound.items, plan.exprs, plan.schema):
        if not item.alias and not isinstance(item.expr, ast.ColumnRef):
            raise CatalogError(
                f"materialized view {name!r}: {to_sql(item.expr)} needs an "
                f"alias (e.g. YEAR(orderDate) AS orderYear, SUM(x) AS x)"
            )
        if isinstance(expr, b.BoundColumn):
            key = b.fingerprint(bound.group_exprs[expr.offset])
            dimensions.setdefault(expr.offset, SummaryDimension(column, key))
            items.append((expr, None, None, None))
        elif isinstance(expr, b.BoundAggRef):
            call = aggregate.agg_calls[expr.index - len(bound.group_exprs)]
            items.append((expr, SummaryMeasure(column, b.fingerprint(call), None), call, None))
        elif isinstance(expr, b.BoundMeasureEval):
            key = None if context_mismatch(expr, bound) else measure_key(expr)
            formula = expr.measure.formula if key else None
            items.append((expr, SummaryMeasure(column, key, None), formula, expr))
        else:
            raise CatalogError(
                f"materialized view {name!r}: select items must be grouping "
                f"columns or aggregates, got {to_sql(item.expr)}"
            )
    measures = [measure for _, measure, _, _ in items if measure is not None]
    if len(dimensions) != len(bound.group_exprs) or not measures:
        raise CatalogError(
            f"materialized view {name!r} must select every GROUP BY "
            f"expression and at least one aggregate"
        )
    states, plan = _stored(aggregate, plan.schema, items)
    spell = spelling(bound)
    return SummaryDefinition(
        source_name=query.from_clause.name.lower(),
        depends_on=frozenset(binder.reads),
        dimensions=list(dimensions.values()),
        measures=measures,
        states=states,
        where={b.fingerprint(c): spell(c) for c in bound.where},
        plan=db._optimize(plan),
        schema=table_schema(plan.schema),
    )


def _stored(aggregate: plans.Aggregate, schema, items: list[tuple]):
    """Each state the items are finished from, stored once — in the column
    of an item whose value it is, else a hidden one — and the refresh plan:
    the grouping, with every state among its calls or, for a measure, as an
    evaluation in the group's context; then a Project of every column."""
    states: list[SummaryState] = []
    sources: list[tuple] = []  # each state's call, and its measure's site
    slots: dict[str, int] = {}
    hidden: list[int] = []

    def state(call: b.BoundAggCall, site, owner: str, own=False) -> b.BoundColumn:
        # Every measure of the one FROM relation reads the same source row.
        key = b.fingerprint(call) if site is None else f"measure {b.fingerprint(call)}"
        if key not in slots:
            column = owner if own else f"__{owner}_{call.func.lower()}"
            if column in {s.column for s in states}:
                column += str(len(states))
            if not own:
                hidden.append(len(states))
            slots[key] = len(states)
            states.append(SummaryState(column, AGGREGATES[call.func].rollup))
            sources.append((call, site))
        return b.BoundColumn(slots[key], call.dtype)

    done = [(m, v, s, v if v is None else finished(v)) for _, m, v, s in items if m]
    for measure, value, site, finish in done:  # an item whose value is its state
        if finish is not None and isinstance(value, b.BoundAggCall):
            if AGGREGATES[value.func].states == (value.func,):
                state(value, site, measure.name, own=True)
    for measure, _, site, finish in done:
        if finish is not None:  # each state call read as its slot
            measure.expr = transform_expr(finish, lambda node, site=site, m=measure: (
                state(node, site, m.name) if isinstance(node, b.BoundAggCall) else None
            ))
    # A state no call of the grouping computes joins them, ahead of the
    # group's captured rows, which VISIBLE reads at the grouping's offset.
    group, calls = len(aggregate.group_exprs), list(aggregate.agg_calls)
    known = {b.fingerprint(call) for call in calls}
    end = group + len(calls)
    calls += [c for c, site in sources if site is None and b.fingerprint(c) not in known]
    aggregate = replace(aggregate, agg_calls=calls, schema=[
        *aggregate.schema[:end],
        *((f"$agg{i}", c.dtype) for i, c in enumerate(calls[end - group:], end - group)),
        *aggregate.schema[end:],
    ])
    at = {b.fingerprint(call): group + i for i, call in enumerate(calls)}

    # The grouping's row, then the measures' evaluations: with none, the
    # Project is the identity the optimizer drops.
    row = [b.BoundColumn(i, dtype) for i, (_, dtype) in enumerate(aggregate.schema)]

    def evaluated(site: b.BoundMeasureEval, measure: MeasureInstance) -> b.BoundColumn:
        context = site.context
        if context.captured_rows_offset is not None:
            context = replace(context, captured_rows_offset=aggregate.captured_rows_offset)
        row.append(b.BoundMeasureEval(measure, context, measure.value_type))
        return b.BoundColumn(len(row) - 1, measure.value_type)

    held = [
        b.BoundColumn(at[b.fingerprint(call)], call.dtype) if site is None
        else evaluated(site, MeasureInstance(
            site.measure.name, site.measure.group, call, call.dtype
        ))
        for call, site in sources
    ]

    def over_row(node: b.BoundExpr) -> Optional[b.BoundExpr]:
        return held[node.offset] if isinstance(node, b.BoundColumn) else None

    columns = [
        expr if measure is None  # a grouping key
        else transform_expr(measure.expr, over_row) if measure.expr is not None
        else evaluated(expr, expr.measure) if isinstance(expr, b.BoundMeasureEval)
        else b.BoundColumn(expr.index, expr.dtype)
        for expr, measure, _, _ in items
    ]
    extra = row[len(aggregate.schema):]
    grouped = plans.Project(
        aggregate, row, [*aggregate.schema, *((f"$state{i}", e.dtype) for i, e in enumerate(extra))]
    )
    return states, plans.Project(
        grouped,
        [*columns, *(held[i] for i in hidden)],
        [*schema, *((states[i].column, held[i].dtype) for i in hidden)],
    )


def measure_key(site: b.BoundMeasureEval) -> str:
    """A measure of the one relation the summary and the query read."""
    return f"measure {site.measure.name.lower()}"


def context_mismatch(
    site: b.BoundMeasureEval, bound: BoundSelect
) -> Optional[tuple[str, str]]:
    """``(rule, reason)`` unless ``site`` is evaluated in exactly its group's
    context — a term per group key, and the query's WHERE when it has one
    (``AGGREGATE(m)`` is ``m AT (VISIBLE)``; a bare ``m`` ignores WHERE)."""
    spec, name = site.context, site.measure.name
    if (
        spec.kind != "group"
        or len(spec.group_terms) != len(bound.group_exprs)
        or not all(isinstance(m, BoundVisible) for m in spec.modifiers)
    ):
        reason = f"measure {name} is evaluated AT a context other than its group"
        return "unsupported-shape", reason
    if bound.where and not spec.modifiers:
        reason = f"measure {name} ignores WHERE here; AGGREGATE({name}) reads it"
        return "context-ignores-where", reason
    return None


def spelling(bound: BoundSelect) -> Callable[[b.BoundExpr], str]:
    """An expression over ``bound``'s FROM row as SQL, for messages."""
    names = {
        column.offset: column.name
        for relation in bound.scope.relations
        for column in relation.columns
        if column.offset is not None
    }

    def spell(expr: b.BoundExpr) -> str:
        try:
            return to_sql(unbind(expr, [lambda i: ast.ColumnRef((names[i],))]))
        except UnsupportedError:
            return b.fingerprint(expr)

    return spell


def table_schema(columns) -> TableSchema:
    """A storable schema for ``(name, type)`` result columns."""
    return TableSchema(
        [
            Column(name, VARCHAR if dtype.unwrap() is UNKNOWN else dtype.unwrap())
            for name, dtype in columns
        ]
    )

