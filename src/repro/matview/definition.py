"""A summary's definition, bound once.

``CREATE`` and ``REFRESH`` bind ``SELECT dim..., agg(...) AS name... FROM
relation [WHERE ...] GROUP BY dim...`` once, with the ordinary
:class:`~repro.semantics.binder.Binder`, and keep what that bind decided:
each dimension as the ``fingerprint`` of its bound grouping expression; each
stored aggregate as the fingerprint of its ``BoundAggCall`` or, for a
measure evaluated at the group (``AGGREGATE(m)``, a bare ``m``), by the
bound measure's name (a view's column list renames the column, not the
measure); the WHERE conjuncts; and the refresh plan.  How a stored aggregate
re-aggregates when a query groups by a *subset* of the dimensions is read off
the bound call (for a measure, its bound formula):

* ``SUM`` / ``COUNT``: ``SUM`` of the partials; ``MIN`` / ``MAX``: ``MIN`` /
  ``MAX`` of them;
* ``AVG``: ``SUM(sum) / SUM(count)`` over hidden companion columns, the
  same call as ``SUM`` and as ``COUNT``, which the refresh plan computes;
* ``OPAQUE`` — a ratio such as the paper's ``profitMargin``, an ``AVG``
  measure, a ``DISTINCT`` aggregate — does not roll up: it answers only a
  query grouped by exactly the summary's dimensions (one row per group).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Optional

from repro.catalog.objects import MaterializedView, SystemTable
from repro.catalog.schema import Column, TableSchema
from repro.core.modifiers import BoundVisible
from repro.engine.aggregates import aggregate_result_type
from repro.errors import CatalogError, UnsupportedError
from repro.plan import logical as plans
from repro.semantics import bound as b
from repro.semantics.binder import Binder, BoundSelect
from repro.semantics.unbind import unbind
from repro.sql import ast
from repro.sql.printer import to_sql
from repro.types import INTEGER, UNKNOWN, VARCHAR

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
class SummaryMeasure:
    name: str  # column name in the summary table (AVG: also __name_sum/_count)
    kind: str  # SUM | COUNT | MIN | MAX | AVG | OPAQUE
    #: The fingerprint of the call, or the :func:`measure_key` of the
    #: measure, a query must evaluate to read this column; None for a measure
    #: evaluated ``AT`` another context.
    key: Optional[str]


@dataclass
class SummaryDefinition:
    source_name: str  # lowered name of the FROM relation
    depends_on: frozenset  # lowered names of every table and view its bind read
    dimensions: list[SummaryDimension]
    measures: list[SummaryMeasure]
    where: dict[str, str]  # fingerprint -> SQL of each WHERE conjunct
    plan: plans.LogicalPlan  # the refresh plan, AVG companions included
    schema: TableSchema


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
    measures: list[SummaryMeasure] = []
    for item, expr, (column, _) in zip(bound.items, plan.exprs, plan.schema):
        if not item.alias and not isinstance(item.expr, ast.ColumnRef):
            raise CatalogError(
                f"materialized view {name!r}: {to_sql(item.expr)} needs an "
                f"alias (e.g. YEAR(orderDate) AS orderYear, SUM(x) AS x)"
            )
        if isinstance(expr, b.BoundColumn):
            key = b.fingerprint(bound.group_exprs[expr.offset])
            dimensions.setdefault(expr.offset, SummaryDimension(column, key))
        elif isinstance(expr, b.BoundAggRef):
            call = bound.agg_calls[expr.index - len(bound.group_exprs)]
            measures.append(SummaryMeasure(column, _kind(call), b.fingerprint(call)))
        elif isinstance(expr, b.BoundMeasureEval):
            key = None if context_mismatch(expr, bound) else measure_key(expr)
            kind = _kind(expr.measure.formula) if key else "OPAQUE"
            # An AVG measure has no companions: its argument is no column of
            # the relation the summary reads.
            measures.append(
                SummaryMeasure(column, "OPAQUE" if kind == "AVG" else kind, key)
            )
        else:
            raise CatalogError(
                f"materialized view {name!r}: select items must be grouping "
                f"columns or aggregates, got {to_sql(item.expr)}"
            )
    if len(dimensions) != len(bound.group_exprs) or not measures:
        raise CatalogError(
            f"materialized view {name!r} must select every GROUP BY "
            f"expression and at least one aggregate"
        )
    plan = _with_companions(plan, bound, measures)
    spell = spelling(bound)
    return SummaryDefinition(
        source_name=query.from_clause.name.lower(),
        depends_on=frozenset(binder.reads),
        dimensions=list(dimensions.values()),
        measures=measures,
        where={b.fingerprint(c): spell(c) for c in bound.where},
        plan=db._optimize(plan),
        schema=table_schema(plan.schema),
    )


def _with_companions(
    plan: plans.Project, bound: BoundSelect, measures: list[SummaryMeasure]
) -> plans.Project:
    """``plan`` also computing each AVG call as a ``SUM`` and as a ``COUNT``
    (FILTER and all) into hidden columns ``__name_sum`` / ``__name_count``."""
    calls = {b.fingerprint(call): call for call in bound.agg_calls}
    extra: list[tuple[str, b.BoundAggCall]] = []
    for measure in measures:
        if measure.kind == "AVG":
            call = calls[measure.key]
            total = aggregate_result_type("SUM", [arg.dtype for arg in call.args])
            extra += [
                (f"__{measure.name}_sum", replace(call, func="SUM", dtype=total)),
                (f"__{measure.name}_count", replace(call, func="COUNT", dtype=INTEGER)),
            ]
    if not extra:
        return plan
    columns = [(column, call.dtype) for column, call in extra]
    end = len(bound.group_exprs) + len(bound.agg_calls)
    aggregate = replace(
        plan.input,
        agg_calls=[*bound.agg_calls, *(call for _, call in extra)],
        schema=[*plan.input.schema[:end], *columns, *plan.input.schema[end:]],
    )
    for expr in plan.exprs:  # the captured group rows moved right
        spec = getattr(expr, "context", None)
        if spec is not None and spec.captured_rows_offset is not None:
            spec.captured_rows_offset += len(extra)
    refs = [b.BoundAggRef(end + i, dtype) for i, (_, dtype) in enumerate(columns)]
    return plans.Project(aggregate, [*plan.exprs, *refs], [*plan.schema, *columns])


def _kind(call: b.BoundExpr) -> str:
    """How a stored aggregate re-aggregates over sub-groups: DISTINCT keeps
    an extremum but makes the values of sub-groups overlap."""
    if isinstance(call, b.BoundAggCall) and not call.within_distinct:
        if call.func in ("MIN", "MAX") or not call.distinct and call.func in (
            "SUM", "COUNT", "AVG"
        ):
            return call.func
    return "OPAQUE"


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

