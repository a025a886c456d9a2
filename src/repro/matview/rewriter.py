"""Answering a grouped query from a summary table: one match, on the bind.

:func:`match` reads what the binder bound for the query's SELECT
(``Binder.selects``) against what the summary's own bind decided
(:mod:`repro.matview.definition`), and checks four things: every group key
is a dimension, by ``fingerprint`` (an ordinal or an output alias is the
expression it names); every ``BoundAggCall`` is stored, and every measure
evaluation is stored and evaluated in exactly its group's context; the
summary's WHERE conjuncts are among the query's; the rest read only
dimensions.  On a hit the answer — a GROUP BY over the summary table that
reads each item's own column at the summary's grain and, at a coarser one,
finishes the item over its states, each re-aggregated by its roll-up
aggregate (:mod:`repro.matview.definition`) — is printed from the bound query by
:func:`repro.semantics.unbind.unbind`, the way ``expand()`` prints; what
``unbind`` refuses is the ``unsupported-shape`` rejection.  Each candidate
consulted gets a :class:`CandidateReport`, for EXPLAIN, lint and the
per-view counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.catalog.objects import MaterializedView
from repro.errors import UnsupportedError
from repro.matview.definition import SummaryMeasure, context_mismatch, measure_key, spelling
from repro.semantics import bound as b
from repro.semantics.binder import Binder, output_column_name
from repro.semantics.correlate import transform_expr
from repro.semantics.unbind import unbind
from repro.sql import ast
from repro.sql.visitor import and_all
from repro.types import UNKNOWN

if TYPE_CHECKING:  # pragma: no cover
    from repro.catalog import Catalog

__all__ = [
    "CandidateReport", "RewriteOutcome", "match", "rewrite_query", "summary_candidates",
]


@dataclass
class CandidateReport:
    """Why one candidate summary was used, skipped, or rejected; ``rule``
    is the matchability rule a rejection failed (``missing-dimension``, …)."""

    view: str
    status: str  # "hit" | "stale" | "rejected"
    reason: Optional[str] = None
    rule: Optional[str] = None

    def describe(self) -> str:
        if self.status == "hit":
            return f"answered from materialized view {self.view}"
        if self.status == "stale":
            return f"candidate {self.view} skipped: stale (REFRESH to re-enable)"
        return f"candidate {self.view} rejected [{self.rule}]: {self.reason}"


@dataclass
class RewriteOutcome:
    query: ast.Query  # the answer over the summary, or the query on a miss
    used: Optional[MaterializedView] = None
    reports: list[CandidateReport] = field(default_factory=list)


class _NoMatch(Exception):
    def __init__(self, reason: str, rule: str = "unsupported-shape") -> None:
        super().__init__(reason)
        self.rule = rule


def summary_candidates(catalog: "Catalog", query: ast.Query) -> list[MaterializedView]:
    """The summaries over the one table or view ``query`` selects from."""
    if isinstance(query, ast.Select) and isinstance(query.from_clause, ast.TableName):
        return catalog.materialized_views_over(query.from_clause.name)
    return []


def rewrite_query(
    catalog: "Catalog", query: ast.Query, *, record: bool = True
) -> RewriteOutcome:
    """Bind ``query`` and :func:`match` it, for a caller that has not bound
    it.  ``record=False`` leaves the per-view hit/reject counters untouched
    while still producing candidate reports."""
    views = summary_candidates(catalog, query)
    if not views:
        return RewriteOutcome(query)
    binder = Binder(catalog)
    binder.bind_query_top(query)
    return match(views, query, binder, record=record)


def match(
    views: list[MaterializedView], select: ast.Select, binder: Binder, *, record: bool
) -> RewriteOutcome:
    """Answer ``select`` — bound by ``binder`` — from the smallest fresh
    summary among ``views`` (its :func:`summary_candidates`) that can."""
    bound = binder.selects[id(select)]
    outcome = RewriteOutcome(select)
    for view in sorted(views, key=lambda v: len(v.definition.dimensions)):
        try:
            if view.stale:
                report = CandidateReport(view.name, "stale")
            else:
                outcome.query = _answer(view, select, bound)
                report, outcome.used = CandidateReport(view.name, "hit"), view
        except (_NoMatch, UnsupportedError) as miss:
            rule = getattr(miss, "rule", "unsupported-shape")
            report = CandidateReport(view.name, "rejected", str(miss), rule)
        outcome.reports.append(report)
        if record:
            view.stats.record(report)
        if outcome.used is not None:
            break
    return outcome


def _answer(view: MaterializedView, select: ast.Select, bound) -> ast.Select:
    """``select`` answered over ``view``, or :class:`_NoMatch`."""
    if bound.group_exprs is None:
        raise _NoMatch("query is not an aggregate query")
    if select.qualify is not None or any(
        not isinstance(e, ast.SimpleGrouping) for e in select.group_by
    ):
        raise _NoMatch("query uses QUALIFY or grouping sets")
    definition, spell = view.definition, spelling(bound)
    dims = {d.key: d.name for d in definition.dimensions}
    stored = {m.key: m for m in definition.measures if m.key is not None}

    def column(name: str) -> ast.ColumnRef:
        return ast.ColumnRef((view.name, name))

    keys = []
    for expr in bound.group_exprs:
        if b.fingerprint(expr) not in dims:
            raise _NoMatch(
                f"grouping expression {spell(expr)} is not a dimension",
                "missing-dimension",
            )
        keys.append(dims[b.fingerprint(expr)])
    exact = len(keys) == len(dims)  # the binder keeps one key per fingerprint

    conjuncts = {b.fingerprint(c): c for c in bound.where}
    for key, text in definition.where.items():
        if key not in conjuncts:
            raise _NoMatch(
                f"summary filters on {text} but the query does not",
                "predicate-not-subsumed",
            )

    # Each read of a summary column is printed once and stands in the bound
    # expression as a reference to it: ``cells[index]``.
    cells: list[ast.Expression] = []

    def cell(expr: ast.Expression) -> b.BoundExpr:
        cells.append(expr)
        return b.BoundAggRef(len(cells) - 1, UNKNOWN)

    def over_dimensions(node: b.BoundExpr) -> Optional[b.BoundExpr]:
        """A residual conjunct, over the query's FROM row."""
        name = dims.get(b.fingerprint(node))
        if name is not None:
            return cell(column(name))
        if isinstance(node, b.BoundColumn):
            raise _NoMatch(
                f"expression references {spell(node)}, which the summary "
                f"does not store",
                "missing-column",
            )
        return None

    def rollup(measure: Optional[SummaryMeasure], what: str) -> b.BoundExpr:
        """The stored item: its own column at the summary's grain (one row a
        group), else the finish over its states rolled up."""
        if measure is None:
            raise _NoMatch(f"{what} is not stored in the summary", "missing-aggregate")
        if exact:
            return cell(ast.FunctionCall("MIN", [column(measure.name)]))
        if measure.expr is None:
            raise _NoMatch(
                f"{what} does not roll up; grouping must match the summary's "
                f"dimensions exactly",
                "non-distributive-aggregate",
            )
        held = definition.states
        return cell(unbind(measure.expr, [
            lambda i: ast.FunctionCall(held[i].rollup, [column(held[i].column)])
        ]))

    def over_groups(node: b.BoundExpr) -> Optional[b.BoundExpr]:
        """An item, HAVING or ORDER BY key, over the Aggregate output row."""
        if isinstance(node, b.BoundColumn):
            return cell(column(keys[node.offset]))
        if isinstance(node, b.BoundAggRef):
            call = bound.agg_calls[node.index - len(keys)]
            return rollup(stored.get(b.fingerprint(call)), f"aggregate {spell(call)}")
        if isinstance(node, b.BoundMeasureEval):
            mismatch = context_mismatch(node, bound)
            if mismatch is not None:
                raise _NoMatch(mismatch[1], mismatch[0])
            return rollup(stored.get(measure_key(node)), f"measure {node.measure.name}")
        return None

    def printed(expr: b.BoundExpr, visit) -> ast.Expression:
        return unbind(transform_expr(expr, visit), [cells.__getitem__])

    where = [
        printed(c, over_dimensions)
        for key, c in conjuncts.items()
        if key not in definition.where
    ]
    items = [
        ast.SelectItem(printed(expr, over_groups), output_column_name(item, index))
        for index, (item, expr) in enumerate(zip(bound.items, bound.item_exprs))
    ]
    positions = [b.fingerprint(e) for e in bound.item_exprs]
    order_by = [
        ast.OrderItem(
            ast.Literal(positions.index(b.fingerprint(spec.expr)) + 1)
            if b.fingerprint(spec.expr) in positions
            else printed(spec.expr, over_groups),
            spec.descending,
            spec.nulls_first,
        )
        for spec in bound.order_by
    ]
    return ast.Select(
        items=items,
        from_clause=ast.TableName(view.name),
        where=and_all(where),
        group_by=[ast.SimpleGrouping(column(name)) for name in keys],
        having=None if bound.having is None else printed(bound.having, over_groups),
        order_by=order_by,
        limit=select.limit,
        offset=select.offset,
        distinct=select.distinct,
        force_aggregate=True,
    )

