"""Subsumption matching: answer grouped queries from a summary table.

Given a parsed query, :func:`rewrite_query` looks for a fresh materialized
view over the same FROM relation whose dimensions cover the query's grouping
columns and whose stored aggregates can be re-aggregated to the query's
grain.  On a match the query is rewritten — *before* measure expansion or
binding — into a plain GROUP BY over the summary table:

* grouping expressions become references to the summary's dimension columns;
* ``SUM``/``COUNT``/``MIN``/``MAX`` aggregates (and ``AGGREGATE(m)`` over
  such measures) become roll-ups of the stored partials;
* ``AVG`` becomes ``SUM(sum)/SUM(count)`` over hidden companion columns;
* ``OPAQUE`` aggregates match only when the grouping equals the summary's
  dimensions exactly (each output group is a single summary row).

The WHERE clause is matched by conjunct subsumption: every conjunct of the
summary's definition must appear verbatim (canonically) in the query, and the
query's remaining conjuncts must be expressible over the dimensions alone.

Every candidate consulted produces a :class:`CandidateReport` so EXPLAIN can
show why a summary was or was not used.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.catalog.objects import MaterializedView
from repro.engine.aggregates import is_aggregate_function
from repro.matview.definition import (
    SummaryMeasure,
    canonical,
)
from repro.sql import ast
from repro.sql.visitor import and_all, find_all, split_and, transform_topdown

if TYPE_CHECKING:  # pragma: no cover
    from repro.catalog import Catalog

__all__ = ["CandidateReport", "RewriteOutcome", "rewrite_query"]


@dataclass
class CandidateReport:
    """Why one candidate summary was used, skipped, or rejected.

    ``rule`` names the matchability rule a rejection failed (e.g.
    ``missing-dimension``, ``non-distributive-aggregate``,
    ``predicate-not-subsumed``); the lint advisor and the per-view
    ``reject_reasons`` counters key on it.
    """

    view: str
    status: str  # "hit" | "stale" | "rejected"
    reason: Optional[str] = None
    rule: Optional[str] = None

    def describe(self) -> str:
        if self.status == "hit":
            return f"answered from materialized view {self.view}"
        if self.status == "stale":
            return f"candidate {self.view} skipped: stale (REFRESH to re-enable)"
        tag = f" [{self.rule}]" if self.rule else ""
        return f"candidate {self.view} rejected{tag}: {self.reason}"


@dataclass
class RewriteOutcome:
    """Result of one rewrite attempt."""

    query: ast.Query  # rewritten query, or the original when no hit
    used: Optional[MaterializedView] = None
    reports: list[CandidateReport] = field(default_factory=list)

    @property
    def rewritten(self) -> bool:
        return self.used is not None

    def explain_lines(self) -> list[str]:
        return [f"summary: {r.describe()}" for r in self.reports]


class _NoMatch(Exception):
    """Raised inside translation when the candidate cannot answer the query.

    ``rule`` is the stable matchability-rule slug the reason belongs to.
    """

    def __init__(self, reason: str, rule: str = "unsupported-shape") -> None:
        super().__init__(reason)
        self.reason = reason
        self.rule = rule


def rewrite_query(
    catalog: "Catalog", query: ast.Query, *, record: bool = True
) -> RewriteOutcome:
    """Try to answer ``query`` from a materialized summary table.

    ``record=False`` (used by EXPLAIN) leaves the per-view hit/reject
    counters untouched while still producing candidate reports.
    """
    if not isinstance(query, ast.Select):
        return RewriteOutcome(query)
    if not isinstance(query.from_clause, ast.TableName):
        return RewriteOutcome(query)
    candidates = catalog.materialized_views_over(query.from_clause.name)
    if not candidates:
        return RewriteOutcome(query)

    measure_names = _source_measure_names(catalog, query.from_clause.name)
    shape_reason = _unmatchable_shape(query, measure_names)
    reports: list[CandidateReport] = []
    if shape_reason is not None:
        for view in candidates:
            reports.append(
                CandidateReport(
                    view.name, "rejected", shape_reason, "unsupported-shape"
                )
            )
            if record:
                view.stats.record_reject(shape_reason, "unsupported-shape")
        return RewriteOutcome(query, reports=reports)

    # Prefer the smallest covering summary (fewest dimensions).
    for view in sorted(candidates, key=lambda v: len(v.definition.dimensions)):
        if view.stale:
            reports.append(CandidateReport(view.name, "stale"))
            if record:
                view.stats.stale_skips += 1
            continue
        try:
            rewritten = _try_rewrite(view, query, measure_names)
        except _NoMatch as miss:
            reports.append(
                CandidateReport(view.name, "rejected", miss.reason, miss.rule)
            )
            if record:
                view.stats.record_reject(miss.reason, miss.rule)
            continue
        reports.append(CandidateReport(view.name, "hit"))
        if record:
            view.stats.hits += 1
        return RewriteOutcome(rewritten, used=view, reports=reports)
    return RewriteOutcome(query, reports=reports)


def _source_measure_names(catalog: "Catalog", source: str) -> frozenset:
    """Lowercased names of the measure columns of the query's FROM view.

    A bare reference to a measure column in a grouped query is the paper's
    shorthand for ``AGGREGATE(m)`` (section 3.3), so the rewriter must
    recognize it to match summaries the same way the expander does.  Views
    with a rename list are skipped: the rename obscures which item defines
    each measure (mirroring :func:`~repro.matview.definition._classify_measure`).
    """
    from repro.catalog.objects import View

    obj = catalog.get(source)
    if (
        not isinstance(obj, View)
        or not isinstance(obj.query, ast.Select)
        or obj.column_names
    ):
        return frozenset()
    return frozenset(
        (item.alias or "").lower()
        for item in obj.query.items
        if item.is_measure and item.alias
    )


def _unmatchable_shape(
    select: ast.Select, measure_names: frozenset = frozenset()
) -> Optional[str]:
    """A reason this query can never be answered from a summary, or None."""
    if select.distinct:
        return "query uses SELECT DISTINCT"
    if select.qualify is not None:
        return "query uses QUALIFY"
    if select.windows:
        return "query uses a WINDOW clause"
    for element in select.group_by:
        if not isinstance(element, ast.SimpleGrouping):
            return "query uses grouping sets (ROLLUP/CUBE/GROUPING SETS)"
    for node in select.walk():
        if isinstance(node, ast.Star):
            # Select-list * / alias.* only: COUNT(*) carries ``star_arg``
            # on the FunctionCall and never produces a Star node, so it
            # stays matchable against a stored COUNT(*) measure.
            return "query selects *"
        if isinstance(node, ast.At):
            return "query uses the AT context operator"
        if isinstance(node, (ast.ScalarSubquery, ast.InSubquery, ast.Exists)):
            return "query contains a subquery"
        if isinstance(node, ast.FunctionCall) and (
            node.over is not None or node.over_name is not None
        ):
            return "query uses a window function"
    if not select.group_by:
        # Without GROUP BY the query must be a global aggregate; a plain
        # row-level SELECT cannot be answered from pre-grouped rows.  Only
        # genuine aggregate calls count — a scalar call like UPPER(region)
        # keeps the query at row grain.
        for item in select.items:
            if not _contains_aggregate(item.expr, measure_names):
                return "query is not an aggregate query"
    return None


def _is_aggregate_call(node: ast.Node) -> bool:
    """True for a plain (non-windowed) aggregate call, including the
    measure operator ``AGGREGATE(m)``."""
    return (
        isinstance(node, ast.FunctionCall)
        and node.over is None
        and node.over_name is None
        and (node.name == "AGGREGATE" or is_aggregate_function(node.name))
    )


def _is_measure_ref(node: ast.Node, measure_names: frozenset) -> bool:
    """True for a bare column reference to a measure of the source view
    (implicit ``AGGREGATE`` at the query's grain, paper section 3.3)."""
    return (
        isinstance(node, ast.ColumnRef)
        and node.parts[-1].lower() in measure_names
    )


def _contains_aggregate(
    expr: ast.Expression, measure_names: frozenset = frozenset()
) -> bool:
    return any(
        _is_aggregate_call(node) or _is_measure_ref(node, measure_names)
        for node in expr.walk()
    )


def _try_rewrite(
    view: MaterializedView,
    select: ast.Select,
    measure_names: frozenset = frozenset(),
) -> ast.Select:
    """Rewrite ``select`` over ``view`` or raise :class:`_NoMatch`."""
    definition = view.definition
    dims_by_key = {d.key: d for d in definition.dimensions}
    measures_by_key = {m.key: m for m in definition.measures}

    # Grouping subsumption: every grouping expression is a stored dimension.
    group_keys: list[str] = []
    for element in select.group_by:
        key = canonical(element.expr)
        if key not in dims_by_key:
            raise _NoMatch(
                f"grouping expression {key} is not a dimension",
                "missing-dimension",
            )
        group_keys.append(key)
    exact = set(group_keys) == set(dims_by_key)

    # WHERE subsumption: the summary's filter must be part of the query's,
    # and whatever remains must be answerable over the dimensions.
    query_conjuncts = split_and(select.where)
    query_keys = {canonical(c) for c in query_conjuncts}
    missing = definition.where_keys - query_keys
    if missing:
        raise _NoMatch(
            f"summary filters on {sorted(missing)[0]} but the query does not",
            "predicate-not-subsumed",
        )
    residual = [
        c for c in query_conjuncts if canonical(c) not in definition.where_keys
    ]

    markers: set[int] = set()

    def dim_ref(column: str) -> ast.ColumnRef:
        ref = ast.ColumnRef((view.name, column))
        markers.add(id(ref))
        return ref

    def replace(node: ast.Node) -> Optional[ast.Node]:
        if not isinstance(node, ast.Expression):
            return None
        key = canonical(node)
        if _is_measure_ref(node, measure_names) and key not in dims_by_key:
            # A bare measure reference aggregates implicitly: match it as if
            # the query had written AGGREGATE(m).  Never substituted as a
            # plain column — a measure the summary does not store must fall
            # through to normal expansion over the base view.
            implicit = ast.FunctionCall("AGGREGATE", [copy.deepcopy(node)])
            measure = measures_by_key.get(canonical(implicit))
            if measure is None:
                raise _NoMatch(
                    f"measure {key} is not stored in the summary",
                    "missing-aggregate",
                )
            if not measure.rolls_up and not exact:
                raise _NoMatch(
                    f"measure {measure.name} does not roll up "
                    f"({measure.kind}); grouping must match the summary's "
                    f"dimensions exactly",
                    "non-distributive-aggregate",
                )
            return _rollup(measure, dim_ref)
        if isinstance(node, ast.FunctionCall):
            measure = measures_by_key.get(key)
            if measure is not None:
                if not measure.rolls_up and not exact:
                    raise _NoMatch(
                        f"measure {measure.name} does not roll up "
                        f"({measure.kind}); grouping must match the summary's "
                        f"dimensions exactly",
                        "non-distributive-aggregate",
                    )
                return _rollup(measure, dim_ref)
            if _is_aggregate_call(node):
                # Never translate an aggregate the summary does not store:
                # substituting its arguments would re-run it over pre-grouped
                # summary rows (e.g. COUNT(region) would count groups, not
                # base rows).
                raise _NoMatch(
                    f"aggregate {key} is not stored in the summary",
                    "missing-aggregate",
                )
        dim = dims_by_key.get(key)
        if dim is not None:
            return dim_ref(dim.name)
        return None

    def translate(expr: ast.Expression) -> ast.Expression:
        result = transform_topdown(copy.deepcopy(expr), replace)
        for ref in find_all(result, ast.ColumnRef):
            if id(ref) not in markers:
                raise _NoMatch(
                    f"expression references {'.'.join(ref.parts)}, which the "
                    f"summary does not store",
                    "missing-column",
                )
        return result

    from repro.semantics.binder import output_column_name

    items = []
    for index, item in enumerate(select.items):
        if item.is_measure:
            raise _NoMatch(
                "query defines an AS MEASURE item", "unsupported-shape"
            )
        # Carry the original derived column name: the roll-up expression
        # (e.g. COALESCE(SUM(n), 0) for COUNT) must not rename the output.
        items.append(
            ast.SelectItem(translate(item.expr), output_column_name(item, index))
        )

    output_aliases = {
        (item.alias or "").lower() for item in select.items if item.alias
    }

    def translate_order(expr: ast.Expression) -> ast.Expression:
        # Ordinals and output-alias references survive the rewrite as-is;
        # everything else must be expressible over the summary.
        if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
            return copy.deepcopy(expr)
        if (
            isinstance(expr, ast.ColumnRef)
            and len(expr.parts) == 1
            and expr.name.lower() in output_aliases
        ):
            return copy.deepcopy(expr)
        return translate(expr)

    rewritten = ast.Select(
        items=items,
        from_clause=ast.TableName(view.name),
        where=and_all(translate(c) for c in residual),
        group_by=[
            ast.SimpleGrouping(translate(e.expr)) for e in select.group_by
        ],
        having=translate(select.having) if select.having is not None else None,
        order_by=[
            ast.OrderItem(translate_order(o.expr), o.descending, o.nulls_first)
            for o in select.order_by
        ],
        limit=copy.deepcopy(select.limit),
        offset=copy.deepcopy(select.offset),
        force_aggregate=not select.group_by,
    )
    return rewritten


def _rollup(measure: SummaryMeasure, dim_ref) -> ast.Expression:
    """The expression that re-aggregates one stored measure column."""
    if measure.kind == "SUM":
        return ast.FunctionCall("SUM", [dim_ref(measure.name)])
    if measure.kind == "COUNT":
        # SUM over an empty input is NULL but COUNT must be 0 (the global,
        # no-GROUP-BY grain can see zero summary rows).
        return ast.FunctionCall(
            "COALESCE",
            [
                ast.FunctionCall("SUM", [dim_ref(measure.name)]),
                ast.Literal(0),
            ],
        )
    if measure.kind in ("MIN", "MAX"):
        return ast.FunctionCall(measure.kind, [dim_ref(measure.name)])
    if measure.kind == "AVG":
        return ast.FunctionCall(
            "SAFE_DIVIDE",
            [
                ast.FunctionCall("SUM", [dim_ref(measure.sum_column)]),
                ast.FunctionCall("SUM", [dim_ref(measure.count_column)]),
            ],
        )
    # OPAQUE, exact grouping: each group is exactly one summary row, so any
    # aggregate that returns that row's value is the identity.
    return ast.FunctionCall("MIN", [dim_ref(measure.name)])
