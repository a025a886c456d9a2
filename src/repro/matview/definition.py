"""Analysis of ``CREATE MATERIALIZED VIEW`` definitions.

A summary definition must have the shape::

    SELECT dim..., agg(...) AS name... FROM relation [WHERE ...] GROUP BY dim...

where ``relation`` is a base table or a (measure) view.  The analyzer
validates that shape and classifies every stored aggregate by how it can be
re-aggregated when a query groups by a *subset* of the summary's dimensions:

============  ==============================================================
kind          roll-up
============  ==============================================================
``SUM``       ``SUM`` of the stored partial sums
``COUNT``     ``SUM`` of the stored partial counts
``MIN/MAX``   ``MIN``/``MAX`` of the stored partial extrema
``AVG``       ``SUM(sum) / SUM(count)`` over hidden companion columns the
              refresh query also materializes
``OPAQUE``    does not roll up; usable only when the query's grouping equals
              the summary's dimensions exactly (each group is one row)
============  ==============================================================

``AGGREGATE(m)`` items are classified by inspecting the measure's defining
formula in the source view: a measure that is a single distributive aggregate
(SUM/COUNT/MIN/MAX) rolls up like that aggregate; anything else — ratios such
as the paper's ``profitMargin``, AVG measures, DISTINCT aggregates — is
``OPAQUE`` and falls through to normal measure expansion unless the grouping
matches exactly.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.catalog.objects import BaseTable, View
from repro.errors import CatalogError
from repro.sql import ast
from repro.sql.printer import to_sql
from repro.sql.visitor import split_and, transform

if TYPE_CHECKING:  # pragma: no cover
    from repro.catalog import Catalog

__all__ = [
    "SummaryDefinition",
    "SummaryDimension",
    "SummaryMeasure",
    "analyze_definition",
    "canonical",
]

#: Aggregates that re-aggregate losslessly over disjoint sub-groups.
_DISTRIBUTIVE = frozenset({"SUM", "COUNT", "MIN", "MAX"})


def canonical(expr: ast.Expression) -> str:
    """A canonical text key for an expression: qualifiers stripped,
    identifiers lower-cased, rendered by the standard printer.

    Both the summary definition and candidate queries reference a single
    relation, so dropping qualifiers makes ``o.prodName``, ``prodName`` and
    ``PRODNAME`` compare equal while string literals stay case-sensitive.
    """

    def strip(node: ast.Expression) -> ast.Expression:
        if isinstance(node, ast.ColumnRef):
            return ast.ColumnRef((node.parts[-1].lower(),))
        return node

    return to_sql(transform(copy.deepcopy(expr), strip, into_queries=True))


@dataclass
class SummaryDimension:
    """One grouping column of a summary table."""

    name: str  # column name in the summary table
    key: str  # canonical text of the grouping expression


@dataclass
class SummaryMeasure:
    """One stored aggregate of a summary table."""

    name: str  # column name in the summary table
    kind: str  # SUM | COUNT | MIN | MAX | AVG | OPAQUE
    key: str  # canonical text of the aggregate call it stores
    #: AVG only: hidden companion columns holding the SUM/COUNT pair.
    sum_column: Optional[str] = None
    count_column: Optional[str] = None

    @property
    def rolls_up(self) -> bool:
        return self.kind != "OPAQUE"


@dataclass
class SummaryDefinition:
    """Everything the catalog needs to store about one summary."""

    source_name: str  # lowered name of the FROM relation
    #: Lowered names of every relation the summary reads, transitively:
    #: base tables AND intervening views, so replacing or dropping a view
    #: in the chain invalidates the summary like table DML does.
    depends_on: frozenset
    dimensions: list[SummaryDimension]
    measures: list[SummaryMeasure]
    where_keys: frozenset  # canonical text of the definition's WHERE conjuncts
    refresh_query: ast.Select  # definition + hidden AVG companion items
    query: ast.Select = field(repr=False, default=None)  # as written


def analyze_definition(catalog: "Catalog", name: str, query: ast.Query) -> SummaryDefinition:
    """Validate a summary definition and build its :class:`SummaryDefinition`."""
    if not isinstance(query, ast.Select):
        raise CatalogError(
            f"materialized view {name!r} must be a plain SELECT ... GROUP BY"
        )
    select = query
    for flag, label in (
        (select.distinct, "DISTINCT"),
        (select.having is not None, "HAVING"),
        (select.qualify is not None, "QUALIFY"),
        (select.order_by, "ORDER BY"),
        (select.limit is not None, "LIMIT"),
        (select.offset is not None, "OFFSET"),
        (select.windows, "WINDOW"),
    ):
        if flag:
            raise CatalogError(
                f"materialized view {name!r} does not support {label}"
            )
    if not isinstance(select.from_clause, ast.TableName):
        raise CatalogError(
            f"materialized view {name!r} must select from a single table or view"
        )
    if any(isinstance(p, ast.Parameter) for p in select.walk()):
        raise CatalogError(
            f"materialized view {name!r} cannot use ? parameters"
        )
    source_ref = select.from_clause
    source_name = source_ref.name.lower()
    depends_on = _base_dependencies(catalog, source_ref.name, name)

    # Grouping: simple expressions only, each of which must also be selected.
    dim_keys: list[str] = []
    for element in select.group_by:
        if not isinstance(element, ast.SimpleGrouping):
            raise CatalogError(
                f"materialized view {name!r} does not support grouping sets"
            )
        dim_keys.append(canonical(element.expr))

    item_keys = {canonical(item.expr): item for item in select.items}
    dimensions: list[SummaryDimension] = []
    for key in dim_keys:
        item = item_keys.get(key)
        if item is None:
            raise CatalogError(
                f"materialized view {name!r}: every GROUP BY expression must "
                f"appear in the SELECT list"
            )
        column = item.alias or (
            item.expr.name if isinstance(item.expr, ast.ColumnRef) else None
        )
        if column is None:
            raise CatalogError(
                f"materialized view {name!r}: dimension expressions need an "
                f"alias (e.g. YEAR(orderDate) AS orderYear)"
            )
        dimensions.append(SummaryDimension(column, key))

    measures: list[SummaryMeasure] = []
    hidden_items: list[ast.SelectItem] = []
    for item in select.items:
        key = canonical(item.expr)
        if key in dim_keys:
            continue
        call = item.expr
        if not isinstance(call, ast.FunctionCall):
            raise CatalogError(
                f"materialized view {name!r}: select items must be grouping "
                f"columns or aggregate calls, got {to_sql(item.expr)}"
            )
        if call.over is not None or call.over_name is not None:
            raise CatalogError(
                f"materialized view {name!r}: window functions are not "
                f"aggregables; use a plain aggregate"
            )
        if item.alias is None:
            raise CatalogError(
                f"materialized view {name!r}: aggregate item "
                f"{to_sql(call)} needs an alias"
            )
        kind = _classify(catalog, source_ref.name, call)
        measure = SummaryMeasure(item.alias, kind, key)
        if kind == "AVG":
            arg = call.args[0]
            measure.sum_column = f"__{item.alias}_sum"
            measure.count_column = f"__{item.alias}_count"
            hidden_items.append(
                ast.SelectItem(
                    ast.FunctionCall("SUM", [copy.deepcopy(arg)]),
                    measure.sum_column,
                )
            )
            hidden_items.append(
                ast.SelectItem(
                    ast.FunctionCall("COUNT", [copy.deepcopy(arg)]),
                    measure.count_column,
                )
            )
        measures.append(measure)
    if not measures:
        raise CatalogError(
            f"materialized view {name!r} must store at least one aggregate"
        )

    refresh_query = copy.deepcopy(select)
    refresh_query.items = refresh_query.items + hidden_items

    return SummaryDefinition(
        source_name=source_name,
        depends_on=depends_on,
        dimensions=dimensions,
        measures=measures,
        where_keys=frozenset(canonical(c) for c in split_and(select.where)),
        refresh_query=refresh_query,
        query=select,
    )


def _classify(catalog: "Catalog", source: str, call: ast.FunctionCall) -> str:
    """How does this stored aggregate re-aggregate over sub-groups?"""
    name = call.name
    if name in ("AGGREGATE", "EVAL"):
        if name == "EVAL":
            return "OPAQUE"  # row-grain evaluation does not re-aggregate
        inner = call.args[0] if call.args else None
        if not isinstance(inner, ast.ColumnRef):
            return "OPAQUE"
        return _classify_measure(catalog, source, inner.name)
    if call.distinct or call.within_distinct:
        # COUNT(DISTINCT x) over sub-groups overlaps; MIN/MAX are unaffected
        # by DISTINCT and still roll up.
        return name if name in ("MIN", "MAX") else "OPAQUE"
    if name in _DISTRIBUTIVE:
        return name
    if name == "AVG" and call.args and call.filter_where is None:
        return "AVG"
    return "OPAQUE"


def _classify_measure(catalog: "Catalog", source: str, measure: str) -> str:
    """Classify ``AGGREGATE(measure)`` by the measure's defining formula."""
    obj = catalog.get(source)
    if not isinstance(obj, View) or not isinstance(obj.query, ast.Select):
        return "OPAQUE"
    if obj.column_names:
        return "OPAQUE"  # renames obscure which item defines the measure
    wanted = measure.lower()
    for item in obj.query.items:
        if not item.is_measure or (item.alias or "").lower() != wanted:
            continue
        formula = item.expr
        if (
            isinstance(formula, ast.FunctionCall)
            and formula.name in _DISTRIBUTIVE
            and not formula.distinct
            and not formula.within_distinct
            and formula.filter_where is None
            and formula.over is None
        ):
            return formula.name
        return "OPAQUE"
    return "OPAQUE"


def _base_dependencies(
    catalog: "Catalog", relation: str, mv_name: str, _seen: Optional[set] = None
) -> frozenset:
    """Every relation (base table or view) a relation reads, transitively.

    View names are included so that ``CREATE OR REPLACE VIEW`` / ``DROP``
    on any link of the chain can invalidate dependent summaries."""
    from repro.catalog.objects import MaterializedView

    seen = _seen if _seen is not None else set()
    key = relation.lower()
    if key in seen:
        return frozenset()
    seen.add(key)
    obj = catalog.get(relation)
    if obj is None:
        raise CatalogError(f"unknown table or view {relation!r}")
    if isinstance(obj, MaterializedView):
        raise CatalogError(
            f"materialized view {mv_name!r} cannot be defined over another "
            f"materialized view ({obj.name!r})"
        )
    if isinstance(obj, BaseTable):
        return frozenset({key})
    from repro.catalog.objects import SystemTable

    if isinstance(obj, SystemTable):
        # A summary over a system table could never be subsumption-matched
        # or invalidated: its source mutates on every query (lint RP113).
        raise CatalogError(
            f"materialized view {mv_name!r} cannot be defined over system "
            f"table {obj.name!r}: system tables are volatile"
        )
    assert isinstance(obj, View)
    found: set[str] = {key}
    for node in obj.query.walk():
        if isinstance(node, ast.TableName):
            found |= _base_dependencies(catalog, node.name, mv_name, seen)
    return frozenset(found)
