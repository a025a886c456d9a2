"""Staleness tracking and maintenance for materialized summary tables.

DML hooks (called from :class:`repro.api.Database`):

* :func:`on_insert` — after INSERT.  When every stored aggregate merges
  additively and the summary reads the mutated base table directly, the
  inserted rows are aggregated on their own (through a throwaway delta
  table) and rolled into the stored summary in place.  Otherwise the
  summary is marked stale.
* :func:`on_mutation` — after UPDATE/DELETE/TRUNCATE touched rows.  Deleted
  or changed rows cannot be subtracted from MIN/MAX-style partials, so
  dependents are always marked stale.

Stale summaries are skipped by the rewriter until
:func:`refresh` (``REFRESH MATERIALIZED VIEW``) recomputes them.
"""

from __future__ import annotations

import copy
from typing import TYPE_CHECKING, Any, Sequence

from repro.catalog.objects import MaterializedView
from repro.sql import ast
from repro.types import coerce_value

if TYPE_CHECKING:  # pragma: no cover
    from repro.api import Database
    from repro.catalog.schema import TableSchema

__all__ = ["compute_rows", "on_insert", "on_mutation", "refresh", "result_schema"]

#: Aggregate kinds whose partials merge with a new partial in place.
_MERGEABLE = frozenset({"SUM", "COUNT", "MIN", "MAX", "AVG"})


def compute_rows(db: "Database", view_query: ast.Select):
    """Run a summary's refresh query with summary rewriting suppressed.

    Suppression matters: the refresh query groups by exactly the summary's
    dimensions, so the rewriter would otherwise answer it from the (old!)
    summary itself.
    """
    previous = db._suppress_summaries
    db._suppress_summaries = True
    if db.telemetry is not None:
        # Maintenance work is invisible to the user-facing query metrics
        # (it never goes through execute()); count it separately so the
        # engine's internal load is still observable.
        db.telemetry.record_internal_query()
    try:
        return db._run_query(copy.deepcopy(view_query))[0]
    finally:
        db._suppress_summaries = previous


def result_schema(result) -> "TableSchema":
    """A storable schema for a refresh query's result columns."""
    from repro.catalog.schema import Column, TableSchema
    from repro.types import UNKNOWN, VARCHAR

    return TableSchema(
        [
            Column(
                c.name,
                VARCHAR if c.dtype.unwrap() is UNKNOWN else c.dtype.unwrap(),
            )
            for c in result.columns
        ]
    )


def refresh(db: "Database", view: MaterializedView) -> int:
    """Recompute ``view`` from its sources; returns the new row count.

    The definition is re-analyzed first: a source view may have been
    replaced since creation (which marked this summary stale), changing
    measure roll-up classifications or even the summary's schema, so the
    storage table is rebuilt rather than merely reloaded.
    """
    from repro.matview.definition import analyze_definition
    from repro.storage.table import MemoryTable

    view.definition = analyze_definition(db.catalog, view.name, view.query)
    result = compute_rows(db, view.definition.refresh_query)
    view.table = MemoryTable(result_schema(result))
    count = view.table.insert_many(result.rows)
    view.stale = False
    view.stats.refreshes += 1
    if db.telemetry is not None:
        db.telemetry.record_maintenance("refresh", view.name)
    return count


def on_mutation(db: "Database", table_name: str) -> None:
    """UPDATE/DELETE/TRUNCATE touched ``table_name``: invalidate dependents."""
    for view in db.catalog.materialized_views_depending_on(table_name):
        if not view.stale:
            view.stale = True
            view.stats.invalidations += 1
            if db.telemetry is not None:
                db.telemetry.record_maintenance("invalidation", view.name)


def on_insert(
    db: "Database", table_name: str, new_rows: Sequence[tuple]
) -> None:
    """INSERT appended ``new_rows`` to ``table_name``: merge or invalidate."""
    if not new_rows:
        return
    for view in db.catalog.materialized_views_depending_on(table_name):
        if view.stale:
            continue  # already invalid; REFRESH will rebuild from scratch
        if _merge_eligible(view, table_name):
            _merge_delta(db, view, table_name, new_rows)
            view.stats.incremental_merges += 1
            if db.telemetry is not None:
                db.telemetry.record_maintenance("incremental_merge", view.name)
        else:
            view.stale = True
            view.stats.invalidations += 1
            if db.telemetry is not None:
                db.telemetry.record_maintenance("invalidation", view.name)


def _merge_eligible(view: MaterializedView, table_name: str) -> bool:
    """Insert-only deltas roll up in place only when the summary reads the
    mutated base table directly (no intervening view whose semantics the
    delta would have to reproduce) and every aggregate merges additively."""
    if view.definition.source_name != table_name.lower():
        return False
    return all(m.kind in _MERGEABLE for m in view.definition.measures)


def _merge_delta(
    db: "Database",
    view: MaterializedView,
    table_name: str,
    new_rows: Sequence[tuple],
) -> None:
    """Aggregate just the inserted rows and fold them into the summary."""
    source = db.catalog.base_table(table_name)

    delta_name = "__matview_delta"
    while delta_name in db.catalog:
        delta_name += "_"
    from repro.storage.table import MemoryTable

    delta_query = copy.deepcopy(view.definition.refresh_query)
    original_from = delta_query.from_clause
    delta_query.from_clause = ast.TableName(
        delta_name, original_from.alias or original_from.name
    )

    db.catalog.create_table(delta_name, source.schema)
    try:
        delta_table = db.catalog.base_table(delta_name)
        delta_table.table.insert_many(new_rows)
        delta_result = compute_rows(db, delta_query)
    finally:
        db.catalog.drop("TABLE", delta_name, if_exists=True)

    schema = view.table.schema
    key_positions = [
        schema.index_of(d.name) for d in view.definition.dimensions
    ]
    position_of = {
        tuple(row[i] for i in key_positions): pos
        for pos, row in enumerate(view.table.rows)
    }
    for delta_row in delta_result.rows:
        key = tuple(
            coerce_value(delta_row[i], schema.columns[i].dtype)
            for i in key_positions
        )
        existing = position_of.get(key)
        if existing is None:
            view.table.insert(delta_row)
            position_of[key] = len(view.table.rows) - 1
            continue
        merged = list(view.table.rows[existing])
        for measure in view.definition.measures:
            if measure.kind == "AVG":
                sum_i = schema.index_of(measure.sum_column)
                count_i = schema.index_of(measure.count_column)
                merged[sum_i] = _add(merged[sum_i], delta_row[sum_i])
                merged[count_i] = _add(merged[count_i], delta_row[count_i])
                avg_i = schema.index_of(measure.name)
                merged[avg_i] = (
                    None
                    if not merged[count_i]
                    else merged[sum_i] / merged[count_i]
                )
            else:
                i = schema.index_of(measure.name)
                merged[i] = _combine(measure.kind, merged[i], delta_row[i])
        view.table.rows[existing] = tuple(
            coerce_value(v, c.dtype)
            for v, c in zip(merged, schema.columns)
        )


def _add(old: Any, new: Any) -> Any:
    if old is None:
        return new
    if new is None:
        return old
    return old + new


def _combine(kind: str, old: Any, new: Any) -> Any:
    """Merge one stored partial with the same partial over the delta.

    Aggregates ignore NULL inputs, so a NULL partial on either side yields
    the other side unchanged.
    """
    if old is None:
        return new
    if new is None:
        return old
    if kind in ("SUM", "COUNT"):
        return old + new
    if kind == "MIN":
        return min(old, new)
    return max(old, new)
