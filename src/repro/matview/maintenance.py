"""Staleness and maintenance of summary tables.

A summary's rows come from its stored refresh plan; only :func:`refresh`
binds the definition again.  After an INSERT a mergeable summary runs that
plan over the inserted rows alone and folds the result in; any other
dependent summary, and every one after UPDATE / DELETE / TRUNCATE, is marked
stale and skipped by the matcher until refreshed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional, Sequence

from repro.catalog.objects import MaterializedView
from repro.engine.evaluator import ExecutionContext
from repro.engine.executor import execute_plan
from repro.types import coerce_value

if TYPE_CHECKING:  # pragma: no cover
    from repro.api import Database
    from repro.matview.definition import SummaryDefinition

__all__ = ["compute_rows", "on_insert", "on_mutation", "refresh"]

#: Aggregate kinds whose partials merge with a new partial in place.
_MERGEABLE = frozenset({"SUM", "COUNT", "MIN", "MAX", "AVG"})


def compute_rows(
    db: "Database",
    definition: "SummaryDefinition",
    delta: Optional[Sequence[tuple]] = None,
) -> list[tuple]:
    """Run a summary's refresh plan — over ``delta`` in place of its source
    table's rows, when given."""
    if db.telemetry is not None:  # internal work, off the statement metrics
        db.telemetry.record_internal_query()
    ctx = ExecutionContext(db.catalog, enable_cache=db.cache_enabled)
    if delta is not None:
        # A scan reads a table's snapshot when its context has one, so the
        # plan's scan of the source reads just the inserted rows.
        ctx.table_snapshots[definition.source_name] = list(delta)
    try:
        return execute_plan(definition.plan, ctx)
    finally:
        ctx.release()


def refresh(db: "Database", view: MaterializedView) -> int:
    """Bind ``view``'s definition again (a source view may have been
    replaced), rebuild its table and return the row count."""
    from repro.matview.definition import analyze_definition
    from repro.storage.table import MemoryTable

    view.definition = analyze_definition(db, view.name, view.query)
    view.table = MemoryTable(view.definition.schema)
    count = view.table.insert_many(compute_rows(db, view.definition))
    view.stale = False
    view.stats.refreshes += 1
    if db.telemetry is not None:
        db.telemetry.record_maintenance("refresh", view.name)
    return count


def on_mutation(db: "Database", table_name: str) -> None:
    """UPDATE/DELETE/TRUNCATE touched ``table_name``: invalidate dependents."""
    for view in db.catalog.materialized_views_depending_on(table_name):
        if not view.stale:
            _invalidate(db, view)


def on_insert(
    db: "Database", table_name: str, new_rows: Sequence[tuple]
) -> None:
    """INSERT appended ``new_rows`` to ``table_name``: merge or invalidate.

    Insert-only deltas roll up in place only when the summary reads the
    table directly (no intervening view whose semantics the delta would
    have to reproduce) and every aggregate merges additively."""
    if not new_rows:
        return
    for view in db.catalog.materialized_views_depending_on(table_name):
        if view.stale:
            continue  # already invalid; REFRESH will rebuild from scratch
        definition = view.definition
        if definition.source_name != table_name.lower() or any(
            m.kind not in _MERGEABLE for m in definition.measures
        ):
            _invalidate(db, view)
            continue
        _merge(view, compute_rows(db, definition, new_rows))
        view.stats.incremental_merges += 1
        if db.telemetry is not None:
            db.telemetry.record_maintenance("incremental_merge", view.name)


def _invalidate(db: "Database", view: MaterializedView) -> None:
    view.stale = True
    view.stats.invalidations += 1
    if db.telemetry is not None:
        db.telemetry.record_maintenance("invalidation", view.name)


def _merge(view: MaterializedView, delta_rows: list[tuple]) -> None:
    """Fold the partials of the inserted rows into the stored ones."""
    table, columns = view.table, view.table.schema.columns
    at = {column.name: i for i, column in enumerate(columns)}
    keys = [at[d.name] for d in view.definition.dimensions]
    position_of = {
        tuple(row[i] for i in keys): p for p, row in enumerate(table.rows)
    }
    for delta in delta_rows:
        delta = tuple(coerce_value(v, c.dtype) for v, c in zip(delta, columns))
        position = position_of.get(tuple(delta[i] for i in keys))
        if position is None:
            position_of[tuple(delta[i] for i in keys)] = len(table.rows)
            table.insert(delta)
            continue
        merged = list(table.rows[position])
        for measure in view.definition.measures:
            if measure.kind == "AVG":
                total, count = (at[f"__{measure.name}_{p}"] for p in ("sum", "count"))
                merged[total] = _combine("SUM", merged[total], delta[total])
                merged[count] = _combine("SUM", merged[count], delta[count])
                merged[at[measure.name]] = (
                    merged[total] / merged[count] if merged[count] else None
                )
            else:
                i = at[measure.name]
                merged[i] = _combine(measure.kind, merged[i], delta[i])
        table.rows[position] = tuple(
            coerce_value(v, c.dtype) for v, c in zip(merged, columns)
        )


def _combine(kind: str, old: Any, new: Any) -> Any:
    """Merge one stored partial with the same partial over the delta.
    Aggregates ignore NULL inputs, so a NULL partial on either side yields
    the other side unchanged."""
    if old is None or new is None:
        return new if old is None else old
    if kind in ("SUM", "COUNT"):
        return old + new
    return min(old, new) if kind == "MIN" else max(old, new)
