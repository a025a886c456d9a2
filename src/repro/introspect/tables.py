"""The ``repro_*`` system tables: schemas and providers.

:func:`install_system_tables` registers ten read-only virtual tables
in a Database's catalog.  Each is a
:class:`~repro.catalog.objects.SystemTable` whose provider closes over
the Database and computes rows on demand — no storage, no refresh,
always current.  They bind and scan like ordinary tables, so views
(including measure views) compose over them and the whole measure
vocabulary (``AS MEASURE``, ``AGGREGATE``, ``AT``) applies to the
engine's own statistics.

Telemetry-backed tables (``repro_stat_statements``, ``repro_statements``,
``repro_metrics``, ``repro_events``) are empty — not errors — when
telemetry is off; ``repro_tables``, ``repro_matviews``, and the
``ANALYZE``-backed ``repro_table_stats`` / ``repro_column_stats`` read the
catalog and work regardless.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

from repro.catalog.objects import BaseTable, SystemTable, View
from repro.catalog.schema import Column, TableSchema
from repro.profile.watch import Watch, current_query_id
from repro.introspect.statements import StrategyEntry
from repro.types import BOOLEAN, DOUBLE, INTEGER, VARCHAR

if TYPE_CHECKING:  # pragma: no cover
    from repro.api import Database

__all__ = ["STATEMENT_COLUMNS", "SYSTEM_TABLE_NAMES", "install_system_tables"]

#: Every system table this module installs, in registration order.
SYSTEM_TABLE_NAMES = (
    "repro_stat_statements",
    "repro_statements",
    "repro_metrics",
    "repro_events",
    "repro_matviews",
    "repro_tables",
    "repro_running_queries",
    "repro_query_progress",
    "repro_table_stats",
    "repro_column_stats",
)

#: The ``repro_statements`` columns: one statement-ring entry each
#: (:meth:`repro.telemetry.events.Entry.as_row`).
STATEMENT_COLUMNS = (
    ("seq", INTEGER),
    ("ts", VARCHAR),
    ("session", VARCHAR),
    ("kind", VARCHAR),
    ("fingerprint", VARCHAR),
    ("query", VARCHAR),
    ("sql", VARCHAR),
    ("strategy", VARCHAR),
    ("plan_hash", VARCHAR),
    ("old_strategy", VARCHAR),
    ("old_plan_hash", VARCHAR),
    ("outcome", VARCHAR),
    ("error", VARCHAR),
    ("wall_ms", DOUBLE),
    ("rows_returned", INTEGER),
    ("phases", VARCHAR),
)


def _schema(*columns: tuple) -> TableSchema:
    return TableSchema([Column(name, dtype) for name, dtype in columns])


def _stat_text(value) -> "str | None":
    """Render a min/max statistic as text (the column type varies per
    analyzed column, the system-table column cannot)."""
    return None if value is None else str(value)


def install_system_tables(db: "Database") -> None:
    """Register the ``repro_*`` introspection tables in ``db``'s catalog."""

    def statements_group() -> dict[str, list[tuple]]:
        """Both statement tables from ONE locked read of the statement
        ring and its statistics, so a query joining them sees one state
        even while other sessions observe or ``reset_stats()``."""
        if db.telemetry is None:
            return {"repro_stat_statements": [], "repro_statements": []}
        stats, entries, _ = db.telemetry.statement_snapshot()
        return {
            "repro_stat_statements": [s.as_row() for s in stats],
            "repro_statements": [e.as_row() for e in entries],
        }

    def table_stats_group() -> dict[str, list[tuple]]:
        """Both ANALYZE tables from one pass over the stored statistics,
        so a column row always has a matching table row even if another
        session re-analyzes between scans."""
        table_rows: list[tuple] = []
        column_rows: list[tuple] = []
        for stats in db.catalog.all_table_stats():
            mods = db.catalog.mods_since_analyze(stats.table)
            table_rows.append(
                (
                    stats.table,
                    stats.row_count,
                    len(stats.columns),
                    stats.analyzed_at,
                    mods,
                    mods > 0,
                )
            )
            for column in stats.columns:
                column_rows.append(
                    (
                        stats.table,
                        column.column,
                        column.dtype,
                        column.ndv,
                        column.null_count,
                        column.null_frac,
                        _stat_text(column.min_value),
                        _stat_text(column.max_value),
                        column.histogram_json(),
                    )
                )
        return {
            "repro_table_stats": table_rows,
            "repro_column_stats": column_rows,
        }

    def metrics() -> list[tuple]:
        if db.telemetry is None:
            return []
        return db.telemetry.registry.rows()

    def events() -> list[tuple]:
        if db.telemetry is None:
            return []
        rows = []
        for event in db.telemetry.events():
            detail = {
                k: v
                for k, v in event.items()
                if k not in ("seq", "ts", "event", "sql")
            }
            rows.append(
                (
                    event["seq"],
                    event["ts"],
                    event["event"],
                    event.get("sql"),
                    json.dumps(detail, default=str, sort_keys=True),
                )
            )
        return rows

    def matviews() -> list[tuple]:
        rows = []
        for view in db.catalog.materialized_views():
            stats = view.stats
            rows.append(
                (
                    view.name,
                    view.definition.source_name,
                    view.stale,
                    len(view.table),
                    stats.hits,
                    stats.rejects,
                    stats.stale_skips,
                    stats.refreshes,
                    stats.incremental_merges,
                    stats.last_reject_reason,
                )
            )
        return rows

    def tables() -> list[tuple]:
        rows = []
        for obj in db.catalog:
            if isinstance(obj, BaseTable):
                columns, count = len(obj.schema.columns), len(obj.table)
            else:
                assert isinstance(obj, View)
                columns = len(obj.column_names) or None
                count = None
            rows.append((obj.name, obj.kind.lower(), columns, count))
        for system in db.catalog.system_tables():
            rows.append(
                (
                    system.name,
                    system.kind.lower(),
                    len(system.schema.columns),
                    None,
                )
            )
        return sorted(rows, key=lambda r: r[0].lower())

    def running_group() -> dict[str, list[tuple]]:
        """Both live-progress tables from ONE registry snapshot.

        A join of repro_running_queries against repro_query_progress sees
        one consistent set of queries: a query finishing between the two
        scans can never leave operator rows without their parent row.
        The observer's own query id (current_query_id, set by the
        Database around every tracked execution) is excluded, so a query
        polling the registry never observes itself.
        """
        watches = db.running.snapshot(exclude=current_query_id.get())
        return {
            "repro_running_queries": [w.as_row() for w in watches],
            "repro_query_progress": [
                row for w in watches for row in w.operator_rows()
            ],
        }

    register = db.catalog.register_system_table
    db.catalog.register_snapshot_group("statements", statements_group)
    db.catalog.register_snapshot_group("running", running_group)
    db.catalog.register_snapshot_group("table_stats", table_stats_group)
    register(
        SystemTable(
            "repro_stat_statements",
            TableSchema.of(StrategyEntry.COLUMNS),
            lambda: statements_group()["repro_stat_statements"],
            comment="per-(fingerprint, strategy) statement statistics",
            group="statements",
        )
    )
    register(
        SystemTable(
            "repro_statements",
            _schema(*STATEMENT_COLUMNS),
            lambda: statements_group()["repro_statements"],
            comment="the statement ring: recent statements, newest last",
            group="statements",
        )
    )
    register(
        SystemTable(
            "repro_metrics",
            _schema(
                ("metric", VARCHAR),
                ("labels", VARCHAR),
                ("value", DOUBLE),
            ),
            metrics,
            comment="every telemetry metric sample (SHOW STATS as a table)",
        )
    )
    register(
        SystemTable(
            "repro_events",
            _schema(
                ("seq", INTEGER),
                ("ts", VARCHAR),
                ("event", VARCHAR),
                ("sql", VARCHAR),
                ("detail", VARCHAR),
            ),
            events,
            comment="the structured event log (detail is a JSON object)",
        )
    )
    register(
        SystemTable(
            "repro_matviews",
            _schema(
                ("name", VARCHAR),
                ("source", VARCHAR),
                ("stale", BOOLEAN),
                ("row_count", INTEGER),
                ("hits", INTEGER),
                ("rejects", INTEGER),
                ("stale_skips", INTEGER),
                ("refreshes", INTEGER),
                ("incremental_merges", INTEGER),
                ("last_reject_reason", VARCHAR),
            ),
            matviews,
            comment="materialized-view state and summary statistics",
        )
    )
    register(
        SystemTable(
            "repro_tables",
            _schema(
                ("name", VARCHAR),
                ("kind", VARCHAR),
                ("column_count", INTEGER),
                ("row_count", INTEGER),
            ),
            tables,
            comment="every catalog object, system tables included",
        )
    )
    register(
        SystemTable(
            "repro_running_queries",
            TableSchema.of(Watch.COLUMNS),
            lambda: running_group()["repro_running_queries"],
            comment="queries executing right now (the observer is excluded)",
            group="running",
        )
    )
    register(
        SystemTable(
            "repro_query_progress",
            TableSchema.of(Watch.OPERATOR_COLUMNS),
            lambda: running_group()["repro_query_progress"],
            comment="per-operator estimated-vs-actual rows for running queries",
            group="running",
        )
    )
    register(
        SystemTable(
            "repro_table_stats",
            _schema(
                ("table_name", VARCHAR),
                ("row_count", INTEGER),
                ("column_count", INTEGER),
                ("analyzed_at", VARCHAR),
                ("mods_since_analyze", INTEGER),
                ("stale", BOOLEAN),
            ),
            lambda: table_stats_group()["repro_table_stats"],
            comment="per-table ANALYZE results with staleness tracking",
            group="table_stats",
        )
    )
    register(
        SystemTable(
            "repro_column_stats",
            _schema(
                ("table_name", VARCHAR),
                ("column_name", VARCHAR),
                ("dtype", VARCHAR),
                ("ndv", INTEGER),
                ("null_count", INTEGER),
                ("null_frac", DOUBLE),
                ("min_value", VARCHAR),
                ("max_value", VARCHAR),
                ("histogram", VARCHAR),
            ),
            lambda: table_stats_group()["repro_column_stats"],
            comment="per-column ANALYZE statistics (NDV, nulls, min/max, histogram)",
            group="table_stats",
        )
    )
