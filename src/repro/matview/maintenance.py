"""Maintenance of summary tables: CREATE's and REFRESH's rows, and the
INSERT merge.

A summary's rows come from its stored refresh plan; only :func:`refresh`
binds the definition again.  Nothing marks a summary stale: it reads its
staleness off the write stamps of what it depends on
(:attr:`~repro.catalog.objects.MaterializedView.stale`).  The one push is
:func:`insert`, because a merge needs the delta: a summary whose items are
all finished from states, whose plan scans the table once and that was
fresh before the INSERT runs its plan over the inserted rows alone, folds
each state into the stored one by its roll-up aggregate, finishes every
item again and is fresh again; any other stays stale until refreshed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional, Sequence

from repro.catalog.objects import BaseTable, MaterializedView
from repro.engine.aggregates import make_accumulator
from repro.engine.compile import compile_expr, row_list
from repro.engine.evaluator import ExecutionContext
from repro.engine.executor import execute_plan
from repro.plan import logical as plans
from repro.semantics import bound as b
from repro.storage.table import MemoryTable, clock
from repro.types import coerce_value

if TYPE_CHECKING:  # pragma: no cover
    from repro.api import Database
    from repro.matview.definition import SummaryDefinition

__all__ = ["compute_rows", "insert", "refresh"]


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
        return row_list(execute_plan(definition.plan, ctx))
    finally:
        ctx.release()


def refresh(db: "Database", view: MaterializedView) -> int:
    """Bind ``view``'s definition again (a source view may have been
    replaced), rebuild its table and return the row count.  Nothing changes
    unless every step succeeds; the new table has no statistics."""
    from repro.matview.definition import analyze_definition

    definition = analyze_definition(db, view.name, view.query)
    table = MemoryTable(definition.schema)
    count = table.insert_many(compute_rows(db, definition))
    view.definition, view.table, view.fresh_as = definition, table, clock.now
    db.catalog.discard_table_stats(view.name)
    view.stats.refreshes += 1
    if db.telemetry is not None:
        db.telemetry.record_maintenance("refresh", view.name)
    return count


def insert(
    db: "Database", table: BaseTable, rows: Sequence[Sequence[Any]], columns=None
) -> int:
    """INSERT ``rows`` into ``table`` and merge them into every summary over
    it that was fresh before and can merge.

    A summary merges only when it reads the table directly (no intervening
    view whose semantics the delta would have to reproduce), its refresh
    plan scans the table once (a second scan, a subquery over the table,
    would read the delta too, not the table) and every item is finished
    from states."""
    fresh = [
        view for view in db.catalog.materialized_views_over(table.name)
        if not view.stale
        and all(m.expr is not None for m in view.definition.measures)
        and _scans(view.definition.plan, view.definition.source_name) == 1
    ]
    count = table.table.insert_many(rows, columns)
    for view in fresh if count else ():
        _merge(view, compute_rows(db, view.definition, table.table.rows[-count:]))
        view.fresh_as = clock.now
        view.stats.incremental_merges += 1
        if db.telemetry is not None:
            db.telemetry.record_maintenance("incremental_merge", view.name)
    return count


def _scans(plan: plans.LogicalPlan, name: str) -> int:
    """How many times ``plan`` reads base table ``name``: its Scans and
    those of the subquery plans inside its expressions."""
    count = 0
    for node in plan.walk():
        if type(node) is plans.Scan and node.table_name.lower() == name:
            count += 1
        for expr in node.expressions():
            for inner in b.walk(expr):
                if type(inner) is b.BoundSubquery:
                    count += _scans(inner.plan, name)
    return count


def _merge(view: MaterializedView, delta_rows: list[tuple]) -> None:
    """Fold the states of the inserted rows into the stored ones, each by
    its roll-up aggregate, and finish every item again."""
    definition, table = view.definition, view.table
    columns = table.schema.columns
    at = {column.name: i for i, column in enumerate(columns)}
    keys = [at[d.name] for d in definition.dimensions]
    states = [(at[s.column], s.rollup) for s in definition.states]
    items = [(at[m.name], compile_expr(m.expr)) for m in definition.measures]
    ctx = ExecutionContext(view.catalog)
    position_of = {
        tuple(row[i] for i in keys): p for p, row in enumerate(table.rows)
    }
    merged: dict[int, list] = {}
    added = []
    for delta in delta_rows:
        delta = tuple(coerce_value(v, c.dtype) for v, c in zip(delta, columns))
        position = position_of.get(tuple(delta[i] for i in keys))
        if position is None:
            added.append(delta)
            continue
        row = merged[position] = list(table.rows[position])
        for i, rollup in states:
            accumulator = make_accumulator(rollup)
            accumulator.add(row[i])
            accumulator.add(delta[i])
            row[i] = accumulator.result()
        held = tuple(row[i] for i, _ in states)
        for i, finish in items:
            row[i] = finish(held, None, ctx)
    table.update(list(merged), list(merged.values()))
    table.insert_many(added)
