"""Plan interpreter: materialized, operator-at-a-time execution.

:func:`execute_plan` walks a :class:`~repro.plan.logical.LogicalPlan` and
returns a list of tuples.  Correlated subqueries re-enter through
:func:`~repro.engine.evaluator.evaluate`, passing the enclosing
:class:`~repro.engine.evaluator.EvalEnv` so that
:class:`~repro.semantics.bound.BoundOuterColumn` references resolve.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.catalog.objects import BaseTable, SystemTable
from repro.engine.evaluator import EvalEnv, ExecutionContext, evaluate
from repro.engine.window import compute_window_column
from repro.errors import ExecutionError, QueryCancelled
from repro.plan import logical as plans
from repro.semantics import bound as b

__all__ = ["execute_plan"]


def execute_plan(
    plan: plans.LogicalPlan,
    ctx: ExecutionContext,
    outer_env: Optional[EvalEnv] = None,
) -> list[tuple]:
    """Execute ``plan`` and return its rows.

    With a profiler attached, every operator execution is bracketed by an
    operator span and accumulates per-node metrics (rows in/out, calls,
    wall time); without one, the only overhead is a single ``is None``
    check per operator execution.
    """
    method = _DISPATCH.get(type(plan))
    if method is None:
        raise ExecutionError(f"cannot execute {type(plan).__name__}")
    # Cancellation lands at operator boundaries: one flag check per
    # operator execution (correlated subqueries re-enter here, so a long
    # nested-loop join still observes the flag frequently).
    if ctx.cancel_event is not None and ctx.cancel_event.is_set():
        raise QueryCancelled("query cancelled")
    progress = ctx.progress
    if progress is not None:
        progress.enter_operator(plan)
    profiler = ctx.profiler
    if profiler is None:
        rows = method(plan, ctx, outer_env)
        if progress is not None:
            progress.exit_operator(plan, rows)
        return rows
    token = profiler.enter_operator(plan)
    try:
        rows = method(plan, ctx, outer_env)
        if progress is not None:
            # Inside the try: a memory budget breach here aborts the
            # operator span, stamping the failure onto the trace.
            progress.exit_operator(plan, rows)
    except BaseException:
        profiler.abort_operator(token)
        raise
    profiler.exit_operator(token, len(rows))
    return rows


def _execute_scan(plan: plans.Scan, ctx: ExecutionContext, outer_env) -> list[tuple]:
    obj = ctx.catalog.resolve(plan.table_name)
    if not isinstance(obj, BaseTable):
        raise ExecutionError(
            f"{plan.table_name!r} is not a base table at execution time"
        )
    # Snapshot-at-statement-start: the first scan of a table materializes
    # its rows for the whole execution, so a self-join (or any repeated
    # scan) sees one consistent table state.  Combined with the session
    # layer's reader/writer lock this gives statement-level snapshot
    # reads: a query observes either the complete pre-statement or the
    # complete post-statement state of every table, never a mix.
    key = plan.table_name.lower()
    rows = ctx.table_snapshots.get(key)
    if rows is None:
        rows = list(obj.table.rows)
        ctx.table_snapshots[key] = rows
    ctx.rows_scanned += len(rows)
    return list(rows)


def _execute_system_scan(
    plan: plans.SystemScan, ctx: ExecutionContext, outer_env
) -> list[tuple]:
    obj = ctx.catalog.resolve(plan.table_name)
    if not isinstance(obj, SystemTable):
        raise ExecutionError(
            f"{plan.table_name!r} is not a system table at execution time"
        )
    # Snapshot-at-scan-start: the provider runs once per query execution,
    # so self-joins over a system table see one consistent set of rows and
    # a query over repro_stat_statements never observes itself mid-flight.
    key = plan.table_name.lower()
    rows = ctx.system_snapshots.get(key)
    if rows is None:
        group = getattr(obj, "group", None)
        group_provider = (
            ctx.catalog.snapshot_group(group) if group is not None else None
        )
        if group_provider is not None:
            # Tables sharing a backing store materialize together from one
            # atomic store read, so a join across them (e.g. plan flips x
            # stat statements) can never observe a torn cross-table state.
            for name, member_rows in group_provider().items():
                ctx.system_snapshots.setdefault(name.lower(), member_rows)
            rows = ctx.system_snapshots[key]
        else:
            rows = obj.provider()
            ctx.system_snapshots[key] = rows
    ctx.rows_scanned += len(rows)
    return list(rows)


def _execute_values(plan: plans.ValuesPlan, ctx: ExecutionContext, outer_env) -> list[tuple]:
    env = EvalEnv((), outer_env)
    return [
        tuple(evaluate(cell, env, ctx) for cell in row) for row in plan.rows
    ]


def _execute_filter(plan: plans.Filter, ctx: ExecutionContext, outer_env) -> list[tuple]:
    rows = execute_plan(plan.input, ctx, outer_env)
    kept = []
    # Row loops dominate long queries, so cancellation and progress ticks
    # land in them too (ctx.checkpoint, every 256 rows), not just at
    # operator boundaries.  ``watched`` is hoisted so the untracked hot
    # path pays one local truthiness test per row and no call.
    watched = ctx.watched
    for index, row in enumerate(rows):
        if watched and not index & 0xFF:
            ctx.checkpoint(plan, len(kept))
        env = EvalEnv(row, outer_env)
        if evaluate(plan.predicate, env, ctx) is True:
            kept.append(row)
    return kept


def _execute_project(plan: plans.Project, ctx: ExecutionContext, outer_env) -> list[tuple]:
    rows = execute_plan(plan.input, ctx, outer_env)
    output = []
    watched = ctx.watched
    for index, row in enumerate(rows):
        if watched and not index & 0xFF:
            ctx.checkpoint(plan, len(output))
        env = EvalEnv(row, outer_env)
        output.append(tuple(evaluate(expr, env, ctx) for expr in plan.exprs))
    return output


def _execute_join(plan: plans.Join, ctx: ExecutionContext, outer_env) -> list[tuple]:
    left_rows = execute_plan(plan.left, ctx, outer_env)
    right_rows = execute_plan(plan.right, ctx, outer_env)
    left_width = len(plan.left.schema)
    right_width = len(plan.right.schema)
    output: list[tuple] = []

    watched = ctx.watched
    if plan.kind == "CROSS":
        for index, left in enumerate(left_rows):
            if watched and not index & 0xFF:
                ctx.checkpoint(plan, len(output))
            for right in right_rows:
                output.append(left + right)
        return output

    if plan.kind not in ("INNER", "LEFT", "RIGHT", "FULL"):
        raise ExecutionError(f"unknown join kind {plan.kind}")

    equi_keys, residual = _extract_equi_keys(plan.condition, left_width)
    if equi_keys:
        ctx.hash_joins += 1
        return _hash_join(
            plan, left_rows, right_rows, left_width, right_width,
            equi_keys, residual, ctx, outer_env,
        )

    ctx.nested_loop_joins += 1
    if ctx.profiler is not None:
        ctx.profiler.operator_count(
            plan, "comparisons", len(left_rows) * len(right_rows)
        )
    right_matched = [False] * len(right_rows)
    for left_index, left in enumerate(left_rows):
        if watched and not left_index & 0xFF:
            ctx.checkpoint(plan, len(output))
        matched = False
        for right_index, right in enumerate(right_rows):
            combined = left + right
            env = EvalEnv(combined, outer_env)
            if plan.condition is None or evaluate(plan.condition, env, ctx) is True:
                output.append(combined)
                matched = True
                right_matched[right_index] = True
        if not matched and plan.kind in ("LEFT", "FULL"):
            output.append(left + (None,) * right_width)
    if plan.kind in ("RIGHT", "FULL"):
        for right_index, right in enumerate(right_rows):
            if not right_matched[right_index]:
                output.append((None,) * left_width + right)
    return output


def _extract_equi_keys(
    condition, left_width: int
) -> tuple[list[tuple[int, int]], list]:
    """Split a join condition into hashable equi-key column pairs and a
    residual predicate list.

    Returns ``([(left_offset, right_offset_in_right_row)...], residual)``;
    empty keys means fall back to the nested loop.  Only top-level AND
    conjuncts of the form ``left_col = right_col`` qualify (SQL ``=``: NULL
    keys never join, which hashing honours by skipping None keys).
    """
    if condition is None:
        return [], []
    keys: list[tuple[int, int]] = []
    residual: list = []
    for conjunct in _conjuncts_of(condition):
        if (
            isinstance(conjunct, b.BoundCall)
            and conjunct.op == "="
            and len(conjunct.args) == 2
            and all(isinstance(a, b.BoundColumn) for a in conjunct.args)
            and _hash_compatible(conjunct.args[0].dtype, conjunct.args[1].dtype)
        ):
            first, second = conjunct.args
            offsets = sorted((first.offset, second.offset))
            if offsets[0] < left_width <= offsets[1]:
                keys.append((offsets[0], offsets[1] - left_width))
                continue
        residual.append(conjunct)
    return keys, residual


def _hash_compatible(left_type, right_type) -> bool:
    """Python hashes True == 1, but SQL '=' rejects BOOLEAN vs numeric;
    route such (mis)typed conditions through the nested loop so they raise
    the same error either way."""
    from repro.types import BOOLEAN, UNKNOWN

    left_type, right_type = left_type.unwrap(), right_type.unwrap()
    if UNKNOWN in (left_type, right_type):
        return False
    return (left_type is BOOLEAN) == (right_type is BOOLEAN)


def _conjuncts_of(expr) -> list:
    if isinstance(expr, b.BoundCall) and expr.op == "AND":
        result = []
        for arg in expr.args:
            result.extend(_conjuncts_of(arg))
        return result
    return [expr]


def _hash_join(
    plan: plans.Join,
    left_rows: list[tuple],
    right_rows: list[tuple],
    left_width: int,
    right_width: int,
    equi_keys: list[tuple[int, int]],
    residual: list,
    ctx: ExecutionContext,
    outer_env,
) -> list[tuple]:
    """Equi-hash join with residual predicate and outer-join padding."""
    if ctx.profiler is not None:
        ctx.profiler.operator_count(plan, "hash_build_rows", len(right_rows))
        ctx.profiler.operator_count(plan, "hash_probes", len(left_rows))
    progress = ctx.progress
    watched = ctx.watched
    table: dict[tuple, list[int]] = {}
    for index, right in enumerate(right_rows):
        if watched and not index & 0xFF:
            ctx.checkpoint(plan, index)
        key = tuple(right[r] for _, r in equi_keys)
        if any(k is None for k in key):
            continue  # NULL keys never match under SQL '='
        try:
            table.setdefault(key, []).append(index)
        except TypeError:
            # Unhashable key value: bail out to the nested loop path.
            return _nested_loop_fallback(
                plan, left_rows, right_rows, left_width, right_width, ctx, outer_env
            )
    if progress is not None and right_rows:
        # The build table holds one key tuple + list slot per non-NULL
        # build row; 64 bytes/entry approximates that bucket state.
        progress.account_bytes(plan, 64 * len(right_rows))

    output: list[tuple] = []
    right_matched = [False] * len(right_rows)
    for probe_index, left in enumerate(left_rows):
        if watched and not probe_index & 0xFF:
            ctx.checkpoint(plan, len(output))
        key = tuple(left[l] for l, _ in equi_keys)
        matched = False
        if not any(k is None for k in key):
            for right_index in table.get(key, ()):
                combined = left + right_rows[right_index]
                if residual:
                    env = EvalEnv(combined, outer_env)
                    if not all(
                        evaluate(p, env, ctx) is True for p in residual
                    ):
                        continue
                output.append(combined)
                matched = True
                right_matched[right_index] = True
        if not matched and plan.kind in ("LEFT", "FULL"):
            output.append(left + (None,) * right_width)
    if plan.kind in ("RIGHT", "FULL"):
        for right_index, right in enumerate(right_rows):
            if not right_matched[right_index]:
                output.append((None,) * left_width + right)
    return output


def _nested_loop_fallback(
    plan, left_rows, right_rows, left_width, right_width, ctx, outer_env
) -> list[tuple]:
    output: list[tuple] = []
    right_matched = [False] * len(right_rows)
    watched = ctx.watched
    for left_index, left in enumerate(left_rows):
        if watched and not left_index & 0xFF:
            ctx.checkpoint(plan, len(output))
        matched = False
        for right_index, right in enumerate(right_rows):
            combined = left + right
            env = EvalEnv(combined, outer_env)
            if plan.condition is None or evaluate(plan.condition, env, ctx) is True:
                output.append(combined)
                matched = True
                right_matched[right_index] = True
        if not matched and plan.kind in ("LEFT", "FULL"):
            output.append(left + (None,) * right_width)
    if plan.kind in ("RIGHT", "FULL"):
        for right_index, right in enumerate(right_rows):
            if not right_matched[right_index]:
                output.append((None,) * left_width + right)
    return output


def _execute_aggregate(plan: plans.Aggregate, ctx: ExecutionContext, outer_env) -> list[tuple]:
    from repro.engine.aggregates import make_accumulator

    input_rows = execute_plan(plan.input, ctx, outer_env)
    key_count = len(plan.group_exprs)
    output: list[tuple] = []

    # Pre-compute every group expression once per input row.
    watched = ctx.watched
    keyed_rows: list[tuple[tuple, tuple]] = []
    for row_index, row in enumerate(input_rows):
        if watched and not row_index & 0xFF:
            ctx.checkpoint(plan, len(keyed_rows))
        env = EvalEnv(row, outer_env)
        keys = tuple(evaluate(expr, env, ctx) for expr in plan.group_exprs)
        keyed_rows.append((keys, row))

    for active in plan.grouping_sets:
        active_set = frozenset(active)
        bitmap = 0
        for position in range(key_count):
            if position not in active_set:
                bitmap |= 1 << position
        groups: dict[tuple, list[tuple]] = {}
        order: list[tuple] = []
        for keys, row in keyed_rows:
            group_key = tuple(keys[i] for i in active)
            if group_key not in groups:
                groups[group_key] = []
                order.append(group_key)
            groups[group_key].append(row)
        if not groups and not active:
            # A global grouping set emits one row even over empty input.
            groups[()] = []
            order.append(())

        for group_index, group_key in enumerate(order):
            if watched and not group_index & 0xFF:
                ctx.checkpoint(plan, len(output))
            group_rows = groups[group_key]
            key_by_position = dict(zip(active, group_key))
            out_keys = tuple(
                key_by_position.get(i) for i in range(key_count)
            )
            agg_values = tuple(
                _accumulate(call, group_rows, outer_env, ctx)
                for call in plan.agg_calls
            )
            row_out: tuple = out_keys + agg_values
            if plan.has_grouping_id:
                row_out += (bitmap,)
            if plan.capture_rows:
                row_out += (tuple(group_rows),)
            output.append(row_out)
    if ctx.profiler is not None:
        ctx.profiler.operator_count(plan, "groups", len(output))
    return output


def _accumulate(
    call: b.BoundAggCall,
    rows: list[tuple],
    outer_env: Optional[EvalEnv],
    ctx: ExecutionContext,
) -> Any:
    from repro.engine.evaluator import _run_aggregate

    return _run_aggregate(call, rows, outer_env, ctx)


def _execute_window(plan: plans.Window, ctx: ExecutionContext, outer_env) -> list[tuple]:
    rows = execute_plan(plan.input, ctx, outer_env)
    columns = [
        compute_window_column(call, rows, outer_env, ctx) for call in plan.calls
    ]
    return [
        row + tuple(column[index] for column in columns)
        for index, row in enumerate(rows)
    ]


def _execute_sort(plan: plans.Sort, ctx: ExecutionContext, outer_env) -> list[tuple]:
    from repro.types import sort_rows

    rows = execute_plan(plan.input, ctx, outer_env)
    if not plan.keys:
        return rows
    decorated = []
    watched = ctx.watched
    for index, row in enumerate(rows):
        if watched and not index & 0xFF:
            ctx.checkpoint(plan, len(decorated))
        env = EvalEnv(row, outer_env)
        keys = tuple(evaluate(spec.expr, env, ctx) for spec in plan.keys)
        decorated.append(keys + (row,))
    specs = []
    for index, spec in enumerate(plan.keys):
        nulls_first = spec.nulls_first
        if nulls_first is None:
            # Default: NULLs last ascending, first descending (PostgreSQL).
            nulls_first = spec.descending
        specs.append((index, spec.descending, nulls_first))
    ordered = sort_rows(decorated, specs)
    return [entry[-1] for entry in ordered]


def _execute_limit(plan: plans.Limit, ctx: ExecutionContext, outer_env) -> list[tuple]:
    rows = execute_plan(plan.input, ctx, outer_env)
    env = EvalEnv((), outer_env)
    offset = 0
    if plan.offset is not None:
        value = evaluate(plan.offset, env, ctx)
        offset = max(int(value), 0) if value is not None else 0
    if plan.limit is not None:
        value = evaluate(plan.limit, env, ctx)
        if value is None:
            return rows[offset:]
        limit = max(int(value), 0)
        return rows[offset : offset + limit]
    return rows[offset:]


def _execute_distinct(plan: plans.Distinct, ctx: ExecutionContext, outer_env) -> list[tuple]:
    rows = execute_plan(plan.input, ctx, outer_env)
    seen: set = set()
    output = []
    for row in rows:
        if row not in seen:
            seen.add(row)
            output.append(row)
    return output


def _execute_setop(plan: plans.SetOpPlan, ctx: ExecutionContext, outer_env) -> list[tuple]:
    left = execute_plan(plan.left, ctx, outer_env)
    right = execute_plan(plan.right, ctx, outer_env)
    if len(plan.left.schema) != len(plan.right.schema):
        raise ExecutionError("set operation inputs differ in arity")

    if plan.op == "UNION":
        combined = left + right
        if plan.all:
            return combined
        return _dedupe(combined)
    if plan.op == "INTERSECT":
        counts = _count_rows(right)
        output = []
        if plan.all:
            for row in left:
                if counts.get(row, 0) > 0:
                    counts[row] -= 1
                    output.append(row)
            return output
        emitted: set = set()
        for row in left:
            if row in counts and row not in emitted:
                emitted.add(row)
                output.append(row)
        return output
    if plan.op == "EXCEPT":
        counts = _count_rows(right)
        output = []
        if plan.all:
            for row in left:
                if counts.get(row, 0) > 0:
                    counts[row] -= 1
                else:
                    output.append(row)
            return output
        right_set = set(right)
        emitted = set()
        for row in left:
            if row not in right_set and row not in emitted:
                emitted.add(row)
                output.append(row)
        return output
    raise ExecutionError(f"unknown set operation {plan.op}")


def _dedupe(rows: list[tuple]) -> list[tuple]:
    seen: set = set()
    output = []
    for row in rows:
        if row not in seen:
            seen.add(row)
            output.append(row)
    return output


def _count_rows(rows: list[tuple]) -> dict[tuple, int]:
    counts: dict[tuple, int] = {}
    for row in rows:
        counts[row] = counts.get(row, 0) + 1
    return counts


_DISPATCH = {
    plans.Scan: _execute_scan,
    plans.SystemScan: _execute_system_scan,
    plans.ValuesPlan: _execute_values,
    plans.Filter: _execute_filter,
    plans.Project: _execute_project,
    plans.Join: _execute_join,
    plans.Aggregate: _execute_aggregate,
    plans.Window: _execute_window,
    plans.Sort: _execute_sort,
    plans.Limit: _execute_limit,
    plans.Distinct: _execute_distinct,
    plans.SetOpPlan: _execute_setop,
}
