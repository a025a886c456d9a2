"""Plan interpreter: materialized, operator-at-a-time execution.

:func:`execute_plan` walks a :class:`~repro.plan.logical.LogicalPlan` and
returns a list of tuples.  Each operator compiles its expressions to closures
the first time it runs (:mod:`repro.engine.compile`) and keeps them on the
plan node; its row loop only calls them.  Correlated subqueries re-enter
through their closure, passing the enclosing
:class:`~repro.engine.evaluator.EvalEnv` so that
:class:`~repro.semantics.bound.BoundOuterColumn` references resolve.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter
from typing import Optional

from repro.catalog.objects import BaseTable, SystemTable
from repro.engine.compile import (
    Relation,
    Slice,
    compile_aggregate,
    compile_expr,
    compile_rows,
    memo,
    relation_of,
    row_getter,
)
from repro.engine.evaluator import EvalEnv, ExecutionContext
from repro.engine.window import compute_window_column
from repro.errors import ExecutionError, QueryCancelled
from repro.plan import logical as plans
from repro.semantics import bound as b
from repro.types import DOUBLE, INTEGER, UNKNOWN

__all__ = ["execute_plan", "equi_key", "pipeline_keys"]


def execute_plan(
    plan: plans.LogicalPlan,
    ctx: ExecutionContext,
    outer_env: Optional[EvalEnv] = None,
) -> list[tuple]:
    """Execute ``plan`` and return its rows.

    With a watcher attached, every operator execution is bracketed by one
    ``enter`` / ``exit`` (``abort`` when it raises): an operator span and
    the node's entry (rows in/out, calls, wall time, bytes buffered);
    without one, the only overhead is a single ``is None`` check per
    operator execution.
    """
    method = _DISPATCH.get(type(plan))
    if method is None:
        raise ExecutionError(f"cannot execute {type(plan).__name__}")
    # Cancellation lands at operator boundaries: one flag check per
    # operator execution (correlated subqueries re-enter here, so a long
    # nested-loop join still observes the flag frequently).
    if ctx.cancel_event is not None and ctx.cancel_event.is_set():
        raise QueryCancelled("query cancelled")
    watch = ctx.watch
    if plan.shared:
        # A measure's source relation: the query's FROM and the measure
        # evaluator both come through here, and whichever is second reads
        # what the first one built.  Neither may mutate the list.
        rows = ctx.source_rows_cache.get(id(plan))
        if rows is not None:
            if watch is not None:
                watch.shared_hit(plan, len(rows))
            return rows
    if watch is None:
        rows = method(plan, ctx, outer_env)
    else:
        watch.enter(plan)
        try:
            rows = method(plan, ctx, outer_env)
            # Inside the try: a memory budget breached by this output
            # aborts the operator, stamping the failure onto its span.
            watch.exit(rows)
        except BaseException:
            watch.abort()
            raise
    if plan.shared:
        ctx.source_rows_cache[id(plan)] = rows
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
    return rows  # the snapshot itself: no operator mutates its input


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
    return [
        tuple([compile_expr(cell)((), outer_env, ctx) for cell in row])
        for row in plan.rows
    ]


def _execute_filter(plan: plans.Filter, ctx: ExecutionContext, outer_env) -> list[tuple]:
    rows = execute_plan(plan.input, ctx, outer_env)
    predicate = compile_expr(plan.predicate)
    kept: list[tuple] = []
    for batch in ctx.batches(rows, plan, kept):
        kept += [row for row in batch if predicate(row, outer_env, ctx) is True]
    return kept


def _execute_project(plan: plans.Project, ctx: ExecutionContext, outer_env) -> list[tuple]:
    rows = execute_plan(plan.input, ctx, outer_env)
    project = memo(plan, "_project", lambda plan: compile_rows(plan.exprs))
    # Over a measure's source this reads (and fills) the statement's columns:
    # a dimension computed here is not computed again for its index.
    return project(relation_of(plan.input, rows, ctx), outer_env, ctx)


def _execute_join(plan: plans.Join, ctx: ExecutionContext, outer_env) -> list[tuple]:
    if pipeline_keys(plan) is not None:
        # Nothing to test per match or to remember about the right rows.
        return _run_pipeline(plan, [plan], None, ctx, outer_env)
    left_rows = execute_plan(plan.left, ctx, outer_env)
    right_rows = execute_plan(plan.right, ctx, outer_env)

    if plan.kind == "CROSS":
        output: list[tuple] = []
        for batch in ctx.batches(left_rows, plan, output):
            output += [left + right for left in batch for right in right_rows]
        return output

    if plan.kind not in ("INNER", "LEFT", "RIGHT", "FULL"):
        raise ExecutionError(f"unknown join kind {plan.kind}")

    keys, residual = memo(plan, "_join", _compile_join)
    if not keys:
        ctx.nested_loop_joins += 1
        if ctx.watch is not None:
            ctx.watch.operator_count(
                plan, "comparisons", len(left_rows) * len(right_rows)
            )
        return _nested_loop_join(plan, left_rows, right_rows, ctx, outer_env)
    _count_hash_steps(plan, [left_rows, right_rows], ctx)
    left, right = zip(*keys)
    index = _hash_index(plan, right_rows, right, range(len(right_rows)), ctx)
    if index is None:
        return _nested_loop_join(plan, left_rows, right_rows, ctx, outer_env)
    left_key = itemgetter(*left)
    return _match_loop(
        plan, left_rows, right_rows, lambda left: index.get(left_key(left), ()),
        residual, ctx, outer_env,
    )


def _execute_pipeline(plan: plans.JoinPipeline, ctx: ExecutionContext, outer_env) -> list[tuple]:
    return _run_pipeline(plan, plan.joins, plan.emit, ctx, outer_env)


def _compile_join(plan: plans.Join) -> tuple:
    """``(equi-key pairs, residual closure)``: a ``(left offset, offset in
    the right row)`` per top-level conjunct that is an :func:`equi_key` across
    the left input (none: a nested loop), a test of the others (None: none)."""
    keys, tests, width = [], [], plan.left.arity
    for conjunct in () if plan.condition is None else b.conjuncts(plan.condition):
        key = equi_key(conjunct, 0, width)
        if key is None:
            tests.append(compile_expr(conjunct))
        else:
            keys.append((key[0], key[1] - width))

    def passes(row, outer, ctx):
        for test in tests:
            if test(row, outer, ctx) is not True:
                return False
        return True

    return keys, passes if tests else None


def pipeline_keys(plan: plans.Join) -> Optional[list[tuple[int, int]]]:
    """The key pairs of a join that can be a step of a ``JoinPipeline`` —
    ``INNER`` or ``LEFT``, every conjunct an :func:`equi_key` — else None."""
    keys, residual = memo(plan, "_join", _compile_join)
    fits = keys and residual is None and plan.kind in ("INNER", "LEFT")
    return keys if fits else None


def equi_key(conjunct, start: int, end: int) -> Optional[tuple[int, int]]:
    """``(offset inside [start, end), offset outside it)`` when ``conjunct``
    is a hashable equi-conjunct across that column range, else None.

    That is ``col = col`` with exactly one side inside the range and
    hash-compatible types (SQL ``=``: NULL keys never match, which hashing
    honours by skipping None keys).  The one definition: the hash join asks
    it of its left input, VISIBLE of the measure's relation within the FROM
    row (:class:`~repro.core.context.VisibleInfo`).
    """
    if not (
        isinstance(conjunct, b.BoundCall)
        and conjunct.op == "="
        and len(conjunct.args) == 2
        and all(isinstance(a, b.BoundColumn) for a in conjunct.args)
        and _hash_compatible(conjunct.args[0].dtype, conjunct.args[1].dtype)
    ):
        return None
    first, second = conjunct.args[0].offset, conjunct.args[1].offset
    if (start <= first < end) == (start <= second < end):
        return None
    return (first, second) if start <= first < end else (second, first)


def _hash_compatible(left_type, right_type) -> bool:
    """Whether SQL ``=`` accepts the two types (``types.values._comparable``'s
    families: numeric with numeric, else the same type).  Hashing finds
    ``True`` under ``1`` and nothing under ``'1'`` where ``=`` raises, so a
    mistyped condition is no hash key: the nested loop raises it."""
    left_type, right_type = left_type.unwrap(), right_type.unwrap()
    if UNKNOWN in (left_type, right_type):
        return False
    numeric = (INTEGER, DOUBLE)
    return left_type is right_type or (left_type in numeric and right_type in numeric)


def _run_pipeline(plan, joins: list, emit, ctx: ExecutionContext, outer_env) -> list[tuple]:
    """The innermost left input through one hash step per join of ``joins``
    (left-deep, innermost first): index every right input, then one generated
    comprehension per batch of driving rows builds the columns ``emit``
    (offsets of the inputs side by side; None: all) and no other tuple, in the
    nested binary joins' order: by driving row, then match positions."""
    sources = [joins[0].left, *[join.right for join in joins]]
    inputs = [execute_plan(source, ctx, outer_env) for source in sources]
    _count_hash_steps(plan, inputs, ctx)
    loop, builds = memo(plan, "_steps", lambda plan: _compile_steps(joins, emit))
    args: list = []
    for rows, (key, unmatched) in zip(inputs[1:], builds):
        index = _hash_index(plan, rows, key, rows, ctx)
        if index is None:
            # An unhashable key value: the binary joins, pair by pair.
            rows = inputs[0]
            for join, right_rows in zip(joins, inputs[1:]):
                rows = _nested_loop_join(join, rows, right_rows, ctx, outer_env)
            return rows if emit is None else list(map(row_getter(emit), rows))
        args += [index.get, unmatched]
    output: list[tuple] = []
    for batch in ctx.batches(inputs[0], plan, output):
        output += loop(batch, *args)
    return output


def _count_hash_steps(plan, inputs: list, ctx: ExecutionContext) -> None:
    """One hash join per non-driving input, whichever operator runs them."""
    ctx.hash_joins += len(inputs) - 1
    if ctx.watch is not None:
        ctx.watch.operator_count(plan, "hash_build_rows", sum(map(len, inputs[1:])))
        ctx.watch.operator_count(plan, "hash_probes", len(inputs[0]))


def _hash_index(plan, rows: list, key: tuple, values, ctx: ExecutionContext):
    """``{the columns key of a row: [the entry of values at each such row, in
    order]}``, one column bare and several as a tuple; NULL keys never match
    under SQL '=' and are left out.  None when a key value is unhashable."""
    table: dict = {}
    watched, composite = ctx.watched, len(key) > 1
    for position, (found, value) in enumerate(zip(map(itemgetter(*key), rows), values)):
        if watched and not position & 0xFF:
            ctx.checkpoint(plan, position)
        if found is None or composite and None in found:
            continue
        try:
            table.setdefault(found, []).append(value)
        except TypeError:
            return None
    if ctx.watch is not None and rows:
        # One key + list slot per build row: about 64 bytes of bucket state.
        ctx.watch.account_bytes(plan, 64 * len(rows))
    return table


def _compile_steps(joins: list, emit: Optional[list]) -> tuple:
    """``(probe loop, per step (build key columns, what an unmatched probe
    row pairs with))`` of a pipeline's joins."""
    widths = [joins[0].left.arity] + [join.right.arity for join in joins]
    # Offset in the inputs' rows side by side -> (input, offset inside it).
    cells = [(k, offset) for k, width in enumerate(widths) for offset in range(width)]
    builds, probes = [], []
    for join in joins:
        left, right = zip(*pipeline_keys(join))
        unmatched = ((None,) * join.right.arity,) if join.kind == "LEFT" else ()
        builds.append((right, unmatched))
        probes.append(tuple([cells[offset] for offset in left]))
    emit_cells = None if emit is None else tuple([cells[offset] for offset in emit])
    return _loop(tuple(probes), emit_cells), builds


def _loop_text(probes: tuple, emit: Optional[tuple]) -> str:
    """The source of a probe loop, from integers only: ``probes[k]`` are the
    ``(input, offset)`` cells step k's key is read from, ``emit`` those of the
    output row (None: every input's row, whole).  ``r<k>`` is the current row
    of input k, ``g<k>`` step k's index lookup, ``e<k>`` what an unmatched row
    pairs with: nothing (``INNER``) or the one NULL-padding row (``LEFT``)."""
    params, clauses = "batch", "for r0 in batch"
    for step, cells in enumerate(probes, 1):
        key = ", ".join([f"r{source}[{offset}]" for source, offset in cells])
        if len(cells) > 1:
            key = f"({key})"
        params += f", g{step}, e{step}"
        clauses += f" for r{step} in g{step}({key}, e{step})"
    if emit is None:
        row = " + ".join([f"r{source}" for source in range(len(probes) + 1)])
    else:
        row = "(" + "".join([f"r{source}[{offset}], " for source, offset in emit]) + ")"
    return f"def loop({params}):\n    return [{row} {clauses}]\n"


@lru_cache(maxsize=512)
def _loop(probes: tuple, emit: Optional[tuple]):
    """:func:`_loop_text` compiled, once per shape per process (statements
    over different tables share it) and under this file's name, so tracebacks
    and profiles charge the loop to the engine."""
    scope: dict = {"__builtins__": {}}
    exec(compile(_loop_text(probes, emit), __file__, "exec"), scope)
    return scope["loop"]


def _nested_loop_join(plan: plans.Join, left_rows, right_rows, ctx, outer_env) -> list[tuple]:
    """The join with no usable equi-key (or an unhashable one): every pair."""
    every = range(len(right_rows))
    condition = None if plan.condition is None else compile_expr(plan.condition)
    return _match_loop(
        plan, left_rows, right_rows, lambda left: every, condition, ctx, outer_env
    )


def _match_loop(plan: plans.Join, left_rows, right_rows, candidates, test, ctx, outer_env):
    """Join each left row with the right rows at ``candidates(left)`` (their
    indexes) that pass ``test`` (None: all do), padding for the outer kinds."""
    output: list[tuple] = []
    pad_left = plan.kind in ("LEFT", "FULL")
    right_padding = (None,) * len(plan.right.schema)
    right_matched = [False] * len(right_rows)
    watched = ctx.watched
    for left_index, left in enumerate(left_rows):
        if watched and not left_index & 0xFF:
            ctx.checkpoint(plan, len(output))
        matched = False
        for right_index in candidates(left):
            combined = left + right_rows[right_index]
            if test is None or test(combined, outer_env, ctx) is True:
                output.append(combined)
                matched = True
                right_matched[right_index] = True
        if pad_left and not matched:
            output.append(left + right_padding)
    if plan.kind in ("RIGHT", "FULL"):
        left_padding = (None,) * len(plan.left.schema)
        output += [
            left_padding + right
            for right, matched in zip(right_rows, right_matched)
            if not matched
        ]
    return output


def _execute_aggregate(plan: plans.Aggregate, ctx: ExecutionContext, outer_env) -> list[tuple]:
    input_rows = execute_plan(plan.input, ctx, outer_env)
    group_keys, aggregates = memo(plan, "_aggregate", lambda plan: (
        compile_rows(plan.group_exprs),
        [compile_aggregate(call) for call in plan.agg_calls],
    ))
    key_count = len(plan.group_exprs)
    output: list[tuple] = []

    # Every group expression once per input row; the aggregates' arguments
    # once per input row too, as columns of the same relation: a group is a
    # list of positions into it.
    relation = Relation(input_rows, plan)
    keys_of_rows = group_keys(relation, outer_env, ctx)

    watched = ctx.watched
    for active in plan.grouping_sets:
        bitmap = 0
        for position in range(key_count):
            if position not in active:
                bitmap |= 1 << position
        # A grouping set over every key, in order, groups by the keys as is.
        pick = None if list(active) == list(range(key_count)) else row_getter(active)
        groups: dict[tuple, list[int]] = {}
        for position, keys in enumerate(keys_of_rows):
            group_key = keys if pick is None else pick(keys)
            group = groups.get(group_key)
            if group is None:
                groups[group_key] = [position]
            else:
                group.append(position)
        if not groups and not active:
            # A global grouping set emits one row even over empty input.
            groups[()] = []

        for group_index, (group_key, positions) in enumerate(groups.items()):
            if watched and not group_index & 0xFF:
                ctx.checkpoint(plan, len(output))
            if pick is None:
                row_out = group_key
            else:
                key_by_position = dict(zip(active, group_key))
                row_out = tuple([key_by_position.get(i) for i in range(key_count)])
            # Ascending and distinct, so as many as the input is all of it.
            members = Slice(
                relation, positions if len(positions) < len(input_rows) else None
            )
            row_out += tuple(
                [aggregate(members, outer_env, ctx) for aggregate in aggregates]
            )
            if plan.has_grouping_id:
                row_out += (bitmap,)
            if plan.capture_rows:
                row_out += (tuple(members.rows()),)
            output.append(row_out)
    if ctx.watch is not None:
        ctx.watch.operator_count(plan, "groups", len(output))
    return output


def _execute_window(plan: plans.Window, ctx: ExecutionContext, outer_env) -> list[tuple]:
    rows = execute_plan(plan.input, ctx, outer_env)
    columns = [
        compute_window_column(call, rows, outer_env, ctx, plan) for call in plan.calls
    ]
    return [
        row + tuple(column[index] for column in columns)
        for index, row in enumerate(rows)
    ]


def _compile_sort(plan: plans.Sort) -> tuple:
    specs = [
        (index, spec.descending, spec.nulls_first)
        for index, spec in enumerate(plan.keys)
    ]
    return compile_rows([spec.expr for spec in plan.keys]), specs


def _execute_sort(plan: plans.Sort, ctx: ExecutionContext, outer_env) -> list[tuple]:
    from repro.types import sort_rows

    rows = execute_plan(plan.input, ctx, outer_env)
    if not plan.keys:
        return list(rows)  # never the input's own list: it may be shared
    sort_keys, specs = memo(plan, "_sort", _compile_sort)
    keys_of_rows = sort_keys(Relation(rows), outer_env, ctx)
    decorated = [keys + (row,) for keys, row in zip(keys_of_rows, rows)]
    return [entry[-1] for entry in sort_rows(decorated, specs)]


def _execute_limit(plan: plans.Limit, ctx: ExecutionContext, outer_env) -> list[tuple]:
    rows = execute_plan(plan.input, ctx, outer_env)
    offset = 0
    if plan.offset is not None:
        value = compile_expr(plan.offset)((), outer_env, ctx)
        offset = max(int(value), 0) if value is not None else 0
    if plan.limit is not None:
        value = compile_expr(plan.limit)((), outer_env, ctx)
        if value is None:
            return rows[offset:]
        limit = max(int(value), 0)
        return rows[offset : offset + limit]
    return rows[offset:]


def _execute_distinct(plan: plans.Distinct, ctx: ExecutionContext, outer_env) -> list[tuple]:
    return _dedupe(execute_plan(plan.input, ctx, outer_env))


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
    plans.JoinPipeline: _execute_pipeline,
    plans.Aggregate: _execute_aggregate,
    plans.Window: _execute_window,
    plans.Sort: _execute_sort,
    plans.Limit: _execute_limit,
    plans.Distinct: _execute_distinct,
    plans.SetOpPlan: _execute_setop,
}
