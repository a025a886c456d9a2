"""Window function execution.

The :class:`~repro.plan.logical.Window` operator appends one column per
window call.  Rows are partitioned, ordered within each partition, and each
call is computed per row.  Supported calls:

* ranking: ROW_NUMBER, RANK, DENSE_RANK, PERCENT_RANK, CUME_DIST, NTILE
* navigation: LAG, LEAD, FIRST_VALUE, LAST_VALUE
* any aggregate from :mod:`repro.engine.aggregates`, with ROWS/RANGE frames
  (RANGE frames support UNBOUNDED/CURRENT ROW bounds)
"""

from __future__ import annotations

from typing import Any, Optional

from repro.engine.aggregates import is_aggregate_function, make_accumulator
from repro.engine.compile import Relation, compile_expr, compile_rows, memo
from repro.engine.evaluator import EvalEnv, ExecutionContext
from repro.errors import ExecutionError, UnsupportedError
from repro.semantics import bound as b
from repro.types import sort_key

__all__ = ["compute_window_column", "RANKING_FUNCTIONS", "is_window_only_function"]

RANKING_FUNCTIONS = frozenset(
    {
        "ROW_NUMBER",
        "RANK",
        "DENSE_RANK",
        "PERCENT_RANK",
        "CUME_DIST",
        "NTILE",
        "LAG",
        "LEAD",
    }
)


def is_window_only_function(name: str) -> bool:
    """Functions that are only valid with an OVER clause."""
    return name.upper() in RANKING_FUNCTIONS


def _compile_window(call: b.BoundWindowCall) -> tuple:
    """``(partition keys, order keys, argument closures, frame start and end
    offset closures)`` of one call."""
    offsets = (call.frame[2], call.frame[4]) if call.frame else ()
    return (
        compile_rows(call.partition_by),
        compile_rows([spec.expr for spec in call.order_by]),
        [compile_expr(arg) for arg in call.args],
        [None if offset is None else compile_expr(offset) for offset in offsets],
    )


class _Frame:
    """What the per-partition routines share: the call, the input rows, each
    row's ORDER BY key tuple (by row index; empty without ORDER BY), the
    call's compiled arguments and frame offsets, and the scope they evaluate
    in."""

    __slots__ = ("call", "rows", "keys", "args", "offsets", "outer_env", "ctx", "plan")

    def __init__(self, call, rows, keys, args, offsets, outer_env, ctx, plan):
        self.call = call
        self.rows = rows
        self.keys = keys
        self.args = args
        self.offsets = offsets
        self.outer_env = outer_env
        self.ctx = ctx
        self.plan = plan

    def arg(self, number: int, index: int) -> Any:
        """Argument ``number`` of the call over input row ``index``."""
        return self.args[number](self.rows[index], self.outer_env, self.ctx)


def compute_window_column(
    call: b.BoundWindowCall,
    rows: list[tuple],
    outer_env: Optional[EvalEnv],
    ctx: ExecutionContext,
    plan=None,
) -> list[Any]:
    """Compute one window call over ``rows``; returns one value per input row
    in the original row order.  ``plan`` is the Window operator the loops'
    checkpoints are charged to."""
    partition_keys, order_keys, args, offsets = memo(call, "_window", _compile_window)
    results: list[Any] = [None] * len(rows)
    relation = Relation(rows)
    partitions: dict[tuple, list[int]] = {}
    for index, key in enumerate(partition_keys(relation, outer_env, ctx)):
        partitions.setdefault(key, []).append(index)
    if ctx.watch is not None:
        ctx.watch.bump("window_calls")
        ctx.watch.bump("window_partitions", len(partitions))

    keys = order_keys(relation, outer_env, ctx) if call.order_by else []
    frame = _Frame(call, rows, keys, args, offsets, outer_env, ctx, plan)
    watched = ctx.watched
    unchecked = 0  # rows computed since the last checkpoint
    for indexes in partitions.values():
        unchecked += len(indexes)
        if watched and unchecked >= 256:
            ctx.checkpoint(plan)
            unchecked = 0
        _compute_partition(frame, _order_partition(frame, indexes), results)
    return results


def _order_partition(frame: _Frame, indexes: list[int]) -> list[int]:
    order_by = frame.call.order_by
    if not order_by:
        return indexes
    keys = frame.keys

    def decorate(index: int):
        return tuple(
            [
                sort_key(value, spec.descending, spec.nulls_first)
                for spec, value in zip(order_by, keys[index])
            ]
        )

    return sorted(indexes, key=decorate)


def _compute_partition(frame: _Frame, ordered: list[int], results: list[Any]) -> None:
    call, ctx, plan = frame.call, frame.ctx, frame.plan
    func = call.func.upper()
    size = len(ordered)
    watched = ctx.watched

    if func in ("ROW_NUMBER", "RANK", "DENSE_RANK", "PERCENT_RANK", "CUME_DIST", "NTILE"):
        _rank_functions(func, frame, ordered, results)
        return

    if func in ("LAG", "LEAD"):
        has_offset = len(call.args) > 1
        has_default = len(call.args) > 2
        for position, index in enumerate(ordered):
            if watched and not position & 0xFF:
                ctx.checkpoint(plan)
            step = 1
            if has_offset:
                step_val = frame.arg(1, index)
                step = int(step_val) if step_val is not None else 1
            target = position - step if func == "LAG" else position + step
            if 0 <= target < size:
                results[index] = frame.arg(0, ordered[target])
            elif has_default:
                results[index] = frame.arg(2, index)
            else:
                results[index] = None
        return

    if func in ("FIRST_VALUE", "LAST_VALUE") and not call.frame:
        # Default frame semantics: FIRST_VALUE sees the first row; LAST_VALUE
        # with ORDER BY sees up to the current row's peer group.
        for position, index in enumerate(ordered):
            if watched and not position & 0xFF:
                ctx.checkpoint(plan)
            if func == "FIRST_VALUE":
                source = ordered[0]
            elif call.order_by:
                source = ordered[_peer_end(frame, ordered, position)]
            else:
                source = ordered[-1]
            results[index] = frame.arg(0, source)
        return

    if not is_aggregate_function(func) and func not in ("FIRST_VALUE", "LAST_VALUE"):
        raise ExecutionError(f"unknown window function {func}")

    if call.frame is None:
        _aggregate_default_frame(frame, ordered, results)
        return

    for position, index in enumerate(ordered):
        if watched and not position & 0xFF:
            ctx.checkpoint(plan)
        start, end = _frame_bounds(frame, ordered, position)
        accumulator = make_accumulator(func, call.star)
        seen: set = set()
        for frame_position in range(start, end + 1):
            if call.star:
                accumulator.add(True)
                continue
            value = frame.arg(0, ordered[frame_position])
            if call.distinct:
                if value is None or value in seen:
                    continue
                seen.add(value)
            accumulator.add(value)
        results[index] = accumulator.result()


def _aggregate_default_frame(frame: _Frame, ordered: list[int], results: list[Any]) -> None:
    """O(n) evaluation of aggregate windows with the default frame.

    Without ORDER BY the frame is the whole partition (one aggregation);
    with ORDER BY it is RANGE UNBOUNDED PRECEDING .. CURRENT ROW, which we
    compute incrementally, assigning each peer group the running result.
    """
    call = frame.call
    accumulator = make_accumulator(call.func, call.star)
    seen: set = set()

    def add(index: int) -> None:
        if call.star:
            accumulator.add(True)
            return
        value = frame.arg(0, index)
        if call.distinct:
            if value is None or value in seen:
                return
            seen.add(value)
        accumulator.add(value)

    if not call.order_by:
        for index in ordered:
            add(index)
        value = accumulator.result()
        for index in ordered:
            results[index] = value
        return

    position = 0
    size = len(ordered)
    while position < size:
        end = _peer_end(frame, ordered, position)
        for cursor in range(position, end + 1):
            add(ordered[cursor])
        value = accumulator.result()
        for cursor in range(position, end + 1):
            results[ordered[cursor]] = value
        position = end + 1


def _rank_functions(func: str, frame: _Frame, ordered: list[int], results: list[Any]) -> None:
    size = len(ordered)
    if func == "NTILE":
        buckets = int(frame.arg(0, ordered[0])) if frame.args else 1
        if buckets <= 0:
            raise ExecutionError("NTILE bucket count must be positive")
        base, extra = divmod(size, buckets)
        position = 0
        for bucket in range(buckets):
            width = base + (1 if bucket < extra else 0)
            for _ in range(width):
                if position < size:
                    results[ordered[position]] = bucket + 1
                    position += 1
        return

    keys = [frame.keys[index] for index in ordered] if frame.keys else [()] * size
    rank = 0
    dense = 0
    previous: Optional[tuple] = None
    ranks: list[int] = []
    denses: list[int] = []
    for position in range(size):
        if previous is None or keys[position] != previous:
            rank = position + 1
            dense += 1
            previous = keys[position]
        ranks.append(rank)
        denses.append(dense)

    for position, index in enumerate(ordered):
        if func == "ROW_NUMBER":
            results[index] = position + 1
        elif func == "RANK":
            results[index] = ranks[position]
        elif func == "DENSE_RANK":
            results[index] = denses[position]
        elif func == "PERCENT_RANK":
            results[index] = 0.0 if size == 1 else (ranks[position] - 1) / (size - 1)
        elif func == "CUME_DIST":
            # Number of rows with key <= current key.
            count = ranks[position] - 1
            while count < size and keys[count] == keys[position]:
                count += 1
            results[index] = count / size


def _peer_end(frame: _Frame, ordered: list[int], position: int) -> int:
    """Position of the last row with ``position``'s ORDER BY keys."""
    keys = frame.keys
    current = keys[ordered[position]]
    end = position
    while end + 1 < len(ordered) and keys[ordered[end + 1]] == current:
        end += 1
    return end


def _frame_bounds(frame: _Frame, ordered: list[int], position: int) -> tuple[int, int]:
    """First and last frame position of ``position``'s row."""
    call, keys = frame.call, frame.keys
    size = len(ordered)
    unit, start_kind, _, end_kind, _ = call.frame

    def resolve(kind: str, offset_arg: int, *, is_start: bool) -> int:
        if kind == "UNBOUNDED_PRECEDING":
            return 0
        if kind == "UNBOUNDED_FOLLOWING":
            return size - 1
        if kind == "CURRENT_ROW":
            if unit == "RANGE" and call.order_by:
                if is_start:
                    # First peer of the current row.
                    start = position
                    current = keys[ordered[position]]
                    while start > 0 and keys[ordered[start - 1]] == current:
                        start -= 1
                    return start
                return _peer_end(frame, ordered, position)
            return position
        if unit == "RANGE":
            raise UnsupportedError("RANGE frames with offsets are not supported")
        delta = int(frame.offsets[offset_arg](
            frame.rows[ordered[position]], frame.outer_env, frame.ctx
        ))
        return position - delta if kind == "PRECEDING" else position + delta

    start = resolve(start_kind, 0, is_start=True)
    end = resolve(end_kind, 1, is_start=False)
    return max(start, 0), min(end, size - 1)
