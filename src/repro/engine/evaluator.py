"""Scalar expression evaluation.

:class:`EvalEnv` is the runtime environment: the current input row, a link to
the enclosing query's environment (for correlated references), and — inside
aggregate queries — the current group's input rows, which measure VISIBLE
semantics needs.

:class:`ExecutionContext` carries per-execution state: the catalog, the
correlated-subquery memo cache and the measure memo cache (the paper's
"localized self-join" strategy, section 5.1), plus counters that the
benchmarks read.
"""

from __future__ import annotations

import datetime
from typing import Any, Optional

from repro.errors import ExecutionError, QueryCancelled
from repro.semantics import bound as b
from repro.types import (
    BOOLEAN,
    DATE,
    DOUBLE,
    INTEGER,
    VARCHAR,
)

__all__ = ["EvalEnv", "ExecutionContext", "evaluate", "evaluate_formula", "cast_value"]


class EvalEnv:
    """Runtime environment for expression evaluation."""

    __slots__ = ("row", "parent", "group_rows")

    def __init__(
        self,
        row: tuple,
        parent: Optional["EvalEnv"] = None,
        group_rows: Optional[tuple] = None,
    ):
        self.row = row
        self.parent = parent
        self.group_rows = group_rows

    def at_depth(self, depth: int) -> "EvalEnv":
        """The environment ``depth`` levels up (0 = this one)."""
        env = self
        for _ in range(depth):
            if env.parent is None:
                raise ExecutionError("correlated reference escapes all scopes")
            env = env.parent
        return env


class ExecutionContext:
    """Shared state for one query execution."""

    def __init__(
        self,
        catalog,
        *,
        enable_cache: bool = True,
        params=(),
        profiler=None,
        cancel_event=None,
        progress=None,
    ):
        self.catalog = catalog
        self.enable_cache = enable_cache
        self.params = tuple(params)
        #: Optional :class:`repro.profile.Profiler`.  None (the default)
        #: means every instrumentation site is a single attribute check;
        #: no timers run and no spans are allocated.
        self.profiler = profiler
        #: Optional :class:`threading.Event`; when set, execution raises
        #: :class:`~repro.errors.QueryCancelled` at the next operator
        #: boundary (the server's ``cancel`` op, see :mod:`repro.server`).
        self.cancel_event = cancel_event
        #: Optional :class:`repro.engine.progress.ProgressState`: live
        #: rows-processed / current-operator / memory accounting, updated
        #: at operator boundaries and the 256-row checkpoints.  Same
        #: zero-cost-when-off discipline as the profiler: None means one
        #: attribute check per operator and per 256-row checkpoint.
        self.progress = progress
        #: True when anything reads :meth:`checkpoint`; row loops hoist it
        #: into a local so an unwatched row pays one truthiness test.
        self.watched = cancel_event is not None or progress is not None
        self.subquery_cache: dict = {}
        self.measure_cache: dict = {}
        self.source_rows_cache: dict = {}
        #: (source plan id, dimension key) -> {value: [row positions]}.
        self.dim_indexes: dict = {}
        #: System-table name -> rows materialized at first scan, so every
        #: scan in one execution sees the same snapshot (repro.introspect).
        self.system_snapshots: dict = {}
        #: Base-table name -> rows materialized at first scan: every scan
        #: of one statement execution reads the same snapshot, so a
        #: self-join sees one table state (snapshot-at-statement-start,
        #: the user-table generalization of system_snapshots).
        self.table_snapshots: dict = {}
        #: Keeps row tuples referenced by id()-based cache keys alive for the
        #: duration of the execution (an id may otherwise be reused by a new
        #: object after garbage collection, aliasing unrelated cache entries).
        self.pinned: list = []
        # Counters exposed to benchmarks and tests.
        self.subquery_executions = 0
        self.subquery_cache_hits = 0
        self.measure_evaluations = 0
        self.measure_cache_hits = 0
        self.rows_scanned = 0
        self.hash_joins = 0
        self.nested_loop_joins = 0

    def checkpoint(self, plan=None, buffered_rows: int = 0) -> None:
        """The one cancellation / progress / memory checkpoint.

        Row loops call it every 256 rows (``if watched and not index &
        0xFF``) and measure evaluation once per evaluation, so a cancel or
        a budget breach lands within a bounded amount of work wherever the
        query is.  ``plan`` is the operator whose loop this is (None: the
        one currently running); ``buffered_rows`` is how many rows the loop
        has buffered so far, projected against the memory budget.
        """
        cancel = self.cancel_event
        if cancel is not None and cancel.is_set():
            raise QueryCancelled("query cancelled")
        if self.progress is not None:
            self.progress.tick(plan, buffered_rows)


def _attach_span(exc: ExecutionError, expr: b.BoundExpr) -> ExecutionError:
    """Stamp ``expr``'s source position onto ``exc`` if it has none yet
    (the innermost located expression wins)."""
    span = getattr(expr, "span", None)
    if span is not None:
        exc.attach_location(span.line, span.column)
    return exc


def _call_function(expr: b.BoundCall, args: list) -> Any:
    """Apply a call's runtime function, converting stray Python errors into
    located :class:`ExecutionError`\\ s.

    A function raising bare ``TypeError``/``ValueError`` (e.g. a string
    builtin applied to a non-string, or an int conversion of a malformed
    string) would otherwise escape the SqlError hierarchy entirely and
    surface as an unhandled Python exception with no SQL position.
    """
    try:
        return expr.fn(*args)
    except ExecutionError as exc:
        raise _attach_span(exc, expr)
    except (TypeError, ValueError) as exc:
        raise _attach_span(
            ExecutionError(f"invalid argument to {expr.op}: {exc}"), expr
        ) from None


def evaluate(expr: b.BoundExpr, env: EvalEnv, ctx: ExecutionContext) -> Any:
    """Evaluate a bound scalar expression."""
    if isinstance(expr, b.BoundLiteral):
        return expr.value
    if isinstance(expr, b.BoundParameter):
        try:
            return ctx.params[expr.index]
        except IndexError:
            raise ExecutionError(
                f"query expects at least {expr.index + 1} parameter(s), "
                f"got {len(ctx.params)}"
            ) from None
    if isinstance(expr, b.BoundColumn):
        return env.row[expr.offset]
    if isinstance(expr, b.BoundOuterColumn):
        return env.at_depth(expr.depth).row[expr.offset]
    if isinstance(expr, b.BoundCall):
        # AND/OR short-circuit so that guarded expressions (x <> 0 AND y/x)
        # never evaluate the protected operand.
        if expr.op == "AND":
            left = evaluate(expr.args[0], env, ctx)
            if left is False:
                return False
            from repro.types import sql_and

            return sql_and(left, evaluate(expr.args[1], env, ctx))
        if expr.op == "OR":
            left = evaluate(expr.args[0], env, ctx)
            if left is True:
                return True
            from repro.types import sql_or

            return sql_or(left, evaluate(expr.args[1], env, ctx))
        args = [evaluate(arg, env, ctx) for arg in expr.args]
        return _call_function(expr, args)
    if isinstance(expr, b.BoundCase):
        for condition, result in expr.whens:
            if evaluate(condition, env, ctx) is True:
                return evaluate(result, env, ctx)
        if expr.else_result is not None:
            return evaluate(expr.else_result, env, ctx)
        return None
    if isinstance(expr, b.BoundCast):
        try:
            return cast_value(evaluate(expr.operand, env, ctx), expr.dtype)
        except ExecutionError as exc:
            raise _attach_span(exc, expr)
    if isinstance(expr, b.BoundInList):
        return _evaluate_in_list(expr, env, ctx)
    if isinstance(expr, b.BoundAggRef):
        return env.row[expr.index]
    if isinstance(expr, b.BoundGroupingId):
        return _evaluate_grouping(expr, env)
    if isinstance(expr, b.BoundSubquery):
        return _evaluate_subquery(expr, env, ctx)
    if isinstance(expr, b.BoundMeasureEval):
        from repro.core.evaluator import evaluate_measure

        return evaluate_measure(expr, env, ctx)
    if isinstance(expr, b.BoundAggCall):
        raise ExecutionError(
            f"aggregate {expr.func} used outside an aggregate context"
        )
    if isinstance(expr, b.BoundCurrentDim):
        raise ExecutionError("CURRENT is only valid inside an AT SET modifier")
    raise ExecutionError(f"cannot evaluate {type(expr).__name__}")


def _evaluate_in_list(expr: b.BoundInList, env: EvalEnv, ctx: ExecutionContext) -> Any:
    from repro.types import sql_eq, sql_not

    operand = evaluate(expr.operand, env, ctx)
    if operand is None:
        return None
    saw_null = False
    for item in expr.items:
        verdict = sql_eq(operand, evaluate(item, env, ctx))
        if verdict is True:
            return sql_not(True) if expr.negated else True
        if verdict is None:
            saw_null = True
    if saw_null:
        return None
    return True if expr.negated else False


def _evaluate_grouping(expr: b.BoundGroupingId, env: EvalEnv) -> int:
    bitmap = env.row[expr.grouping_column]
    if bitmap is None:
        bitmap = 0
    result = 0
    width = len(expr.key_indexes)
    for position, key_index in enumerate(expr.key_indexes):
        bit = (bitmap >> key_index) & 1
        result |= bit << (width - 1 - position)
    return result


def _evaluate_subquery(expr: b.BoundSubquery, env: EvalEnv, ctx: ExecutionContext) -> Any:
    from repro.engine.executor import execute_plan
    from repro.types import sql_eq

    cache_key = None
    if ctx.enable_cache:
        try:
            values = tuple(
                env.at_depth(depth - 1).row[offset]
                for depth, offset in expr.outer_refs
            )
            cache_key = (id(expr.plan), expr.kind, values)
            # An unhashable correlated value would raise from the dict
            # lookup below; probe here so only that narrow case falls back
            # to uncached execution (anything else must propagate).
            hash(cache_key)
        except ExecutionError:
            # A correlation that escapes all scopes cannot be keyed; the
            # subquery still executes (and raises properly if truly broken).
            cache_key = None
        except TypeError:
            cache_key = None
        if cache_key is not None and cache_key in ctx.subquery_cache:
            ctx.subquery_cache_hits += 1
            rows = ctx.subquery_cache[cache_key]
        else:
            rows = execute_plan(expr.plan, ctx, env)
            ctx.subquery_executions += 1
            if cache_key is not None:
                ctx.subquery_cache[cache_key] = rows
    else:
        rows = execute_plan(expr.plan, ctx, env)
        ctx.subquery_executions += 1

    if expr.kind == "EXISTS":
        found = bool(rows)
        return (not found) if expr.negated else found
    if expr.kind == "SCALAR":
        if not rows:
            return None
        if len(rows) > 1:
            raise ExecutionError("scalar subquery returned more than one row")
        return rows[0][0]
    if expr.kind == "IN":
        operand = evaluate(expr.operand, env, ctx)
        if operand is None:
            return None
        saw_null = False
        for row in rows:
            verdict = sql_eq(operand, row[0])
            if verdict is True:
                return False if expr.negated else True
            if verdict is None:
                saw_null = True
        if saw_null:
            return None
        return True if expr.negated else False
    raise ExecutionError(f"unknown subquery kind {expr.kind}")


def evaluate_formula(
    formula: b.BoundExpr,
    rows: list[tuple],
    env: Optional[EvalEnv],
    ctx: ExecutionContext,
) -> Any:
    """Evaluate a measure formula over a set of source rows.

    Aggregate calls inside the formula aggregate over ``rows``; everything
    above the aggregates is scalar arithmetic.  ``env`` is the call-site
    environment, used when the formula itself contains context-sensitive
    parts (nested measures).
    """
    if isinstance(formula, b.BoundAggCall):
        return _run_aggregate(formula, rows, env, ctx)
    if isinstance(formula, b.BoundCall):
        args = [evaluate_formula(arg, rows, env, ctx) for arg in formula.args]
        return _call_function(formula, args)
    if isinstance(formula, b.BoundLiteral):
        return formula.value
    if isinstance(formula, b.BoundCase):
        for condition, result in formula.whens:
            if evaluate_formula(condition, rows, env, ctx) is True:
                return evaluate_formula(result, rows, env, ctx)
        if formula.else_result is not None:
            return evaluate_formula(formula.else_result, rows, env, ctx)
        return None
    if isinstance(formula, b.BoundCast):
        try:
            return cast_value(
                evaluate_formula(formula.operand, rows, env, ctx),
                formula.dtype,
            )
        except ExecutionError as exc:
            raise _attach_span(exc, formula)
    if isinstance(formula, b.BoundMeasureEval):
        from repro.core.evaluator import evaluate_measure

        return evaluate_measure(formula, env, ctx, formula_rows=rows)
    if isinstance(formula, b.BoundSubquery):
        # A scalar subquery in a formula is row-independent: evaluate it once
        # against an empty row (correlations resolve through ``env``).
        return _evaluate_subquery(formula, EvalEnv((), env), ctx)
    if isinstance(formula, b.BoundInList):
        operand = evaluate_formula(formula.operand, rows, env, ctx)
        rewritten = b.BoundInList(
            b.BoundLiteral(operand, formula.dtype),
            formula.items,
            formula.negated,
            formula.dtype,
        )
        return _evaluate_in_list(rewritten, EvalEnv((), env), ctx)
    if isinstance(formula, b.BoundColumn):
        raise ExecutionError(
            "measure formula references a column outside an aggregate; "
            "measures must be aggregatable (wrap the column in an aggregate)"
        )
    raise ExecutionError(
        f"unsupported construct in measure formula: {type(formula).__name__}"
    )


def _run_aggregate(
    call: b.BoundAggCall,
    rows: list[tuple],
    env: Optional[EvalEnv],
    ctx: ExecutionContext,
) -> Any:
    from repro.engine.aggregates import make_accumulator

    if ctx.profiler is not None:
        ctx.profiler.bump("aggregate_invocations")
        ctx.profiler.bump("aggregate_input_rows", len(rows))
    if call.within_distinct:
        rows = _within_distinct_representatives(call, rows, env, ctx)
    accumulator = make_accumulator(call.func, call.star)
    seen: set = set()
    ordered_rows = rows
    if call.order_by:
        from repro.types import sort_rows

        # Sort a copy of the rows by the ORDER BY keys evaluated per row.
        keyed = []
        for row in rows:
            row_env = EvalEnv(row, env)
            keys = tuple(evaluate(spec.expr, row_env, ctx) for spec in call.order_by)
            keyed.append((keys, row))
        specs = [
            (i, spec.descending, bool(spec.nulls_first))
            for i, spec in enumerate(call.order_by)
        ]
        keyed = sort_rows(
            [(k + (r,)) for k, r in keyed],
            [(i, d, n) for i, d, n in specs],
        )
        ordered_rows = [entry[-1] for entry in keyed]
    for row in ordered_rows:
        row_env = EvalEnv(row, env)
        if call.filter_where is not None:
            if evaluate(call.filter_where, row_env, ctx) is not True:
                continue
        if call.star:
            accumulator.add(True)
            continue
        value = evaluate(call.args[0], row_env, ctx) if call.args else None
        if call.distinct:
            if value is None:
                continue
            if value in seen:
                continue
            seen.add(value)
        accumulator.add(value)
    return accumulator.result()


def _within_distinct_representatives(
    call: b.BoundAggCall,
    rows: list[tuple],
    env: Optional[EvalEnv],
    ctx: ExecutionContext,
) -> list[tuple]:
    """WITHIN DISTINCT (keys): keep one representative row per distinct key
    combination (paper section 6.3 / CALCITE-4483).

    The aggregate's argument must be constant within each key group — the
    clause manages grain, it does not pick arbitrary winners — so a
    disagreement raises instead of silently double- or under-counting.
    """
    representatives: dict[tuple, tuple] = {}
    witness: dict[tuple, Any] = {}
    for row in rows:
        row_env = EvalEnv(row, env)
        if call.filter_where is not None:
            if evaluate(call.filter_where, row_env, ctx) is not True:
                continue
        key = tuple(evaluate(k, row_env, ctx) for k in call.within_distinct)
        value = (
            True if call.star else
            (evaluate(call.args[0], row_env, ctx) if call.args else None)
        )
        if key not in representatives:
            representatives[key] = row
            witness[key] = value
        else:
            from repro.types import is_not_distinct

            if not is_not_distinct(witness[key], value):
                raise ExecutionError(
                    f"{call.func} WITHIN DISTINCT: argument is not constant "
                    f"within key {key!r} ({witness[key]!r} vs {value!r})"
                )
    return list(representatives.values())


def cast_value(value: Any, dtype) -> Any:
    """Runtime CAST implementation."""
    if value is None:
        return None
    target = dtype.unwrap()
    try:
        if target is INTEGER:
            if isinstance(value, str):
                return int(value.strip())
            if isinstance(value, (int, float)):
                return int(value)
            if isinstance(value, bool):
                return int(value)
        elif target is DOUBLE:
            if isinstance(value, (int, float, str)):
                return float(value)
        elif target is VARCHAR:
            if isinstance(value, bool):
                return "true" if value else "false"
            if isinstance(value, datetime.date):
                return value.isoformat()
            return str(value)
        elif target is BOOLEAN:
            if isinstance(value, bool):
                return value
            if isinstance(value, str):
                lowered = value.strip().lower()
                if lowered in ("true", "t", "1"):
                    return True
                if lowered in ("false", "f", "0"):
                    return False
        elif target is DATE:
            if isinstance(value, datetime.date):
                return value
            if isinstance(value, str):
                return datetime.date.fromisoformat(value.strip().replace("/", "-"))
        else:
            return value
    except (ValueError, TypeError):
        pass
    raise ExecutionError(f"cannot cast {value!r} to {target}")
