"""Expression compilation: a bound expression becomes a Python closure, once.

:func:`compile_expr` turns a :class:`~repro.semantics.bound.BoundExpr` into
``fn(row, outer, ctx)``: ``row`` is the operator's input tuple, ``outer`` the
enclosing query's :class:`~repro.engine.evaluator.EvalEnv` (None at top
level) and ``ctx`` the :class:`~repro.engine.evaluator.ExecutionContext`.
Node-type dispatch, literal capture and arity selection happen here, once per
node; a row loop only calls closures.  :func:`compile_rows` and
:func:`compile_aggregate` do the same for an operator's expression list and
for an aggregate call, :func:`compile_formula` for a measure formula (whose
"row" is the list of context-filtered source rows).

Closures are memoized on the node they were compiled from, as a non-field
instance attribute (like ``LogicalPlan.facts`` and ``BoundExpr.span``), the
first time an operator runs them — so a cached plan or a catalog-resident
measure source plan compiles once however many executions or sessions share
it.  Racing threads each compute the same closure and store it with a single
attribute write; whichever lands last wins and nothing is locked.
"""

from __future__ import annotations

from itertools import repeat
from operator import itemgetter
from typing import Any, Callable, Sequence

from repro.engine.aggregates import make_accumulator
from repro.engine.evaluator import EvalEnv, cast_value
from repro.errors import ExecutionError
from repro.semantics import bound as b
from repro.types import is_not_distinct, sort_rows, sql_and, sql_eq, sql_or

__all__ = [
    "compile_expr",
    "compile_rows",
    "compile_aggregate",
    "compile_formula",
    "row_getter",
    "memo",
]

Compiled = Callable[[Any, Any, Any], Any]


def memo(node, slot: str, build: Callable[[Any], Any]):
    """``build(node)``, computed on first use and kept on ``node`` under
    ``slot`` (compute, then one attribute store: idempotent under races).
    :func:`compile_expr` and :func:`compile_formula` inline the same steps."""
    value = node.__dict__.get(slot)
    if value is None:
        value = build(node)
        setattr(node, slot, value)
    return value


def compile_expr(expr: b.BoundExpr) -> Compiled:
    """The closure ``fn(row, outer, ctx)`` evaluating scalar ``expr``."""
    fn = expr.__dict__.get("_fn")
    if fn is None:
        fn = expr._fn = _SCALAR.get(type(expr), _unknown)(expr, compile_expr)
    return fn


def compile_formula(formula: b.BoundExpr) -> Compiled:
    """The closure ``fn(rows, env, ctx)`` evaluating a measure formula.

    Aggregate calls inside the formula aggregate over ``rows``; everything
    above them is scalar arithmetic over their results.  ``env`` is the
    call-site environment, used by the formula's context-sensitive parts
    (nested measures, correlated subqueries).
    """
    fn = formula.__dict__.get("_formula_fn")
    if fn is None:
        build = _FORMULA.get(type(formula), _unsupported_in_formula)
        fn = formula._formula_fn = build(formula, compile_formula)
    return fn


def row_getter(offsets: Sequence[int]) -> Callable[[tuple], tuple]:
    """``row -> tuple(row[o] for o in offsets)``; :func:`operator.itemgetter`
    returns a bare value for one offset and rejects none, hence the cases."""
    if len(offsets) > 1:
        return itemgetter(*offsets)
    if offsets:
        (only,) = offsets
        return lambda row: (row[only],)
    return lambda row: ()


def compile_rows(exprs: Sequence[b.BoundExpr]) -> Callable[[list, Any, Any], list]:
    """``fn(rows, outer, ctx) -> [tuple of every expr over row, ...]``.

    An all-column list (wide projections, plain group and sort keys) is one
    ``itemgetter`` mapped over the rows: no Python frame per row.
    """
    if all(isinstance(expr, b.BoundColumn) for expr in exprs):
        getter = row_getter([expr.offset for expr in exprs])
        return lambda rows, outer, ctx: list(map(getter, rows))
    fns = tuple(compile_expr(expr) for expr in exprs)
    if len(fns) == 1:
        (only,) = fns
        return lambda rows, outer, ctx: [(only(row, outer, ctx),) for row in rows]
    return lambda rows, outer, ctx: [
        tuple([fn(row, outer, ctx) for fn in fns]) for row in rows
    ]


# -- errors -----------------------------------------------------------------


def _attach_span(exc: ExecutionError, span) -> ExecutionError:
    """Stamp an expression's source position onto ``exc`` if it has none yet
    (the innermost located expression wins).  Closures capture their node's
    ``span``, not the node: the node holds its closure, and a cycle would
    leave every executed plan's expressions to the cyclic collector."""
    if span is not None:
        exc.attach_location(span.line, span.column)
    return exc


def _call_error(op: str, span, exc: Exception) -> ExecutionError:
    """A call's failure as a located :class:`ExecutionError`.

    A function raising bare ``TypeError``/``ValueError`` (a string builtin
    applied to a non-string, an int conversion of a malformed string) would
    otherwise escape the SqlError hierarchy with no SQL position.
    """
    if not isinstance(exc, ExecutionError):
        exc = ExecutionError(f"invalid argument to {op}: {exc}")
    return _attach_span(exc, span)


_CALL_ERRORS = (ExecutionError, TypeError, ValueError)


def _raiser(message: str) -> Compiled:
    """Constructs that are only an error if execution reaches them."""

    def fail(row, outer, ctx):
        raise ExecutionError(message)

    return fail


def _unknown(expr, sub) -> Compiled:
    return _raiser(f"cannot evaluate {type(expr).__name__}")


def _unsupported_in_formula(expr, sub) -> Compiled:
    return _raiser(
        f"unsupported construct in measure formula: {type(expr).__name__}"
    )


# -- scalar node compilers: (expr, sub) -> closure; ``sub`` compiles children --


def _constant(value: Any) -> Compiled:
    return lambda row, outer, ctx: value


def _item(offset: int) -> Compiled:
    return lambda row, outer, ctx: row[offset]


_null = _constant(None)


def _parameter(expr: b.BoundParameter, sub) -> Compiled:
    index = expr.index

    def parameter(row, outer, ctx):
        try:
            return ctx.params[index]
        except IndexError:
            raise ExecutionError(
                f"query expects at least {index + 1} parameter(s), "
                f"got {len(ctx.params)}"
            ) from None

    return parameter


def _outer_column(expr: b.BoundOuterColumn, sub) -> Compiled:
    up, offset = expr.depth - 1, expr.offset

    def outer_column(row, outer, ctx):
        if outer is None:
            raise ExecutionError("correlated reference escapes all scopes")
        return (outer.at_depth(up) if up else outer).row[offset]

    return outer_column


def _call(expr: b.BoundCall, sub) -> Compiled:
    """A function or operator application, specialized by arity so no
    argument list is built per row.  Arguments are evaluated outside the
    ``try``: only the function's own failure takes this call's position."""
    fn, op, span = expr.fn, expr.op, expr.span
    fns = tuple(sub(arg) for arg in expr.args)
    if len(fns) == 1:
        (only,) = fns

        def call1(row, outer, ctx):
            value = only(row, outer, ctx)
            try:
                return fn(value)
            except _CALL_ERRORS as exc:
                raise _call_error(op, span, exc) from None

        return call1
    if len(fns) == 2:
        first, second = fns

        def call2(row, outer, ctx):
            x = first(row, outer, ctx)
            y = second(row, outer, ctx)
            try:
                return fn(x, y)
            except _CALL_ERRORS as exc:
                raise _call_error(op, span, exc) from None

        return call2

    def call(row, outer, ctx):
        values = [arg(row, outer, ctx) for arg in fns]
        try:
            return fn(*values)
        except _CALL_ERRORS as exc:
            raise _call_error(op, span, exc) from None

    return call


#: op -> (the left value that decides the result alone, the 3VL combiner).
_SHORT_CIRCUIT = {"AND": (False, sql_and), "OR": (True, sql_or)}


def _scalar_call(expr: b.BoundCall, sub) -> Compiled:
    if expr.op not in _SHORT_CIRCUIT:
        return _call(expr, sub)
    # AND/OR short-circuit so that guarded expressions (x <> 0 AND y/x)
    # never evaluate the protected operand.
    decided, combine = _SHORT_CIRCUIT[expr.op]
    left, right = sub(expr.args[0]), sub(expr.args[1])

    def connective(row, outer, ctx):
        value = left(row, outer, ctx)
        if value is decided:
            return decided
        return combine(value, right(row, outer, ctx))

    return connective


def _case(expr: b.BoundCase, sub) -> Compiled:
    whens = [(sub(condition), sub(result)) for condition, result in expr.whens]
    otherwise = _null if expr.else_result is None else sub(expr.else_result)

    def case(row, outer, ctx):
        for condition, result in whens:
            if condition(row, outer, ctx) is True:
                return result(row, outer, ctx)
        return otherwise(row, outer, ctx)

    return case


def _cast(expr: b.BoundCast, sub) -> Compiled:
    operand, dtype, span = sub(expr.operand), expr.dtype, expr.span

    def cast(row, outer, ctx):
        try:
            return cast_value(operand(row, outer, ctx), dtype)
        except ExecutionError as exc:
            raise _attach_span(exc, span)

    return cast


def _membership(operand: Compiled, items: list, negated: bool) -> Compiled:
    """Three-valued ``operand [NOT] IN (items)``."""

    def in_list(row, outer, ctx):
        value = operand(row, outer, ctx)
        if value is None:
            return None
        saw_null = False
        for item in items:
            verdict = sql_eq(value, item(row, outer, ctx))
            if verdict is True:
                return not negated
            if verdict is None:
                saw_null = True
        return None if saw_null else negated

    return in_list


def _in_list(expr: b.BoundInList, sub) -> Compiled:
    return _membership(
        sub(expr.operand), [sub(item) for item in expr.items], expr.negated
    )


def _grouping(expr: b.BoundGroupingId, sub) -> Compiled:
    column, width = expr.grouping_column, len(expr.key_indexes)
    shifts = [
        (key_index, width - 1 - position)
        for position, key_index in enumerate(expr.key_indexes)
    ]

    def grouping(row, outer, ctx):
        bitmap = row[column] or 0
        result = 0
        for key_index, shift in shifts:
            result |= ((bitmap >> key_index) & 1) << shift
        return result

    return grouping


def _subquery(expr: b.BoundSubquery, sub) -> Compiled:
    from repro.engine.executor import execute_plan

    plan, kind, negated, outer_refs = expr.plan, expr.kind, expr.negated, expr.outer_refs
    if kind not in ("EXISTS", "SCALAR", "IN"):
        return _raiser(f"unknown subquery kind {kind}")
    operand = compile_expr(expr.operand) if kind == "IN" else None

    def subquery(row, outer, ctx):
        # This row becomes a link of the correlated-scope chain.
        env = EvalEnv(row, outer)
        cache_key = None
        if ctx.enable_cache:
            try:
                values = tuple([env.at_depth(d - 1).row[o] for d, o in outer_refs])
                cache_key = (id(plan), kind, values)
                # An unhashable correlated value would raise from the dict
                # lookup below; probe here so only that narrow case falls
                # back to uncached execution (anything else must propagate).
                hash(cache_key)
            except (ExecutionError, TypeError):
                # Nor can a correlation that escapes all scopes be keyed; the
                # subquery still executes (and raises if truly broken).
                cache_key = None
        if cache_key is not None and cache_key in ctx.subquery_cache:
            ctx.subquery_cache_hits += 1
            rows = ctx.subquery_cache[cache_key]
        else:
            rows = execute_plan(plan, ctx, env)
            ctx.subquery_executions += 1
            if cache_key is not None:
                ctx.subquery_cache[cache_key] = rows

        if kind == "EXISTS":
            return bool(rows) != negated
        if kind == "SCALAR":
            if not rows:
                return None
            if len(rows) > 1:
                raise ExecutionError("scalar subquery returned more than one row")
            return rows[0][0]
        value = operand(row, outer, ctx)
        if value is None:
            return None
        saw_null = False
        for candidate in rows:
            verdict = sql_eq(value, candidate[0])
            if verdict is True:
                return not negated
            if verdict is None:
                saw_null = True
        return None if saw_null else negated

    return subquery


def _measure(expr: b.BoundMeasureEval, sub) -> Compiled:
    from repro.core.evaluator import evaluate_measure

    return lambda row, outer, ctx: evaluate_measure(expr, EvalEnv(row, outer), ctx)


def _current_dim(expr: b.BoundCurrentDim, sub) -> Compiled:
    """``CURRENT dim``: the single value the context being modified pins the
    dimension to, NULL when it is unconstrained (paper section 3.5).  The
    modifier application publishes that context as ``ctx.current_terms``."""
    dim_key = expr.dim_key

    def current_dim(row, outer, ctx):
        if ctx.current_terms is None:
            raise ExecutionError("CURRENT is only valid inside an AT SET modifier")
        for term in ctx.current_terms:
            if term.dim_key == dim_key:
                pinned, value = term.current_value()
                if pinned:
                    return value
        return None

    return current_dim


_SCALAR = {
    b.BoundLiteral: lambda expr, sub: _constant(expr.value),
    b.BoundParameter: _parameter,
    b.BoundColumn: lambda expr, sub: _item(expr.offset),
    b.BoundOuterColumn: _outer_column,
    b.BoundCall: _scalar_call,
    b.BoundCase: _case,
    b.BoundCast: _cast,
    b.BoundInList: _in_list,
    b.BoundAggRef: lambda expr, sub: _item(expr.index),
    b.BoundGroupingId: _grouping,
    b.BoundSubquery: _subquery,
    b.BoundMeasureEval: _measure,
    # Only an error if execution reaches them, not when the plan compiles.
    b.BoundAggCall: lambda expr, sub: _raiser(
        f"aggregate {expr.func} used outside an aggregate context"
    ),
    b.BoundCurrentDim: _current_dim,
}


# -- measure formulas ---------------------------------------------------------


def _detached(expr: b.BoundExpr) -> Compiled:
    """A row-independent scalar inside a formula: evaluated once against an
    empty row, its correlations resolving through the call-site ``env``."""
    fn = compile_expr(expr)
    return lambda rows, env, ctx: fn((), env, ctx)


def _formula_measure(expr: b.BoundMeasureEval, sub) -> Compiled:
    from repro.core.evaluator import evaluate_measure

    return lambda rows, env, ctx: evaluate_measure(expr, env, ctx, formula_rows=rows)


_FORMULA = {
    b.BoundAggCall: lambda expr, sub: compile_aggregate(expr),
    b.BoundCall: _call,
    b.BoundLiteral: lambda expr, sub: _constant(expr.value),
    b.BoundCase: _case,
    b.BoundCast: _cast,
    b.BoundMeasureEval: _formula_measure,
    b.BoundSubquery: lambda expr, sub: _detached(expr),
    b.BoundInList: lambda expr, sub: _membership(
        sub(expr.operand), [_detached(item) for item in expr.items], expr.negated
    ),
    b.BoundColumn: lambda expr, sub: _raiser(
        "measure formula references a column outside an aggregate; "
        "measures must be aggregatable (wrap the column in an aggregate)"
    ),
}


# -- aggregates -----------------------------------------------------------------


def compile_aggregate(call: b.BoundAggCall) -> Compiled:
    """``fn(rows, outer, ctx)``: ``call`` aggregated over ``rows`` (a group's
    input rows, or a measure's context-filtered source rows)."""
    return memo(call, "_aggregate", _build_aggregate)


def _build_aggregate(call: b.BoundAggCall) -> Compiled:
    func, star, distinct = call.func, call.star, call.distinct
    argument = _null if star or not call.args else compile_expr(call.args[0])
    keep = None if call.filter_where is None else compile_expr(call.filter_where)
    within = compile_rows(call.within_distinct) if call.within_distinct else None
    order_keys = compile_rows([spec.expr for spec in call.order_by])
    order_specs = [
        (index, spec.descending, bool(spec.nulls_first))
        for index, spec in enumerate(call.order_by)
    ]

    def aggregate(rows, outer, ctx):
        if ctx.profiler is not None:
            ctx.profiler.bump("aggregate_invocations")
            ctx.profiler.bump("aggregate_input_rows", len(rows))
        if keep is not None:
            rows = [row for row in rows if keep(row, outer, ctx) is True]
        if within is not None:
            rows = _representatives(func, star, rows, within, argument, outer, ctx)
        if order_specs:
            keyed = [
                keys + (row,) for keys, row in zip(order_keys(rows, outer, ctx), rows)
            ]
            rows = [entry[-1] for entry in sort_rows(keyed, order_specs)]
        accumulator = make_accumulator(func, star)
        add = accumulator.add
        if star:
            values = repeat(True, len(rows))
        else:
            values = [argument(row, outer, ctx) for row in rows]
            if distinct:
                # First occurrences, in order; NULLs never count.
                values = [v for v in dict.fromkeys(values) if v is not None]
        for value in values:
            add(value)
        return accumulator.result()

    return aggregate


def _representatives(func, star, rows, within, argument, outer, ctx) -> list[tuple]:
    """WITHIN DISTINCT (keys): keep one representative row per distinct key
    combination (paper section 6.3 / CALCITE-4483).

    The aggregate's argument must be constant within each key group — the
    clause manages grain, it does not pick arbitrary winners — so a
    disagreement raises instead of silently double- or under-counting.
    """
    representatives: dict[tuple, tuple] = {}
    witness: dict[tuple, Any] = {}
    for key, row in zip(within(rows, outer, ctx), rows):
        value = True if star else argument(row, outer, ctx)
        if key not in representatives:
            representatives[key] = row
            witness[key] = value
        elif not is_not_distinct(witness[key], value):
            raise ExecutionError(
                f"{func} WITHIN DISTINCT: argument is not constant "
                f"within key {key!r} ({witness[key]!r} vs {value!r})"
            )
    return list(representatives.values())
