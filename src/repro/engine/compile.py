"""Expression compilation: a bound expression becomes a Python closure, once.

:func:`compile_expr` turns a :class:`~repro.semantics.bound.BoundExpr` into
``fn(row, outer, ctx)``: ``row`` is the operator's input tuple, ``outer`` the
enclosing query's :class:`~repro.engine.evaluator.EvalEnv` (None at top
level) and ``ctx`` the :class:`~repro.engine.evaluator.ExecutionContext`.
Node-type dispatch, literal capture and arity selection happen here, once per
node; a row loop only calls closures.

:func:`compile_column` is the vector form of the same expression,
``fn(rows, outer, ctx) -> Column``: one value per row plus the set of their
Python types.  One table of bare functions (:data:`_TWINS`) gives, for each
checked function — SQL arithmetic, the comparisons (``IS [NOT] DISTINCT
FROM`` among them), ``YEAR`` / ``MONTH`` / ``DAY`` / ``DAYOFWEEK`` — its bare
twin and the argument kinds on which the two agree: over such columns the twin is mapped (what the checked
``sql_mul`` or ``sql_lt`` would have done on every value, decided once per
column); any other column maps the node's own checked function, and a node
type without a kernel runs its scalar closure per row, so the vector form is
total and has no semantics of its own.  A :class:`Relation` keeps the
columns computed over all of its rows, keyed by the expression's
fingerprint, so every reader of ``extendedprice * (1 - discount)`` over one
relation shares one pass of arithmetic, and its rows grouped by expressions
(:meth:`Relation.groups`), so an Aggregate and a measure's equality contexts
share one grouping pass; a :class:`Slice` is the subset of a relation's rows
an aggregate reads.  :func:`compile_rows` (an operator's expression list,
over a relation), :func:`compile_aggregate` (an aggregate call, over a
slice) and :func:`compile_formula` (a measure formula, over the slice of
source rows its context selects) are built on them; a Filter's predicate
and VISIBLE's local conjuncts are read as columns through
:meth:`Relation.column`.

Closures are memoized on the node they were compiled from, as a non-field
instance attribute (like ``LogicalPlan.facts`` and ``BoundExpr.span``), the
first time an operator runs them — so a cached plan or a catalog-resident
measure source plan compiles once however many executions or sessions share
it.  Racing threads each compute the same closure and store it with a single
attribute write; whichever lands last wins and nothing is locked.  Relations
and their columns belong to one execution and are never stored on a node.
"""

from __future__ import annotations

import datetime
import operator
import sys
from functools import partial, reduce
from itertools import chain, compress, repeat
from operator import attrgetter, itemgetter
from typing import Any, Callable, Optional, Sequence

from repro.engine.aggregates import make_accumulator
from repro.engine.evaluator import EvalEnv, cast_value
from repro.engine.functions import FUNCTIONS
from repro.errors import ExecutionError, QueryCancelled, ResourceExhausted
from repro.semantics import bound as b
from repro.types import (
    NUMERIC_KINDS,
    is_distinct,
    is_not_distinct,
    sort_rows,
    sql_add,
    sql_and,
    sql_div,
    sql_eq,
    sql_ge,
    sql_gt,
    sql_le,
    sql_lt,
    sql_mul,
    sql_ne,
    sql_or,
    sql_sub,
)

__all__ = [
    "compile_expr",
    "compile_column",
    "compile_rows",
    "compile_aggregate",
    "compile_formula",
    "Column",
    "ColumnRows",
    "Relation",
    "Slice",
    "Groups",
    "relation_of",
    "row_pure",
    "slot_key",
    "row_getter",
    "row_list",
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
    """The closure ``fn(members, env, ctx)`` evaluating a measure formula.

    Aggregate calls inside the formula aggregate over ``members`` (the
    :class:`Slice` of source rows the context selects); everything above
    them is scalar arithmetic over their results.  ``env`` is the call-site
    environment, used by the formula's context-sensitive parts (nested
    measures, correlated subqueries).
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


def _offset(expr: b.BoundExpr) -> Optional[int]:
    """Where in the row ``expr`` already is — a column of the input, an
    aggregate slot of an Aggregate's output — or None when it is computed."""
    if isinstance(expr, b.BoundColumn):
        return expr.offset
    if isinstance(expr, b.BoundAggRef):
        return expr.index
    return None


def compile_rows(exprs: Sequence[b.BoundExpr]) -> Callable[["Relation", Any, Any], list]:
    """``fn(relation, outer, ctx) -> [tuple of every expr over row, ...]``.

    A list of references (wide projections, plain group and sort keys, the
    slots of an Aggregate's output) is one ``itemgetter`` mapped over the
    rows, a batch at a time; any other list is its columns, zipped.  Neither
    runs a Python frame per row.
    """
    offsets = [_offset(expr) for expr in exprs]
    if None not in offsets:
        if len(offsets) > 1:
            project = partial(map, itemgetter(*offsets))
        elif offsets:
            # itemgetter returns the bare value for one offset: zip wraps it.
            getter = itemgetter(*offsets)
            project = lambda batch: zip(map(getter, batch))  # noqa: E731
        else:
            project = lambda batch: repeat((), len(batch))  # noqa: E731

        def pick(relation, outer, ctx):
            output: list[tuple] = []
            for batch in ctx.batches(relation.rows, buffered=output):
                if type(batch) is ColumnRows and offsets:
                    output += zip(*[batch.cells[offset] for offset in offsets])
                else:
                    output += project(batch)
            return output

        return pick
    # A reference inside a mixed list is read off the rows (or is the column
    # itself) as the zip consumes it; everything else is a column of the
    # relation.
    readers = [
        (expr, offset, None if offset is None else itemgetter(offset))
        for expr, offset in zip(exprs, offsets)
    ]

    def project(relation, outer, ctx):
        rows = relation.rows
        cells = rows.cells if type(rows) is ColumnRows else None
        return list(zip(*[
            relation.column(expr, outer, ctx).values if getter is None
            else map(getter, rows) if cells is None else cells[offset]
            for expr, offset, getter in readers
        ]))

    return project


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


# -- columns: the vector form ---------------------------------------------------


class Column:
    """One expression over a run of rows: ``values``, one per row in row
    order, and ``kinds``, a set holding the exact Python type of every value
    (exact, so ``bool`` never passes for ``int``) — derived by the kernel that
    produced the values where it can be, otherwise observed in one C pass the
    first time something asks.  It is what a kernel consults instead of
    checking each value.
    """

    __slots__ = ("values", "_kinds")

    def __init__(self, values: Sequence, kinds: Optional[frozenset] = None):
        self.values = values
        self._kinds = kinds

    @property
    def kinds(self) -> frozenset:
        kinds = self._kinds
        if kinds is None:
            kinds = self._kinds = frozenset(map(type, self.values))
        return kinds

    def take(self, positions: Sequence[int]) -> "Column":
        """The column of the rows at ``positions``."""
        kinds = self._kinds
        if kinds is not None and not kinds <= NUMERIC_KINDS:
            kinds = None  # the NULL or the string may be elsewhere: look again
        return Column(_gather(self.values, positions), kinds)


def _gather(values: Sequence, positions: Sequence[int]) -> Sequence:
    """``values`` at ``positions``, in that order, without a frame per item
    (``itemgetter`` returns a bare value for one position and rejects none)."""
    if type(values) is ColumnRows:
        return values.take(positions)
    if len(positions) > 1:
        return itemgetter(*positions)(values)
    return [values[position] for position in positions]


Kernel = Callable[[Sequence[tuple], Any, Any], Column]

_INT, _FLOAT = frozenset({int}), frozenset({float})
_NULL_KIND = type(None)

#: What evaluating an expression over a row can raise because of the row.
_VALUE_ERRORS = (ExecutionError, TypeError, ValueError, ArithmeticError)


def compile_column(expr: b.BoundExpr) -> Kernel:
    """The kernel ``fn(rows, outer, ctx) -> Column`` evaluating scalar
    ``expr`` over every row of ``rows``: the same values, of the same types,
    as ``[compile_expr(expr)(row, outer, ctx) for row in rows]``, raising iff
    that raises.

    A kernel works expression by expression, so with two failing spots it may
    meet the later row's first; :meth:`Relation.column`, through which every
    operator reads, reports the one the row loop would have met.
    """
    fn = expr.__dict__.get("_column")
    if fn is None:
        fn = expr._column = _KERNELS.get(type(expr), _per_row)(expr)
    return fn


def _raise_in_row_order(expr: b.BoundExpr, rows, outer, ctx) -> None:
    """A kernel over ``rows`` raised: replay them through the scalar closure,
    which raises the error of the first failing row (the caller re-raises the
    kernel's own if, against the contract, nothing does)."""
    scalar = compile_expr(expr)
    for row in rows:
        scalar(row, outer, ctx)


def _per_row(expr: b.BoundExpr) -> Kernel:
    """The kernel of a node type that has none of its own (and of AND / OR,
    CASE: they must not evaluate the operand the row loop would skip)."""
    fn = compile_expr(expr)
    return lambda rows, outer, ctx: Column([fn(row, outer, ctx) for row in rows])


def _item_kernel(expr: b.BoundExpr) -> Kernel:
    """A reference: over column-major rows the column itself, else one
    ``itemgetter`` mapped over the rows."""
    offset = _offset(expr)
    getter = itemgetter(offset)

    def item(rows, outer, ctx):
        if type(rows) is ColumnRows:
            return Column(rows.cells[offset])
        return Column(list(map(getter, rows)))

    return item


def _broadcast_kernel(expr: b.BoundExpr) -> Kernel:
    """A row-independent node (a literal, a ``?``, an outer reference):
    evaluated once — and, like the row loop, not at all over no rows (a
    missing ``?`` is only an error if reached)."""
    fn = compile_expr(expr)

    def broadcast(rows, outer, ctx):
        if not rows:
            return Column([])
        value = fn((), outer, ctx)
        return Column([value] * len(rows), frozenset((type(value),)))

    return broadcast


def _call_kernel(expr: b.BoundCall) -> Kernel:
    """A function or operator application over its argument columns: the
    node's function mapped over them, its failure located as the scalar
    closure locates it.  No argument list is built and no closure runs per
    row; a function with a bare twin goes further (:func:`_twin_kernel`)."""
    if expr.op in _SHORT_CIRCUIT or not expr.args:
        return _per_row(expr)
    fn, op, span = expr.fn, expr.op, expr.span
    args = [compile_column(arg) for arg in expr.args]
    twin = _TWINS.get(fn)
    if twin is not None:
        return _twin_kernel(fn, op, span, twin, args)

    def call(rows, outer, ctx):
        columns = [arg(rows, outer, ctx).values for arg in args]
        try:
            return Column(list(map(fn, *columns)))
        except _CALL_ERRORS as exc:
            raise _call_error(op, span, exc) from None

    return call


def _twin_kernel(fn, op: str, span, twin: tuple, args: list) -> Kernel:
    """A checked function over columns on which its bare twin agrees with
    it (:data:`_TWINS`): the twin is mapped instead — no Python frame per
    row, one look at the columns' kinds in place of checks per value.  Any
    other columns map the checked function itself, and say so in the
    ``column.checked_values`` counter."""
    bare, agrees, kinds = twin
    derive = None if isinstance(kinds, frozenset) else kinds

    if len(args) == 1:
        (only,) = args

        def unary(rows, outer, ctx):
            xs = only(rows, outer, ctx)
            unchecked = agrees(xs)
            if ctx.watch is not None:
                ctx.watch.bump("column.checked_values", 0 if unchecked else len(rows))
            if unchecked:
                return Column(list(map(bare, xs.values)), kinds)
            try:
                return Column(list(map(fn, xs.values)))
            except _CALL_ERRORS as exc:
                raise _call_error(op, span, exc) from None

        return unary
    left, right = args

    def binary(rows, outer, ctx):
        xs = left(rows, outer, ctx)
        ys = right(rows, outer, ctx)
        unchecked = agrees(xs, ys)
        if ctx.watch is not None:
            ctx.watch.bump("column.checked_values", 0 if unchecked else len(rows))
        if unchecked:
            values = list(map(bare, xs.values, ys.values))
            return Column(values, kinds if derive is None else derive(xs.kinds, ys.kinds))
        try:
            return Column(list(map(fn, xs.values, ys.values)))
        except _CALL_ERRORS as exc:
            raise _call_error(op, span, exc) from None

    return binary


_BOOL, _DATE = frozenset({bool}), frozenset({datetime.date})

#: The single kinds a comparison's bare twin orders as the checked one does
#: (a number with a number, else the same type on both sides).
_ORDERED = frozenset({frozenset({str}), _DATE, _BOOL})


def _numeric(xs: Column, ys: Column) -> bool:
    """Both columns hold only ``int`` / ``float``: no NULL, no BOOLEAN, no
    date — what SQL arithmetic checks on each value."""
    return xs.kinds <= NUMERIC_KINDS and ys.kinds <= NUMERIC_KINDS


def _divisible(xs: Column, ys: Column) -> bool:
    return _numeric(xs, ys) and 0 not in ys.values


def _comparable_kinds(xs: Column, ys: Column) -> bool:
    """No NULL, and a pair ``types.values._comparable`` passes as it is: numbers
    with numbers, or one string, date or BOOLEAN kind on both sides."""
    xk, yk = xs.kinds, ys.kinds
    if xk == yk:
        return xk <= NUMERIC_KINDS or xk in _ORDERED
    return xk <= NUMERIC_KINDS and yk <= NUMERIC_KINDS


def _dates(xs: Column) -> bool:
    return xs.kinds == _DATE


def _sum_kinds(xk: frozenset, yk: frozenset) -> Optional[frozenset]:
    """``+ - *``: derived, not assumed — any float operand gives floats, ints
    give ints, a mixed column is looked at again."""
    if xk == _FLOAT or yk == _FLOAT:
        return _FLOAT
    return _INT if xk == yk == _INT else None


def _twin_table() -> dict:
    """checked function -> (its bare twin, whether the twin agrees with it
    on these argument columns, the kinds of the twin's results: a set, or
    a function of the arguments' kinds)."""
    table = {
        sql_add: (operator.add, _numeric, _sum_kinds),
        sql_sub: (operator.sub, _numeric, _sum_kinds),
        sql_mul: (operator.mul, _numeric, _sum_kinds),
        sql_div: (operator.truediv, _divisible, _FLOAT),  # true division
        sql_eq: (operator.eq, _comparable_kinds, _BOOL),
        sql_ne: (operator.ne, _comparable_kinds, _BOOL),
        sql_lt: (operator.lt, _comparable_kinds, _BOOL),
        sql_le: (operator.le, _comparable_kinds, _BOOL),
        sql_gt: (operator.gt, _comparable_kinds, _BOOL),
        sql_ge: (operator.ge, _comparable_kinds, _BOOL),
        # Without a NULL, IS [NOT] DISTINCT FROM is <> / =.
        is_distinct: (operator.ne, _comparable_kinds, _BOOL),
        is_not_distinct: (operator.eq, _comparable_kinds, _BOOL),
    }
    parts = {
        "YEAR": attrgetter("year"),
        "MONTH": attrgetter("month"),
        "DAY": attrgetter("day"),
        "DAYOFWEEK": datetime.date.isoweekday,
    }
    for name, bare in parts.items():
        # Any other column keeps the NULL check and the DATE check's error.
        table[FUNCTIONS[name].call] = (bare, _dates, _INT)
    return table


#: One table of bare functions: for each checked function, the bare one
#: that gives what it would on every value of columns of the right kinds.
_TWINS = _twin_table()


_KERNELS = {
    b.BoundColumn: _item_kernel,
    b.BoundAggRef: _item_kernel,
    b.BoundLiteral: _broadcast_kernel,
    b.BoundParameter: _broadcast_kernel,
    b.BoundOuterColumn: _broadcast_kernel,
    b.BoundCall: _call_kernel,
}

#: Node types whose value depends on the row alone (and, for ``?``, on the
#: statement): an expression made only of these is the same column whoever
#: asks, so a relation computes it once.
_ROW_PURE = (
    b.BoundColumn,
    b.BoundAggRef,
    b.BoundGroupingId,
    b.BoundLiteral,
    b.BoundParameter,
    b.BoundCall,
    b.BoundCase,
    b.BoundCast,
    b.BoundInList,
)


def row_pure(expr: b.BoundExpr) -> bool:
    """Whether ``expr`` is made only of :data:`_ROW_PURE` nodes (memoized on
    the node as ``_pure``): the same value over the same row whoever asks."""
    return memo(
        expr, "_pure", lambda expr: all(isinstance(n, _ROW_PURE) for n in b.walk(expr))
    )


def _computed_from_row(expr: b.BoundExpr) -> bool:
    """Whether a relation keeps ``expr``'s column (memoized on the node as
    ``_slot``, its key or ""): it is row-pure, and more than a reference to
    a column the rows already hold."""
    return _offset(expr) is None and row_pure(expr)


def _grouping_key(expr: b.BoundExpr) -> str:
    """What a relation's groupings are keyed by, one name per expression
    (memoized on the node as ``_grouped``): its :func:`slot_key` when it is
    row-pure, else "" (grouped for the caller alone)."""
    key = expr._grouped = slot_key(expr) if row_pure(expr) else ""
    return key


def slot_key(expr: b.BoundExpr) -> str:
    """What a relation's columns and indexes are keyed by: the expression as
    it is numbered *now* (a ``dim_key`` is the binder's name for a dimension,
    which column pruning does not renumber)."""
    return memo(expr, "_fingerprint", b.fingerprint)


_UNBUILT = object()


class ColumnRows:
    """Rows held column by column: ``cells[i]`` is column i of every row, in
    row order, and ``length`` how many rows there are (a zero-width row
    still counts).  What a join pipeline emits (``engine/executor.py``): the
    readers that know it — a reference's kernel, :meth:`Relation._group`,
    :meth:`Relation.column` at positions, :func:`compile_rows` and the
    Filter — read its columns, and build no row.  To anything else it is a
    ``Sequence[tuple]`` whose tuples are built once, on the first row access
    (iteration, ``==``; an index builds its one row), and kept; a slice or a
    gather of it is column-major again until then.  Nobody mutates it."""

    __slots__ = ("cells", "length", "_tuples")

    def __init__(self, cells: list, length: int):
        self.cells = cells
        self.length = length
        self._tuples: Optional[list[tuple]] = None

    def tuples(self) -> list[tuple]:
        """The rows as tuples, built on the first call."""
        built = self._tuples
        if built is None:
            cells = self.cells
            built = self._tuples = list(zip(*cells)) if cells else [()] * self.length
        return built

    def __len__(self) -> int:
        return self.length

    def __iter__(self):
        return iter(self.tuples())

    def __getitem__(self, index):
        if self._tuples is not None:
            return self._tuples[index]
        if type(index) is slice:
            cells = [column[index] for column in self.cells]
            return ColumnRows(cells, len(range(self.length)[index]))
        range(self.length)[index]  # an IndexError past the end
        return tuple([column[index] for column in self.cells])

    def __eq__(self, other) -> bool:
        if type(other) is ColumnRows:
            other = other.tuples()
        return self.tuples() == other

    __hash__ = None  # type: ignore[assignment]

    def take(self, positions: Sequence[int]) -> Sequence[tuple]:
        """The rows at ``positions``, in that order."""
        if self._tuples is not None:
            return _gather(self._tuples, positions)
        cells = [_gather(column, positions) for column in self.cells]
        return ColumnRows(cells, len(positions))

    def compress(self, mask: Sequence) -> Sequence[tuple]:
        """The rows where ``mask`` is true (``itertools.compress``)."""
        if self._tuples is not None:
            return list(compress(self._tuples, mask))
        cells = [list(compress(column, mask)) for column in self.cells]
        length = len(cells[0]) if cells else len(list(compress(mask, mask)))
        return ColumnRows(cells, length)


def row_list(rows: Sequence[tuple]) -> list[tuple]:
    """``rows`` as a list of tuples, for a reader that indexes them one by
    one: a :class:`ColumnRows`' tuples, built once, or the list itself."""
    return rows.tuples() if type(rows) is ColumnRows else rows


class Relation:
    """A list of rows (or a join pipeline's :class:`ColumnRows`) and, when
    it has an ``owner``, the columns and the groupings computed over all of
    them so far.

    ``owner`` is the plan node that holds the rows for more than one reader:
    a measure's ``[shared]`` source, whose relation the statement keeps in
    ``ctx.relations`` (:func:`relation_of`), or a running Aggregate, whose
    groups all read its input.  ``slots`` then maps :func:`slot_key` to the
    column of a row-pure expression — or to None when evaluating it raised on
    some row, a row no reader may ever select, so nothing is raised here —
    and the columns' bytes are charged to the owner.  A shared source also
    keeps ``groupings``, a tuple of slot keys -> the rows grouped by those
    expressions (:meth:`groups`), charged the same way; an Aggregate's own
    relation groups once per grouping set and keeps none.  A relation
    without an owner (a Project's or a Sort's input, what is left of a slice
    after FILTER) is read once and keeps nothing.  Either way it belongs to
    one execution.
    """

    __slots__ = ("rows", "owner", "slots", "groupings")

    def __init__(self, rows: Sequence[tuple], owner=None):
        self.rows = rows
        self.owner = owner
        self.slots: Optional[dict[str, Optional[Column]]] = (
            None if owner is None else {}
        )
        self.groupings: Optional[dict[tuple, Optional[dict]]] = (
            {} if owner is not None and owner.shared else None
        )

    def groups(self, exprs: Sequence[b.BoundExpr], outer, ctx) -> Optional[dict]:
        """``{key: ascending positions}``: the rows grouped by the values of
        ``exprs`` (a key is the tuple of them, one per expression; groups in
        order of first occurrence), or None when a value is unhashable.

        The one grouping routine: an Aggregate's grouping sets, an equality
        context and VISIBLE's key probe all read their groups here.  Over a
        shared source and row-pure ``exprs`` a grouping is built once per
        execution, keyed by the expressions' slot keys (:func:`slot_key`),
        and its bytes are charged to the owner once; otherwise it is built
        for the caller alone.  Nobody may mutate what this returns.
        """
        groupings = self.groupings
        if groupings is None:
            return self._group(exprs, outer, ctx)
        key = tuple([e.__dict__.get("_grouped") or _grouping_key(e) for e in exprs])
        if "" in key:
            return self._group(exprs, outer, ctx)
        grouping = groupings.get(key, _UNBUILT)
        if grouping is _UNBUILT:
            grouping = groupings[key] = self._group(exprs, outer, ctx)
            if grouping and ctx.watch is not None:
                # The table, a key and a list per group, a slot per row.
                ctx.watch.account_bytes(
                    self.owner,
                    sys.getsizeof(grouping)
                    + len(grouping) * sys.getsizeof(next(iter(grouping)))
                    + sum(map(sys.getsizeof, grouping.values())),
                )
        return grouping

    def _group(self, exprs: Sequence[b.BoundExpr], outer, ctx) -> Optional[dict]:
        """One pass over the rows for :meth:`groups`, checkpointing every 256."""
        rows = self.rows
        offsets = [_offset(expr) for expr in exprs]
        if offsets and None not in offsets and type(rows) is ColumnRows:
            keys = zip(*[rows.cells[offset] for offset in offsets])
        elif offsets and None not in offsets:
            getter = itemgetter(*offsets)  # a bare value for one offset
            keys = map(getter, rows) if len(offsets) > 1 else zip(map(getter, rows))
        elif exprs:
            keys = zip(*[self.column(expr, outer, ctx).values for expr in exprs])
        else:
            keys = repeat((), len(rows))
        table: dict[tuple, list[int]] = {}
        get, watched = table.get, ctx.watched
        try:
            for position, key in enumerate(keys):
                if watched and not position & 0xFF:
                    ctx.checkpoint(buffered_rows=position)
                group = get(key)
                if group is None:
                    table[key] = [position]
                else:
                    group.append(position)
        except TypeError:
            return None
        return table

    def column(self, expr: b.BoundExpr, outer, ctx, positions=None) -> Column:
        """``expr`` over the rows at ``positions`` (None: every row).

        With an owner, a row-pure expression is computed over the whole
        relation the first time anyone asks and gathered from there
        afterwards.  Anything else — an expression whose whole column could
        not be built, and a bare column reference, which has nothing to
        compute and is already in the rows — runs the kernel over exactly the
        rows asked for, with the caller's ``outer``, so an error surfaces iff
        one of those rows causes it.
        """
        slots = self.slots
        if slots is not None:
            key = expr.__dict__.get("_slot")
            if key is None:
                key = expr._slot = slot_key(expr) if _computed_from_row(expr) else ""
            if key:
                whole = slots.get(key, _UNBUILT)
                if whole is _UNBUILT:
                    whole = slots[key] = self._build(expr, ctx)
                elif ctx.watch is not None:
                    ctx.watch.bump("column.reads")
                if whole is not None:
                    return whole if positions is None else whole.take(positions)
        rows = self.rows
        if positions is not None:
            offset = _offset(expr) if type(rows) is ColumnRows else None
            if offset is not None:  # a reference: its column, gathered
                return Column(_gather(rows.cells[offset], positions))
            rows = _gather(rows, positions)
        try:
            if positions is None:
                return self._whole(expr, outer, ctx)
            return compile_column(expr)(rows, outer, ctx)
        except (QueryCancelled, ResourceExhausted):
            raise  # a checkpoint's, not a row's
        except _VALUE_ERRORS:
            _raise_in_row_order(expr, rows, outer, ctx)
            raise

    def _whole(self, expr: b.BoundExpr, outer, ctx) -> Column:
        """``expr`` over every row: one kernel call, or for a watched
        execution one per 256 rows with a checkpoint before each
        (``ctx.batches``)."""
        kernel = compile_column(expr)
        if not ctx.watched:
            return kernel(self.rows, outer, ctx)
        parts = [kernel(batch, outer, ctx) for batch in ctx.batches(self.rows)]
        if len(parts) == 1:
            return parts[0]
        return Column(list(chain.from_iterable(part.values for part in parts)))

    def _build(self, expr: b.BoundExpr, ctx) -> Optional[Column]:
        """The slot of row-pure ``expr``: its whole column, or None when a
        row makes it raise.  Its bytes are accounted once, here."""
        if ctx.watch is not None:
            ctx.watch.bump("column.builds")
        try:
            column = self._whole(expr, None, ctx)
        except (QueryCancelled, ResourceExhausted):
            raise
        except _VALUE_ERRORS:
            return None
        if ctx.watch is not None and column.values:
            ctx.watch.account_bytes(
                self.owner,
                sys.getsizeof(column.values)
                + len(column.values) * sys.getsizeof(column.values[0]),
            )
        return column


def relation_of(plan, rows: list[tuple], ctx, owner=None) -> Relation:
    """The relation over ``rows``, the output of ``plan``.  A measure's
    ``[shared]`` source has one per statement, so the query's own operators
    and every measure evaluation read the same columns and groupings — under
    the same ``enable_cache`` gate as the measure memo.  Any other relation
    is new, owned by ``owner`` (None: by nobody)."""
    if not (plan.shared and ctx.enable_cache):
        return Relation(rows, owner)
    relation = ctx.relations.get(id(plan))
    if relation is None:
        relation = ctx.relations[id(plan)] = Relation(rows, plan)
    return relation


class Slice:
    """The rows of ``relation`` at ``positions`` (ascending, so aggregate
    input order is row order; None: all of them) — what an aggregate reads.
    The row list itself is only built for a reader that iterates it."""

    __slots__ = ("relation", "positions")

    def __init__(self, relation: Relation, positions: Optional[Sequence[int]] = None):
        self.relation = relation
        self.positions = positions

    def __len__(self) -> int:
        if self.positions is None:
            return len(self.relation.rows)
        return len(self.positions)

    def rows(self) -> Sequence[tuple]:
        if self.positions is None:
            return self.relation.rows
        return _gather(self.relation.rows, self.positions)


class Groups:
    """One execution's groups of an Aggregate: ``relation``, its input, and
    per grouping set — by GROUPING bitmap — the getter of an output row's
    active keys and ``{key: ascending positions}``.  What VISIBLE reads the
    current group through (:meth:`members`): positions, no row copied."""

    __slots__ = ("relation", "sets", "gid", "slices")

    def __init__(self, relation: Relation, sets: dict, gid: Optional[int]):
        self.relation = relation
        self.sets = sets
        #: Where an output row holds its bitmap (None: one grouping set, 0).
        self.gid = gid
        #: id(positions) -> their Slice, one per group: the object a VISIBLE
        #: term's memo key names, whichever call site asks.
        self.slices: dict[int, Slice] = {}

    def members(self, row: tuple) -> Slice:
        """The group ``row`` of the Aggregate's output stands for; empty
        for the global grouping set over empty input."""
        active, groups = self.sets[0 if self.gid is None else row[self.gid]]
        positions = groups.get(active(row), ())
        found = self.slices.get(id(positions))
        if found is None:
            found = self.slices[id(positions)] = Slice(self.relation, positions)
        return found


# -- measure formulas ---------------------------------------------------------


def _detached(expr: b.BoundExpr) -> Compiled:
    """A row-independent scalar inside a formula: evaluated once against an
    empty row, its correlations resolving through the call-site ``env``."""
    fn = compile_expr(expr)
    return lambda members, env, ctx: fn((), env, ctx)


def _formula_measure(expr: b.BoundMeasureEval, sub) -> Compiled:
    from repro.core.evaluator import evaluate_measure

    return lambda members, env, ctx: evaluate_measure(
        expr, env, ctx, formula_slice=members
    )


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
    """``fn(members, outer, ctx)``: ``call`` aggregated over a :class:`Slice`
    (a group's input rows, or the source rows a measure's context selects)."""
    return memo(call, "_aggregate", _build_aggregate)


def _build_aggregate(call: b.BoundAggCall) -> Compiled:
    func, star, distinct = call.func.upper(), call.star, call.distinct
    argument = None if star or not call.args else call.args[0]
    keep = None if call.filter_where is None else compile_expr(call.filter_where)
    within = compile_rows(call.within_distinct) if call.within_distinct else None
    order_keys = (
        compile_rows([spec.expr for spec in call.order_by]) if call.order_by else None
    )
    order_specs = [
        (index, spec.descending, spec.nulls_first)
        for index, spec in enumerate(call.order_by)
    ]
    counts, sums, averages = func == "COUNT", func == "SUM", func == "AVG"
    # Without an argument the input is a constant: TRUE per row for COUNT(*).
    constant = star or None
    constant_kinds = frozenset((type(constant),))

    def aggregate(members, outer, ctx):
        if ctx.watch is not None:
            ctx.watch.bump("aggregate_invocations")
            ctx.watch.bump("aggregate_input_rows", len(members))
        if keep is not None or within is not None or order_specs:
            # These read rows, not columns: the one place a slice's row list
            # is built.  What is left of it is a relation of its own.
            rows = members.rows()
            if keep is not None:
                rows = [row for row in rows if keep(row, outer, ctx) is True]
            if within is not None:
                rows = _representatives(func, rows, within, argument, outer, ctx)
            if order_specs:
                keys = order_keys(Relation(rows), outer, ctx)
                keyed = [key + (row,) for key, row in zip(keys, rows)]
                rows = [entry[-1] for entry in sort_rows(keyed, order_specs)]
            members = Slice(Relation(rows))
        if argument is None:
            column = Column([constant] * len(members), constant_kinds)
        else:
            column = members.relation.column(
                argument, outer, ctx, members.positions
            )
            if distinct:
                # First occurrences, in order; NULLs never count.
                column = Column(
                    [v for v in dict.fromkeys(column.values) if v is not None]
                )
        # Where the column's kinds say every value counts and none needs a
        # check, fold it whole.  ``reduce`` with ``+``, in row order, is the
        # accumulators' own arithmetic bit for bit (``_Sum`` starts from the
        # first value, ``_Avg`` from 0.0); ``sum()`` is not — it compensates
        # since 3.12.
        values = column.values
        if counts:
            if _NULL_KIND not in column.kinds:
                return len(values)
        elif (sums or averages) and column.kinds <= NUMERIC_KINDS:
            if not values:
                return None
            if sums:
                return reduce(operator.add, values)
            return reduce(operator.add, values, 0.0) / len(values)
        accumulator = make_accumulator(func, star)
        add = accumulator.add
        for value in values:
            add(value)
        return accumulator.result()

    return aggregate


def _representatives(func, rows, within, argument, outer, ctx) -> list[tuple]:
    """WITHIN DISTINCT (keys): keep one representative row per distinct key
    combination (paper section 6.3 / CALCITE-4483).

    The aggregate's argument must be constant within each key group — the
    clause manages grain, it does not pick arbitrary winners — so a
    disagreement raises instead of silently double- or under-counting.
    """
    relation = Relation(rows)
    if argument is None:
        values = repeat(True, len(rows))
    else:
        values = relation.column(argument, outer, ctx).values
    representatives: dict[tuple, tuple] = {}
    witness: dict[tuple, Any] = {}
    for key, row, value in zip(within(relation, outer, ctx), rows, values):
        if key not in representatives:
            representatives[key] = row
            witness[key] = value
        elif not is_not_distinct(witness[key], value):
            raise ExecutionError(
                f"{func} WITHIN DISTINCT: argument is not constant "
                f"within key {key!r} ({witness[key]!r} vs {value!r})"
            )
    return list(representatives.values())
