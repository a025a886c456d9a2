"""Aggregate function implementations.

Aggregates are accumulator classes driven by the executor: ``add(value)`` per
input row (after FILTER and DISTINCT handling), ``result()`` at group end.
``COUNT`` of an empty group is 0; every other aggregate returns NULL, per the
SQL standard.  These same accumulators evaluate measure formulas over
context-filtered source rows (:mod:`repro.core.evaluator`).

One table, :data:`AGGREGATES`, gives each aggregate its accumulator and
result type and, for those that roll up, its states, finish and roll-up
aggregate: the one algebra by which summary tables (:mod:`repro.matview`)
store, merge and re-aggregate what they hold (:func:`finished`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Callable, Optional, Sequence

from repro.engine.functions import FUNCTIONS
from repro.errors import BindError, ExecutionError
from repro.semantics import bound as b
from repro.types import (
    BOOLEAN,
    DOUBLE,
    INTEGER,
    UNKNOWN,
    VARCHAR,
    DataType,
    SortKey,
    is_numeric,
)

__all__ = [
    "AGGREGATES",
    "Accumulator",
    "AggregateFunction",
    "aggregate_result_type",
    "finished",
    "is_aggregate_function",
    "make_accumulator",
]


class Accumulator:
    """Base accumulator; subclasses override :meth:`add` and :meth:`result`."""

    def add(self, value: Any) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def result(self) -> Any:  # pragma: no cover - interface
        raise NotImplementedError


class _Count(Accumulator):
    def __init__(self) -> None:
        self.count = 0

    def add(self, value: Any) -> None:
        if value is not None:
            self.count += 1

    def result(self) -> int:
        return self.count


class _CountStar(Accumulator):
    def __init__(self) -> None:
        self.count = 0

    def add(self, value: Any) -> None:
        self.count += 1

    def result(self) -> int:
        return self.count


class _Sum(Accumulator):
    def __init__(self) -> None:
        self.total: Any = None

    def add(self, value: Any) -> None:
        if value is None:
            return
        if not is_numeric(value):
            raise ExecutionError(f"SUM over non-numeric value {value!r}")
        self.total = value if self.total is None else self.total + value

    def result(self) -> Any:
        return self.total


class _Avg(Accumulator):
    def __init__(self) -> None:
        self.total = 0.0
        self.count = 0

    def add(self, value: Any) -> None:
        if value is None:
            return
        if not is_numeric(value):
            raise ExecutionError(f"AVG over non-numeric value {value!r}")
        self.total += value
        self.count += 1

    def result(self) -> Optional[float]:
        if self.count == 0:
            return None
        return self.total / self.count


class _MinMax(Accumulator):
    def __init__(self, is_min: bool) -> None:
        self.is_min = is_min
        self.best: Any = None

    def add(self, value: Any) -> None:
        if value is None:
            return
        if self.best is None:
            self.best = value
            return
        if self.is_min:
            if SortKey(value) < SortKey(self.best):
                self.best = value
        elif SortKey(self.best) < SortKey(value):
            self.best = value

    def result(self) -> Any:
        return self.best


class _Welford(Accumulator):
    """Single-pass mean/variance (Welford's algorithm)."""

    def __init__(self, kind: str) -> None:
        self.kind = kind  # VAR_SAMP, VAR_POP, STDDEV_SAMP, STDDEV_POP
        self.count = 0
        self.mean = 0.0
        self.m2 = 0.0

    def add(self, value: Any) -> None:
        if value is None:
            return
        if not is_numeric(value):
            raise ExecutionError(f"{self.kind} over non-numeric value {value!r}")
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (value - self.mean)

    def result(self) -> Optional[float]:
        if self.kind in ("VAR_SAMP", "STDDEV_SAMP"):
            if self.count < 2:
                return None
            variance = self.m2 / (self.count - 1)
        else:
            if self.count == 0:
                return None
            variance = self.m2 / self.count
        if self.kind.startswith("STDDEV"):
            return math.sqrt(variance)
        return variance


class _BoolCombine(Accumulator):
    def __init__(self, op: str) -> None:
        self.op = op  # AND / OR
        self.value: Any = None
        self.seen = False

    def add(self, value: Any) -> None:
        if value is None:
            return
        if not self.seen:
            self.value = bool(value)
            self.seen = True
        elif self.op == "AND":
            self.value = self.value and bool(value)
        else:
            self.value = self.value or bool(value)

    def result(self) -> Any:
        return self.value if self.seen else None


class _AnyValue(Accumulator):
    def __init__(self) -> None:
        self.value: Any = None
        self.seen = False

    def add(self, value: Any) -> None:
        if not self.seen and value is not None:
            self.value = value
            self.seen = True

    def result(self) -> Any:
        return self.value


class _Collect(Accumulator):
    """Shared machinery for aggregates that buffer their input."""

    def __init__(self) -> None:
        self.values: list[Any] = []

    def add(self, value: Any) -> None:
        if value is not None:
            self.values.append(value)


class _ArrayAgg(_Collect):
    def result(self) -> Optional[list]:
        return self.values or None


class _StringAgg(Accumulator):
    def __init__(self, separator: str = ",") -> None:
        self.separator = separator
        self.parts: list[str] = []

    def add(self, value: Any) -> None:
        if value is not None:
            self.parts.append(str(value))

    def result(self) -> Optional[str]:
        if not self.parts:
            return None
        return self.separator.join(self.parts)


class _FirstLast(Accumulator):
    """FIRST_VALUE / LAST_VALUE as aggregates (used for semi-additive
    measures, e.g. inventory-on-hand rolled up with LAST_VALUE over time)."""

    def __init__(self, is_last: bool) -> None:
        self.is_last = is_last
        self.value: Any = None
        self.seen = False

    def add(self, value: Any) -> None:
        if self.is_last:
            self.value = value
            self.seen = True
        elif not self.seen:
            self.value = value
            self.seen = True

    def result(self) -> Any:
        return self.value


class _Median(_Collect):
    def result(self) -> Optional[float]:
        if not self.values:
            return None
        ordered = sorted(self.values)
        mid = len(ordered) // 2
        if len(ordered) % 2 == 1:
            return ordered[mid]
        return (ordered[mid - 1] + ordered[mid]) / 2


class _CountIf(Accumulator):
    def __init__(self) -> None:
        self.count = 0

    def add(self, value: Any) -> None:
        if value is True:
            self.count += 1

    def result(self) -> int:
        return self.count


# -- the table -----------------------------------------------------------------


def _fixed(dtype: DataType) -> Callable[[Sequence[DataType]], DataType]:
    return lambda args: dtype


def _argument_type(args: Sequence[DataType]) -> DataType:
    return args[0].unwrap() if args else UNKNOWN


def _sum_type(args: Sequence[DataType]) -> DataType:
    base = args[0].unwrap() if args else UNKNOWN
    return base if base in (INTEGER, DOUBLE) else UNKNOWN


def _call(name: str, *args: b.BoundExpr) -> b.BoundExpr:
    function = FUNCTIONS[name]
    return b.BoundCall(
        name, list(args), function.result_type([a.dtype for a in args]), function.call
    )


@dataclass(frozen=True)
class AggregateFunction:
    """One aggregate: how it runs, what it returns, and how it rolls up.

    Gray et al.'s *Data Cube* splits aggregates three ways.  A distributive
    one (``SUM``, ``COUNT``, ``MIN``, ``MAX``) is its own one state; an
    algebraic one (``AVG``) is finished from a fixed number of them; a
    holistic one has no state of bounded size.  Only the first two have
    ``states`` here (the ``VARIANCE`` family is algebraic too, but has no
    merge yet): a coarser group's value is the finish over its finer groups'
    states, each re-aggregated by its own ``rollup`` aggregate."""

    accumulator: Callable[[], Accumulator]
    result_type: Callable[[Sequence[DataType]], DataType]
    #: ``add(None)`` changes nothing: a NULL input is no input.
    skips_nulls: bool = True
    #: What the dataflow analysis assumes of the result: ``"never"`` NULL,
    #: or NULL only over an empty group or NULL inputs (``"strict"``).
    nulls: Optional[str] = None
    #: The aggregates of the same input this one is computed from; None: it
    #: does not roll up.
    states: Optional[tuple[str, ...]] = None
    #: The value from its states (bound expressions, in ``states`` order).
    #: An aggregate that is its own one state finishes to that state's value
    #: over any group with rows.
    finish: Callable[..., b.BoundExpr] = lambda state: state
    #: As a state, the aggregate that re-aggregates it.
    rollup: Optional[str] = None
    #: Duplicates change nothing, so a DISTINCT call rolls up too.
    idempotent: bool = False


AGGREGATES: dict[str, AggregateFunction] = {
    # Over no rows COUNT is 0, but the SUM that rolls its state up is NULL.
    "COUNT": AggregateFunction(
        _Count, _fixed(INTEGER), nulls="never", states=("COUNT",), rollup="SUM",
        finish=lambda count: _call("COALESCE", count, b.BoundLiteral(0, INTEGER)),
    ),
    "SUM": AggregateFunction(
        _Sum, _sum_type, nulls="strict", states=("SUM",), rollup="SUM"
    ),
    "AVG": AggregateFunction(
        _Avg, _fixed(DOUBLE), nulls="strict", states=("SUM", "COUNT"),
        finish=lambda total, count: _call("SAFE_DIVIDE", total, count),
    ),
    "MIN": AggregateFunction(
        lambda: _MinMax(True), _argument_type, nulls="strict", states=("MIN",),
        rollup="MIN", idempotent=True,
    ),
    "MAX": AggregateFunction(
        lambda: _MinMax(False), _argument_type, nulls="strict", states=("MAX",),
        rollup="MAX", idempotent=True,
    ),
    "STDDEV": AggregateFunction(lambda: _Welford("STDDEV_SAMP"), _fixed(DOUBLE)),
    "STDDEV_SAMP": AggregateFunction(lambda: _Welford("STDDEV_SAMP"), _fixed(DOUBLE)),
    "STDDEV_POP": AggregateFunction(lambda: _Welford("STDDEV_POP"), _fixed(DOUBLE)),
    "VARIANCE": AggregateFunction(lambda: _Welford("VAR_SAMP"), _fixed(DOUBLE)),
    "VAR_SAMP": AggregateFunction(lambda: _Welford("VAR_SAMP"), _fixed(DOUBLE)),
    "VAR_POP": AggregateFunction(lambda: _Welford("VAR_POP"), _fixed(DOUBLE)),
    "BOOL_AND": AggregateFunction(lambda: _BoolCombine("AND"), _fixed(BOOLEAN)),
    "BOOL_OR": AggregateFunction(lambda: _BoolCombine("OR"), _fixed(BOOLEAN)),
    "ANY_VALUE": AggregateFunction(_AnyValue, _argument_type),
    "ARRAY_AGG": AggregateFunction(_ArrayAgg, _fixed(UNKNOWN)),
    "STRING_AGG": AggregateFunction(_StringAgg, _fixed(VARCHAR)),
    "FIRST_VALUE": AggregateFunction(
        lambda: _FirstLast(False), _argument_type, skips_nulls=False
    ),
    "LAST_VALUE": AggregateFunction(
        lambda: _FirstLast(True), _argument_type, skips_nulls=False
    ),
    "MEDIAN": AggregateFunction(_Median, _fixed(DOUBLE)),
    "COUNTIF": AggregateFunction(_CountIf, _fixed(INTEGER)),
}


def is_aggregate_function(name: str) -> bool:
    return name.upper() in AGGREGATES


def make_accumulator(func: str, star: bool = False) -> Accumulator:
    """Create a fresh accumulator for one group."""
    name = func.upper()
    if name == "COUNT" and star:
        return _CountStar()
    try:
        return AGGREGATES[name].accumulator()
    except KeyError:
        raise ExecutionError(f"unknown aggregate function {name}") from None


def aggregate_result_type(func: str, arg_types: Sequence[DataType]) -> DataType:
    """Static result type of an aggregate call."""
    name = func.upper()
    try:
        return AGGREGATES[name].result_type(arg_types)
    except KeyError:
        raise BindError(f"unknown aggregate function {name}") from None


# -- the algebra -----------------------------------------------------------------


#: What a formula may combine its calls with and still roll up.
_SCALAR = (b.BoundLiteral, b.BoundCall, b.BoundCase, b.BoundCast, b.BoundInList)


class _Holistic(Exception):
    pass


def finished(expr: b.BoundExpr) -> Optional[b.BoundExpr]:
    """``expr`` — an aggregate call, or scalar arithmetic over calls (a
    measure's formula) — with each call replaced by its finish over its
    states; None when some call does not roll up or ``expr`` reads anything
    else (a column outside a call, a measure, a subquery)."""
    try:
        return _finish(expr)
    except _Holistic:
        return None


def _finish(node: b.BoundExpr) -> b.BoundExpr:
    if isinstance(node, b.BoundAggCall):
        # A state is a call of the same input, FILTER and all.
        row, types = AGGREGATES[node.func], [arg.dtype for arg in node.args]
        if row.states is None or node.within_distinct or node.distinct and not row.idempotent:
            raise _Holistic
        return row.finish(*(
            node if name == node.func
            else replace(node, func=name, dtype=AGGREGATES[name].result_type(types))
            for name in row.states
        ))
    if not isinstance(node, _SCALAR):
        raise _Holistic
    return replace(
        node, **{name: b.map_exprs(getattr(node, name), _finish) for name in node.CHILDREN}
    )
