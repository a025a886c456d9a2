"""Aggregate function implementations.

Aggregates are accumulator classes driven by the executor: ``add(value)`` per
input row (after FILTER and DISTINCT handling), ``result()`` at group end.
``COUNT`` of an empty group is 0; every other aggregate returns NULL, per the
SQL standard.  These same accumulators evaluate measure formulas over
context-filtered source rows (:mod:`repro.core.evaluator`).
"""

from __future__ import annotations

import math
from typing import Any, Callable, Optional, Sequence

from repro.errors import BindError, ExecutionError
from repro.types import (
    DOUBLE,
    INTEGER,
    UNKNOWN,
    VARCHAR,
    DataType,
    SortKey,
    common_type,
    is_numeric,
)

__all__ = [
    "Accumulator",
    "make_accumulator",
    "aggregate_result_type",
    "is_aggregate_function",
    "AGGREGATE_NAMES",
]


class Accumulator:
    """Base accumulator; subclasses override :meth:`add` and :meth:`result`."""

    #: ``add(None)`` changes nothing: a NULL input is no input.
    skips_nulls = True

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
    skips_nulls = False

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

    skips_nulls = False

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


_FACTORIES: dict[str, Callable[[], Accumulator]] = {
    "COUNT": _Count,
    "SUM": _Sum,
    "AVG": _Avg,
    "MIN": lambda: _MinMax(True),
    "MAX": lambda: _MinMax(False),
    "STDDEV": lambda: _Welford("STDDEV_SAMP"),
    "STDDEV_SAMP": lambda: _Welford("STDDEV_SAMP"),
    "STDDEV_POP": lambda: _Welford("STDDEV_POP"),
    "VARIANCE": lambda: _Welford("VAR_SAMP"),
    "VAR_SAMP": lambda: _Welford("VAR_SAMP"),
    "VAR_POP": lambda: _Welford("VAR_POP"),
    "BOOL_AND": lambda: _BoolCombine("AND"),
    "BOOL_OR": lambda: _BoolCombine("OR"),
    "ANY_VALUE": _AnyValue,
    "ARRAY_AGG": _ArrayAgg,
    "STRING_AGG": _StringAgg,
    "FIRST_VALUE": lambda: _FirstLast(False),
    "LAST_VALUE": lambda: _FirstLast(True),
    "MEDIAN": _Median,
    "COUNTIF": _CountIf,
}

AGGREGATE_NAMES = frozenset(_FACTORIES)


def is_aggregate_function(name: str) -> bool:
    return name.upper() in _FACTORIES


def make_accumulator(func: str, star: bool = False) -> Accumulator:
    """Create a fresh accumulator for one group."""
    name = func.upper()
    if name == "COUNT" and star:
        return _CountStar()
    try:
        return _FACTORIES[name]()
    except KeyError:
        raise ExecutionError(f"unknown aggregate function {name}") from None


def aggregate_result_type(func: str, arg_types: Sequence[DataType]) -> DataType:
    """Static result type of an aggregate call."""
    name = func.upper()
    if name in ("COUNT", "COUNTIF"):
        return INTEGER
    if name in (
        "AVG",
        "STDDEV",
        "STDDEV_SAMP",
        "STDDEV_POP",
        "VARIANCE",
        "VAR_SAMP",
        "VAR_POP",
        "MEDIAN",
    ):
        return DOUBLE
    if name == "STRING_AGG":
        return VARCHAR
    if name == "SUM":
        if not arg_types:
            return UNKNOWN
        base = arg_types[0].unwrap()
        return base if base in (INTEGER, DOUBLE) else UNKNOWN
    if name in ("MIN", "MAX", "ANY_VALUE", "FIRST_VALUE", "LAST_VALUE"):
        return arg_types[0].unwrap() if arg_types else UNKNOWN
    if name in ("BOOL_AND", "BOOL_OR"):
        from repro.types import BOOLEAN

        return BOOLEAN
    if name == "ARRAY_AGG":
        return UNKNOWN
    raise BindError(f"unknown aggregate function {name}")
