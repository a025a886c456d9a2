"""Scalar function registry.

Each function is registered with a runtime callable and a result-type rule.
All functions are NULL-propagating unless registered with ``null_safe=True``
(e.g. COALESCE needs to see NULL arguments).
"""

from __future__ import annotations

import datetime
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from repro.errors import BindError, ExecutionError
from repro.types import (
    BOOLEAN,
    DATE,
    DOUBLE,
    INTEGER,
    UNKNOWN,
    VARCHAR,
    DataType,
    common_type,
)

__all__ = ["ScalarFunction", "lookup_function", "FUNCTIONS"]


@dataclass(frozen=True)
class ScalarFunction:
    name: str
    fn: Callable[..., Any]
    result_type: Callable[[Sequence[DataType]], DataType]
    min_args: int
    max_args: Optional[int]
    null_safe: bool = False
    #: What a bound call runs: ``fn`` itself when null-safe, else ``fn``
    #: behind a NULL check, built once here so that every call of one SQL
    #: function holds the same object (the column kernels' table of bare
    #: twins keys on it).
    call: Callable[..., Any] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        call = self.fn if self.null_safe else _null_propagating(self.fn)
        object.__setattr__(self, "call", call)

    def check_arity(self, count: int) -> None:
        if count < self.min_args or (self.max_args is not None and count > self.max_args):
            if self.min_args == self.max_args:
                expected = str(self.min_args)
            elif self.max_args is None:
                expected = f"at least {self.min_args}"
            else:
                expected = f"{self.min_args}..{self.max_args}"
            raise BindError(
                f"{self.name} expects {expected} argument(s), got {count}"
            )


def _null_propagating(fn):
    def wrapper(*args):
        for arg in args:
            if arg is None:
                return None
        return fn(*args)

    return wrapper


FUNCTIONS: dict[str, ScalarFunction] = {}


def _register(
    name: str,
    fn: Callable[..., Any],
    result_type,
    min_args: int,
    max_args: Optional[int] = None,
    null_safe: bool = False,
) -> None:
    if max_args is None:
        max_args = min_args
    if not callable(result_type):
        fixed = result_type
        result_type = lambda args: fixed  # noqa: E731 - tiny closure
    FUNCTIONS[name] = ScalarFunction(name, fn, result_type, min_args, max_args, null_safe)


def lookup_function(name: str) -> Optional[ScalarFunction]:
    return FUNCTIONS.get(name.upper())


# -- date/time -------------------------------------------------------------


def _need_date(value: Any, func: str) -> datetime.date:
    if not isinstance(value, datetime.date):
        raise ExecutionError(f"{func} expects a DATE, got {type(value).__name__}")
    return value


_register("YEAR", lambda d: _need_date(d, "YEAR").year, INTEGER, 1)
_register("MONTH", lambda d: _need_date(d, "MONTH").month, INTEGER, 1)
_register("DAY", lambda d: _need_date(d, "DAY").day, INTEGER, 1)
_register("QUARTER", lambda d: (_need_date(d, "QUARTER").month - 1) // 3 + 1, INTEGER, 1)
# ISO: Monday=1 .. Sunday=7
_register("DAYOFWEEK", lambda d: _need_date(d, "DAYOFWEEK").isoweekday(), INTEGER, 1)
_register("DAYOFYEAR", lambda d: _need_date(d, "DAYOFYEAR").timetuple().tm_yday, INTEGER, 1)
_register(
    "DATE_TRUNC_MONTH",
    lambda d: _need_date(d, "DATE_TRUNC_MONTH").replace(day=1),
    DATE,
    1,
)
_register(
    "DATE_TRUNC_YEAR",
    lambda d: _need_date(d, "DATE_TRUNC_YEAR").replace(month=1, day=1),
    DATE,
    1,
)
_register(
    "DATE_FROM_PARTS",
    lambda y, m, d: datetime.date(int(y), int(m), int(d)),
    DATE,
    3,
)
_register(
    "DATE_ADD",
    lambda d, days: _need_date(d, "DATE_ADD") + datetime.timedelta(days=int(days)),
    DATE,
    2,
)
_register(
    "DATE_DIFF",
    lambda a, b: (_need_date(a, "DATE_DIFF") - _need_date(b, "DATE_DIFF")).days,
    INTEGER,
    2,
)


# -- numeric -----------------------------------------------------------------


def _numeric_arg_type(args: Sequence[DataType]) -> DataType:
    result = INTEGER
    for arg in args:
        base = arg.unwrap()
        if base is DOUBLE:
            result = DOUBLE
        elif base not in (INTEGER, UNKNOWN):
            raise BindError(f"numeric function applied to {base}")
    return result


_register("ABS", abs, _numeric_arg_type, 1)
_register("FLOOR", lambda x: int(math.floor(x)), INTEGER, 1)
_register("CEIL", lambda x: int(math.ceil(x)), INTEGER, 1)
_register("CEILING", lambda x: int(math.ceil(x)), INTEGER, 1)
_register("SQRT", math.sqrt, DOUBLE, 1)
_register("EXP", math.exp, DOUBLE, 1)
_register("LN", math.log, DOUBLE, 1)
_register("LOG10", math.log10, DOUBLE, 1)
_register("POWER", lambda x, y: float(x) ** float(y), DOUBLE, 2)
_register("POW", lambda x, y: float(x) ** float(y), DOUBLE, 2)
_register("SIGN", lambda x: (x > 0) - (x < 0), INTEGER, 1)
_register(
    "MOD",
    lambda x, y: x % y if y != 0 else _raise_div_zero(),
    _numeric_arg_type,
    2,
)
_register(
    "ROUND",
    lambda x, digits=0: round(float(x), int(digits)),
    DOUBLE,
    1,
    2,
)
_register(
    "TRUNC",
    lambda x: int(x) if x >= 0 else -int(-x),
    INTEGER,
    1,
)
_register(
    "SAFE_DIVIDE",
    lambda x, y: None if y == 0 else x / y,
    DOUBLE,
    2,
)


def _raise_div_zero():
    raise ExecutionError("division by zero")


# -- strings -----------------------------------------------------------------


def _need_str(value: Any, func: str) -> str:
    if not isinstance(value, str):
        raise ExecutionError(f"{func} expects a string, got {type(value).__name__}")
    return value


_register("UPPER", lambda s: _need_str(s, "UPPER").upper(), VARCHAR, 1)
_register("LOWER", lambda s: _need_str(s, "LOWER").lower(), VARCHAR, 1)
_register("LENGTH", lambda s: len(_need_str(s, "LENGTH")), INTEGER, 1)
_register("CHAR_LENGTH", lambda s: len(_need_str(s, "CHAR_LENGTH")), INTEGER, 1)
_register("TRIM", lambda s: _need_str(s, "TRIM").strip(), VARCHAR, 1)
_register("LTRIM", lambda s: _need_str(s, "LTRIM").lstrip(), VARCHAR, 1)
_register("RTRIM", lambda s: _need_str(s, "RTRIM").rstrip(), VARCHAR, 1)
_register("REVERSE", lambda s: _need_str(s, "REVERSE")[::-1], VARCHAR, 1)
_register(
    "SUBSTRING",
    lambda s, start, length=None: _substring(s, start, length),
    VARCHAR,
    2,
    3,
)
_register(
    "SUBSTR",
    lambda s, start, length=None: _substring(s, start, length),
    VARCHAR,
    2,
    3,
)
_register(
    "REPLACE",
    lambda s, old, new: _need_str(s, "REPLACE").replace(old, new),
    VARCHAR,
    3,
)
_register(
    "CONCAT",
    lambda *parts: "".join(str(p) for p in parts),
    VARCHAR,
    1,
    99,
)
_register(
    "STRPOS",
    lambda s, sub: _need_str(s, "STRPOS").find(sub) + 1,
    INTEGER,
    2,
)
_register(
    "LEFT",
    lambda s, n: _need_str(s, "LEFT")[: max(int(n), 0)],
    VARCHAR,
    2,
)
_register(
    "RIGHT",
    lambda s, n: _need_str(s, "RIGHT")[-int(n):] if int(n) > 0 else "",
    VARCHAR,
    2,
)
_register(
    "STARTS_WITH",
    lambda s, prefix: _need_str(s, "STARTS_WITH").startswith(prefix),
    BOOLEAN,
    2,
)
_register(
    "ENDS_WITH",
    lambda s, suffix: _need_str(s, "ENDS_WITH").endswith(suffix),
    BOOLEAN,
    2,
)


def _substring(s: Any, start: Any, length: Any) -> str:
    text = _need_str(s, "SUBSTRING")
    begin = max(int(start) - 1, 0)
    if length is None:
        return text[begin:]
    if length < 0:
        raise ExecutionError("SUBSTRING length must be non-negative")
    return text[begin : begin + int(length)]


# -- conditional (null-safe) ---------------------------------------------------


def _coalesce(*args: Any) -> Any:
    for arg in args:
        if arg is not None:
            return arg
    return None


def _common_of_args(args: Sequence[DataType]) -> DataType:
    result: DataType = UNKNOWN
    for arg in args:
        result = common_type(result, arg)
    return result


_register("COALESCE", _coalesce, _common_of_args, 1, 99, null_safe=True)
_register(
    "IFNULL",
    lambda x, default: default if x is None else x,
    _common_of_args,
    2,
    null_safe=True,
)
_register(
    "NULLIF",
    lambda x, y: None if x is not None and y is not None and x == y else x,
    lambda args: args[0],
    2,
    null_safe=True,
)
_register(
    "IF",
    lambda cond, then, otherwise: then if cond is True else otherwise,
    lambda args: common_type(args[1], args[2]),
    3,
    null_safe=True,
)
_register(
    "GREATEST",
    lambda *args: None if any(a is None for a in args) else max(args),
    _common_of_args,
    1,
    99,
    null_safe=True,
)
_register(
    "LEAST",
    lambda *args: None if any(a is None for a in args) else min(args),
    _common_of_args,
    1,
    99,
    null_safe=True,
)
