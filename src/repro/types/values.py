"""Runtime value semantics: SQL three-valued logic, null-safe comparison,
ordering with NULL handling, and arithmetic helpers.

Values are plain Python objects: ``bool``, ``int``, ``float``, ``str``,
``datetime.date`` and ``None`` (SQL NULL).  All helpers in this module
implement SQL semantics, not Python semantics; in particular every comparison
involving NULL yields NULL (``None``) except ``IS [NOT] DISTINCT FROM``.
"""

from __future__ import annotations

import datetime
import math
from typing import Any, Iterable, Optional, Sequence

from repro.errors import ExecutionError

__all__ = [
    "NUMERIC_KINDS",
    "is_numeric",
    "sql_and",
    "sql_or",
    "sql_not",
    "sql_eq",
    "sql_ne",
    "sql_lt",
    "sql_le",
    "sql_gt",
    "sql_ge",
    "COMPARISONS",
    "is_distinct",
    "is_not_distinct",
    "sql_add",
    "sql_sub",
    "sql_mul",
    "sql_div",
    "sql_neg",
    "sql_mod",
    "SortKey",
    "sort_key",
    "sort_rows",
    "format_value",
]


def sql_and(left: Any, right: Any) -> Any:
    """Three-valued AND: FALSE dominates, then NULL, then TRUE."""
    if left is False or right is False:
        return False
    if left is None or right is None:
        return None
    return True


def sql_or(left: Any, right: Any) -> Any:
    """Three-valued OR: TRUE dominates, then NULL, then FALSE."""
    if left is True or right is True:
        return True
    if left is None or right is None:
        return None
    return False


def sql_not(value: Any) -> Any:
    if value is None:
        return None
    return not value


def _comparable(left: Any, right: Any) -> tuple[Any, Any]:
    """Coerce two non-null values for comparison, raising on type clashes."""
    if isinstance(left, bool) != isinstance(right, bool):
        raise ExecutionError(
            f"cannot compare {type(left).__name__} with {type(right).__name__}"
        )
    numeric = (int, float)
    if isinstance(left, numeric) and isinstance(right, numeric):
        return left, right
    if isinstance(left, datetime.date) and isinstance(right, datetime.date):
        return left, right
    if type(left) is type(right):
        return left, right
    raise ExecutionError(
        f"cannot compare {type(left).__name__} with {type(right).__name__}"
    )


def sql_eq(left: Any, right: Any) -> Any:
    """SQL ``=``: NULL if either side is NULL."""
    if left is None or right is None:
        return None
    a, b = _comparable(left, right)
    return a == b


def sql_ne(left: Any, right: Any) -> Any:
    """SQL ``<>``: NULL if either side is NULL."""
    if left is None or right is None:
        return None
    a, b = _comparable(left, right)
    return a != b


def sql_lt(left: Any, right: Any) -> Any:
    """SQL ``<``: NULL if either side is NULL."""
    if left is None or right is None:
        return None
    a, b = _comparable(left, right)
    return a < b


def sql_le(left: Any, right: Any) -> Any:
    """SQL ``<=``: NULL if either side is NULL."""
    if left is None or right is None:
        return None
    a, b = _comparable(left, right)
    return a <= b


def sql_gt(left: Any, right: Any) -> Any:
    """SQL ``>``: NULL if either side is NULL."""
    if left is None or right is None:
        return None
    a, b = _comparable(left, right)
    return a > b


def sql_ge(left: Any, right: Any) -> Any:
    """SQL ``>=``: NULL if either side is NULL."""
    if left is None or right is None:
        return None
    a, b = _comparable(left, right)
    return a >= b


#: Comparison operator -> its checked function: what a bound comparison
#: calls, so no value dispatches on the operator's spelling.
COMPARISONS = {
    "=": sql_eq,
    "<>": sql_ne,
    "<": sql_lt,
    "<=": sql_le,
    ">": sql_gt,
    ">=": sql_ge,
}


def is_distinct(left: Any, right: Any) -> bool:
    """``IS DISTINCT FROM``: null-safe inequality (never NULL)."""
    if left is None and right is None:
        return False
    if left is None or right is None:
        return True
    a, b = _comparable(left, right)
    return a != b


def is_not_distinct(left: Any, right: Any) -> bool:
    """``IS NOT DISTINCT FROM``: null-safe equality.

    This is the comparison the paper uses to build evaluation-context
    predicates from group keys (footnote 1).
    """
    return not is_distinct(left, right)


#: The Python types SQL arithmetic and the numeric aggregates accept, as
#: exact types: ``bool`` (BOOLEAN) is an ``int`` subclass and is not numeric.
#: The one definition — :func:`is_numeric` asks it of a value, a column
#: kernel (:mod:`repro.engine.compile`) of a whole column's observed types.
NUMERIC_KINDS = frozenset({int, float})


def is_numeric(value: Any) -> bool:
    """Whether ``value`` is a SQL number (see :data:`NUMERIC_KINDS`)."""
    return type(value) in NUMERIC_KINDS


def _arith_check(value: Any) -> None:
    if type(value) not in NUMERIC_KINDS:
        raise ExecutionError(
            f"numeric operator applied to {type(value).__name__}"
        )


def sql_add(left: Any, right: Any) -> Any:
    if left is None or right is None:
        return None
    if isinstance(left, datetime.date) and isinstance(right, int):
        return left + datetime.timedelta(days=right)
    if isinstance(left, int) and isinstance(right, datetime.date):
        return right + datetime.timedelta(days=left)
    _arith_check(left)
    _arith_check(right)
    return left + right


def sql_sub(left: Any, right: Any) -> Any:
    if left is None or right is None:
        return None
    if isinstance(left, datetime.date) and isinstance(right, datetime.date):
        return (left - right).days
    if isinstance(left, datetime.date) and isinstance(right, int):
        return left - datetime.timedelta(days=right)
    _arith_check(left)
    _arith_check(right)
    return left - right


def sql_mul(left: Any, right: Any) -> Any:
    if left is None or right is None:
        return None
    _arith_check(left)
    _arith_check(right)
    return left * right


def sql_div(left: Any, right: Any) -> Any:
    """SQL ``/`` with GoogleSQL-style true division (INT/INT -> DOUBLE)."""
    if left is None or right is None:
        return None
    _arith_check(left)
    _arith_check(right)
    if right == 0:
        raise ExecutionError("division by zero")
    return left / right


def sql_mod(left: Any, right: Any) -> Any:
    if left is None or right is None:
        return None
    _arith_check(left)
    _arith_check(right)
    if right == 0:
        raise ExecutionError("division by zero")
    if isinstance(left, float) or isinstance(right, float):
        return math.fmod(left, right)
    # Truncating, like fmod and SQLite (the result takes the dividend's
    # sign), but in exact integer arithmetic: operands above 2**53 do not
    # survive a round trip through a double.
    remainder = abs(left) % abs(right)
    return -remainder if left < 0 else remainder


def sql_neg(value: Any) -> Any:
    if value is None:
        return None
    _arith_check(value)
    return -value


class SortKey:
    """Total order over SQL values for ORDER BY and DISTINCT.

    NULLs sort after every non-null value (PostgreSQL's default for ASC);
    values of different Python types are ordered by a type rank so that
    heterogeneous columns (which only arise in UNIONs of mixed types) still
    sort deterministically.
    """

    __slots__ = ("value", "_rank")

    _TYPE_RANK = {bool: 0, int: 1, float: 1, datetime.date: 2, str: 3}

    def __init__(self, value: Any):
        self.value = value
        if value is None:
            self._rank = 99
        else:
            self._rank = self._TYPE_RANK.get(type(value), 4)

    def __lt__(self, other: "SortKey") -> bool:
        if self._rank != other._rank:
            return self._rank < other._rank
        if self.value is None:
            return False
        return self.value < other.value

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SortKey):
            return NotImplemented
        return self._rank == other._rank and self.value == other.value

    def __hash__(self) -> int:
        return hash((self._rank, self.value))


def sort_key(value: Any, descending: bool, nulls_first: Optional[bool] = None):
    """The key ``value`` sorts under for one ``ORDER BY`` item — a query's,
    a window's, an aggregate's: ascending or ``descending``, NULLs where
    ``nulls_first`` puts them, by default last ascending and first
    descending (PostgreSQL)."""
    if value is None:
        return (0 if (descending if nulls_first is None else nulls_first) else 2, None)
    return (1, _Directional(SortKey(value), descending))


def sort_rows(
    rows: Iterable[Sequence[Any]],
    keys: Sequence[tuple[int, bool, Optional[bool]]],
) -> list:
    """Sort ``rows`` by ``keys`` = [(column_index, descending, nulls_first)],
    each read as :func:`sort_key` reads it.

    A stable multi-key sort applied from the least significant key outwards.
    """
    result = list(rows)
    for index, descending, nulls_first in reversed(list(keys)):
        def keyfunc(row, index=index, descending=descending, nulls_first=nulls_first):
            return sort_key(row[index], descending, nulls_first)

        result.sort(key=keyfunc)
    return result


class _Directional:
    """Wraps a SortKey to invert comparisons for DESC ordering."""

    __slots__ = ("key", "descending")

    def __init__(self, key: SortKey, descending: bool):
        self.key = key
        self.descending = descending

    def __lt__(self, other: "_Directional") -> bool:
        if self.descending:
            return other.key < self.key
        return self.key < other.key

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _Directional):
            return NotImplemented
        return self.key == other.key


def format_value(value: Any) -> str:
    """Render a value the way the paper's listings print results."""
    if value is None:
        return ""
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, float):
        if value == int(value) and abs(value) < 1e15:
            return f"{value:.2f}"
        return f"{value:.4g}" if abs(value) >= 1 else f"{value:.2f}"
    if isinstance(value, datetime.date):
        return value.isoformat()
    return str(value)
