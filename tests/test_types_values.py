"""Value semantics: three-valued logic, null-safe comparison, ordering,
arithmetic — including hypothesis property tests of the algebraic laws."""

from __future__ import annotations

import datetime

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ExecutionError
from repro.types import (
    BOOLEAN,
    DATE,
    DOUBLE,
    INTEGER,
    UNKNOWN,
    VARCHAR,
    MeasureType,
    SortKey,
    common_type,
    format_value,
    is_distinct,
    is_not_distinct,
    parse_type_name,
    sort_rows,
    sql_add,
    sql_and,
    sql_div,
    sql_eq,
    sql_ge,
    sql_gt,
    sql_le,
    sql_lt,
    sql_mod,
    sql_ne,
    sql_neg,
    sql_not,
    sql_or,
    sql_sub,
)

TRUTH = [True, False, None]


# -- three-valued logic -------------------------------------------------------


@pytest.mark.parametrize("a", TRUTH)
@pytest.mark.parametrize("b", TRUTH)
def test_and_truth_table(a, b):
    if a is False or b is False:
        expected = False
    elif a is None or b is None:
        expected = None
    else:
        expected = True
    assert sql_and(a, b) is expected


@pytest.mark.parametrize("a", TRUTH)
@pytest.mark.parametrize("b", TRUTH)
def test_or_truth_table(a, b):
    if a is True or b is True:
        expected = True
    elif a is None or b is None:
        expected = None
    else:
        expected = False
    assert sql_or(a, b) is expected


def test_not_truth_table():
    assert sql_not(True) is False
    assert sql_not(False) is True
    assert sql_not(None) is None


@given(st.sampled_from(TRUTH), st.sampled_from(TRUTH))
def test_de_morgan(a, b):
    assert sql_not(sql_and(a, b)) == sql_or(sql_not(a), sql_not(b))


@given(st.sampled_from(TRUTH), st.sampled_from(TRUTH), st.sampled_from(TRUTH))
def test_and_associative(a, b, c):
    assert sql_and(sql_and(a, b), c) == sql_and(a, sql_and(b, c))


# -- comparison ----------------------------------------------------------------


def test_eq_propagates_null():
    assert sql_eq(None, 1) is None
    assert sql_eq(1, None) is None
    assert sql_eq(None, None) is None


def test_comparisons():
    assert sql_lt(1, 2) is True
    assert sql_ge(2, 2) is True
    assert sql_ne("a", "b") is True
    assert sql_lt(None, 2) is None
    assert sql_le(2, 1) is False and sql_gt(2, 1) is True


def test_int_float_comparable():
    assert sql_eq(1, 1.0) is True


def test_bool_not_comparable_with_int():
    with pytest.raises(ExecutionError):
        sql_eq(True, 1)


def test_string_not_comparable_with_int():
    with pytest.raises(ExecutionError):
        sql_lt("a", 1)


def test_dates_comparable():
    assert sql_lt(datetime.date(2023, 1, 1), datetime.date(2024, 1, 1))


def test_is_distinct_null_handling():
    assert is_distinct(None, None) is False
    assert is_distinct(None, 1) is True
    assert is_distinct(1, 1) is False
    assert is_not_distinct(None, None) is True
    assert is_not_distinct(2, 2) is True


@given(st.one_of(st.none(), st.integers(), st.text(max_size=5)))
def test_is_not_distinct_reflexive(value):
    assert is_not_distinct(value, value) is True


# -- arithmetic ----------------------------------------------------------------


def test_add_nulls():
    assert sql_add(None, 1) is None
    assert sql_add(1, None) is None


def test_date_plus_days():
    assert sql_add(datetime.date(2024, 1, 1), 30) == datetime.date(2024, 1, 31)
    assert sql_add(30, datetime.date(2024, 1, 1)) == datetime.date(2024, 1, 31)


def test_date_difference_in_days():
    assert sql_sub(datetime.date(2024, 2, 1), datetime.date(2024, 1, 1)) == 31


def test_division_is_true_division():
    assert sql_div(1, 2) == 0.5


def test_division_by_zero_raises():
    with pytest.raises(ExecutionError):
        sql_div(1, 0)


def test_negate():
    assert sql_neg(5) == -5
    assert sql_neg(None) is None


def test_integer_modulo_truncates_towards_zero():
    # The result takes the dividend's sign (SQLite, C, fmod), unlike Python's %.
    assert [sql_mod(a, b) for a, b in ((7, 3), (-7, 3), (7, -3), (-7, -3))] == [
        1, -1, 1, -1,
    ]
    assert sql_mod(6, 3) == 0 and sql_mod(-6, 3) == 0
    assert sql_mod(None, 3) is None and sql_mod(7, None) is None


@pytest.mark.parametrize(
    "left, right, expected",
    [
        # Operands above 2**53 do not survive a round trip through a double.
        (1000000000000000001, 7, 2),
        (9007199254740993, 2, 1),
        (-1000000000000000001, 7, -2),
        (1000000000000000001, -7, 2),
        (-1000000000000000001, -7, -2),
        (7, 9007199254740993, 7),
        (2**80 + 5, 2**70, 5),
    ],
)
def test_integer_modulo_is_exact(left, right, expected):
    result = sql_mod(left, right)
    assert result == expected and type(result) is int


def test_float_modulo_keeps_fmod():
    assert sql_mod(7.5, 2) == 1.5
    assert sql_mod(-7.5, 2) == -1.5
    assert type(sql_mod(7, 2.0)) is float


@pytest.mark.parametrize("left, right", [(5, 0), (5.0, 0), (5, 0.0), (2**70, 0)])
def test_modulo_by_zero_raises(left, right):
    with pytest.raises(ExecutionError, match="division by zero"):
        sql_mod(left, right)


def test_numeric_is_int_or_float_and_nothing_else():
    """The one definition `_arith_check`, the SUM / AVG / STDDEV accumulators
    and the column kernels' kind sets share."""
    from repro.types import NUMERIC_KINDS, is_numeric

    assert NUMERIC_KINDS == {int, float}
    assert is_numeric(1) and is_numeric(-2.5) and is_numeric(2**80)
    for value in (True, False, None, "1", datetime.date(2024, 1, 1), [1]):
        assert not is_numeric(value)


def test_arith_rejects_strings():
    with pytest.raises(ExecutionError):
        sql_add("a", 1)


# -- sorting -----------------------------------------------------------------


def test_sort_rows_multi_key():
    rows = [(1, "b"), (2, "a"), (1, "a")]
    ordered = sort_rows(rows, [(0, False, False), (1, False, False)])
    assert ordered == [(1, "a"), (1, "b"), (2, "a")]


def test_sort_rows_descending():
    rows = [(1,), (3,), (2,)]
    assert sort_rows(rows, [(0, True, False)]) == [(3,), (2,), (1,)]


def test_sort_rows_nulls_last():
    rows = [(None,), (1,), (None,), (0,)]
    ordered = sort_rows(rows, [(0, False, False)])
    assert ordered == [(0,), (1,), (None,), (None,)]


def test_sort_rows_nulls_first():
    rows = [(1,), (None,)]
    assert sort_rows(rows, [(0, False, True)]) == [(None,), (1,)]


def test_sort_stability():
    rows = [(1, "x"), (1, "y"), (1, "z")]
    assert sort_rows(rows, [(0, False, False)]) == rows


@given(st.lists(st.one_of(st.none(), st.integers(-5, 5)), max_size=20))
def test_sort_is_total_and_stable_partition(values):
    rows = [(v,) for v in values]
    ordered = [r[0] for r in sort_rows(rows, [(0, False, False)])]
    non_null = [v for v in ordered if v is not None]
    assert non_null == sorted(non_null)
    # NULLs all sort to the end.
    first_null = next((i for i, v in enumerate(ordered) if v is None), len(ordered))
    assert all(v is None for v in ordered[first_null:])


@given(
    st.one_of(st.integers(), st.text(max_size=3), st.booleans()),
    st.one_of(st.integers(), st.text(max_size=3), st.booleans()),
)
def test_sortkey_totality(a, b):
    ka, kb = SortKey(a), SortKey(b)
    assert (ka < kb) or (kb < ka) or (ka == kb)


# -- types -------------------------------------------------------------------


def test_parse_type_aliases():
    assert parse_type_name("int") is INTEGER
    assert parse_type_name("STRING") is VARCHAR
    assert parse_type_name("float64") is DOUBLE
    assert parse_type_name("bool") is BOOLEAN


def test_parse_unknown_type_raises():
    from repro.errors import TypeCheckError

    with pytest.raises(TypeCheckError):
        parse_type_name("BLOB")


def test_measure_type_wrapping():
    mt = MeasureType(DOUBLE)
    assert mt.is_measure
    assert mt.unwrap() is DOUBLE
    assert str(mt) == "DOUBLE MEASURE"
    assert not DOUBLE.is_measure


def test_common_type_numeric_promotion():
    assert common_type(INTEGER, DOUBLE) is DOUBLE
    assert common_type(UNKNOWN, DATE) is DATE
    assert common_type(VARCHAR, UNKNOWN) is VARCHAR


def test_common_type_conflict_raises():
    from repro.errors import TypeCheckError

    with pytest.raises(TypeCheckError):
        common_type(VARCHAR, INTEGER)


# -- formatting -----------------------------------------------------------------


def test_format_value_paper_style():
    assert format_value(0.6) == "0.60"
    assert format_value(None) == ""
    assert format_value(3) == "3"
    assert format_value(True) == "true"
    assert format_value(datetime.date(2023, 11, 28)) == "2023-11-28"
