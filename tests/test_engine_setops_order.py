"""Set operations, ORDER BY, LIMIT/OFFSET, DISTINCT."""

from __future__ import annotations

import pytest

from repro import BindError, Database


@pytest.fixture
def s(db: Database) -> Database:
    db.execute("CREATE TABLE p (x INTEGER)")
    db.execute("CREATE TABLE q (x INTEGER)")
    db.execute("INSERT INTO p VALUES (1), (2), (2), (3)")
    db.execute("INSERT INTO q VALUES (2), (3), (3), (4)")
    return db


def test_union_distinct(s):
    rows = s.execute("SELECT x FROM p UNION SELECT x FROM q ORDER BY 1").rows
    assert rows == [(1,), (2,), (3,), (4,)]


def test_union_all(s):
    rows = s.execute("SELECT x FROM p UNION ALL SELECT x FROM q").rows
    assert len(rows) == 8


def test_intersect_distinct(s):
    rows = s.execute("SELECT x FROM p INTERSECT SELECT x FROM q ORDER BY 1").rows
    assert rows == [(2,), (3,)]


def test_intersect_all_bag_semantics(s):
    rows = s.execute("SELECT x FROM p INTERSECT ALL SELECT x FROM q").rows
    assert sorted(rows) == [(2,), (3,)]


def test_except_distinct(s):
    rows = s.execute("SELECT x FROM p EXCEPT SELECT x FROM q").rows
    assert rows == [(1,)]


def test_except_all_bag_semantics(s):
    rows = s.execute("SELECT x FROM p EXCEPT ALL SELECT x FROM q ORDER BY 1").rows
    assert rows == [(1,), (2,)]


def test_setop_arity_mismatch_raises(s):
    with pytest.raises(BindError):
        s.execute("SELECT x, x FROM p UNION SELECT x FROM q")


def test_setop_order_by_name_and_limit(s):
    rows = s.execute(
        "SELECT x FROM p UNION SELECT x FROM q ORDER BY x DESC LIMIT 2"
    ).rows
    assert rows == [(4,), (3,)]


def test_union_of_values(db):
    rows = db.execute("VALUES (1), (5) UNION ALL VALUES (2)").rows
    assert sorted(rows) == [(1,), (2,), (5,)]


def test_order_by_ordinal(s):
    rows = s.execute("SELECT x, -x FROM p ORDER BY 2").rows
    assert [r[0] for r in rows] == [3, 2, 2, 1]


def test_order_by_alias(s):
    rows = s.execute("SELECT -x AS neg FROM p ORDER BY neg").rows
    assert [r[0] for r in rows] == [-3, -2, -2, -1]


def test_order_by_expression_not_in_select(s):
    rows = s.execute("SELECT x FROM p ORDER BY -x").rows
    assert [r[0] for r in rows] == [3, 2, 2, 1]
    # The hidden sort column is stripped from the output.
    assert s.execute("SELECT x FROM p ORDER BY -x").column_names == ["x"]


def test_order_by_nulls_default_last_asc(db):
    db.execute("CREATE TABLE n (x INTEGER)")
    db.execute("INSERT INTO n VALUES (2), (NULL), (1)")
    assert db.execute("SELECT x FROM n ORDER BY x").rows == [(1,), (2,), (None,)]


def test_order_by_nulls_default_first_desc(db):
    db.execute("CREATE TABLE n (x INTEGER)")
    db.execute("INSERT INTO n VALUES (2), (NULL), (1)")
    assert db.execute("SELECT x FROM n ORDER BY x DESC").rows == [(None,), (2,), (1,)]


def test_order_by_explicit_nulls(db):
    db.execute("CREATE TABLE n (x INTEGER)")
    db.execute("INSERT INTO n VALUES (2), (NULL), (1)")
    assert db.execute("SELECT x FROM n ORDER BY x NULLS FIRST").rows == [
        (None,), (1,), (2,),
    ]


def test_limit_and_offset(s):
    rows = s.execute("SELECT x FROM p ORDER BY x LIMIT 2 OFFSET 1").rows
    assert rows == [(2,), (2,)]


def test_limit_zero(s):
    assert s.execute("SELECT x FROM p LIMIT 0").rows == []


def test_offset_beyond_end(s):
    assert s.execute("SELECT x FROM p OFFSET 100").rows == []


def test_distinct(s):
    rows = s.execute("SELECT DISTINCT x FROM p ORDER BY x").rows
    assert rows == [(1,), (2,), (3,)]


def test_distinct_multi_column(db):
    db.execute("CREATE TABLE d (a INTEGER, b INTEGER)")
    db.execute("INSERT INTO d VALUES (1, 1), (1, 1), (1, 2)")
    assert len(db.execute("SELECT DISTINCT a, b FROM d").rows) == 2


def test_distinct_with_hidden_sort_column_rejected(s):
    with pytest.raises(BindError):
        s.execute("SELECT DISTINCT x FROM p ORDER BY -x")


def test_order_by_multiple_keys_mixed_direction(db):
    db.execute("CREATE TABLE m (a INTEGER, b INTEGER)")
    db.execute("INSERT INTO m VALUES (1, 1), (1, 2), (2, 1)")
    rows = db.execute("SELECT a, b FROM m ORDER BY a DESC, b ASC").rows
    assert rows == [(2, 1), (1, 1), (1, 2)]


@pytest.mark.parametrize(
    "order, expected",
    [
        ("k", [10, 30, 20]),  # NULLs last ascending
        ("k DESC", [20, 30, 10]),  # ... and first descending
        ("k NULLS FIRST", [20, 10, 30]),
        ("k DESC NULLS LAST", [30, 10, 20]),
    ],
)
def test_the_three_order_bys_agree_on_nulls(db, order, expected):
    """A query's ORDER BY, a window's and an aggregate's are one sort key
    (``repro.types.sort_key``): the aggregate used to put NULLs last under
    DESC where the other two put them first."""
    db.execute("CREATE TABLE o (k INTEGER, x INTEGER)")
    db.execute("INSERT INTO o VALUES (1, 10), (NULL, 20), (3, 30)")
    assert db.execute(f"SELECT x FROM o ORDER BY {order}").column("x") == expected
    assert db.execute(f"SELECT ARRAY_AGG(x ORDER BY {order}) FROM o").scalar() == expected
    numbered = db.execute(
        f"SELECT x, ROW_NUMBER() OVER (ORDER BY {order}) AS n FROM o ORDER BY n"
    ).column("x")
    assert numbered == expected
