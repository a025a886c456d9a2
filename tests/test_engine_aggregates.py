"""Aggregate execution: GROUP BY, HAVING, DISTINCT/FILTER, empty groups."""

from __future__ import annotations

import pytest

from repro import BindError, Database


@pytest.fixture
def sales(db: Database) -> Database:
    db.execute("CREATE TABLE sales (region VARCHAR, product VARCHAR, amount INTEGER)")
    db.execute(
        """INSERT INTO sales VALUES
           ('north', 'a', 10), ('north', 'b', 20), ('north', 'a', 30),
           ('south', 'a', 5), ('south', 'b', NULL)"""
    )
    return db


def test_group_by_sum(sales):
    rows = sales.execute(
        "SELECT region, SUM(amount) FROM sales GROUP BY region ORDER BY region"
    ).rows
    assert rows == [("north", 60), ("south", 5)]


def test_group_by_multiple_keys(sales):
    rows = sales.execute(
        """SELECT region, product, COUNT(*) FROM sales
           GROUP BY region, product ORDER BY region, product"""
    ).rows
    assert rows == [
        ("north", "a", 2),
        ("north", "b", 1),
        ("south", "a", 1),
        ("south", "b", 1),
    ]


def test_count_star_vs_count_column(sales):
    row = sales.execute("SELECT COUNT(*), COUNT(amount) FROM sales").rows[0]
    assert row == (5, 4)  # NULL amount not counted by COUNT(amount)


def test_sum_ignores_nulls(sales):
    assert sales.execute("SELECT SUM(amount) FROM sales").scalar() == 65


def test_avg(sales):
    assert sales.execute("SELECT AVG(amount) FROM sales").scalar() == pytest.approx(65 / 4)


def test_min_max(sales):
    assert sales.execute("SELECT MIN(amount), MAX(amount) FROM sales").rows[0] == (5, 30)


def test_min_max_strings(sales):
    assert sales.execute("SELECT MIN(region), MAX(product) FROM sales").rows[0] == (
        "north",
        "b",
    )


def test_aggregates_over_empty_input(db):
    db.execute("CREATE TABLE empty (x INTEGER)")
    row = db.execute("SELECT COUNT(*), SUM(x), AVG(x), MIN(x) FROM empty").rows[0]
    assert row == (0, None, None, None)


def test_group_by_over_empty_input_returns_no_rows(db):
    db.execute("CREATE TABLE empty2 (x INTEGER)")
    assert db.execute("SELECT x, COUNT(*) FROM empty2 GROUP BY x").rows == []


def test_null_group_key_forms_group(sales):
    sales.execute("INSERT INTO sales VALUES (NULL, 'a', 1), (NULL, 'b', 2)")
    rows = sales.execute(
        "SELECT region, SUM(amount) FROM sales GROUP BY region ORDER BY region NULLS LAST"
    ).rows
    assert rows[-1] == (None, 3)


def test_distinct_aggregate(sales):
    sales.execute("INSERT INTO sales VALUES ('north', 'a', 10)")
    row = sales.execute(
        "SELECT COUNT(amount), COUNT(DISTINCT amount) FROM sales WHERE region = 'north'"
    ).rows[0]
    assert row == (4, 3)


def test_sum_distinct(sales):
    sales.execute("INSERT INTO sales VALUES ('north', 'a', 10)")
    assert (
        sales.execute(
            "SELECT SUM(DISTINCT amount) FROM sales WHERE region = 'north'"
        ).scalar()
        == 60
    )


def test_filter_clause(sales):
    row = sales.execute(
        """SELECT SUM(amount) FILTER (WHERE product = 'a'),
                  COUNT(*) FILTER (WHERE amount > 10)
           FROM sales"""
    ).rows[0]
    assert row == (45, 2)


def test_having(sales):
    rows = sales.execute(
        "SELECT region FROM sales GROUP BY region HAVING SUM(amount) > 10"
    ).rows
    assert rows == [("north",)]


def test_having_references_unselected_aggregate(sales):
    rows = sales.execute(
        "SELECT region, COUNT(*) FROM sales GROUP BY region HAVING MAX(amount) >= 30"
    ).rows
    assert rows == [("north", 3)]


def test_group_by_expression(sales):
    rows = sales.execute(
        """SELECT UPPER(region), COUNT(*) FROM sales
           GROUP BY UPPER(region) ORDER BY 1"""
    ).rows
    assert rows == [("NORTH", 3), ("SOUTH", 2)]


def test_select_must_match_group_expression(sales):
    with pytest.raises(BindError):
        sales.execute("SELECT product FROM sales GROUP BY region")


def test_expression_over_group_key_allowed(sales):
    rows = sales.execute(
        "SELECT region || '!' FROM sales GROUP BY region ORDER BY 1"
    ).rows
    assert rows == [("north!",), ("south!",)]


def test_group_by_ordinal(sales):
    rows = sales.execute(
        "SELECT region, COUNT(*) FROM sales GROUP BY 1 ORDER BY 1"
    ).rows
    assert [r[0] for r in rows] == ["north", "south"]


def test_group_by_alias(sales):
    rows = sales.execute(
        "SELECT UPPER(region) AS reg, COUNT(*) FROM sales GROUP BY reg ORDER BY reg"
    ).rows
    assert [r[0] for r in rows] == ["NORTH", "SOUTH"]


def test_aggregate_in_where_rejected(sales):
    with pytest.raises(BindError):
        sales.execute("SELECT region FROM sales WHERE SUM(amount) > 10 GROUP BY region")


def test_nested_aggregate_rejected(sales):
    with pytest.raises(BindError):
        sales.execute("SELECT SUM(COUNT(*)) FROM sales")


def test_aggregate_in_group_by_rejected(sales):
    with pytest.raises(BindError):
        sales.execute("SELECT 1 FROM sales GROUP BY SUM(amount)")


def test_stddev_variance(db):
    db.execute("CREATE TABLE nums (x DOUBLE)")
    db.execute("INSERT INTO nums VALUES (2.0), (4.0), (4.0), (4.0), (5.0), (5.0), (7.0), (9.0)")
    pop = db.execute("SELECT STDDEV_POP(x) FROM nums").scalar()
    assert pop == pytest.approx(2.0)
    samp = db.execute("SELECT VAR_SAMP(x) FROM nums").scalar()
    assert samp == pytest.approx(32 / 7)


def test_stddev_single_value_is_null(db):
    db.execute("CREATE TABLE one (x DOUBLE)")
    db.execute("INSERT INTO one VALUES (1.0)")
    assert db.execute("SELECT STDDEV(x) FROM one").scalar() is None
    assert db.execute("SELECT STDDEV_POP(x) FROM one").scalar() == 0.0


def test_string_agg(sales):
    value = sales.execute(
        "SELECT STRING_AGG(product) FROM sales WHERE region = 'north'"
    ).scalar()
    assert value == "a,b,a"


def test_bool_and_or(db):
    db.execute("CREATE TABLE flags (f BOOLEAN)")
    db.execute("INSERT INTO flags VALUES (TRUE), (FALSE), (NULL)")
    assert db.execute("SELECT BOOL_AND(f) FROM flags").scalar() is False
    assert db.execute("SELECT BOOL_OR(f) FROM flags").scalar() is True


def test_any_value(sales):
    value = sales.execute(
        "SELECT ANY_VALUE(product) FROM sales WHERE region = 'south'"
    ).scalar()
    assert value in ("a", "b")


def test_median(db):
    db.execute("CREATE TABLE m (x INTEGER)")
    db.execute("INSERT INTO m VALUES (1), (3), (2), (10)")
    assert db.execute("SELECT MEDIAN(x) FROM m").scalar() == 2.5


def test_countif(db):
    db.execute("CREATE TABLE c (x INTEGER)")
    db.execute("INSERT INTO c VALUES (1), (5), (NULL), (9)")
    assert db.execute("SELECT COUNTIF(x > 2) FROM c").scalar() == 2


def test_global_aggregate_with_where_matching_nothing(sales):
    row = sales.execute("SELECT COUNT(*), SUM(amount) FROM sales WHERE FALSE").rows[0]
    assert row == (0, None)


def test_aggregate_query_from_subquery(sales):
    value = sales.execute(
        """SELECT SUM(total) FROM
           (SELECT region, SUM(amount) AS total FROM sales GROUP BY region)"""
    ).scalar()
    assert value == 65


@pytest.mark.parametrize(
    "options",
    [{}, {"cache": False}, {"optimizer": False}],
    ids=["default", "cache-off", "optimizer-off"],
)
def test_aggregates_differing_only_in_order_by_stay_apart(options):
    """An aggregate's ORDER BY — key, direction, null placement — is part of
    what it computes: two calls that differ in nothing else are two
    aggregates, not one computed once and read twice."""
    db = Database(**options)
    db.execute(
        "CREATE TABLE letters (g VARCHAR, name VARCHAR, a INTEGER, b INTEGER, n INTEGER)"
    )
    # b runs against a; n is a with one NULL.
    db.execute(
        """INSERT INTO letters VALUES
           ('p', 'x', 1, 5, NULL), ('p', 'y', 3, 3, 3), ('p', 'z', 5, 1, 5),
           ('q', 'u', 2, 4, 2), ('q', 'v', 4, 2, 4)"""
    )
    assert db.execute(
        """SELECT STRING_AGG(name, ',' ORDER BY a), STRING_AGG(name, ',' ORDER BY b),
                  STRING_AGG(name, ',' ORDER BY a DESC)
           FROM letters"""
    ).rows == [("x,u,y,v,z", "z,v,y,u,x", "z,v,y,u,x")]
    assert db.execute(
        """SELECT ARRAY_AGG(name ORDER BY a), ARRAY_AGG(name ORDER BY b),
                  ARRAY_AGG(name ORDER BY a DESC),
                  ARRAY_AGG(name ORDER BY n NULLS FIRST),
                  ARRAY_AGG(name ORDER BY n NULLS LAST)
           FROM letters"""
    ).rows == [
        (
            ["x", "u", "y", "v", "z"],
            ["z", "v", "y", "u", "x"],
            ["z", "v", "y", "u", "x"],
            ["x", "u", "y", "v", "z"],
            ["u", "y", "v", "z", "x"],
        )
    ]
    assert db.execute(
        """SELECT g, STRING_AGG(name, ',' ORDER BY a), STRING_AGG(name, ',' ORDER BY b),
                  ARRAY_AGG(name ORDER BY a), ARRAY_AGG(name ORDER BY a DESC)
           FROM letters GROUP BY g ORDER BY g"""
    ).rows == [
        ("p", "x,y,z", "z,y,x", ["x", "y", "z"], ["z", "y", "x"]),
        ("q", "u,v", "v,u", ["u", "v"], ["v", "u"]),
    ]
