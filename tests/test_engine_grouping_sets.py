"""ROLLUP, CUBE, GROUPING SETS and the GROUPING/GROUPING_ID functions."""

from __future__ import annotations

import pytest

from repro import BindError, Database


@pytest.fixture
def sales(db: Database) -> Database:
    db.execute("CREATE TABLE sales (region VARCHAR, product VARCHAR, amount INTEGER)")
    db.execute(
        """INSERT INTO sales VALUES
           ('north', 'a', 10), ('north', 'b', 20),
           ('south', 'a', 5), ('south', 'b', 7)"""
    )
    return db


def test_rollup_two_levels(sales):
    rows = sales.execute(
        """SELECT region, product, SUM(amount) FROM sales
           GROUP BY ROLLUP(region, product)
           ORDER BY region NULLS LAST, product NULLS LAST"""
    ).rows
    assert rows == [
        ("north", "a", 10),
        ("north", "b", 20),
        ("north", None, 30),
        ("south", "a", 5),
        ("south", "b", 7),
        ("south", None, 12),
        (None, None, 42),
    ]


def test_cube_produces_all_combinations(sales):
    rows = sales.execute(
        """SELECT region, product, SUM(amount) FROM sales
           GROUP BY CUBE(region, product)"""
    ).rows
    # 4 detail + 2 region subtotals + 2 product subtotals + 1 grand total.
    assert len(rows) == 9
    assert (None, "a", 15) in rows
    assert (None, None, 42) in rows


def test_grouping_sets_explicit(sales):
    rows = sales.execute(
        """SELECT region, product, SUM(amount) FROM sales
           GROUP BY GROUPING SETS ((region), (product), ())"""
    ).rows
    assert len(rows) == 5
    assert ("north", None, 30) in rows
    assert (None, "b", 27) in rows
    assert (None, None, 42) in rows


def test_grouping_function_distinguishes_null_key_from_rollup(db):
    db.execute("CREATE TABLE g (k VARCHAR, x INTEGER)")
    db.execute("INSERT INTO g VALUES ('a', 1), (NULL, 2)")
    rows = db.execute(
        """SELECT k, GROUPING(k), SUM(x) FROM g
           GROUP BY ROLLUP(k) ORDER BY 2, k NULLS LAST"""
    ).rows
    # The NULL data group has GROUPING 0; the rollup total has GROUPING 1.
    assert rows == [("a", 0, 1), (None, 0, 2), (None, 1, 3)]


def test_grouping_id_bitmap(sales):
    rows = sales.execute(
        """SELECT region, product, GROUPING_ID(region, product) AS gid
           FROM sales GROUP BY ROLLUP(region, product) ORDER BY gid, region, product"""
    ).rows
    gids = sorted({r[2] for r in rows})
    assert gids == [0, 1, 3]


def test_mixed_group_by_and_rollup(sales):
    rows = sales.execute(
        """SELECT region, product, SUM(amount) FROM sales
           GROUP BY region, ROLLUP(product)
           ORDER BY region, product NULLS LAST"""
    ).rows
    assert ("north", None, 30) in rows
    assert ("south", None, 12) in rows
    assert (None, None, 42) not in rows  # region never rolls up


def test_rollup_empty_table_emits_grand_total(db):
    db.execute("CREATE TABLE empty (k VARCHAR, x INTEGER)")
    rows = db.execute(
        "SELECT k, COUNT(*) FROM empty GROUP BY ROLLUP(k)"
    ).rows
    assert rows == [(None, 0)]


def test_grouping_outside_group_by_rejected(sales):
    with pytest.raises(BindError):
        sales.execute("SELECT GROUPING(region) FROM sales")


def test_grouping_of_non_key_rejected(sales):
    with pytest.raises(BindError):
        sales.execute(
            "SELECT GROUPING(amount) FROM sales GROUP BY ROLLUP(region)"
        )


def test_grouping_in_having(sales):
    rows = sales.execute(
        """SELECT region, SUM(amount) FROM sales
           GROUP BY ROLLUP(region)
           HAVING GROUPING(region) = 1"""
    ).rows
    assert rows == [(None, 42)]


def test_grouping_in_case_for_total_labels(sales):
    rows = sales.execute(
        """SELECT CASE WHEN GROUPING(region) = 1 THEN 'TOTAL' ELSE region END AS label,
                  SUM(amount)
           FROM sales GROUP BY ROLLUP(region) ORDER BY 2"""
    ).rows
    assert rows[-1] == ("TOTAL", 42)


def test_rollup_of_expression(sales):
    rows = sales.execute(
        """SELECT UPPER(region), SUM(amount) FROM sales
           GROUP BY ROLLUP(UPPER(region))
           ORDER BY 1 NULLS LAST"""
    ).rows
    assert rows == [("NORTH", 30), ("SOUTH", 12), (None, 42)]


@pytest.mark.parametrize("key", ["1", "g"])
def test_grouping_as_a_grouping_key_is_refused_at_bind_time(sales, key):
    # By ordinal or by alias, the key is GROUPING(...) itself: refused with
    # the GROUP BY's own checks, before a plan is built.
    sql = f"SELECT GROUPING(region) AS g, COUNT(*) FROM sales GROUP BY {key}"
    with pytest.raises(BindError, match="GROUPING is not allowed in GROUP BY"):
        sales.execute(sql)
    with pytest.raises(BindError, match="GROUPING is not allowed in GROUP BY"):
        sales.execute(f"EXPLAIN {sql}")
