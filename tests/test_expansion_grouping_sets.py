"""Static expansion of grouping-set queries (UNION ALL rewrite)."""

from __future__ import annotations

import pytest

from repro import Database, UnsupportedError
from tests.test_expansion import sqlite_paper  # noqa: F401 (a fixture)


@pytest.fixture
def gdb(paper_db: Database) -> Database:
    paper_db.execute(
        """CREATE VIEW eo AS
           SELECT prodName, custName, YEAR(orderDate) AS y,
                  SUM(revenue) AS MEASURE rev
           FROM Orders"""
    )
    return paper_db


def check(db: Database, sql: str) -> str:
    expanded = db.expand(sql)
    assert sorted(db.execute(expanded).rows, key=repr) == sorted(
        db.execute(sql).rows, key=repr
    )
    return expanded


def test_rollup_two_keys(gdb):
    check(
        gdb,
        """SELECT prodName, custName, AGGREGATE(rev) AS r FROM eo
           GROUP BY ROLLUP(prodName, custName)""",
    )


def test_cube(gdb):
    expanded = check(
        gdb,
        """SELECT prodName, y, AGGREGATE(rev) AS r FROM eo
           GROUP BY CUBE(prodName, y)""",
    )
    assert expanded.count("UNION ALL") == 3  # four branches


def test_grouping_sets_explicit(gdb):
    check(
        gdb,
        """SELECT prodName, custName, rev AS r FROM eo
           GROUP BY GROUPING SETS ((prodName), (custName), ())""",
    )


def test_single_grouping_set_degenerates(gdb):
    expanded = check(
        gdb,
        """SELECT prodName, AGGREGATE(rev) AS r FROM eo
           GROUP BY GROUPING SETS ((prodName)) ORDER BY prodName""",
    )
    assert "UNION" not in expanded


def test_mixed_plain_and_rollup(gdb):
    check(
        gdb,
        """SELECT custName, prodName, rev AS r FROM eo
           GROUP BY custName, ROLLUP(prodName)""",
    )


def test_grouping_function_becomes_constant(gdb):
    expanded = check(
        gdb,
        """SELECT prodName, GROUPING(prodName) AS g, AGGREGATE(rev) AS r
           FROM eo GROUP BY ROLLUP(prodName)""",
    )
    assert "GROUPING" not in expanded


def test_grouping_in_having(gdb):
    check(
        gdb,
        """SELECT prodName, rev AS r FROM eo
           GROUP BY ROLLUP(prodName)
           HAVING GROUPING(prodName) = 1""",
    )


def test_order_by_alias_mapped_to_ordinal(gdb):
    expanded = check(
        gdb,
        """SELECT prodName, AGGREGATE(rev) AS r FROM eo
           GROUP BY ROLLUP(prodName) ORDER BY r DESC""",
    )
    assert "ORDER BY 2 DESC" in expanded


def test_order_by_key_expression_mapped(gdb):
    check(
        gdb,
        """SELECT prodName, rev AS r FROM eo
           GROUP BY ROLLUP(prodName)
           ORDER BY prodName NULLS LAST""",
    )


def test_visible_under_rollup(gdb):
    check(
        gdb,
        """SELECT prodName, rev AT (VISIBLE) AS viz, rev AS r FROM eo
           WHERE custName <> 'Bob' GROUP BY ROLLUP(prodName)""",
    )


def test_at_modifiers_keep_their_names_in_a_rolled_up_branch(gdb):
    # In the grand-total branch the call site's v.prodName is NULL, while
    # the SET target and CURRENT y still name the measure's dimension.
    expanded = check(
        gdb,
        """SELECT prodName, rev AT (WHERE prodName = v.prodName) AS a,
                  rev AT (SET y = CURRENT y - 1) AS b
           FROM eo AS v GROUP BY ROLLUP(prodName)""",
    )
    assert "NULL IS NOT DISTINCT FROM" not in expanded
    check(
        gdb,
        """SELECT y, rev AT (SET y = CURRENT y + 0) AS same FROM eo AS v
           GROUP BY ROLLUP(y)""",
    )


def test_a_grand_total_over_no_row_is_still_the_measure(gdb):
    # The WHERE leaves nothing, the grand-total row is still emitted, and a
    # bare measure ignores the WHERE: it is the total over every order.
    expanded = check(
        gdb,
        """SELECT prodName, rev AS r FROM eo WHERE custName = 'Nobody'
           GROUP BY ROLLUP(prodName)""",
    )
    assert gdb.execute(expanded).rows == [(None, 25)]


def test_rollup_without_measures_also_expands(paper_db):
    check(
        paper_db,
        """SELECT prodName, SUM(revenue) AS r FROM Orders
           GROUP BY ROLLUP(prodName)""",
    )


DISTINCT = {
    "rollup": """SELECT DISTINCT prodName, COUNT(*) > 0 AS c FROM Orders
                 GROUP BY ROLLUP(prodName, custName)""",
    "rollup-measure": """SELECT DISTINCT prodName, rev AS r FROM eo
                         GROUP BY ROLLUP(prodName, custName)""",
    "rollup-measure-order-by": """
        SELECT DISTINCT prodName, rev AT (ALL custName) AS r FROM eo
        GROUP BY ROLLUP(prodName, custName) ORDER BY prodName NULLS LAST""",
    "cube": """SELECT DISTINCT custName, COUNT(*) > 0 AS c FROM Orders
               GROUP BY CUBE(custName, prodName)""",
    "cube-measure": """SELECT DISTINCT y, rev AS r FROM eo
                       GROUP BY CUBE(y, prodName)""",
    "cube-order-by": """SELECT DISTINCT custName, COUNT(*) > 0 AS c FROM Orders
                        GROUP BY CUBE(custName, prodName)
                        ORDER BY custName NULLS FIRST""",
    "grouping-sets": """
        SELECT DISTINCT prodName, COUNT(*) > 0 AS c FROM Orders
        GROUP BY GROUPING SETS ((prodName, custName), (prodName), ())""",
    "grouping-sets-measure-order-by": """
        SELECT DISTINCT prodName, rev AS r FROM eo
        GROUP BY GROUPING SETS ((prodName, custName), (prodName))
        ORDER BY 1 NULLS FIRST, 2""",
    "one-grouping-set": """SELECT DISTINCT prodName, rev AS r FROM eo
                           GROUP BY GROUPING SETS ((prodName))""",
}


def _numbers_as_floats(rows):
    """SQLite has no booleans and divides money as REAL."""
    return [
        tuple(
            round(float(v), 9) if isinstance(v, (int, float)) else v for v in row
        )
        for row in rows
    ]


@pytest.mark.parametrize("name", sorted(DISTINCT))
def test_distinct_with_grouping_sets_is_a_union(gdb, sqlite_paper, name):
    # The grouping sets are one bag of rows: DISTINCT over them joins the
    # branches with UNION, not UNION ALL.
    sql = DISTINCT[name]
    ordered = "ORDER BY" in sql

    def same(rows):
        rows = _numbers_as_floats(rows)
        return rows if ordered else sorted(rows, key=repr)

    interpreted = gdb.execute(sql).rows
    expanded = gdb.expand(sql)
    assert "UNION ALL" not in expanded
    assert same(gdb.execute(expanded).rows) == same(interpreted)
    strategy = gdb.execute_with_strategy(sql, strategy="subquery").rows
    assert same(strategy) == same(interpreted)
    assert same(sqlite_paper.execute(expanded).fetchall()) == same(interpreted)


def test_limit_applies_to_whole_union(gdb):
    expanded = gdb.expand(
        """SELECT prodName, AGGREGATE(rev) AS r FROM eo
           GROUP BY ROLLUP(prodName) ORDER BY r DESC LIMIT 2"""
    )
    rows = gdb.execute(expanded).rows
    assert len(rows) == 2
    assert rows[0][1] == 25  # the grand total sorts first


#: Grouping-set queries whose keys are spelled differently in GROUP BY and in
#: the SELECT list: the expansion decides a branch's keys by slot, so each
#: spelling prints the same branches.
SPELLINGS = {
    "qualified-key-bare-item": """
        SELECT prodName, AGGREGATE(rev) AS r FROM eo AS v
        GROUP BY ROLLUP(v.prodName)""",
    "bare-key-qualified-item": """
        SELECT v.prodName, AGGREGATE(rev) AS r FROM eo AS v
        GROUP BY ROLLUP(prodName)""",
    "ordinal-key": """
        SELECT prodName, AGGREGATE(rev) AS r FROM eo AS v GROUP BY ROLLUP(1)""",
    "alias-key": """
        SELECT prodName AS p, AGGREGATE(rev) AS r FROM eo AS v
        GROUP BY ROLLUP(p)""",
    "key-inside-a-function": """
        SELECT UPPER(prodName) AS u, AGGREGATE(rev) AS r FROM eo AS v
        GROUP BY ROLLUP(v.prodName)""",
    "key-inside-a-case": """
        SELECT CASE WHEN v.prodName = 'Happy' THEN 'h' ELSE 'o' END AS h,
               AGGREGATE(rev) AS r
        FROM eo AS v GROUP BY ROLLUP(prodName)""",
    "grouping-of-a-bare-name": """
        SELECT prodName, GROUPING(prodName) AS g, AGGREGATE(rev) AS r
        FROM eo AS v GROUP BY ROLLUP(v.prodName)""",
    "no-measure": """
        SELECT prodName, SUM(revenue) AS s FROM Orders AS o
        GROUP BY ROLLUP(o.prodName)""",
}


@pytest.mark.parametrize("name", sorted(SPELLINGS))
def test_a_key_spelled_two_ways_expands_four_ways(gdb, sqlite_paper, name):
    sql = SPELLINGS[name]
    interpreted = sorted(_numbers_as_floats(gdb.execute(sql).rows), key=repr)
    assert len(interpreted) > 1  # the grand total and some group
    expanded = gdb.expand(sql)
    assert "ROLLUP" not in expanded and "UNION ALL" in expanded
    for rows in (
        gdb.execute(expanded).rows,
        gdb.execute_with_strategy(sql, strategy="subquery").rows,
        sqlite_paper.execute(expanded).fetchall(),
    ):
        assert sorted(_numbers_as_floats(rows), key=repr) == interpreted


def test_one_grouping_set_orders_by_a_key_it_does_not_return(gdb):
    # One grouping set is one plain query: a sort key outside the SELECT
    # list prints there, over the Aggregate row.
    sql = """SELECT prodName, AGGREGATE(rev) AS r FROM eo
             GROUP BY GROUPING SETS ((prodName)) ORDER BY MAX(y) DESC, 1"""
    expanded = gdb.expand(sql)
    assert "UNION" not in expanded
    assert gdb.execute(expanded).rows == gdb.execute(sql).rows


def test_qualify_over_grouping_sets_is_refused_not_dropped(gdb):
    # The interpreter keeps the grand total and Happy only; a branch
    # printed without the QUALIFY would return every product.
    sql = """SELECT prodName, SUM(revenue) AS s FROM Orders
             GROUP BY ROLLUP(prodName) QUALIFY SUM(revenue) > 5"""
    assert sorted(gdb.execute(sql).rows, key=repr) == [("Happy", 17), (None, 25)]
    with pytest.raises(UnsupportedError, match="QUALIFY"):
        gdb.expand(sql)
