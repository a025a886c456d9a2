"""Static expansion of grouping-set queries (UNION ALL rewrite)."""

from __future__ import annotations

import pytest

from repro import Database, UnsupportedError


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


def test_distinct_with_grouping_sets_unsupported(gdb):
    with pytest.raises(UnsupportedError):
        gdb.expand(
            """SELECT DISTINCT prodName, rev FROM eo GROUP BY ROLLUP(prodName)"""
        )


def test_limit_applies_to_whole_union(gdb):
    expanded = gdb.expand(
        """SELECT prodName, AGGREGATE(rev) AS r FROM eo
           GROUP BY ROLLUP(prodName) ORDER BY r DESC LIMIT 2"""
    )
    rows = gdb.execute(expanded).rows
    assert len(rows) == 2
    assert rows[0][1] == 25  # the grand total sorts first
