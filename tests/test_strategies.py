"""Inline and window rewrite strategies (paper sections 5.1 and 6.4)."""

from __future__ import annotations

import pytest

from repro import Database, UnsupportedError


@pytest.fixture
def sdb(paper_db: Database) -> Database:
    paper_db.execute(
        """CREATE VIEW eo AS
           SELECT orderDate, prodName,
                  SUM(revenue) AS MEASURE rev,
                  (SUM(revenue) - SUM(cost)) / SUM(revenue) AS MEASURE margin
           FROM Orders"""
    )
    return paper_db


def test_inline_simple_group_by(sdb):
    sql = "SELECT prodName, AGGREGATE(margin) AS m FROM eo GROUP BY prodName ORDER BY prodName"
    inlined = sdb.expand(sql, strategy="inline")
    # The inline rewrite reads the source directly: no subqueries at all.
    assert "(SELECT" not in inlined
    assert "FROM Orders" in inlined
    assert sdb.execute(inlined).rows == sdb.execute(sql).rows


def test_inline_with_where(sdb):
    sql = """SELECT prodName, AGGREGATE(rev) AS r FROM eo
             WHERE prodName <> 'Acme' GROUP BY prodName ORDER BY prodName"""
    inlined = sdb.expand(sql, strategy="inline")
    assert sdb.execute(inlined).rows == sdb.execute(sql).rows


def test_inline_multiple_measures(sdb):
    sql = """SELECT prodName, AGGREGATE(rev) AS r, AGGREGATE(margin) AS m
             FROM eo GROUP BY prodName ORDER BY prodName"""
    assert sdb.execute(sdb.expand(sql, strategy="inline")).rows == sdb.execute(sql).rows


def test_inline_rejects_at_modifiers(sdb):
    with pytest.raises(UnsupportedError):
        sdb.expand(
            "SELECT prodName, rev AT (ALL) FROM eo GROUP BY prodName",
            strategy="inline",
        )


def test_inline_rejects_bare_measures(sdb):
    # Bare uses ignore the WHERE clause; inlining would not.
    with pytest.raises(UnsupportedError):
        sdb.expand(
            "SELECT prodName, rev FROM eo WHERE prodName <> 'Acme' GROUP BY prodName",
            strategy="inline",
        )


def test_inline_rejects_joins(sdb):
    with pytest.raises(UnsupportedError):
        sdb.expand(
            """SELECT o.prodName, AGGREGATE(o.rev) FROM eo AS o
               JOIN Customers AS c ON 1 = 1 GROUP BY o.prodName""",
            strategy="inline",
        )


def test_inline_rejects_non_aggregate(sdb):
    with pytest.raises(UnsupportedError):
        sdb.expand("SELECT orderDate FROM eo", strategy="inline")


def test_window_rewrite_listing12(sdb):
    sql = """SELECT o.prodName, o.orderDate FROM
             (SELECT prodName, orderDate, revenue, AVG(revenue) AS MEASURE avgRevenue
              FROM Orders) AS o
             WHERE o.revenue > o.avgRevenue AT (WHERE prodName = o.prodName)
             ORDER BY 1, 2"""
    windowed = sdb.expand(sql, strategy="window")
    assert "OVER (PARTITION BY" in windowed
    assert sdb.execute(windowed).rows == sdb.execute(sql).rows


def test_window_rewrite_bare_measure_partitions_by_all_dims(paper_db):
    paper_db.execute(
        """CREATE VIEW rm AS
           SELECT prodName, SUM(revenue) AS MEASURE r FROM Orders"""
    )
    sql = "SELECT prodName, r FROM rm ORDER BY prodName"
    windowed = paper_db.expand(sql, strategy="window")
    assert paper_db.execute(windowed).rows == paper_db.execute(sql).rows


def test_window_rejects_aggregate_queries(sdb):
    with pytest.raises(UnsupportedError):
        sdb.expand(
            "SELECT prodName, AGGREGATE(rev) FROM eo GROUP BY prodName",
            strategy="window",
        )


def test_window_rejects_non_equality_at_where(sdb):
    with pytest.raises(UnsupportedError):
        sdb.expand(
            """SELECT orderDate FROM eo
               WHERE rev AT (WHERE prodName <> eo.prodName) > 1""",
            strategy="window",
        )


def test_window_rejects_other_modifiers(sdb):
    with pytest.raises(UnsupportedError):
        sdb.expand("SELECT orderDate, rev AT (ALL) FROM eo", strategy="window")


def test_unknown_strategy_rejected(sdb):
    with pytest.raises(UnsupportedError):
        sdb.expand("SELECT 1", strategy="quantum")


def test_auto_prefers_inline(sdb):
    sql = "SELECT prodName, AGGREGATE(margin) AS m FROM eo GROUP BY prodName ORDER BY prodName"
    auto = sdb.expand(sql, strategy="auto")
    assert auto == sdb.expand(sql, strategy="inline")
    assert sdb.execute(auto).rows == sdb.execute(sql).rows


def test_auto_falls_back_to_window(sdb):
    # A row-grain AT query: inline refuses (no GROUP BY aggregate shape),
    # window handles it.
    sql = """SELECT o.prodName, o.orderDate FROM
             (SELECT prodName, orderDate, revenue, AVG(revenue) AS MEASURE avgRevenue
              FROM Orders) AS o
             WHERE o.revenue > o.avgRevenue AT (WHERE prodName = o.prodName)
             ORDER BY 1, 2"""
    auto = sdb.expand(sql, strategy="auto")
    assert auto == sdb.expand(sql, strategy="window")
    assert sdb.execute(auto).rows == sdb.execute(sql).rows


def test_auto_falls_back_to_subquery(sdb):
    # AT (ALL) in an aggregate query: both specialized strategies refuse,
    # the general correlated-subquery expansion handles it.
    sql = """SELECT prodName, rev AT (ALL) AS total FROM eo
             GROUP BY prodName ORDER BY prodName"""
    with pytest.raises(UnsupportedError):
        sdb.expand(sql, strategy="inline")
    with pytest.raises(UnsupportedError):
        sdb.expand(sql, strategy="window")
    auto = sdb.expand(sql, strategy="auto")
    assert auto == sdb.expand(sql, strategy="subquery")
    assert sdb.execute(auto).rows == sdb.execute(sql).rows


def test_multi_agg_formula_becomes_multiple_window_calls(sdb):
    """(SUM(revenue)-SUM(cost))/SUM(revenue) needs each aggregate windowed."""
    sql = """SELECT prodName, margin AT (WHERE prodName = eo.prodName) AS m
             FROM eo ORDER BY prodName, orderDate"""
    windowed = sdb.expand(sql, strategy="window")
    assert windowed.count("OVER") >= 2
    assert sdb.execute(windowed).rows == sdb.execute(sql).rows


def test_inline_refuses_qualify_instead_of_dropping_it(sdb):
    sql = """SELECT prodName, AGGREGATE(rev) AS r FROM eo
             GROUP BY prodName QUALIFY AGGREGATE(rev) > 5"""
    assert sdb.execute(sql).rows == [("Happy", 17)]
    with pytest.raises(UnsupportedError, match="QUALIFY"):
        sdb.expand(sql, strategy="inline")
    assert sdb.execute(sdb.expand(sql, strategy="auto")).rows == [("Happy", 17)]
