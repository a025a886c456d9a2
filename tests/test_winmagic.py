"""The WinMagic rewrite (paper section 5.1, Zuzarte et al. 2003): the window
strategy prints a correlated subquery over the query's own table as a window
aggregate, read off the bind."""

from __future__ import annotations

import sqlite3

import pytest

from repro import Database, UnsupportedError
from repro.core.expansion import EXPANSION_STRATEGIES
from repro.errors import SqlError


def rewrite(db: Database, sql: str) -> str:
    rewritten = db.expand(sql, strategy="window")
    assert "(SELECT" not in rewritten.replace("FROM (SELECT", "")
    return rewritten


Q1 = """SELECT o.prodName, o.orderDate FROM Orders AS o
        WHERE o.revenue > (SELECT AVG(revenue) FROM Orders AS o1
                           WHERE o1.prodName = o.prodName)
        ORDER BY 1, 2"""


def test_listing12_q1_becomes_q3(paper_db):
    rewritten = rewrite(paper_db, Q1)
    assert "OVER (PARTITION BY i1.prodName)" in rewritten
    assert paper_db.execute(rewritten).rows == paper_db.execute(Q1).rows


def test_rewrite_in_select_list(paper_db):
    sql = """SELECT o.prodName,
                    o.revenue - (SELECT AVG(revenue) FROM Orders AS i
                                 WHERE i.prodName = o.prodName) AS delta
             FROM Orders AS o ORDER BY 1, 2"""
    rewritten = rewrite(paper_db, sql)
    assert "OVER" in rewritten
    assert paper_db.execute(rewritten).rows == paper_db.execute(sql).rows


def test_correlation_order_insensitive(paper_db):
    sql = """SELECT o.prodName FROM Orders AS o
             WHERE o.revenue > (SELECT AVG(revenue) FROM Orders AS i
                                WHERE o.prodName = i.prodName)
             ORDER BY 1"""
    rewritten = rewrite(paper_db, sql)
    assert paper_db.execute(rewritten).rows == paper_db.execute(sql).rows


def test_multi_key_correlation(paper_db):
    sql = """SELECT o.prodName FROM Orders AS o
             WHERE o.revenue >= (SELECT MAX(revenue) FROM Orders AS i
                                 WHERE i.prodName = o.prodName
                                   AND i.custName = o.custName)
             ORDER BY 1"""
    rewritten = rewrite(paper_db, sql)
    assert "PARTITION BY i1.prodName, i1.custName" in rewritten
    assert paper_db.execute(rewritten).rows == paper_db.execute(sql).rows


def test_unqualified_inner_column_correlates(paper_db):
    """The binder resolves ``prodName`` to the inner row; no alias is read."""
    sql = """SELECT o.prodName FROM Orders AS o
             WHERE o.revenue > (SELECT AVG(revenue) FROM Orders AS i
                                WHERE prodName = o.prodName)
             ORDER BY 1"""
    rewritten = rewrite(paper_db, sql)
    assert "OVER (PARTITION BY" in rewritten
    assert paper_db.execute(rewritten).rows == paper_db.execute(sql).rows


def test_duplicate_subqueries_share_one_window(paper_db):
    sql = """SELECT o.prodName FROM Orders AS o
             WHERE o.revenue > (SELECT AVG(revenue) FROM Orders AS i
                                WHERE i.prodName = o.prodName)
                OR o.cost > (SELECT AVG(revenue) FROM Orders AS i
                             WHERE i.prodName = o.prodName)
             ORDER BY 1"""
    rewritten = rewrite(paper_db, sql)
    assert rewritten.count("OVER") == 1
    assert paper_db.execute(rewritten).rows == paper_db.execute(sql).rows


def test_different_aggregates_get_separate_windows(paper_db):
    sql = """SELECT o.prodName FROM Orders AS o
             WHERE o.revenue > (SELECT AVG(revenue) FROM Orders AS i
                                WHERE i.prodName = o.prodName)
               AND o.revenue < (SELECT MAX(revenue) FROM Orders AS i
                                WHERE i.prodName = o.prodName) + 1
             ORDER BY 1"""
    rewritten = rewrite(paper_db, sql)
    assert rewritten.count("OVER") == 2
    assert paper_db.execute(rewritten).rows == paper_db.execute(sql).rows


def test_different_table_not_rewritten(paper_db):
    with pytest.raises(UnsupportedError):
        rewrite(
            paper_db,
            """SELECT o.prodName FROM Orders AS o
               WHERE o.revenue > (SELECT AVG(custAge) FROM Customers AS c
                                  WHERE c.custName = o.custName)""",
        )


def test_local_subquery_predicate_not_rewritten(paper_db):
    with pytest.raises(UnsupportedError):
        rewrite(
            paper_db,
            """SELECT o.prodName FROM Orders AS o
               WHERE o.revenue > (SELECT AVG(revenue) FROM Orders AS i
                                  WHERE i.prodName = o.prodName
                                    AND i.cost > 1)""",
        )


def test_grouped_outer_query_not_rewritten(paper_db):
    with pytest.raises(UnsupportedError):
        rewrite(
            paper_db,
            """SELECT prodName, COUNT(*) FROM Orders GROUP BY prodName""",
        )


def test_uncorrelated_same_table_subquery_becomes_global_window(paper_db):
    """No correlation keys -> an empty partition (the whole input), which is
    still a valid and profitable rewrite."""
    sql = """SELECT prodName FROM Orders
             WHERE revenue > (SELECT AVG(revenue) FROM Orders) ORDER BY 1"""
    rewritten = rewrite(paper_db, sql)
    assert "OVER ()" in rewritten
    assert paper_db.execute(rewritten).rows == paper_db.execute(sql).rows


def test_winmagic_on_synthetic_workload():
    from repro.workloads import WorkloadConfig, workload_database

    db = workload_database(WorkloadConfig(orders=500, products=10, customers=20))
    rewritten = rewrite(db, Q1)
    assert sorted(db.execute(rewritten).rows) == sorted(db.execute(Q1).rows)


# -- what reading the bind instead of the printed SQL fixes ---------------------

#: Two rows with a NULL product: ``i.prodName = o.prodName`` matches nothing
#: for them, where ``PARTITION BY prodName`` would put both in one partition.
NULL_KEY_ROWS = [
    ("a", "x", 1, 1), ("a", "y", 5, 2), (None, "x", 3, 1), (None, "y", 9, 2),
    ("b", "x", 4, 4),
]
NULL_KEY_FORMS = {
    "correlated-subquery": """
        SELECT o.prodName, o.revenue FROM Orders AS o
        WHERE o.revenue > (SELECT AVG(revenue) FROM Orders AS i
                           WHERE i.prodName = o.prodName)
        ORDER BY 1, 2""",
    "measure": """
        SELECT o.prodName, o.revenue FROM
          (SELECT prodName, revenue, AVG(revenue) AS MEASURE avgRevenue
           FROM Orders) AS o
        WHERE o.revenue > o.avgRevenue AT (WHERE prodName = o.prodName)
        ORDER BY 1, 2""",
}
SHADOWED_ALIAS = """
    SELECT o.prodName, o.revenue FROM Orders AS o
    WHERE o.revenue > (SELECT AVG(revenue) FROM Orders AS o
                       WHERE o.prodName = o.prodName)"""
OUTER_ARGUMENT = """
    SELECT o.prodName, o.revenue FROM Orders AS o
    WHERE o.revenue > (SELECT MAX(o.cost + revenue) FROM Orders AS i
                       WHERE i.prodName = o.prodName)"""


@pytest.fixture
def null_keys():
    db = Database()
    db.create_table_from_rows(
        "Orders",
        [("prodName", "VARCHAR"), ("custName", "VARCHAR"),
         ("revenue", "INTEGER"), ("cost", "INTEGER")],
        NULL_KEY_ROWS,
    )
    lite = sqlite3.connect(":memory:")
    lite.execute("CREATE TABLE Orders (prodName TEXT, custName TEXT, revenue INTEGER, cost INTEGER)")
    lite.executemany("INSERT INTO Orders VALUES (?, ?, ?, ?)", NULL_KEY_ROWS)
    yield db, lite
    lite.close()


@pytest.mark.parametrize("strategy", ["window", "auto"])
@pytest.mark.parametrize("form", sorted(NULL_KEY_FORMS))
def test_a_null_key_matches_no_row(null_keys, form, strategy):
    db, lite = null_keys
    sql = NULL_KEY_FORMS[form]
    assert db.execute(sql).rows == [("a", 5)]
    rewritten = rewrite(db, sql)
    assert db.execute(rewritten).rows == [("a", 5)]
    assert db.expand(sql, strategy=strategy) == rewritten
    assert lite.execute(rewritten).fetchall() == [("a", 5)]


def _refused_or_the_interpreters(db, sql, strategy):
    """``strategy`` refuses ``sql`` while expanding it, or its expansion
    returns the interpreter's rows."""
    try:
        rewritten = db.expand(sql, strategy=strategy)
    except UnsupportedError:
        return False
    assert sorted(db.execute(rewritten).rows, key=repr) == sorted(
        db.execute(sql).rows, key=repr
    )
    return True


@pytest.mark.parametrize("strategy", EXPANSION_STRATEGIES)
def test_a_shadowed_alias_is_no_correlation(null_keys, strategy):
    """The inner ``o`` hides the outer one: the subquery is uncorrelated."""
    db, _ = null_keys
    assert sorted(db.execute(SHADOWED_ALIAS).rows, key=repr) == [
        ("a", 5), ("b", 4), (None, 9),
    ]
    _refused_or_the_interpreters(db, SHADOWED_ALIAS, strategy)


@pytest.mark.parametrize("strategy", EXPANSION_STRATEGIES)
def test_an_aggregate_of_the_outer_row_is_refused(null_keys, strategy):
    db, _ = null_keys
    try:
        rewritten = _refused_or_the_interpreters(db, OUTER_ARGUMENT, strategy)
    except SqlError as exc:  # expanded, then failed to run
        pytest.fail(f"{strategy}: {type(exc).__name__}: {exc}")
    assert rewritten or strategy in ("inline", "window")
    with pytest.raises(UnsupportedError, match="reads the outer row"):
        db.expand(OUTER_ARGUMENT, strategy="window")
