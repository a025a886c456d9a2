"""Measure edge cases crossing module boundaries."""

from __future__ import annotations

import pytest

from repro import Database


@pytest.fixture
def edb(paper_db: Database) -> Database:
    paper_db.execute(
        """CREATE VIEW eo AS
           SELECT prodName, custName, YEAR(orderDate) AS y,
                  SUM(revenue) AS MEASURE rev,
                  AVG(revenue) AS MEASURE avgRev
           FROM Orders"""
    )
    return paper_db


def test_measure_inside_aggregate_argument(edb):
    """SUM over per-row measure values: each input row contributes its
    row-grain evaluation."""
    value = edb.execute(
        """SELECT SUM(perRowTotal) FROM
           (SELECT prodName, rev AT (ALL custName, y) AS perRowTotal FROM eo)"""
    ).scalar()
    # Happy rows contribute 17 three times; Acme 5; Whizz 3.
    assert value == 17 * 3 + 5 + 3


def test_measure_in_join_on_clause(edb):
    """Row-grain measures are legal in join conditions."""
    rows = edb.execute(
        """SELECT DISTINCT c.custName
           FROM eo AS o JOIN Customers AS c
             ON o.custName = c.custName AND o.rev AT (ALL custName, y) > 10
           ORDER BY c.custName"""
    ).rows
    # Only Happy rows (product total 17 > 10) join; Happy buyers are
    # Alice and Bob.
    assert rows == [("Alice",), ("Bob",)]


def test_set_value_referencing_group_column(edb):
    """SET values may reference outer group keys (lifted onto slots)."""
    rows = edb.execute(
        """SELECT custName, rev AT (ALL SET custName = custName) AS v
           FROM eo GROUP BY custName ORDER BY custName"""
    ).rows
    assert rows == [("Alice", 13), ("Bob", 9), ("Celia", 3)]


def test_two_ats_on_same_measure_in_one_expression(edb):
    row = edb.execute(
        """SELECT prodName,
                  rev AT (SET y = 2023) + rev AT (SET y = 2024) AS combined
           FROM eo WHERE prodName = 'Happy' GROUP BY prodName"""
    ).rows[0]
    assert row == ("Happy", 6 + 7)


def test_distinct_over_measure_results(edb):
    rows = edb.execute(
        """SELECT DISTINCT rev AT (ALL) AS total FROM eo GROUP BY prodName"""
    ).rows
    assert rows == [(25,)]


def test_measure_formula_with_case(paper_db):
    paper_db.execute(
        """CREATE VIEW flagged AS
           SELECT prodName,
                  CASE WHEN SUM(revenue) > 10 THEN 'hot' ELSE 'cold' END
                    AS MEASURE heat
           FROM Orders"""
    )
    rows = paper_db.execute(
        "SELECT prodName, AGGREGATE(heat) FROM flagged GROUP BY prodName ORDER BY 1"
    ).rows
    assert rows == [("Acme", "cold"), ("Happy", "hot"), ("Whizz", "cold")]


def test_measure_formula_with_filter_clause(paper_db):
    paper_db.execute(
        """CREATE VIEW filtered AS
           SELECT prodName,
                  SUM(revenue) FILTER (WHERE custName = 'Alice') AS MEASURE aliceRev
           FROM Orders"""
    )
    rows = paper_db.execute(
        "SELECT prodName, AGGREGATE(aliceRev) FROM filtered GROUP BY prodName ORDER BY 1"
    ).rows
    assert rows == [("Acme", None), ("Happy", 13), ("Whizz", None)]


def test_measure_formula_with_distinct_aggregate(paper_db):
    paper_db.execute(
        """CREATE VIEW buyers AS
           SELECT prodName, COUNT(DISTINCT custName) AS MEASURE nBuyers
           FROM Orders"""
    )
    rows = paper_db.execute(
        "SELECT prodName, AGGREGATE(nBuyers) FROM buyers GROUP BY prodName ORDER BY 1"
    ).rows
    assert rows == [("Acme", 1), ("Happy", 2), ("Whizz", 1)]


def test_full_join_visible(paper_db):
    paper_db.execute("INSERT INTO Customers VALUES ('Drew', 30)")  # no orders
    paper_db.execute(
        "CREATE VIEW ec AS SELECT *, COUNT(*) AS MEASURE n FROM Customers"
    )
    rows = paper_db.execute(
        """SELECT o.prodName, c.n AT (VISIBLE) AS viz
           FROM Orders AS o FULL JOIN ec AS c USING (custName)
           WHERE c.custAge IS NOT NULL
           GROUP BY o.prodName ORDER BY o.prodName NULLS LAST"""
    ).rows
    by_prod = dict(rows)
    # Drew's padded row forms the NULL-product group, but the join condition
    # is a term of the VISIBLE context (paper Table 3) and NULL = 'Drew' is
    # never TRUE: no customer is visible through the padded join row.
    assert by_prod[None] == 0
    assert by_prod["Happy"] == 2


def test_group_by_expression_over_two_dims(edb):
    """A group key combining two dimensions still translates to the source."""
    rows = edb.execute(
        """SELECT prodName || '/' || custName AS pc, rev
           FROM eo GROUP BY prodName || '/' || custName ORDER BY pc"""
    ).rows
    by_key = dict(rows)
    assert by_key["Happy/Alice"] == 13
    assert by_key["Happy/Bob"] == 4


def test_measure_eval_count_scales_with_groups_not_rows(edb):
    edb.execute("SELECT prodName, AGGREGATE(rev) FROM eo GROUP BY prodName")
    stats = edb.last_stats
    assert stats.measure_evaluations == 3  # one per product group


def test_empty_source_measure(db):
    db.execute("CREATE TABLE empty (k VARCHAR, v INTEGER)")
    db.execute("CREATE VIEW em AS SELECT k, SUM(v) AS MEASURE s FROM empty")
    result = db.execute("SELECT AGGREGATE(s) FROM em")
    assert result.rows == [(None,)]


def test_measure_view_survives_base_table_mutation(paper_db):
    paper_db.execute(
        "CREATE VIEW live AS SELECT prodName, SUM(revenue) AS MEASURE r FROM Orders"
    )
    before = paper_db.execute("SELECT AGGREGATE(r) FROM live").scalar()
    paper_db.execute(
        "INSERT INTO Orders VALUES ('Happy', 'Bob', DATE '2024-12-01', 100, 1)"
    )
    after = paper_db.execute("SELECT AGGREGATE(r) FROM live").scalar()
    assert (before, after) == (25, 125)


def test_update_then_measure(paper_db):
    paper_db.execute(
        "CREATE VIEW live2 AS SELECT prodName, SUM(revenue) AS MEASURE r FROM Orders"
    )
    paper_db.execute("UPDATE Orders SET revenue = revenue * 10 WHERE prodName = 'Acme'")
    rows = paper_db.execute(
        "SELECT prodName, AGGREGATE(r) FROM live2 GROUP BY prodName ORDER BY 1"
    ).rows
    assert ("Acme", 50) in rows


def test_measure_formula_with_scalar_subquery(paper_db):
    """Formulas may contain scalar subqueries (row-independent parts)."""
    paper_db.execute(
        """CREATE VIEW pc AS
           SELECT prodName,
                  SUM(revenue) / (SELECT COUNT(*) FROM Customers)
                    AS MEASURE perCustomer
           FROM Orders"""
    )
    rows = paper_db.execute(
        "SELECT prodName, AGGREGATE(perCustomer) FROM pc GROUP BY prodName ORDER BY 1"
    ).rows
    assert [(r[0], round(r[1], 3)) for r in rows] == [
        ("Acme", round(5 / 3, 3)),
        ("Happy", round(17 / 3, 3)),
        ("Whizz", 1.0),
    ]


def test_measure_formula_with_in_list(paper_db):
    paper_db.execute(
        """CREATE VIEW fl AS
           SELECT prodName,
                  SUM(revenue) IN (5, 17) AS MEASURE isKnownTotal
           FROM Orders"""
    )
    rows = paper_db.execute(
        "SELECT prodName, AGGREGATE(isKnownTotal) FROM fl GROUP BY prodName ORDER BY 1"
    ).rows
    assert rows == [("Acme", True), ("Happy", True), ("Whizz", False)]


#: A measure evaluated inside a subquery that correlates with the enclosing
#: query, one per way a context reads its call site: VISIBLE's conjuncts, an
#: AT WHERE predicate (bound one scope below the call site), a SET value.
CORRELATED_EVALS = {
    "visible": "(SELECT AGGREGATE(rev) FROM eo WHERE eo.custName = o.custName)",
    "where": "(SELECT rev AT (WHERE custName = o.custName) FROM eo LIMIT 1)",
    "where-residual": "(SELECT rev AT (WHERE custName >= o.custName) FROM eo LIMIT 1)",
    "set": "(SELECT rev AT (SET custName = o.custName) FROM eo LIMIT 1)",
}


@pytest.mark.parametrize("subquery", CORRELATED_EVALS.values(), ids=CORRELATED_EVALS)
@pytest.mark.parametrize("cache", [True, False], ids=["cache", "nocache"])
def test_correlated_measure_subquery_under_an_enclosing_group_by(edb, subquery, cache):
    """Lifting the enclosing query over its Aggregate renumbers the nested
    plan's outer references — those held by the measure evaluation's context
    too (it used to die with a bare IndexError) — so the grouped query returns
    the ungrouped rows de-duplicated, memoized or not (the subquery's memo key
    once missed a reference made only from an AT WHERE predicate)."""
    edb.cache_enabled = cache
    ungrouped = edb.execute(f"SELECT o.custName, {subquery} FROM Orders o").rows
    assert ungrouped[1][1] != ungrouped[0][1], "the subquery must correlate"
    grouped = edb.execute(
        f"SELECT o.custName, {subquery} AS v FROM Orders o "
        f"GROUP BY o.custName HAVING COUNT(*) > 0 ORDER BY v, 1"
    ).rows
    assert sorted(grouped, key=repr) == sorted(set(ungrouped), key=repr)
    assert len(grouped) == 3
