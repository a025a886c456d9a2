"""E01-E12: exact reproduction of every table and listing in the paper.

Each test corresponds to a row of the per-experiment index in DESIGN.md.
Where the paper prints results (Listings 4 and 8), the expected values are
the paper's own numbers.
"""

from __future__ import annotations

import datetime

import pytest

from repro import Database, UnsupportedError
from repro.workloads.paper_data import CUSTOMERS, ORDERS


def test_e01_paper_tables_load(paper_db):
    assert paper_db.execute("SELECT COUNT(*) FROM Customers").scalar() == 3
    assert paper_db.execute("SELECT COUNT(*) FROM Orders").scalar() == 5
    assert len(CUSTOMERS) == 3 and len(ORDERS) == 5


def test_e02_listing1_summarize_orders(paper_db):
    result = paper_db.execute(
        """
        SELECT prodName, COUNT(*) AS c,
               (SUM(revenue) - SUM(cost)) / SUM(revenue) AS profitMargin
        FROM Orders GROUP BY prodName ORDER BY prodName
        """
    )
    assert [(r[0], r[1], round(r[2], 2)) for r in result.rows] == [
        ("Acme", 1, 0.60),
        ("Happy", 3, 0.47),
        ("Whizz", 1, 0.67),
    ]


def test_e03_listing2_view_average_of_averages_anomaly(paper_db):
    """The motivating bug: AVG over the SummarizedOrders view does NOT weigh
    each order equally, so it disagrees with the true margin (section 3.1)."""
    paper_db.execute(
        """
        CREATE VIEW SummarizedOrders AS
        SELECT prodName, orderDate,
               (SUM(revenue) - SUM(cost)) / SUM(revenue) AS profitMargin
        FROM Orders GROUP BY prodName, orderDate
        """
    )
    avg_of_avgs = dict(
        paper_db.execute(
            "SELECT prodName, AVG(profitMargin) FROM SummarizedOrders GROUP BY prodName"
        ).rows
    )
    true_margin = dict(
        paper_db.execute(
            """SELECT prodName, (SUM(revenue) - SUM(cost)) / SUM(revenue)
               FROM Orders GROUP BY prodName"""
        ).rows
    )
    # Happy has orders on three dates with different margins: the view's
    # average-of-averages differs from the correct revenue-weighted margin.
    assert avg_of_avgs["Happy"] != pytest.approx(true_margin["Happy"])
    # Single-date products agree, which is what makes the bug insidious.
    assert avg_of_avgs["Acme"] == pytest.approx(true_margin["Acme"])


def test_e04_listing4_aggregate_measure(orders_db):
    """Paper Listing 4's printed output, exactly."""
    result = orders_db.execute(
        """
        SELECT prodName, AGGREGATE(profitMargin), COUNT(*)
        FROM EnhancedOrders GROUP BY prodName ORDER BY prodName
        """
    )
    assert [(r[0], round(r[1], 2), r[2]) for r in result.rows] == [
        ("Acme", 0.60, 1),
        ("Happy", 0.47, 3),
        ("Whizz", 0.67, 1),
    ]
    assert result.column_names[1] == "profitMargin"


def test_e05_listing5_expansion_matches_interpreter(orders_db):
    query = """SELECT prodName, AGGREGATE(profitMargin) AS pm, COUNT(*) AS c
               FROM EnhancedOrders GROUP BY prodName ORDER BY prodName"""
    expanded = orders_db.expand(query)
    # The expansion is a correlated scalar subquery over Orders, as in
    # Listing 5.
    assert "SELECT" in expanded and "Orders" in expanded
    assert "IS NOT DISTINCT FROM" in expanded
    assert "MEASURE" not in expanded.upper() or "AS MEASURE" not in expanded
    assert orders_db.execute(expanded).rows == orders_db.execute(query).rows


def test_e06_listing6_proportion_of_total(paper_db):
    result = paper_db.execute(
        """
        SELECT prodName, sumRevenue,
               sumRevenue / sumRevenue AT (ALL prodName) AS proportionOfTotalRevenue
        FROM (SELECT *, SUM(revenue) AS MEASURE sumRevenue FROM Orders) AS o
        GROUP BY prodName ORDER BY prodName
        """
    )
    assert [(r[0], r[1], round(r[2], 2)) for r in result.rows] == [
        ("Acme", 5, 0.20),
        ("Happy", 17, 0.68),
        ("Whizz", 3, 0.12),
    ]


def test_e07_listing7_set_current_previous_year(paper_db):
    result = paper_db.execute(
        """
        SELECT prodName, orderYear, profitMargin,
               profitMargin AT (SET orderYear = CURRENT orderYear - 1)
                 AS profitMarginLastYear
        FROM (SELECT *,
                (SUM(revenue) - SUM(cost)) / SUM(revenue) AS MEASURE profitMargin,
                YEAR(orderDate) AS orderYear
              FROM Orders)
        WHERE orderYear = 2024
        GROUP BY prodName, orderYear
        """
    )
    assert len(result.rows) == 1
    name, year, margin, last_year = result.rows[0]
    assert (name, year) == ("Happy", 2024)
    assert margin == pytest.approx(3 / 7)  # (7-4)/7
    assert last_year == pytest.approx(2 / 6)  # (6-4)/6, reaching removed rows


LISTING8 = """
SELECT o.prodName, COUNT(*) AS c,
       AGGREGATE(o.sumRevenue) AS rAgg,
       o.sumRevenue AT (VISIBLE) AS rViz,
       o.sumRevenue AS r
FROM (SELECT *, SUM(revenue) AS MEASURE sumRevenue FROM Orders) AS o
WHERE o.custName <> 'Bob'
GROUP BY ROLLUP(o.prodName)
ORDER BY o.prodName NULLS LAST
"""


def test_e08_listing8_visible_rollup(paper_db):
    """Paper Listing 8's printed output, exactly."""
    result = paper_db.execute(LISTING8)
    assert result.rows == [
        ("Happy", 2, 13, 13, 17),
        ("Whizz", 1, 3, 3, 3),
        (None, 3, 16, 16, 25),
    ]


def test_e08_aggregate_equals_visible(paper_db):
    """AGGREGATE(m) is EVAL(m AT (VISIBLE)) (section 3.3)."""
    result = paper_db.execute(LISTING8)
    for row in result.rows:
        assert row[2] == row[3]


LISTING9 = """
WITH EnhancedCustomers AS (
  SELECT *, AVG(custAge) AS MEASURE avgAge FROM Customers)
SELECT o.prodName,
       COUNT(*) AS orderCount,
       AVG(c.custAge) AS weightedAvgAge,
       c.avgAge AS avgAge,
       c.avgAge AT (VISIBLE) AS visibleAvgAge
FROM Orders AS o
JOIN EnhancedCustomers AS c USING (custName)
WHERE c.custAge >= 18
GROUP BY o.prodName
ORDER BY o.prodName
"""


def test_e09_listing9_join_semantics(paper_db):
    result = paper_db.execute(LISTING9)
    assert [tuple(r[:2]) for r in result.rows] == [("Acme", 1), ("Happy", 3)]
    acme, happy = result.rows
    # Weighted (traditional SQL) average: per joined row.
    assert acme[2] == pytest.approx(41.0)
    assert happy[2] == pytest.approx((23 + 23 + 41) / 3)
    # Unweighted measure default: all customers, ignoring WHERE and join.
    assert acme[3] == pytest.approx((23 + 41 + 17) / 3)
    assert happy[3] == pytest.approx((23 + 41 + 17) / 3)
    # VISIBLE: customers visible in this group (>= 18, joined to the group).
    assert acme[4] == pytest.approx(41.0)
    assert happy[4] == pytest.approx((23 + 41) / 2)


def test_e09_whizz_absent(paper_db):
    """Celia is under 18, so Whizz has no visible orders at all."""
    names = [r[0] for r in paper_db.execute(LISTING9).rows]
    assert "Whizz" not in names


LISTING10 = """
SELECT prodName, YEAR(orderDate) AS orderYear,
       sumRevenue / sumRevenue AT (SET orderYear = CURRENT orderYear - 1) AS ratio
FROM (SELECT *, SUM(revenue) AS MEASURE sumRevenue,
             YEAR(orderDate) AS orderYear
      FROM Orders)
GROUP BY prodName, YEAR(orderDate)
ORDER BY prodName, orderYear
"""


def test_e10_listing10_year_over_year(paper_db):
    result = paper_db.execute(LISTING10)
    by_key = {(r[0], r[1]): r[2] for r in result.rows}
    assert by_key[("Happy", 2023)] == pytest.approx(6 / 4)
    assert by_key[("Happy", 2024)] == pytest.approx(7 / 6)
    # No previous year: SUM over the empty context is NULL, so is the ratio.
    assert by_key[("Happy", 2022)] is None
    assert by_key[("Acme", 2023)] is None
    assert by_key[("Whizz", 2023)] is None


def test_e10_listing11_expansion_equivalence(paper_db):
    expanded = paper_db.expand(LISTING10)
    assert "YEAR" in expanded and "- 1" in expanded  # the shifted-year filter
    assert paper_db.execute(expanded).rows == paper_db.execute(LISTING10).rows


LISTING12_Q1 = """
SELECT o.prodName, o.orderDate FROM Orders AS o
WHERE o.revenue > (SELECT AVG(revenue) FROM Orders AS o1
                   WHERE o1.prodName = o.prodName)
ORDER BY 1, 2
"""
LISTING12_Q2 = """
SELECT o.prodName, o.orderDate FROM Orders AS o
LEFT JOIN (SELECT prodName, AVG(revenue) AS avgRevenue
           FROM Orders GROUP BY prodName) AS o2
  ON o.prodName = o2.prodName
WHERE o.revenue > o2.avgRevenue
ORDER BY 1, 2
"""
LISTING12_Q3 = """
SELECT o.prodName, o.orderDate FROM
  (SELECT prodName, revenue, orderDate,
          AVG(revenue) OVER (PARTITION BY prodName) AS avgRevenue
   FROM Orders) AS o
WHERE o.revenue > o.avgRevenue
ORDER BY 1, 2
"""
LISTING12_Q4 = """
SELECT o.prodName, o.orderDate FROM
  (SELECT prodName, orderDate, revenue,
          AVG(revenue) AS MEASURE avgRevenue
   FROM Orders) AS o
WHERE o.revenue > o.avgRevenue AT (WHERE prodName = o.prodName)
ORDER BY 1, 2
"""
LISTING12_EXPECTED = [
    ("Happy", datetime.date(2023, 11, 28)),
    ("Happy", datetime.date(2024, 11, 28)),
]


@pytest.mark.parametrize(
    "query", [LISTING12_Q1, LISTING12_Q2, LISTING12_Q3, LISTING12_Q4],
    ids=["correlated-subquery", "self-join", "window-aggregate", "measures"],
)
def test_e11_listing12_equivalent_queries(paper_db, query):
    assert paper_db.execute(query).rows == LISTING12_EXPECTED


def test_e11_listing12_measure_rewrites(paper_db):
    """The measures formulation rewrites to both query 1 (subquery strategy)
    and query 3 (window strategy) shapes, all with identical results."""
    sub = paper_db.expand(LISTING12_Q4, strategy="subquery")
    win = paper_db.expand(LISTING12_Q4, strategy="window")
    assert "OVER" not in sub and "OVER" in win
    assert "(SELECT" not in win.replace("FROM (SELECT", "")  # one pass
    assert paper_db.execute(sub).rows == LISTING12_EXPECTED
    assert paper_db.execute(win).rows == LISTING12_EXPECTED


# -- E12: the full Table 3 modifier matrix -----------------------------------

E12_VIEW = """
CREATE VIEW mv AS
SELECT prodName, custName, YEAR(orderDate) AS orderYear,
       SUM(revenue) AS MEASURE r
FROM Orders
"""


@pytest.fixture
def modifier_db(paper_db):
    paper_db.execute(E12_VIEW)
    return paper_db


def test_e12_all_bare_clears_everything(modifier_db):
    rows = modifier_db.execute(
        """SELECT prodName, r AT (ALL) AS total FROM mv
           GROUP BY prodName ORDER BY prodName"""
    ).rows
    assert rows == [("Acme", 25), ("Happy", 25), ("Whizz", 25)]


def test_e12_all_dimension_removes_one_term(modifier_db):
    rows = modifier_db.execute(
        """SELECT prodName, custName, r, r AT (ALL custName) AS byProd
           FROM mv GROUP BY prodName, custName ORDER BY prodName, custName"""
    ).rows
    by_key = {(r[0], r[1]): (r[2], r[3]) for r in rows}
    assert by_key[("Happy", "Alice")] == (13, 17)
    assert by_key[("Happy", "Bob")] == (4, 17)
    assert by_key[("Acme", "Bob")] == (5, 5)


def test_e12_set_pins_dimension(modifier_db):
    rows = modifier_db.execute(
        """SELECT prodName, r AT (SET prodName = 'Happy') AS happy
           FROM mv GROUP BY prodName ORDER BY prodName"""
    ).rows
    assert all(r[1] == 17 for r in rows)


def test_e12_set_with_current_arithmetic(modifier_db):
    rows = modifier_db.execute(
        """SELECT orderYear, r,
                  r AT (SET orderYear = CURRENT orderYear - 1) AS prev
           FROM mv GROUP BY orderYear ORDER BY orderYear"""
    ).rows
    assert rows == [(2022, 4, None), (2023, 14, 4), (2024, 7, 14)]


def test_e12_visible_applies_where(modifier_db):
    rows = modifier_db.execute(
        """SELECT prodName, r AT (VISIBLE) AS viz, r
           FROM mv WHERE custName = 'Alice'
           GROUP BY prodName ORDER BY prodName"""
    ).rows
    assert rows == [("Happy", 13, 17)]


def test_e12_where_replaces_context(modifier_db):
    rows = modifier_db.execute(
        """SELECT prodName, r AT (WHERE orderYear = 2023) AS y23
           FROM mv GROUP BY prodName ORDER BY prodName"""
    ).rows
    # WHERE *sets* the context: the group's prodName term is replaced.
    assert rows == [("Acme", 14), ("Happy", 14), ("Whizz", 14)]


def test_e12_modifier_sequence_left_to_right(modifier_db):
    """cse AT (m1 m2) == (cse AT (m2)) AT (m1) (section 3.5)."""
    combined = modifier_db.execute(
        """SELECT prodName,
                  r AT (ALL SET prodName = 'Happy') AS v
           FROM mv GROUP BY prodName ORDER BY prodName"""
    ).rows
    nested = modifier_db.execute(
        """SELECT prodName,
                  (r AT (SET prodName = 'Happy')) AT (ALL) AS v
           FROM mv GROUP BY prodName ORDER BY prodName"""
    ).rows
    assert combined == nested == [("Acme", 17), ("Happy", 17), ("Whizz", 17)]


def test_e12_adhoc_dimension_expression(modifier_db):
    """Expressions over dimensions act as ad hoc dimensions (section 3.5)."""
    rows = modifier_db.execute(
        """SELECT prodName, sr AT (SET YEAR(orderDate) = 2023) AS y23
           FROM (SELECT *, SUM(revenue) AS MEASURE sr FROM Orders)
           GROUP BY prodName ORDER BY prodName"""
    ).rows
    assert rows == [("Acme", 5), ("Happy", 6), ("Whizz", 3)]


def test_e08_listing8_expands_statically(paper_db):
    """Grouping sets expand as a UNION ALL of plain branches, so even
    Listing 8 has a measure-free SQL form that reproduces the paper's table."""
    expanded = paper_db.expand(LISTING8)
    assert "UNION ALL" in expanded
    assert paper_db.execute(expanded).rows == paper_db.execute(LISTING8).rows


# -- profiling the paper listings ---------------------------------------------

LISTING1 = """
SELECT prodName, COUNT(*) AS c,
       (SUM(revenue) - SUM(cost)) / SUM(revenue) AS profitMargin
FROM Orders GROUP BY prodName ORDER BY prodName
"""
LISTING2_QUERY = """
SELECT prodName, AVG(profitMargin) FROM SummarizedOrders
GROUP BY prodName ORDER BY prodName
"""
LISTING4 = """
SELECT prodName, AGGREGATE(profitMargin), COUNT(*)
FROM EnhancedOrders GROUP BY prodName ORDER BY prodName
"""
LISTING6 = """
SELECT prodName, sumRevenue,
       sumRevenue / sumRevenue AT (ALL prodName) AS proportionOfTotalRevenue
FROM (SELECT *, SUM(revenue) AS MEASURE sumRevenue FROM Orders) AS o
GROUP BY prodName ORDER BY prodName
"""
LISTING7 = """
SELECT prodName, orderYear, profitMargin,
       profitMargin AT (SET orderYear = CURRENT orderYear - 1)
         AS profitMarginLastYear
FROM (SELECT *,
        (SUM(revenue) - SUM(cost)) / SUM(revenue) AS MEASURE profitMargin,
        YEAR(orderDate) AS orderYear
      FROM Orders)
WHERE orderYear = 2024 GROUP BY prodName, orderYear
"""
E12_MATRIX = """
SELECT prodName, r AS base, r AT (ALL) AS grandTotal,
       r AT (ALL custName) AS allCust,
       r AT (SET orderYear = CURRENT orderYear - 1) AS lastYear,
       r AT (VISIBLE) AS vis,
       r AT (WHERE orderYear = 2023) AS y2023
FROM mv WHERE custName <> 'Bob'
GROUP BY prodName ORDER BY prodName
"""
E12_ALL_BARE = """
SELECT prodName, r AT (ALL) AS total FROM mv
GROUP BY prodName ORDER BY prodName
"""
E12_ADHOC = """
SELECT prodName, sr AT (SET YEAR(orderDate) = 2023) AS y23
FROM (SELECT *, SUM(revenue) AS MEASURE sr FROM Orders)
GROUP BY prodName ORDER BY prodName
"""

#: All fifteen paper listings the acceptance criteria name, by id.
ALL_LISTINGS = {
    "listing1": LISTING1,
    "listing2": LISTING2_QUERY,
    "listing4": LISTING4,
    "listing6": LISTING6,
    "listing7": LISTING7,
    "listing8": LISTING8,
    "listing9": LISTING9,
    "listing10": LISTING10,
    "listing12-q1": LISTING12_Q1,
    "listing12-q2": LISTING12_Q2,
    "listing12-q3": LISTING12_Q3,
    "listing12-q4": LISTING12_Q4,
    "table3-matrix": E12_MATRIX,
    "table3-all-bare": E12_ALL_BARE,
    "table3-adhoc-dim": E12_ADHOC,
}


def _full_db(**kwargs) -> Database:
    from repro.workloads.paper_data import load_paper_tables

    db = Database(**kwargs)
    load_paper_tables(db)
    db.execute(
        """CREATE VIEW EnhancedOrders AS
           SELECT orderDate, prodName,
                  (SUM(revenue) - SUM(cost)) / SUM(revenue)
                    AS MEASURE profitMargin
           FROM Orders"""
    )
    db.execute(
        """CREATE VIEW SummarizedOrders AS
           SELECT prodName, orderDate,
                  (SUM(revenue) - SUM(cost)) / SUM(revenue) AS profitMargin
           FROM Orders GROUP BY prodName, orderDate"""
    )
    db.execute(E12_VIEW)
    return db


@pytest.fixture(scope="module")
def listings_profiled_db() -> Database:
    db = _full_db()
    db.profile_enabled = True
    return db


@pytest.fixture(scope="module")
def listings_plain_db() -> Database:
    return _full_db()


@pytest.mark.parametrize("listing", list(ALL_LISTINGS))
def test_every_listing_profile_on_off_identical(
    listing, listings_profiled_db, listings_plain_db
):
    """Profiling is pure observation: every paper listing returns the exact
    same rows with profile=True and profile=False."""
    sql = ALL_LISTINGS[listing]
    profiled = listings_profiled_db.execute(sql)
    plain = listings_plain_db.execute(sql)
    assert profiled.rows == plain.rows
    profile = listings_profiled_db.last_profile()
    assert profile is not None
    assert profile.result_rows == len(plain.rows)
    assert profile.operator_tree["rows_out"] == len(plain.rows)


@pytest.mark.parametrize("listing", list(ALL_LISTINGS))
def test_every_listing_explain_analyze_renders(listing, listings_plain_db):
    """EXPLAIN ANALYZE renders an annotated operator tree — per-operator
    rows and timing — for all fifteen paper listings."""
    result = listings_plain_db.execute(
        f"EXPLAIN ANALYZE {ALL_LISTINGS[listing]}"
    )
    lines = [line for (line,) in result.rows]
    operator_lines = [
        line for line in lines if "rows=" in line and "time=" in line
    ]
    assert operator_lines, f"no annotated operators for {listing}"
    assert any(line.startswith("phases:") for line in lines)
    assert any(line.startswith("counters:") for line in lines)


def test_every_listing_acquires_exactly_one_fingerprint_row():
    """Statement statistics attribute each paper listing to exactly one
    fingerprint: two runs of a listing collapse into one row with
    calls=2, the fifteen listings stay distinct from each other, and
    replaying identical queries never registers a plan flip."""
    db = _full_db(telemetry=True)
    db.reset_stats()  # drop the setup DDL's fingerprints
    for sql in ALL_LISTINGS.values():
        db.execute(sql)
        db.execute(sql)
    entries = db.stat_statements()
    assert len(entries) == len(ALL_LISTINGS)
    assert len({e["fingerprint"] for e in entries}) == len(ALL_LISTINGS)
    plan_hashes = dict(
        db.execute("SELECT fingerprint, plan_hash FROM repro_statements").rows
    )
    for entry in entries:
        assert entry["calls"] == 2
        assert entry["errors"] == 0
        assert plan_hashes[entry["fingerprint"]] is not None
    assert db.plan_flips() == []
