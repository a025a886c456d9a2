"""Property-based tests (hypothesis) of the paper's core invariants.

These run the same randomized order data through both evaluation paths
(top-down interpreter vs static SQL expansion), through measures vs plain
SQL, and with the context cache on vs off — all must agree.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database
from tests.conftest import BothWays
from tests.test_visible_semijoin import reference_visible

PRODUCTS = ["p1", "p2", "p3"]
CUSTOMERS = ["c1", "c2"]

order_rows = st.lists(
    st.tuples(
        st.sampled_from(PRODUCTS),
        st.sampled_from(CUSTOMERS),
        st.integers(2020, 2022),
        st.integers(1, 100),
        st.integers(0, 50),
    ),
    min_size=1,
    max_size=25,
)


def make_db(rows, **kwargs) -> BothWays:
    """Every query of every property below runs both ways: on the database
    under test and on its optimizer-off twin."""
    return BothWays(lambda **options: build_db(rows, **options), **kwargs)


def build_db(rows, **kwargs) -> Database:
    db = Database(**kwargs)
    db.create_table_from_rows(
        "Orders",
        [
            ("prodName", "VARCHAR"),
            ("custName", "VARCHAR"),
            ("y", "INTEGER"),
            ("revenue", "INTEGER"),
            ("cost", "INTEGER"),
        ],
        rows,
    )
    db.execute(
        """CREATE VIEW eo AS
           SELECT prodName, custName, y,
                  SUM(revenue) AS MEASURE rev,
                  COUNT(*) AS MEASURE n
           FROM Orders"""
    )
    return db


#: Customers to join against: names the orders may not have, NULL names,
#: duplicate names (a customer row per tier) and NULL ages.
customer_rows = st.lists(
    st.tuples(
        st.sampled_from(CUSTOMERS + ["c3", None]),
        st.one_of(st.none(), st.integers(18, 70)),
        st.sampled_from(["gold", "plain"]),
    ),
    min_size=0,
    max_size=6,
)

#: AGGREGATE() across a join: (join kind, ON, WHERE, GROUP BY).
joined_shapes = st.tuples(
    st.sampled_from(["JOIN", "LEFT JOIN", "RIGHT JOIN", "FULL JOIN"]),
    st.sampled_from(
        [
            "o.custName = c.custName",
            "c.custName = o.custName AND o.revenueCap > c.age",
            "o.custName || '' = c.custName",
            "o.revenueCap < c.age",
        ]
    ),
    st.sampled_from(
        ["", "WHERE c.age >= ?", "WHERE o.y >= 2021 AND (c.tier = 'gold' OR o.y = ?)"]
    ),
    st.sampled_from(
        ["c.tier", "c.tier, o.prodName", "ROLLUP(c.tier, o.y)", "o.custName"]
    ),
)


def normalized(rows):
    cleaned = [
        tuple(round(v, 9) if isinstance(v, float) else v for v in row)
        for row in rows
    ]
    return sorted(
        cleaned, key=lambda row: tuple((v is None, str(v)) for v in row)
    )


@settings(max_examples=25, deadline=None)
@given(order_rows)
def test_aggregate_measure_equals_plain_sql(rows):
    db = make_db(rows)
    measured = db.execute(
        "SELECT prodName, AGGREGATE(rev) FROM eo GROUP BY prodName"
    ).rows
    plain = db.execute(
        "SELECT prodName, SUM(revenue) FROM Orders GROUP BY prodName"
    ).rows
    assert normalized(measured) == normalized(plain)


@settings(max_examples=25, deadline=None)
@given(order_rows)
def test_interpreter_equals_expansion(rows):
    db = make_db(rows)
    sql = """SELECT prodName, y, AGGREGATE(rev) AS r,
                    rev AT (ALL y) AS prodTotal,
                    rev AT (SET y = CURRENT y - 1) AS prev
             FROM eo GROUP BY prodName, y"""
    interpreted = db.execute(sql).rows
    expanded = db.execute(db.expand(sql)).rows
    assert normalized(interpreted) == normalized(expanded)


#: What the binder normalizes and an AST-level expander never learned: a
#: GROUP BY alias or ordinal, DISTINCT as a grouping, a measure re-exported
#: bare (evaluated over the *output's* dimensions, the WHERE baked in).
BINDER_SHAPES = [
    "SELECT prodName AS p, y, rev, AGGREGATE(n) AS k FROM eo GROUP BY p, y",
    "SELECT prodName AS p, rev AT (ALL custName) AS r FROM eo GROUP BY 1",
    "SELECT DISTINCT prodName, rev FROM eo",
    "SELECT prodName, custName, rev, n FROM eo",
    "SELECT custName, rev FROM eo WHERE y >= 2021",
    "SELECT p, AGGREGATE(rev) AS r FROM (SELECT prodName AS p, rev FROM eo WHERE y < 2022) GROUP BY p",
]


@settings(max_examples=40, deadline=None)
@given(order_rows, st.sampled_from(BINDER_SHAPES))
def test_interpreter_equals_expansion_on_what_the_binder_normalizes(rows, sql):
    db = make_db(rows)
    interpreted = db.execute(sql).rows
    assert normalized(db.execute(db.expand(sql)).rows) == normalized(interpreted)
    assert normalized(
        db.execute_with_strategy(sql, strategy="subquery").rows
    ) == normalized(interpreted)


@settings(max_examples=25, deadline=None)
@given(order_rows)
def test_cache_on_off_equivalence(rows):
    sql = """SELECT prodName, AGGREGATE(rev) AS r, rev AT (ALL) AS total
             FROM eo GROUP BY prodName"""
    hot = make_db(rows, cache=True).execute(sql).rows
    cold = make_db(rows, cache=False).execute(sql).rows
    assert normalized(hot) == normalized(cold)


@settings(max_examples=25, deadline=None)
@given(order_rows)
def test_shares_sum_to_one(rows):
    db = make_db(rows)
    shares = db.execute(
        """SELECT rev / rev AT (ALL prodName) AS share
           FROM eo GROUP BY prodName"""
    ).column("share")
    assert sum(shares) == pytest.approx(1.0)


@settings(max_examples=25, deadline=None)
@given(order_rows)
def test_group_terms_partition_the_total(rows):
    """Sum of per-group measure values equals the ALL value (additivity)."""
    db = make_db(rows)
    result = db.execute(
        "SELECT prodName, AGGREGATE(rev) AS r, rev AT (ALL) AS total "
        "FROM eo GROUP BY prodName"
    )
    totals = {row[2] for row in result.rows}
    assert len(totals) == 1
    assert sum(row[1] for row in result.rows) == totals.pop()


@settings(max_examples=25, deadline=None)
@given(order_rows)
def test_rollup_total_row_equals_all(rows):
    db = make_db(rows)
    result = db.execute(
        """SELECT prodName, rev AS r FROM eo
           GROUP BY ROLLUP(prodName)"""
    ).rows
    total_row = [r for r in result if r[0] is None]
    assert len(total_row) == 1
    assert total_row[0][1] == sum(r[3] for r in db.catalog.base_table("Orders").table.rows)


@settings(max_examples=25, deadline=None)
@given(order_rows)
def test_visible_equals_aggregate(rows):
    """AGGREGATE(m) == m AT (VISIBLE) on arbitrary filtered queries."""
    db = make_db(rows)
    result = db.execute(
        """SELECT prodName, AGGREGATE(rev) AS a, rev AT (VISIBLE) AS v
           FROM eo WHERE y >= 2021 GROUP BY prodName"""
    ).rows
    assert all(r[1] == r[2] for r in result)


@settings(max_examples=25, deadline=None)
@given(order_rows)
def test_window_strategy_agrees_with_interpreter(rows):
    db = make_db(rows)
    sql = """SELECT prodName, custName, revenue FROM
             (SELECT prodName, custName, revenue,
                     AVG(revenue) AS MEASURE avgRev FROM Orders) AS o
             WHERE o.revenue >= o.avgRev AT (WHERE prodName = o.prodName)"""
    interpreted = db.execute(sql).rows
    windowed = db.execute(db.expand(sql, strategy="window")).rows
    assert normalized(interpreted) == normalized(windowed)


@settings(max_examples=25, deadline=None)
@given(order_rows)
def test_inline_strategy_agrees_with_interpreter(rows):
    db = make_db(rows)
    sql = """SELECT prodName, AGGREGATE(rev) AS r FROM eo
             WHERE y > 2020 GROUP BY prodName"""
    interpreted = db.execute(sql).rows
    inlined = db.execute(db.expand(sql, strategy="inline")).rows
    assert normalized(interpreted) == normalized(inlined)


@settings(max_examples=20, deadline=None)
@given(order_rows, st.sampled_from(PRODUCTS))
def test_set_modifier_equals_filtered_query(rows, pinned):
    """m AT (SET prodName = 'x') equals a fresh query filtered to x."""
    db = make_db(rows)
    pinned_value = db.execute(
        f"SELECT rev AT (ALL SET prodName = '{pinned}') FROM eo GROUP BY custName LIMIT 1"
    ).rows
    direct = db.execute(
        f"SELECT SUM(revenue) FROM Orders WHERE prodName = '{pinned}'"
    ).scalar()
    if pinned_value:
        assert pinned_value[0][0] == direct


@settings(max_examples=20, deadline=None)
@given(order_rows)
def test_rollup_expansion_equivalence(rows):
    """Grouping-set expansion (UNION ALL rewrite) matches the interpreter."""
    db = make_db(rows)
    sql = """SELECT prodName, custName, AGGREGATE(rev) AS r, rev AS raw
             FROM eo GROUP BY ROLLUP(prodName, custName)"""
    interpreted = db.execute(sql).rows
    expanded = db.execute(db.expand(sql)).rows
    assert normalized(interpreted) == normalized(expanded)


@settings(max_examples=20, deadline=None)
@given(order_rows)
def test_count_measure_matches_group_sizes(rows):
    db = make_db(rows)
    measured = db.execute(
        "SELECT prodName, AGGREGATE(n) FROM eo GROUP BY prodName"
    ).rows
    plain = db.execute(
        "SELECT prodName, COUNT(*) FROM Orders GROUP BY prodName"
    ).rows
    assert normalized(measured) == normalized(plain)


@settings(max_examples=40, deadline=None)
@given(order_rows, customer_rows, joined_shapes, st.integers(18, 2022))
def test_joined_aggregate_equals_the_visible_definition(rows, customers, shape, param):
    """``AGGREGATE()`` across a join — the hash semijoin, whatever mix of
    key, local, outer and residual conjuncts the shape produces — returns
    what rescanning the group per candidate (docs/SEMANTICS.md) returns."""
    kind, on, where, group_by = shape

    def build(**options) -> Database:
        db = build_db(rows, **options)
        db.create_table_from_rows(
            "Customers",
            [("custName", "VARCHAR"), ("age", "INTEGER"), ("tier", "VARCHAR")],
            customers,
        )
        db.execute(
            """CREATE VIEW eoc AS
               SELECT prodName, custName, y, revenue AS revenueCap,
                      SUM(revenue) AS MEASURE rev, COUNT(*) AS MEASURE n
               FROM Orders"""
        )
        return db

    db = BothWays(build)
    sql = (
        f"SELECT {group_by.replace('ROLLUP(', '').replace(')', '')}, "
        "AGGREGATE(o.rev), o.n AT (VISIBLE), COUNT(*) "
        f"FROM eoc AS o {kind} Customers AS c ON {on} {where} GROUP BY {group_by}"
    )
    params = (param,) * where.count("?")
    got = db.execute(sql, params).rows
    with reference_visible():
        expected = db.execute(sql, params).rows
    assert normalized(got) == normalized(expected)
