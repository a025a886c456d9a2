"""Differential battery: every canonical TPC-H measure query vs SQLite.

Each query in :data:`repro.workloads.tpch.TPCH_QUERIES` is hand-expanded
here into the plain SQL it denotes (per the paper's expansion semantics) and
run on the standard library's sqlite3 over the same generated SF 0.001
tables.  The repro side runs through ``Database.expand`` under **all four
expansion strategies** — inline, window, subquery, auto — and every
strategy's output must agree with the oracle byte-for-byte after float
canonicalization.

A specialized strategy may refuse a query shape (``UnsupportedError``);
``subquery`` and ``auto`` must never refuse.  Float values are canonicalized
to 6 significant digits: the engine's partial-sum orders differ between
strategies, and ~1e7-scale revenue sums carry ~1e-5 of associativity noise,
far below the 6-digit bar.
"""

from __future__ import annotations

import sqlite3

import pytest

from repro.errors import UnsupportedError
from repro.workloads.tpch import (
    TPCH_QUERIES,
    TPCH_TABLES,
    TpchConfig,
    generate_tpch,
    tpch_measure_database,
)

STRATEGIES = ("inline", "window", "subquery", "auto")

#: Strategies that must handle EVERY canonical query (the general fallback
#: and the cascade that ends in it).
TOTAL_STRATEGIES = {"subquery", "auto"}

CONFIG = TpchConfig(sf=0.001)

#: The revenue expression shared by most oracles.
_REV = "SUM(l.l_extendedprice * (1 - l.l_discount))"

#: lineitem joined out to region — SQLite spelling of the tpch_sales view.
_SALES_FROM = """
    FROM lineitem AS l
    JOIN orders AS o ON l.l_orderkey = o.o_orderkey
    JOIN partsupp AS ps
      ON l.l_partkey = ps.ps_partkey AND l.l_suppkey = ps.ps_suppkey
    JOIN customer AS c ON o.o_custkey = c.c_custkey
    JOIN nation AS n ON c.c_nationkey = n.n_nationkey
    JOIN region AS r ON n.n_regionkey = r.r_regionkey
"""

_ORDERS_FROM = """
    FROM orders AS o
    JOIN customer AS c ON o.o_custkey = c.c_custkey
    JOIN nation AS n ON c.c_nationkey = n.n_nationkey
    JOIN region AS r ON n.n_regionkey = r.r_regionkey
"""

_YEAR = "CAST(strftime('%Y', o.o_orderdate) AS INTEGER)"

#: Hand-expanded plain-SQL oracles, one per canonical query.  These are
#: written from the measure definitions directly (not via the engine's
#: expander), so they are an independent statement of what each query means.
ORACLES: dict[str, str] = {
    "revenue_by_region": f"""
        SELECT r.r_name, {_REV}
        {_SALES_FROM}
        GROUP BY r.r_name ORDER BY r.r_name
    """,
    "revenue_by_region_year": f"""
        SELECT r.r_name, {_YEAR} AS orderYear, {_REV}, SUM(l.l_quantity)
        {_SALES_FROM}
        GROUP BY r.r_name, orderYear ORDER BY r.r_name, orderYear
    """,
    "margin_by_returnflag": f"""
        SELECT l.l_returnflag,
               ({_REV} - SUM(ps.ps_supplycost * l.l_quantity)) / {_REV},
               AVG(l.l_discount)
        {_SALES_FROM}
        GROUP BY l.l_returnflag ORDER BY l.l_returnflag
    """,
    "orders_by_year": f"""
        SELECT {_YEAR} AS orderYear, COUNT(*)
        {_ORDERS_FROM}
        GROUP BY orderYear ORDER BY orderYear
    """,
    # AT (ALL region): the same measure evaluated with the region context
    # removed, i.e. the grand total.
    "revenue_share_by_region": f"""
        SELECT r.r_name, {_REV},
               {_REV} / (SELECT {_REV} {_SALES_FROM})
        {_SALES_FROM}
        GROUP BY r.r_name ORDER BY r.r_name
    """,
    # AT (SET orderYear = CURRENT orderYear - 1): re-evaluate per output row
    # with the year context shifted back one.
    "revenue_yoy_by_year": f"""
        SELECT cur.orderYear, cur.revenue, prev.revenue
        FROM (SELECT {_YEAR} AS orderYear, {_REV} AS revenue
              {_SALES_FROM} GROUP BY orderYear) AS cur
        LEFT JOIN (SELECT {_YEAR} AS orderYear, {_REV} AS revenue
                   {_SALES_FROM} GROUP BY orderYear) AS prev
          ON prev.orderYear = cur.orderYear - 1
        ORDER BY cur.orderYear
    """,
    # AT (VISIBLE) keeps the query's WHERE; the bare measure drops it (the
    # full region context), so the base count comes from a correlated
    # subquery without the segment filter.
    "visible_orders_by_region": f"""
        SELECT r.r_name,
               COUNT(*),
               (SELECT COUNT(*)
                FROM orders AS o2
                JOIN customer AS c2 ON o2.o_custkey = c2.c_custkey
                JOIN nation AS n2 ON c2.c_nationkey = n2.n_nationkey
                WHERE n2.n_regionkey = r.r_regionkey)
        {_ORDERS_FROM}
        WHERE c.c_mktsegment <> 'MACHINERY'
        GROUP BY r.r_name, r.r_regionkey ORDER BY r.r_name
    """,
}


@pytest.fixture(scope="module")
def oracle():
    """SQLite loaded with the exact same generated tables (dates as TEXT)."""
    tables = generate_tpch(CONFIG)
    connection = sqlite3.connect(":memory:")
    for name, columns in TPCH_TABLES.items():
        decls = ", ".join(
            f"{col} {'TEXT' if type_ in ('VARCHAR', 'DATE') else 'INTEGER' if type_ == 'INTEGER' else 'REAL'}"
            for col, type_ in columns
        )
        connection.execute(f"CREATE TABLE {name} ({decls})")
        placeholders = ", ".join("?" for _ in columns)
        connection.executemany(
            f"INSERT INTO {name} VALUES ({placeholders})", tables[name]
        )
    return connection


@pytest.fixture(scope="module")
def measure_db():
    return tpch_measure_database(CONFIG.sf, seed=CONFIG.seed)


def canonical(rows) -> list[tuple]:
    """Sorted rows with floats at 6 significant digits and dates as text."""

    def cell(value):
        if value is None:
            return "NULL"
        if isinstance(value, bool):
            return str(int(value))
        if isinstance(value, float):
            return f"{value:.6g}"
        return str(value)

    return sorted(tuple(cell(v) for v in row) for row in rows)


@pytest.mark.parametrize("name", sorted(TPCH_QUERIES))
def test_canonical_query_matches_sqlite_oracle(name, oracle, measure_db):
    expected = canonical(oracle.execute(ORACLES[name]).fetchall())
    assert expected, name  # an empty oracle result would test nothing
    ran = []
    for strategy in STRATEGIES:
        try:
            expanded = measure_db.expand(TPCH_QUERIES[name], strategy=strategy)
        except UnsupportedError:
            assert strategy not in TOTAL_STRATEGIES, (
                f"{strategy} must support every canonical query ({name})"
            )
            continue
        got = canonical(measure_db.execute(expanded).rows)
        assert got == expected, f"{name} under strategy={strategy}"
        ran.append(strategy)
    assert TOTAL_STRATEGIES <= set(ran)


#: ``AGGREGATE()`` across a join, grouped by the other input's column: the
#: measure relation's rows visible through the join (paper section 3.6).  Not
#: a canonical query — static expansion refused it (VISIBLE across join
#: inputs) until the expansion was printed from the bound query.
JOINED = """
    SELECT n.n_name, AGGREGATE(s.revenue) AS revenue
    FROM tpch_sales_m AS s JOIN nation AS n ON s.nation = n.n_name
    WHERE n.n_regionkey < 3 GROUP BY n.n_name ORDER BY n.n_name
"""
JOINED_ORACLE = f"""
    SELECT n.n_name, {_REV}
    {_SALES_FROM}
    WHERE n.n_regionkey < 3 GROUP BY n.n_name ORDER BY n.n_name
"""


def test_joined_aggregate_expands_to_the_sqlite_oracle(oracle, measure_db):
    expected = canonical(oracle.execute(JOINED_ORACLE).fetchall())
    assert len(expected) == 15
    assert canonical(measure_db.execute(JOINED).rows) == expected
    expanded = measure_db.expand(JOINED, strategy="subquery")
    assert "EXISTS (SELECT 1 FROM" in expanded and "AGGREGATE(" not in expanded
    assert canonical(measure_db.execute(expanded).rows) == expected


@pytest.mark.parametrize("name", sorted(TPCH_QUERIES))
def test_direct_execution_matches_sqlite_oracle(name, oracle, measure_db):
    """The unexpanded measure query itself (the path users actually run)."""
    expected = canonical(oracle.execute(ORACLES[name]).fetchall())
    got = canonical(measure_db.execute(TPCH_QUERIES[name]).rows)
    assert got == expected, name


def test_summary_hits_match_sqlite_oracle():
    """The matview-rewritten plans agree with the oracle too (to 6 digits:
    roll-ups re-associate float sums)."""
    db = tpch_measure_database(CONFIG.sf, seed=CONFIG.seed, summaries=True)
    tables = generate_tpch(CONFIG)
    connection = sqlite3.connect(":memory:")
    for name, columns in TPCH_TABLES.items():
        decls = ", ".join(f"{col} TEXT" for col, _ in columns)
        connection.execute(f"CREATE TABLE {name} ({decls})")
        connection.executemany(
            f"INSERT INTO {name} VALUES ({', '.join('?' for _ in columns)})",
            tables[name],
        )
    for name in ("revenue_by_region", "orders_by_year"):
        expected = canonical(connection.execute(ORACLES[name]).fetchall())
        assert canonical(db.execute(TPCH_QUERIES[name]).rows) == expected
    stats = db.summary_stats()
    assert any(view["hits"] for view in stats.values())


def test_visible_orders_by_region_matches_sqlite_at_sf_001():
    """The one canonical query that used to be left out of every SF 0.01
    set: ``AT (VISIBLE)`` was quadratic in orders (seconds at 15 000 of
    them).  As a semijoin it is milliseconds, so it is compared at that
    scale too — over the four tables it reads."""
    config = TpchConfig(sf=0.01)
    tables = generate_tpch(config)
    connection = sqlite3.connect(":memory:")
    for name in ("orders", "customer", "nation", "region"):
        columns = TPCH_TABLES[name]
        connection.execute(
            f"CREATE TABLE {name} ({', '.join(col for col, _ in columns)})"
        )
        connection.executemany(
            f"INSERT INTO {name} VALUES ({', '.join('?' for _ in columns)})",
            tables[name],
        )
    name = "visible_orders_by_region"
    expected = canonical(connection.execute(ORACLES[name]).fetchall())
    db = tpch_measure_database(config.sf, seed=config.seed)
    assert canonical(db.execute(TPCH_QUERIES[name]).rows) == expected
    assert sum(int(row[2]) for row in expected) == 15_000
