"""Result verification: SQLite oracles for TPC-H, the paper's tables for the
listings.  Always runs outside the timed region and never calls the engine
under test.

The TPC-H oracle SQL is hand-expanded from the measure definitions (the same
statements as ``ORACLES`` in ``tests/test_differential_tpch.py``), so it says
what each query *means* independently of the engine's expander.  It is
copied, not imported, so that a later change to the tests cannot silently
change what the benchmark checks.
"""

from __future__ import annotations

import datetime
import decimal
import math
import sqlite3
from typing import Iterable, Optional, Sequence

#: Floats agree to 6 significant digits: the engine, its summaries and
#: SQLite add the same terms in different orders.
REL_TOL = 1e-6

_REV = "SUM(l.l_extendedprice * (1 - l.l_discount))"

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

#: One oracle per non-VISIBLE canonical query (the ``tpch_cold`` pass, and
#: the four summary-answerable reads of ``server_mixed``).
COLD_ORACLES: dict[str, str] = {
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
    "revenue_share_by_region": f"""
        SELECT r.r_name, {_REV},
               {_REV} / (SELECT {_REV} {_SALES_FROM})
        {_SALES_FROM}
        GROUP BY r.r_name ORDER BY r.r_name
    """,
    "revenue_yoy_by_year": f"""
        SELECT cur.orderYear, cur.revenue, prev.revenue
        FROM (SELECT {_YEAR} AS orderYear, {_REV} AS revenue
              {_SALES_FROM} GROUP BY orderYear) AS cur
        LEFT JOIN (SELECT {_YEAR} AS orderYear, {_REV} AS revenue
                   {_SALES_FROM} GROUP BY orderYear) AS prev
          ON prev.orderYear = cur.orderYear - 1
        ORDER BY cur.orderYear
    """,
}

#: ``visible_orders_by_region`` with its excluded market segment as the one
#: parameter.  AT (VISIBLE) keeps the query's WHERE; the bare measure drops
#: it, so the unfiltered count comes from a correlated subquery.
VISIBLE_ORACLE = f"""
    SELECT r.r_name,
           COUNT(*),
           (SELECT COUNT(*)
            FROM orders AS o2
            JOIN customer AS c2 ON o2.o_custkey = c2.c_custkey
            JOIN nation AS n2 ON c2.c_nationkey = n2.n_nationkey
            WHERE n2.n_regionkey = r.r_regionkey)
    {_ORDERS_FROM}
    WHERE c.c_mktsegment <> ?
    GROUP BY r.r_name, r.r_regionkey ORDER BY r.r_name
"""

#: The ``server_mixed`` roll-up over ``part`` and its row count.
PART_BY_MFGR_ORACLE = """
    SELECT p_mfgr, COUNT(*), SUM(p_retailprice)
    FROM part GROUP BY p_mfgr ORDER BY p_mfgr
"""
PART_COUNT_ORACLE = "SELECT COUNT(*) FROM part"


def _sqlite_type(type_name: str) -> str:
    if type_name in ("VARCHAR", "DATE"):
        return "TEXT"
    return "INTEGER" if type_name == "INTEGER" else "REAL"


def _sqlite_cell(value):
    return value.isoformat() if isinstance(value, datetime.date) else value


class TpchOracle:
    """An in-memory SQLite holding exactly the generated tables."""

    def __init__(self, tables: dict, schemas: dict):
        self._db = sqlite3.connect(":memory:")
        for name, columns in schemas.items():
            decls = ", ".join(
                f"{column} {_sqlite_type(type_name)}"
                for column, type_name in columns
            )
            self._db.execute(f"CREATE TABLE {name} ({decls})")
            self.insert(name, tables[name])

    def insert(self, table: str, rows: Iterable[Sequence]) -> None:
        rows = [tuple(_sqlite_cell(v) for v in row) for row in rows]
        if rows:
            marks = ", ".join("?" for _ in rows[0])
            self._db.executemany(
                f"INSERT INTO {table} VALUES ({marks})", rows
            )

    def rows(self, sql: str, params: Sequence = ()) -> list[tuple]:
        return self._db.execute(sql, params).fetchall()

    def __enter__(self) -> "TpchOracle":
        return self

    def __exit__(self, *exc_info) -> None:
        self._db.close()


# -- the paper's listings ------------------------------------------------------

_D = datetime.date

#: What each listing returns over the paper's Tables 1 and 2, worked out by
#: hand from the five Orders rows and three Customers rows.  Where the paper
#: prints a result (Listing 4: 0.60 / 0.47 / 0.67; Listing 8's ROLLUP table)
#: these are its numbers at full precision.  Listings 5 and 11 are the
#: expansions of Listings 4 and 10 and must return the same rows.
LISTING_ROWS: dict[str, list[tuple]] = {
    "listing1": [("Acme", 1, 3 / 5), ("Happy", 3, 8 / 17), ("Whizz", 1, 2 / 3)],
    "listing2": [
        ("Acme", 3 / 5),
        ("Happy", (2 / 6 + 3 / 7 + 3 / 4) / 3),
        ("Whizz", 2 / 3),
    ],
    "listing3": [
        (_D(2022, 11, 27), "Happy", 3 / 4),
        (_D(2023, 11, 25), "Whizz", 2 / 3),
        (_D(2023, 11, 27), "Acme", 3 / 5),
        (_D(2023, 11, 28), "Happy", 2 / 6),
        (_D(2024, 11, 28), "Happy", 3 / 7),
    ],
    "listing4": [("Acme", 3 / 5, 1), ("Happy", 8 / 17, 3), ("Whizz", 2 / 3, 1)],
    "listing6": [("Acme", 5, 5 / 25), ("Happy", 17, 17 / 25), ("Whizz", 3, 3 / 25)],
    "listing7": [("Happy", 2024, 3 / 7, 2 / 6)],
    "listing8": [
        ("Happy", 2, 13, 13, 17),
        ("Whizz", 1, 3, 3, 3),
        (None, 3, 16, 16, 25),
    ],
    "listing9": [
        ("Acme", 1, 41.0, 81 / 3, 41.0),
        ("Happy", 3, 87 / 3, 81 / 3, 64 / 2),
    ],
    "listing10": [
        ("Acme", 2023, None),
        ("Happy", 2022, None),
        ("Happy", 2023, 6 / 4),
        ("Happy", 2024, 7 / 6),
        ("Whizz", 2023, None),
    ],
    "listing12_q1": [("Happy", _D(2023, 11, 28)), ("Happy", _D(2024, 11, 28))],
}
LISTING_ROWS["listing5"] = LISTING_ROWS["listing4"]
LISTING_ROWS["listing11"] = LISTING_ROWS["listing10"]
for _name in ("listing12_q2", "listing12_q3", "listing12_q4"):
    LISTING_ROWS[_name] = LISTING_ROWS["listing12_q1"]


# -- comparison ----------------------------------------------------------------


def _cell_matches(got, expected) -> bool:
    if got is None or expected is None:
        return got is None and expected is None
    if isinstance(got, decimal.Decimal):
        got = float(got)
    if isinstance(got, (datetime.date, datetime.datetime)):
        got = got.isoformat()
    if isinstance(expected, (datetime.date, datetime.datetime)):
        expected = expected.isoformat()
    if isinstance(got, (int, float)) and isinstance(expected, (int, float)):
        return math.isclose(got, expected, rel_tol=REL_TOL, abs_tol=1e-12)
    return got == expected


def rows_match(got: Optional[Sequence], expected: Sequence) -> bool:
    """Row by row, in order; floats to 6 significant digits, dates as ISO
    text.  ``got`` may come off the wire (lists, ISO dates) or from a
    ``Result`` (tuples, ``datetime.date``)."""
    if got is None or len(got) != len(expected):
        return False
    for got_row, expected_row in zip(got, expected):
        if len(got_row) != len(expected_row):
            return False
        if not all(map(_cell_matches, got_row, expected_row)):
            return False
    return True


class Verifier:
    """Checks a statement's rows against its expected rows.

    Rows equal to rows that already passed are accepted without another
    comparison; that is exact equality with a verified value, so nothing
    wrong can slip through on the fast path.
    """

    def __init__(self, expected: dict):
        self.expected = expected
        self._passed: dict = {}
        self.attempted = 0
        self.failed = 0

    def check(self, name: str, rows) -> bool:
        self.attempted += 1
        if rows is not None and rows == self._passed.get(name):
            return True
        if rows_match(rows, self.expected[name]):
            self._passed[name] = rows
            return True
        self.failed += 1
        return False
