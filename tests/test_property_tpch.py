"""Property tests for the TPC-H measure layer (hypothesis).

Two invariants the workload's summary machinery must never break:

* **drill-down additivity** — summing a SUM-measure across any region
  drill-down equals evaluating it at the grand total.  Tested with
  binary-exact inputs (integer prices, discounts in sixteenths), so the
  equality is exact ``==``, not approximate: any difference is a real
  aggregation bug, not float noise;
* **refresh coherence** — after an arbitrary interleaving of INSERTs and
  REFRESHes, a database answering from summary tables returns exactly what
  a summary-less twin computes cold;
* **one write clock** — after any interleaving of writes (failing ones
  included), REFRESH, view replacement and ANALYZE, through a session or
  directly, a cached plan, the direct API and a summary-less run agree, and
  summary and ANALYZE staleness are what the writes made them.

The tables here are lineitem-shaped but tiny and adversarial (hypothesis
picks the values); the full-size generated workload is covered by
tests/test_differential_tpch.py.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database
from tests.conftest import BothWays
from tests.test_visible_semijoin import reference_visible

REGIONS = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]

# price * (1 - k/16) = price * (16 - k) / 16: exact in binary for any
# integer price in range, so SUMs commute with regrouping exactly.
sale_strategy = st.tuples(
    st.sampled_from(REGIONS),
    st.integers(1992, 1998),          # orderYear
    st.integers(0, 10_000),           # extendedprice (integer money)
    st.integers(0, 8),                # discount in sixteenths
    st.integers(1, 50),               # quantity
)

sales_strategy = st.lists(sale_strategy, min_size=1, max_size=30)

SCHEMA = [
    ("region", "VARCHAR"),
    ("orderYear", "INTEGER"),
    ("extendedprice", "INTEGER"),
    ("sixteenths", "INTEGER"),
    ("quantity", "INTEGER"),
]

MEASURE_VIEW = """
    CREATE VIEW sales_m AS
    SELECT region, orderYear,
           SUM(extendedprice * (1 - sixteenths / 16.0)) AS MEASURE revenue,
           SUM(quantity) AS MEASURE total_qty
    FROM sales
"""

SUMMARY = """
    CREATE MATERIALIZED VIEW rev_by_region_year AS
    SELECT region, orderYear,
           AGGREGATE(revenue) AS revenue,
           AGGREGATE(total_qty) AS total_qty
    FROM sales_m GROUP BY region, orderYear
"""


#: The same measures over a join, where column pruning has something to cut:
#: ``geo`` carries columns no query reads.
GEO = [(region, region[:2], index, "x" * index) for index, region in enumerate(REGIONS)]
GEO_SCHEMA = [
    ("region", "VARCHAR"), ("code", "VARCHAR"), ("rank", "INTEGER"), ("note", "VARCHAR")
]
JOINED_VIEW = """
    CREATE VIEW sales_geo_m AS
    SELECT g.code, s.region, s.orderYear, s.quantity,
           SUM(s.extendedprice * (1 - s.sixteenths / 16.0)) AS MEASURE revenue,
           SUM(s.quantity) AS MEASURE total_qty
    FROM sales AS s JOIN geo AS g ON s.region = g.region
"""


def build(rows, *, summaries: bool) -> BothWays:
    """Every statement of every property below runs both ways: on the
    database under test and on its optimizer-off twin."""

    def one(**options) -> Database:
        db = Database(**options)
        db.create_table_from_rows("sales", SCHEMA, rows)
        db.create_table_from_rows("geo", GEO_SCHEMA, GEO)
        db.execute(MEASURE_VIEW)
        db.execute(JOINED_VIEW)
        if summaries:
            db.execute(SUMMARY)
        return db

    return BothWays(one)


@settings(max_examples=60, deadline=None)
@given(sales_strategy)
def test_drilldown_additivity(rows):
    """Sum of revenue over any drill-down == revenue at the grand total."""
    db = build(rows, summaries=False)
    total = db.execute("SELECT AGGREGATE(revenue) FROM sales_m").rows[0][0]
    for dimension in ("region", "orderYear"):
        parts = db.execute(
            f"SELECT {dimension}, revenue FROM sales_m GROUP BY {dimension}"
        ).rows
        assert sum(part[1] for part in parts) == total
    # The same invariant through AT (ALL): every group sees the grand total.
    shares = db.execute(
        "SELECT region, revenue AT (ALL region) FROM sales_m GROUP BY region"
    ).rows
    assert all(value == total for _, value in shares)


@settings(max_examples=60, deadline=None)
@given(sales_strategy)
def test_summary_rollup_equals_cold(rows):
    """Roll-ups answered from the (region, year) summary are exactly the
    cold answers — binary-exact inputs make re-summed partials exact too."""
    cold = build(rows, summaries=False)
    hot = build(rows, summaries=True)
    for sql in (
        "SELECT region, revenue FROM sales_m GROUP BY region ORDER BY region",
        "SELECT orderYear, revenue, total_qty FROM sales_m GROUP BY orderYear ORDER BY orderYear",
        "SELECT AGGREGATE(total_qty) FROM sales_m",
    ):
        assert hot.execute(sql).rows == cold.execute(sql).rows, sql
    assert any(view["hits"] for view in hot.summary_stats().values())


dml_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), sale_strategy),
        st.tuples(st.just("refresh"), st.none()),
    ),
    min_size=1,
    max_size=12,
)


@settings(max_examples=40, deadline=None)
@given(sales_strategy, dml_strategy)
def test_matview_hit_equals_cold_after_interleaved_dml(rows, operations):
    """Arbitrary INSERT/REFRESH interleavings never let the summary serve a
    wrong answer: stale summaries are skipped, refreshed ones agree."""
    hot = build(rows, summaries=True)
    cold = build(rows, summaries=False)
    for kind, sale in operations:
        if kind == "insert":
            region, year, price, sixteenths, qty = sale
            dml = (
                f"INSERT INTO sales VALUES "
                f"('{region}', {year}, {price}, {sixteenths}, {qty})"
            )
            hot.execute(dml)
            cold.execute(dml)
        else:
            hot.execute("REFRESH MATERIALIZED VIEW rev_by_region_year")
    # A final refresh so the last interleaving suffix is also validated in
    # the hit path (without it the summary may be stale => cold fallback,
    # which is correct but tests nothing new).
    hot.execute("REFRESH MATERIALIZED VIEW rev_by_region_year")
    query = "SELECT region, revenue FROM sales_m GROUP BY region ORDER BY region"
    assert hot.execute(query).rows == cold.execute(query).rows
    assert any(view["hits"] for view in hot.summary_stats().values())


@settings(max_examples=40, deadline=None)
@given(sales_strategy)
def test_joined_view_agrees_with_the_single_table_view(rows):
    """The measures over ``sales JOIN geo`` — whose plans are cut to the
    columns each query reads — equal the ones over ``sales`` alone, through
    roll-ups, AT modifiers, VISIBLE under a filter and row-grain contexts."""
    db = build(rows, summaries=False)
    for select, tail in (
        ("region, revenue, total_qty", "GROUP BY region ORDER BY region"),
        ("orderYear, revenue AT (ALL orderYear)", "GROUP BY orderYear ORDER BY orderYear"),
        (
            "orderYear, revenue AT (SET orderYear = CURRENT orderYear - 1)",
            "GROUP BY orderYear ORDER BY orderYear",
        ),
        (
            "region, AGGREGATE(revenue), revenue AT (WHERE orderYear > 1994)",
            "WHERE orderYear < 1997 GROUP BY region ORDER BY region",
        ),
        (
            "region, orderYear, AGGREGATE(total_qty)",
            "GROUP BY ROLLUP(region, orderYear) "
            "ORDER BY region NULLS LAST, orderYear NULLS LAST",
        ),
    ):
        joined = db.execute(f"SELECT {select} FROM sales_geo_m {tail}").rows
        assert joined == db.execute(f"SELECT {select} FROM sales_m {tail}").rows
    by_code = db.execute(
        "SELECT code, revenue FROM sales_geo_m GROUP BY code ORDER BY code"
    ).rows
    by_region = db.execute(
        "SELECT region, revenue FROM sales_m GROUP BY region ORDER BY region"
    ).rows
    assert sorted(v for _, v in by_code) == sorted(v for _, v in by_region)


@settings(max_examples=40, deadline=None)
@given(sales_strategy, st.integers(0, 5), st.integers(1992, 1998))
def test_aggregate_across_a_join_equals_the_visible_definition(rows, rank, year):
    """``AGGREGATE()`` grouped by the *other* relation's columns — the hash
    semijoin with group-side enumeration — equals the VISIBLE definition
    (rescan the group per candidate), and plain SQL where plain SQL says the
    same thing."""
    db = build(rows, summaries=False)
    for on, where, group_by in (
        ("s.region = g.region", "g.rank < ?", "g.code"),
        ("s.region = g.region", "s.orderYear >= ? AND g.rank <> 2", "g.code, s.orderYear"),
        ("s.region = g.region AND s.orderYear > 1992 + g.rank", "s.orderYear < ?", "ROLLUP(g.code)"),
        ("s.orderYear - 1992 = g.rank", "g.rank < ?", "g.region"),
    ):
        sql = (
            "SELECT AGGREGATE(s.total_qty), s.revenue AT (VISIBLE), COUNT(*) "
            f"FROM sales_m AS s JOIN geo AS g ON {on} WHERE {where} GROUP BY {group_by}"
        )
        params = (year if "orderYear" in where else rank,)
        got = db.execute(sql, params).rows
        with reference_visible():
            assert got == db.execute(sql, params).rows, sql
    # One sale is one source row of sales_m, so the measure's own grain is
    # the join's: the visible quantity is the plain SUM.
    measured = db.execute(
        "SELECT g.code, AGGREGATE(s.total_qty) FROM sales_m AS s "
        "JOIN geo AS g ON s.region = g.region WHERE g.rank < ? "
        "GROUP BY g.code ORDER BY g.code", (rank,)
    ).rows
    plain = db.execute(
        "SELECT g.code, SUM(s.quantity) FROM sales AS s "
        "JOIN geo AS g ON s.region = g.region WHERE g.rank < ? "
        "GROUP BY g.code ORDER BY g.code", (rank,)
    ).rows
    assert measured == plain


# -- writes x readers: every reader reads the one write clock --------------------

#: Two tables, a view, a summary an INSERT merges into and one it cannot
#: (it reads the view).
CLOCK_SCHEMA = (
    "CREATE VIEW sales_geo AS SELECT g.code, s.quantity "
    "FROM sales AS s JOIN geo AS g ON s.region = g.region",
    "CREATE MATERIALIZED VIEW by_year AS SELECT region, orderYear, "
    "SUM(quantity) AS q, COUNT(*) AS n, MIN(extendedprice) AS lo "
    "FROM sales GROUP BY region, orderYear",
    "CREATE MATERIALIZED VIEW by_code AS SELECT code, SUM(quantity) AS q "
    "FROM sales_geo GROUP BY code",
)
READERS = (
    "SELECT region, SUM(quantity), COUNT(*) FROM sales GROUP BY region ORDER BY region",
    "SELECT orderYear, MIN(extendedprice) FROM sales GROUP BY orderYear ORDER BY orderYear",
    "SELECT code, SUM(quantity) FROM sales_geo GROUP BY code ORDER BY code",
)
#: What each summary reads.
SOURCES = {"by_year": {"sales"}, "by_code": {"sales", "geo"}}


def _values(sales) -> str:
    return ", ".join(f"('{r}', {y}, {p}, {s}, {q})" for r, y, p, s, q in sales)


write_step = st.one_of(
    st.tuples(st.just("insert"), st.lists(sale_strategy, min_size=1, max_size=3)),
    st.tuples(st.just("insert_fails"), st.lists(sale_strategy, max_size=2)),
    st.tuples(st.just("update"), st.sampled_from(REGIONS)),
    st.tuples(st.just("update_fails"), st.none()),
    st.tuples(st.just("delete"), st.tuples(st.sampled_from(["sales", "geo"]), st.sampled_from(REGIONS))),
    st.tuples(st.just("truncate"), st.sampled_from(["sales", "geo"])),
    st.tuples(st.just("refresh"), st.sampled_from(sorted(SOURCES))),
    st.tuples(st.just("replace_view"), st.integers(1, 3)),
    st.tuples(st.just("analyze"), st.sampled_from(["", "sales", "geo"])),
)
#: Each step through a session (True) or the direct API (False).
write_steps = st.lists(st.tuples(write_step, st.booleans()), min_size=1, max_size=10)


def _statement(kind: str, arg) -> tuple:
    """``(sql, table written or None)`` of one step."""
    if kind == "insert":
        return f"INSERT INTO sales VALUES {_values(arg)}", "sales"
    if kind == "insert_fails":  # the last row's quantity is no INTEGER
        return f"INSERT INTO sales VALUES {_values([*arg, ('ASIA', 1995, 1, 1, 2.5)])}", "sales"
    if kind in ("update", "update_fails"):
        other = "quantity + 1" if kind == "update" else "2.5"
        return (
            f"UPDATE sales SET quantity = CASE WHEN region = '{arg}' "
            f"THEN quantity + 1 ELSE {other} END",
            "sales",
        )
    if kind == "delete":
        return f"DELETE FROM {arg[0]} WHERE region = '{arg[1]}'", arg[0]
    if kind == "truncate":
        return f"TRUNCATE TABLE {arg}", arg
    if kind == "refresh":
        return f"REFRESH MATERIALIZED VIEW {arg}", None
    if kind == "replace_view":
        return (
            f"CREATE OR REPLACE VIEW sales_geo AS SELECT g.code, s.quantity * {arg} "
            "AS quantity FROM sales AS s JOIN geo AS g ON s.region = g.region",
            None,
        )
    return f"ANALYZE {arg}".strip(), None


def check_writes_and_readers(rows, steps) -> None:
    """After every step, through a session and directly: the session's answer
    is the direct one is the summary-less one; a summary is stale iff a
    source was written since its last refresh or merge; ``mods_since_analyze``
    counts the rows touched since the last ANALYZE."""
    from repro.errors import SqlError
    from repro.server import SessionManager

    db = Database()
    db.create_table_from_rows("sales", SCHEMA, rows)
    db.create_table_from_rows("geo", GEO_SCHEMA, GEO)
    for ddl in CLOCK_SCHEMA:
        db.execute(ddl)
    session = SessionManager(db).open_session()
    stale = dict.fromkeys(SOURCES, False)
    mods: dict = {}  # analyzed table -> rows touched since
    for (kind, arg), through_session in steps:
        stored = db.catalog.base_table("sales").table.rows
        if kind == "update_fails" and stored:
            arg = stored[0][0]  # rewrites the first row before it fails
        sql, table = _statement(kind, arg)
        try:
            result = (session if through_session else db).execute(sql)
        except SqlError:
            assert kind in ("insert_fails", "update_fails"), sql
        else:
            assert kind != "insert_fails", sql
            touched = result.rowcount if table else 0
            if touched:
                for view, sources in SOURCES.items():
                    merged = kind == "insert" and view == "by_year"
                    if table in sources and not merged:
                        stale[view] = True
                if table in mods:
                    mods[table] += touched
            if kind == "refresh":
                stale[arg] = False
            elif kind == "replace_view":
                stale["by_code"] = True
            elif kind == "analyze":
                mods.update(dict.fromkeys([arg] if arg else ["sales", "geo"], 0))
        for query in READERS:
            served = session.execute(query).rows
            direct = db.execute(query).rows
            db.summaries_enabled = False
            cold = db.execute(query).rows
            db.summaries_enabled = True
            assert served == direct == cold, (sql, query)
        assert {v: s["stale"] for v, s in db.summary_stats().items()} == stale, sql
        assert {t: db.catalog.mods_since_analyze(t) for t in mods} == mods, sql


@settings(max_examples=120, deadline=None, derandomize=True)
@given(sales_strategy, write_steps)
def test_writes_and_readers_read_one_clock(rows, steps):
    check_writes_and_readers(rows, steps)


@pytest.mark.slow
@settings(max_examples=500, deadline=None)
@given(sales_strategy, write_steps)
def test_writes_and_readers_read_one_clock_open_ended(rows, steps):
    check_writes_and_readers(rows, steps)
