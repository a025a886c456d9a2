"""Generated equality-context measure queries, four ways.

A hypothesis generator of measure *queries* —

    SELECT dims, m [AT (ALL d | SET d = CURRENT d +/- k | WHERE d = v.d | WHERE d = ?)]
    FROM v [WHERE ...] GROUP BY dims | ROLLUP(dims)

with one to three grouping dimensions — over the paper's Orders table and a
small star whose fact rows are generated, NULL-heavy, and whose dimension
table may be empty.  Every query must give the same rows from the
interpreter, ``Database(cache=False)`` (no memo, no grouping: every row
tested), ``Database(optimizer=False)`` and SQLite running ``db.expand()``'s
text.  The only queries SQLite does not see are those the expansion refuses
by name (:data:`REFUSED`); any other error must be the same on every leg.
Derandomized, so tier-1 sees the same examples on every run.
"""

from __future__ import annotations

import re
import sqlite3

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Database, UnsupportedError
from repro.errors import SqlError
from repro.workloads.paper_data import CUSTOMERS, ORDERS, load_paper_tables
from tests.test_expansion import _AnyValue

#: What ``unbind`` may refuse to print (``static expansion cannot print
#: <construct>``) in a generated query; the interpreter legs still agree.
REFUSED: frozenset = frozenset()

STAR_SETUP = [
    "CREATE VIEW sj AS SELECT s.region, s.yr, s.prod, p.cat, s.amt "
    "FROM sales AS s LEFT JOIN prods AS p ON s.prod = p.prod",
    "CREATE VIEW sv AS SELECT region, yr, prod, cat, SUM(amt) AS MEASURE total, "
    "COUNT(*) AS MEASURE cnt, MIN(amt) AS MEASURE lo FROM sj",
]
PAPER_SETUP = [
    "CREATE VIEW ov AS SELECT prodName, custName, YEAR(orderDate) AS orderYear, "
    "SUM(revenue) AS MEASURE rev, COUNT(*) AS MEASURE cnt, "
    "MAX(cost) AS MEASURE hi FROM Orders",
]

#: view -> (its dimensions, the integer ones, its measures, values to compare with).
UNIVERSES = {
    "sv": (
        ["region", "yr", "prod", "cat"],
        ["yr"],
        ["total", "cnt", "lo"],
        {"region": ["'n'", "'s'"], "yr": ["2020", "2021"], "prod": ["'a'", "'b'"],
         "cat": ["'x'"]},
    ),
    "ov": (
        ["prodName", "custName", "orderYear"],
        ["orderYear"],
        ["rev", "cnt", "hi"],
        {"prodName": ["'Happy'", "'Acme'"], "custName": ["'Bob'"],
         "orderYear": ["2023", "2024"]},
    ),
}

PARAMETER_VALUES = {
    "region": ["n", "s", None], "yr": [2020, 2021, None], "prod": ["a", "b", None],
    "cat": ["x", "y", None], "prodName": ["Happy", "Whizz", None],
    "custName": ["Alice", "Bob", None], "orderYear": [2023, 2024, None],
}

sales_rows = st.lists(
    st.tuples(
        st.sampled_from([None, "n", "s"]),
        st.sampled_from([None, 2020, 2021, 2022]),
        st.sampled_from([None, "a", "b", "c"]),
        st.integers(-5, 20),
    ),
    max_size=12,
)
prods_rows = st.lists(
    st.tuples(st.sampled_from(["a", "b", "c"]), st.sampled_from([None, "x", "y"])),
    max_size=3,  # often empty: every category NULL
)


@st.composite
def queries(draw):
    """``(view, sql, params)``, with at most one ``?``."""
    view = draw(st.sampled_from(sorted(UNIVERSES)))
    dims, integers, measures, constants = UNIVERSES[view]
    grouped = draw(st.lists(st.sampled_from(dims), min_size=1, max_size=3, unique=True))
    params: list = []
    items = []
    for index in range(draw(st.integers(1, 2))):
        measure = draw(st.sampled_from(measures))
        kinds = ["plain", "all", "set", "where-site"] + ([] if params else ["where-param"])
        kind = draw(st.sampled_from(kinds))
        if kind == "all":
            measure += f" AT (ALL {draw(st.sampled_from(dims))})"
        elif kind == "set":
            dim = draw(st.sampled_from(integers))
            sign = draw(st.sampled_from(["+", "-"]))
            measure += f" AT (SET {dim} = CURRENT {dim} {sign} {draw(st.integers(0, 2))})"
        elif kind == "where-site":
            dim = draw(st.sampled_from(grouped))
            measure += f" AT (WHERE {dim} = v.{dim})"
        elif kind == "where-param":
            dim = draw(st.sampled_from(dims))
            measure += f" AT (WHERE {dim} = ?)"
            params.append(draw(st.sampled_from(PARAMETER_VALUES[dim])))
        items.append(f"{measure} AS m{index}")
    where = ""
    if draw(st.booleans()):
        dim = draw(st.sampled_from(dims))
        where = draw(st.sampled_from([
            f" WHERE {dim} IS NOT NULL",
            f" WHERE {dim} IS NULL",
            f" WHERE {dim} = {draw(st.sampled_from(constants[dim]))}",
        ]))
    keys = ", ".join(grouped)
    group = f"ROLLUP({keys})" if draw(st.booleans()) else keys
    sql = f"SELECT {keys}, {', '.join(items)} FROM {view} AS v{where} GROUP BY {group}"
    return view, sql, tuple(params)


def _databases(sales, prods):
    built = []
    for options in ({}, {"cache": False}, {"optimizer": False}):
        db = Database(**options)
        load_paper_tables(db)
        db.execute("CREATE TABLE sales (region VARCHAR, yr INTEGER, prod VARCHAR, amt INTEGER)")
        db.execute("CREATE TABLE prods (prod VARCHAR, cat VARCHAR)")
        if sales:
            db.catalog.base_table("sales").table.insert_many(sales)
        if prods:
            db.catalog.base_table("prods").table.insert_many(prods)
        for ddl in STAR_SETUP + PAPER_SETUP:
            db.execute(ddl)
        built.append(db)
    return built


def _sqlite(sales, prods):
    connection = sqlite3.connect(":memory:")
    connection.execute("CREATE TABLE sales (region TEXT, yr INTEGER, prod TEXT, amt INTEGER)")
    connection.executemany("INSERT INTO sales VALUES (?, ?, ?, ?)", sales)
    connection.execute("CREATE TABLE prods (prod TEXT, cat TEXT)")
    connection.executemany("INSERT INTO prods VALUES (?, ?)", prods)
    connection.execute("CREATE TABLE Customers (custName TEXT, custAge INTEGER)")
    connection.executemany("INSERT INTO Customers VALUES (?, ?)", CUSTOMERS)
    connection.execute(
        "CREATE TABLE Orders (prodName TEXT, custName TEXT, orderDate TEXT, "
        "revenue INTEGER, cost INTEGER)"
    )
    connection.executemany("INSERT INTO Orders VALUES (?, ?, ?, ?, ?)", ORDERS)
    connection.create_function(
        "YEAR", 1, lambda text: None if text is None else int(text[:4])
    )
    connection.create_aggregate("ANY_VALUE", 1, _AnyValue)
    return connection


def _sorted(rows):
    return sorted(rows, key=lambda row: [(v is None, repr(v)) for v in row])


def _outcome(db, sql, params):
    try:
        return "rows", _sorted(db.execute(sql, params).rows)
    except SqlError as exc:
        return "error", f"{type(exc).__name__}: {exc}"


@settings(
    max_examples=250,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(sales_rows, prods_rows, queries())
def test_generated_contexts_agree_four_ways(sales, prods, query):
    _, sql, params = query
    interpreter, uncached, unoptimized = _databases(sales, prods)
    outcome = _outcome(interpreter, sql, params)
    assert _outcome(uncached, sql, params) == outcome, sql
    assert _outcome(unoptimized, sql, params) == outcome, sql
    kind, rows = outcome
    if kind == "error":
        return
    try:
        expanded = interpreter.expand(sql)
    except UnsupportedError as exc:
        refused = re.match(r"static expansion cannot print (.+?);", str(exc))
        assert refused and refused.group(1) in REFUSED, str(exc)
        return
    # At most one ``?``, printed once per use.
    got = _sqlite(sales, prods).execute(expanded, params * expanded.count("?"))
    assert _sorted(got.fetchall()) == rows, (sql, expanded)
