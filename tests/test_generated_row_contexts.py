"""Generated row-grain contexts, as a measure and as a correlated subquery.

A hypothesis generator of row-grain queries —

    SELECT dims, m [AT (WHERE d = v.d [AND d2 = v.d2])] ... FROM view AS v [WHERE ...]

(a bare ``m`` only without WHERE, which it would bake in)

and of the same contexts written without measures, over the view's
measure-free source (``sj`` for the star ``sv``, ``oj`` for the paper's
``ov``)::

    SELECT dims, (SELECT formula FROM source AS i
                  WHERE i.d = v.d [AND i.d2 = v.d2]) ... FROM source AS v [WHERE ...]

where a bare ``m``, evaluated over the output's dimensions, pins each one
shown with ``IS NOT DISTINCT FROM``.  The star's fact rows are generated
and NULL-heavy: a NULL key matches no row
under ``=`` and every NULL-key row under ``IS NOT DISTINCT FROM``.  Both
forms must give the same rows from the interpreter and, for the ``window``
and ``subquery`` strategies, from the engine and from SQLite running the
expansion's text.  The window strategy takes every query generated here, so
``auto`` prints the window strategy's text.  Derandomized, so tier-1 sees the same examples on every run.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Database
from repro.workloads.paper_data import load_paper_tables
from tests.test_generated_contexts import (
    PAPER_SETUP,
    STAR_SETUP,
    _sorted,
    _sqlite,
    prods_rows,
    sales_rows,
)

SOURCE_SETUP = [
    "CREATE VIEW oj AS SELECT prodName, custName, YEAR(orderDate) AS orderYear, "
    "revenue, cost FROM Orders",
]

#: view -> (its measure-free source, its dimensions, measure -> formula).
UNIVERSES = {
    "sv": ("sj", ["region", "yr", "prod", "cat"],
           {"total": "SUM(i.amt)", "cnt": "COUNT(*)", "lo": "MIN(i.amt)"}),
    "ov": ("oj", ["prodName", "custName", "orderYear"],
           {"rev": "SUM(i.revenue)", "cnt": "COUNT(*)", "hi": "MAX(i.cost)"}),
}

@st.composite
def queries(draw):
    """``(measure form, subquery form)`` of one row-grain query."""
    view = draw(st.sampled_from(sorted(UNIVERSES)))
    source, dims, formulas = UNIVERSES[view]
    shown = draw(st.lists(st.sampled_from(dims), min_size=1, max_size=3, unique=True))
    filtered = ""
    if draw(st.booleans()):
        dim = draw(st.sampled_from(dims))
        filtered = draw(st.sampled_from([f" WHERE v.{dim} IS NOT NULL", f" WHERE v.{dim} IS NULL"]))
    measured, correlated = [], []
    for index in range(draw(st.integers(1, 2))):
        measure = draw(st.sampled_from(sorted(formulas)))
        # (A bare measure bakes the query's WHERE in: no window form.)
        fewest = 1 if filtered else 0
        pinned = draw(st.lists(st.sampled_from(dims), min_size=fewest, max_size=2, unique=True))
        if pinned:
            at = " AND ".join(f"{dim} = v.{dim}" for dim in pinned)
            measured.append(f"{measure} AT (WHERE {at}) AS m{index}")
            where = " AND ".join(f"i.{dim} = v.{dim}" for dim in pinned)
        else:
            measured.append(f"{measure} AS m{index}")
            where = " AND ".join(f"i.{dim} IS NOT DISTINCT FROM v.{dim}" for dim in shown)
        correlated.append(
            f"(SELECT {formulas[measure]} FROM {source} AS i WHERE {where}) AS m{index}"
        )
    keys = ", ".join(f"v.{dim}" for dim in shown)
    return (
        f"SELECT {keys}, {', '.join(measured)} FROM {view} AS v{filtered}",
        f"SELECT {keys}, {', '.join(correlated)} FROM {source} AS v{filtered}",
    )


def _database(sales, prods):
    db = Database()
    load_paper_tables(db)
    db.execute("CREATE TABLE sales (region VARCHAR, yr INTEGER, prod VARCHAR, amt INTEGER)")
    db.execute("CREATE TABLE prods (prod VARCHAR, cat VARCHAR)")
    if sales:
        db.catalog.base_table("sales").table.insert_many(sales)
    if prods:
        db.catalog.base_table("prods").table.insert_many(prods)
    for ddl in STAR_SETUP + PAPER_SETUP + SOURCE_SETUP:
        db.execute(ddl)
    return db


@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(sales_rows, prods_rows, queries())
def test_generated_row_contexts_agree(sales, prods, query):
    db = _database(sales, prods)
    lite = _sqlite(sales, prods)
    expected = _sorted(db.execute(query[0]).rows)
    for sql in query:
        assert _sorted(db.execute(sql).rows) == expected, query
        for strategy in ("window", "subquery"):
            expanded = db.expand(sql, strategy=strategy)
            assert _sorted(db.execute(expanded).rows) == expected, (strategy, sql, expanded)
            got = _sorted(lite.execute(expanded).fetchall())
            assert got == expected, (strategy, sql, expanded)
        # The window strategy takes the query, so ``auto`` prints its text.
        assert db.expand(sql, strategy="auto") == db.expand(sql, strategy="window")
    lite.close()
