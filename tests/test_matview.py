"""Materialized summary tables: DDL, subsumption rewriting, roll-up
correctness (differential against plain expansion), staleness on DML,
incremental insert maintenance, and observability."""

from __future__ import annotations

import pytest

from repro import CatalogError, Database, SqlError
from repro.catalog.objects import MaterializedView

ORDERS = [
    ("A", "x", "2024-01-01", 10, 4),
    ("A", "y", "2024-01-02", 20, 9),
    ("A", "y", "2024-02-11", 7, 2),
    ("B", "x", "2024-02-01", 30, 10),
    ("B", "y", "2024-02-02", 5, 1),
    ("C", "z", "2024-03-05", 7, 3),
    ("C", "x", "2024-03-06", 11, 6),
]


def make_db(*, summaries: bool = True) -> Database:
    db = Database(summaries=summaries)
    db.create_table_from_rows(
        "Orders",
        [
            ("prodName", "VARCHAR"),
            ("custName", "VARCHAR"),
            ("orderDate", "VARCHAR"),
            ("revenue", "INTEGER"),
            ("cost", "INTEGER"),
        ],
        ORDERS,
    )
    return db


@pytest.fixture
def mdb() -> Database:
    db = make_db()
    db.execute(
        """CREATE MATERIALIZED VIEW prod_cust AS
           SELECT prodName, custName,
                  SUM(revenue) AS rev, COUNT(*) AS n,
                  MIN(revenue) AS lo, MAX(revenue) AS hi,
                  AVG(revenue) AS avg_rev
           FROM Orders GROUP BY prodName, custName"""
    )
    return db


def truth(sql: str) -> list[tuple]:
    """The same query answered without summaries (differential oracle)."""
    return make_db(summaries=False).execute(sql).rows


def answered_from(db: Database, sql: str, view: str) -> bool:
    lines = [row[0] for row in db.execute(f"EXPLAIN {sql}").rows]
    return any(f"answered from materialized view {view}" in line for line in lines)


# -- DDL ---------------------------------------------------------------------


def test_create_materializes_rows(mdb):
    view = mdb.catalog.get("prod_cust")
    assert isinstance(view, MaterializedView)
    assert len(view.table) == len(truth("SELECT DISTINCT prodName, custName FROM Orders"))
    assert not view.stale


def test_create_rejects_duplicates_and_or_replace(mdb):
    with pytest.raises(CatalogError):
        mdb.execute(
            "CREATE MATERIALIZED VIEW prod_cust AS "
            "SELECT prodName, SUM(revenue) AS r FROM Orders GROUP BY prodName"
        )
    mdb.execute(
        "CREATE OR REPLACE MATERIALIZED VIEW prod_cust AS "
        "SELECT prodName, SUM(revenue) AS r FROM Orders GROUP BY prodName"
    )
    assert [d.name for d in mdb.catalog.get("prod_cust").definition.dimensions] == [
        "prodName"
    ]


def test_create_requires_group_by_shape(mdb):
    for bad in [
        "SELECT prodName, revenue FROM Orders",  # no aggregate
        "SELECT prodName, SUM(revenue) AS r FROM Orders GROUP BY prodName ORDER BY 1",
        "SELECT prodName, SUM(revenue) AS r FROM Orders GROUP BY ROLLUP(prodName)",
        "SELECT prodName, SUM(revenue) FROM Orders GROUP BY prodName",  # no alias
    ]:
        with pytest.raises(CatalogError):
            mdb.execute(f"CREATE MATERIALIZED VIEW bad AS {bad}")


def test_drop_requires_matching_kind(mdb):
    with pytest.raises(CatalogError):
        mdb.execute("DROP TABLE prod_cust")
    with pytest.raises(CatalogError):
        mdb.execute("DROP VIEW prod_cust")
    mdb.execute("DROP MATERIALIZED VIEW prod_cust")
    assert mdb.catalog.get("prod_cust") is None


def test_matview_rejects_dml(mdb):
    with pytest.raises(CatalogError):
        mdb.execute("INSERT INTO prod_cust VALUES ('A', 'x', 1, 1, 1, 1, 1.0)")
    with pytest.raises(CatalogError):
        mdb.execute("DELETE FROM prod_cust")


# -- subsumption rewriting, differential against expansion -------------------

ROLLUP_QUERIES = [
    # exact grouping
    """SELECT prodName, custName, SUM(revenue), COUNT(*), MIN(revenue),
              MAX(revenue), AVG(revenue)
       FROM Orders GROUP BY prodName, custName ORDER BY 1, 2""",
    # subset grouping: partials re-aggregate
    """SELECT prodName, SUM(revenue), COUNT(*), MIN(revenue), MAX(revenue),
              AVG(revenue)
       FROM Orders GROUP BY prodName ORDER BY prodName""",
    # global grain
    "SELECT SUM(revenue), COUNT(*), MIN(revenue), MAX(revenue), AVG(revenue) FROM Orders",
    # residual WHERE over dimensions only
    """SELECT custName, SUM(revenue) FROM Orders
       WHERE prodName <> 'B' GROUP BY custName ORDER BY custName""",
    # HAVING and ORDER BY translated through the summary
    """SELECT prodName, SUM(revenue) AS total FROM Orders
       GROUP BY prodName HAVING SUM(revenue) > 20 ORDER BY total DESC""",
]


@pytest.mark.parametrize("sql", ROLLUP_QUERIES)
def test_summary_answers_match_expansion(mdb, sql):
    assert answered_from(mdb, sql, "prod_cust")
    oracle = make_db(summaries=False).execute(sql)
    got = mdb.execute(sql)
    assert got.rows == oracle.rows
    # identical result-column names too: the roll-up expressions must not
    # leak into the output (COUNT(*) surfacing as "coalesce").
    assert [c.name for c in got.columns] == [c.name for c in oracle.columns]


def test_hit_recorded_and_visible_in_stats(mdb):
    sql = "SELECT prodName, SUM(revenue) FROM Orders GROUP BY prodName"
    mdb.execute(sql)
    stats = mdb.summary_stats()["prod_cust"]
    assert stats["hits"] == 1
    assert stats["stale"] is False


def test_reject_ungrouped_column(mdb):
    sql = "SELECT orderDate, SUM(revenue) FROM Orders GROUP BY orderDate"
    assert not answered_from(mdb, sql, "prod_cust")
    assert mdb.execute(sql).rows == truth(sql)
    stats = mdb.summary_stats()["prod_cust"]
    assert stats["rejects"] == 1
    # The reason spells the grouping expression as the query wrote it.
    assert "orderDate" in stats["last_reject_reason"]


def test_reject_unstored_aggregate(mdb):
    # SUM(cost) is not materialized.
    sql = "SELECT prodName, SUM(cost) FROM Orders GROUP BY prodName"
    assert not answered_from(mdb, sql, "prod_cust")
    assert mdb.execute(sql).rows == truth(sql)


def test_unstored_aggregate_over_dimension_rejected(mdb):
    # COUNT(custName)'s argument is a stored dimension; translating it would
    # count summary rows (groups) instead of base rows, so the candidate must
    # be rejected, never mistranslated.
    sql = """SELECT prodName, COUNT(custName) FROM Orders
             GROUP BY prodName ORDER BY prodName"""
    assert not answered_from(mdb, sql, "prod_cust")
    assert mdb.execute(sql).rows == truth(sql)


def test_count_star_not_stored_rejected():
    db = make_db()
    db.execute(
        """CREATE MATERIALIZED VIEW by_prod AS
           SELECT prodName, SUM(revenue) AS r FROM Orders GROUP BY prodName"""
    )
    sql = "SELECT prodName, COUNT(*) FROM Orders GROUP BY prodName ORDER BY prodName"
    assert not answered_from(db, sql, "by_prod")
    assert db.execute(sql).rows == truth(sql)


def test_count_star_matches_stored_count_star(mdb):
    # COUNT(*) parses as star_arg (no Star node), so the shape check must not
    # reject it and it must match the stored COUNT(*) measure at any grain.
    for sql in [
        "SELECT custName, COUNT(*) FROM Orders GROUP BY custName ORDER BY custName",
        "SELECT COUNT(*) FROM Orders",
    ]:
        assert answered_from(mdb, sql, "prod_cust")
        assert mdb.execute(sql).rows == truth(sql)


def test_row_level_scalar_function_not_treated_as_aggregate(mdb):
    # A no-GROUP-BY query of scalar function calls stays at row grain; it
    # must bypass summaries entirely, not bind with force_aggregate.
    sql = "SELECT UPPER(prodName) FROM Orders ORDER BY 1"
    assert not answered_from(mdb, sql, "prod_cust")
    assert mdb.execute(sql).rows == truth(sql)


def test_global_aggregate_expression_answered(mdb):
    sql = "SELECT SUM(revenue) + COUNT(*) FROM Orders"
    assert answered_from(mdb, sql, "prod_cust")
    assert mdb.execute(sql).rows == truth(sql)


def test_reject_where_on_non_dimension(mdb):
    sql = """SELECT prodName, SUM(revenue) FROM Orders
             WHERE cost > 2 GROUP BY prodName ORDER BY prodName"""
    assert not answered_from(mdb, sql, "prod_cust")
    assert mdb.execute(sql).rows == truth(sql)


def test_where_subsumption_requires_summary_filter(db):
    db = make_db()
    db.execute(
        """CREATE MATERIALIZED VIEW cheap AS
           SELECT prodName, SUM(revenue) AS r FROM Orders
           WHERE cost < 5 GROUP BY prodName"""
    )
    covered = """SELECT prodName, SUM(revenue) FROM Orders
                 WHERE cost < 5 GROUP BY prodName ORDER BY prodName"""
    uncovered = "SELECT prodName, SUM(revenue) FROM Orders GROUP BY prodName ORDER BY prodName"
    assert answered_from(db, covered, "cheap")
    assert not answered_from(db, uncovered, "cheap")
    assert db.execute(covered).rows == truth(covered)
    assert db.execute(uncovered).rows == truth(uncovered)


def test_smallest_covering_summary_preferred(mdb):
    mdb.execute(
        """CREATE MATERIALIZED VIEW by_prod AS
           SELECT prodName, SUM(revenue) AS r FROM Orders GROUP BY prodName"""
    )
    sql = "SELECT prodName, SUM(revenue) FROM Orders GROUP BY prodName"
    assert answered_from(mdb, sql, "by_prod")
    mdb.execute(sql)
    assert mdb.summary_stats()["by_prod"]["hits"] == 1
    assert mdb.summary_stats()["prod_cust"]["hits"] == 0


def test_summaries_flag_disables_rewrites():
    db = make_db(summaries=False)
    db.execute(
        """CREATE MATERIALIZED VIEW by_prod AS
           SELECT prodName, SUM(revenue) AS r FROM Orders GROUP BY prodName"""
    )
    sql = "SELECT prodName, SUM(revenue) FROM Orders GROUP BY prodName"
    assert not answered_from(db, sql, "by_prod")
    assert db.summary_stats()["by_prod"]["hits"] == 0


# -- AGGREGATE(m) over measure views ----------------------------------------


EO = """CREATE VIEW eo AS
          SELECT prodName, custName, SUM(revenue) AS MEASURE rev,
                 (SUM(revenue) - SUM(cost)) / SUM(revenue) AS MEASURE margin
          FROM Orders"""


@pytest.fixture
def measure_mdb() -> Database:
    db = make_db()
    db.execute(EO)
    db.execute(
        """CREATE MATERIALIZED VIEW eos AS
           SELECT prodName, AGGREGATE(rev) AS rev, AGGREGATE(margin) AS margin
           FROM eo GROUP BY prodName"""
    )
    return db


def measure_truth(sql: str) -> list[tuple]:
    db = make_db(summaries=False)
    db.execute(EO)
    return db.execute(sql).rows


def test_distributive_measure_classified_and_answered(measure_mdb):
    definition = measure_mdb.catalog.get("eos").definition
    kinds = {m.name: definition.rollup(m) for m in definition.measures}
    assert kinds == {"rev": "distributive", "margin": "algebraic"}
    # margin's SUM(revenue) is rev's column; only SUM(cost) is hidden.
    assert [c.name for c in measure_mdb.catalog.get("eos").schema.columns] == [
        "prodName", "rev", "margin", "__margin_sum",
    ]
    for sql in [
        "SELECT prodName, AGGREGATE(rev) FROM eo GROUP BY prodName ORDER BY prodName",
        "SELECT AGGREGATE(rev) FROM eo",
    ]:
        assert answered_from(measure_mdb, sql, "eos")
        assert measure_mdb.execute(sql).rows == measure_truth(sql)


def test_a_bare_measure_under_where_is_not_answered_from_a_summary():
    # A bare measure's context is its group, whatever the WHERE says; only
    # AGGREGATE(rev) (= rev AT (VISIBLE)) reads the WHERE, which is what the
    # summary's cells filtered by a residual dimension predicate give.
    db = make_db()
    db.execute(EO)
    db.execute(
        "CREATE MATERIALIZED VIEW eos AS SELECT prodName, custName, "
        "AGGREGATE(rev) AS rev FROM eo GROUP BY prodName, custName"
    )
    bare = "SELECT prodName, rev FROM eo WHERE custName = 'x' GROUP BY prodName ORDER BY 1"
    assert not answered_from(db, bare, "eos")
    assert db.execute(bare).rows == measure_truth(bare) == [("A", 37), ("B", 35), ("C", 18)]
    stats = db.summary_stats()["eos"]
    assert stats["reject_reasons"] == {"context-ignores-where": 1}
    visible = bare.replace(" rev ", " AGGREGATE(rev) ")
    assert answered_from(db, visible, "eos")
    assert db.execute(visible).rows == measure_truth(visible) == [("A", 10), ("B", 30), ("C", 11)]


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT prodName, SUM(revenue) AS r FROM Orders GROUP BY 1 ORDER BY 1",
        "SELECT prodName AS p, COUNT(*) FROM Orders GROUP BY p ORDER BY p",
        "SELECT custName AS c, AVG(revenue) FROM Orders GROUP BY 1 HAVING MAX(revenue) > 10",
    ],
)
def test_ordinal_and_alias_grouping_match(mdb, sql):
    assert answered_from(mdb, sql, "prod_cust")
    oracle = make_db(summaries=False).execute(sql)
    got = mdb.execute(sql)
    assert got.rows == oracle.rows
    assert [c.name for c in got.columns] == [c.name for c in oracle.columns]


def test_a_view_with_a_column_list_matches():
    db = make_db()
    db.execute(
        "CREATE VIEW ev (p, c, r) AS SELECT prodName, custName, "
        "SUM(revenue) AS MEASURE rev FROM Orders"
    )
    db.execute(
        "CREATE MATERIALIZED VIEW evs AS SELECT p, c, AGGREGATE(r) AS r "
        "FROM ev GROUP BY p, c"
    )
    definition = db.catalog.get("evs").definition
    assert [(m.name, definition.rollup(m)) for m in definition.measures] == [
        ("r", "distributive")
    ]
    cold = make_db(summaries=False)
    cold.execute(
        "CREATE VIEW ev (p, c, r) AS SELECT prodName, custName, "
        "SUM(revenue) AS MEASURE rev FROM Orders"
    )
    for sql in [
        "SELECT p, r FROM ev GROUP BY p, c ORDER BY 1, 2",
        "SELECT p, r FROM ev GROUP BY p ORDER BY 1",
    ]:
        assert answered_from(db, sql, "evs")
        assert db.execute(sql).rows == cold.execute(sql).rows


def test_ratio_measure_rolls_up_and_a_holistic_one_does_not(measure_mdb):
    # The paper's profitMargin: its formula over the SUM states, rolled up.
    for sql in [
        "SELECT prodName, AGGREGATE(margin) FROM eo GROUP BY prodName ORDER BY prodName",
        "SELECT AGGREGATE(margin) FROM eo",
        "SELECT AGGREGATE(margin) FROM eo WHERE prodName <> 'B'",
    ]:
        assert answered_from(measure_mdb, sql, "eos")
        assert measure_mdb.execute(sql).rows == measure_truth(sql)

    holistic = """CREATE VIEW ed AS SELECT prodName, custName,
                  COUNT(DISTINCT custName) AS MEASURE buyers FROM Orders"""
    for db in (measure_mdb, cold := make_db(summaries=False)):
        db.execute(holistic)
    measure_mdb.execute(
        "CREATE MATERIALIZED VIEW eds AS SELECT prodName, AGGREGATE(buyers) "
        "AS buyers FROM ed GROUP BY prodName"
    )
    exact = "SELECT prodName, AGGREGATE(buyers) FROM ed GROUP BY prodName ORDER BY 1"
    coarser = "SELECT AGGREGATE(buyers) FROM ed"
    assert answered_from(measure_mdb, exact, "eds")
    assert not answered_from(measure_mdb, coarser, "eds")
    for sql in (exact, coarser):
        assert measure_mdb.execute(sql).rows == cold.execute(sql).rows
    stats = measure_mdb.summary_stats()["eds"]
    assert stats["reject_reasons"] == {"non-distributive-aggregate": 1}
    assert "does not roll up" in stats["last_reject_reason"]


def test_states_join_a_grouping_that_captures_its_rows():
    # AVG(r)'s SUM and COUNT states are no item: they join the grouping's
    # calls, and AGGREGATE(margin)'s VISIBLE still finds its group (through
    # the Aggregate's GroupRef, where it once read a column after the calls
    # that the new ones would have shifted).
    ddl = [
        """CREATE VIEW eq AS SELECT prodName, custName, cost - 4 AS r,
           (SUM(revenue) - SUM(cost)) / SUM(revenue) AS MEASURE margin FROM Orders""",
        """CREATE MATERIALIZED VIEW eqs AS SELECT prodName, custName, AVG(r) AS ar,
           AGGREGATE(margin) AS margin FROM eq WHERE custName <> 'z'
           GROUP BY prodName, custName""",
    ]
    db, cold = make_db(), make_db(summaries=False)
    for statement in ddl:
        db.execute(statement)
        cold.execute(statement)
    for sql in [
        "SELECT prodName, custName, AVG(r), AGGREGATE(margin) FROM eq "
        "WHERE custName <> 'z' GROUP BY 1, 2 ORDER BY 1, 2",
        "SELECT prodName, AVG(r), AGGREGATE(margin) FROM eq "
        "WHERE custName <> 'z' GROUP BY 1 ORDER BY 1",
        "SELECT AVG(r), AGGREGATE(margin) FROM eq WHERE custName <> 'z' AND prodName <> 'A'",
    ]:
        assert answered_from(db, sql, "eqs")
        assert db.execute(sql).rows == cold.execute(sql).rows


# -- DML -> staleness / incremental maintenance ------------------------------


def dml_truth(sql_statements: list[str], probe: str) -> list[tuple]:
    db = make_db(summaries=False)
    for statement in sql_statements:
        db.execute(statement)
    return db.execute(probe).rows


PROBE = """SELECT prodName, SUM(revenue), COUNT(*), MIN(revenue),
                  MAX(revenue), AVG(revenue)
           FROM Orders GROUP BY prodName ORDER BY prodName"""


def test_update_marks_stale_and_falls_back(mdb):
    dml = "UPDATE Orders SET revenue = 100 WHERE custName = 'x'"
    mdb.execute(dml)
    stats = mdb.summary_stats()["prod_cust"]
    assert stats["stale"] is True
    assert "invalidations" not in stats
    assert not answered_from(mdb, PROBE, "prod_cust")
    assert mdb.execute(PROBE).rows == dml_truth([dml], PROBE)
    assert mdb.summary_stats()["prod_cust"]["stale_skips"] == 1


def test_delete_marks_stale_and_falls_back(mdb):
    dml = "DELETE FROM Orders WHERE prodName = 'B'"
    mdb.execute(dml)
    assert mdb.summary_stats()["prod_cust"]["stale"] is True
    assert mdb.execute(PROBE).rows == dml_truth([dml], PROBE)


def test_truncate_marks_stale(mdb):
    mdb.execute("TRUNCATE TABLE Orders")
    assert mdb.summary_stats()["prod_cust"]["stale"] is True


def test_unmatched_dml_keeps_views_fresh(mdb):
    mdb.execute("DELETE FROM Orders WHERE prodName = 'no-such-product'")
    assert mdb.summary_stats()["prod_cust"]["stale"] is False


def test_refresh_restores_hits(mdb):
    dml = "UPDATE Orders SET revenue = revenue + 1 WHERE prodName = 'A'"
    mdb.execute(dml)
    mdb.execute("REFRESH MATERIALIZED VIEW prod_cust")
    stats = mdb.summary_stats()["prod_cust"]
    assert stats["stale"] is False
    assert stats["refreshes"] == 1
    assert answered_from(mdb, PROBE, "prod_cust")
    assert mdb.execute(PROBE).rows == dml_truth([dml], PROBE)


def test_insert_merges_incrementally(mdb):
    dml = "INSERT INTO Orders VALUES ('A', 'z', '2024-04-01', 13, 5), ('D', 'q', '2024-04-02', 2, 1)"
    mdb.execute(dml)
    stats = mdb.summary_stats()["prod_cust"]
    assert stats["stale"] is False
    assert stats["incremental_merges"] == 1
    assert answered_from(mdb, PROBE, "prod_cust")
    assert mdb.execute(PROBE).rows == dml_truth([dml], PROBE)


def test_insert_invalidates_view_sourced_summaries(measure_mdb):
    # eos reads the view eo, so an insert into Orders cannot be merged
    # through the summary's own refresh query over a delta table.
    measure_mdb.execute("INSERT INTO Orders VALUES ('A', 'z', '2024-04-01', 13, 5)")
    stats = measure_mdb.summary_stats()["eos"]
    assert stats["stale"] is True
    assert stats["incremental_merges"] == 0


@pytest.mark.parametrize("optimizer", [True, False], ids=["optimized", "unoptimized"])
def test_insert_does_not_merge_a_summary_that_reads_its_source_twice(optimizer):
    """The merge runs the refresh plan over the inserted rows alone, standing
    for the source table: a subquery over that table would read them too
    (here: the new row is its own maximum).  Such a summary goes stale."""
    summary = (
        "CREATE MATERIALIZED VIEW sv AS SELECT id, SUM(v) AS n FROM s "
        "WHERE v >= (SELECT MAX(v) FROM s) GROUP BY id"
    )
    query = "SELECT id, SUM(v) AS n FROM s WHERE v >= (SELECT MAX(v) FROM s) GROUP BY id"
    db, plain = Database(optimizer=optimizer), Database(optimizer=optimizer, summaries=False)
    for each in (db, plain):
        each.execute("CREATE TABLE s (id INTEGER, v INTEGER)")
        each.execute("INSERT INTO s VALUES (1, 10), (2, 20)")
    db.execute(summary)
    for each in (db, plain):
        each.execute("INSERT INTO s VALUES (3, 5)")
    stats = db.summary_stats()["sv"]
    assert stats["stale"] is True and stats["incremental_merges"] == 0
    assert db.execute(query).rows == plain.execute(query).rows == [(2, 20)]
    db.execute("REFRESH MATERIALIZED VIEW sv")
    assert db.execute("SELECT id, n FROM sv").rows == [(2, 20)]
    assert db.execute(query).rows == [(2, 20)]


def test_refresh_view_sourced_summary(measure_mdb):
    measure_mdb.execute("INSERT INTO Orders VALUES ('A', 'z', '2024-04-01', 13, 5)")
    measure_mdb.execute("REFRESH MATERIALIZED VIEW eos")
    sql = "SELECT prodName, AGGREGATE(rev) FROM eo GROUP BY prodName ORDER BY prodName"
    assert answered_from(measure_mdb, sql, "eos")
    db = make_db(summaries=False)
    db.execute("INSERT INTO Orders VALUES ('A', 'z', '2024-04-01', 13, 5)")
    db.execute(
        """CREATE VIEW eo AS
           SELECT prodName, custName, SUM(revenue) AS MEASURE rev,
                  (SUM(revenue) - SUM(cost)) / SUM(revenue) AS MEASURE margin
           FROM Orders"""
    )
    assert measure_mdb.execute(sql).rows == db.execute(sql).rows


def test_refresh_requires_materialized_view(mdb):
    with pytest.raises(CatalogError):
        mdb.execute("REFRESH MATERIALIZED VIEW Orders")


# -- a write is read off the table's stamp, not pushed by the statement -----------

SUM_BY_B = "SELECT b, SUM(a) FROM t GROUP BY b ORDER BY b"


def stamped_db(*, summaries: bool = True) -> Database:
    """``t(a, b)`` and a summary ``s`` that answers :data:`SUM_BY_B`."""
    db = Database(summaries=summaries)
    db.execute("CREATE TABLE t (a INTEGER, b VARCHAR)")
    db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y')")
    if summaries:
        db.execute("CREATE MATERIALIZED VIEW s AS SELECT b, SUM(a) AS sa FROM t GROUP BY b")
    return db


def cold_rows(db: Database, sql: str) -> list[tuple]:
    """``sql`` over the same data, answered without summaries."""
    db.summaries_enabled = False
    try:
        return db.execute(sql).rows
    finally:
        db.summaries_enabled = True


def written(db: Database) -> tuple:
    """Everything a write moves: the rows, the changed count, the stamp."""
    table = db.catalog.base_table("t").table
    return list(table.rows), table.changed, table.stamp


def test_a_failed_insert_writes_nothing():
    db = stamped_db()
    rows = list(db.catalog.base_table("t").table.rows)
    with pytest.raises(SqlError, match="cannot coerce 2.5"):
        db.execute("INSERT INTO t VALUES (10.0, 'x'), (2.5, 'y')")
    assert db.execute(SUM_BY_B).rows == cold_rows(db, SUM_BY_B) == [("x", 1), ("y", 2)]
    assert answered_from(db, SUM_BY_B, "s")
    assert db.catalog.base_table("t").table.rows == rows


def test_a_failed_update_writes_nothing():
    db = stamped_db()
    rows = list(db.catalog.base_table("t").table.rows)
    with pytest.raises(SqlError, match="cannot coerce 2.5"):
        db.execute("UPDATE t SET a = CASE WHEN b = 'x' THEN 100.0 ELSE 2.5 END")
    assert db.execute(SUM_BY_B).rows == cold_rows(db, SUM_BY_B) == [("x", 1), ("y", 2)]
    assert db.catalog.base_table("t").table.rows == rows


@pytest.mark.parametrize(
    "statement",
    [
        "INSERT INTO t VALUES (10.0, 'x'), (2.5, 'y')",
        "INSERT INTO t (b, a) VALUES ('x', 3), ('y', 'z')",
        "UPDATE t SET a = CASE WHEN b = 'x' THEN 100.0 ELSE 2.5 END",
        "UPDATE t SET a = 10 / (a - 2)",
        "DELETE FROM t WHERE 1 / (a - 2) > 0",
    ],
)
def test_a_failed_write_leaves_the_table_as_it_was(statement):
    db = stamped_db()
    before = written(db)
    with pytest.raises(SqlError):
        db.execute(statement)
    assert written(db) == before
    assert db.summary_stats()["s"]["stale"] is False


def test_a_direct_update_reaches_a_session_cache():
    from repro.server import SessionManager

    db = stamped_db()
    session = SessionManager(db).open_session()
    assert session.execute(SUM_BY_B).rows == [("x", 1), ("y", 2)]
    assert db.summary_stats()["s"]["hits"] == 1
    db.execute("UPDATE t SET a = 7 WHERE b = 'y'")
    assert db.summary_stats()["s"]["stale"] is True
    assert session.execute(SUM_BY_B).rows == [("x", 1), ("y", 7)]
    cold = stamped_db(summaries=False)
    cold.execute("UPDATE t SET a = 7 WHERE b = 'y'")
    assert cold.execute(SUM_BY_B).rows == [("x", 1), ("y", 7)]


def test_a_summary_depends_on_everything_its_bind_read():
    """A table read only in a WHERE subquery is a source too, and a view's
    CTE is no catalog name."""
    db = stamped_db(summaries=False)
    db.summaries_enabled = True
    db.execute("CREATE TABLE u (x INTEGER)")
    db.execute("INSERT INTO u VALUES (0)")
    db.execute(
        "CREATE MATERIALIZED VIEW s AS SELECT b, SUM(a) AS sa FROM t "
        "WHERE a > (SELECT MIN(x) FROM u) GROUP BY b"
    )
    query = "SELECT b, SUM(a) FROM t WHERE a > (SELECT MIN(x) FROM u) GROUP BY b ORDER BY b"
    assert answered_from(db, query, "s")
    db.execute("UPDATE u SET x = 1")
    assert db.execute(query).rows == cold_rows(db, query) == [("y", 2)]
    db.execute("CREATE VIEW v AS WITH c AS (SELECT a, b FROM t) SELECT a, b FROM c")
    db.execute("CREATE MATERIALIZED VIEW sv AS SELECT b, SUM(a) AS sa FROM v GROUP BY b")
    assert db.catalog.get("sv").definition.depends_on == {"v", "t"}


def test_a_direct_view_replacement_reaches_a_session_cache():
    from repro.server import SessionManager

    db = stamped_db(summaries=False)
    db.execute("CREATE VIEW v AS SELECT b, a FROM t")
    query = "SELECT b, SUM(a) FROM v GROUP BY b ORDER BY b"
    session = SessionManager(db).open_session()
    assert session.execute(query).rows == [("x", 1), ("y", 2)]
    db.execute("CREATE OR REPLACE VIEW v AS SELECT b, a * 10 AS a FROM t")
    assert db.execute(query).rows == [("x", 10), ("y", 20)]
    assert session.execute(query).rows == [("x", 10), ("y", 20)]


# -- DDL on the source chain -> staleness ------------------------------------


NEW_EO = """CREATE OR REPLACE VIEW eo AS
            SELECT prodName, custName, SUM(cost) AS MEASURE rev,
                   SUM(cost) AS MEASURE margin
            FROM Orders"""


def test_replace_source_view_invalidates_summary(measure_mdb):
    measure_mdb.execute(NEW_EO)
    assert measure_mdb.summary_stats()["eos"]["stale"] is True
    sql = "SELECT prodName, AGGREGATE(rev) FROM eo GROUP BY prodName ORDER BY prodName"
    assert not answered_from(measure_mdb, sql, "eos")
    oracle = make_db(summaries=False)
    oracle.execute(NEW_EO.replace("OR REPLACE ", ""))
    assert measure_mdb.execute(sql).rows == oracle.execute(sql).rows


def test_refresh_after_view_replacement_recomputes(measure_mdb):
    measure_mdb.execute(NEW_EO)
    measure_mdb.execute("REFRESH MATERIALIZED VIEW eos")
    sql = "SELECT prodName, AGGREGATE(rev) FROM eo GROUP BY prodName ORDER BY prodName"
    assert answered_from(measure_mdb, sql, "eos")
    oracle = make_db(summaries=False)
    oracle.execute(NEW_EO.replace("OR REPLACE ", ""))
    assert measure_mdb.execute(sql).rows == oracle.execute(sql).rows


def test_drop_source_view_invalidates_summary(measure_mdb):
    measure_mdb.execute("DROP VIEW eo")
    assert measure_mdb.summary_stats()["eos"]["stale"] is True


def test_replace_source_table_invalidates_summary(mdb):
    mdb.execute(
        """CREATE OR REPLACE TABLE Orders (
               prodName VARCHAR, custName VARCHAR, orderDate VARCHAR,
               revenue INTEGER, cost INTEGER)"""
    )
    assert mdb.summary_stats()["prod_cust"]["stale"] is True


def test_reload_source_table_invalidates_summary(mdb):
    mdb.create_table_from_rows(
        "Orders", [("prodName", "VARCHAR"), ("revenue", "INTEGER")], [("A", 1)]
    )
    assert mdb.summary_stats()["prod_cust"]["stale"] is True


def test_or_replace_materialized_view_cannot_replace_other_kinds(mdb):
    with pytest.raises(CatalogError):
        mdb.execute(
            "CREATE OR REPLACE MATERIALIZED VIEW Orders AS "
            "SELECT prodName, SUM(revenue) AS r FROM Orders GROUP BY prodName"
        )
    assert mdb.catalog.resolve("Orders").kind == "TABLE"
    assert len(mdb.catalog.resolve("Orders").table) == len(ORDERS)
    mdb.execute("CREATE VIEW plain AS SELECT prodName FROM Orders")
    with pytest.raises(CatalogError):
        mdb.execute(
            "CREATE OR REPLACE MATERIALIZED VIEW plain AS "
            "SELECT prodName, SUM(revenue) AS r FROM Orders GROUP BY prodName"
        )
    assert mdb.catalog.resolve("plain").kind == "VIEW"


# -- observability ------------------------------------------------------------


def test_explain_reports_rejection_reason(mdb):
    lines = [
        row[0]
        for row in mdb.execute(
            "EXPLAIN SELECT orderDate, SUM(revenue) FROM Orders GROUP BY orderDate"
        ).rows
    ]
    assert any("candidate prod_cust rejected" in line for line in lines)
    # EXPLAIN must not inflate the counters.
    assert mdb.summary_stats()["prod_cust"]["rejects"] == 0


def test_describe_materialized_view(mdb):
    info = mdb.describe("prod_cust")
    assert info["kind"] == "materialized view"
    assert info["source"] == "orders"
    assert info["stale"] is False
    assert info["dimensions"] == ["prodName", "custName"]
    assert {m["name"]: m["rollup"] for m in info["measures"]} == {
        "rev": "distributive",
        "n": "distributive",
        "lo": "distributive",
        "hi": "distributive",
        "avg_rev": "algebraic",
    }
    # AVG's COUNT(revenue) state is no item's value: its column stays hidden
    assert [s.column for s in mdb.catalog.get("prod_cust").definition.states] == [
        "rev", "n", "lo", "hi", "__avg_rev_count",
    ]
    assert all(not c["name"].startswith("__") for c in info["columns"])


def test_select_star_over_a_summary_lists_what_describe_lists():
    from repro.workloads.tpch import tpch_measure_database

    db = Database()
    db.execute("CREATE TABLE t (k VARCHAR, c INTEGER)")
    db.execute("INSERT INTO t VALUES ('a', 1), ('a', 2), ('b', 5)")
    db.execute("CREATE MATERIALIZED VIEW s AS SELECT k, AVG(c) AS ac, SUM(c) AS sc FROM t GROUP BY k")
    assert [c.name for c in db.catalog.get("s").schema.columns] == ["k", "ac", "sc", "__ac_count"]
    described = [c["name"] for c in db.describe("s")["columns"]]
    assert described == ["k", "ac", "sc"]
    for sql in ("SELECT * FROM s ORDER BY k", "SELECT s.* FROM s ORDER BY k"):
        result = db.execute(sql)
        assert [c.name for c in result.columns] == described
        assert result.rows == [("a", 1.5, 3), ("b", 5.0, 5)]
    # Hidden, not gone: the state still binds by name.
    assert db.execute("SELECT k, __ac_count FROM s ORDER BY k").rows == [("a", 2), ("b", 1)]

    tpch = tpch_measure_database(0.002, summaries=True)
    name = "tpch_margin_by_returnflag"
    described = [c["name"] for c in tpch.describe(name)["columns"]]
    assert described == ["returnflag", "margin", "avg_discount"]
    assert len(tpch.catalog.get(name).schema.columns) == 7  # four hidden states
    result = tpch.execute(f"SELECT * FROM {name} ORDER BY returnflag")
    assert [c.name for c in result.columns] == described
    assert result.rows == tpch.execute(
        f"SELECT returnflag, margin, avg_discount FROM {name} ORDER BY returnflag"
    ).rows


def test_printer_round_trips_ddl():
    from repro.sql import parse_statement
    from repro.sql.printer import to_sql

    sql = (
        "CREATE MATERIALIZED VIEW m AS SELECT prodName, SUM(revenue) AS r "
        "FROM Orders GROUP BY prodName"
    )
    assert to_sql(parse_statement(to_sql(parse_statement(sql)))) == to_sql(
        parse_statement(sql)
    )
    refresh = "REFRESH MATERIALIZED VIEW m"
    assert to_sql(parse_statement(refresh)) == refresh
