"""The repro_* system tables: fingerprinting, statistics, plan flips.

Covers the introspection subsystem end to end:

* statement fingerprinting — literals and IN-list shapes normalize away,
  structure does not;
* the virtual catalog namespace — system tables resolve and bind but are
  invisible to ``names()`` and protected from redefinition and DROP;
* SystemScan — planning, EXPLAIN, and snapshot-at-scan-start semantics;
* statistics accounting — calls/durations/rows/errors per fingerprint,
  introspection exclusion, ``reset_stats``;
* plan-flip detection — a strategy change for a repeated fingerprint
  produces exactly one ``repro_statements`` row with an ``old_plan_hash``,
  one ``plan_flips_total`` increment, and one ``plan_flip`` event;
* the acceptance query — a measure defined over ``repro_stat_statements``
  queried with ``AGGREGATE``.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro import Database
from repro.errors import CatalogError, SqlError
from repro.introspect import (
    SYSTEM_TABLE_NAMES,
    fingerprint_statement,
    normalize_statement,
    plan_hash,
    plan_shape,
)
from repro.sql import ast
from repro.sql.parser import parse_statement, parse_statements
from repro.sql.printer import to_sql
from repro.sql.visitor import transform
from repro.workloads.listings import SETUP, all_listing_sql
from repro.workloads.paper_data import load_paper_tables
from tests import parse_corpus


def tele_db(**kwargs) -> Database:
    db = Database(telemetry=True, **kwargs)
    db.execute("CREATE TABLE t (k INTEGER, g VARCHAR, v INTEGER)")
    db.execute(
        "INSERT INTO t VALUES (1, 'x', 10), (2, 'y', 20), (3, 'x', 30)"
    )
    return db


# -- fingerprinting -----------------------------------------------------------


def fp(sql: str) -> str:
    fingerprint, _ = fingerprint_statement(parse_statement(sql))
    return fingerprint


def test_literals_normalize_away():
    assert fp("SELECT * FROM t WHERE v > 5") == fp(
        "SELECT * FROM t WHERE v > 99"
    )
    assert fp("SELECT * FROM t WHERE g = 'x'") == fp(
        "SELECT * FROM t WHERE g = 'something else'"
    )


def test_in_lists_collapse_regardless_of_length():
    assert fp("SELECT * FROM t WHERE k IN (1)") == fp(
        "SELECT * FROM t WHERE k IN (1, 2, 3, 4, 5)"
    )


def test_whitespace_and_keyword_case_normalize_away():
    assert fp("select  *\nfrom t  where v > 5") == fp(
        "SELECT * FROM t WHERE v > 5"
    )


def test_structure_still_distinguishes():
    assert fp("SELECT k FROM t") != fp("SELECT v FROM t")
    assert fp("SELECT k FROM t WHERE v > 1") != fp("SELECT k FROM t")
    assert fp("SELECT k FROM t GROUP BY k") != fp("SELECT k FROM t")


def test_normalized_text_shows_parameter_markers():
    text = normalize_statement(
        parse_statement("SELECT * FROM t WHERE v > 5 AND k IN (1, 2)")
    )
    assert "5" not in text and "2" not in text
    assert "?" in text


def _reference_normalize(statement) -> str:
    """The normalizer as an AST rebuild, then the plain printer: the oracle
    the one-pass normalizing printer must agree with byte for byte."""

    def normalize(expr):
        if isinstance(expr, ast.Literal):
            return ast.Parameter(0)
        if isinstance(expr, ast.InList) and len(expr.items) != 1:
            return dataclasses.replace(expr, items=[ast.Parameter(0)])
        return expr

    return to_sql(transform(statement, normalize))


def test_normalized_text_is_the_reference_over_the_parse_corpus():
    statements = []
    for text in parse_corpus.load():
        try:
            statements.extend(parse_statements(text))
        except SqlError:
            continue
    assert len(statements) >= 1606
    # The two quirks the corpus does not reach: a one-item list keeps its
    # item, and a list of columns collapses like a list of literals.
    statements += parse_statements(
        "SELECT * FROM t WHERE k IN (v + 1) AND g NOT IN (k, v)"
    )
    differ = [
        to_sql(s) for s in statements
        if normalize_statement(s) != _reference_normalize(s)
    ]
    assert not differ, f"{len(differ)} statements normalize differently: {differ[:3]}"


def test_listing_fingerprints_are_the_reference():
    db = tele_db()
    load_paper_tables(db)
    for ddl in SETUP.values():
        db.execute(ddl)
    db.reset_stats()
    expected = set()
    for sql in all_listing_sql(db).values():
        db.execute_script(sql)
        for statement in parse_statements(sql):
            text = _reference_normalize(statement)
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
            expected.add((digest, text))
    got = db.execute("SELECT fingerprint, query FROM repro_stat_statements").rows
    assert set(got) == expected and len(expected) >= 15


def test_plan_hash_depends_on_strategy_and_shape():
    assert plan_hash("interpreter", "Scan(t)") != plan_hash(
        "summary", "Scan(t)"
    )
    assert plan_hash("interpreter", "Scan(t)") != plan_hash(
        "interpreter", "Scan(u)"
    )
    assert plan_hash("interpreter", "Scan(t)") == plan_hash(
        "interpreter", "Scan(t)"
    )


# -- the virtual namespace ----------------------------------------------------


def test_system_tables_resolve_but_stay_out_of_names(db):
    assert db.catalog.names() == []
    for name in SYSTEM_TABLE_NAMES:
        assert name not in db.catalog
        obj = db.catalog.resolve(name)
        assert obj.kind == "SYSTEM TABLE"
        assert db.catalog.is_system(name)


def test_reserved_names_cannot_be_redefined(db):
    with pytest.raises(CatalogError, match="system table"):
        db.execute("CREATE TABLE repro_metrics (a INTEGER)")
    with pytest.raises(CatalogError, match="system table"):
        db.execute("CREATE VIEW repro_events AS SELECT 1 AS x")
    with pytest.raises(CatalogError, match="cannot be dropped"):
        db.execute("DROP TABLE repro_metrics")


def test_materialized_view_over_system_table_rejected(db):
    db.execute("CREATE TABLE t (k INTEGER)")
    with pytest.raises(CatalogError, match="volatile"):
        db.execute(
            "CREATE MATERIALIZED VIEW mv AS "
            "SELECT metric, SUM(value) AS s FROM repro_metrics "
            "GROUP BY metric"
        )


def test_describe_system_table(db):
    description = db.describe("repro_stat_statements")
    assert description["kind"] == "system table"
    column_names = [c["name"] for c in description["columns"]]
    assert "fingerprint" in column_names
    assert "total_wall_ms" in column_names


def test_explain_shows_system_scan(db):
    lines = [
        line
        for (line,) in db.execute(
            "EXPLAIN SELECT metric FROM repro_metrics WHERE value > 1"
        ).rows
    ]
    assert any("SystemScan(repro_metrics)" in line for line in lines)
    assert not any(
        "Scan(repro_metrics)" in line.replace("SystemScan", "")
        for line in lines
    )


# -- querying the tables ------------------------------------------------------


def test_repro_tables_lists_catalog_and_system_objects(db):
    db.execute("CREATE TABLE t (k INTEGER)")
    db.execute("CREATE VIEW w AS SELECT k FROM t")
    rows = db.execute("SELECT name, kind FROM repro_tables").rows
    kinds = dict(rows)
    assert kinds["t"] == "table"
    assert kinds["w"] == "view"
    for name in SYSTEM_TABLE_NAMES:
        assert kinds[name] == "system table"


def test_telemetry_off_tables_are_empty_not_errors(db):
    assert db.execute("SELECT * FROM repro_stat_statements").rows == []
    assert db.execute("SELECT * FROM repro_metrics").rows == []
    assert db.execute("SELECT * FROM repro_statements").rows == []
    assert db.stat_statements() == []
    assert db.plan_flips() == []


def test_stat_statements_accumulates_per_fingerprint():
    db = tele_db()
    db.execute("SELECT * FROM t WHERE v > 5")
    db.execute("SELECT * FROM t WHERE v > 25")
    rows = db.execute(
        "SELECT query, calls, rows_returned FROM repro_stat_statements "
        "WHERE calls > 1"
    ).rows
    assert rows == [("SELECT * FROM t WHERE (v > ?)", 2, 4)]


def test_errors_attributed_to_fingerprint():
    db = tele_db()
    for _ in range(2):
        with pytest.raises(SqlError):
            db.execute("SELECT nosuch FROM t")
    entries = [e for e in db.stat_statements() if e["errors"]]
    assert len(entries) == 1
    assert entries[0]["errors"] == 2
    assert entries[0]["calls"] == 0


def test_queries_never_observe_themselves():
    db = tele_db()
    db.execute("SELECT * FROM t")
    first = db.execute("SELECT COUNT(*) FROM repro_stat_statements").scalar()
    second = db.execute("SELECT COUNT(*) FROM repro_stat_statements").scalar()
    # Introspection reads are excluded from the statistics, so the count
    # is stable no matter how often you look.
    assert first == second
    assert db.telemetry.introspection_queries_total.total() == 2.0


def test_snapshot_is_consistent_within_one_query():
    db = tele_db()
    db.execute("SELECT * FROM t")
    # Both sides of the self-join read the same scan-start snapshot, so
    # the join never sees two different versions of the table.
    rows = db.execute(
        "SELECT a.fingerprint FROM repro_stat_statements AS a "
        "JOIN repro_stat_statements AS b USING (fingerprint) "
        "WHERE a.calls <> b.calls"
    ).rows
    assert rows == []


def test_joining_system_table_with_user_table_counts_as_user_query():
    db = tele_db()
    before = db.telemetry.queries_total.total()
    db.execute(
        "SELECT t.k FROM t JOIN repro_tables AS s ON s.name = 'missing'"
    )
    assert db.telemetry.queries_total.total() == before + 1


def test_reset_stats_clears_rows_but_not_metrics():
    db = tele_db()
    db.execute("SELECT * FROM t")
    queries_before = db.telemetry.queries_total.total()
    assert db.stat_statements()
    db.reset_stats()
    assert db.stat_statements() == []
    assert db.plan_flips() == []
    assert db.telemetry.queries_total.total() == queries_before


def test_repro_matviews_reflects_hits_and_staleness():
    db = flip_db()
    db.execute(FLIP_QUERY)  # summary hit
    rows = db.execute(
        "SELECT name, source, stale, hits FROM repro_matviews"
    ).rows
    assert rows == [("by_prod", "sales", False, 1)]
    db.execute("INSERT INTO sales VALUES ('c', 9)")
    # Whatever maintenance policy applied (staleness or incremental
    # merge), the table mirrors the catalog object's live state.
    view = db.catalog.resolve("by_prod")
    rows = db.execute(
        "SELECT name, stale, row_count FROM repro_matviews"
    ).rows
    assert rows == [("by_prod", view.stale, len(view.table))]


# -- plan-flip detection ------------------------------------------------------


def flip_db() -> Database:
    """A database where the same query can execute under two strategies."""
    db = Database(telemetry=True)
    db.execute("CREATE TABLE sales (prod VARCHAR, amount INTEGER)")
    db.execute(
        "INSERT INTO sales VALUES ('a', 1), ('a', 2), ('b', 3), ('b', 4)"
    )
    db.execute(
        "CREATE MATERIALIZED VIEW by_prod AS "
        "SELECT prod, SUM(amount) AS s FROM sales GROUP BY prod"
    )
    return db


FLIP_QUERY = "SELECT prod, SUM(amount) AS s FROM sales GROUP BY prod"


def test_strategy_change_produces_exactly_one_flip():
    db = flip_db()
    db.summaries_enabled = False
    db.execute(FLIP_QUERY)
    db.summaries_enabled = True
    db.execute(FLIP_QUERY)

    flips = db.plan_flips()
    assert len(flips) == 1
    (flip,) = flips
    assert flip["old_strategy"] == "interpreter"
    assert flip["new_strategy"] == "summary"
    assert flip["old_plan_hash"] != flip["new_plan_hash"]
    assert db.telemetry.plan_flips_total.total() == 1.0
    assert [e for e in db.events() if e["event"] == "plan_flip"]

    rows = db.execute(
        "SELECT fingerprint, old_strategy, strategy FROM repro_statements "
        "WHERE old_plan_hash IS NOT NULL"
    ).rows
    assert len(rows) == 1
    assert rows[0][1:] == ("interpreter", "summary")


def test_steady_plan_never_flips():
    db = flip_db()
    for _ in range(5):
        db.execute(FLIP_QUERY)
    assert db.plan_flips() == []
    assert db.telemetry.plan_flips_total.total() == 0.0


def test_ddl_rerun_does_not_flip_or_clear_hash():
    db = flip_db()
    db.execute(FLIP_QUERY)
    # Statements without a bound plan (DDL/DML) observe with no plan
    # hash; they can never flip and never overwrite a query's hash.
    db.execute("INSERT INTO sales VALUES ('c', 5)")
    db.execute("INSERT INTO sales VALUES ('d', 6)")
    db.execute(FLIP_QUERY)
    assert db.plan_flips() == []


def test_explain_shape_matches_plan_shape_helper():
    db = tele_db()
    db.execute("SELECT g, SUM(v) FROM t GROUP BY g")
    ((strategy, last_plan_hash),) = db.execute(
        "SELECT strategy, plan_hash FROM repro_statements "
        "WHERE query LIKE 'SELECT g, SUM%'"
    ).rows
    assert last_plan_hash is not None
    assert strategy == "interpreter"
    # The hash is reproducible from the components the helper exposes.
    from repro.sql import parse_query

    planned = db.plan_query(parse_query("SELECT g, SUM(v) FROM t GROUP BY g"))
    assert planned.plan_shape == plan_shape(planned.plan)
    assert (
        plan_hash(planned.strategy, planned.plan_shape) == last_plan_hash
    )


# -- the acceptance query: measures over system tables -------------------------


def test_measure_over_stat_statements():
    db = tele_db()
    db.execute("SELECT * FROM t WHERE v > 5")
    db.execute("SELECT * FROM t WHERE v > 25")
    db.execute("SELECT g, COUNT(*) FROM t GROUP BY g")
    db.execute(
        "CREATE VIEW stats_view AS "
        "SELECT fingerprint, calls, SUM(total_wall_ms) AS MEASURE total_ms "
        "FROM repro_stat_statements"
    )
    rows = db.execute(
        "SELECT fingerprint, AGGREGATE(total_ms) FROM stats_view "
        "GROUP BY fingerprint"
    ).rows
    expected: dict = {}
    for e in db.stat_statements():
        fingerprint = e["fingerprint"]
        expected[fingerprint] = expected.get(fingerprint, 0.0) + e["total_wall_ms"]
    assert len(rows) == len(expected)
    for fingerprint, total_ms in rows:
        assert total_ms == pytest.approx(expected[fingerprint])


# -- the facts of the folded tables, one SQL query each -------------------------

#: The keys of ``export_traces()``: envelope, trace and span.
TRACE_KEYS = (
    {"schema", "trace_count", "traces_dropped", "traces"},
    {"trace_id", "sql", "spans", "captured_at"},
    {"trace_id", "span_id", "parent_span_id", "name", "kind", "start_ns",
     "end_ns", "duration_ms"},
)


def facts_db(threshold_ms: float):
    """A database that ran two strategies, failed, flipped and was slow."""
    db = tele_db(slow_query_ms=threshold_ms)
    flipping = "SELECT g, SUM(v) FROM t GROUP BY g"
    for sql in ("SELECT * FROM t WHERE v > 5", "SELECT * FROM t WHERE v > 25"):
        db.execute(sql)
    db.execute(flipping)
    db.execute(
        "CREATE MATERIALIZED VIEW sums AS "
        "SELECT g, k, SUM(v) AS s FROM t GROUP BY g, k"
    )
    db.execute(flipping)  # answered from the summary: a flip
    for _ in range(2):
        with pytest.raises(SqlError):
            db.execute("SELECT nope FROM t")
    db.execute("CREATE VIEW mv AS SELECT g, SUM(v) AS MEASURE m FROM t")
    measure = "SELECT g, AGGREGATE(m) FROM mv GROUP BY g"
    db.execute(measure)
    db.execute_with_strategy(measure, strategy="auto")
    db.execute_with_strategy(measure, strategy="subquery")
    return db


def test_each_folded_fact_is_one_query():
    db = facts_db(threshold_ms=0.2)
    statements = db.execute(
        "SELECT fingerprint, strategy, outcome, wall_ms, rows_returned, seq "
        "FROM repro_statements WHERE fingerprint IS NOT NULL"
    ).rows
    # Per fingerprint: calls, total / mean / min / max wall ms, rows, errors.
    per_fingerprint = db.execute(
        "SELECT fingerprint, SUM(calls), SUM(total_wall_ms), "
        "SUM(total_wall_ms) / SUM(calls), MIN(min_wall_ms), MAX(max_wall_ms), "
        "SUM(rows_returned), SUM(errors) FROM repro_stat_statements "
        "GROUP BY fingerprint HAVING SUM(calls) > 0"
    ).rows
    assert len(per_fingerprint) == 7  # 3 DDL, 1 DML, 3 queries
    for fingerprint, calls, total, mean, low, high, rows, errors in per_fingerprint:
        ok = [s for s in statements if s[0] == fingerprint and s[2] == "ok"]
        walls = [s[3] for s in ok]
        assert calls == len(ok) and errors == 0
        assert total == pytest.approx(sum(walls))
        assert mean == pytest.approx(sum(walls) / len(walls))
        assert (low, high) == (min(walls), max(walls))
        assert rows == sum(s[4] for s in ok)
    ((failed_calls, errors),) = db.execute(
        "SELECT SUM(calls), SUM(errors) FROM repro_stat_statements "
        "WHERE strategy = 'none' AND fingerprint IN "
        "(SELECT fingerprint FROM repro_statements WHERE outcome = 'error')"
    ).rows
    assert (failed_calls, errors) == (0, 2)
    # The last strategy: the newest successful repro_statements row.
    last = dict(
        db.execute(
            "SELECT s.fingerprint, s.strategy FROM repro_statements AS s "
            "WHERE s.outcome = 'ok' AND s.seq = (SELECT MAX(n.seq) "
            "FROM repro_statements AS n WHERE n.fingerprint = s.fingerprint "
            "AND n.outcome = 'ok')"
        ).rows
    )
    assert last[fp("SELECT g, SUM(v) FROM t GROUP BY g")] == "summary"
    assert last[fp("SELECT g, AGGREGATE(m) FROM mv GROUP BY g")] == "subquery"
    # Flips.
    flips = db.execute(
        "SELECT seq, ts, fingerprint, query, old_strategy, strategy, "
        "old_plan_hash, plan_hash FROM repro_statements "
        "WHERE old_plan_hash IS NOT NULL"
    ).rows
    assert [tuple(f.values()) for f in db.plan_flips()] == flips
    assert len(flips) == 1 and flips[0][4:6] == ("interpreter", "summary")
    # Slow queries.
    slow = db.execute(
        "SELECT seq, ts, sql, ROUND(wall_ms, 3) FROM repro_statements "
        "WHERE outcome = 'ok' AND wall_ms >= ?",
        (db.telemetry.slow_query_ms,),
    ).rows
    assert slow and slow == [
        (e["seq"], e["ts"], e["sql"], e["duration_ms"]) for e in db.slow_queries()
    ]


def test_reset_keeps_the_ring_and_traces_keep_their_keys():
    import json

    db = facts_db(threshold_ms=0.0)
    before = db.execute("SELECT COUNT(*) FROM repro_statements").rows
    db.reset_stats()
    assert db.stat_statements() == [] and db.plan_flips() == []
    assert db.execute("SELECT COUNT(*) FROM repro_statements").rows == before
    export = json.loads(db.export_traces(indent=2))
    envelope, trace, span = TRACE_KEYS
    assert set(export) == envelope and export["trace_count"] > 0
    for t in export["traces"]:
        assert set(t) == trace
        for s in t["spans"]:
            assert set(s) - {"attributes"} == span
    assert json.loads(Database().export_traces()) == {
        "schema": "repro-trace-v2", "trace_count": 0, "traces_dropped": 0, "traces": [],
    }
