"""Telemetry subsystem: metrics registry, event/slow-query logs, trace
export, SHOW STATS, shell commands, and the bench regression gate."""

from __future__ import annotations

import io
import json

import pytest

from repro import Database, SqlError
from repro.cli import Shell
from repro.profile import Watch
from repro.result import Result
from repro.sql.parser import parse_statement
from repro.sql.printer import to_sql
from repro.telemetry import (
    TRACE_SCHEMA,
    MetricsRegistry,
    StatementRecord,
    Telemetry,
    statement_kind,
)
from repro.telemetry.events import PROFILE_CAPACITY, RING_CAPACITY

ORDERS = [
    ("A", "x", 10),
    ("A", "y", 20),
    ("B", "x", 30),
    ("B", "y", 5),
    ("C", "z", 7),
]


def make_db(**kwargs) -> Database:
    db = Database(**kwargs)
    db.create_table_from_rows(
        "Orders",
        [("prodName", "VARCHAR"), ("custName", "VARCHAR"), ("revenue", "INTEGER")],
        ORDERS,
    )
    return db


# -- metrics registry ---------------------------------------------------------


def test_counter_basics():
    reg = MetricsRegistry()
    c = reg.counter("things_total", "Things.", ("kind",))
    c.inc(kind="a")
    c.inc(2, kind="a")
    c.inc(kind="b")
    assert c.value(kind="a") == 3
    assert c.value(kind="b") == 1
    assert c.value(kind="never") == 0
    assert c.total() == 4
    assert c.labelsets() == [{"kind": "a"}, {"kind": "b"}]


def test_counter_rejects_decrease_and_bad_labels():
    reg = MetricsRegistry()
    c = reg.counter("n_total", "N.", ("kind",))
    with pytest.raises(ValueError):
        c.inc(-1, kind="a")
    with pytest.raises(ValueError):
        c.inc(wrong="a")
    with pytest.raises(ValueError):
        c.inc()  # label missing entirely


def test_histogram_buckets_sum_to_count():
    reg = MetricsRegistry()
    h = reg.histogram("lat_ms", "Latency.", buckets=(1.0, 10.0, 100.0))
    for v in (0.5, 1.0, 2.0, 50.0, 500.0, 5000.0):
        h.observe(v)
    counts = h.bucket_counts()
    # bisect_left: a value equal to a boundary lands in that bucket (le
    # semantics), so 1.0 joins 0.5 in the first bucket.
    assert counts == [2, 1, 1, 2]
    assert sum(counts) == h.count() == 6
    assert h.sum_() == pytest.approx(5553.5)


def test_histogram_labels_partition_series():
    reg = MetricsRegistry()
    h = reg.histogram("d_ms", "D.", ("kind",), buckets=(1.0,))
    h.observe(0.5, kind="select")
    h.observe(2.0, kind="select")
    h.observe(0.1, kind="insert")
    assert h.count(kind="select") == 2
    assert h.count(kind="insert") == 1
    assert h.bucket_counts(kind="select") == [1, 1]


def test_registration_is_idempotent_but_conflicts_raise():
    reg = MetricsRegistry()
    a = reg.counter("x_total", "X.", ("k",))
    assert reg.counter("x_total", "X.", ("k",)) is a
    with pytest.raises(ValueError):
        reg.counter("x_total", "X.", ("other",))
    with pytest.raises(ValueError):
        reg.histogram("x_total", "X.", ("k",))


def test_prometheus_rendering():
    reg = MetricsRegistry()
    c = reg.counter("q_total", "Queries.", ("kind",))
    c.inc(3, kind="select")
    h = reg.histogram("d_ms", "Duration.", buckets=(1.0, 10.0))
    h.observe(0.5)
    h.observe(5.0)
    h.observe(50.0)
    text = reg.render_prometheus()
    lines = text.splitlines()
    assert "# HELP q_total Queries." in lines
    assert "# TYPE q_total counter" in lines
    assert 'q_total{kind="select"} 3' in lines
    assert "# TYPE d_ms histogram" in lines
    # Prometheus buckets are cumulative even though storage is per-bucket.
    assert 'd_ms_bucket{le="1"} 1' in lines
    assert 'd_ms_bucket{le="10"} 2' in lines
    assert 'd_ms_bucket{le="+Inf"} 3' in lines
    assert "d_ms_sum 55.5" in lines
    assert "d_ms_count 3" in lines
    assert text.endswith("\n")


def test_prometheus_label_escaping():
    reg = MetricsRegistry()
    c = reg.counter("e_total", "E.", ("msg",))
    c.inc(msg='say "hi"\nback\\slash')
    text = reg.render_prometheus()
    assert 'msg="say \\"hi\\"\\nback\\\\slash"' in text


def test_registry_rows_flatten_histograms():
    reg = MetricsRegistry()
    h = reg.histogram("d_ms", "D.", buckets=(1.0,))
    h.observe(0.5)
    h.observe(9.0)
    rows = reg.rows()
    assert ("d_ms_bucket", "le=1", 1.0) in rows
    assert ("d_ms_bucket", "le=+Inf", 1.0) in rows
    assert ("d_ms_count", "", 2.0) in rows


# -- event and slow-query logs ------------------------------------------------


def test_event_log_seq_ts_and_ring():
    tele = Telemetry()
    for i in range(RING_CAPACITY + 2):
        tele.ring.record("tick", i=i)
    assert len(tele.ring.entries()) == RING_CAPACITY
    events = tele.events()
    assert [e["i"] for e in events[:2]] == [2, 3]
    assert [e["seq"] for e in events[-2:]] == [RING_CAPACITY + 1, RING_CAPACITY + 2]
    assert all("ts" in e and e["event"] == "tick" for e in events)
    assert [e["i"] for e in tele.events(2)] == [RING_CAPACITY, RING_CAPACITY + 1]
    assert tele.events(0) == []


def test_event_log_sink_receives_json_lines():
    sink = io.StringIO()
    tele = Telemetry(event_sink=sink)
    tele.observe(StatementRecord(kind="insert", sql="INSERT 1", result=Result()))
    tele.ring.record("lint", rules=["RP002"])
    lines = [json.loads(line) for line in sink.getvalue().splitlines()]
    assert [(e["seq"], e["event"]) for e in lines] == [(1, "statement"), (2, "lint")]
    assert lines[0]["sql"] == "INSERT 1"
    assert lines == tele.events()


def test_slow_query_log_ring():
    tele = Telemetry(slow_query_ms=5.0)
    for i, wall_ms in enumerate([6.0, 4.0] + [7.0] * PROFILE_CAPACITY):
        tele.observe(
            StatementRecord(sql=f"q{i}", wall_ms=wall_ms, result=Result())
        )
    entries = tele.slow_queries()
    assert len(entries) == PROFILE_CAPACITY
    assert entries[0]["sql"] == "q2" and entries[-1]["sql"] == f"q{PROFILE_CAPACITY + 1}"
    assert entries[0]["threshold_ms"] == 5.0
    assert entries[0]["profile"] is None
    assert tele.slow_queries_total.value() == PROFILE_CAPACITY + 1


# -- trace export -------------------------------------------------------------


def profiled_span_tree():
    watch = Watch()
    with watch.tracer.span("parse"):
        pass
    with watch.tracer.span("rewrite") as span:
        span.meta["summary"] = "sums"
    with watch.tracer.span("execute"):
        pass
    return watch.finish(sql="SELECT 1", result_rows=1)


def observe_profiled(tele: Telemetry, profile, **fields) -> None:
    tele.observe(
        StatementRecord(
            kind="select", sql="SELECT 1", profile=profile, result=Result(), **fields
        )
    )


def test_trace_capture_and_export():
    tele = Telemetry()
    observe_profiled(tele, profiled_span_tree())
    export = tele.export_traces()
    assert export["schema"] == TRACE_SCHEMA
    assert export["trace_count"] == 1
    trace = export["traces"][0]
    trace_id = trace["trace_id"]
    assert len(trace_id) == 32
    spans = trace["spans"]
    root = spans[0]
    assert root["parent_span_id"] is None
    assert root["start_ns"] == 0
    ids = {s["span_id"] for s in spans}
    assert len(ids) == len(spans)
    for span in spans[1:]:
        assert span["parent_span_id"] in ids
        assert len(span["span_id"]) == 16
        assert span["end_ns"] >= span["start_ns"] >= 0
    rewrite = next(s for s in spans if s["name"] == "rewrite")
    assert rewrite["attributes"] == {"summary": "sums"}
    # Flattened when read, the same ids every time.
    assert tele.export_traces() == export


def test_trace_buffer_ring_drops():
    profile = profiled_span_tree()
    tele = Telemetry()
    for _ in range(PROFILE_CAPACITY + 2):
        observe_profiled(tele, profile)
    export = tele.export_traces()
    assert export["trace_count"] == PROFILE_CAPACITY
    assert export["traces_dropped"] == 2
    trace_ids = {t["trace_id"] for t in export["traces"]}
    assert len(trace_ids) == PROFILE_CAPACITY


# -- statement classification -------------------------------------------------


def test_statement_kind():
    assert statement_kind(parse_statement("SELECT 1")) == "select"
    assert statement_kind(parse_statement("SHOW STATS")) == "show_stats"
    assert (
        statement_kind(parse_statement("CREATE TABLE t (x INTEGER)"))
        == "create_table"
    )
    assert statement_kind(parse_statement("INSERT INTO t VALUES (1)")) == "insert"


# -- Database integration -----------------------------------------------------


def test_telemetry_off_is_the_default():
    db = Database()
    assert db.telemetry is None
    assert db.metrics() == {}
    assert db.metrics_text() == ""
    assert db.events() == []
    assert db.slow_queries() == []
    envelope = json.loads(db.export_traces())
    assert envelope == {
        "schema": TRACE_SCHEMA,
        "trace_count": 0,
        "traces_dropped": 0,
        "traces": [],
    }
    result = db.execute("SHOW STATS")
    assert [c.name for c in result.columns] == ["metric", "labels", "value"]
    assert result.rows == []


def test_slow_query_ms_implies_telemetry():
    db = Database(slow_query_ms=100.0)
    assert db.telemetry is not None
    assert db.telemetry.slow_query_ms == 100.0


def test_prebuilt_telemetry_instance_conflict():
    with pytest.raises(ValueError):
        Database(telemetry=Telemetry(), slow_query_ms=1.0)


def test_queries_total_by_kind_and_strategy():
    db = Database(telemetry=True)
    db.execute("CREATE TABLE t (x INTEGER)")
    db.execute("INSERT INTO t VALUES (1), (2), (3)")
    db.execute("SELECT x FROM t")
    db.execute("SELECT COUNT(*) FROM t")
    tele = db.telemetry
    assert tele.queries_total.value(kind="create_table", strategy="none") == 1
    assert tele.queries_total.value(kind="insert", strategy="none") == 1
    assert tele.queries_total.value(kind="select", strategy="interpreter") == 2
    assert tele.query_duration_ms.count(kind="select") == 2
    # Three rows from the first select, one from the count.
    assert tele.rows_returned_total.value() == 4


def test_metrics_text_non_empty_and_parses():
    db = make_db(telemetry=True)
    db.execute("SELECT * FROM Orders")
    text = db.metrics_text()
    assert "queries_total" in text
    assert 'query_duration_ms_bucket{kind="select", le="+Inf"} 1' in text
    assert "# TYPE query_duration_ms histogram" in text


def test_events_capture_query_lifecycle():
    db = make_db(telemetry=True)
    db.execute("SELECT * FROM Orders WHERE revenue > 8")
    events = db.events()
    query_events = [e for e in events if e["event"] == "query"]
    assert query_events, events
    last = query_events[-1]
    assert last["kind"] == "select"
    assert last["strategy"] == "interpreter"
    assert last["rows"] == 3
    assert "execute" in last["phases"]
    assert "revenue > 8" in last["sql"]


def test_error_path_counts_and_logs():
    db = make_db(telemetry=True)
    with pytest.raises(SqlError):
        db.execute("SELECT nope FROM Orders")
    tele = db.telemetry
    assert tele.errors_total.total() == 1
    error_events = [e for e in db.events() if e["event"] == "error"]
    assert len(error_events) == 1
    assert "nope" in error_events[0]["message"]
    # The failed statement is not counted as a completed query.
    assert tele.queries_total.value(kind="select", strategy="interpreter") == 0


def test_parse_error_is_recorded():
    db = Database(telemetry=True)
    with pytest.raises(SqlError):
        db.execute("SELEKT 1")
    assert db.telemetry.errors_total.total() == 1


def test_slow_query_log_captures_profile():
    db = make_db(slow_query_ms=0.0)  # everything is slow
    db.execute("SELECT * FROM Orders")
    entries = db.slow_queries()
    assert entries
    entry = entries[-1]
    assert "Orders" in entry["sql"]
    assert entry["duration_ms"] >= 0.0
    assert entry["profile"]["schema_version"] == 2
    assert entry["profile"]["result_rows"] == 5
    assert db.telemetry.slow_queries_total.value() >= 1
    assert any(e["event"] == "slow_query" for e in db.events())


def test_trace_export_roundtrip_from_database():
    db = make_db(telemetry=True)
    db.execute("SELECT COUNT(*) FROM Orders")
    export = json.loads(db.export_traces(indent=2))
    assert export["schema"] == TRACE_SCHEMA
    assert export["trace_count"] >= 1
    trace = export["traces"][-1]
    assert "COUNT(*)" in trace["sql"]
    names = {s["name"] for s in trace["spans"]}
    assert "execute" in names


def test_a_trace_has_one_operator_span_per_frozen_node():
    """The trace is a projection of the frozen profile: under ``execute``,
    one ``operator`` span per node of the operator tree — Listing 5's
    correlated subquery included — nested as the tree is, each between its
    operator's first enter and last exit."""
    from repro.workloads.listings import SETUP, all_listing_sql
    from repro.workloads.paper_data import load_paper_tables

    db = Database(telemetry=True)
    load_paper_tables(db)
    for ddl in SETUP.values():
        db.execute(ddl)
    for name, sql in all_listing_sql(db).items():
        db.execute(sql)
        tree = db.last_profile().operator_tree
        spans = json.loads(db.export_traces())["traces"][-1]["spans"]
        (execute,) = [s for s in spans if s["name"] == "execute"]
        by_id = {s["span_id"]: s for s in spans}
        operators = [s for s in spans if s["kind"] == "operator"]

        def nodes(node, parent):
            yield node, parent
            for child in [*node.get("children", ()), *node.get("subplans", ())]:
                yield from nodes(child, node)

        frozen = list(nodes(tree, None))
        assert len(operators) == len(frozen), name
        for span, (node, parent) in zip(operators, frozen):
            assert span["name"] == node["label"], name
            assert span["attributes"] == {
                "calls": node["calls"], "rows": node["rows_out"],
                "time_ms": node["time_ms"],
            }, name
            above = by_id[span["parent_span_id"]]
            assert above is execute if parent is None else above["name"] == parent["label"]
            assert execute["start_ns"] <= span["start_ns"] <= span["end_ns"] <= execute["end_ns"]


def test_show_stats_reflects_registry():
    db = make_db(telemetry=True)
    db.execute("SELECT 1")
    result = db.execute("SHOW STATS")
    assert [c.name for c in result.columns] == ["metric", "labels", "value"]
    by_metric = {}
    for metric, labels, value in result.rows:
        by_metric.setdefault(metric, []).append((labels, value))
    assert ("kind=select, strategy=interpreter", 1.0) in by_metric[
        "queries_total"
    ]
    # SHOW STATS itself is recorded as a utility statement (as of *before*
    # it ran, so the first one shows no show_stats sample yet).
    result = db.execute("SHOW STATS")
    assert ("kind=show_stats, strategy=none", 1.0) in {
        (r[1], r[2]) for r in result.rows if r[0] == "queries_total"
    }


def test_explain_show_stats_is_an_error():
    db = Database(telemetry=True)
    with pytest.raises(SqlError, match="SHOW STATS"):
        db.execute("EXPLAIN SHOW STATS")


def test_show_stats_parses_prints_and_lints():
    assert to_sql(parse_statement("SHOW STATS")) == "SHOW STATS"
    db = Database()
    assert db.lint("SHOW STATS") == []
    nested = [d.code for d in db.lint("CREATE VIEW v AS SHOW STATS")]
    assert "RP112" in nested


def test_nested_show_stats_binder_error():
    db = Database(telemetry=True)
    with pytest.raises(SqlError, match="RP112"):
        db.execute("CREATE VIEW v AS SHOW STATS")


def test_lint_feeds_diagnostics_counter():
    db = make_db(telemetry=True)
    codes = [d.code for d in db.lint("SELECT nope FROM Orders")]
    assert "RP002" in codes
    assert db.telemetry.lint_diagnostics_total.value(rule="RP002") >= 1
    assert any(e["event"] == "lint" for e in db.events())


# -- matview counters ---------------------------------------------------------


MATVIEW_DDL = """CREATE MATERIALIZED VIEW prod_rev AS
    SELECT prodName, SUM(revenue) AS rev FROM Orders GROUP BY prodName"""


def test_matview_counters_match_summary_stats():
    db = make_db(telemetry=True)
    db.execute(MATVIEW_DDL)
    db.execute("SELECT prodName, SUM(revenue) FROM Orders GROUP BY prodName")
    db.execute("SELECT custName, SUM(revenue) FROM Orders GROUP BY custName")
    tele = db.telemetry
    stats = db.summary_stats()["prod_rev"]
    assert stats["hits"] == 1
    assert tele.matview_hits_total.value(view="prod_rev") == stats["hits"]
    misses = sum(
        value
        for _, value in tele.matview_misses_total.samples()
    )
    assert misses == stats["rejects"] + stats["stale_skips"]
    hit_query = [e for e in db.events() if e.get("strategy") == "summary"]
    assert len(hit_query) == 1
    assert hit_query[0]["summary"][0]["view"] == "prod_rev"


def test_stale_skip_counts_as_miss():
    db = make_db(telemetry=True)
    db.execute(MATVIEW_DDL)
    db.execute("UPDATE Orders SET revenue = revenue + 1 WHERE prodName = 'A'")
    db.execute("SELECT prodName, SUM(revenue) FROM Orders GROUP BY prodName")
    tele = db.telemetry
    assert tele.matview_misses_total.value(view="prod_rev", status="stale") == 1
    assert tele.matview_hits_total.value(view="prod_rev") == 0
    # Staleness is read off the write stamps: no maintenance event pushed it.
    assert tele.matview_maintenance_total.total() == 0


def test_internal_maintenance_invisible_to_query_metrics():
    db = make_db(telemetry=True)
    db.execute(MATVIEW_DDL)
    before = db.telemetry.queries_total.total()
    before_hist = db.telemetry.query_duration_ms.count(kind="select")
    db.execute("REFRESH MATERIALIZED VIEW prod_rev")
    tele = db.telemetry
    # The REFRESH statement itself is one statement; the summary
    # recomputation it runs internally is NOT a user-facing query.
    assert tele.queries_total.total() == before + 1
    assert tele.query_duration_ms.count(kind="select") == before_hist
    assert tele.queries_total.value(
        kind="refresh_materialized_view", strategy="none"
    ) == 1
    assert tele.internal_queries_total.value() >= 1
    assert tele.matview_maintenance_total.value(
        event="refresh", view="prod_rev"
    ) == 1


# -- the query event -----------------------------------------------------------


def test_every_profiled_query_emits_its_query_event():
    """A profiled success is a ``query`` event, an unprofiled one a
    ``statement`` event."""
    tele = Telemetry()
    observe_profiled(tele, profiled_span_tree())
    tele.observe(StatementRecord(kind="insert", sql="INSERT", result=Result()))
    assert [e["event"] for e in tele.events()] == ["query", "statement"]

    db = make_db(telemetry=True)
    for sql in ("SELECT COUNT(*) FROM Orders", "SELECT prodName FROM Orders"):
        db.execute(sql)
    queries = [e for e in db.events() if e["event"] == "query"]
    assert [e["sql"] for e in queries] == [
        "SELECT COUNT(*) FROM Orders", "SELECT prodName FROM Orders",
    ]
    assert all(set(e["phases"]) >= {"parse", "execute"} for e in queries)


# -- expansion feeds ---------------------------------------------------------


def test_expansion_counter():
    db = make_db(telemetry=True)
    db.expand(
        """SELECT prodName, AGGREGATE(rev) FROM
           (SELECT *, SUM(revenue) AS MEASURE rev FROM Orders)
           GROUP BY prodName"""
    )
    assert db.telemetry.expansions_total.value(strategy="subquery") == 1


# -- shell commands -----------------------------------------------------------


@pytest.fixture
def tele_shell():
    out = io.StringIO()
    db = make_db(telemetry=True, slow_query_ms=0.0)
    return Shell(db, out=out), out


def test_shell_stats(tele_shell):
    sh, out = tele_shell
    sh.handle_line("SELECT 1;")
    sh.handle_line("\\stats")
    assert "queries_total" in out.getvalue()


def test_shell_stats_off():
    out = io.StringIO()
    sh = Shell(Database(), out=out)
    sh.handle_line("\\stats")
    assert "telemetry is off" in out.getvalue()


def test_shell_events(tele_shell):
    sh, out = tele_shell
    sh.handle_line("SELECT 1;")
    sh.handle_line("\\events 5")
    lines = [l for l in out.getvalue().splitlines() if l.startswith("{")]
    assert lines
    assert json.loads(lines[-1])["event"] in {"query", "slow_query"}


def test_shell_slowlog(tele_shell):
    sh, out = tele_shell
    sh.handle_line("SELECT * FROM Orders;")
    sh.handle_line("\\slowlog")
    assert "Orders" in out.getvalue()


def test_shell_stat_statements(tele_shell):
    sh, out = tele_shell
    sh.handle_line("SELECT * FROM Orders;")
    sh.handle_line("\\stat_statements")
    text = out.getvalue()
    assert "fingerprint" in text
    assert "SELECT * FROM Orders" in text


def test_shell_stat_statements_off():
    out = io.StringIO()
    sh = Shell(Database(), out=out)
    sh.handle_line("\\stat_statements")
    assert "telemetry is off" in out.getvalue()


def test_shell_flips_empty(tele_shell):
    sh, out = tele_shell
    sh.handle_line("SELECT 1;")
    sh.handle_line("\\flips")
    assert "no plan flips" in out.getvalue()


def test_shell_telemetry_toggle():
    out = io.StringIO()
    sh = Shell(Database(), out=out)
    sh.handle_line("\\telemetry")
    assert sh.db.telemetry is not None
    sh.handle_line("\\telemetry")
    assert sh.db.telemetry is None
    assert "telemetry on" in out.getvalue()
    assert "telemetry off" in out.getvalue()


# -- bench regression gate ----------------------------------------------------


def snapshot_payload(listings: dict) -> dict:
    return {
        "schema": "repro-bench-v1",
        "generated": "2026-08-06T00:00:00+00:00",
        "listings": listings,
    }


def write_snapshot(tmp_path, name: str, listings: dict) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(snapshot_payload(listings)))
    return str(path)


def test_compare_identical_snapshots_pass(tmp_path):
    from benchmarks.report import compare_snapshots

    listings = {"e1": {"wall_ms": 1.0, "rows": 3}, "e2": {"wall_ms": 4.0, "rows": 1}}
    old = write_snapshot(tmp_path, "old.json", listings)
    new = write_snapshot(tmp_path, "new.json", listings)
    out = io.StringIO()
    assert compare_snapshots(old, new, out=out) == 0
    assert "ok" in out.getvalue()


def test_compare_regression_fails(tmp_path):
    from benchmarks.report import compare_snapshots

    old = write_snapshot(tmp_path, "old.json", {"e1": {"wall_ms": 5.0, "rows": 3}})
    new = write_snapshot(tmp_path, "new.json", {"e1": {"wall_ms": 50.0, "rows": 3}})
    out = io.StringIO()
    assert compare_snapshots(old, new, out=out) == 1
    assert "REGRESSION" in out.getvalue()


def test_compare_noise_within_threshold_passes(tmp_path):
    from benchmarks.report import compare_snapshots

    # +40% but under both the 50% relative and the 2ms absolute floor.
    old = write_snapshot(tmp_path, "old.json", {"e1": {"wall_ms": 1.0, "rows": 3}})
    new = write_snapshot(tmp_path, "new.json", {"e1": {"wall_ms": 1.4, "rows": 3}})
    assert compare_snapshots(old, new, out=io.StringIO()) == 0


def test_compare_small_absolute_regression_passes(tmp_path):
    from benchmarks.report import compare_snapshots

    # 3x relative growth but only +1ms absolute: below the 2ms floor.
    old = write_snapshot(tmp_path, "old.json", {"e1": {"wall_ms": 0.5, "rows": 3}})
    new = write_snapshot(tmp_path, "new.json", {"e1": {"wall_ms": 1.5, "rows": 3}})
    assert compare_snapshots(old, new, out=io.StringIO()) == 0


def test_compare_rows_changed_fails(tmp_path):
    from benchmarks.report import compare_snapshots

    old = write_snapshot(tmp_path, "old.json", {"e1": {"wall_ms": 1.0, "rows": 3}})
    new = write_snapshot(tmp_path, "new.json", {"e1": {"wall_ms": 1.0, "rows": 4}})
    out = io.StringIO()
    assert compare_snapshots(old, new, out=out) == 1
    assert "ROWS CHANGED" in out.getvalue()


def test_compare_removed_listing_fails_added_passes(tmp_path):
    from benchmarks.report import compare_snapshots

    old = write_snapshot(
        tmp_path, "old.json", {"e1": {"wall_ms": 1.0, "rows": 3}}
    )
    new = write_snapshot(
        tmp_path,
        "new.json",
        {"e2": {"wall_ms": 1.0, "rows": 3}},
    )
    out = io.StringIO()
    assert compare_snapshots(old, new, out=out) == 1
    text = out.getvalue()
    assert "REMOVED" in text
    assert "added" in text


def test_compare_rejects_wrong_schema(tmp_path):
    from benchmarks.report import compare_snapshots

    good = write_snapshot(tmp_path, "old.json", {})
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": "other-v9", "listings": {}}))
    with pytest.raises(SystemExit):
        compare_snapshots(good, str(bad), out=io.StringIO())


def test_compare_missing_snapshot_exits_with_one_line_error(tmp_path):
    from benchmarks.report import compare_snapshots

    good = write_snapshot(tmp_path, "old.json", {})
    missing = tmp_path / "nope.json"
    with pytest.raises(SystemExit) as exc_info:
        compare_snapshots(good, str(missing), out=io.StringIO())
    message = str(exc_info.value)
    assert "snapshot file not found" in message
    assert "\n" not in message
    assert "Traceback" not in message


def test_compare_malformed_snapshot_exits_with_one_line_error(tmp_path):
    from benchmarks.report import compare_snapshots

    good = write_snapshot(tmp_path, "old.json", {})
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SystemExit) as exc_info:
        compare_snapshots(good, str(bad), out=io.StringIO())
    message = str(exc_info.value)
    assert "not valid JSON" in message
    assert "\n" not in message


def test_compare_wrong_schema_message_names_both_schemas(tmp_path):
    from benchmarks.report import compare_snapshots

    good = write_snapshot(tmp_path, "old.json", {})
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": "other-v9", "listings": {}}))
    with pytest.raises(SystemExit) as exc_info:
        compare_snapshots(good, str(bad), out=io.StringIO())
    message = str(exc_info.value)
    assert "repro-bench-v1" in message
    assert "other-v9" in message
    assert "\n" not in message


#: The committed perf baseline (``BASELINE`` in the Makefile, the CI gate).
COMMITTED_BASELINE = "benchmarks/BENCH_2026-09-27.json"


def test_committed_baseline_has_every_section_and_compares_clean_against_itself():
    from benchmarks.report import compare_snapshots

    with open(COMMITTED_BASELINE) as handle:
        payload = json.load(handle)
    # A section missing here is a section the gate silently skips.
    assert {"listings", "tpch", "server", "observability", "meta"} <= set(payload)
    assert (
        compare_snapshots(COMMITTED_BASELINE, COMMITTED_BASELINE, out=io.StringIO())
        == 0
    )


def tpch_section(queries: dict) -> dict:
    return {"sf": 0.01, "cardinalities": {"lineitem": 60175}, "queries": queries}


def test_compare_section_only_in_new_is_skipped_not_failed(tmp_path):
    """A baseline from before the tpch section existed must stay usable."""
    from benchmarks.report import compare_snapshots

    listings = {"e1": {"wall_ms": 1.0, "rows": 3}}
    old = write_snapshot(tmp_path, "old.json", listings)
    new_payload = snapshot_payload(listings)
    new_payload["tpch"] = tpch_section(
        {"revenue_by_region": {"rows": 5, "cold_ms": 100.0, "matview_hit_ms": 1.0}}
    )
    new = tmp_path / "new.json"
    new.write_text(json.dumps(new_payload))
    out = io.StringIO()
    assert compare_snapshots(old, str(new), out=out) == 0
    text = out.getvalue()
    assert "only in" in text and "skipped" in text
    assert "No regressions." in text


def test_compare_section_only_in_old_is_skipped_not_failed(tmp_path):
    from benchmarks.report import compare_snapshots

    listings = {"e1": {"wall_ms": 1.0, "rows": 3}}
    old_payload = snapshot_payload(listings)
    old_payload["tpch"] = tpch_section(
        {"revenue_by_region": {"rows": 5, "cold_ms": 100.0}}
    )
    old = tmp_path / "old.json"
    old.write_text(json.dumps(old_payload))
    new = write_snapshot(tmp_path, "new.json", listings)
    out = io.StringIO()
    assert compare_snapshots(str(old), new, out=out) == 0
    assert "skipped" in out.getvalue()


def test_compare_shared_listings_regression_still_caught_with_mixed_schema(tmp_path):
    """The skipped-section rule must not mask regressions in shared sections."""
    from benchmarks.report import compare_snapshots

    old = write_snapshot(tmp_path, "old.json", {"e1": {"wall_ms": 5.0, "rows": 3}})
    new_payload = snapshot_payload({"e1": {"wall_ms": 50.0, "rows": 3}})
    new_payload["tpch"] = tpch_section(
        {"revenue_by_region": {"rows": 5, "cold_ms": 100.0}}
    )
    new = tmp_path / "new.json"
    new.write_text(json.dumps(new_payload))
    out = io.StringIO()
    assert compare_snapshots(old, str(new), out=out) == 1
    assert "REGRESSION" in out.getvalue()


def test_compare_gates_tpch_when_both_sides_have_it(tmp_path):
    from benchmarks.report import compare_snapshots

    listings = {"e1": {"wall_ms": 1.0, "rows": 3}}
    old_payload = snapshot_payload(listings)
    old_payload["tpch"] = tpch_section(
        {"revenue_by_region": {"rows": 5, "cold_ms": 100.0, "matview_hit_ms": 1.0}}
    )
    new_payload = snapshot_payload(listings)
    new_payload["tpch"] = tpch_section(
        {"revenue_by_region": {"rows": 5, "cold_ms": 500.0, "matview_hit_ms": 1.0}}
    )
    old = tmp_path / "old.json"
    old.write_text(json.dumps(old_payload))
    new = tmp_path / "new.json"
    new.write_text(json.dumps(new_payload))
    out = io.StringIO()
    assert compare_snapshots(str(old), str(new), out=out) == 1
    text = out.getvalue()
    assert "tpch/revenue_by_region:cold" in text
    # The unregressed matview-hit series stays green.
    assert "REGRESSION" in text


def test_compare_tpch_rows_changed_fails(tmp_path):
    from benchmarks.report import compare_snapshots

    listings = {"e1": {"wall_ms": 1.0, "rows": 3}}
    old_payload = snapshot_payload(listings)
    old_payload["tpch"] = tpch_section(
        {"orders_by_year": {"rows": 7, "cold_ms": 10.0}}
    )
    new_payload = snapshot_payload(listings)
    new_payload["tpch"] = tpch_section(
        {"orders_by_year": {"rows": 8, "cold_ms": 10.0}}
    )
    old = tmp_path / "old.json"
    old.write_text(json.dumps(old_payload))
    new = tmp_path / "new.json"
    new.write_text(json.dumps(new_payload))
    out = io.StringIO()
    assert compare_snapshots(str(old), str(new), out=out) == 1
    assert "ROWS CHANGED" in out.getvalue()


# -- snapshot provenance (meta section) --------------------------------------


def test_snapshot_meta_shape():
    """snapshot_meta() carries provenance: commit, python, platform, date."""
    import platform as platform_mod

    from benchmarks.report import snapshot_meta

    meta = snapshot_meta()
    assert set(meta) == {"git_commit", "python", "platform", "schema_date"}
    assert meta["python"] == platform_mod.python_version()
    assert meta["platform"] == platform_mod.platform()
    # Inside this repo's checkout the commit resolves to a 40-char sha;
    # outside git it is None — both are valid provenance.
    assert meta["git_commit"] is None or (
        isinstance(meta["git_commit"], str) and len(meta["git_commit"]) == 40
    )
    assert len(meta["schema_date"]) == 10  # YYYY-MM-DD


def test_compare_ignores_meta_and_tolerates_snapshots_lacking_it(tmp_path):
    """--compare never reads meta: the committed baseline, which carries
    one, gates cleanly against a snapshot from before the section existed."""
    from benchmarks.report import compare_snapshots

    with open(COMMITTED_BASELINE) as handle:
        payload = json.load(handle)
    del payload["meta"]
    old = tmp_path / "premeta.json"
    old.write_text(json.dumps(payload))
    out = io.StringIO()
    assert compare_snapshots(str(old), COMMITTED_BASELINE, out=out) == 0
    assert "git_commit" not in out.getvalue()


def test_compare_meta_only_difference_is_invisible(tmp_path):
    """Two snapshots differing only in meta (different commits) are equal."""
    from benchmarks.report import compare_snapshots

    listings = {"e1": {"wall_ms": 1.0, "rows": 3}}
    old_payload = snapshot_payload(listings)
    old_payload["meta"] = {
        "git_commit": "a" * 40,
        "python": "3.10.0",
        "platform": "old-box",
        "schema_date": "2026-01-01",
    }
    new_payload = snapshot_payload(listings)
    new_payload["meta"] = {
        "git_commit": "b" * 40,
        "python": "3.12.0",
        "platform": "new-box",
        "schema_date": "2026-08-07",
    }
    old = tmp_path / "old.json"
    old.write_text(json.dumps(old_payload))
    new = tmp_path / "new.json"
    new.write_text(json.dumps(new_payload))
    out = io.StringIO()
    assert compare_snapshots(str(old), str(new), out=out) == 0
