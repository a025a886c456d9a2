"""The observability subsystem: tracer spans, operator metrics,
QueryProfile serialization, EXPLAIN ANALYZE, and the zero-cost-off path."""

from __future__ import annotations

import json
import re

import pytest

from repro import Database, SqlError
from repro.profile import OperatorMetrics, Profiler, Span, Tracer


# -- tracer: span nesting, budget, serialization ------------------------------


def test_span_nesting_and_tree():
    clock = iter(range(0, 1_000_000, 1000)).__next__
    tracer = Tracer(clock=lambda: clock() * 1_000_000)
    outer = tracer.begin("bind")
    inner = tracer.begin("resolve")
    tracer.end(inner)
    tracer.end(outer)
    sibling = tracer.begin("execute")
    tracer.end(sibling)
    root = tracer.finish()
    assert [s.name for s in root.walk()] == [
        "query", "bind", "resolve", "execute",
    ]
    assert root.children[0].children == [inner]
    assert root.find("resolve") is inner
    assert root.find("nope") is None
    # Durations are monotone: each span fits inside its parent.
    assert inner.duration_ms <= outer.duration_ms <= root.duration_ms


def test_span_to_dict_is_stable():
    tracer = Tracer()
    span = tracer.begin("execute", "phase")
    span.meta["b"] = 2
    span.meta["a"] = 1
    tracer.end(span)
    entry = tracer.finish().to_dict()
    assert list(entry) == ["name", "kind", "duration_ms", "children"]
    child = entry["children"][0]
    assert child["name"] == "execute"
    assert child["kind"] == "phase"
    assert list(child["meta"]) == ["a", "b"]  # meta keys sorted
    # Serializes to JSON as-is.
    json.dumps(entry)


def test_span_budget_drops_not_crashes():
    tracer = Tracer(max_spans=3)
    spans = [tracer.begin(f"s{i}") for i in range(6)]
    assert [s is None for s in spans] == [False, False, False, True, True, True]
    assert tracer.dropped == 3
    for span in reversed(spans):
        tracer.end(span)  # None is accepted
    root = tracer.finish()
    assert sum(1 for _ in root.walk()) == 4  # root + 3 recorded


def test_end_closes_dangling_children():
    """An exception that unwinds past inner end() calls must not corrupt
    the stack: ending the outer span closes the leaked inner spans."""
    tracer = Tracer()
    outer = tracer.begin("outer")
    inner = tracer.begin("inner")  # never explicitly ended
    tracer.end(outer)
    assert tracer.current is tracer.root
    assert inner.end_ns != 0
    after = tracer.begin("after")
    tracer.end(after)
    assert [c.name for c in tracer.root.children] == ["outer", "after"]


def test_span_contextmanager():
    tracer = Tracer()
    with tracer.span("bind"):
        with tracer.span("resolve"):
            pass
    root = tracer.finish()
    assert [s.name for s in root.walk()] == ["query", "bind", "resolve"]


# -- operator metrics ---------------------------------------------------------


def test_operator_metrics_describe():
    metrics = OperatorMetrics("Scan(t)")
    metrics.calls = 2
    metrics.rows_out = 10
    metrics.rows_in = 4
    metrics.time_ns = 1_500_000
    metrics.count("hash_probes", 7)
    text = metrics.describe()
    assert "rows=10" in text and "calls=2" in text
    assert "rows_in=4" in text and "hash_probes=7" in text
    assert "time=1.500ms" in text
    assert "time=" not in metrics.describe(timing=False)


def test_profiler_counts_per_operator(paper_db):
    paper_db.profile_enabled = True
    result = paper_db.execute(
        "SELECT prodName, SUM(revenue) FROM Orders GROUP BY prodName"
    )
    profile = paper_db.last_profile()
    tree = profile.operator_tree
    # Root operator's rows match the result; the scan saw all 5 orders.
    assert tree["rows_out"] == len(result.rows)
    labels = {line.split(" (")[0].strip() for line in profile.plan_lines()}
    assert any(label.startswith("Scan(Orders)") for label in labels)
    scan = [n for n in _walk_tree(tree) if n["label"].startswith("Scan")]
    assert scan and scan[0]["rows_out"] == 5
    aggregate = [
        n for n in _walk_tree(tree) if n["label"].startswith("Aggregate")
    ]
    assert aggregate and aggregate[0]["counters"]["groups"] == 3
    assert profile.counters["rows_scanned"] == 5


def _walk_tree(node):
    yield node
    for child in node.get("children", ()):
        yield from _walk_tree(child)


def test_profiler_join_counters(paper_db):
    paper_db.profile_enabled = True
    paper_db.execute(
        """SELECT o.prodName, c.custAge FROM Orders AS o
           JOIN Customers AS c ON o.custName = c.custName"""
    )
    profile = paper_db.last_profile()
    joins = [
        n for n in _walk_tree(profile.operator_tree) if "Join" in n["label"]
    ]
    assert joins
    counters = joins[0]["counters"]
    # Either the hash or the nested-loop path ran, and counted its work.
    assert "hash_probes" in counters or "comparisons" in counters


def test_profiler_measure_cache_metrics(orders_db):
    orders_db.profile_enabled = True
    orders_db.execute(
        """SELECT prodName, AGGREGATE(profitMargin)
           FROM EnhancedOrders GROUP BY prodName"""
    )
    profile = orders_db.last_profile()
    assert "profitMargin" in profile.measures
    entry = profile.measures["profitMargin"]
    assert entry["evaluations"] >= 3  # one per group at least
    assert profile.counters["measure_evaluations"] >= 3
    assert any(line.startswith("measure profitMargin:")
               for line in profile.summary_lines())


# -- the zero-cost-when-off path ---------------------------------------------


def test_profile_off_never_constructs_profiler(paper_db, monkeypatch):
    """With profiling off, no Profiler (and hence no Tracer, no span, no
    timestamp) may be allocated anywhere in the query path."""
    import repro.profile
    import repro.profile.profiler

    def boom(*args, **kwargs):
        raise AssertionError("Profiler constructed with profiling off")

    monkeypatch.setattr(repro.profile, "Profiler", boom)
    monkeypatch.setattr(repro.profile.profiler.Profiler, "__init__", boom)
    result = paper_db.execute(
        "SELECT prodName, SUM(revenue) FROM Orders GROUP BY prodName"
    )
    assert len(result.rows) == 3
    assert paper_db.last_profile() is None


def test_execution_context_defaults_to_no_profiler(db):
    db.execute("CREATE TABLE t (x INTEGER)")
    db.execute("INSERT INTO t VALUES (1)")
    db.execute("SELECT x FROM t")
    assert db.last_stats.profiler is None


# -- Database(profile=True) / last_profile ------------------------------------


def test_database_profile_flag(paper_db):
    db = Database(profile=True)
    db.execute("CREATE TABLE t (x INTEGER)")
    db.execute("INSERT INTO t VALUES (1), (2)")
    result = db.execute("SELECT x FROM t WHERE x > 1")
    profile = db.last_profile()
    assert profile is not None
    assert profile.result_rows == len(result.rows) == 1
    # The profile covers every phase including parse.
    phase_names = [c.name for c in profile.root_span.children]
    for name in ("parse", "bind", "execute"):
        assert name in phase_names
    assert profile.phase_ms("parse") is not None
    assert profile.total_ms >= 0.0
    assert profile.sql is not None and "SELECT" in profile.sql


def test_recorder_does_not_change_the_profile_phases(tmp_path):
    """profile=True covers the same phases, parse included, whether or not
    the flight recorder is attached."""

    def phases(**kwargs) -> list:
        db = Database(profile=True, **kwargs)
        db.execute("CREATE TABLE t (x INTEGER)")
        db.execute("SELECT x FROM t WHERE x > 1")
        return [c.name for c in db.last_profile().root_span.children]

    alone = phases()
    assert alone == [
        "parse", "rewrite", "bind", "optimize", "dataflow", "execute",
    ]
    assert phases(record_to=str(tmp_path / "journal.jsonl")) == alone


def test_profile_serialization_stability(paper_db):
    paper_db.profile_enabled = True
    paper_db.execute("SELECT COUNT(*) FROM Orders")
    profile = paper_db.last_profile()
    entry = profile.to_dict()
    assert list(entry) == [
        "schema_version", "sql", "total_ms", "result_rows",
        "spans_dropped", "phases", "plan", "counters", "measures",
    ]
    assert entry["spans_dropped"] == 0
    assert entry["schema_version"] == 1
    assert list(entry["counters"]) == sorted(entry["counters"])
    # to_json round-trips to the same dict.
    assert json.loads(profile.to_json()) == entry
    assert json.loads(profile.to_json(indent=2)) == entry


# -- EXPLAIN ANALYZE ----------------------------------------------------------

_TIME = re.compile(r"=\d+\.\d{3}ms")

LISTING1 = """SELECT prodName, COUNT(*) AS c,
               (SUM(revenue) - SUM(cost)) / SUM(revenue) AS profitMargin
        FROM Orders GROUP BY prodName ORDER BY prodName"""


def test_explain_analyze_exact_output(paper_db):
    """The full EXPLAIN ANALYZE rendering for paper Listing 1, exactly
    (timings normalized — everything else is deterministic)."""
    result = paper_db.execute(f"EXPLAIN ANALYZE {LISTING1}")
    lines = [_TIME.sub("=<T>", line) for (line,) in result.rows]
    assert lines == [
        "Sort (rows=3 calls=1 rows_in=3 time=<T>)",
        "  Project (rows=3 calls=1 rows_in=3 time=<T>)",
        "    Aggregate(keys=1, aggs=3, sets=1) "
        "(rows=3 calls=1 rows_in=5 time=<T> groups=3)",
        "      Scan(Orders) (rows=5 calls=1 time=<T>)",
        "phases: rewrite=<T> bind=<T> optimize=<T> dataflow=<T> execute=<T> "
        "total=<T>",
        "counters: aggregate_input_rows=15 aggregate_invocations=9 "
        "column.checked_values=0 "
        "hash_joins=0 measure_cache_hits=0 measure_evaluations=0 "
        "nested_loop_joins=0 rows_scanned=5 subquery_cache_hits=0 "
        "subquery_executions=0",
    ]


def test_explain_analyze_executes_the_query(paper_db):
    """EXPLAIN ANALYZE genuinely runs the query (PostgreSQL semantics): the
    profile it renders reflects real row counts."""
    result = paper_db.execute("EXPLAIN ANALYZE SELECT * FROM Orders")
    assert any("rows=5" in line for (line,) in result.rows)
    profile = paper_db.last_profile()
    assert profile.result_rows == 5


def test_explain_lint_analyze_combined(paper_db):
    result = paper_db.execute(
        "EXPLAIN (LINT, ANALYZE) SELECT prodName FROM Orders"
    )
    lines = [line for (line,) in result.rows]
    assert lines[0] == "lint: clean"
    assert any(line.startswith("Scan(Orders)") or "Scan(Orders)" in line
               for line in lines)
    assert any(line.startswith("phases:") for line in lines)


def test_explain_analyze_measure_query(orders_db):
    result = orders_db.execute(
        """EXPLAIN ANALYZE SELECT prodName, AGGREGATE(profitMargin)
           FROM EnhancedOrders GROUP BY prodName"""
    )
    lines = [line for (line,) in result.rows]
    assert any(line.startswith("measure profitMargin:") for line in lines)


def test_explain_analyze_ddl_is_an_error(paper_db):
    with pytest.raises(SqlError, match="RP111"):
        paper_db.execute("EXPLAIN ANALYZE INSERT INTO Orders SELECT * FROM Orders")
    with pytest.raises(SqlError, match="RP111"):
        paper_db.execute("EXPLAIN DROP TABLE Orders")
    # And the statement never ran.
    assert paper_db.execute("SELECT COUNT(*) FROM Orders").scalar() == 5


def test_lint_rp111_on_explained_ddl(paper_db):
    diags = paper_db.lint("EXPLAIN ANALYZE DROP TABLE Orders")
    assert any(d.code == "RP111" for d in diags)
    # The wrapped statement still gets its own diagnostics.
    diags = paper_db.lint(
        "EXPLAIN ANALYZE CREATE VIEW v AS SELECT * FROM Orders"
    )
    codes = {d.code for d in diags}
    assert "RP111" in codes and "RP109" in codes  # SELECT * in a view def


def test_explain_analyze_round_trips_through_printer():
    from repro.sql import parse_statement, to_sql

    for sql, printed in [
        ("EXPLAIN ANALYZE SELECT 1", "EXPLAIN ANALYZE SELECT 1"),
        ("EXPLAIN (ANALYZE) SELECT 1", "EXPLAIN ANALYZE SELECT 1"),
        ("EXPLAIN (ANALYZE, LINT) SELECT 1", "EXPLAIN (LINT, ANALYZE) SELECT 1"),
        ("EXPLAIN (LINT, ANALYZE) SELECT 1", "EXPLAIN (LINT, ANALYZE) SELECT 1"),
        ("EXPLAIN (LINT) SELECT 1", "EXPLAIN (LINT) SELECT 1"),
        ("EXPLAIN ANALYZE DROP TABLE t", "EXPLAIN ANALYZE DROP TABLE t"),
    ]:
        assert to_sql(parse_statement(sql)) == printed
        # Fixed point.
        assert to_sql(parse_statement(printed)) == printed


def test_explain_unknown_option_rejected():
    from repro.sql import parse_statement

    with pytest.raises(SqlError, match="EXPLAIN option"):
        parse_statement("EXPLAIN (LINT, VERBOSE) SELECT 1")
    # An unrecognized leading word is not an option list at all, so it fails
    # as a malformed parenthesized query — still a typed error.
    with pytest.raises(SqlError):
        parse_statement("EXPLAIN (VERBOSE) SELECT 1")


# -- matview hit/miss latency -------------------------------------------------


@pytest.fixture
def summary_db(db):
    db.execute("CREATE TABLE sales (region VARCHAR, amount INTEGER)")
    db.execute(
        "INSERT INTO sales VALUES ('east', 10), ('east', 20), ('west', 5)"
    )
    db.execute(
        """CREATE MATERIALIZED VIEW region_totals AS
           SELECT region, SUM(amount) AS total
           FROM sales GROUP BY region"""
    )
    return db


def test_summary_hit_latency_recorded(summary_db):
    summary_db.execute(
        "SELECT region, SUM(amount) FROM sales GROUP BY region"
    )
    stats = summary_db.summary_stats()["region_totals"]
    assert stats["hits"] == 1
    assert stats["hit_time_ms"] > 0.0
    assert stats["miss_time_ms"] == 0.0


def test_summary_miss_latency_recorded(summary_db):
    # An UPDATE invalidates the summary (inserts alone merge incrementally),
    # making it a stale-skipped candidate: the query runs from source and
    # its latency lands in miss_time_ms.
    summary_db.execute("UPDATE sales SET amount = 6 WHERE region = 'west'")
    summary_db.execute(
        "SELECT region, SUM(amount) FROM sales GROUP BY region"
    )
    stats = summary_db.summary_stats()["region_totals"]
    assert stats["hits"] == 0
    assert stats["stale_skips"] == 1
    assert stats["miss_time_ms"] > 0.0
    assert stats["hit_time_ms"] == 0.0


def test_unrelated_query_records_no_latency(summary_db):
    summary_db.execute("SELECT 1")
    stats = summary_db.summary_stats()["region_totals"]
    assert stats["hit_time_ms"] == 0.0 and stats["miss_time_ms"] == 0.0


# -- shell integration --------------------------------------------------------


def test_shell_profile_toggle():
    import io

    from repro.cli import Shell

    out = io.StringIO()
    shell = Shell(out=out)
    shell.handle_line("\\profile")
    shell.handle_line("CREATE TABLE t (x INTEGER);")
    shell.handle_line("INSERT INTO t VALUES (1), (2);")
    shell.handle_line("SELECT x FROM t ORDER BY x;")
    text = out.getvalue()
    assert "profile on" in text
    assert "Scan(t)" in text        # annotated operator tree printed
    assert "phases:" in text
    shell.handle_line("\\profile")
    assert "profile off" in out.getvalue()


def test_shell_profile_silent_on_ddl_only():
    import io

    from repro.cli import Shell

    out = io.StringIO()
    shell = Shell(out=out)
    shell.handle_line("\\profile")
    shell.handle_line("CREATE TABLE t (x INTEGER);")
    assert "phases:" not in out.getvalue()


# -- expansion tracing --------------------------------------------------------


def test_expand_auto_traced(orders_db):
    orders_db.profile_enabled = True
    orders_db.expand(
        """SELECT prodName, AGGREGATE(profitMargin) AS pm
           FROM EnhancedOrders GROUP BY prodName""",
        strategy="auto",
    )
    profile = orders_db.last_profile()
    attempts = [
        s for s in profile.root_span.walk() if s.kind == "expand"
    ]
    assert attempts, "auto cascade should record expand:* attempt spans"
    assert all("outcome" in s.meta for s in attempts)
