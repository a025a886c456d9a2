"""The observability subsystem: tracer spans, operator metrics,
QueryProfile serialization, EXPLAIN ANALYZE, and the zero-cost-off path."""

from __future__ import annotations

import json
import re

import pytest

from repro import Database, SqlError
from repro.profile import Span, Tracer, Watch


# -- tracer: span nesting, serialization -------------------------------------


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


def test_a_statement_records_its_phases_not_its_operators():
    """Operators and measure evaluations are entries, not spans: over the
    15 listings and the TPC-H queries, a watched statement's span tree is
    its root, its phases and any expansion attempts, a handful of spans
    however many rows its correlated subqueries run for."""
    from repro.workloads.listings import SETUP, all_listing_sql
    from repro.workloads.paper_data import load_paper_tables
    from repro.workloads.tpch import TPCH_QUERIES, tpch_measure_database

    listings_db = Database(telemetry=True)
    load_paper_tables(listings_db)
    for ddl in SETUP.values():
        listings_db.execute(ddl)
    tpch_db = tpch_measure_database(0.001, telemetry=True)
    workloads = [
        (listings_db, all_listing_sql(listings_db)),
        (tpch_db, TPCH_QUERIES),
    ]
    assert [len(queries) for _, queries in workloads] == [15, 7]
    for db, queries in workloads:
        for name, sql in queries.items():
            db.execute(sql)
            spans = list(db.last_profile().root_span.walk())
            assert {span.kind for span in spans} <= {"query", "phase", "expand"}, name
            assert len(spans) <= 10, name


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


# -- operator entries ---------------------------------------------------------


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
    """Every node of a frozen operator tree, its subplans included."""
    yield node
    for child in [*node.get("children", ()), *node.get("subplans", ())]:
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


# -- one watcher: one bracket per operator execution, two projections ---------


class CountingWatch(Watch):
    """Records every bracket call the executor makes, by operator label."""

    def __init__(self):
        super().__init__()
        self.calls: list = []

    def enter(self, plan):
        self.calls.append(("enter", plan.label()))
        super().enter(plan)

    def exit(self, rows):
        self.calls.append(("exit", self._running[-1][0].label))
        super().exit(rows)

    def abort(self):
        self.calls.append(("abort", self._running[-1][0].label))
        super().abort()

    def operator_count(self, plan, key, amount=1):
        if key == "shared_hits":  # the executor's and the evaluator's alike
            self.calls.append(("hit", plan.label()))
        super().operator_count(plan, key, amount)


def _run_counting(db, sql, raises=None):
    from repro.engine.evaluator import ExecutionContext
    from repro.engine.executor import execute_plan
    from repro.sql import parse_query

    db.optimizer_enabled = False  # keep the Filter where the query put it
    plan = db.plan_query(parse_query(sql)).plan
    watch = CountingWatch()
    ctx = ExecutionContext(db.catalog, watch=watch)
    if raises is None:
        execute_plan(plan, ctx)
    else:
        with pytest.raises(SqlError, match=raises):
            execute_plan(plan, ctx)
    # Brackets nest: whatever closes an operator closes the innermost one.
    open_labels = []
    for call, label in watch.calls:
        if call == "enter":
            open_labels.append(label)
        elif call != "hit":
            assert open_labels.pop() == label
    assert open_labels == []
    return plan, watch


def test_one_enter_and_one_exit_per_operator_execution(orders_db):
    # Filter -> Aggregate over a measure's [shared] source: the query's FROM
    # and the measure evaluator both ask for the source, one of them runs it.
    plan, watch = _run_counting(
        orders_db,
        """SELECT prodName, AGGREGATE(profitMargin) FROM EnhancedOrders
           WHERE prodName <> 'Acme' GROUP BY prodName""",
    )
    labels = [node.label() for node in plan.walk()]
    assert any(l.startswith("Filter") for l in labels)
    assert any(l.endswith("[shared]") for l in labels)
    for call in ("enter", "exit"):
        assert sorted(l for c, l in watch.calls if c == call) == sorted(labels)
    hits = [l for c, l in watch.calls if c == "hit"]
    assert hits and all(l.endswith("[shared]") for l in hits)
    assert not [c for c, _ in watch.calls if c == "abort"]


def test_abort_in_place_of_exit_for_the_operator_that_raises(orders_db):
    plan, watch = _run_counting(
        orders_db,
        """SELECT prodName, AGGREGATE(profitMargin) FROM EnhancedOrders
           WHERE 1 / (YEAR(orderDate) - YEAR(orderDate)) > 0 GROUP BY prodName""",
        raises="division by zero",
    )
    closed: list = []  # how each operator closed, in the order they entered
    running: list = []
    for call, _ in watch.calls:
        if call == "enter":
            running.append(len(closed))
            closed.append(None)
        else:
            closed[running.pop()] = call
    labels = [node.label() for node in plan.walk()]
    assert [label for call, label in watch.calls if call == "enter"] == labels
    # The chain from the root down to the Filter that raised, nothing else.
    raised = next(i for i, label in enumerate(labels) if label.startswith("Filter"))
    assert closed == ["abort"] * (raised + 1) + ["exit"] * (len(labels) - raised - 1)
    tree = watch.finish().operator_tree
    assert tree is None  # nobody told this watcher its root plan
    watch.attach(plan)
    tree = watch.finish().operator_tree
    assert tree["counters"] == {"errors": 1} and tree["calls"] == 1


def test_progress_rows_and_the_operator_tree_are_the_same_entries():
    """After any run — the 15 listings — what ``repro_query_progress`` shows
    of an operator and what the profile's tree shows agree on its label,
    calls, rows and estimate: both are read off the one entry.  Every
    progress row is one node of the tree, a correlated subquery's operators
    (Listings 5, 11 and 12 q1) as its host's subplans."""
    from repro.sql import parse_query
    from repro.workloads.listings import SETUP, all_listing_sql
    from repro.workloads.paper_data import load_paper_tables

    db = Database()
    load_paper_tables(db)
    for ddl in SETUP.values():
        db.execute(ddl)
    listings = all_listing_sql(db)
    assert len(listings) == 15
    for name, sql in listings.items():
        planned = db.plan_query(parse_query(sql))
        watch = Watch()
        _, profile = db.execute_planned(planned, watch=watch)
        rows = watch.operator_rows()
        assert [row[1] for row in rows] == list(range(1, len(rows) + 1)), name
        by_plan = dict(zip(dict.fromkeys(map(id, planned.plan.walk())), rows))

        def check(plan, node):
            _, _, operator, est_min, est_max, rows_out, calls, state = by_plan[id(plan)]
            assert (operator, calls, rows_out) == (
                node["label"], node["calls"], node["rows_out"],
            ), name
            assert (est_min, est_max) == (
                node["facts"]["row_min"], node["facts"]["row_max"],
            ), name
            assert state == ("done" if calls else "pending"), name
            children = node.get("children", [])
            assert len(children) == len(plan.inputs()), name
            for child_plan, child in zip(plan.inputs(), children):
                check(child_plan, child)

        check(planned.plan, profile.operator_tree)
        assert profile.operator_tree["rows_out"] == profile.result_rows, name
        assert sorted(row[2:3] + row[5:7] for row in rows) == sorted(
            (node["label"], node["rows_out"], node["calls"])
            for node in _walk_tree(profile.operator_tree)
        ), name


def test_a_served_statements_phases_cover_what_the_client_waited_for():
    """A session's watcher exists before the parse: a new text reports
    parse, plan_cache and execute, a repeated text (memoized, like a
    prepared handle) only plan_cache and execute, a miss plans under
    plan_cache, and the phases never sum to more than the statement's wall
    time."""
    from repro.server import SessionManager

    db = Database(telemetry=True, slow_query_ms=0.0)
    db.execute("CREATE TABLE t (x INTEGER)")
    db.execute("INSERT INTO t VALUES (1), (2)")
    session = SessionManager(db).open_session()
    sql = "SELECT SUM(x) FROM t"
    session.execute(sql)
    session.execute(sql)
    session.execute_prepared(session.prepare(sql))
    events = [e for e in db.events() if e["event"] == "query"][-3:]
    assert [list(e["phases"]) for e in events] == [
        ["parse", "plan_cache", "execute"],
        ["plan_cache", "execute"],  # the text was parsed once, above
        ["plan_cache", "execute"],
    ]
    for event in events:
        assert sum(event["phases"].values()) <= event["duration_ms"]
    spans = [
        next(c for c in entry["profile"]["phases"]["children"] if c["name"] == "plan_cache")
        for entry in db.slow_queries()[-3:]
    ]
    assert [span["meta"] for span in spans] == [
        {"cache": "miss"}, {"cache": "hit"}, {"cache": "hit"},
    ]
    assert [c["name"] for c in spans[0]["children"]] == [
        "rewrite", "bind", "optimize", "dataflow",
    ]
    assert "children" not in spans[1] and "children" not in spans[2]


# -- the zero-cost-when-off path ---------------------------------------------


def test_profile_off_never_constructs_profiler(paper_db, monkeypatch):
    """With profiling off, no Watch (and hence no Tracer, no span, no
    timestamp) may be allocated anywhere in the query path."""

    def boom(*args, **kwargs):
        raise AssertionError("Watch constructed with profiling off")

    monkeypatch.setattr(Watch, "__init__", boom)
    result = paper_db.execute(
        "SELECT prodName, SUM(revenue) FROM Orders GROUP BY prodName"
    )
    assert len(result.rows) == 3
    assert paper_db.last_profile() is None


def test_execution_context_defaults_to_no_profiler(db):
    db.execute("CREATE TABLE t (x INTEGER)")
    db.execute("INSERT INTO t VALUES (1)")
    db.execute("SELECT x FROM t")
    assert db.last_stats.watch is None


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
        "phases", "plan", "counters", "measures",
    ]
    assert entry["schema_version"] == 2
    # The one operator ran inside the statement, and says when.
    assert 0 <= entry["plan"]["start_ns"] <= entry["plan"]["end_ns"]
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


def test_explain_analyze_shows_the_correlated_subquery_it_ran(paper_db):
    """Listing 5's measure reference is a correlated subquery (§4.2): its
    four operators print as a SubPlan of the Project that evaluates it,
    with calls as the subquery's executions, not as the Project's input."""
    from repro.workloads.listings import SETUP, all_listing_sql

    for ddl in SETUP.values():
        paper_db.execute(ddl)
    sql = all_listing_sql(paper_db)["listing5"]
    result = paper_db.execute(f"EXPLAIN ANALYZE {sql}")
    lines = [_TIME.sub("=<T>", line) for (line,) in result.rows]
    assert lines[:9] == [
        "Sort (rows=3 calls=1 rows_in=3 time=<T>)",
        "  Project (rows=3 calls=1 rows_in=3 time=<T>)",
        "    Aggregate(keys=1, aggs=1, sets=1) "
        "(rows=3 calls=1 rows_in=5 time=<T> groups=3)",
        "      Scan(Orders) (rows=5 calls=1 time=<T>)",
        "    SubPlan",
        "      Project (rows=3 calls=3 rows_in=3 time=<T>)",
        "        Aggregate(keys=0, aggs=2, sets=1) "
        "(rows=3 calls=3 rows_in=5 time=<T> groups=3)",
        "          Filter (rows=5 calls=3 rows_in=15 time=<T>)",
        "            Scan(Orders) (rows=15 calls=3 time=<T>)",
    ]
    assert "subquery_executions=3" in lines[10]
    tree = paper_db.last_profile().operator_tree
    project = tree["children"][0]
    assert [n["label"] for n in project["children"]] == [
        "Aggregate(keys=1, aggs=1, sets=1)",
    ]
    assert len(list(_walk_tree(tree))) == 8


def test_explain_analyze_executes_the_query(paper_db):
    """EXPLAIN ANALYZE genuinely runs the query (PostgreSQL semantics): the
    profile it renders reflects real row counts."""
    result = paper_db.execute("EXPLAIN ANALYZE SELECT * FROM Orders")
    assert any("rows=5" in line for (line,) in result.rows)
    profile = paper_db.last_profile()
    assert profile.result_rows == 5
    assert "time=" not in "".join(profile.plan_lines(timing=False))


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


def test_winmagic_is_one_expand_span(orders_db):
    orders_db.profile_enabled = True
    orders_db.expand(
        """SELECT o.prodName, o.orderDate FROM
             (SELECT prodName, orderDate, revenue,
                     AVG(revenue) AS MEASURE avgRevenue FROM Orders) AS o
           WHERE o.revenue >= o.avgRevenue AT (WHERE prodName = o.prodName)""",
        strategy="winmagic",
    )
    attempts = [
        s for s in orders_db.last_profile().root_span.walk() if s.kind == "expand"
    ]
    assert [(s.name, s.meta["outcome"]) for s in attempts] == [("expand:winmagic", "ok")]
