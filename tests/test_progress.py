"""Live query observability end to end: progress tracking, memory
budgets, trace propagation, and the HTTP sidecar.

The acceptance scenario is the headline test: while an ``AGGREGATE()``
across a non-equi join runs at SF 0.01 in one server session, a second
session polling ``repro_running_queries`` sees monotonically increasing
``rows_processed`` and a current operator — then cancels the doomed query
rather than waiting out its runtime (minutes at that scale: with no column
equality to hash, every candidate order scans its nation's group rows).
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.api import Database
from repro.errors import ResourceExhausted
from repro.profile.watch import QueryRegistry, Watch
from repro.server import ClientError, ServerThread, connect
from repro.workloads.tpch import tpch_measure_database

#: A VISIBLE query that is long for an honest reason.  The join condition is
#: not a column equality, so the semijoin has no hash key: each candidate
#: order scans its nation group's rows for one the conjunct holds on — the
#: residual scan inside ``VisibleTerm.test``, candidates x group rows.
#: (``visible_orders_by_region``, which these tests used to run, is an
#: index lookup now and finishes before anything can watch it.)
_NON_EQUI = (
    "SELECT n.n_name, AGGREGATE(o.order_count) FROM tpch_orders_m AS o "
    "JOIN nation AS n ON o.nation || '' = n.n_name "
    "WHERE {nations} GROUP BY n.n_name"
)
VISIBLE = _NON_EQUI.format(nations="n.n_regionkey < 3")
#: Three nation groups: about a second at SF 0.002, for the test that runs
#: its query to completion before cancelling it.
VISIBLE_SHORT = _NON_EQUI.format(nations="n.n_nationkey < 3")
#: Every lineitem aggregates a 200-row frame: the Window operator's
#: per-partition loops are nearly all of the run.
WINDOW = (
    "SELECT l_orderkey, SUM(l_extendedprice) OVER (PARTITION BY l_suppkey "
    "ORDER BY l_shipdate ROWS BETWEEN 200 PRECEDING AND CURRENT ROW) "
    "FROM lineitem"
)
#: A view whose source relation is a nested-loop join.  The query's filter
#: is pushed into the main tree's copy of that join, so the tree reads a
#: relation of its own (one order: instant) and the measure's source — the
#: full join, marked shared — is first built from inside measure evaluation.
PAIRS_VIEW = (
    "CREATE VIEW order_pairs AS SELECT *, COUNT(*) AS MEASURE pairs "
    "FROM orders AS o JOIN customer AS c ON o.o_custkey + 0 = c.c_custkey"
)
SHARED = (
    "SELECT c_mktsegment, pairs FROM order_pairs "
    "WHERE o_orderkey = 1 GROUP BY c_mktsegment"
)


def _poll(conn, sql, predicate, *, timeout=30.0, interval=0.05):
    """Poll ``sql`` on ``conn`` until ``predicate(rows)`` or timeout."""
    deadline = time.monotonic() + timeout
    rows = []
    while time.monotonic() < deadline:
        rows = conn.query(sql).rows
        if predicate(rows):
            return rows
        time.sleep(interval)
    return rows


# -- memory budgets -----------------------------------------------------------


class TestMemoryBudget:
    def _db(self, **kwargs) -> Database:
        db = Database(telemetry=True, **kwargs)
        db.execute("CREATE TABLE t (x INTEGER)")
        # Batched inserts stay under the budget; only the cross join of
        # the loaded table is big enough to breach it.
        for start in range(0, 1500, 500):
            values = ", ".join(f"({i})" for i in range(start, start + 500))
            db.execute(f"INSERT INTO t VALUES {values}")
        return db

    def test_budget_breach_raises_resource_exhausted(self):
        db = self._db(memory_limit_bytes=50_000)
        with pytest.raises(ResourceExhausted) as excinfo:
            db.query("SELECT a.x FROM t AS a, t AS b")
        message = str(excinfo.value)
        assert "memory budget exhausted" in message
        assert "limit 50000" in message

    def test_same_query_succeeds_without_a_limit(self):
        db = self._db()
        small = db.query(
            "SELECT COUNT(*) FROM (SELECT a.x FROM t AS a, t AS b) AS j"
        )
        assert small.rows[0][0] == 1500 * 1500

    def test_breach_leaves_partial_profile_in_slow_log(self):
        # The threshold is astronomically high: only the breach hook, not
        # the duration, can put the query in the slow log.
        db = self._db(memory_limit_bytes=50_000, slow_query_ms=1e12)
        with pytest.raises(ResourceExhausted):
            db.query("SELECT a.x FROM t AS a, t AS b")
        entries = db.slow_queries()
        assert len(entries) == 1
        entry = entries[0]
        assert "t AS" in entry["sql"].replace('"', "")
        _assert_partial_tree(entry["profile"])

    def test_breach_records_a_resource_exhausted_event(self):
        db = self._db(memory_limit_bytes=50_000)
        with pytest.raises(ResourceExhausted):
            db.query("SELECT a.x FROM t AS a, t AS b")
        events = [e["event"] for e in db.events()]
        assert "resource_exhausted" in events

    def test_resource_exhausted_is_a_catchable_sql_error(self):
        from repro.errors import ExecutionError, SqlError

        assert issubclass(ResourceExhausted, ExecutionError)
        assert issubclass(ResourceExhausted, SqlError)

    def test_limit_implies_progress_tracking(self):
        db = Database(memory_limit_bytes=1 << 30)
        assert db.progress_enabled()

    def test_bare_database_tracks_nothing(self):
        db = Database()
        assert not db.progress_enabled()
        assert len(db.running) == 0

    def test_explicit_flag_wins_over_telemetry(self):
        assert Database(telemetry=True).progress_enabled()
        assert not Database(
            telemetry=True, track_progress=False
        ).progress_enabled()
        assert Database(track_progress=True).progress_enabled()

    def test_breach_over_the_server_names_the_class(self):
        db = self._db(memory_limit_bytes=50_000, slow_query_ms=1e12)
        with ServerThread(db) as server:
            with connect(server.server.host, server.server.port) as conn:
                with pytest.raises(ClientError) as excinfo:
                    conn.query("SELECT a.x FROM t AS a, t AS b")
                assert excinfo.value.error_class == "ResourceExhausted"
        # The session path freezes the partial profile too.
        (entry,) = db.slow_queries()
        _assert_partial_tree(entry["profile"])


def _assert_partial_tree(profile) -> None:
    """The profile of ``SELECT a.x FROM t AS a, t AS b`` dying on its budget
    keeps the whole operator tree: the scan whose 1 500 rows blew the budget
    counts an error, and so does whatever encloses it; the join's other side
    never ran; every operator carries its estimate."""
    tree = profile["plan"]
    assert tree is not None and tree["label"] == "Project"

    def walk(node):
        yield node
        for child in node.get("children", ()):
            yield from walk(child)

    nodes = list(walk(tree))
    assert [n["label"] for n in nodes] == [
        "Project", "Join(CROSS)", "Scan(t)", "Project(0 of 1)", "Scan(t)",
    ]
    assert [n["calls"] for n in nodes] == [1, 1, 1, 0, 0]
    assert [n.get("counters") for n in nodes] == [{"errors": 1}] * 3 + [None] * 2
    assert all(n["rows_out"] == 0 for n in nodes)
    assert [n["facts"]["row_min"] for n in nodes] == [1500 * 1500] * 2 + [1500] * 3


# -- progress bookkeeping (unit level) ---------------------------------------


class TestProgressState:
    def test_estimated_vs_actual_rows(self):
        db = Database(telemetry=True)
        db.execute("CREATE TABLE nums (n INTEGER)")
        db.execute(
            "INSERT INTO nums VALUES " + ", ".join(f"({i})" for i in range(10))
        )
        from repro.sql import parse_query

        sql = "SELECT n FROM nums WHERE n < 5"
        planned = db.plan_query(parse_query(sql), sql=sql)
        from repro.analysis.dataflow import analyze_plan

        analyze_plan(planned.plan, db.catalog)
        state = Watch(spans=False)
        state.attach(planned.plan)
        rows = state.operator_rows()
        # Every operator pre-registered, pending, with dataflow bounds.
        assert rows and all(r[7] == "pending" for r in rows)
        scan_rows = [r for r in rows if "Scan" in r[2]]
        assert scan_rows, rows
        # The scan's cardinality is exactly known: 10 rows.
        assert scan_rows[0][3] == 10 and scan_rows[0][4] == 10

        db.execute_planned(planned)
        # Tracked execution through the Database shows actuals; here we
        # drive the state directly for determinism.
        for node in planned.plan.walk():
            state.enter(node)
        assert state.current_operator

    def test_registry_snapshot_excludes_the_observer(self):
        registry = QueryRegistry()
        a = registry.start(Watch(spans=False), "SELECT 1")
        b = registry.start(Watch(spans=False), "SELECT 2")
        ids = {s.query_id for s in registry.snapshot()}
        assert ids == {a.query_id, b.query_id}
        assert {s.query_id for s in registry.snapshot(exclude=a.query_id)} == {
            b.query_id
        }
        registry.finish(a)
        registry.finish(b)
        assert len(registry) == 0
        assert registry.started_total == 2

    def test_tick_accounts_against_the_budget(self):
        from repro.plan.logical import ValuesPlan

        state = Watch(spans=False, memory_limit_bytes=1000)
        plan = ValuesPlan([], [])
        state.attach(plan)
        with pytest.raises(ResourceExhausted):
            # 256 buffered rows at the default 80-byte estimate blows a
            # 1000-byte budget on the first checkpoint.
            state.tick(plan, buffered_rows=256)

    def test_finished_query_leaves_the_registry(self):
        db = Database(track_progress=True)
        db.execute("CREATE TABLE t (x INTEGER)")
        db.execute("INSERT INTO t VALUES (1), (2), (3)")
        assert db.query("SELECT SUM(x) FROM t").rows[0][0] == 6
        assert db.running_queries() == []


# -- the acceptance scenario --------------------------------------------------


@pytest.fixture(scope="module")
def tpch_server():
    db = tpch_measure_database(0.01, telemetry=True)
    with ServerThread(db, http_port=0) as server:
        yield server


class TestLiveProgress:
    def test_second_session_watches_the_first(self, tpch_server):
        host, port = tpch_server.server.host, tpch_server.server.port
        with connect(host, port) as runner, connect(host, port) as watcher:
            failure = {}

            def run_doomed():
                try:
                    runner.query(VISIBLE)
                except ClientError as exc:
                    failure["error"] = exc

            thread = threading.Thread(target=run_doomed)
            thread.start()
            try:
                samples = []
                deadline = time.monotonic() + 30
                while time.monotonic() < deadline and len(samples) < 3:
                    rows = watcher.query(
                        "SELECT query_id, rows_processed, current_operator "
                        "FROM repro_running_queries"
                    ).rows
                    for qid, processed, operator in rows:
                        if processed and (
                            not samples or processed > samples[-1][1]
                        ):
                            samples.append((qid, processed, operator))
                    time.sleep(0.05)
                assert len(samples) >= 2, "never saw the query make progress"
                # Monotonically increasing rows_processed, one query id,
                # and a live operator label on every sample.
                assert all(s[0] == samples[0][0] for s in samples)
                counts = [s[1] for s in samples]
                assert counts == sorted(counts) and counts[0] < counts[-1]
                assert all(s[2] for s in samples)

                progress = watcher.query(
                    "SELECT query_id, operator, rows_out, calls, state "
                    "FROM repro_query_progress"
                ).rows
                assert progress, "no per-operator progress rows"
                assert {r[4] for r in progress} <= {
                    "pending",
                    "running",
                    "done",
                }
                assert any(r[4] != "pending" for r in progress)
            finally:
                cancel_sent = time.monotonic()
                runner.cancel()
                thread.join(timeout=30)
                latency = time.monotonic() - cancel_sent
            assert not thread.is_alive()
            assert failure["error"].error_class == "QueryCancelled"
            # 600-row groups at this scale: the residual scan checkpoints
            # per 256 group rows visited, not per 256 candidates.
            assert latency < 0.25, f"cancel at SF 0.01 took {latency:.3f}s"

    def test_watcher_never_sees_itself(self, tpch_server):
        host, port = tpch_server.server.host, tpch_server.server.port
        with connect(host, port) as conn:
            rows = conn.query(
                "SELECT sql FROM repro_running_queries AS watcher_self_probe"
            ).rows
            assert all(
                "watcher_self_probe" not in (r[0] or "") for r in rows
            )

    def test_http_sidecar_sees_the_in_flight_query(self, tpch_server):
        host = tpch_server.server.host
        http_port = tpch_server.http_port
        assert http_port, "sidecar did not start"
        with connect(host, tpch_server.server.port) as runner:
            thread = threading.Thread(
                target=lambda: _swallow(lambda: runner.query(VISIBLE))
            )
            thread.start()
            try:
                deadline = time.monotonic() + 30
                queries = []
                while time.monotonic() < deadline and not queries:
                    body = _http_get(host, http_port, "/queries")
                    queries = json.loads(body)["queries"]
                    time.sleep(0.05)
                assert queries, "sidecar never reported the running query"
                entry = queries[0]
                assert entry["query_id"].startswith("q")
                assert entry["rows_processed"] >= 0
                assert entry["elapsed_ms"] >= 0
            finally:
                runner.cancel()
                thread.join(timeout=30)


def _swallow(fn):
    try:
        fn()
    except ClientError:
        pass


# -- cancellation latency (satellite) ----------------------------------------


class TestCancellationLatency:
    def test_cancel_aborts_visible_orders_promptly(self):
        db = tpch_measure_database(0.001, telemetry=True)
        with ServerThread(db) as server:
            with connect(server.server.host, server.server.port) as conn:
                # The query takes about a second at this scale, so
                # catching it mid-flight is a race; the progress registry
                # is the referee — cancel fires the moment the query is
                # observably running.  A finished-before-cancel round is
                # retried.
                for _ in range(5):
                    outcome = {}

                    def run_doomed():
                        try:
                            conn.query(VISIBLE)
                            outcome["ok"] = True
                        except ClientError as exc:
                            outcome["error"] = exc

                    thread = threading.Thread(target=run_doomed)
                    thread.start()
                    while thread.is_alive() and not len(db.running):
                        time.sleep(0.002)
                    cancelled_at = time.monotonic()
                    conn.cancel()
                    thread.join(timeout=10)
                    latency = time.monotonic() - cancelled_at
                    assert not thread.is_alive(), "cancel did not take"
                    if "error" not in outcome:
                        continue  # finished before the cancel landed
                    error = outcome["error"]
                    assert error.error_class == "QueryCancelled"
                    # The 256-row checkpoints bound the abort latency far
                    # below the query's own runtime.
                    assert latency < 2.0, f"cancel took {latency:.1f}s"
                    return
                pytest.fail("query never observed mid-flight in 5 rounds")


    @pytest.mark.parametrize(
        "sql, operator",
        [
            (VISIBLE_SHORT, "Project"),
            (WINDOW, "Window"),
            (SHARED, "Join(INNER) [shared]"),
        ],
        ids=["visible", "window", "shared"],
    )
    def test_cancel_lands_promptly_inside_a_long_operator(self, sql, operator):
        """Cancel a query at three offsets spread over its run.  Nearly all
        of the non-equi ``AGGREGATE()`` query is the per-group VISIBLE
        evaluation inside the final Project (its residual scan, which
        checkpoints on group rows visited), nearly all of the window query
        the Window operator's frame loops, and nearly all of the third the
        measure's shared source relation being built by the evaluator, so
        every offset lands there: the progress tables must show that
        operator live and advancing, and each cancel must take within
        250 ms."""
        from repro.errors import QueryCancelled
        from repro.server import SessionManager

        db = tpch_measure_database(0.002, telemetry=True)
        db.execute(PAIRS_VIEW)
        manager = SessionManager(db)
        runner, watcher = manager.open_session(), manager.open_session()
        runner.execute(sql)  # plans it; the timed run replays the plan
        started = time.monotonic()
        runner.execute(sql)
        full_run = time.monotonic() - started

        def watch():
            return watcher.execute(
                "SELECT current_operator, rows_processed "
                "FROM repro_running_queries"
            ).rows

        for fraction in (0.15, 0.4, 0.65):
            # A run that beats its own offset is retried — against its own
            # duration: the host was slower when ``full_run`` was timed.
            for _ in range(3):
                outcome = {}

                def run_doomed():
                    began = time.monotonic()
                    try:
                        runner.execute(sql)
                        outcome["finished_in"] = time.monotonic() - began
                    except QueryCancelled:
                        outcome["cancelled_at"] = time.monotonic()

                thread = threading.Thread(target=run_doomed)
                thread.start()
                while thread.is_alive() and not len(db.running):
                    time.sleep(0.001)
                time.sleep(full_run * fraction)
                before = after = watch()
                deadline = time.monotonic() + 0.25
                while after == before and time.monotonic() < deadline:
                    time.sleep(0.01)
                    after = watch()
                cancel_sent = time.monotonic()
                runner.cancel()
                thread.join(timeout=10)
                assert not thread.is_alive(), "cancel did not take"
                if "cancelled_at" in outcome:
                    break
                full_run = min(full_run, outcome["finished_in"])
            else:
                pytest.fail(f"never caught the query {fraction:.0%} in")
            latency = outcome["cancelled_at"] - cancel_sent
            assert latency < 0.25, f"cancel at {fraction:.0%}: {latency:.3f}s"
            assert len(before) == len(after) == 1
            assert before[0][0] == after[0][0] == operator
            assert after[0][1] > before[0][1], f"{operator} never ticks"


# -- concurrent readers (satellite) ------------------------------------------


class TestConcurrentReaders:
    READERS = 4
    POLLS = 15

    def test_polling_readers_see_no_torn_rows(self):
        db = Database(telemetry=True)
        db.execute("CREATE TABLE big (x INTEGER)")
        values = ", ".join(f"({i})" for i in range(300))
        db.execute(f"INSERT INTO big VALUES {values}")
        stop = threading.Event()
        errors = []

        def writer():
            while not stop.is_set():
                db.query(
                    "SELECT COUNT(*) FROM big AS a JOIN big AS b "
                    "ON a.x >= b.x"
                )

        def reader(n):
            try:
                for _ in range(self.POLLS):
                    rows = db.query(
                        f"SELECT * FROM repro_running_queries AS probe_{n}"
                    ).rows
                    for row in rows:
                        assert len(row) == 10, f"torn row: {row!r}"
                        query_id, _, sql, *_ = row
                        assert isinstance(query_id, str)
                        assert query_id.startswith("q")
                        assert row[6] >= 0, "negative rows_processed"
                        assert row[8] >= 0, "negative memory_bytes"
                        # This reader never observes itself.
                        assert f"probe_{n}" not in (sql or "")
            except AssertionError as exc:
                errors.append(exc)

        writers = [threading.Thread(target=writer) for _ in range(2)]
        readers = [
            threading.Thread(target=reader, args=(n,))
            for n in range(self.READERS)
        ]
        for t in writers + readers:
            t.start()
        for t in readers:
            t.join(timeout=60)
        stop.set()
        for t in writers:
            t.join(timeout=60)
        assert not errors, errors[0]


# -- trace propagation --------------------------------------------------------


TRACEPARENT = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"


class TestTraceparent:
    def _server_db(self):
        db = Database(telemetry=True)
        db.execute("CREATE TABLE t (x INTEGER)")
        db.execute("INSERT INTO t VALUES (1), (2)")
        return db

    def test_traceparent_flows_into_exported_traces(self):
        db = self._server_db()
        with ServerThread(db) as server:
            with connect(
                server.server.host,
                server.server.port,
                traceparent=TRACEPARENT,
            ) as conn:
                conn.query("SELECT SUM(x) FROM t")
        traces = json.loads(db.export_traces())["traces"]
        spliced = [t for t in traces if t.get("traceparent") == TRACEPARENT]
        assert spliced, "no trace adopted the caller's context"
        trace = spliced[-1]
        assert trace["trace_id"] == "0af7651916cd43dd8448eb211c80319c"
        # The root span is parented under the caller's span id.
        roots = [s for s in trace["spans"] if s["parent_span_id"] is not None]
        assert any(
            s["parent_span_id"] == "b7ad6b7169203331" for s in trace["spans"]
        ), roots

    def test_per_call_traceparent_overrides_the_connection(self):
        db = self._server_db()
        other = "00-" + "ef" * 16 + "-" + "12" * 8 + "-00"
        with ServerThread(db) as server:
            with connect(
                server.server.host,
                server.server.port,
                traceparent=TRACEPARENT,
            ) as conn:
                conn.query("SELECT x FROM t", traceparent=other)
        traces = json.loads(db.export_traces())["traces"]
        assert traces[-1]["trace_id"] == "ef" * 16

    def test_malformed_traceparent_is_ignored(self):
        db = self._server_db()
        with ServerThread(db) as server:
            with connect(server.server.host, server.server.port) as conn:
                conn.query(
                    "SELECT x FROM t", traceparent="not-a-traceparent"
                )
                conn.query(
                    "SELECT x FROM t",
                    traceparent="00-" + "0" * 32 + "-" + "0" * 16 + "-00",
                )
        traces = json.loads(db.export_traces())["traces"]
        # Both queries got deterministic local trace ids, not the junk.
        assert all("traceparent" not in t for t in traces)

    def test_events_carry_the_traceparent(self):
        db = self._server_db()
        with ServerThread(db) as server:
            with connect(server.server.host, server.server.port) as conn:
                conn.query("SELECT x FROM t", traceparent=TRACEPARENT)
        statements = [
            e for e in db.events() if e.get("traceparent") == TRACEPARENT
        ]
        assert statements, "no event carried the traceparent"

    def test_parse_traceparent_rejects_junk(self):
        from repro.telemetry import parse_traceparent

        assert parse_traceparent(TRACEPARENT) == (
            "0af7651916cd43dd8448eb211c80319c",
            "b7ad6b7169203331",
            "01",
        )
        for junk in (
            None,
            "",
            "banana",
            "00-short-b7ad6b7169203331-01",
            "00-" + "0" * 32 + "-b7ad6b7169203331-01",  # zero trace id
            "00-0af7651916cd43dd8448eb211c80319c-" + "0" * 16 + "-01",
        ):
            assert parse_traceparent(junk) is None, junk


# -- the HTTP sidecar ---------------------------------------------------------


def _http_get(host, port, path):
    with urllib.request.urlopen(
        f"http://{host}:{port}{path}", timeout=10
    ) as response:
        return response.read().decode("utf-8")


class TestHttpSidecar:
    @pytest.fixture()
    def server(self):
        db = Database(telemetry=True)
        db.execute("CREATE TABLE t (x INTEGER)")
        db.execute("INSERT INTO t VALUES (1), (2)")
        with ServerThread(db, http_port=0) as thread:
            yield thread

    def test_healthz_reports_sessions_and_running(self, server):
        with connect(server.server.host, server.server.port):
            body = json.loads(
                _http_get(server.server.host, server.http_port, "/healthz")
            )
        assert body["status"] == "ok"
        assert body["sessions"] >= 1
        assert body["running"] >= 0

    def test_metrics_is_prometheus_text(self, server):
        with connect(server.server.host, server.server.port) as conn:
            conn.query("SELECT SUM(x) FROM t")
        url = f"http://{server.server.host}:{server.http_port}/metrics"
        with urllib.request.urlopen(url, timeout=10) as response:
            assert response.headers["Content-Type"].startswith(
                "text/plain; version=0.0.4"
            )
            body = response.read().decode("utf-8")
        assert "# TYPE queries_total counter" in body
        assert "# HELP queries_total" in body

    def test_queries_endpoint_is_json(self, server):
        body = json.loads(
            _http_get(server.server.host, server.http_port, "/queries")
        )
        assert body == {"queries": []}

    def test_unknown_path_is_404(self, server):
        url = f"http://{server.server.host}:{server.http_port}/nope"
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(url, timeout=10)
        assert excinfo.value.code == 404

    def test_sidecar_stops_with_the_server(self):
        db = Database(telemetry=True)
        thread = ServerThread(db, http_port=0)
        thread.start()
        port = thread.http_port
        assert port
        _http_get("127.0.0.1", port, "/healthz")
        thread.stop()
        with pytest.raises(Exception):
            _http_get("127.0.0.1", port, "/healthz")
