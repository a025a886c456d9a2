"""The query server end to end: protocol round-trips, concurrent clients,
prepared statements, cancellation, and plan-cache invalidation.

The headline test is the acceptance criterion from the server design:
four concurrent clients replaying every paper listing must produce
byte-identical canonical JSON to a single-threaded ``Database.execute``
run, with plan-cache hits and zero plan flips.
"""

from __future__ import annotations

import re
import threading

import pytest

from repro.api import Database
from repro.server import (
    ClientError,
    Connection,
    ServerThread,
    SessionManager,
    connect,
)
from repro.server.protocol import dumps_line, encode_result
from repro.workloads.listings import SETUP, all_listing_sql
from repro.workloads.paper_data import load_paper_tables


def _paper_database(telemetry: bool = True) -> Database:
    db = Database(telemetry=telemetry)
    load_paper_tables(db)
    for ddl in SETUP.values():
        db.execute(ddl)
    return db


@pytest.fixture
def server_db() -> Database:
    return _paper_database()


@pytest.fixture
def server(server_db):
    with ServerThread(server_db) as thread:
        yield thread


def _connect(server: ServerThread) -> Connection:
    return connect(server.server.host, server.server.port)


# -- protocol round-trips ------------------------------------------------------


class TestRoundTrip:
    def test_query_matches_direct_execute(self, server, server_db):
        direct = server_db.execute(
            "SELECT prodName, SUM(revenue) AS r FROM Orders "
            "GROUP BY prodName ORDER BY prodName"
        )
        with _connect(server) as conn:
            remote = conn.query(
                "SELECT prodName, SUM(revenue) AS r FROM Orders "
                "GROUP BY prodName ORDER BY prodName"
            )
        assert dumps_line(remote.payload) == dumps_line(encode_result(direct))
        assert remote.columns == ["prodName", "r"]

    def test_greeting_names_the_session(self, server):
        with _connect(server) as conn:
            assert conn.session_id.startswith("s")
            assert conn.server_version == 1

    def test_ddl_and_dml_round_trip(self, server):
        with _connect(server) as conn:
            conn.query("CREATE TABLE nums (n INTEGER)")
            inserted = conn.query("INSERT INTO nums VALUES (1), (2), (3)")
            assert inserted.rowcount == 3
            assert conn.query("SELECT SUM(n) FROM nums").scalar() == 6

    def test_errors_carry_the_server_exception_class(self, server):
        with _connect(server) as conn:
            with pytest.raises(ClientError) as excinfo:
                conn.query("SELECT * FROM no_such_table")
            assert excinfo.value.error_class
            assert "no_such_table" in excinfo.value.message
            # The session survives a failed statement.
            assert conn.query("SELECT COUNT(*) FROM Orders").scalar() >= 1

    def test_sessions_system_table_sees_the_connection(self, server):
        with _connect(server) as conn:
            rows = conn.query(
                "SELECT session_id FROM repro_sessions ORDER BY session_id"
            ).rows
            assert [conn.session_id] == [r[0] for r in rows]


# -- prepared statements -------------------------------------------------------


class TestPrepared:
    def test_prepare_execute_with_params(self, server):
        with _connect(server) as conn:
            handle = conn.prepare(
                "SELECT COUNT(*) FROM Orders WHERE prodName = ?"
            )
            happy = conn.execute(handle, ["Happy"]).scalar()
            acme = conn.execute(handle, ["Acme"]).scalar()
            direct_happy = conn.query(
                "SELECT COUNT(*) FROM Orders WHERE prodName = 'Happy'"
            ).scalar()
            direct_acme = conn.query(
                "SELECT COUNT(*) FROM Orders WHERE prodName = 'Acme'"
            ).scalar()
            assert happy == direct_happy
            assert acme == direct_acme

    def test_prepare_primes_the_plan_cache(self, server):
        manager = server.manager
        with _connect(server) as conn:
            before = manager.plan_cache.stats()["misses"]
            handle = conn.prepare("SELECT COUNT(*) FROM Orders")
            primed = manager.plan_cache.stats()
            conn.execute(handle)
            after = manager.plan_cache.stats()
        assert primed["size"] >= 1
        assert after["hits"] >= 1
        # Priming itself was the only miss; execute replayed the plan.
        assert after["misses"] == before + 1

    def test_unknown_handle_is_an_error(self, server):
        with _connect(server) as conn:
            with pytest.raises(ClientError):
                conn.execute("bogus_handle")


# -- cancellation --------------------------------------------------------------


class TestCancel:
    def test_cancel_aborts_a_long_query(self, server):
        with _connect(server) as conn:
            conn.query("CREATE TABLE big (x INTEGER)")
            values = ", ".join(f"({i})" for i in range(400))
            conn.query(f"INSERT INTO big VALUES {values}")

            failure = {}

            def run_doomed():
                try:
                    conn.query(
                        "SELECT COUNT(*) FROM big AS a "
                        "JOIN big AS b ON a.x >= 0 "
                        "JOIN big AS c ON b.x >= 0"
                    )
                except ClientError as exc:
                    failure["error"] = exc

            runner = threading.Thread(target=run_doomed)
            runner.start()
            import time

            time.sleep(0.3)
            conn.cancel()
            runner.join(timeout=30)
            assert not runner.is_alive(), "cancel did not abort the query"
            assert failure["error"].error_class == "QueryCancelled"
            # The session is immediately usable again.
            assert conn.query("SELECT COUNT(*) FROM big").scalar() == 400


# -- the acceptance criterion --------------------------------------------------


class TestConcurrentListings:
    CLIENTS = 4

    def test_four_clients_byte_identical_with_cache_hits_no_flips(self):
        """Four connections replay every paper listing concurrently; each
        client's canonical JSON must equal the single-caller baseline,
        with plan-cache hits and zero plan flips."""
        reference = _paper_database(telemetry=False)
        listings = all_listing_sql(reference)
        baseline = {
            name: dumps_line(encode_result(reference.execute(sql)))
            for name, sql in listings.items()
        }

        server_db = _paper_database()
        with ServerThread(server_db) as server:
            results = [dict() for _ in range(self.CLIENTS)]
            errors = []

            def client(i):
                try:
                    with _connect(server) as conn:
                        for name, sql in listings.items():
                            payload = conn.query(sql).payload
                            results[i][name] = dumps_line(payload)
                except Exception as exc:  # surface in the main thread
                    errors.append(exc)

            threads = [
                threading.Thread(target=client, args=(i,))
                for i in range(self.CLIENTS)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert errors == []
            for i in range(self.CLIENTS):
                assert results[i] == baseline, f"client {i} diverged"

            stats = server.manager.plan_cache.stats()
            assert stats["hits"] > 0
            assert server_db.plan_flips() == []
        # Clean shutdown: every session closed.
        assert server.manager.sessions() == []

    def test_abrupt_disconnect_closes_the_session(self, server):
        conn = _connect(server)
        conn.query("SELECT COUNT(*) FROM Orders")
        assert len(server.manager.sessions()) == 1
        # Drop the socket without a close op.
        conn._sock.close()
        conn._file.close()
        deadline = 50
        import time

        while server.manager.sessions() and deadline:
            time.sleep(0.1)
            deadline -= 1
        assert server.manager.sessions() == []


# -- plan-cache lifecycle (via sessions, no sockets) ---------------------------


class TestPlanCacheInvalidation:
    def _manager(self, capacity: int = 128):
        db = Database(telemetry=True)
        db.execute("CREATE TABLE t (x INTEGER)")
        db.execute("INSERT INTO t VALUES (1), (2), (3)")
        return db, SessionManager(db, plan_cache_capacity=capacity)

    def test_hit_after_cold_plan(self):
        db, manager = self._manager()
        session = manager.open_session()
        session.execute("SELECT SUM(x) FROM t")
        session.execute("SELECT SUM(x) FROM t")
        stats = manager.plan_cache.stats()
        assert stats == {
            "capacity": 128, "size": 1, "hits": 1, "misses": 1, "texts": 1,
        }
        assert db.telemetry.plan_cache_hits_total.value() == 1

    def test_dml_evicts_plans_over_the_table(self):
        db, manager = self._manager()
        session = manager.open_session()
        session.execute("SELECT SUM(x) FROM t")
        assert manager.plan_cache.stats()["size"] == 1
        session.execute("INSERT INTO t VALUES (4)")
        assert manager.plan_cache.stats()["size"] == 0
        # And the replay sees the new row (no stale plan, no stale rows).
        assert session.execute("SELECT SUM(x) FROM t").scalar() == 10
        assert (
            db.telemetry.plan_cache_evictions_total.value(reason="dml") == 1
        )

    def test_dml_keeps_unrelated_plans(self):
        db, manager = self._manager()
        db.execute("CREATE TABLE u (y INTEGER)")
        db.execute("INSERT INTO u VALUES (7)")
        session = manager.open_session()
        session.execute("SELECT SUM(x) FROM t")
        session.execute("SELECT SUM(y) FROM u")
        session.execute("INSERT INTO t VALUES (4)")
        remaining = [row[1] for row in manager.plan_cache.rows()]
        assert remaining == ["SELECT SUM(u.y) FROM u"] or len(remaining) == 1

    def test_ddl_clears_the_whole_cache(self):
        db, manager = self._manager()
        session = manager.open_session()
        session.execute("SELECT SUM(x) FROM t")
        session.execute("CREATE TABLE other (z INTEGER)")
        assert manager.plan_cache.stats()["size"] == 0
        assert (
            db.telemetry.plan_cache_evictions_total.value(reason="ddl") == 1
        )

    def test_refresh_evicts_the_matview_chain(self):
        db, manager = self._manager()
        db.execute(
            "CREATE MATERIALIZED VIEW sums AS "
            "SELECT x, COUNT(*) AS c FROM t GROUP BY x"
        )
        session = manager.open_session()
        session.execute("SELECT SUM(c) FROM sums")
        assert manager.plan_cache.stats()["size"] == 1
        session.execute("REFRESH MATERIALIZED VIEW sums")
        assert manager.plan_cache.stats()["size"] == 0
        assert (
            db.telemetry.plan_cache_evictions_total.value(reason="dml") == 1
        )

    def test_served_reads_never_walk_the_ring(self, monkeypatch):
        """A served read never reads the statement ring: a plan is valid
        by the write clock alone.  A flip is still detected and listed."""
        db, manager = self._manager()
        session = manager.open_session()
        ring = db.telemetry.ring
        walks = []
        entries = ring.entries
        monkeypatch.setattr(ring, "entries", lambda: walks.append(1) or entries())
        for _ in range(5):
            session.execute("SELECT SUM(x) FROM t")
        # A summary the read can use: its next cold plan flips the
        # fingerprint from the interpreter to the summary.
        session.execute(
            "CREATE MATERIALIZED VIEW sums AS "
            "SELECT x, SUM(x) AS sx FROM t GROUP BY x"
        )
        for _ in range(5):
            session.execute("SELECT SUM(x) FROM t")
        assert walks == []
        (flip,) = db.plan_flips()
        assert flip["new_strategy"] == "summary"
        assert walks == [1]  # plan_flips() above

    def test_literal_variants_keep_their_plans(self):
        """Two literal variants of one fingerprint that plan differently
        (one matches the summary's predicate, one does not) each keep their
        cached plan: the flips between them evict nothing."""
        db = Database(telemetry=True)
        db.execute("CREATE TABLE t (x INTEGER, y VARCHAR, z INTEGER)")
        db.execute(
            "INSERT INTO t VALUES (1, 'a', 10), (1, 'b', 20), "
            "(2, 'a', 30), (2, 'b', 40)"
        )
        db.execute(
            "CREATE MATERIALIZED VIEW s AS "
            "SELECT y, SUM(z) AS sz FROM t WHERE x = 1 GROUP BY y"
        )
        manager = SessionManager(db)
        session = manager.open_session()
        rows = {}
        for x in (1, 2) * 3:
            result = session.execute(
                f"SELECT y, SUM(z) FROM t WHERE x = {x} GROUP BY y ORDER BY y"
            )
            assert rows.setdefault(x, result.rows) == result.rows
        assert rows == {1: [("a", 10), ("b", 20)], 2: [("a", 30), ("b", 40)]}
        strategies = sorted(row[2] for row in manager.plan_cache.rows())
        assert strategies == ["interpreter", "summary"]
        stats = manager.plan_cache.stats()
        assert (stats["hits"], stats["misses"], stats["size"]) == (4, 2, 2)
        assert db.telemetry.plan_cache_evictions_total.total() == 0
        assert db.plan_flips()  # the detector still sees the variants flip

    def test_the_eviction_metric_names_the_reasons_the_cache_emits(self):
        db, manager = self._manager(capacity=1)
        session = manager.open_session()
        session.execute("SELECT SUM(x) FROM t")
        session.execute("SELECT COUNT(*) FROM t")  # lru
        session.execute("INSERT INTO t VALUES (4)")  # dml
        session.execute("SELECT SUM(x) FROM t")
        session.execute("CREATE TABLE other (z INTEGER)")  # ddl
        session.execute("SELECT SUM(x) FROM t")
        manager.plan_cache.clear()  # clear
        metric = db.telemetry.plan_cache_evictions_total
        emitted = {labels["reason"] for labels in metric.labelsets()}
        assert emitted == {"lru", "ddl", "dml", "clear"}
        named = re.search(r"by reason \(([^)]*)\)", metric.help).group(1)
        assert set(named.split(", ")) == emitted
        assert f"({named})" in db.metrics_text()

    def test_lru_eviction_at_capacity(self):
        db, manager = self._manager(capacity=2)
        session = manager.open_session()
        session.execute("SELECT SUM(x) FROM t")
        session.execute("SELECT COUNT(*) FROM t")
        session.execute("SELECT MIN(x) FROM t")  # evicts the SUM plan
        stats = manager.plan_cache.stats()
        assert stats["size"] == 2
        assert (
            db.telemetry.plan_cache_evictions_total.value(reason="lru") == 1
        )
        session.execute("SELECT SUM(x) FROM t")  # cold again
        assert manager.plan_cache.stats()["misses"] == 4

    def test_closed_session_rejects_statements(self):
        db, manager = self._manager()
        session = manager.open_session()
        session.close()
        from repro.errors import SqlError

        with pytest.raises(SqlError):
            session.execute("SELECT 1 FROM t")

    def test_plan_cache_system_table_orders_lru_first(self):
        db, manager = self._manager()
        session = manager.open_session()
        session.execute("SELECT SUM(x) FROM t")
        session.execute("SELECT COUNT(*) FROM t")
        session.execute("SELECT SUM(x) FROM t")  # now most recently used
        queries = [row[1] for row in manager.plan_cache.rows()]
        assert queries[-1] == "SELECT SUM(x) FROM t"


# -- the text memo: one parse per text, not per execution ----------------------


@pytest.fixture
def parses(monkeypatch):
    """One entry per statement the parser parses."""
    from repro.sql import parser

    calls = []
    parse = parser._Parser.parse_statement
    monkeypatch.setattr(
        parser._Parser,
        "parse_statement",
        lambda self: calls.append(1) or parse(self),
    )
    return calls


class TestTextMemo:
    READ = "SELECT SUM(x) FROM t"

    def _manager(self, capacity: int = 128, **db_kwargs):
        db = Database(telemetry=True, **db_kwargs)
        db.execute("CREATE TABLE t (x INTEGER)")
        db.execute("INSERT INTO t VALUES (1), (2), (3)")
        return db, SessionManager(db, plan_cache_capacity=capacity)

    def test_one_text_is_parsed_once_across_sessions(self, parses):
        db, manager = self._manager()
        parses.clear()  # the setup's own statements
        sessions = [manager.open_session(), manager.open_session()]
        for i in range(5):
            assert sessions[i % 2].execute(self.READ).scalar() == 6
        assert len(parses) == 1
        stats = manager.plan_cache.stats()
        assert (stats["texts"], stats["hits"], stats["misses"]) == (1, 4, 1)

    def test_whitespace_variants_are_two_parses_and_one_plan(self, parses):
        db, manager = self._manager()
        parses.clear()  # the setup's own statements
        session = manager.open_session()
        session.execute(self.READ)
        session.execute("SELECT  SUM(x)\n  FROM t  -- spelled apart")
        assert len(parses) == 2
        stats = manager.plan_cache.stats()
        assert (stats["texts"], stats["size"]) == (2, 1)
        assert (stats["hits"], stats["misses"]) == (1, 1)

    def test_a_parse_error_is_raised_and_journaled_every_time(
        self, parses, tmp_path
    ):
        from repro.errors import SqlError
        from repro.history import read_journal

        journal = tmp_path / "journal.jsonl"
        db, manager = self._manager(record_to=str(journal))
        parses.clear()  # the setup's own statements
        session = manager.open_session()
        for _ in range(3):
            with pytest.raises(SqlError):
                session.execute("SELEC 1")
        assert len(parses) == 3
        assert manager.plan_cache.stats()["texts"] == 0
        _, entries = read_journal(str(journal))
        failed = [e for e in entries if e.sql == "SELEC 1"]
        assert [e.outcome for e in failed] == ["error"] * 3

    def test_a_write_evicts_the_plan_but_keeps_the_parse(self, parses):
        from repro.introspect.fingerprint import fingerprint_statement
        from repro.sql.parser import parse_statement

        db, manager = self._manager()
        parses.clear()  # the setup's own statements
        session = manager.open_session()
        insert = "INSERT INTO t VALUES (?)"
        session.execute(self.READ)
        session.execute(insert, (4,))
        assert session.execute(self.READ).scalar() == 10
        assert len(parses) == 2
        parses.clear()
        session.execute(insert, (5,))
        assert session.execute(self.READ).scalar() == 15  # re-planned
        assert parses == []
        assert db.telemetry.plan_cache_evictions_total.value(reason="dml") == 2
        assert manager.plan_cache.stats()["misses"] == 3
        # The memoized fingerprint is the one a fresh parse gives.
        (expected, _) = fingerprint_statement(parse_statement(insert))
        written = [
            e["fingerprint"] for e in db.events()
            if e["event"] == "statement" and e.get("kind") == "insert"
        ]
        assert written[-2:] == [expected, expected]

    def test_the_memo_is_bounded_by_the_capacity(self):
        db, manager = self._manager(capacity=4)
        session = manager.open_session()
        for i in range(8):
            session.execute(f"SELECT SUM(x) + {i} FROM t")
        stats = manager.plan_cache.stats()
        assert stats["texts"] <= 4 and stats["size"] <= 4

    def test_a_prepared_handle_reparses_once_its_text_is_dropped(self, parses):
        db, manager = self._manager(capacity=1)
        parses.clear()  # the setup's own statements
        session = manager.open_session()
        handle = session.prepare(self.READ)
        session.execute("SELECT COUNT(*) FROM t")  # drops the handle's text
        assert session.execute_prepared(handle).scalar() == 6
        assert session.execute_prepared(handle).scalar() == 6
        assert len(parses) == 3


class TestMemoizedStatementsStayPristine:
    """Planning, expanding and running a statement must not change its
    AST: the memo hands the same object to every later execution."""

    def _run_twice(self, session, statements) -> None:
        from repro.sql.parser import parse_statement
        from repro.sql.printer import to_sql

        for _ in range(2):
            for sql, params in statements:
                session.execute(sql, params)
        for sql, _ in statements:
            memoized = session.manager.plan_cache.text(sql).statement
            fresh = parse_statement(sql)
            assert memoized == fresh, sql
            assert to_sql(memoized) == to_sql(fresh), sql

    def test_listings_dml_and_ddl(self):
        db = _paper_database()
        session = SessionManager(db).open_session()
        listings = all_listing_sql(db)
        assert len(listings) == 15
        self._run_twice(session, [(sql, ()) for sql in listings.values()])
        self._run_twice(session, [
            ("CREATE TABLE g (k INTEGER, v VARCHAR)", ()),
            ("INSERT INTO g VALUES (?, ?)", (1, "a")),
            ("UPDATE g SET v = ? WHERE k = ?", ("b", 1)),
            ("DELETE FROM g WHERE k = ?", (1,)),
            ("CREATE OR REPLACE TABLE g2 AS "
             "SELECT prodName, SUM(revenue) AS r FROM Orders GROUP BY prodName", ()),
            ("CREATE OR REPLACE VIEW gv AS SELECT prodName, "
             "SUM(revenue) AS MEASURE r FROM Orders", ()),
            ("EXPLAIN SELECT prodName, r FROM gv GROUP BY prodName", ()),
            ("EXPLAIN EXPAND SELECT prodName, r, r AT (ALL prodName) "
             "FROM gv GROUP BY prodName", ()),
            ("DROP TABLE g", ()),
        ])

    @pytest.mark.parametrize("summaries", [True, False])
    def test_tpch_queries_summary_answered_and_cold(self, summaries):
        from repro.workloads.tpch import TPCH_QUERIES, tpch_measure_database

        db = tpch_measure_database(0.001, summaries=summaries, telemetry=True)
        session = SessionManager(db).open_session()
        assert len(TPCH_QUERIES) == 7
        self._run_twice(session, [(sql, ()) for sql in TPCH_QUERIES.values()])
        strategies = {
            e["strategy"] for e in db.events() if e["event"] == "query"
        }
        assert ("summary" in strategies) is summaries


# -- what a session's statements report (via sessions, no sockets) -------------


class TestStatementIdentity:
    TRACEPARENT = "00-" + "ab" * 16 + "-" + "cd" * 8 + "-01"
    STATEMENT_EVENTS = {
        "statement", "query", "error", "slow_query", "resource_exhausted",
    }

    def _run(self, session, sql):
        from repro.errors import SqlError

        try:
            session.execute(sql, traceparent=self.TRACEPARENT)
        except SqlError:
            pass

    def test_every_statement_event_carries_the_same_identity(self):
        db = Database(telemetry=True, slow_query_ms=0.0)
        session = SessionManager(db).open_session()
        self._run(session, "CREATE TABLE t (x INTEGER)")
        self._run(session, "INSERT INTO t VALUES (1), (2), (3)")
        self._run(session, "SELECT SUM(x) FROM t")
        self._run(session, "SELECT nope FROM t")
        db.memory_limit_bytes = 1  # the next query dies on its budget
        self._run(session, "SELECT x FROM t")
        events = [
            e for e in db.events() if e["event"] in self.STATEMENT_EVENTS
        ]
        assert {e["event"] for e in events} == self.STATEMENT_EVENTS
        for event in events:
            assert event["session"] == "s1", event
            assert event["traceparent"] == self.TRACEPARENT, event
            assert event["fingerprint"] and event["outcome"], event
        # One slow_query per successful statement (the threshold is 0).
        assert [e["kind"] for e in events if e["event"] == "slow_query"] == [
            "create_table", "insert", "select",
        ]

    def test_session_statements_total_counts_failures_too(self):
        db = Database(telemetry=True)
        session = SessionManager(db).open_session()
        for sql in (
            "CREATE TABLE t (x INTEGER)",
            "INSERT INTO t VALUES (1)",
            "SELECT x FROM t",
            "SELECT nope FROM t",
            "SELEC 1",
        ):
            self._run(session, sql)
        counter = db.telemetry.session_statements_total
        assert counter.value(session="s1") == 5
