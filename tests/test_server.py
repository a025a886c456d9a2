"""The query server end to end: protocol round-trips, concurrent clients,
prepared statements, cancellation, and plan-cache invalidation.

The headline test is the acceptance criterion from the server design:
four concurrent clients replaying every paper listing must produce
byte-identical canonical JSON to a single-threaded ``Database.execute``
run, with plan-cache hits and zero plan flips.
"""

from __future__ import annotations

import threading

import pytest

from repro.api import Database
from repro.result import Result
from repro.server import (
    ClientError,
    Connection,
    ServerThread,
    SessionManager,
    connect,
)
from repro.server.protocol import dumps_line, encode_result
from repro.telemetry import StatementRecord
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
        assert stats == {"capacity": 128, "size": 1, "hits": 1, "misses": 1}
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

    def test_plan_flip_evicts_the_fingerprint(self):
        db, manager = self._manager()
        session = manager.open_session()
        session.execute("SELECT SUM(x) FROM t")
        (row,) = manager.plan_cache.rows()
        fingerprint = row[0]
        # Simulate a plan flip for that fingerprint (as EXPLAIN/summary
        # strategy changes would record it).
        db.telemetry.observe(
            StatementRecord(
                fingerprint=fingerprint,
                query_text="q",
                strategy="interpreter",
                plan_hash="zzz",
                wall_ms=1.0,
                result=Result(),
            )
        )
        # The next cache interaction applies the pending eviction, so the
        # statement replans instead of replaying the flipped plan.
        session.execute("SELECT SUM(x) FROM t")
        stats = manager.plan_cache.stats()
        assert stats["hits"] == 0 and stats["misses"] == 2
        assert (
            db.telemetry.plan_cache_evictions_total.value(reason="flip") >= 1
        )

    def test_served_reads_walk_the_ring_only_after_a_flip(self, monkeypatch):
        """A served read compares one integer, the ring's last flip seq,
        with the manager's watermark; the ring is walked once per flip."""
        db, manager = self._manager()
        session = manager.open_session()
        ring, cache = db.telemetry.ring, manager.plan_cache
        walks, evicted = [], []
        entries, evict = ring.entries, cache.evict_fingerprint
        monkeypatch.setattr(ring, "entries", lambda: walks.append(1) or entries())
        monkeypatch.setattr(
            cache,
            "evict_fingerprint",
            lambda fp, reason: evicted.append(fp) or evict(fp, reason),
        )
        for _ in range(5):
            session.execute("SELECT SUM(x) FROM t")
        assert walks == [] and evicted == []
        ((fingerprint, *_),) = cache.rows()
        # A summary the read can use: its next cold plan flips the
        # fingerprint from the interpreter to the summary.
        session.execute(
            "CREATE MATERIALIZED VIEW sums AS "
            "SELECT x, SUM(x) AS sx FROM t GROUP BY x"
        )
        for _ in range(5):
            session.execute("SELECT SUM(x) FROM t")
        (flip,) = db.plan_flips()
        assert flip["new_strategy"] == "summary"
        assert walks == [1, 1]  # the one walk, then plan_flips() above
        assert evicted == [fingerprint]

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
