"""Concurrency guarantees: thread-safe telemetry stores, the RWLock, and
the session layer's no-torn-reads property.

The stress tests here are deliberately small (a few threads, a few
thousand operations) so they run in CI time, but every assertion is
exact — lost increments and torn row sets are counted, not sampled.
"""

from __future__ import annotations

import threading

import pytest

from repro.api import Database
from repro.server import SessionManager
from repro.storage.locks import RWLock
from repro.result import Result
from repro.telemetry import MetricsRegistry, StatementRecord, Telemetry


def _run_threads(count, target):
    threads = [threading.Thread(target=target, args=(i,)) for i in range(count)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


# -- satellite: thread-safe stores (no lost increments) ----------------------


class TestStoreThreadSafety:
    THREADS = 8
    OPS = 2000

    def test_counter_increments_are_never_lost(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "test", ("worker",))
        plain = registry.counter("plain_total", "test")

        def work(i):
            for _ in range(self.OPS):
                counter.inc(worker=f"w{i % 2}")
                plain.inc()

        _run_threads(self.THREADS, work)
        assert plain.value() == self.THREADS * self.OPS
        series = dict(counter.samples())
        assert sum(series.values()) == self.THREADS * self.OPS

    def test_histogram_observations_are_never_lost(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h_ms", "test", buckets=(1.0, 10.0, 100.0))

        def work(i):
            for n in range(self.OPS):
                hist.observe(float(n % 50))

        _run_threads(self.THREADS, work)
        assert hist.count() == self.THREADS * self.OPS

    def test_event_log_seqs_unique_under_contention(self):
        tele = Telemetry()
        record = StatementRecord(kind="select", sql="SELECT 1", result=Result())

        def work(i):
            for n in range(self.OPS):
                if n % 2:
                    tele.ring.record("tick", worker=i, n=n)
                else:
                    tele.observe(record)

        _run_threads(self.THREADS, work)
        events = tele.events()
        assert len(events) == min(1000, self.THREADS * self.OPS)
        seqs = [e["seq"] for e in events]
        assert len(set(seqs)) == len(seqs)
        assert seqs == sorted(seqs)
        assert seqs[-1] == self.THREADS * self.OPS

    def test_statement_stats_calls_are_exact(self):
        tele = Telemetry()
        record = StatementRecord(
            fingerprint="fp1",
            query_text="SELECT ?",
            wall_ms=1.0,
            result=Result(rowcount=2),
        )

        def work(i):
            for _ in range(self.OPS):
                tele.observe(record)

        _run_threads(self.THREADS, work)
        (entry,) = tele.statements.entries()
        assert entry.calls == self.THREADS * self.OPS
        assert entry.rows_returned == 2 * self.THREADS * self.OPS


# -- satellite: atomic reset (flips never orphaned) --------------------------


def planned_record(strategy: str, plan_hash: str) -> StatementRecord:
    """One successful execution of fingerprint ``fp`` under ``plan_hash``."""
    return StatementRecord(
        fingerprint="fp",
        query_text="q",
        strategy=strategy,
        plan_hash=plan_hash,
        wall_ms=1.0,
        result=Result(),
    )


class TestAtomicReset:
    def test_reset_clears_entries_and_flips_together(self):
        tele = Telemetry()
        tele.observe(planned_record("interpreter", "a"))
        tele.observe(planned_record("summary", "b"))
        assert len(tele.plan_flips()) == 1
        tele.reset_stats()
        assert tele.statements.entries() == []
        assert tele.plan_flips() == []

    def test_snapshot_never_shows_flip_without_entry(self):
        """Concurrent observe+reset: any snapshot that contains a flip must
        also contain that flip's statistics entry."""
        tele = Telemetry()
        stop = threading.Event()
        violations = []

        def flipper():
            toggle = 0
            while not stop.is_set():
                toggle ^= 1
                tele.observe(
                    planned_record("interpreter", "a" if toggle else "b")
                )

        def resetter():
            for _ in range(300):
                tele.reset_stats()

        def checker():
            while not stop.is_set():
                stats, entries, since = tele.statement_snapshot()
                fingerprints = {s.fingerprint for s in stats}
                for entry in entries:
                    flipped = entry.old_plan_hash is not None and entry.seq > since
                    if flipped and entry.fingerprint not in fingerprints:
                        violations.append(entry)

        threads = [
            threading.Thread(target=flipper),
            threading.Thread(target=checker),
        ]
        for t in threads:
            t.start()
        resetter()
        stop.set()
        for t in threads:
            t.join()
        assert violations == []

    def test_database_reset_stats_clears_flip_ring(self):
        db = Database(telemetry=True)
        db.execute("CREATE TABLE t (x INTEGER)")
        db.execute("INSERT INTO t VALUES (1), (2)")
        db.telemetry.observe(planned_record("interpreter", "a"))
        db.telemetry.observe(planned_record("summary", "b"))
        assert db.plan_flips()
        db.reset_stats()
        assert db.stat_statements() == []
        assert db.plan_flips() == []


# -- the RWLock itself --------------------------------------------------------


class TestRWLock:
    def test_read_is_reentrant(self):
        lock = RWLock()
        with lock.read():
            with lock.read():
                assert lock.readers == 2
        assert lock.readers == 0

    def test_write_excludes_readers(self):
        lock = RWLock()
        observed = []
        ready = threading.Event()

        def reader():
            ready.set()
            with lock.read():
                observed.append("read")

        lock.acquire_write()
        t = threading.Thread(target=reader)
        t.start()
        ready.wait()
        assert observed == []  # reader is blocked behind the writer
        lock.release_write()
        t.join()
        assert observed == ["read"]

    def test_no_read_to_write_upgrade(self):
        lock = RWLock()
        with lock.read():
            with pytest.raises(RuntimeError):
                lock.acquire_write()

    def test_writer_not_starved_by_reader_stream(self):
        lock = RWLock()
        wrote = threading.Event()

        def writer():
            with lock.write():
                wrote.set()

        with lock.read():
            t = threading.Thread(target=writer)
            t.start()
            # Give the writer time to queue; new read attempts from other
            # threads must now wait behind it.
            blocked = threading.Event()
            entered = threading.Event()

            def late_reader():
                blocked.set()
                with lock.read():
                    entered.set()

            import time

            time.sleep(0.05)
            t2 = threading.Thread(target=late_reader)
            t2.start()
            blocked.wait()
            time.sleep(0.05)
            assert not entered.is_set()  # queued behind the waiting writer
        t.join()
        t2.join()
        assert wrote.is_set() and entered.is_set()


# -- satellite: N readers + 1 writer never observe torn rows ------------------


class TestNoTornReads:
    ROWS = 20
    READERS = 4
    WRITES = 60

    def _db(self):
        db = Database(telemetry=True)
        db.execute("CREATE TABLE t (id INTEGER, v INTEGER)")
        values = ", ".join(f"({i}, 0)" for i in range(self.ROWS))
        db.execute(f"INSERT INTO t VALUES {values}")
        return db

    def test_reader_sessions_see_whole_statements(self):
        """A writer session rewrites every row to one value per statement;
        reader sessions must always see 20 rows that all share a value."""
        db = self._db()
        manager = SessionManager(db)
        torn = []
        stop = threading.Event()

        def writer():
            session = manager.open_session(label="writer")
            for k in range(1, self.WRITES + 1):
                session.execute(f"UPDATE t SET v = {k}")
            stop.set()
            session.close()

        def reader(i):
            session = manager.open_session(label=f"reader{i}")
            while not stop.is_set():
                result = session.execute("SELECT v FROM t ORDER BY id")
                values = {row[0] for row in result.rows}
                if len(result.rows) != self.ROWS or len(values) != 1:
                    torn.append(result.rows)
            session.close()

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader, args=(i,))
            for i in range(self.READERS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert torn == []

    def test_self_join_sees_one_snapshot_per_statement(self):
        """Within one statement, two scans of the same table agree even
        while a writer churns it (snapshot-at-first-scan)."""
        db = self._db()
        manager = SessionManager(db)
        mismatches = []
        stop = threading.Event()

        def writer():
            session = manager.open_session()
            for k in range(1, 40):
                session.execute(f"UPDATE t SET v = {k}")
            stop.set()
            session.close()

        def reader():
            session = manager.open_session()
            while not stop.is_set():
                result = session.execute(
                    "SELECT COUNT(*) FROM t AS a JOIN t AS b "
                    "ON a.id = b.id AND a.v = b.v"
                )
                if result.scalar() != self.ROWS:
                    mismatches.append(result.scalar())
            session.close()

        threads = [
            threading.Thread(target=writer),
            threading.Thread(target=reader),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert mismatches == []


# -- satellite: racing first executions of one cached plan ----------------------


class TestLazyCompilation:
    THREADS = 8

    def test_first_execution_of_a_shared_plan_races_safely(self):
        """Operators compile their expressions on first execution and keep
        the closures on the plan; eight threads running one never-executed
        plan at once must all compute the single-thread rows."""
        import sys

        from repro.sql import parse_query
        from repro.workloads.tpch import TPCH_QUERIES, tpch_measure_database

        db = tpch_measure_database(0.001)
        sql = TPCH_QUERIES["revenue_yoy_by_year"]
        expected = db.execute(sql).rows
        planned = db.plan_query(parse_query(sql))
        barrier = threading.Barrier(self.THREADS)
        results: list = [None] * self.THREADS

        def run(i):
            barrier.wait(timeout=30)
            results[i] = db.execute_planned(planned)[0].rows

        threads = [
            threading.Thread(target=run, args=(i,)) for i in range(self.THREADS)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads' compiles
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [expected] * self.THREADS


# -- a measure's shared source relation is per execution ------------------------


class TestSharedSourcePerExecution:
    def test_two_sessions_replaying_one_plan_share_nothing(self):
        """The query's FROM and the measure evaluator meet at one plan node
        and run it once — per ``ExecutionContext``.  Two sessions replaying
        the cached plan at the same time each build their own rows: equal
        results, and each execution's counters show the view's five joins
        once (a slot kept on the plan would show five and zero)."""
        import sys

        from repro.profile import Watch
        from repro.server import SessionManager
        from repro.sql import parse_query
        from repro.workloads.tpch import TPCH_QUERIES, tpch_measure_database

        db = tpch_measure_database(0.001)
        sql = TPCH_QUERIES["revenue_share_by_region"]
        expected = db.execute(sql).rows
        manager = SessionManager(db)
        sessions = [manager.open_session(), manager.open_session()]
        sessions[0].execute(sql)  # plans it; every later run replays the plan
        planned = db.plan_query(parse_query(sql))
        barrier = threading.Barrier(2)
        rows: list = [None, None]
        counters: list = [None, None]

        def run(i):
            barrier.wait(timeout=30)
            rows[i] = [sessions[i].execute(sql).rows for _ in range(3)]
            _, profile = db.execute_planned(planned, watch=Watch())
            counters[i] = profile.counters

        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert rows == [[expected] * 3] * 2
        assert manager.plan_cache.stats()["hits"] >= 5
        for seen in counters:
            assert seen["hash_joins"] == 5
            assert seen["rows_scanned"] == counters[0]["rows_scanned"]


# -- VISIBLE: the split is the plan's, the probe is the evaluation's -------------


class TestVisiblePlanIsOnlyRead:
    def test_two_sessions_replaying_one_visible_plan_agree(self):
        """The conjunct split sits on the cached plan (``VisibleInfo``, bind
        time); the hash table over a group's rows sits on the
        ``VisibleTerm`` built per evaluation and the source-row index in the
        ``ExecutionContext``.  Two sessions replaying the cached plan with
        different parameters at the same time each get their own answer, and
        each execution counts its own probes."""
        import sys

        from repro.profile import Watch
        from repro.sql import parse_query
        from repro.workloads.tpch import tpch_measure_database

        db = tpch_measure_database(0.001)
        sql = (
            "SELECT n.n_name, AGGREGATE(o.order_count), COUNT(*) "
            "FROM tpch_orders_m AS o JOIN nation AS n ON o.nation = n.n_name "
            "WHERE n.n_regionkey < ? AND o.mktsegment <> ? "
            "GROUP BY n.n_name ORDER BY n.n_name"
        )
        params = [(3, "MACHINERY"), (5, "BUILDING")]
        expected = [db.execute(sql, p).rows for p in params]
        assert expected[0] != expected[1]
        manager = SessionManager(db)
        sessions = [manager.open_session(), manager.open_session()]
        sessions[0].execute(sql, params[0])  # plans it; later runs replay it
        planned = db.plan_query(parse_query(sql))

        def visible_work(p):
            _, profile = db.execute_planned(planned, p, watch=Watch())
            return {
                name: count
                for name, count in profile.counters.items()
                if name.startswith("visible.")
            }

        alone = [visible_work(p) for p in params]
        assert alone[0] != alone[1]
        barrier = threading.Barrier(2)
        rows: list = [None, None]
        counters: list = [None, None]

        def run(i):
            barrier.wait(timeout=30)
            rows[i] = [sessions[i].execute(sql, params[i]).rows for _ in range(3)]
            counters[i] = visible_work(params[i])

        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert rows == [[expected[0]] * 3, [expected[1]] * 3]
        assert manager.plan_cache.stats()["hits"] >= 5
        assert counters == alone
        for seen, answer in zip(counters, expected):
            assert seen["visible.groups"] == len(answer)
            assert seen["visible.residual_rows"] == 0


# -- one memoized text, many threads ---------------------------------------------


class TestOneTextManyThreads:
    THREADS = 4
    RUNS = 200

    def test_one_text_from_four_threads_is_byte_identical(self):
        """Every execution of one text, from every session, reads the same
        memoized statement; none may see another's work on it."""
        import sys

        from repro.server.protocol import dumps_line, encode_result
        from repro.workloads.listings import SETUP
        from repro.workloads.paper_data import load_paper_tables

        db = Database(telemetry=True)
        load_paper_tables(db)
        for ddl in SETUP.values():
            db.execute(ddl)
        sql = (
            "SELECT prodName, profitMargin, profitMargin AT (ALL prodName) "
            "FROM EnhancedOrders GROUP BY prodName ORDER BY prodName"
        )
        expected = dumps_line(encode_result(db.execute(sql)))
        manager = SessionManager(db)
        sessions = [manager.open_session() for _ in range(self.THREADS)]
        barrier = threading.Barrier(self.THREADS)
        seen: list = [None] * self.THREADS

        def run(i):
            barrier.wait(timeout=30)
            seen[i] = {
                dumps_line(encode_result(sessions[i].execute(sql)))
                for _ in range(self.RUNS)
            }

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            _run_threads(self.THREADS, run)
        finally:
            sys.setswitchinterval(interval)
        assert seen == [{expected}] * self.THREADS
        stats = manager.plan_cache.stats()
        assert stats["texts"] == 1
        assert stats["hits"] + stats["misses"] == self.THREADS * self.RUNS
