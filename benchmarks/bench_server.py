"""F10: the query server — session throughput and plan-cache latency.

Two questions, answered with the in-process :class:`Session` API (no
sockets, so the numbers measure the engine and lock discipline rather
than the kernel's TCP stack):

* **Throughput** — statements/second with 1, 4, and 16 concurrent reader
  sessions over one shared Database.  Readers share the read side of the
  ``Database.rwlock``, so throughput should not collapse as sessions are
  added; the plan cache means only the first run of each statement pays
  for planning.
* **Latency** — cache-hit replay versus cold plan for the same statement.
  A hit skips the rewrite/bind/optimize pipeline entirely, which for
  measure queries is the bulk of sub-millisecond statement cost.

``measure_server()`` returns the JSON-ready dict that
``benchmarks.report --snapshot`` embeds under the snapshot's ``server``
key; the pytest-benchmark tests report the same latency pair as wall
clock under the usual harness.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import Database
from repro.server import SessionManager
from repro.workloads.listings import SETUP
from repro.workloads.paper_data import load_paper_tables

SESSION_COUNTS = (1, 4, 16)

#: The statement mix each session replays: paper listings of three
#: different planning weights (plain aggregate, view measure, AT modifier).
THROUGHPUT_QUERIES = (
    """SELECT prodName, COUNT(*) AS c,
              (SUM(revenue) - SUM(cost)) / SUM(revenue) AS profitMargin
       FROM Orders GROUP BY prodName ORDER BY prodName""",
    """SELECT orderDate, prodName, AGGREGATE(profitMargin) AS profitMargin
       FROM EnhancedOrders GROUP BY orderDate, prodName
       ORDER BY orderDate, prodName""",
    """SELECT prodName, sumRevenue,
              sumRevenue / sumRevenue AT (ALL prodName) AS share
       FROM (SELECT *, SUM(revenue) AS MEASURE sumRevenue FROM Orders) AS o
       GROUP BY prodName ORDER BY prodName""",
)

#: The statement used for the cold-vs-hit latency pair: a measure query,
#: so a cold plan pays for the full measure rewrite.
LATENCY_QUERY = THROUGHPUT_QUERIES[1]


def _server_database() -> Database:
    db = Database(telemetry=True)
    load_paper_tables(db)
    for ddl in SETUP.values():
        db.execute(ddl)
    return db


def _throughput(
    manager: SessionManager, sessions: int, rounds: int
) -> dict:
    """Run ``rounds`` passes of the statement mix in each of ``sessions``
    concurrent sessions; returns wall time and statements/second."""
    barrier = threading.Barrier(sessions + 1)
    errors: list = []

    def worker() -> None:
        session = manager.open_session(label="bench")
        try:
            barrier.wait()
            for _ in range(rounds):
                for sql in THROUGHPUT_QUERIES:
                    session.execute(sql)
        except Exception as exc:  # pragma: no cover - surfaced by caller
            errors.append(exc)
        finally:
            session.close()

    threads = [threading.Thread(target=worker) for _ in range(sessions)]
    for t in threads:
        t.start()
    barrier.wait()
    start = time.perf_counter()
    for t in threads:
        t.join()
    wall = time.perf_counter() - start
    if errors:
        raise errors[0]
    statements = sessions * rounds * len(THROUGHPUT_QUERIES)
    return {
        "sessions": sessions,
        "statements": statements,
        "wall_ms": round(wall * 1000.0, 3),
        "statements_per_s": round(statements / wall, 1) if wall else None,
    }


def _latency_pair(manager: SessionManager, repeats: int) -> dict:
    """Best-of-``repeats`` wall time for a cold plan (cache cleared before
    every run) versus a cache-hit replay of the same statement."""
    session = manager.open_session(label="bench-latency")
    try:
        cold = []
        for _ in range(repeats):
            manager.plan_cache.clear()
            start = time.perf_counter()
            session.execute(LATENCY_QUERY)
            cold.append(time.perf_counter() - start)
        session.execute(LATENCY_QUERY)  # prime
        hits = []
        for _ in range(repeats):
            start = time.perf_counter()
            session.execute(LATENCY_QUERY)
            hits.append(time.perf_counter() - start)
    finally:
        session.close()
    cold_ms = min(cold) * 1000.0
    hit_ms = min(hits) * 1000.0
    return {
        "cold_plan_ms": round(cold_ms, 3),
        "cache_hit_ms": round(hit_ms, 3),
        "speedup": round(cold_ms / hit_ms, 2) if hit_ms else None,
    }


def measure_server(
    *,
    session_counts=SESSION_COUNTS,
    rounds: int = 10,
    latency_repeats: int = 5,
) -> dict:
    """The snapshot's ``server`` section: throughput series + latency pair."""
    db = _server_database()
    manager = SessionManager(db)
    throughput = [
        _throughput(manager, sessions, rounds) for sessions in session_counts
    ]
    latency = _latency_pair(manager, latency_repeats)
    stats = manager.plan_cache.stats()
    return {
        "queries": len(THROUGHPUT_QUERIES),
        "rounds": rounds,
        "throughput": throughput,
        "latency": latency,
        "plan_cache": stats,
    }


# -- pytest-benchmark harness --------------------------------------------------


@pytest.fixture(scope="module")
def server_manager():
    db = _server_database()
    return SessionManager(db)


def test_f10_cold_plan_latency(benchmark, server_manager):
    session = server_manager.open_session()
    benchmark.group = "F10 plan cache"

    def cold():
        server_manager.plan_cache.clear()
        return session.execute(LATENCY_QUERY)

    result = benchmark(cold)
    assert len(result.rows) > 0
    session.close()


def test_f10_cache_hit_latency(benchmark, server_manager):
    session = server_manager.open_session()
    session.execute(LATENCY_QUERY)  # prime the shared cache
    benchmark.group = "F10 plan cache"
    result = benchmark(session.execute, LATENCY_QUERY)
    assert len(result.rows) > 0
    session.close()


def test_f10_cache_hit_beats_cold_plan():
    """The acceptance criterion, asserted deterministically: replaying a
    cached plan must be faster than planning cold (best-of-5 each)."""
    db = _server_database()
    manager = SessionManager(db)
    latency = _latency_pair(manager, repeats=5)
    assert latency["cache_hit_ms"] < latency["cold_plan_ms"], latency


def test_f10_throughput_scales_without_collapse():
    """16 reader sessions must process at least as many total statements
    as 1 session does in similar wall time — the read lock admits them
    concurrently, so aggregate throughput must not fall off a cliff."""
    db = _server_database()
    manager = SessionManager(db)
    single = _throughput(manager, 1, rounds=6)
    many = _throughput(manager, 16, rounds=6)
    # Total work scaled 16x; wall time must grow far less than 16x (GIL
    # serializes CPU work, so near-flat per-statement cost is the bar).
    assert many["wall_ms"] < single["wall_ms"] * 16 * 2
    assert manager.plan_cache.stats()["hits"] > 0
