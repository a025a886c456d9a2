"""CI smoke test for the query server.

Starts a real TCP server on a background thread, connects four clients,
and replays every paper listing concurrently in each.  The run passes
only if:

1. every client's results are **byte-identical** (canonical JSON) to a
   single-caller ``Database.execute()`` baseline,
2. the shared plan cache reports hits (the listings were replayed from
   cache, not replanned per client) and its text memo holds one entry
   per listing (4 x 15 statements, 15 parses),
3. zero plan flips were recorded (concurrent replays kept stable plans),
4. a cache-hit replay is faster than a cold plan,
5. the HTTP sidecar answers ``/healthz`` and a spec-shaped ``/metrics``
   scrape, and ``repro_running_queries`` shows a progress row for a
   query held in flight, and
6. the server shuts down cleanly with no sessions left open.

Run it as ``make server-smoke`` or ``python scripts/server_smoke.py``.
"""

from __future__ import annotations

import faulthandler
import json
import os
import sys
import threading
import time
import urllib.request

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, _ROOT)  # the benchmarks package
sys.path.insert(0, os.path.join(_ROOT, "src"))

from repro.api import Database
from repro.server import ServerThread, connect
from repro.server.protocol import dumps_line, encode_result
from repro.workloads.listings import SETUP, all_listing_sql
from repro.workloads.paper_data import load_paper_tables

CLIENTS = 4


def build_database(telemetry: bool) -> Database:
    db = Database(telemetry=telemetry)
    load_paper_tables(db)
    for ddl in SETUP.values():
        db.execute(ddl)
    return db


def main() -> int:
    reference = build_database(telemetry=False)
    listings = all_listing_sql(reference)
    baseline = {
        name: dumps_line(encode_result(reference.execute(sql)))
        for name, sql in listings.items()
    }
    print(f"baseline: {len(baseline)} paper listings")

    db = build_database(telemetry=True)
    failures: list[str] = []
    with ServerThread(db, http_port=0) as server:
        host, port = server.server.host, server.server.port
        print(f"server listening on {host}:{port}")
        print(f"observability sidecar on http port {server.http_port}")
        results: list[dict] = [dict() for _ in range(CLIENTS)]
        errors: list = []

        def client(i: int) -> None:
            try:
                with connect(host, port) as conn:
                    for name, sql in listings.items():
                        payload = conn.query(sql).payload
                        results[i][name] = dumps_line(payload)
            except Exception as exc:
                errors.append(f"client {i}: {exc!r}")

        threads = [
            threading.Thread(target=client, args=(i,))
            for i in range(CLIENTS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        failures.extend(errors)
        for i in range(CLIENTS):
            for name, blob in baseline.items():
                got = results[i].get(name)
                if got != blob:
                    failures.append(f"client {i}: {name} diverged from baseline")

        stats = server.manager.plan_cache.stats()
        print(f"plan cache: {stats}")
        if stats["hits"] <= 0:
            failures.append("expected plan-cache hits > 0")
        if stats["texts"] != len(baseline):
            failures.append(
                f"expected {len(baseline)} memoized texts (one parse per "
                f"listing), got {stats['texts']}"
            )
        flips = db.plan_flips()
        if flips:
            failures.append(f"expected zero plan flips, got {len(flips)}")

        from benchmarks.bench_server import _latency_pair

        latency = _latency_pair(server.manager, repeats=5)
        print(f"latency: {latency}")
        if latency["cache_hit_ms"] >= latency["cold_plan_ms"]:
            failures.append(
                "cache-hit latency not below cold-plan latency: "
                f"{latency}"
            )

        failures.extend(check_observability(db, server, host, port))

        open_sessions = server.manager.sessions()
        if open_sessions:
            failures.append(
                f"sessions left open after clients closed: "
                f"{[s.id for s in open_sessions]}"
            )

    if failures:
        print(f"\nSMOKE FAILED ({len(failures)}):")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print(
        f"\nSMOKE OK: {CLIENTS} clients x {len(baseline)} listings "
        "byte-identical, cache hot, zero flips, sidecar scraped, "
        "clean shutdown."
    )
    return 0


def _http_get(host: str, port: int, path: str) -> str:
    with urllib.request.urlopen(
        f"http://{host}:{port}{path}", timeout=10
    ) as response:
        return response.read().decode("utf-8")


def check_observability(db, server, host: str, port: int) -> list[str]:
    """Scrape the HTTP sidecar and catch an in-flight query's progress."""
    failures: list[str] = []
    http_port = server.http_port

    health = json.loads(_http_get(host, http_port, "/healthz"))
    print(f"healthz: {health}")
    if health.get("status") != "ok":
        failures.append(f"/healthz not ok: {health}")
    if not isinstance(health.get("uptime_seconds"), (int, float)) or (
        health["uptime_seconds"] < 0
    ):
        failures.append(f"/healthz uptime_seconds bad: {health}")
    from repro import __version__

    if health.get("version") != __version__:
        failures.append(f"/healthz version != {__version__}: {health}")
    if not isinstance(health.get("sessions"), int):
        failures.append(f"/healthz sessions missing: {health}")
    # The four clients already replayed every listing through telemetry.
    if not health.get("queries_total", 0) > 0:
        failures.append(f"/healthz queries_total not positive: {health}")

    metrics = _http_get(host, http_port, "/metrics")
    if "# TYPE queries_total counter" not in metrics:
        failures.append("/metrics missing the queries_total counter")

    # Hold a deliberately slow cross join in flight and assert the
    # progress tables report it from a second session.
    with connect(host, port) as runner, connect(host, port) as watcher:
        runner.query("CREATE TABLE smoke_big (x INTEGER)")
        values = ", ".join(f"({i})" for i in range(500))
        runner.query(f"INSERT INTO smoke_big VALUES {values}")

        def doomed() -> None:
            try:
                runner.query(
                    "SELECT COUNT(*) FROM smoke_big AS a "
                    "JOIN smoke_big AS b ON a.x >= 0 "
                    "JOIN smoke_big AS c ON b.x >= 0"
                )
            except Exception:
                pass  # cancelled below, by design

        thread = threading.Thread(target=doomed)
        thread.start()
        progress_row = None
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline and progress_row is None:
            rows = watcher.query(
                "SELECT query_id, rows_processed, current_operator "
                "FROM repro_running_queries"
            ).rows
            for row in rows:
                if row[1] and row[2]:
                    progress_row = row
            time.sleep(0.05)
        sidecar_queries = json.loads(
            _http_get(host, http_port, "/queries")
        )["queries"]
        runner.cancel()
        thread.join(timeout=30)
        if progress_row is None:
            failures.append(
                "repro_running_queries never showed the in-flight query"
            )
        else:
            print(f"progress row: {progress_row}")
        if not sidecar_queries:
            failures.append("/queries did not report the in-flight query")
        runner.query("DROP TABLE smoke_big")
    return failures


if __name__ == "__main__":
    # A crash in a server thread prints every thread's stack.
    faulthandler.enable(all_threads=True)
    sys.exit(main())
