"""``server_mixed``: the query server in a subprocess, two wire clients,
80 % reads / 20 % writes, closed loop.

Reads are the four summary-answerable TPC-H queries (plan-cache-hot) and a
roll-up of the ``part_by_brand`` summary; writes are single-row ``INSERT
INTO part``: write lock, plan-cache invalidation, an incremental summary
merge, and a re-plan on the next roll-up read.  The workload uses the
summary layer both ways, so a read gain that costs writes shows.

Two client connections are driven from this process (main thread plus one
thread), each drawing its operations from its own seeded stream.  Server
and clients share one CPU: see :func:`share_one_cpu`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import random
import select
import statistics
import subprocess
import sys
import threading
import time

from bench import ROOT, builds, oracle, trace
from bench.builds import Scale
from bench.measure import (
    Report,
    host_speed,
    import_probe,
    iqr_ratio,
    kernel_seconds,
    median,
    median_seconds,
    percentile,
    ratio,
    timed,
    typical_latency,
)
from repro.errors import SqlError
from repro.server.client import ClientError, connect
from repro.server.protocol import dumps_line, encode_result
from repro.server.session import SessionManager
from repro.workloads.tpch import TPCH_QUERIES, TPCH_TABLES

WRITE_SHARE = 0.2
WINDOW_S = 2.0
#: A client probes the host speed once every this many statements (about
#: eight times a second; the probes take 8 % of a client's time).
PROBE_EVERY = 40
READY_TIMEOUT_S = 120.0

READS = {name: TPCH_QUERIES[name] for name in builds.SUMMARY_QUERIES}
READS["part_by_mfgr"] = builds.PART_BY_MFGR
READ_NAMES = tuple(READS)

WRITE = "insert_part"
INSERT_PART = "INSERT INTO part VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)"
INSERT_SUPPLIER = "INSERT INTO supplier VALUES (?, ?, ?, ?, ?, ?, ?)"
_BRANDS = [f"Brand#{i}{j}" for i in range(1, 6) for j in range(1, 6)]


def share_one_cpu() -> None:
    """Pin this process, and with it the server it is about to start, to one
    CPU.

    The sandbox's two vCPUs do not run in parallel to speak of (a kernel run
    takes up to twice as long while the other vCPU is busy), and a wake-up
    across them costs more than a context switch on one: ten 20-second runs
    gave 743 statements/s on two vCPUs and 808 on one.  What pinning buys is
    that the clients' host-speed probes run on the CPU the server runs on.
    Left free they may run on the other one, and then a neighbour of the
    server's vCPU slows the statements and not the probes: two sets of ten
    free runs spread 7.4 % and 9.3 % (quartiles) at reference speed, one run
    reading 38 % low, while the in-process workloads beside them agreed
    within 2 % per seed.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


# -- the server subprocess --------------------------------------------------------


class ServerProcess:
    """``python -m bench.serve`` with a ready-line handshake.

    Leaving the ``with`` block asks the server to quit, waits for it, and
    kills it if it does not go; the server also exits by itself when its
    stdin closes.
    """

    def __init__(self, sf: float, builds_: int):
        self._argv = [
            sys.executable, "-m", "bench.serve",
            "--sf", repr(sf), "--builds", str(builds_),
        ]
        self.ready: dict = {}
        self.spawn_to_ready_s = 0.0

    def __enter__(self) -> "ServerProcess":
        started = time.perf_counter()
        self._proc = subprocess.Popen(
            self._argv, cwd=ROOT, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        try:
            self.ready = self._read_line(READY_TIMEOUT_S)
            if not self.ready.get("ready"):
                raise RuntimeError(f"unexpected ready line: {self.ready}")
        except BaseException:
            self._stop()
            raise
        self.spawn_to_ready_s = time.perf_counter() - started
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop()

    def _read_line(self, timeout: float) -> dict:
        readable, _, _ = select.select([self._proc.stdout], [], [], timeout)
        if not readable:
            raise TimeoutError(f"server silent for {timeout:.0f} s")
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(
                f"server exited with code {self._proc.wait(timeout=10)}"
            )
        return json.loads(line)

    def stats(self) -> dict:
        self._proc.stdin.write("stats\n")
        self._proc.stdin.flush()
        return self._read_line(30.0)

    def _stop(self) -> None:
        proc = self._proc
        try:
            if proc.poll() is None:
                proc.stdin.write("quit\n")
                proc.stdin.flush()
            proc.stdin.close()
        except OSError:
            pass  # already gone; wait() below reaps it
        try:
            proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()


# -- a client's seeded operation stream --------------------------------------------


class Stream:
    """One client: a seeded stream of reads and writes through ``execute``
    (over the wire or in process), with what verification needs."""

    def __init__(self, client_id: int, seed: int, execute):
        self.execute = execute  # (sql, params) -> rows
        self.rng = random.Random(f"{seed}:{client_id}")
        self._next_key = (client_id + 1) * 10_000_000
        #: (seconds, statement name) per statement of the current window.
        self.samples: list = []
        #: The calibration kernel's CPU seconds, per probe of the window.
        self.kernel_s: list = []
        #: Acknowledged INSERT rows, for the oracle's replay.
        self.inserted: list = []
        #: (read name, repr of rows) -> [rows, times seen].
        self.payloads: dict = {}
        #: (parts counted by a roll-up read, own inserts acknowledged before it).
        self.part_reads: list = []
        self.errors = 0
        self.error = None

    def part_row(self) -> tuple:
        rng = self.rng
        self._next_key += 1
        brand = rng.choice(_BRANDS)
        return (
            self._next_key, "bench part", f"Manufacturer#{brand[6]}", brand,
            "ECONOMY ANODIZED", rng.randrange(1, 51), "SM BOX",
            round(900 + 1000 * rng.random(), 2), "bench",
        )

    def step(self, write_share: float) -> None:
        rng = self.rng
        clock = time.perf_counter
        if rng.random() < write_share:
            row = self.part_row()
            start = clock()
            try:
                self.execute(INSERT_PART, row)
            except (ClientError, SqlError):
                self.errors += 1
            else:
                self.inserted.append(row)
            self.samples.append((clock() - start, WRITE))
            return
        name = rng.choice(READ_NAMES)
        start = clock()
        try:
            rows = self.execute(READS[name], ())
        except (ClientError, SqlError):
            rows = None
            self.errors += 1
        self.samples.append((clock() - start, name))
        if rows is None:
            return
        if name == "part_by_mfgr":
            self.part_reads.append(
                (sum(row[1] for row in rows), len(self.inserted))
            )
            return
        seen = self.payloads.setdefault((name, repr(rows)), [rows, 0])
        seen[1] += 1

    def run(self, start: float, seconds: float, write_share: float) -> None:
        try:
            time.sleep(max(0.0, start - time.perf_counter()))
            deadline = start + seconds
            while time.perf_counter() < deadline:
                # Between statements, so no latency includes a probe.
                if len(self.samples) % PROBE_EVERY == 0:
                    self.kernel_s.append(kernel_seconds())
                self.step(write_share)
        except BaseException as exc:  # re-raised in the main thread
            self.error = exc


def _drive(streams, seconds: float, write_share: float) -> None:
    """Run the streams concurrently for ``seconds``, the first one on the
    calling thread."""
    start = time.perf_counter() + 0.02
    threads = [
        threading.Thread(target=s.run, args=(start, seconds, write_share))
        for s in streams[1:]
    ]
    for thread in threads:
        thread.start()
    streams[0].run(start, seconds, write_share)
    for thread in threads:
        thread.join(timeout=seconds + 60)
        if thread.is_alive():
            raise RuntimeError("a client did not finish")
    for stream in streams:
        if stream.error is not None:
            raise stream.error


@dataclasses.dataclass
class Window:
    seconds: float
    #: (seconds, statement name) per statement, all clients together.
    samples: list
    #: Host speed over the window, from every probe the clients made in it.
    speed: float


@dataclasses.dataclass
class Phase:
    """What the streams did over some seconds, in windows of about two.

    ``normal`` selects times at reference host speed (the end-to-end
    metrics) or as measured (the per-layer diagnostics)."""

    windows: list

    def rates(self, normal: bool = False) -> list:
        """Statements per second of each window."""
        return [
            len(w.samples) / w.seconds / (w.speed if normal else 1.0)
            for w in self.windows
        ]

    def by_name(self, normal: bool = False) -> dict:
        """``{statement name: [seconds]}``, every sample."""
        out: dict = {}
        for w in self.windows:
            scale = w.speed if normal else 1.0
            for elapsed, name in w.samples:
                out.setdefault(name, []).append(elapsed * scale)
        return out

    @property
    def statements(self) -> int:
        return sum(len(w.samples) for w in self.windows)


def drive(streams, seconds: float, write_share: float = WRITE_SHARE) -> Phase:
    """Run the streams for ``seconds`` as equal windows of about
    ``WINDOW_S``, each started afresh.

    The host speed of a window is the reference over the *mean* of the
    clients' probes in it: the host flips between a fast and a slow state
    many times a second, a window's rate averages over them, and so must
    what it is divided by.  The probes run on the clients' threads, in
    thread CPU time, while the server is busy, which is the regime the
    statements run in; a probe taken between windows, with the server idle,
    does not track the rate at all (ten 26-second blocks: quartile spread
    8.2 % as measured, 8.0 % divided by idle probes; another ten: 7.1 % as
    measured, 3.2 % divided by these).
    """
    count = max(1, int(seconds // WINDOW_S))
    width = seconds / count
    phase = Phase([])
    for _ in range(count):
        _drive(streams, width, write_share)
        samples = [sample for stream in streams for sample in stream.samples]
        probes = [k for stream in streams for k in stream.kernel_s]
        for stream in streams:
            stream.samples, stream.kernel_s = [], []
        phase.windows.append(
            Window(width, samples, host_speed(statistics.fmean(probes)))
        )
    return phase


def warm(streams) -> None:
    """Every read once per client (the plans are cached from here on), one
    write, and at least 0.25 s."""
    start = time.perf_counter()
    for stream in streams:
        for name in READ_NAMES:
            stream.execute(READS[name], ())
        row = stream.part_row()
        stream.execute(INSERT_PART, row)
        stream.inserted.append(row)
    time.sleep(max(0.0, 0.25 - (time.perf_counter() - start)))


# -- verification -------------------------------------------------------------------


def verify(streams, final_reads, tables, report: Report, others=()) -> None:
    """Every TPC-H payload against the SQLite oracle; every roll-up read
    against the bounds the acknowledged inserts allow; and, with every
    acknowledged INSERT replayed into SQLite, the final roll-up and count.
    ``others`` are ``(name, rows)`` of TPC-H reads made outside a stream."""
    with oracle.TpchOracle(tables, TPCH_TABLES) as db:
        expected = {
            name: db.rows(oracle.COLD_ORACLES[name])
            for name in builds.SUMMARY_QUERIES
        }
        base_parts = db.rows(oracle.PART_COUNT_ORACLE)[0][0]
        for stream in streams:
            db.insert("part", stream.inserted)
        final_parts = db.rows(oracle.PART_COUNT_ORACLE)[0][0]
        attempted = len(others)
        failed = sum(
            not oracle.rows_match(rows, expected[name]) for name, rows in others
        )
        for stream in streams:
            attempted += len(stream.inserted) + stream.errors
            failed += stream.errors
            for (name, _), (rows, seen) in stream.payloads.items():
                attempted += seen
                if not oracle.rows_match(rows, expected[name]):
                    failed += seen
            for parts, own_before in stream.part_reads:
                attempted += 1
                if not base_parts + own_before <= parts <= final_parts:
                    failed += 1
        rollup, count = final_reads
        attempted += 2
        failed += not oracle.rows_match(
            rollup, db.rows(oracle.PART_BY_MFGR_ORACLE)
        )
        failed += not oracle.rows_match(count, [(final_parts,)])
    report.attempted += attempted
    report.failed += failed


@contextlib.contextmanager
def wire_streams(server: ServerProcess, seed: int):
    """Two client connections to ``server``, each with its seeded stream."""
    connections = [connect("127.0.0.1", server.ready["port"]) for _ in range(2)]
    try:
        yield [
            Stream(i, seed, lambda sql, params, c=c: c.query(sql, params).rows)
            for i, c in enumerate(connections)
        ]
    finally:
        for connection in connections:
            connection.close()


def _final_reads(execute):
    return (
        execute(builds.PART_BY_MFGR, ()),
        execute("SELECT COUNT(*) FROM part", ()),
    )


# -- the untraced run ---------------------------------------------------------------


def run_untraced(seed: int, seconds: float, scale: Scale) -> Report:
    share_one_cpu()
    report = Report()
    tables = builds.tpch_tables(scale.sf)
    with ServerProcess(scale.sf, scale.server_builds) as server:
        with wire_streams(server, seed) as streams:
            warm(streams)
            phase = drive(streams, seconds)
            final = _final_reads(streams[0].execute)
        stats = server.stats()
    rates = phase.rates(normal=True)
    report.put(
        "stmts_per_s",
        median(rates),
        f"median of {len(rates)} windows, 2 clients; median host speed "
        f"{median(w.speed for w in phase.windows):.3f}",
    )
    report.put(
        "stmt_p50_ms",
        typical_latency(phase.by_name(normal=True)) * 1e3,
        f"n={phase.statements}",
    )
    report.put("peak_rss_mb", stats["rss_mb"], "the server process")
    report.put(
        "setup_s", median(stats["build_s"]),
        f"median of {len(stats['build_s'])} builds timed by the server",
    )
    verify(streams, final, tables, report)
    return report


# -- the traced run -------------------------------------------------------------------


def _wire_phases(report: Report, seed: int, seconds: float, scale: Scale):
    """Three phases over the wire: mixed with two clients, read-only with
    two, mixed with one.  Returns the streams and what verify() needs."""
    with ServerProcess(scale.sf, 1) as server:
        with wire_streams(server, seed) as streams:
            warm(streams)
            before = server.stats()
            mixed = drive(streams, seconds / 5)
            after = server.stats()
            readonly = drive(streams, seconds / 5, write_share=0.0)
            single = drive(streams[:1], seconds / 5)
            final = _final_reads(streams[0].execute)
        stats = server.stats()
    report.put("harness.passes", len(mixed.windows))
    report.put("harness.samples", mixed.statements)
    report.put("harness.pass_iqr_ratio", iqr_ratio(mixed.rates()))
    report.put("harness.host_speed", median(w.speed for w in mixed.windows))
    by_name = mixed.by_name()
    writes = by_name.get(WRITE, ())
    reads = [
        s for name, values in by_name.items() if name != WRITE for s in values
    ]
    for kind, values in (("read", reads), ("write", writes)):
        if values:
            note = f"n={len(values)}"
            report.put(f"server.{kind}_p50_ms", median(values) * 1e3, note)
            report.put(
                f"server.{kind}_p99_ms", percentile(values, 0.99) * 1e3, note
            )
    report.put(
        "server.cpu_ms_per_stmt",
        ratio((after["cpu_s"] - before["cpu_s"]) * 1e3, mixed.statements),
    )
    report.put("server.readonly_stmts_per_s", median(readonly.rates()))
    report.put("server.one_client_stmts_per_s", median(single.rates()))
    report.put(
        "server.client_scaling",
        ratio(median(mixed.rates()), median(single.rates())),
    )
    cache = stats["plan_cache"]
    report.put(
        "server.plancache_hit_ratio",
        ratio(cache["hits"], cache["hits"] + cache["misses"]),
    )
    report.put("server.plancache_invalidations", stats["plan_cache_invalidations"])
    hits = sum(v["hits"] for v in stats["summaries"].values())
    misses = sum(
        v["rejects"] + v["stale_skips"] for v in stats["summaries"].values()
    )
    report.put("matview.hit_ratio", ratio(hits, hits + misses))
    # Both as measured: the driver's wall-clock from spawn to the ready line,
    # less the server's from the end of its imports to that line.
    report.put(
        "server.spawn_import_s",
        server.spawn_to_ready_s - server.ready["build_wall_s"],
    )
    return streams, final


def _replica_diagnostics(report: Report, seed: int, scale: Scale) -> None:
    """The layers a wire client cannot see, measured in process on a
    database built exactly like the server's."""
    built = builds.build_server(scale.sf)
    report.put("workloads.generate_s", built.phases["generate"])
    report.put("storage.load_s", built.phases["load"])
    report.put("semantics.views_s", built.phases["views"])
    report.put("matview.build_s", built.phases["summaries"])
    db = built.db
    manager = SessionManager(db)
    session = manager.open_session()
    reads = list(READS.items())

    def wire_line(result) -> bytes:
        return dumps_line({"id": 1, "ok": True, "result": encode_result(result)})

    def in_process(sql, params):
        result = session.execute(sql, params)
        wire_line(result)
        return result.rows

    stream = Stream(0, seed, in_process)
    warm([stream])

    # Pipeline spans of the reads, planned cold each time as after a write,
    # back to back with plain Database.execute (telemetry on, as served); the
    # two take turns at going first, as in direct.alternate().
    tracer = trace.Tracer()
    pipeline = trace.PipelineStats(READ_NAMES)
    hit_seconds: list = []
    checked: list = []  # TPC-H reads for verify(); the roll-up's state moves
    statement_id = 0
    for round_ in range(10):
        for index, (name, sql) in enumerate(reads):
            statement_id += 1
            for traced in sorted((False, True), reverse=(round_ + index) % 2):
                if traced:
                    rows, layer = trace.traced_execute(
                        db, sql, tracer, statement_id
                    )
                    pipeline.add_traced(name, layer)
                else:
                    result, seconds = timed(lambda: db.execute(sql))
                    rows = result.rows
                    pipeline.add_plain(name, seconds)
                if name != "part_by_mfgr":
                    checked.append((name, rows))
            if name != "part_by_mfgr":
                hit_seconds.append(
                    layer["matview.rewrite"] + layer["engine.execute"]
                )
    report.metrics.update(pipeline.metrics())
    report.put("matview.hit_ms", median(hit_seconds) * 1e3)

    # The session path, plans cached, and the encoding of its results.
    execute_seconds: list = []
    encode_seconds: list = []
    for _ in range(20):
        for _name, sql in reads:
            start = time.perf_counter()
            result = session.execute(sql)
            middle = time.perf_counter()
            wire_line(result)
            execute_seconds.append(middle - start)
            encode_seconds.append(time.perf_counter() - middle)
    report.put("server.session_execute_ms", median(execute_seconds) * 1e3)
    report.put("server.encode_ms", median(encode_seconds) * 1e3)
    report.put(
        "server.wire_ms",
        report.metrics["server.read_p50_ms"]
        - (median(execute_seconds) + median(encode_seconds)) * 1e3,
    )

    # A write and the read that has to re-plan after it.
    merge_seconds: list = []
    replan_seconds: list = []
    insert_seconds: list = []
    for index in range(20):
        row = stream.part_row()
        start = time.perf_counter()
        session.execute(INSERT_PART, row)
        merge_seconds.append(time.perf_counter() - start)
        stream.inserted.append(row)
        start = time.perf_counter()
        session.execute(builds.PART_BY_MFGR)
        replan_seconds.append(time.perf_counter() - start)
        supplier = (
            900_000 + index, "bench supplier", "bench", 0, "10-100-100-1000",
            1000.5, "bench",
        )
        start = time.perf_counter()
        session.execute(INSERT_SUPPLIER, supplier)
        insert_seconds.append(time.perf_counter() - start)
    report.put("matview.merge_ms", median(merge_seconds) * 1e3)
    report.put("server.replan_ms", median(replan_seconds) * 1e3)
    report.put("storage.insert_ms", median(insert_seconds) * 1e3)
    report.put(
        "matview.refresh_ms",
        median_seconds(
            lambda: db.execute(
                "REFRESH MATERIALIZED VIEW tpch_orders_by_year"
            ),
            3,
        )
        * 1e3,
    )

    def lock_pairs():
        read = db.rwlock.read
        for _ in range(10_000):
            with read():
                pass

    report.put("storage.lock_pair_us", median_seconds(lock_pairs, 3) * 1e2)

    # One profiled pass: 100 operations of the seeded stream, in process.
    def profiled_pass():
        for _ in range(100):
            stream.step(WRITE_SHARE)

    calls, self_seconds = trace.profile_calls(profiled_pass)
    report.metrics.update(trace.fold_profile(calls, self_seconds))

    final = _final_reads(in_process)
    verify([stream], final, built.tables, report, checked)
    tracer.dump(ROOT / "bench" / "spans-server_mixed.json")


def run_traced(seed: int, seconds: float, scale: Scale, names) -> Report:
    share_one_cpu()
    report = Report()
    report.metrics.update(dict.fromkeys(names, 0))
    tables = builds.tpch_tables(scale.sf)
    streams, final = _wire_phases(report, seed, seconds, scale)
    verify(streams, final, tables, report)
    _replica_diagnostics(report, seed, scale)
    report.put("harness.import_s", import_probe())
    return report
