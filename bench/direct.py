"""The three in-process workloads: ``tpch_cold``, ``tpch_visible`` and
``listings_direct``.  One client, closed loop, ``Database.execute``.

A *pass* is the workload's whole statement set in seeded shuffled order.
Throughput comes from the median pass (on this shared host wall-clock
drifts in spells; the median pass spread 7 % where the fastest spread
16 %), latency from every timed statement, and every result is checked
against the oracle between passes, outside the timed region.
"""

from __future__ import annotations

import collections
import dataclasses
import gc
import os
import random
import sys
import tempfile
import time
from typing import Callable, Optional

from bench import ROOT
from bench import builds, oracle, trace
from bench.measure import (
    HostSpeed,
    Report,
    import_probe,
    iqr_ratio,
    log_log_slope,
    median,
    median_seconds,
    peak_rss_mb,
    percentile,
    ratio,
    repeat_build,
    typical_latency,
)
from bench.builds import Scale
from repro.workloads.listings import all_listing_sql
from repro.workloads.tpch import TPCH_QUERIES, TPCH_TABLES

#: The counters ``Database.last_stats`` exposes, summed over a pass.
STAT_COUNTERS = (
    "rows_scanned",
    "hash_joins",
    "nested_loop_joins",
    "subquery_executions",
    "subquery_cache_hits",
    "measure_evaluations",
    "measure_cache_hits",
)


@dataclasses.dataclass
class Workload:
    name: str
    build: Callable  # scale -> Built
    build_count: Callable  # scale -> number of timed builds
    statements: Callable  # Built -> [(name, sql)]
    expected: Callable  # Built -> {name: expected rows}
    diagnostics: Callable  # (run, report) -> None; fills workload-specific metrics


# -- statement sets and their oracles -------------------------------------------


def _tpch_build(scale):
    return builds.build_tpch(scale.sf)


def _cold_statements(_built):
    return [(name, TPCH_QUERIES[name]) for name in builds.COLD_QUERIES]


def _cold_expected(built):
    with oracle.TpchOracle(built.tables, TPCH_TABLES) as db:
        return {
            name: db.rows(oracle.COLD_ORACLES[name])
            for name in builds.COLD_QUERIES
        }


#: Statement name per excluded market segment.
_VISIBLE_NAMES = {
    segment: f"visible_excluding_{segment.lower()}" for segment in builds.SEGMENTS
}


def _visible_statements(_built):
    return [
        (name, builds.visible_query(segment))
        for segment, name in _VISIBLE_NAMES.items()
    ]


def _visible_expected(built):
    with oracle.TpchOracle(built.tables, TPCH_TABLES) as db:
        return {
            name: db.rows(oracle.VISIBLE_ORACLE, (segment,))
            for segment, name in _VISIBLE_NAMES.items()
        }


def _listings_build(_scale):
    return builds.build_listings()


def _listings_statements(built):
    # All 15: listings 5 and 11 are the engine's expansions of 4 and 10.
    return list(all_listing_sql(built.db).items())


def _listings_expected(_built):
    return oracle.LISTING_ROWS


# -- passes ---------------------------------------------------------------------


def note_failure(name: str, exc: Exception) -> None:
    print(f"bench: {name} raised {type(exc).__name__}: {exc}", file=sys.stderr)


def run_pass(db, order, verifier, *, host: Optional[HostSpeed] = None):
    """Execute ``order`` once; ``[(name, seconds, slot)]``, ``slot`` being
    where ``host`` (if given) probed the host speed before the statement.

    A statement that raises, or whose rows the oracle rejects, counts as
    failed.  Verification runs after the last statement was timed.
    """
    execute = db.execute
    clock = time.perf_counter
    outcomes = []
    samples = []
    gc.collect()
    for name, sql in order:
        slot = host.mark() if host is not None else 0
        start = clock()
        try:
            rows = execute(sql).rows
        except Exception as exc:  # a failing statement is a result, not a crash
            note_failure(name, exc)
            rows = None
        samples.append((name, clock() - start, slot))
        outcomes.append((name, rows))
    for name, rows in outcomes:
        verifier.check(name, rows)
    return samples


def warm_up(db, statements, verifier, limit_s: float = float("inf")) -> None:
    """Run the statements once, untimed (first executions import lazily and
    fill caches), then make sure at least 0.25 s have passed."""
    start = time.perf_counter()
    for statement in statements:
        run_pass(db, [statement], verifier)
        if time.perf_counter() - start > limit_s:
            break
    time.sleep(max(0.0, 0.25 - (time.perf_counter() - start)))


def timed_passes(db, statements, seconds, rng, verifier, host):
    """Shuffled passes for ``seconds``; ``(pass times, {name: statement
    times})``, every statement's time multiplied by the host speed probed
    around it, a pass time being the sum of its statements' times.  A pass
    that would run past the deadline is not started, so the timed region,
    probes included, never exceeds ``seconds``."""
    passes: list = []  # [(name, seconds, slot)] per pass
    clock = time.perf_counter
    deadline = clock() + seconds
    while True:
        order = list(statements)
        rng.shuffle(order)
        started = clock()
        passes.append(run_pass(db, order, verifier, host=host))
        if clock() + (clock() - started) > deadline:
            break
    host.close()
    pass_times = []
    by_name: dict = {name: [] for name, _ in statements}
    for samples in passes:
        total = 0.0
        for name, elapsed, slot in samples:
            elapsed *= host.speed(slot)
            by_name[name].append(elapsed)
            total += elapsed
        pass_times.append(total)
    return pass_times, by_name


# -- the untraced run: end-to-end metrics ----------------------------------------


def run_untraced(workload: Workload, seed: int, seconds: float, scale: Scale):
    built, build_seconds, _ = repeat_build(
        lambda: workload.build(scale), workload.build_count(scale)
    )
    statements = workload.statements(built)
    verifier = oracle.Verifier(workload.expected(built))
    warm_up(built.db, statements, verifier)
    host = HostSpeed()
    pass_times, by_name = timed_passes(
        built.db, statements, seconds, random.Random(seed), verifier, host
    )
    report = Report(attempted=verifier.attempted, failed=verifier.failed)
    report.put(
        "stmts_per_s",
        len(statements) / median(pass_times),
        f"median of {len(pass_times)} passes of {len(statements)} statements, "
        f"median host speed {host.median():.3f}",
    )
    report.put(
        "stmt_p50_ms",
        typical_latency(by_name) * 1e3,
        f"n={sum(map(len, by_name.values()))}",
    )
    report.put("peak_rss_mb", peak_rss_mb())
    report.put(
        "setup_s", median(build_seconds), f"median of {len(build_seconds)} builds"
    )
    return report


# -- the traced run: per-layer metrics --------------------------------------------


@dataclasses.dataclass
class TracedRun:
    """What the workload-specific diagnostics get to work with."""

    seconds: float
    scale: Scale
    built: builds.Built
    statements: list
    verifier: oracle.Verifier
    #: Plain ``Database.execute`` seconds per statement name, every sample.
    plain_samples: dict

    def plain(self, name: str) -> float:
        return median(self.plain_samples[name])


@dataclasses.dataclass
class Alternation:
    """What :func:`alternate` measured."""

    pipeline: trace.PipelineStats
    tracer: trace.Tracer
    #: Per pass: the plain statements' seconds, the ``execute_plan`` spans'.
    pass_times: list
    execute_per_pass: list
    #: The ``last_stats`` counters summed over the first pass.
    stats: collections.Counter
    host: HostSpeed


def alternate(db, statements, verifier, seconds: float, rng) -> Alternation:
    """Shuffled passes for ``seconds`` in which each statement runs plain
    and traced back to back, so that a burst on the host hits both sides
    alike.  Whichever runs second finds the caches warm (6 % faster at
    ``QUICK`` size), so each statement takes turns over an even number of
    passes."""
    out = Alternation(
        trace.PipelineStats([name for name, _ in statements]),
        trace.Tracer(), [], [], collections.Counter(), HostSpeed(every_s=1.0),
    )
    statement_id = 0
    clock = time.perf_counter
    deadline = clock() + seconds
    index = {name: i for i, (name, _) in enumerate(statements)}
    while clock() < deadline or len(out.pass_times) % 2:
        order = list(statements)
        rng.shuffle(order)
        gc.collect()
        pass_seconds = execute_seconds = 0.0
        outcomes = []
        for name, sql in order:
            out.host.mark()
            statement_id += 1
            rows = traced_rows = None
            try:
                traced_first = (len(out.pass_times) + index[name]) % 2
                for traced in sorted((False, True), reverse=traced_first):
                    if traced:
                        traced_rows, layer = trace.traced_execute(
                            db, sql, out.tracer, statement_id
                        )
                        out.pipeline.add_traced(name, layer)
                        execute_seconds += layer["engine.execute"]
                        continue
                    start = clock()
                    rows = db.execute(sql).rows
                    elapsed = clock() - start
                    out.pipeline.add_plain(name, elapsed)
                    pass_seconds += elapsed
                    if not out.pass_times:
                        last = db.last_stats
                        for counter in STAT_COUNTERS:
                            out.stats[counter] += getattr(last, counter)
            except Exception as exc:
                note_failure(name, exc)
            outcomes += [(name, rows), (name, traced_rows)]
        out.pass_times.append(pass_seconds)
        out.execute_per_pass.append(execute_seconds)
        for name, rows in outcomes:
            verifier.check(name, rows)
    out.host.close()
    return out


def run_traced(
    workload: Workload, seed: int, seconds: float, scale: Scale, names
) -> Report:
    report = Report()
    report.metrics.update(dict.fromkeys(names, 0))

    built = workload.build(scale)
    report.put("workloads.generate_s", built.phases["generate"])
    report.put("storage.load_s", built.phases["load"])
    report.put("semantics.views_s", built.phases["views"])
    db = built.db
    statements = workload.statements(built)
    verifier = oracle.Verifier(workload.expected(built))
    warm_up(db, statements, verifier, limit_s=1.0)

    both = alternate(db, statements, verifier, seconds / 4, random.Random(seed))
    pipeline, stats = both.pipeline, both.stats
    report.metrics.update(pipeline.metrics())

    # Exact work counters of one pass, and scan rate against execute time.
    for counter in ("rows_scanned", "hash_joins", "nested_loop_joins",
                    "subquery_executions"):
        report.put(f"engine.{counter}", stats[counter])
    report.put("core.measure_evaluations", stats["measure_evaluations"])
    for metric, hits, misses in (
        ("engine.subquery_cache_hit_ratio", "subquery_cache_hits",
         "subquery_executions"),
        ("core.measure_cache_hit_ratio", "measure_cache_hits",
         "measure_evaluations"),
    ):
        report.put(metric, ratio(stats[hits], stats[hits] + stats[misses]))
    report.put(
        "engine.rows_per_s",
        ratio(stats["rows_scanned"], median(both.execute_per_pass)),
    )

    # One profiled pass in declaration order: the counts repeat exactly.
    profile_verifier = oracle.Verifier(verifier.expected)
    calls, self_seconds = trace.profile_calls(
        lambda: run_pass(db, statements, profile_verifier)
    )
    verifier.attempted += profile_verifier.attempted
    verifier.failed += profile_verifier.failed
    report.metrics.update(trace.fold_profile(calls, self_seconds))

    workload.diagnostics(
        TracedRun(
            seconds, scale, built, statements, verifier, pipeline.plain
        ),
        report,
    )

    report.put("harness.import_s", import_probe())
    report.put("harness.passes", len(both.pass_times))
    report.put("harness.samples", sum(map(len, pipeline.plain.values())))
    report.put("harness.pass_iqr_ratio", iqr_ratio(both.pass_times))
    report.put("harness.host_speed", both.host.median())
    report.attempted = verifier.attempted
    report.failed = verifier.failed
    both.tracer.dump(ROOT / "bench" / f"spans-{workload.name}.json")
    return report


# -- workload-specific diagnostics ------------------------------------------------


def _checked(run: TracedRun, name: str, thunk, repeats: int) -> float:
    """Median seconds of ``thunk`` (which returns rows for the statement
    called ``name``), every result verified."""
    seconds = []
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        try:
            rows = thunk()
        except Exception as exc:
            note_failure(name, exc)
            rows = None
        seconds.append(time.perf_counter() - start)
        run.verifier.check(name, rows)
    return median(seconds)


def _sweep(run: TracedRun, sql: str) -> float:
    """Log-log slope of one query's time over scale factors sf/2, sf, 2*sf
    (the run's own database is the middle point)."""
    sf = run.scale.sf
    points = []
    for factor, repeats in zip((0.5, 1.0, 2.0), run.scale.sweep_repeats):
        if factor == 1.0:
            db = run.built.db
        else:
            db = builds.build_tpch(sf * factor).db
        db.execute(sql)  # warm, unverified: only the middle point has an oracle
        points.append(median_seconds(lambda: db.execute(sql), repeats))
    return log_log_slope([sf / 2, sf, sf * 2], points)


def _cold_diagnostics(run: TracedRun, report: Report) -> None:
    db = run.built.db
    sql = TPCH_QUERIES["revenue_by_region"]
    report.put("engine.scaling_exponent", _sweep(run, sql))
    # The same numbers without the measure: what the measure machinery adds
    # over a hand-written aggregate on the same view.
    plain_sql = (
        "SELECT region, SUM(extendedprice * (1 - discount)) AS revenue "
        "FROM tpch_sales GROUP BY region ORDER BY region"
    )
    hand = _checked(
        run, "revenue_by_region", lambda: db.execute(plain_sql).rows, 3
    )
    report.put(
        "core.measure_overhead_ratio",
        ratio(run.plain("revenue_by_region"), hand),
    )


def _visible_diagnostics(run: TracedRun, report: Report) -> None:
    db = run.built.db
    name, sql = run.statements[-1]  # excluding MACHINERY: the canonical query
    assert sql == TPCH_QUERIES["visible_orders_by_region"]
    report.put("core.visible_scaling_exponent", _sweep(run, sql))
    without = sql.replace("order_count AT (VISIBLE) AS visibleOrders,", "")
    assert without != sql
    base = median_seconds(lambda: db.execute(without), 3)
    report.put("core.visible_extra_ms", (run.plain(name) - base) * 1e3)
    report.put(
        "core.expand_ms",
        median_seconds(lambda: db.expand(sql, strategy="subquery"), 3) * 1e3,
    )
    expanded = _checked(
        run, name,
        lambda: db.execute_with_strategy(sql, strategy="subquery").rows, 3,
    )
    report.put("core.expanded_execute_ms", expanded * 1e3)
    report.put(
        "core.expanded_vs_interpreter_ratio", ratio(expanded, run.plain(name))
    )


def _listings_diagnostics(run: TracedRun, report: Report) -> None:
    """What each observer costs: alternating passes against the plain
    database, the ratio of the two median statement times."""
    plain_db = run.built.db
    journal = tempfile.NamedTemporaryFile(
        prefix="journal-", suffix=".jsonl", dir=ROOT / "bench", delete=False
    )
    journal.close()
    observers = {
        "telemetry.on_off_ratio": {"telemetry": True},
        "progress.on_off_ratio": {"track_progress": True},
        "profile.on_off_ratio": {"profile": True},
        "history.on_off_ratio": {"record_to": journal.name},
    }
    try:
        for metric, kwargs in observers.items():
            observed = builds.build_listings(**kwargs).db
            warm_up(observed, run.statements, run.verifier)
            off: list = []
            on: list = []
            deadline = time.perf_counter() + run.seconds / 8
            while time.perf_counter() < deadline:
                for side, samples in ((plain_db, off), (observed, on)):
                    samples.extend(
                        elapsed
                        for _, elapsed, _ in run_pass(
                            side, run.statements, run.verifier
                        )
                    )
            report.put(metric, ratio(median(on), median(off)), f"n={len(on)}")
            if observed.recorder is not None:
                observed.recorder.close()
    finally:
        os.unlink(journal.name)
    latencies = [s for values in run.plain_samples.values() for s in values]
    report.put(
        "listings.stmt_p99_ms", percentile(latencies, 0.99) * 1e3,
        f"n={len(latencies)}",
    )


WORKLOADS = {
    "tpch_cold": Workload(
        "tpch_cold", _tpch_build, lambda scale: scale.tpch_builds,
        _cold_statements, _cold_expected, _cold_diagnostics,
    ),
    "tpch_visible": Workload(
        "tpch_visible", _tpch_build, lambda scale: scale.tpch_builds,
        _visible_statements, _visible_expected, _visible_diagnostics,
    ),
    "listings_direct": Workload(
        "listings_direct", _listings_build, lambda scale: scale.listings_builds,
        _listings_statements, _listings_expected, _listings_diagnostics,
    ),
}
