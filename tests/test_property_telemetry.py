"""Property tests for the telemetry subsystem's accounting invariants.

Three families:

* histogram internals — per-bucket counts always sum to the observation
  count, and the sum field tracks the total of observed values;
* whole-database accounting — across a randomized workload,
  ``queries_total`` equals the number of successful ``execute()`` calls
  and ``errors_total`` the number of failing ones;
* observation purity — a telemetry-enabled Database returns exactly the
  rows a plain one does (extends the ``test_differential_sqlite``
  pattern for an internal differential).
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database, SqlError
from repro.telemetry import MetricsRegistry

# -- histogram invariants -----------------------------------------------------

values_strategy = st.lists(
    st.floats(
        min_value=0.0,
        max_value=1e6,
        allow_nan=False,
        allow_infinity=False,
    ),
    min_size=0,
    max_size=200,
)

buckets_strategy = st.lists(
    st.floats(min_value=0.001, max_value=1e5, allow_nan=False),
    min_size=1,
    max_size=12,
    unique=True,
)


@settings(max_examples=200, deadline=None)
@given(values_strategy, buckets_strategy)
def test_histogram_buckets_sum_to_count(values, buckets):
    reg = MetricsRegistry()
    hist = reg.histogram("h_ms", "H.", buckets=buckets)
    for value in values:
        hist.observe(value)
    counts = hist.bucket_counts()
    assert len(counts) == len(hist.boundaries) + 1
    assert sum(counts) == hist.count() == len(values)
    assert math.isclose(hist.sum_(), sum(values), rel_tol=1e-9, abs_tol=1e-9)


@settings(max_examples=200, deadline=None)
@given(values_strategy, buckets_strategy)
def test_histogram_prometheus_cumulative_is_monotone(values, buckets):
    """The rendered cumulative buckets never decrease, and the +Inf bucket
    equals the count — for every labelset, derived from the same storage
    the non-cumulative invariant holds over."""
    reg = MetricsRegistry()
    hist = reg.histogram("h_ms", "H.", buckets=buckets)
    for value in values:
        hist.observe(value)
    cumulative = 0
    for bucket in hist.bucket_counts():
        assert bucket >= 0
        cumulative += bucket
    assert cumulative == hist.count()
    # The le= placement respects the boundaries: everything observed at or
    # under boundary[i] is inside cumulative bucket i.
    for i, boundary in enumerate(hist.boundaries):
        expected = sum(1 for v in values if v <= boundary)
        assert sum(hist.bucket_counts()[: i + 1]) == expected


# -- whole-database accounting ------------------------------------------------

statement_strategy = st.sampled_from(
    [
        "SELECT k, v FROM t",
        "SELECT g, COUNT(*) FROM t GROUP BY g",
        "SELECT SUM(v) FROM t WHERE k > 1",
        "SELECT DISTINCT g FROM t",
        "INSERT INTO t VALUES (9, 'x', 1, 2)",
        "UPDATE t SET v = v + 1 WHERE k = 0",
        "DELETE FROM t WHERE k = 4",
        "SELECT nope FROM t",          # bind error
        "SELECT FROM WHERE",           # parse error
    ]
)

workload_strategy = st.lists(statement_strategy, min_size=0, max_size=20)

rows_strategy = st.lists(
    st.tuples(
        st.integers(0, 4),
        st.sampled_from(["x", "y", "z"]),
        st.one_of(st.none(), st.integers(-20, 20)),
        st.integers(0, 9),
    ),
    min_size=0,
    max_size=10,
)


def make_db(rows, **kwargs) -> Database:
    db = Database(**kwargs)
    db.create_table_from_rows(
        "t",
        [("k", "INTEGER"), ("g", "VARCHAR"), ("v", "INTEGER"), ("w", "INTEGER")],
        rows,
    )
    return db


@settings(max_examples=100, deadline=None)
@given(rows_strategy, workload_strategy)
def test_queries_total_counts_execute_calls(rows, workload):
    db = make_db(rows, telemetry=True)
    ok = failed = 0
    for sql in workload:
        try:
            db.execute(sql)
            ok += 1
        except SqlError:
            failed += 1
    tele = db.telemetry
    assert tele.queries_total.total() == ok
    assert tele.errors_total.total() == failed
    # Every completed statement observed exactly one duration.
    total_observed = sum(
        tele.query_duration_ms.count(**labels)
        for labels in tele.query_duration_ms.labelsets()
    )
    assert total_observed == ok
    # Every bucketed histogram series individually sums to its count.
    for labels in tele.query_duration_ms.labelsets():
        counts = tele.query_duration_ms.bucket_counts(**labels)
        assert sum(counts) == tele.query_duration_ms.count(**labels)


introspection_strategy = st.sampled_from(
    [
        "SELECT * FROM repro_stat_statements",
        "SELECT fingerprint, calls FROM repro_stat_statements WHERE calls > 0",
        "SELECT * FROM repro_metrics",
        "SELECT metric, value FROM repro_metrics WHERE value > 1",
        "SELECT * FROM repro_statements WHERE old_plan_hash IS NOT NULL",
        "SELECT name, kind FROM repro_tables",
        "SELECT COUNT(*) FROM repro_events",
    ]
)


@settings(max_examples=100, deadline=None)
@given(
    rows_strategy,
    st.lists(
        st.one_of(statement_strategy, introspection_strategy),
        min_size=0,
        max_size=20,
    ),
)
def test_introspection_reads_never_count_as_queries(rows, workload):
    """A query that scans only system tables is accounted under
    ``introspection_queries_total``; ``queries_total`` is reserved for
    user statements, so watching the database never perturbs the very
    statistics being watched."""
    db = make_db(rows, telemetry=True)
    user_ok = introspection_ok = failed = 0
    for sql in workload:
        is_introspection = "repro_" in sql
        try:
            db.execute(sql)
        except SqlError:
            failed += 1
        else:
            if is_introspection:
                introspection_ok += 1
            else:
                user_ok += 1
    tele = db.telemetry
    assert tele.queries_total.total() == user_ok
    assert tele.introspection_queries_total.total() == introspection_ok
    assert tele.errors_total.total() == failed
    # Introspection reads never acquire a fingerprint entry either: the
    # stats table only describes user statements.
    for entry in db.stat_statements():
        assert "repro_" not in entry["query"]


@settings(max_examples=100, deadline=None)
@given(rows_strategy, workload_strategy)
def test_stat_statements_consistent_with_metrics(rows, workload):
    """Differential: the per-fingerprint statistics and the cumulative
    metrics meter the same executions, so their aggregates must agree.

    Every successful statement is one ``calls`` in exactly one stats row
    and one ``queries_total`` increment; both feeds record the same
    duration sample; errors attributed to a fingerprint (bind/execution)
    are a subset of ``errors_total`` (parse errors have no statement to
    fingerprint)."""
    db = make_db(rows, telemetry=True)
    for sql in workload:
        try:
            db.execute(sql)
        except SqlError:
            pass
    metrics = db.metrics()
    entries = db.stat_statements()

    def counter_total(name: str) -> float:
        return sum(s["value"] for s in metrics[name]["series"])

    assert sum(e["calls"] for e in entries) == counter_total("queries_total")
    assert sum(e["errors"] for e in entries) <= counter_total("errors_total")

    stats_ms = sum(e["total_wall_ms"] for e in entries)
    histogram_ms = sum(
        s["sum"] for s in metrics["query_duration_ms"]["series"]
    )
    assert math.isclose(stats_ms, histogram_ms, rel_tol=1e-9, abs_tol=1e-9)

    # Row-returning queries feed rows_returned_total; DML rowcounts are
    # accounted only in the stats (strategy "none" entries).
    query_rows = sum(
        e["rows_returned"] for e in entries if e["strategy"] != "none"
    )
    assert query_rows == counter_total("rows_returned_total")

    for e in entries:
        if e["calls"]:
            assert math.isclose(
                e["mean_wall_ms"] * e["calls"],
                e["total_wall_ms"],
                rel_tol=1e-9,
                abs_tol=1e-9,
            )
            assert e["min_wall_ms"] - 1e-9 <= e["mean_wall_ms"]
            assert e["mean_wall_ms"] <= e["max_wall_ms"] + 1e-9
        else:
            # Error-only entries: seen, never successfully executed.
            assert e["errors"] > 0
            assert e["total_wall_ms"] == 0.0


@settings(max_examples=100, deadline=None)
@given(rows_strategy, workload_strategy)
def test_telemetry_on_off_identical_results(rows, workload):
    plain = make_db(rows)
    observed = make_db(rows, telemetry=True)
    for sql in workload:
        plain_rows = plain_error = None
        try:
            plain_rows = plain.execute(sql).rows
        except SqlError as exc:
            plain_error = type(exc).__name__
        observed_rows = observed_error = None
        try:
            observed_rows = observed.execute(sql).rows
        except SqlError as exc:
            observed_error = type(exc).__name__
        assert observed_rows == plain_rows
        assert observed_error == plain_error
