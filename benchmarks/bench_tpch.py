"""F08: the TPC-H measure workload — cold vs matview-hit vs plan-cache-hot.

Every canonical drill-down from :data:`repro.workloads.tpch.TPCH_QUERIES`
is timed three ways:

* **cold** — no summary tables: the measure expands and aggregates over the
  full lineitem/orders join every time;
* **matview-hit** — the canonical summaries exist, so the subsumption
  rewriter answers roll-up queries from a handful of pre-aggregated rows;
* **plan-cache-hot** — the (summary-hit) plan is built once with
  ``Database.plan_query`` and replayed with ``execute_planned``, the query
  server's cache-hit path, so parse/rewrite/bind/optimize cost disappears.

This is the fixed harness later perf PRs (columnar executor, cost-based
strategy chooser) are judged against: the ROADMAP's bench trajectory at
hundred-thousand-row inputs.  ``benchmarks/report.py --snapshot`` embeds
:func:`measure_tpch` at SF 0.01 as the snapshot's ``tpch`` section.

Run standalone for a smoke check (used by CI)::

    python -m benchmarks.bench_tpch --quick
"""

from __future__ import annotations

import sys
import time

import pytest

from repro import Database
from repro.sql import ast, parse_statement
from repro.workloads.tpch import (
    TPCH_QUERIES,
    table_cardinalities,
    tpch_measure_database,
)

#: Queries the summary tables can answer (the matview-hit series).
SUMMARY_QUERIES = (
    "revenue_by_region",
    "revenue_by_region_year",
    "margin_by_returnflag",
    "orders_by_year",
)

#: AT drill-downs (never summary hits; they time measure expansion).
DRILLDOWN_QUERIES = (
    "revenue_share_by_region",
    "revenue_yoy_by_year",
    "visible_orders_by_region",
)

#: The scale the pytest-benchmark series runs at everywhere; 0.05 is the
#: opt-in slow tier (CI runs it in a separate non-blocking job).
FAST_SF = 0.001
SLOW_SF = 0.05

#: What the SF 0.01 snapshot times.  visible_orders_by_region is excluded
#: on purpose, not silently: the committed baseline was taken when its
#: interpreter path was quadratic in orders (seconds at SF 0.01) and has no
#: entry for it.  The interpreter now runs it in ~0.1 s there (VISIBLE is a
#: hash semijoin; tests/test_differential_tpch.py checks it at SF 0.01) —
#: only its subquery *expansion* is still quadratic — so it can rejoin the
#: set when this gate's baseline is replaced (ROADMAP, first item).  It is
#: timed at SF 0.001 in the pytest drill-down series above.
SNAPSHOT_QUERY_NAMES = tuple(
    name for name in TPCH_QUERIES if name != "visible_orders_by_region"
)


def build(sf: float, *, summaries: bool) -> Database:
    return tpch_measure_database(sf, summaries=summaries)


def _parse_query(sql: str) -> ast.Query:
    statement = parse_statement(sql)
    assert isinstance(statement, ast.QueryStatement)
    return statement.query


def _best_of(thunk, repeats: int) -> float:
    best = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        thunk()
        best = min(best, time.perf_counter() - start)
    return best


def measure_tpch(
    sf: float = 0.01, *, repeats: int = 3, queries=None
) -> dict:
    """Time the canonical queries at ``sf``; the snapshot's ``tpch`` section.

    Returns::

        {"sf": ..., "cardinalities": {table: rows},
         "queries": {name: {"rows": n, "cold_ms": ..., "matview_hit_ms": ...,
                            "plan_cache_hot_ms": ...}}}

    ``matview_hit_ms``/``plan_cache_hot_ms`` are only present for queries
    the summaries can answer (AT drill-downs never hit a summary).
    """
    names = list(queries) if queries is not None else list(TPCH_QUERIES)
    cold_db = build(sf, summaries=False)
    hot_db = build(sf, summaries=True)
    out: dict = {
        "sf": sf,
        "cardinalities": table_cardinalities(sf),
        "queries": {},
    }
    for name in names:
        sql = TPCH_QUERIES[name]
        entry: dict = {"rows": len(cold_db.execute(sql).rows)}
        entry["cold_ms"] = round(
            _best_of(lambda: cold_db.execute(sql), repeats) * 1000.0, 3
        )
        if name in SUMMARY_QUERIES:
            entry["matview_hit_ms"] = round(
                _best_of(lambda: hot_db.execute(sql), repeats) * 1000.0, 3
            )
            planned = hot_db.plan_query(_parse_query(sql), sql=sql)
            entry["plan_cache_hot_ms"] = round(
                _best_of(lambda: hot_db.execute_planned(planned), repeats)
                * 1000.0,
                3,
            )
        out["queries"][name] = entry
    return out


# -- pytest-benchmark series --------------------------------------------------


@pytest.fixture(scope="module")
def cold_db() -> Database:
    return build(FAST_SF, summaries=False)


@pytest.fixture(scope="module")
def hot_db() -> Database:
    return build(FAST_SF, summaries=True)


@pytest.mark.parametrize("name", SUMMARY_QUERIES)
def test_f08_tpch_cold(benchmark, cold_db, name):
    benchmark.group = f"F08 tpch sf={FAST_SF} {name}"
    result = benchmark(cold_db.execute, TPCH_QUERIES[name])
    assert result.rows


@pytest.mark.parametrize("name", SUMMARY_QUERIES)
def test_f08_tpch_matview_hit(benchmark, hot_db, name):
    benchmark.group = f"F08 tpch sf={FAST_SF} {name}"
    result = benchmark(hot_db.execute, TPCH_QUERIES[name])
    assert result.rows


@pytest.mark.parametrize("name", SUMMARY_QUERIES)
def test_f08_tpch_plan_cache_hot(benchmark, hot_db, name):
    planned = hot_db.plan_query(_parse_query(TPCH_QUERIES[name]))
    benchmark.group = f"F08 tpch sf={FAST_SF} {name}"
    result, _ = benchmark(hot_db.execute_planned, planned)
    assert result.rows


@pytest.mark.parametrize("name", DRILLDOWN_QUERIES)
def test_f08_tpch_drilldown(benchmark, cold_db, name):
    benchmark.group = f"F08 tpch sf={FAST_SF} drilldowns"
    result = benchmark(cold_db.execute, TPCH_QUERIES[name])
    assert result.rows


@pytest.mark.slow
@pytest.mark.parametrize("name", SUMMARY_QUERIES)
@pytest.mark.parametrize(
    "summaries", [False, True], ids=["cold", "matview-hit"]
)
def test_f08_tpch_slow_tier(benchmark, name, summaries):
    """The SF 0.05 series: opt-in via ``-m slow`` (non-blocking CI job)."""
    db = build(SLOW_SF, summaries=summaries)
    benchmark.group = f"F08 tpch sf={SLOW_SF} {name}"
    result = benchmark.pedantic(
        db.execute, args=(TPCH_QUERIES[name],), rounds=2, iterations=1
    )
    assert result.rows


def test_f08_matview_hit_is_provable():
    """EXPLAIN must show the summary: hit line for the roll-up query."""
    db = build(FAST_SF, summaries=True)
    lines = [
        row[0]
        for row in db.execute(
            "EXPLAIN " + TPCH_QUERIES["revenue_by_region"]
        ).rows
    ]
    assert any(
        line.startswith("summary: answered from materialized view")
        for line in lines
    ), lines


def test_f08_hit_equals_cold_at_money_precision():
    cold = build(FAST_SF, summaries=False)
    hot = build(FAST_SF, summaries=True)
    for name in SUMMARY_QUERIES:
        a = cold.execute(TPCH_QUERIES[name]).rows
        b = hot.execute(TPCH_QUERIES[name]).rows
        assert len(a) == len(b)
        for ra, rb in zip(a, b):
            for va, vb in zip(ra, rb):
                if isinstance(va, float):
                    # Partial-sum roll-ups re-associate float addition; money
                    # agreement to the cent is the correctness bar.
                    assert vb == pytest.approx(va, rel=1e-9, abs=0.01)
                else:
                    assert va == vb


# -- standalone smoke (CI) ----------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    quick = "--quick" in argv
    sf = FAST_SF if quick else 0.01
    repeats = 2 if quick else 3

    report = measure_tpch(
        sf, repeats=repeats, queries=None if quick else SNAPSHOT_QUERY_NAMES
    )
    failures = []
    print(f"F08 tpch sf={sf} (best of {repeats}):")
    for name, entry in report["queries"].items():
        cold = entry["cold_ms"]
        hit = entry.get("matview_hit_ms")
        hot = entry.get("plan_cache_hot_ms")
        line = f"  {name}: cold {cold:.2f} ms"
        if hit is not None:
            line += f", matview-hit {hit:.2f} ms, plan-cache-hot {hot:.2f} ms"
            if hit >= cold:
                failures.append(f"{name}: matview hit ({hit}ms) not faster than cold ({cold}ms)")
            if hot > hit * 1.5 + 1.0:
                failures.append(f"{name}: planned replay ({hot}ms) slower than full execute ({hit}ms)")
        print(line + f"  [{entry['rows']} rows]")
    hot_db = build(sf, summaries=True)
    for name in SUMMARY_QUERIES:
        hot_db.execute(TPCH_QUERIES[name])
    stats = hot_db.summary_stats()
    if not any(view["hits"] for view in stats.values()):
        failures.append("no summary hits recorded across the canonical queries")
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
