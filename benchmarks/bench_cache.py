"""F02: the context-memoization ablation (paper section 5.1).

The paper's "localized self-join" strategy caches per-context aggregate
results in memory.  ``Database(cache=False)`` disables both the context memo
AND the groupings of the source relation, so every output row re-aggregates
its context from a full source scan — O(groups x source) work; with caching
on, each distinct context costs one lookup and is computed once.  The
counters make the asymptotic difference deterministic; wall clock is
reported by pytest-benchmark.
"""

from __future__ import annotations

import pytest

from repro import Database
from repro.workloads import WorkloadConfig, load_workload

SIZES = [200, 800, 2400]

QUERY = """SELECT prodName, custName, AGGREGATE(rev) AS r,
                  rev AT (ALL custName) AS prodTotal,
                  rev AT (ALL) AS grandTotal
           FROM eo GROUP BY prodName, custName"""


def build(size: int, cache: bool) -> Database:
    db = Database(cache=cache)
    load_workload(db, WorkloadConfig(orders=size, products=10, customers=20))
    db.execute(
        """CREATE VIEW eo AS
           SELECT prodName, custName, SUM(revenue) AS MEASURE rev FROM Orders"""
    )
    return db


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("cache", [True, False], ids=["cache-on", "cache-off"])
def test_f02_cache_series(benchmark, size, cache):
    db = build(size, cache)
    benchmark.group = f"F02 cache n={size}"
    result = benchmark(db.execute, QUERY)
    assert len(result.rows) > 0


def test_f02_cache_collapses_grand_total_to_one_evaluation():
    db = build(800, cache=True)
    result = db.execute(QUERY)
    stats = db.last_stats
    groups = len(result.rows)
    # 3 measure uses x groups requested...
    assert stats.measure_evaluations == 3 * groups
    # ...but the grand total is computed once, the per-product totals once
    # per product, and each group context once.
    products = db.execute("SELECT COUNT(DISTINCT prodName) FROM Orders").scalar()
    expected_distinct = groups + products + 1
    assert stats.measure_evaluations - stats.measure_cache_hits == expected_distinct


def test_f02_without_cache_every_evaluation_is_recomputed():
    hot = build(800, cache=True)
    cold = build(800, cache=False)
    hot.execute(QUERY)
    cold.execute(QUERY)
    # Same number of evaluation *requests*...
    assert cold.last_stats.measure_evaluations == hot.last_stats.measure_evaluations
    # ...but without memoization every one re-filters the source relation
    # (the grand total alone is recomputed once per group).
    assert cold.last_stats.measure_cache_hits == 0
    assert hot.last_stats.measure_cache_hits > 0.5 * hot.last_stats.measure_evaluations


def test_f02_results_identical():
    hot = build(400, cache=True)
    cold = build(400, cache=False)
    assert sorted(hot.execute(QUERY).rows) == sorted(cold.execute(QUERY).rows)
