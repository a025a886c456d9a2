"""F01 / A01: performance of the four Listing-12 formulations vs data size.

The paper's section 5.1 claims the formulations are equivalent and that the
formulations touching the input once (window aggregates, measures with the
"localized self-join" cache) beat naive repeated evaluation.  We regenerate
that comparison as a series over workload sizes: the measure interpreter
(cached), the three classic formulations, plus the expanded-SQL strategies.

"Who wins" is asserted through deterministic work counters (subquery
executions, measure evaluations), not wall-clock, so the suite is stable;
pytest-benchmark reports the wall-clock series alongside.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import workload_db

SIZES = [200, 1000, 4000]

FORMULATIONS = {
    "q1-correlated-subquery": """
        SELECT o.prodName, o.orderDate FROM Orders AS o
        WHERE o.revenue > (SELECT AVG(revenue) FROM Orders AS o1
                           WHERE o1.prodName = o.prodName)""",
    "q2-self-join": """
        SELECT o.prodName, o.orderDate FROM Orders AS o
        LEFT JOIN (SELECT prodName, AVG(revenue) AS avgRevenue
                   FROM Orders GROUP BY prodName) AS o2
          ON o.prodName = o2.prodName
        WHERE o.revenue > o2.avgRevenue""",
    "q3-window-aggregate": """
        SELECT o.prodName, o.orderDate FROM
          (SELECT prodName, revenue, orderDate,
                  AVG(revenue) OVER (PARTITION BY prodName) AS avgRevenue
           FROM Orders) AS o
        WHERE o.revenue > o.avgRevenue""",
    "q4-measures": """
        SELECT o.prodName, o.orderDate FROM
          (SELECT prodName, orderDate, revenue,
                  AVG(revenue) AS MEASURE avgRevenue FROM Orders) AS o
        WHERE o.revenue > o.avgRevenue AT (WHERE prodName = o.prodName)""",
}


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("variant", list(FORMULATIONS))
def test_f01_formulations(benchmark, variant, size):
    db = workload_db(size)
    benchmark.group = f"F01 listing12 n={size}"
    result = benchmark(db.execute, FORMULATIONS[variant])
    assert len(result.rows) > 0


def test_f01_all_formulations_agree():
    db = workload_db(1000)
    results = {
        name: sorted(db.execute(sql).rows) for name, sql in FORMULATIONS.items()
    }
    baseline = results["q1-correlated-subquery"]
    assert all(rows == baseline for rows in results.values())


def test_f01_measures_touch_input_once_per_group():
    """The measures formulation evaluates one aggregate per product, not per
    row — the paper's 'localized self-join' win over naive evaluation."""
    db = workload_db(1000)
    db.execute(FORMULATIONS["q4-measures"])
    stats = db.last_stats
    products = db.execute("SELECT COUNT(DISTINCT prodName) FROM Orders").scalar()
    orders = db.execute("SELECT COUNT(*) FROM Orders").scalar()
    assert stats.measure_evaluations == orders  # one *request* per row...
    # ...but only one *computation* per product: the rest are cache hits.
    assert stats.measure_evaluations - stats.measure_cache_hits == products


EXPANSION_STRATEGIES = ["interpret", "subquery", "window"]


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("strategy", EXPANSION_STRATEGIES)
def test_a01_strategy_execution(benchmark, strategy, size):
    """A01 ablation: the same measure query under each evaluation strategy."""
    db = workload_db(size)
    sql = FORMULATIONS["q4-measures"]
    benchmark.group = f"A01 strategy n={size}"
    if strategy == "interpret":
        result = benchmark(db.execute, sql)
    else:
        rewritten = db.expand(sql, strategy=strategy)
        result = benchmark(db.execute, rewritten)
    assert len(result.rows) > 0


@pytest.mark.parametrize("size", [1000])
@pytest.mark.parametrize("strategy", ["inline", "subquery"])
def test_a01_aggregate_site_strategies(benchmark, strategy, size):
    """Inline vs general expansion for the simple GROUP BY shape."""
    db = workload_db(size)
    sql = """SELECT prodName, AGGREGATE(margin) AS m FROM eo
             GROUP BY prodName ORDER BY prodName"""
    rewritten = db.expand(sql, strategy=strategy)
    benchmark.group = f"A01 aggregate-site n={size}"
    result = benchmark(db.execute, rewritten)
    assert len(result.rows) == 20


@pytest.mark.parametrize("size", [1000])
def test_a01_winmagic_rewrite(benchmark, size):
    """The classic WinMagic rewrite (section 5.1): the window strategy
    prints q1's correlated subquery as q3's window aggregate, eliminating
    the second pass."""
    db = workload_db(size)
    rewritten = db.expand(FORMULATIONS["q1-correlated-subquery"], strategy="window")
    benchmark.group = f"A01 strategy n={size}"
    result = benchmark(db.execute, rewritten)
    original = db.execute(FORMULATIONS["q1-correlated-subquery"]).rows
    assert sorted(result.rows) == sorted(original)


def test_a01_strategies_agree_on_workload():
    db = workload_db(1000)
    sql = FORMULATIONS["q4-measures"]
    interpreted = sorted(db.execute(sql).rows)
    for strategy in ("subquery", "window"):
        rewritten = db.expand(sql, strategy=strategy)
        assert sorted(db.execute(rewritten).rows) == interpreted


def test_a01_inline_beats_subquery_in_scans():
    """The inline rewrite scans Orders once; the general expansion runs one
    (cached) subquery per group on top of the outer scan."""
    db = workload_db(1000)
    sql = "SELECT prodName, AGGREGATE(rev) AS r FROM eo GROUP BY prodName"

    inline = db.expand(sql, strategy="inline")
    db.execute(inline)
    inline_scans = db.last_stats.rows_scanned

    subquery = db.expand(sql, strategy="subquery")
    db.execute(subquery)
    subquery_scans = db.last_stats.rows_scanned

    assert inline_scans < subquery_scans
