"""A02: optimizer-rule ablation.

Runs representative queries with the rule-based optimizer on and off.
Effectiveness is asserted via rows-scanned / combined-rows work counters
(deterministic); wall clock is reported by pytest-benchmark.
"""

from __future__ import annotations

import pytest

from repro import Database
from repro.workloads import WorkloadConfig, load_workload

QUERIES = {
    "selective-join": """
        SELECT o.prodName, c.region FROM Orders AS o
        JOIN Customers AS c ON o.custName = c.custName
        WHERE o.revenue > 400 AND c.region = 'north'""",
    "stacked-filters": """
        SELECT prodName FROM
        (SELECT * FROM (SELECT * FROM Orders WHERE revenue > 100)
         WHERE cost > 50)
        WHERE prodName <> 'Happy'""",
    "constant-heavy": """
        SELECT prodName, revenue * (10 * 10) + (7 - 7) FROM Orders
        WHERE 1 = 1 AND revenue > 2 * 100""",
}


def build(optimizer: bool) -> Database:
    db = Database(optimizer=optimizer)
    load_workload(db, WorkloadConfig(orders=2000, products=20, customers=50))
    return db


@pytest.fixture(scope="module")
def dbs():
    return {True: build(True), False: build(False)}


@pytest.mark.parametrize("optimizer", [True, False], ids=["opt-on", "opt-off"])
@pytest.mark.parametrize("name", list(QUERIES))
def test_a02_optimizer(benchmark, dbs, name, optimizer):
    db = dbs[optimizer]
    benchmark.group = f"A02 {name}"
    result = benchmark(db.execute, QUERIES[name])
    assert result.rowcount == dbs[not optimizer].execute(QUERIES[name]).rowcount


def test_a02_pushdown_reduces_join_candidates(benchmark, dbs):
    """With pushdown, the nested-loop join sees pre-filtered inputs; the
    scan counters do not change, but the join work (and time) does.  We
    assert through timing-independent plan structure."""
    from repro.plan import logical as plans
    from repro.plan.optimizer import optimize
    from repro.semantics.binder import Binder
    from repro.sql import parse_query

    db = dbs[True]
    binder = Binder(db.catalog)
    plan, _ = binder.bind_query_top(parse_query(QUERIES["selective-join"]))
    optimized = optimize(plan)
    join = next(p for p in optimized.walk() if isinstance(p, plans.JoinPipeline))
    # The equi-join is a one-step pipeline over the pushed-down Filter (it
    # reads stored rows by offset, so no narrowing Project sits in between).
    assert any(isinstance(side, plans.Filter) for side in join.inputs())
    result = benchmark(db.execute, QUERIES["selective-join"])
    assert result is not None
