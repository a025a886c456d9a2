"""Optimizer rules: constant folding, filter merge/pushdown, identity
projects — and that optimization never changes results."""

from __future__ import annotations

import pytest

from repro import Database
from repro.engine.evaluator import ExecutionContext
from repro.engine.executor import execute_plan
from repro.plan import logical as plans
from repro.plan.optimizer import optimize
from repro.semantics.binder import Binder
from repro.sql import parse_query
from repro.workloads.paper_data import load_paper_tables


@pytest.fixture
def pdb(db: Database) -> Database:
    load_paper_tables(db)
    return db


def plan_of(db: Database, sql: str) -> plans.LogicalPlan:
    binder = Binder(db.catalog)
    plan, _ = binder.bind_query_top(parse_query(sql))
    return plan


def join_sides(plan: plans.LogicalPlan) -> list[plans.LogicalPlan]:
    """The two inputs of the plan's one join, which column pruning turned
    into a one-step JoinPipeline (it reads its inputs' stored rows by offset,
    so no narrowing Project sits over them)."""
    (pipeline,) = [p for p in plan.walk() if isinstance(p, plans.JoinPipeline)]
    assert not any(isinstance(p, plans.Join) for p in plan.walk())
    return pipeline.inputs()


def run(db: Database, plan: plans.LogicalPlan) -> list[tuple]:
    return execute_plan(plan, ExecutionContext(db.catalog))


def test_constant_folding_in_projection(pdb):
    plan = optimize(plan_of(pdb, "SELECT 1 + 2 * 3 FROM Orders"))
    project = next(p for p in plan.walk() if isinstance(p, plans.Project))
    from repro.semantics.bound import BoundLiteral

    assert isinstance(project.exprs[0], BoundLiteral)
    assert project.exprs[0].value == 7


def test_true_filter_eliminated(pdb):
    plan = optimize(plan_of(pdb, "SELECT prodName FROM Orders WHERE 1 = 1"))
    assert not any(isinstance(p, plans.Filter) for p in plan.walk())


def test_filters_merged(pdb):
    """Nested filtered subqueries collapse into a single Filter."""
    sql = """SELECT prodName FROM
             (SELECT * FROM (SELECT * FROM Orders WHERE revenue > 3)
              WHERE cost > 1)
             WHERE prodName <> 'Acme'"""
    plan = optimize(plan_of(pdb, sql))
    filters = [p for p in plan.walk() if isinstance(p, plans.Filter)]
    assert len(filters) == 1


def test_filter_pushed_into_join_sides(pdb):
    sql = """SELECT 1 FROM Orders AS o JOIN Customers AS c
             ON o.custName = c.custName
             WHERE o.revenue > 3 AND c.custAge > 20"""
    plan = optimize(plan_of(pdb, sql))
    left, right = join_sides(plan)
    assert isinstance(left, plans.Filter)
    assert isinstance(right, plans.Filter)


def test_cross_side_predicate_stays_above_join(pdb):
    sql = """SELECT 1 FROM Orders AS o JOIN Customers AS c
             ON o.custName = c.custName
             WHERE o.revenue > c.custAge"""
    plan = optimize(plan_of(pdb, sql))
    left, right = join_sides(plan)
    assert not isinstance(left, plans.Filter)
    assert not isinstance(right, plans.Filter)


def test_outer_join_filter_not_pushed(pdb):
    sql = """SELECT 1 FROM Orders AS o LEFT JOIN Customers AS c
             ON o.custName = c.custName
             WHERE o.revenue > 3"""
    plan = optimize(plan_of(pdb, sql))
    assert not isinstance(join_sides(plan)[0], plans.Filter)


QUERIES = [
    "SELECT prodName, SUM(revenue) FROM Orders WHERE cost > 1 GROUP BY prodName ORDER BY prodName",
    """SELECT o.prodName, c.custAge FROM Orders AS o JOIN Customers AS c
       ON o.custName = c.custName WHERE o.revenue > 2 AND c.custAge > 18
       ORDER BY 1, 2""",
    "SELECT prodName FROM Orders WHERE 2 > 1 AND revenue > 3 ORDER BY prodName",
    """SELECT prodName, SUM(revenue) FROM Orders GROUP BY ROLLUP(prodName)
       ORDER BY prodName NULLS LAST""",
    """SELECT prodName, r FROM
       (SELECT prodName, SUM(revenue) AS MEASURE r FROM Orders)
       GROUP BY prodName ORDER BY prodName""",
]


@pytest.mark.parametrize("sql", QUERIES)
def test_optimizer_preserves_results(pdb, sql):
    raw = plan_of(pdb, sql)
    optimized = optimize(plan_of(pdb, sql))
    assert run(pdb, optimized) == run(pdb, raw)


def test_database_optimizer_flag(pdb):
    hot = pdb.execute(QUERIES[0]).rows
    cold_db = Database(optimizer=False)
    load_paper_tables(cold_db)
    assert cold_db.execute(QUERIES[0]).rows == hot


def test_pushdown_reduces_join_work(pdb):
    """With pushdown, fewer combined rows are tested by the join."""
    sql = """SELECT 1 FROM Orders AS o JOIN Customers AS c
             ON o.custName = c.custName WHERE o.revenue > 6"""
    raw = plan_of(pdb, sql)
    opt = optimize(plan_of(pdb, sql))
    # Both return one row (revenue 7 > 6), but the optimized join scans a
    # pre-filtered left input.
    assert run(pdb, raw) == run(pdb, opt)
    assert isinstance(join_sides(opt)[0], plans.Filter)


def _deep_join_sql(levels: int) -> str:
    """A left-deep join chain with a top-level filter on the deepest table.

    Filter pushdown moves the predicate one join level per optimizer pass,
    so ``levels`` joins need roughly ``levels`` passes to converge — well
    past the old hard-coded 5-iteration cutoff.
    """
    joins = " ".join(
        f"JOIN Customers AS c{i} ON o.custName = c{i}.custName"
        for i in range(levels)
    )
    return f"SELECT 1 FROM Orders AS o {joins} WHERE o.revenue > 6"


def test_fixpoint_reached_on_deep_join_chains(pdb):
    """optimize() used to stop silently after 5 passes, leaving the filter
    stranded mid-chain; it must now iterate to an actual fixpoint."""
    from repro.plan.optimizer import _rewrite

    sql = _deep_join_sql(8)
    optimized = optimize(plan_of(pdb, sql))
    _, changed = _rewrite(optimized)
    assert not changed, "optimize() returned before reaching a fixpoint"
    # The pushed-down filter sits directly on the Orders scan.
    scans = [p for p in optimized.walk() if isinstance(p, plans.Scan)]
    assert scans, "expected Scan nodes"
    assert run(pdb, optimized) == run(pdb, plan_of(pdb, sql))


def test_fixpoint_cap_raises_internal_error(pdb, monkeypatch):
    from repro import InternalError
    from repro.plan import optimizer as opt_module

    monkeypatch.setattr(opt_module, "MAX_PASSES", 1)
    with pytest.raises(InternalError):
        optimize(plan_of(pdb, _deep_join_sql(8)))


def test_fixpoint_with_case_expressions(pdb):
    """CASE predicates used to be rebuilt (identically) every pass because
    tuple-valued WHEN arms lost node identity in transform_expr, so the loop
    never observed convergence."""
    sql = """SELECT CASE prodName WHEN 'Acme' THEN 'a' ELSE 'b' END
             FROM Orders WHERE revenue = 5"""
    optimized = optimize(plan_of(pdb, sql))
    from repro.plan.optimizer import _rewrite

    _, changed = _rewrite(optimized)
    assert not changed
    assert run(pdb, optimized) == run(pdb, plan_of(pdb, sql))
