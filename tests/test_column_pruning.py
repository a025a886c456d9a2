"""A measure's source relation runs once per statement, at the width the
statement reads (``repro.plan.pruning`` + the executor's shared slot).

Results never depend on it: everything here that compares rows runs the same
statement on a database with the optimizer on and on one with it off
(``Database(optimizer=False)`` skips pruning like every other rule, and
still shares — sharing is the executor's).
"""

from __future__ import annotations

import pytest

from repro import Database
from repro.analysis.validator import check_plan
from repro.engine.evaluator import ExecutionContext
from repro.engine.executor import execute_plan
from repro.errors import UnsupportedError, ValidationError
from repro.plan import logical as plans
from repro.plan.optimizer import optimize
from repro.semantics import bound as b
from repro.semantics.binder import Binder
from repro.sql import parse_query
from repro.types import INTEGER
from repro.workloads.listings import SETUP, all_listing_sql
from repro.workloads.paper_data import load_paper_tables
from repro.workloads.tpch import (
    TPCH_QUERIES,
    table_cardinalities,
    tpch_measure_database,
)

SF = 0.001


def listing_database(**kwargs) -> Database:
    db = Database(**kwargs)
    load_paper_tables(db)
    for ddl in SETUP.values():
        db.execute(ddl)
    return db


#: Views whose source relation *is* a join (the dimension Project is the
#: identity and is dropped), so a rule firing above it takes it apart.
JOIN_VIEWS = [
    """CREATE VIEW nations_m AS
       SELECT *, COUNT(*) AS MEASURE cnt, SUM(n_nationkey) AS MEASURE keys
       FROM nation AS n JOIN region AS r ON n.n_regionkey = r.r_regionkey""",
    """CREATE VIEW regions_m AS
       SELECT *, COUNT(*) AS MEASURE cnt
       FROM region AS r LEFT JOIN nation AS n
         ON n.n_regionkey = r.r_regionkey AND n.n_nationkey > 20""",
]


@pytest.fixture(scope="module")
def tpch_pair():
    pair = tpch_measure_database(SF), tpch_measure_database(SF, optimizer=False)
    for db in pair:
        for ddl in JOIN_VIEWS:
            db.execute(ddl)
    return pair


@pytest.fixture(scope="module")
def listing_pair():
    return listing_database(), listing_database(optimizer=False)


def planned(db: Database, sql: str) -> plans.LogicalPlan:
    plan, _ = Binder(db.catalog).bind_query_top(parse_query(sql))
    return optimize(plan, validate=True)


# -- (a) optimizer on == optimizer off -----------------------------------------


@pytest.mark.parametrize("name", sorted(all_listing_sql(listing_database())))
def test_listings_both_ways(listing_pair, name):
    hot, cold = listing_pair
    sql = all_listing_sql(hot)[name]
    assert hot.execute(sql).rows == cold.execute(sql).rows


@pytest.mark.parametrize("name", sorted(TPCH_QUERIES))
def test_tpch_queries_both_ways(tpch_pair, name):
    hot, cold = tpch_pair
    assert hot.execute(TPCH_QUERIES[name]).rows == cold.execute(TPCH_QUERIES[name]).rows


@pytest.mark.parametrize(
    "strategy, at_least",
    [("subquery", 15), ("inline", 2), ("window", 2), ("auto", 15)],
)
def test_expansion_strategies_both_ways(listing_pair, tpch_pair, strategy, at_least):
    """The expanded SQL is all joins, derived tables and correlated
    subqueries: the shapes the pass narrows or has to stop at."""
    ran = 0
    for (hot, cold), queries in (
        (listing_pair, all_listing_sql().values()),
        (tpch_pair, TPCH_QUERIES.values()),
    ):
        for sql in queries:
            try:
                expected = cold.execute_with_strategy(sql, strategy=strategy).rows
            except UnsupportedError:
                continue  # not a shape this strategy expands
            assert hot.execute_with_strategy(sql, strategy=strategy).rows == expected
            ran += 1
    assert ran >= at_least


SHAPES = {
    "rollup": """
        SELECT region, orderYear, revenue, GROUPING(region) AS g
        FROM tpch_sales_m GROUP BY ROLLUP(region, orderYear)
        ORDER BY region NULLS LAST, orderYear NULLS LAST""",
    "grouping sets": """
        SELECT region, returnflag, total_qty, avg_discount
        FROM tpch_sales_m GROUP BY GROUPING SETS ((region), (returnflag), ())
        ORDER BY region NULLS LAST, returnflag NULLS LAST""",
    "at where": """
        SELECT nation, revenue AT (WHERE region = 'ASIA' AND shipmode <> 'AIR') AS r
        FROM tpch_sales_m GROUP BY nation ORDER BY nation""",
    "at where, correlated": """
        SELECT r.r_name, (SELECT AGGREGATE(revenue) AT (WHERE region = r.r_name)
                          FROM tpch_sales_m) AS revenue
        FROM region AS r ORDER BY r.r_name""",
    "visible over a join": """
        SELECT n.n_name, AGGREGATE(s.revenue) AS visible, s.revenue AS everything
        FROM tpch_sales_m AS s JOIN nation AS n ON s.nation = n.n_name
        WHERE s.shipmode = 'AIR' AND n.n_regionkey < 3
        GROUP BY n.n_name ORDER BY n.n_name""",
    # Inherited contexts: the inner measure's rows are matched against the
    # outer measure's filtered rows (a set lookup per candidate).
    "measure over a measure": """
        SELECT region, spread, spread AT (ALL region) AS overall
        FROM (SELECT region, nation, AGGREGATE(n) * 1.0 / COUNT(*) AS MEASURE spread
              FROM (SELECT r.r_name AS region, n.n_name AS nation,
                           n.n_comment AS note, COUNT(*) AS MEASURE n
                    FROM nation AS n JOIN region AS r
                      ON n.n_regionkey = r.r_regionkey))
        GROUP BY region ORDER BY region""",
    "re-export through a filter": """
        SELECT region, revenue, revenue AT (ALL region) AS total
        FROM (SELECT region, revenue FROM tpch_sales_m WHERE returnflag = 'R')
        GROUP BY region ORDER BY region""",
    "select star": "SELECT * FROM tpch_orders_m WHERE nation = 'FRANCE' ORDER BY 1, 2, 3, 4, 5",
    "row grain": """
        SELECT DISTINCT region, order_count AT (ALL nation, mktsegment, orderpriority, orderYear)
        FROM tpch_orders_m ORDER BY region""",
    "set current": TPCH_QUERIES["revenue_yoy_by_year"],
    "window over a measure": """
        SELECT region, revenue, RANK() OVER (ORDER BY revenue DESC) AS rk
        FROM tpch_sales_m GROUP BY region ORDER BY rk""",
    # The pushed filter makes the tree's FROM a join of its own; it and the
    # measure's source now hold the same condition object, cut differently.
    "filter pushed into the source join": """
        SELECT r_name, cnt, keys, AGGREGATE(cnt) AS visible
        FROM nations_m WHERE n_nationkey < 10 GROUP BY r_name ORDER BY r_name""",
    "outer join strengthened above the source": """
        SELECT r_name, cnt, AGGREGATE(cnt) AS visible
        FROM regions_m WHERE n_name IS NOT NULL GROUP BY r_name ORDER BY r_name""",
    "select star over a join view": "SELECT * FROM nations_m WHERE n_nationkey < 4 ORDER BY n_nationkey",
    "cte read twice": """
        WITH v AS (SELECT n.n_name AS nation, r.r_name AS region, n.n_comment AS note,
                          COUNT(*) AS MEASURE cnt
                   FROM nation AS n JOIN region AS r ON n.n_regionkey = r.r_regionkey)
        SELECT a.region, AGGREGATE(a.cnt) AS mine, b.cnt AT (ALL) AS everyone, COUNT(*) AS pairs
        FROM v AS a JOIN v AS b ON a.region = b.region
        GROUP BY a.region ORDER BY a.region""",
    "window over a join": """
        SELECT n.n_name, c.c_acctbal,
               RANK() OVER (PARTITION BY n.n_name ORDER BY c.c_acctbal DESC, c.c_custkey) AS rk
        FROM customer AS c JOIN nation AS n ON c.c_nationkey = n.n_nationkey
        ORDER BY 1, 3 LIMIT 40""",
    "outer joins with residuals": """
        SELECT r.r_name, n.n_name, c.c_name
        FROM region AS r FULL JOIN nation AS n
          ON r.r_regionkey = n.n_regionkey AND n.n_nationkey < 5
        LEFT JOIN customer AS c ON c.c_nationkey = n.n_nationkey AND c.c_acctbal > 9000
        ORDER BY 1 NULLS LAST, 2 NULLS LAST, 3 NULLS LAST""",
    "correlated subqueries over joins": """
        SELECT n.n_name,
               (SELECT COUNT(*) FROM customer AS c JOIN orders AS o ON o.o_custkey = c.c_custkey
                WHERE c.c_nationkey = n.n_nationkey) AS orders
        FROM nation AS n
        WHERE EXISTS (SELECT 1 FROM customer AS c2 WHERE c2.c_nationkey = n.n_nationkey
                                                      AND c2.c_acctbal > 9000)
        ORDER BY n.n_name""",
    "unused derived columns": """
        SELECT d.nation, COUNT(*) AS c
        FROM (SELECT c.c_custkey, n.n_name AS nation, c.c_acctbal / 0 AS boom
              FROM customer AS c JOIN nation AS n ON c.c_nationkey = n.n_nationkey) AS d
        GROUP BY d.nation ORDER BY d.nation""",
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_shapes_both_ways(tpch_pair, shape):
    hot, cold = tpch_pair
    if shape == "unused derived columns":
        # The one place the optimizer is not error-preserving: a projection
        # nobody reads is not evaluated, so neither is its division by zero.
        assert hot.execute(SHAPES[shape]).rows
        return
    rows = hot.execute(SHAPES[shape]).rows
    assert rows and rows == cold.execute(SHAPES[shape]).rows


def test_parameters_both_ways(tpch_pair):
    hot, cold = tpch_pair
    sql = """SELECT region, revenue AT (WHERE shipmode = ?) AS r
             FROM tpch_sales_m WHERE returnflag = ? GROUP BY region ORDER BY region"""
    for params in (("AIR", "R"), ("RAIL", "N")):
        assert hot.execute(sql, params).rows == cold.execute(sql, params).rows


def test_correlated_measure_source_is_rejected_at_bind(tpch_pair):
    """A source relation's rows are kept per execution, so it cannot depend
    on an enclosing row (it never could: evaluation gave it no scope)."""
    hot, _ = tpch_pair
    with pytest.raises(UnsupportedError, match="enclosing query"):
        hot.execute(
            """SELECT r.r_name,
                      (SELECT AGGREGATE(m)
                       FROM (SELECT n_name, COUNT(*) AS MEASURE m FROM nation
                             WHERE n_regionkey = r.r_regionkey) AS d)
               FROM region AS r"""
        )


# -- (b) counters: executed work, once -----------------------------------------


@pytest.mark.parametrize("optimizer", [True, False], ids=["optimized", "unoptimized"])
def test_view_joins_and_scans_run_once(optimizer):
    db = tpch_measure_database(SF, optimizer=optimizer)
    db.execute(TPCH_QUERIES["revenue_by_region"])
    sizes = table_cardinalities(SF)
    tables = ("lineitem", "orders", "partsupp", "customer", "nation", "region")
    if optimizer:
        # Nothing above reads partsupp, and every lineitem finds exactly one
        # of its rows: that step is not run, and its table is not scanned.
        tables = tuple(table for table in tables if table != "partsupp")
    assert db.last_stats.hash_joins == len(tables) - 1
    assert db.last_stats.rows_scanned == sum(
        len(db.catalog.resolve(table).table.rows) for table in tables
    )
    assert len(db.catalog.resolve("orders").table.rows) == sizes["orders"]


def test_filtered_query_still_shares(tpch_pair):
    """The query's WHERE sits above the view's dimension Project, so the
    relation under it is still the measure's source node."""
    hot, _ = tpch_pair
    hot.execute(TPCH_QUERIES["visible_orders_by_region"])
    assert hot.last_stats.hash_joins == 3


# -- (c) widths ------------------------------------------------------------------


def test_widths_under_revenue_by_region(tpch_pair):
    hot, _ = tpch_pair
    plan = planned(hot, TPCH_QUERIES["revenue_by_region"])
    # The view's five joins are one pipeline over the six stored tables: no
    # intermediate row exists, and the one it emits is what is read above.
    (pipeline,) = [n for n in plan.walk() if isinstance(n, plans.JoinPipeline)]
    assert not any(isinstance(node, plans.Join) for node in plan.walk())
    assert all(isinstance(child, plans.Scan) for child in pipeline.inputs())
    assert len(pipeline.kinds) == 5 and pipeline.arity <= 4

    (source,) = [node for node in plan.walk() if node.shared]
    assert source.label() == "Project(3 of 11) [shared]"
    ctx = ExecutionContext(hot.catalog)
    execute_plan(plan, ctx)
    (cached,) = ctx.source_rows_cache.values()
    assert {len(row) for row in cached} == {3}
    assert len(cached[0]) <= 4


def test_scan_feeding_no_join_keeps_its_schema(listing_pair):
    hot, _ = listing_pair
    for sql in all_listing_sql(hot).values():
        plan = planned(hot, sql)
        for node in plan.walk():
            for child in node.inputs():
                if isinstance(child, plans.Scan):  # under a pipeline too
                    table = hot.catalog.resolve(child.table_name)
                    assert child.arity == len(table.schema.columns)
            if isinstance(node, plans.Project) and node.of is not None:
                # Narrowing shows in the label, never silently.
                assert f"of {node.of}" in node.label()


def test_stops_keep_full_width(tpch_pair):
    """Under an Aggregate whose group rows a keyed VISIBLE reads nothing is
    renumbered: the join below it emits every column; the source relation
    below is still cut to what the dimension Project and the formula read.
    A VISIBLE whose conjuncts read only the measure's relation is no stop."""
    hot, cold = tpch_pair
    joined = """SELECT n.n_name, AGGREGATE(o.order_count) FROM tpch_orders_m AS o
                JOIN nation AS n ON o.nation = n.n_name
                WHERE n.n_regionkey < 3 GROUP BY n.n_name ORDER BY n.n_name"""
    plan = planned(hot, joined)
    aggregate = next(n for n in plan.walk() if isinstance(n, plans.Aggregate))
    assert aggregate.groups.rows_read
    join = aggregate.input
    assert join.arity == sum(source.arity for source in join.sources) == 9
    dims = join.sources[0]
    assert isinstance(dims, plans.Project) and dims.of is None and dims.arity == 5
    assert dims.input.shared and dims.input.label() == "Project(5 of 7) [shared]"
    assert hot.execute(joined).rows == cold.execute(joined).rows

    local = planned(hot, TPCH_QUERIES["visible_orders_by_region"])
    aggregate = next(n for n in local.walk() if isinstance(n, plans.Aggregate))
    assert not aggregate.groups.rows_read
    assert aggregate.input.input.label() == "Project(2 of 7) [shared]"
    plain = planned(hot, TPCH_QUERIES["orders_by_year"])
    assert next(
        n for n in plain.walk() if isinstance(n, plans.Aggregate)
    ).groups is None  # only VISIBLE reads the current group


def test_distinct_and_set_operations_keep_every_column(tpch_pair):
    hot, cold = tpch_pair
    sql = """SELECT n FROM (SELECT DISTINCT n_name AS n, n_regionkey FROM nation
                            UNION SELECT r_name, r_regionkey FROM region) ORDER BY n"""
    plan = planned(hot, sql)
    setop = next(n for n in plan.walk() if isinstance(n, plans.SetOpPlan))
    assert setop.left.arity == setop.right.arity == 2
    assert hot.execute(sql).rows == cold.execute(sql).rows


# -- (d) one plan, many executions -------------------------------------------------


def test_planned_query_replays_into_a_fresh_context(tpch_pair):
    hot, _ = tpch_pair
    planned_query = hot.plan_query(parse_query(TPCH_QUERIES["revenue_share_by_region"]))
    first, _ = hot.execute_planned(planned_query)
    second, _ = hot.execute_planned(planned_query)
    assert first.rows == second.rows == hot.execute(
        TPCH_QUERIES["revenue_share_by_region"]
    ).rows
    # Nothing of an execution outlives its context: a third one starts empty
    # and still runs the view's joins, once: the four whose rows are read
    # (partsupp's is not, and pairs every lineitem with one row).
    ctx = ExecutionContext(hot.catalog)
    assert not ctx.source_rows_cache
    execute_plan(planned_query.plan, ctx)
    assert ctx.hash_joins == 4 and len(ctx.source_rows_cache) == 1


# -- the validator can see a bad remap -------------------------------------------


def test_validator_names_the_measure_of_a_bad_remap(tpch_pair):
    hot, _ = tpch_pair
    sql = TPCH_QUERIES["revenue_by_region"]

    def evaluation(plan) -> b.BoundMeasureEval:
        project = next(
            n for n in plan.walk()
            if isinstance(n, plans.Project)
            and any(isinstance(e, b.BoundMeasureEval) for e in n.exprs)
        )
        return next(e for e in project.exprs if isinstance(e, b.BoundMeasureEval))

    plan = planned(hot, sql)
    check_plan(plan, "test")  # as pruned: valid

    # A formula numbered for the full-width relation.
    node = evaluation(plan)
    node.measure.formula = b.BoundAggCall(
        "SUM", [b.BoundColumn(9, INTEGER, "extendedprice")], False, False, None, INTEGER
    )
    with pytest.raises(ValidationError, match="measure 'revenue' formula.*offset 9"):
        check_plan(plan, "test")

    # A dimension whose column was pruned away.
    plan = planned(hot, sql)
    node = evaluation(plan)
    node.context.group_terms[0].source_expr = b.BoundColumn(10, INTEGER, "region")
    with pytest.raises(ValidationError, match="measure 'revenue' context.*offset 10"):
        check_plan(plan, "test")

    # A source relation that reaches for an enclosing row.
    plan = planned(hot, sql)
    source = evaluation(plan).measure.group.source_plan
    source.exprs[0] = b.BoundOuterColumn(1, 0, INTEGER, "stray")
    with pytest.raises(ValidationError, match="measure 'revenue' source.*depth 1"):
        check_plan(plan, "test")


def test_validator_checks_what_visible_reads_of_a_group(tpch_pair):
    """A keyed VISIBLE reads its group's rows at FROM-row offsets: the
    Aggregate whose ``GroupRef`` it names must be below it, and its input
    must still hold every offset those conjuncts read."""
    hot, _ = tpch_pair
    sql = """SELECT n.n_name, AGGREGATE(o.order_count) FROM tpch_orders_m AS o
             JOIN nation AS n ON o.nation = n.n_name
             WHERE n.n_regionkey < 3 GROUP BY n.n_name"""
    plan = planned(hot, sql)
    check_plan(plan, "test")  # as pruned: valid
    aggregate = next(n for n in plan.walk() if isinstance(n, plans.Aggregate))
    whole = aggregate.input
    # The input cut as if pruning had narrowed it to the group key alone.
    aggregate.input = plans.Project(whole, [b.BoundColumn(0, INTEGER)], whole.schema[:1])
    with pytest.raises(ValidationError, match="measure 'order_count'.*of group rows of arity 1"):
        check_plan(plan, "test")
    aggregate.input, groups, aggregate.groups = whole, aggregate.groups, None
    with pytest.raises(ValidationError, match="reads the groups of no Aggregate below it"):
        check_plan(plan, "test")
    aggregate.groups = groups
    check_plan(plan, "test")
