"""One grouping pass per statement.

A measure's source relation is grouped once (``Relation.groups``) and every
reader shares it: the query's Aggregate, each equality context (one lookup
on the tuple of its term values) and VISIBLE's key probe.  No operator
copies rows it only renames: an identity Project returns its input list,
and an Aggregate over its own row-pure Project groups the Project's input.
"""

from __future__ import annotations

import sqlite3
import sys

import pytest

from repro import Database
from repro.engine.compile import Relation, slot_key
from repro.engine.evaluator import ExecutionContext
from repro.engine.executor import execute_plan
from repro.errors import ResourceExhausted
from repro.plan import logical as plans
from repro.profile import Watch
from repro.semantics import bound as b
from repro.sql.parser import parse_query
from repro.workloads.tpch import TPCH_QUERIES, tpch_measure_database

#: The scale ``python -m bench --selftest`` runs (``bench.builds.QUICK``).
QUICK_SF = 0.00025

COLD_QUERIES = [name for name in TPCH_QUERIES if name != "visible_orders_by_region"]

#: Python calls to execute the six cold queries once at ``QUICK_SF``, after a
#: warm-up pass: 36 443 measured (36 601 before the shared grouping), + 5 %.
COLD_QUERIES_CALL_CEILING = 38_265


@pytest.fixture(scope="module")
def quick():
    return tpch_measure_database(QUICK_SF)


@pytest.fixture
def grouping_passes(monkeypatch):
    """Every pass ``Relation`` makes to group rows: (owner, key names)."""
    passes: list[tuple] = []
    build = Relation._group

    def counted(self, exprs, outer, ctx):
        names = tuple(slot_key(expr) for expr in exprs)
        passes.append((self.owner, names))
        return build(self, exprs, outer, ctx)

    monkeypatch.setattr(Relation, "_group", counted)
    return passes


# -- a wrong answer: SQL '=' never matches NULL -------------------------------------

NULL_QUERIES = [
    ("SELECT d, s AT (WHERE d = v.d) FROM v GROUP BY d", ()),
    ("SELECT d, s AT (WHERE d = ?) FROM v GROUP BY d", (None,)),
    ("SELECT d, s AT (WHERE d = ?) FROM v GROUP BY d", ("a",)),
]


def _null_database(cache: bool) -> Database:
    db = Database(cache=cache)
    db.execute("CREATE TABLE t (d VARCHAR, x INTEGER)")
    db.execute("INSERT INTO t VALUES (NULL, 1), ('a', 2), (NULL, 4)")
    db.execute("CREATE VIEW v AS SELECT d, SUM(x) AS MEASURE s FROM t")
    return db


@pytest.mark.parametrize("sql, params", NULL_QUERIES)
def test_a_strict_equality_with_null_selects_no_row(sql, params):
    cached, uncached = _null_database(True), _null_database(False)
    rows = sorted(cached.execute(sql, params).rows, key=repr)
    assert rows == sorted(uncached.execute(sql, params).rows, key=repr)
    oracle = sqlite3.connect(":memory:")
    oracle.execute("CREATE TABLE t (d TEXT, x INTEGER)")
    oracle.executemany("INSERT INTO t VALUES (?, ?)", [(None, 1), ("a", 2), (None, 4)])
    expanded = cached.expand(sql)
    got = oracle.execute(expanded, params * expanded.count("?")).fetchall()
    assert sorted(got, key=repr) == rows
    if params == (None,) or "v.d" in sql:
        assert (None, None) in rows  # the NULL group sums nothing


# -- one grouping pass ----------------------------------------------------------------


@pytest.mark.parametrize(
    "name, keys",
    [("revenue_by_region_year", 2), ("margin_by_returnflag", 1)],
)
def test_the_source_is_grouped_once_per_execution(quick, grouping_passes, name, keys):
    planned = quick.plan_query(parse_query(TPCH_QUERIES[name]))
    (source,) = [node for node in planned.plan.walk() if node.shared]
    for _ in range(2):
        grouping_passes.clear()
        ctx = ExecutionContext(quick.catalog)
        execute_plan(planned.plan, ctx)
        # The Aggregate groups the shared source, and every equality context
        # (70 at FULL scale for revenue_by_region_year) reads that grouping.
        assert len(grouping_passes) == 1
        ((owner, names),) = grouping_passes
        assert owner is source and len(names) == keys
        assert ctx.measure_evaluations > 0


def test_without_the_cache_contexts_test_every_row(quick, grouping_passes):
    db = tpch_measure_database(QUICK_SF, cache=False)
    sql = TPCH_QUERIES["revenue_by_region_year"]
    expected = quick.execute(sql).rows
    grouping_passes.clear()
    assert db.execute(sql).rows == expected
    # Only the Aggregate's own pass over its input; no measure grouping.
    ((owner, _),) = grouping_passes
    assert isinstance(owner, plans.Aggregate)


def test_the_aggregate_groups_the_shared_source_directly(quick):
    plan = quick.plan_query(parse_query(TPCH_QUERIES["revenue_by_region_year"])).plan
    aggregate = next(n for n in plan.walk() if isinstance(n, plans.Aggregate))
    assert aggregate.input.shared
    assert [b.fingerprint(e) for e in aggregate.group_exprs] == ["$4", "YEAR($3)"]
    # VISIBLE's one conjunct reads only the measure's relation, so it reads
    # no group row: the WHERE's Filter moves down onto the shared source too.
    plan = quick.plan_query(parse_query(TPCH_QUERIES["visible_orders_by_region"])).plan
    aggregate = next(n for n in plan.walk() if isinstance(n, plans.Aggregate))
    assert not aggregate.groups.rows_read
    assert isinstance(aggregate.input, plans.Filter) and aggregate.input.input.shared


def test_an_identity_project_returns_its_input(quick):
    plan = quick.plan_query(parse_query("SELECT * FROM region")).plan
    scan = next(node for node in plan.walk() if isinstance(node, plans.Scan))
    exprs = [b.BoundColumn(i, dtype, name) for i, (name, dtype) in enumerate(scan.schema)]
    identity = plans.Project(scan, exprs, scan.schema)
    ctx = ExecutionContext(quick.catalog)
    assert execute_plan(identity, ctx) is ctx.table_snapshots["region"]
    swapped = plans.Project(scan, exprs[::-1], scan.schema[::-1])
    assert execute_plan(swapped, ctx) is not ctx.table_snapshots["region"]


def test_the_cold_queries_stay_within_their_call_budget():
    # Counted without the plan validator, whose calls are not the engine's.
    db = tpch_measure_database(QUICK_SF, validate=False)
    queries = [TPCH_QUERIES[name] for name in COLD_QUERIES]

    def run():
        for sql in queries:
            db.execute(sql)

    run()  # warm: nothing lazily built is counted
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        run()
    finally:
        sys.setprofile(previous)
    assert calls <= COLD_QUERIES_CALL_CEILING


# -- memory ----------------------------------------------------------------------------


def test_a_grouping_is_charged_once_to_its_owner(quick):
    sql = TPCH_QUERIES["revenue_by_region_year"]
    planned = quick.plan_query(parse_query(sql))
    (source,) = [node for node in planned.plan.walk() if node.shared]
    charges: list[tuple] = []

    class Accounting(Watch):
        def account_bytes(self, plan, nbytes):
            charges.append((plan, nbytes, self.memory_bytes))
            super().account_bytes(plan, nbytes)

    watch = Accounting(spans=False)
    watch.attach(planned.plan)
    ctx = ExecutionContext(quick.catalog, watch=watch)
    expected = execute_plan(planned.plan, ctx)
    (relation,) = ctx.relations.values()
    # YEAR(orderdate), the one computed key; the grouping by region and it;
    # the revenue argument.  Each once, however many contexts read them.
    year, grouping, argument = [charge for charge in charges if charge[0] is source]
    assert grouping[1] >= 8 * len(relation.rows)

    # A budget that holds everything up to the grouping, and not the grouping:
    # the build's checkpoints project it against the running Aggregate, its
    # charge lands on the source.
    quick.memory_limit_bytes = grouping[2] + grouping[1] // 2
    try:
        with pytest.raises(
            ResourceExhausted,
            match=r"in (Aggregate\(keys=2, aggs=0, sets=1\)|Project\(5 of 11\) \[shared\]):",
        ):
            quick.execute(sql)
    finally:
        quick.memory_limit_bytes = None
    # Nothing the failed statement built survives it.
    assert quick.execute(sql).rows == [tuple(row[:4]) for row in expected]
    assert quick.execute("SELECT COUNT(*) FROM lineitem").rows == [
        (len(quick.catalog.resolve("lineitem").table.rows),)
    ]


# -- what was replaced is gone ------------------------------------------------------


def test_the_per_dimension_indexes_are_gone():
    from repro.core import evaluator

    assert not hasattr(evaluator, "_dimension_index")
    assert not hasattr(evaluator, "_indexed_positions")
    assert not hasattr(ExecutionContext(None), "dim_indexes")
