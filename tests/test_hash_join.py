"""Hash-join correctness: the equi-join fast path must be indistinguishable
from the nested loop (including outer padding, NULL keys, residuals)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database
from repro.engine import executor


@pytest.fixture
def jdb(db: Database) -> Database:
    db.execute("CREATE TABLE l (k INTEGER, k2 VARCHAR, lv INTEGER)")
    db.execute("CREATE TABLE r (k INTEGER, k2 VARCHAR, rv INTEGER)")
    db.execute(
        """INSERT INTO l VALUES
           (1, 'a', 10), (1, 'b', 11), (2, 'a', 20), (NULL, 'a', 30)"""
    )
    db.execute(
        """INSERT INTO r VALUES
           (1, 'a', 100), (1, 'a', 101), (2, 'b', 200), (NULL, 'a', 300)"""
    )
    return db


def _join(condition, left_width, right_width=3, kind="INNER"):
    from repro.plan import logical as plans
    from repro.types import INTEGER

    def side(name, width):
        return plans.Scan(name, [(f"{name}{i}", INTEGER) for i in range(width)])

    return plans.Join(kind, side("l", left_width), side("r", right_width), condition)


def test_extract_equi_keys():
    from repro.semantics import bound as b
    from repro.types import BOOLEAN, INTEGER, sql_compare

    def col(offset):
        return b.BoundColumn(offset, INTEGER)

    def eq(x, y):
        return b.BoundCall("=", [col(x), col(y)], BOOLEAN, lambda a, c: sql_compare("=", a, c))

    from repro.types import sql_and

    condition = b.BoundCall("AND", [eq(0, 3), eq(4, 1)], BOOLEAN, sql_and)
    keys, residual = executor._compile_join(_join(condition, 3))
    assert keys == [(0, 0), (1, 1)]
    assert residual is None
    assert executor.pipeline_keys(_join(condition, 3, kind="LEFT")) == keys
    assert executor.pipeline_keys(_join(condition, 3, kind="FULL")) is None


def test_extract_keys_keeps_residual():
    from repro.semantics import bound as b
    from repro.types import BOOLEAN, INTEGER, sql_and, sql_compare

    eq = b.BoundCall(
        "=",
        [b.BoundColumn(0, INTEGER), b.BoundColumn(2, INTEGER)],
        BOOLEAN,
        lambda a, c: sql_compare("=", a, c),
    )
    lt = b.BoundCall(
        "<",
        [b.BoundColumn(1, INTEGER), b.BoundColumn(3, INTEGER)],
        BOOLEAN,
        lambda a, c: sql_compare("<", a, c),
    )
    condition = b.BoundCall("AND", [eq, lt], BOOLEAN, sql_and)
    join = _join(condition, 2)
    keys, residual = executor._compile_join(join)
    assert keys == [(0, 0)]
    assert residual((0, 1, 0, 2), None, None) and not residual((0, 2, 0, 1), None, None)
    assert executor.pipeline_keys(join) is None  # a residual: no pipeline step


def test_same_side_equality_is_residual_not_key():
    from repro.semantics import bound as b
    from repro.types import BOOLEAN, INTEGER, sql_compare

    eq = b.BoundCall(
        "=",
        [b.BoundColumn(0, INTEGER), b.BoundColumn(1, INTEGER)],
        BOOLEAN,
        lambda a, c: sql_compare("=", a, c),
    )
    keys, residual = executor._compile_join(_join(eq, 2))
    assert keys == []
    assert residual is not None


def test_inner_join_null_keys_never_match(jdb):
    rows = jdb.execute("SELECT l.lv, r.rv FROM l JOIN r ON l.k = r.k").rows
    assert (30, 300) not in rows
    assert all(lv != 30 for lv, _ in rows)


def test_multi_key_hash_join(jdb):
    rows = jdb.execute(
        "SELECT lv, rv FROM l JOIN r ON l.k = r.k AND l.k2 = r.k2 ORDER BY lv, rv"
    ).rows
    assert rows == [(10, 100), (10, 101)]


def test_residual_predicate_applied(jdb):
    rows = jdb.execute(
        "SELECT lv, rv FROM l JOIN r ON l.k = r.k AND rv > 100 ORDER BY lv, rv"
    ).rows
    assert rows == [(10, 101), (11, 101), (20, 200)]


def test_left_join_padding_with_hash_path(jdb):
    rows = jdb.execute(
        """SELECT lv, rv FROM l LEFT JOIN r ON l.k = r.k AND l.k2 = r.k2
           ORDER BY lv, rv NULLS LAST"""
    ).rows
    assert (11, None) in rows  # (1,'b') has no partner
    assert (30, None) in rows  # NULL key never joins


def test_full_join_hash_path(jdb):
    rows = jdb.execute(
        """SELECT lv, rv FROM l FULL JOIN r ON l.k = r.k AND l.k2 = r.k2
           ORDER BY lv NULLS LAST, rv NULLS LAST"""
    ).rows
    assert (None, 200) in rows  # unmatched right
    assert (None, 300) in rows  # NULL-key right row padded


def test_reversed_equality_direction(jdb):
    forward = jdb.execute("SELECT lv, rv FROM l JOIN r ON l.k = r.k ORDER BY lv, rv").rows
    reverse = jdb.execute("SELECT lv, rv FROM l JOIN r ON r.k = l.k ORDER BY lv, rv").rows
    assert forward == reverse


rows_strategy = st.lists(
    st.tuples(st.integers(0, 3) | st.none(), st.integers(0, 9)),
    max_size=15,
)


@settings(max_examples=50, deadline=None)
@given(rows_strategy, rows_strategy, st.sampled_from(["JOIN", "LEFT JOIN", "FULL JOIN"]))
def test_hash_join_matches_sqlite(left, right, kind):
    import sqlite3

    db = Database()
    db.create_table_from_rows("l", [("k", "INTEGER"), ("v", "INTEGER")], left)
    db.create_table_from_rows("r", [("k", "INTEGER"), ("w", "INTEGER")], right)
    sql = f"SELECT l.v, r.w FROM l {kind} r ON l.k = r.k"
    mine = db.execute(sql).rows

    connection = sqlite3.connect(":memory:")
    connection.execute("CREATE TABLE l (k INTEGER, v INTEGER)")
    connection.execute("CREATE TABLE r (k INTEGER, w INTEGER)")
    connection.executemany("INSERT INTO l VALUES (?, ?)", left)
    connection.executemany("INSERT INTO r VALUES (?, ?)", right)
    theirs = connection.execute(sql).fetchall()

    def canonical(rows):
        return sorted(rows, key=lambda row: tuple((v is None, v or 0) for v in row))

    assert canonical(mine) == canonical(theirs)


# -- join chains: one loop == binary joins == nested loops == SQLite ---------------
#
# A chain of 2-5 inputs t0..tn, each (k INTEGER, j INTEGER, f DOUBLE, id
# INTEGER): small key domains so keys repeat on both sides, NULLs in every key
# column, ``f`` holding floats that equal integers, ``id`` unique so row order
# is observable.  Step i joins ti to the inputs before it.

import re
import sqlite3
from contextlib import contextmanager

from repro.engine.evaluator import ExecutionContext
from repro.engine.executor import execute_plan
from repro.profile.watch import TICK_ROWS, Watch
from repro.errors import ExecutionError, QueryCancelled, ResourceExhausted
from repro.plan import logical as plans
from repro.sql.parser import parse_query

COLUMNS = [("k", "INTEGER"), ("j", "INTEGER"), ("f", "DOUBLE"), ("id", "INTEGER")]
KEY_COLUMNS = ("k", "j", "f")

key_value = st.none() | st.integers(0, 2)
table_rows = st.lists(
    st.tuples(key_value, key_value, st.none() | st.sampled_from([0.0, 1.0, 2.0, 0.5])),
    max_size=6,
).map(lambda rows: [row + (index,) for index, row in enumerate(rows)])


@st.composite
def chains(draw):
    """``(tables, FROM clause, select list)``: INNER / LEFT hash steps with
    single and composite keys read from any earlier input (a NULL-padded LEFT
    row included), and now and then a step that cannot fuse — RIGHT, or a
    residual conjunct — wherever in the chain it falls."""
    count = draw(st.integers(2, 5))
    tables = [draw(table_rows) for _ in range(count)]
    from_clause = "t0"
    for index in range(1, count):
        kind = draw(st.sampled_from(["JOIN", "JOIN", "LEFT JOIN", "LEFT JOIN", "RIGHT JOIN"]))
        conjuncts = []
        for _ in range(draw(st.integers(1, 2))):
            earlier = draw(st.integers(0, index - 1))
            left, right = draw(st.sampled_from(KEY_COLUMNS)), draw(st.sampled_from(KEY_COLUMNS))
            sides = [f"t{earlier}.{left}", f"t{index}.{right}"]
            conjuncts.append(" = ".join(sides if draw(st.booleans()) else sides[::-1]))
        if draw(st.integers(0, 5)) == 0:
            conjuncts.append(f"t{index - 1}.id <= t{index}.id + 1")
        from_clause += f" {kind} t{index} ON {' AND '.join(conjuncts)}"
    every = [f"t{index}.{name}" for index in range(count) for name, _ in COLUMNS]
    select = draw(st.just(["*"]) | st.lists(st.sampled_from(every), min_size=1, max_size=5))
    return tables, from_clause, ", ".join(select)


def chain_database(tables, **options) -> Database:
    db = Database(**options)
    for index, rows in enumerate(tables):
        db.create_table_from_rows(f"t{index}", COLUMNS, rows)
    return db


@contextmanager
def nested_loops_only():
    """No conjunct is a hash key: every join tests every pair."""
    patch = pytest.MonkeyPatch()
    patch.setattr(executor, "equi_key", lambda conjunct, start, end: None)
    try:
        yield
    finally:
        patch.undo()


def bag(rows):
    return sorted(rows, key=lambda row: [(value is None, value or 0) for value in row])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(chains())
def test_join_chain_is_the_binary_joins_in_order(chain):
    tables, from_clause, select = chain
    sql = f"SELECT {select} FROM {from_clause}"
    steps = len(tables) - 1

    fused = chain_database(tables)
    rows = fused.execute(sql).rows
    assert fused.last_stats.hash_joins == steps  # one per step, fused or not

    binary = chain_database(tables, optimizer=False)
    assert binary.execute(sql).rows == rows  # same rows, same order
    assert binary.last_stats.hash_joins == steps

    with nested_loops_only():
        reference = chain_database(tables, optimizer=False)
        assert reference.execute(sql).rows == rows
        assert (reference.last_stats.hash_joins, reference.last_stats.nested_loop_joins) == (0, steps)

    connection = sqlite3.connect(":memory:")
    for index, table in enumerate(tables):
        connection.execute(f"CREATE TABLE t{index} (k INTEGER, j INTEGER, f REAL, id INTEGER)")
        connection.executemany(f"INSERT INTO t{index} VALUES (?, ?, ?, ?)", table)
    assert bag(connection.execute(sql).fetchall()) == bag(rows)


def planned(db: Database, sql: str) -> plans.LogicalPlan:
    return db.plan_query(parse_query(sql), sql=sql).plan


def pipelines(plan: plans.LogicalPlan) -> list[plans.JoinPipeline]:
    return [node for node in plan.walk() if isinstance(node, plans.JoinPipeline)]


def test_a_step_that_cannot_fuse_splits_the_chain():
    """A residual conjunct in the middle: a pipeline below it, its result the
    driving input of the pipeline above."""
    tables = [[(i % 3, i % 2, float(i % 3), i) for i in range(6)]] * 4
    db = chain_database(tables)
    sql = (
        "SELECT t0.id, t3.id FROM t0 JOIN t1 ON t0.k = t1.k "
        "JOIN t2 ON t1.j = t2.j AND t1.id < t2.id LEFT JOIN t3 ON t2.f = t3.k"
    )
    upper, lower = pipelines(planned(db, sql))
    assert upper.kinds == ["LEFT"] and lower.kinds == ["INNER"]
    residual = upper.sources[0]
    assert isinstance(residual, plans.Join) and residual.left is lower
    assert db.execute(sql).rows == chain_database(tables, optimizer=False).execute(sql).rows
    assert db.last_stats.hash_joins == 3


def test_probe_key_read_from_a_null_padded_row():
    db = chain_database([[(1, 1, 1.0, 0), (2, 2, 2.0, 1)], [(1, 7, 1.0, 0)], [(7, 0, 7.0, 0), (None, 0, None, 1)]])
    sql = "SELECT t0.id, t1.id, t2.id FROM t0 LEFT JOIN t1 ON t0.k = t1.k LEFT JOIN t2 ON t1.j = t2.k"
    assert [len(p.kinds) for p in pipelines(planned(db, sql))] == [2]
    assert db.execute(sql).rows == [(0, 0, 0), (1, None, None)]


def test_unhashable_keys_fall_back_to_the_binary_joins():
    """No SQL type holds an unhashable value in a hash-compatible column, so
    the pipeline is built by hand: the key columns carry Python lists."""
    from repro.semantics import bound as b
    from repro.types import BOOLEAN, INTEGER, VARCHAR, sql_eq

    def side(name, rows):
        cells = [[b.BoundLiteral(k, INTEGER), b.BoundLiteral(tag, VARCHAR)] for k, tag in rows]
        return plans.ValuesPlan(cells, [(f"{name}k", INTEGER), (name, VARCHAR)])

    def eq(left, right):
        return b.BoundCall("=", [b.BoundColumn(left, INTEGER), b.BoundColumn(right, INTEGER)], BOOLEAN, sql_eq)

    sources = [
        side("a", [([1], "a1"), (None, "a-null"), ([4], "a4")]),
        side("b", [([1], "b1"), ([1], "b1'"), ([5], "b5")]),
        side("c", [([9], "c9"), ([4], "c4"), ([1], "c1'")]),
    ]
    pipeline = plans.JoinPipeline(
        sources, ["INNER", "LEFT"], [eq(0, 2), eq(0, 4)], [1, 3, 5],
        [("a", VARCHAR), ("b", VARCHAR), ("c", VARCHAR)],
    )
    ctx = ExecutionContext(None)
    assert execute_plan(pipeline, ctx) == [("a1", "b1", "c1'"), ("a1", "b1'", "c1'")]
    assert (ctx.hash_joins, ctx.nested_loop_joins) == (2, 0)  # it bailed out


# -- the generated loop ----------------------------------------------------------

LOOP_TEXT = re.compile(
    r"def loop\(batch(, g\d+, e\d+)*\):\n"
    r"    return \[(\((r\d+\[\d+\], )*\)|r\d+( \+ r\d+)*) for r0 in batch"
    r"( for r\d+ in g\d+\((r\d+\[\d+\]|\(r\d+\[\d+\](, r\d+\[\d+\])+\)), e\d+\))*\]\n"
)
cell = st.tuples(st.integers(0, 9), st.integers(0, 99))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    st.lists(st.lists(cell, min_size=1, max_size=3).map(tuple), min_size=1, max_size=6).map(tuple),
    st.none() | st.lists(cell, max_size=8).map(tuple),
)
def test_generated_text_is_offsets_and_fixed_names(probes, emit):
    text = executor._loop_text(probes, emit)
    assert LOOP_TEXT.fullmatch(text), text
    assert set(text) <= set("def loop(batch):\n return[] for in +,0123456789rge")


def test_statements_of_one_shape_share_one_compiled_loop(db):
    db.execute("CREATE TABLE p (x INTEGER, y VARCHAR)")
    db.execute("CREATE TABLE q (z INTEGER, w VARCHAR)")
    db.execute("CREATE TABLE orders2 (amount DOUBLE, day DATE)")
    db.execute("CREATE TABLE days (label DOUBLE, holiday DATE)")
    db.execute("INSERT INTO p VALUES (1, 'p1')")
    db.execute("INSERT INTO q VALUES (1, 'q1')")
    executor._loop.cache_clear()
    first = "SELECT p.y, q.w FROM p JOIN q ON p.x = q.z"
    second = "SELECT o.day, d.holiday FROM orders2 AS o LEFT JOIN days AS d ON d.label = o.amount"
    assert db.execute(first).rows == [("p1", "q1")]
    assert db.execute(second).rows == []
    info = executor._loop.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    loops = [pipelines(planned(db, sql))[0] for sql in (first, second)]
    for pipeline in loops:
        execute_plan(pipeline, ExecutionContext(db.catalog))
    assert loops[0]._steps[0] is loops[1]._steps[0]
    assert loops[0]._steps[0].__code__.co_filename == executor.__file__


# -- watched runs: every checkpoint is still there ---------------------------------

FAN_OUT = "SELECT a.id, b.id FROM a JOIN b ON a.k = b.k JOIN c ON b.j = c.j"


@pytest.fixture
def fan_out(db: Database) -> plans.JoinPipeline:
    """600 driving rows x 20 matches each: the loop is nearly all of it."""
    columns = [("k", "INTEGER"), ("j", "INTEGER"), ("id", "INTEGER")]
    db.create_table_from_rows("a", columns, [(7, 0, i) for i in range(600)])
    db.create_table_from_rows("b", columns, [(7, i % 2, i) for i in range(20)])
    db.create_table_from_rows("c", columns, [(0, 0, 0), (0, 1, 1)])
    (pipeline,) = pipelines(planned(db, FAN_OUT))
    pipeline.catalog = db.catalog
    return pipeline


class CancelAfter:
    """A cancel event that sets itself once it has been asked ``checks`` times."""

    def __init__(self, checks: float):
        self.checks, self.asked = checks, 0

    def is_set(self) -> bool:
        self.asked += 1
        return self.asked > self.checks


def test_progress_ticks_once_per_batch_of_driving_rows(fan_out):
    progress = Watch(spans=False)
    progress.attach(fan_out)
    rows = execute_plan(fan_out, ExecutionContext(fan_out.catalog, watch=progress))
    assert len(rows) == 600 * 20
    # Three batches of driving rows and one checkpoint per build.
    assert progress.rows_processed == (3 + 2) * TICK_ROWS + 600 + 20 + 2 + len(rows)
    entry = progress._operators[id(fan_out)]
    assert (entry.label, entry.rows_out, entry.state) == (fan_out.label(), len(rows), "done")


def test_cancel_lands_between_two_batches(fan_out):
    counting = CancelAfter(float("inf"))
    execute_plan(fan_out, ExecutionContext(fan_out.catalog, cancel_event=counting))
    # Asked at four operators, two builds and three batches; stop at the last.
    assert counting.asked == 4 + 2 + 3
    progress = Watch(spans=False)
    progress.attach(fan_out)
    cancel = CancelAfter(counting.asked - 1)
    ctx = ExecutionContext(fan_out.catalog, cancel_event=cancel, watch=progress)
    with pytest.raises(QueryCancelled):
        execute_plan(fan_out, ctx)
    entry = progress._operators[id(fan_out)]
    assert progress.current_operator == fan_out.label() and entry.state == "running"


def test_memory_budget_is_checked_while_the_loop_buffers(fan_out):
    unbounded = Watch(spans=False)
    execute_plan(fan_out, ExecutionContext(fan_out.catalog, watch=unbounded))
    progress = Watch(spans=False, memory_limit_bytes=unbounded.memory_bytes // 2)
    ctx = ExecutionContext(fan_out.catalog, watch=progress)
    with pytest.raises(ResourceExhausted, match=re.escape(fan_out.label())):
        execute_plan(fan_out, ctx)
    assert progress._operators[id(fan_out)].state == "running"  # not at its exit


# -- the plan, not only the clock ----------------------------------------------------


@pytest.mark.parametrize(
    "name, tables, parent",
    [
        ("revenue_by_region", 6, "Project(3 of 11) [shared]"),
        ("visible_orders_by_region", 4, "Project(5 of 7) [shared]"),
    ],
)
def test_a_views_joins_are_one_pipeline_over_its_tables(name, tables, parent):
    from repro.workloads.tpch import TPCH_QUERIES, tpch_measure_database

    db = tpch_measure_database(0.002)
    lines = [row[0] for row in db.execute("EXPLAIN " + TPCH_QUERIES[name]).rows]
    (at,) = [index for index, line in enumerate(lines) if "Join" in line]
    indent = len(lines[at]) - len(lines[at].lstrip())
    steps = ", ".join(["INNER"] * (tables - 1))
    assert re.fullmatch(rf"JoinPipeline\({steps}: \d of \d+\)", lines[at].strip())
    assert lines[at - 1] == " " * (indent - 2) + parent
    below = lines[at + 1 :]
    assert len(below) == tables  # the stored tables themselves: no Project(k of n) cut
    assert all(re.fullmatch(rf" {{{indent + 2}}}Scan\(\w+\)", line) for line in below)


# -- a mistyped key is an error, not an empty result -----------------------------------

MISTYPED = {
    "varchar = integer": "SELECT a.i FROM a {kind} JOIN b ON a.s = b.i",
    "date = varchar": "SELECT a.i FROM a {kind} JOIN b ON a.d = b.s",
    "in a chain": "SELECT a.i FROM a JOIN b ON a.i = b.i {kind} JOIN b AS c ON c.i = a.s",
    "beside a key": "SELECT a.i FROM a {kind} JOIN b ON a.i = b.i AND b.d = a.s",
}


def mistyped_database(rows=((1, "1", "2024-01-01"),), **options) -> Database:
    db = Database(**options)
    for name in ("a", "b"):
        db.create_table_from_rows(name, [("i", "INTEGER"), ("s", "VARCHAR"), ("d", "DATE")], rows)
    db.execute("CREATE VIEW a_m AS SELECT i, s, d, COUNT(*) AS MEASURE n FROM a")
    return db


@pytest.mark.parametrize("optimizer", [True, False], ids=["optimized", "unoptimized"])
@pytest.mark.parametrize("kind", ["INNER", "LEFT"])
@pytest.mark.parametrize("shape", MISTYPED)
def test_mistyped_equi_key_raises_what_the_comparison_raises(shape, kind, optimizer):
    db = mistyped_database(optimizer=optimizer)
    sql = MISTYPED[shape].format(kind=kind)
    with pytest.raises(ExecutionError, match="cannot compare"):
        db.execute(sql)
    # Exactly as the same predicate does anywhere else.
    with pytest.raises(ExecutionError, match="cannot compare"):
        db.execute("SELECT a.i FROM a, b WHERE a.s = b.i")
    # Nothing is compared over an empty input, on any path.
    assert mistyped_database(rows=(), optimizer=optimizer).execute(sql).rows == []


@pytest.mark.parametrize("optimizer", [True, False], ids=["optimized", "unoptimized"])
def test_mistyped_cross_relation_conjunct_under_visible_raises(optimizer):
    db = mistyped_database(optimizer=optimizer)
    sql = "SELECT b.i, AGGREGATE(m.n) FROM a_m AS m JOIN b ON m.s = b.i GROUP BY b.i"
    with pytest.raises(ExecutionError, match="cannot compare"):
        db.execute(sql)
    assert mistyped_database(rows=(), optimizer=optimizer).execute(sql).rows == []


# -- a scan hands out the statement's snapshot ---------------------------------------


def test_operators_leave_the_scanned_snapshot_alone(db):
    stored = [(i % 4, 100 - i) for i in range(40)]
    db.create_table_from_rows("t", [("k", "INTEGER"), ("v", "INTEGER")], stored)
    sql = (
        "SELECT a.v, b.v FROM t AS a JOIN t AS b ON a.k = b.k "
        "WHERE a.v <> b.v ORDER BY a.v DESC, b.v LIMIT 7 OFFSET 2"
    )
    for optimizer in (True, False):
        db.optimizer_enabled = optimizer
        plan = planned(db, sql)
        ctx = ExecutionContext(db.catalog)
        rows = execute_plan(plan, ctx)
        assert len(rows) == 7 and ctx.rows_scanned == 80
        (scan, other) = [node for node in plan.walk() if isinstance(node, plans.Scan)]
        snapshot = ctx.table_snapshots["t"]
        # Both scans were handed the one snapshot, and it is as it was taken.
        assert execute_plan(scan, ctx) is snapshot and execute_plan(other, ctx) is snapshot
        assert snapshot == stored == db.catalog.resolve("t").table.rows
        assert snapshot is not db.catalog.resolve("t").table.rows
