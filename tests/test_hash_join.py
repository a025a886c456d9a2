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
    from repro.types import BOOLEAN, INTEGER, sql_eq

    def col(offset):
        return b.BoundColumn(offset, INTEGER)

    def eq(x, y):
        return b.BoundCall("=", [col(x), col(y)], BOOLEAN, sql_eq)

    from repro.types import sql_and

    condition = b.BoundCall("AND", [eq(0, 3), eq(4, 1)], BOOLEAN, sql_and)
    keys, residual = executor._compile_join(_join(condition, 3))
    assert keys == [(0, 0), (1, 1)]
    assert residual is None
    assert executor.pipeline_keys(_join(condition, 3, kind="LEFT")) == keys
    assert executor.pipeline_keys(_join(condition, 3, kind="FULL")) is None


def test_extract_keys_keeps_residual():
    from repro.semantics import bound as b
    from repro.types import BOOLEAN, INTEGER, sql_and, sql_eq, sql_lt

    eq = b.BoundCall(
        "=",
        [b.BoundColumn(0, INTEGER), b.BoundColumn(2, INTEGER)],
        BOOLEAN,
        sql_eq,
    )
    lt = b.BoundCall(
        "<",
        [b.BoundColumn(1, INTEGER), b.BoundColumn(3, INTEGER)],
        BOOLEAN,
        sql_lt,
    )
    condition = b.BoundCall("AND", [eq, lt], BOOLEAN, sql_and)
    join = _join(condition, 2)
    keys, residual = executor._compile_join(join)
    assert keys == [(0, 0)]
    assert residual((0, 1, 0, 2), None, None) and not residual((0, 2, 0, 1), None, None)
    assert executor.pipeline_keys(join) is None  # a residual: no pipeline step


def test_same_side_equality_is_residual_not_key():
    from repro.semantics import bound as b
    from repro.types import BOOLEAN, INTEGER, sql_eq

    eq = b.BoundCall(
        "=",
        [b.BoundColumn(0, INTEGER), b.BoundColumn(1, INTEGER)],
        BOOLEAN,
        sql_eq,
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
from typing import Optional

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
    from_clause, steps = "t0", []
    for index in range(1, count):
        kind = draw(st.sampled_from(["JOIN", "JOIN", "LEFT JOIN", "LEFT JOIN", "RIGHT JOIN"]))
        conjuncts, keys = [], []
        for _ in range(draw(st.integers(1, 2))):
            earlier = draw(st.integers(0, index - 1))
            left, right = draw(st.sampled_from(KEY_COLUMNS)), draw(st.sampled_from(KEY_COLUMNS))
            sides = [f"t{earlier}.{left}", f"t{index}.{right}"]
            conjuncts.append(" = ".join(sides if draw(st.booleans()) else sides[::-1]))
            keys.append((earlier, KEY_COLUMNS.index(left), KEY_COLUMNS.index(right)))
        fuses = kind != "RIGHT JOIN"
        if draw(st.integers(0, 5)) == 0:
            conjuncts.append(f"t{index - 1}.id <= t{index}.id + 1")
            fuses = False
        from_clause += f" {kind} t{index} ON {' AND '.join(conjuncts)}"
        steps.append((kind, keys, fuses))
    every = [f"t{index}.{name}" for index in range(count) for name, _ in COLUMNS]
    select = draw(st.just(["*"]) | st.lists(st.sampled_from(every), min_size=1, max_size=5))
    return tables, from_clause, ", ".join(select), steps


def chain_eliminated(tables, steps, select) -> Optional[int]:
    """The steps of a chain left out, by :func:`expected_eliminated`'s rule
    written out over its conjuncts; None unless every step fuses into one
    pipeline.  An INNER step has a probe table only when all its keys read
    one earlier table; a LEFT step needs none."""
    if not all(fuses for _, _, fuses in steps):
        return None
    if select == "*":
        return 0
    read, dropped = set(map(int, re.findall(r"t(\d+)\.", select))), 0
    for index in range(len(steps), 0, -1):
        kind, keys, _ = steps[index - 1]
        probed = {earlier for earlier, _, _ in keys}
        built = [tuple(row[right] for _, _, right in keys) for row in tables[index]]
        built = [key for key in built if None not in key]
        goes = index not in read and len(set(built)) == len(built)
        if goes and kind == "JOIN":
            probe = min(probed)
            padded = probe > 0 and steps[probe - 1][0] == "LEFT JOIN"
            probe_keys = [tuple(row[left] for _, left, _ in keys) for row in tables[probe]]
            goes = len(probed) == 1 and not padded and all(
                None not in key and key in set(built) for key in probe_keys
            )
        if goes:
            dropped += 1
        else:
            read |= probed
    return dropped


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
    tables, from_clause, select, chain_steps = chain
    sql = f"SELECT {select} FROM {from_clause}"
    steps = len(tables) - 1

    fused = chain_database(tables)
    rows = fused.execute(sql).rows
    # One per step, fused or not, but for the steps found not needed: in a
    # chain of one pipeline, those the rule names.
    eliminated = eliminated_steps(fused, sql)
    assert fused.last_stats.hash_joins == steps - eliminated
    expected = chain_eliminated(tables, chain_steps, select)
    assert expected is None or eliminated == expected, (sql, tables)

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


def eliminated_steps(db: Database, sql: str) -> int:
    """The pipeline steps EXPLAIN ANALYZE reports not run."""
    text = db.execute("EXPLAIN ANALYZE " + sql).pretty()
    return sum(map(int, re.findall(r"eliminated_steps=(\d+)", text)))


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
    from repro.types import BOOLEAN, INTEGER, VARCHAR, sql_and, sql_eq

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
    # A binary join with a residual bails out of its hash table the same way.
    residual = b.BoundCall("AND", [eq(0, 2), b.BoundLiteral(True, BOOLEAN)], BOOLEAN, sql_and)
    join = plans.Join("INNER", sources[0], sources[2], residual)
    assert execute_plan(join, ExecutionContext(None)) == [([1], "a1", [1], "c1'"), ([4], "a4", [4], "c4")]


def test_the_fallback_runs_a_left_out_step_too(db, monkeypatch):
    """No stored value is unhashable, so the fallback is forced: ``u``'s
    table is refused after ``t``'s step was left out, and the binary joins
    then run over every input, ``t`` scanned after all."""
    db.create_table_from_rows("s", [("k", "INTEGER"), ("j", "INTEGER"), ("v", "INTEGER")], [(1, 1, 10), (2, 1, 20), (2, 2, 30)])
    db.create_table_from_rows("t", [("k", "INTEGER"), ("w", "INTEGER")], [(1, 0), (2, 0)])
    db.create_table_from_rows("u", [("j", "INTEGER"), ("x", "INTEGER")], [(1, 5), (1, 6), (3, 7)])
    sql = "SELECT s.v, u.x FROM s JOIN t ON s.k = t.k JOIN u ON s.j = u.j"
    rows = db.execute(sql).rows
    assert rows == [(10, 5), (10, 6), (20, 5), (20, 6)] and db.last_stats.rows_scanned == 6
    u_rows = db.catalog.resolve("u").table.rows
    build = executor._hash_table
    monkeypatch.setattr(executor, "_hash_table", lambda plan, rows, *rest: (
        None if rows == u_rows else build(plan, rows, *rest)))
    assert db.execute(sql).rows == rows
    assert db.last_stats.rows_scanned == 3 + 2 + 3


# -- a step at a time ---------------------------------------------------------------
#
# Pipelines of 1-4 INNER / LEFT steps built by hand (``ValuesPlan`` sources,
# so a key can be ``1``, ``1.0`` or ``True``), each source ``(a, b, id)``:
# step i's key is ``a`` or ``(a, b)`` of input i, each column read from any
# earlier input (chains, stars and snowflakes, a composite key across two
# inputs).  Build sides have distinct keys (NULLs and ``1`` / ``1.0`` /
# ``True`` among them) or repeat them; the driving input is empty, or
# smaller or larger than a build side.  The reference is the nested loop
# joins written out, projected on the emitted columns, as lists.

WALK_KEYS = st.none() | st.sampled_from([0, 1, 1.0, True, 2, 3])


@st.composite
def walk_input(draw, sizes):
    """Rows ``(a, b, id)`` of one of ``sizes``: a repeating pattern of
    keys, or distinct keys with NULLs now and then."""
    size = draw(st.sampled_from(sizes))
    if draw(st.booleans()):
        pattern = draw(st.lists(st.tuples(WALK_KEYS, WALK_KEYS), min_size=1, max_size=4))
        pairs = [pattern[i % len(pattern)] for i in range(size)]
    else:
        ones = draw(st.sampled_from(NUMERIC_ONES))
        nulls = draw(st.sets(st.integers(0, max(size - 1, 0)), max_size=2))
        pairs = [
            (None if i in nulls else ones if k == 1 else k, k % 3)
            for i, k in enumerate(draw(st.permutations(range(size))))
        ]
    return [(a, b, index) for index, (a, b) in enumerate(pairs)]


@st.composite
def walks(draw):
    """``(inputs, steps, emit)``: a step is ``(kind, [(earlier input,
    column)])``, ``emit`` the offsets of the inputs side by side."""
    inputs = [draw(walk_input([20, 0, 1, 5, 300]))]
    steps = []
    for index in range(1, draw(st.sampled_from([3, 4, 2, 1])) + 1):
        inputs.append(draw(walk_input([3, 0, 1, 8, 30])))
        columns = (0, 1) if draw(st.booleans()) else (0,)
        earlier = index - 1 if draw(st.booleans()) else draw(st.integers(0, index - 1))
        cells = [(earlier if c == 0 or draw(st.booleans()) else draw(st.integers(0, index - 1)), c) for c in columns]
        steps.append((draw(st.sampled_from(["INNER", "LEFT"])), cells))
    width = 3 * len(inputs)
    emit = draw(st.none() | st.lists(st.integers(0, width - 1), max_size=6))
    return inputs, steps, list(range(width)) if emit is None else emit


def nested_walk(inputs, steps) -> list[tuple]:
    combos = [(row,) for row in inputs[0]]
    for right_rows, (kind, cells) in zip(inputs[1:], steps):
        joined = []
        for combo in combos:
            probe = [combo[earlier][column] for earlier, column in cells]
            matches = [
                combo + (right,) for right in right_rows
                if all(value is not None and value == right[column] for value, (_, column) in zip(probe, cells))
            ]
            joined += matches or ([combo + ((None,) * 3,)] if kind == "LEFT" else [])
        combos = joined
    return [sum(combo, ()) for combo in combos]


def expected_branch_steps(sizes, kinds, reads, unique) -> int:
    """The three rules, written out: step h heads the later steps whose keys
    read only h's input or another of them, when (1) the driving input has
    more rows than h's table, (2) h is INNER or it and all of them are LEFT,
    and (3) every other step between h and the last of them is unique; heads
    first to last, each step in one branch at most."""
    taken, total = set(), 0
    for h in range(1, len(kinds) + 1):
        if h in taken or not sizes[0] > sizes[h]:
            continue
        group = {h}
        for step in range(h + 1, len(kinds) + 1):
            if reads[step - 1] <= group:
                group.add(step)
        members = sorted(group - {h})
        if not members:
            continue
        if kinds[h - 1] == "LEFT" and any(kinds[s - 1] != "LEFT" for s in members):
            continue
        if not all(unique[t - 1] for t in range(h + 1, members[-1]) if t not in group):
            continue
        taken |= group
        total += len(members)
    return total


def distinct_keys(rows, columns) -> bool:
    """Whether the build side holds one row per key, as hashing decides."""
    keys = [tuple(row[c] for c in columns) for row in rows]
    keys = [key for key in keys if None not in key]
    return len(set(keys)) == len(keys)


@settings(max_examples=250, deadline=None, derandomize=True)
@given(walks())
def test_the_walk_is_the_nested_loop_joins_in_order(walk):
    inputs, steps, emit = walk
    expected = [tuple(row[offset] for offset in emit) for row in nested_walk(inputs, steps)]
    branched = expected_branch_steps(
        [len(rows) for rows in inputs],
        [kind for kind, _ in steps],
        [{earlier for earlier, _ in cells} for _, cells in steps],
        [distinct_keys(rows, [c for _, c in cells]) for rows, (_, cells) in zip(inputs[1:], steps)],
    )
    for watched in (False, True):
        plan = hand_built(inputs, steps, emit=emit)
        watch = Watch(spans=False)
        if watched:  # 256-row batches, a checkpoint before each
            watch.attach(plan)
        ctx = ExecutionContext(None, watch=watch if watched else None)
        rows = execute_plan(plan, ctx)
        assert len(rows) == len(expected) and list(rows) == expected
        assert ctx.hash_joins == len(steps)
        if watched:
            assert watch._operators[id(plan)].counters["branch_steps"] == branched


def rows_of(*pairs):
    return [(a, b, index) for index, (a, b) in enumerate(pairs)]


#: Each branch trap, once by name: ``(inputs, steps, branch_steps)``.
DRIVING = rows_of((0, 0), (1, 1), (0, 2), (1, 0), (2, 1), (None, 2), (0, 0), (1, 1))
BRANCH_CASES = {
    "a unique head": (
        [DRIVING, rows_of((0, 1), (1, 0), (2, 1)), rows_of((1, 0), (0, 1), (1, 2))],
        [("INNER", [(0, 0)]), ("INNER", [(1, 1)])], 1),
    "a bucketed head, its keys apart in its table": (
        [DRIVING, rows_of((0, 1), (1, 0), (0, 0), (1, 1), (2, 2)), rows_of((1, 0), (0, 1), (1, 2))],
        [("INNER", [(0, 0)]), ("INNER", [(1, 1)])], 1),
    "a bucketed step between": (
        [DRIVING, rows_of((0, 1), (1, 0), (2, 1)), rows_of((0, 5), (0, 6), (1, 5)), rows_of((1, 0), (0, 1), (1, 2))],
        [("INNER", [(0, 0)]), ("INNER", [(0, 0)]), ("INNER", [(1, 1)])], 0),
    "a unique step between": (
        [DRIVING, rows_of((0, 1), (1, 0), (2, 1)), rows_of((0, 5), (1, 6)), rows_of((1, 0), (0, 1), (1, 2))],
        [("INNER", [(0, 0)]), ("INNER", [(0, 0)]), ("INNER", [(1, 1)])], 1),
    "a LEFT head over an INNER step": (
        [DRIVING, rows_of((0, 1), (1, 7)), rows_of((1, 0), (0, 1), (1, 2))],
        [("LEFT", [(0, 0)]), ("INNER", [(1, 1)])], 0),
    "a LEFT head over LEFT steps": (
        [DRIVING, rows_of((0, 1), (1, 7)), rows_of((1, 0), (0, 1), (1, 2)), rows_of((0, 3))],
        [("LEFT", [(0, 0)]), ("LEFT", [(1, 1)]), ("LEFT", [(2, 0)])], 2),
    "an INNER head over a LEFT step": (
        [DRIVING, rows_of((0, 1), (1, 7)), rows_of((1, 0), (0, 1), (1, 2))],
        [("INNER", [(0, 0)]), ("LEFT", [(1, 1)])], 1),
    "a head no smaller than the driving input": (
        [DRIVING[:3], rows_of((0, 1), (1, 0), (2, 1)), rows_of((1, 0), (0, 1), (1, 2))],
        [("INNER", [(0, 0)]), ("INNER", [(1, 1)])], 0),
    "a key across the branch and the driving input": (
        [DRIVING, rows_of((0, 1), (1, 0), (2, 1)), rows_of((1, 0), (0, 1), (1, 2))],
        [("INNER", [(0, 0)]), ("INNER", [(1, 0), (0, 1)])], 0),
    "a branch inside a branch": (
        [DRIVING * 3, rows_of((0, 1), (1, 0), (2, 1), (0, 2)), rows_of((1, 0), (0, 1), (2, 2)), rows_of((0, 0), (1, 1), (0, 2))],
        [("INNER", [(0, 0)]), ("INNER", [(1, 1)]), ("INNER", [(2, 1)])], 2),
}


@pytest.mark.parametrize("name", BRANCH_CASES)
def test_each_branch_trap(name):
    inputs, steps, branched = BRANCH_CASES[name]
    width = 3 * len(inputs)
    expected = nested_walk(inputs, steps)
    assert expected_branch_steps(
        [len(rows) for rows in inputs],
        [kind for kind, _ in steps],
        [{earlier for earlier, _ in cells} for _, cells in steps],
        [distinct_keys(rows, [c for _, c in cells]) for rows, (_, cells) in zip(inputs[1:], steps)],
    ) == branched
    for watched in (False, True):
        plan = hand_built(inputs, steps)
        watch = Watch(spans=False)
        if watched:
            watch.attach(plan)
        assert list(execute_plan(plan, ExecutionContext(None, watch=watch if watched else None))) == expected
        if watched:
            assert watch._operators[id(plan)].counters["branch_steps"] == branched


def branch_database(tables, **options) -> Database:
    db = Database(**options)
    for index, rows in enumerate(tables):
        db.create_table_from_rows(f"t{index}", ELIMINATION_COLUMNS, rows)
    return db


@st.composite
def snowflakes(draw):
    """``(tables, steps)`` over real tables ``(a, b, f, id)``: 2-4 INNER /
    LEFT steps, each keyed on ``a`` or ``(a, b)`` of an earlier table."""
    count = draw(st.sampled_from([3, 4, 2]))
    small = st.tuples(st.none() | st.integers(0, 3), st.none() | st.integers(0, 1))
    tables = [draw(st.lists(small, max_size=12))]
    steps = []
    for index in range(1, count + 1):
        if draw(st.booleans()):  # distinct keys
            keys = draw(st.lists(st.integers(0, 3), unique=True, max_size=4))
            pairs = [(k, k % 2) for k in keys]
        else:
            pairs = draw(st.lists(small, max_size=4))
        tables.append(pairs)
        steps.append((draw(st.sampled_from(["INNER", "LEFT"])), draw(st.integers(0, index - 1)),
                      draw(st.sampled_from(["a", "ab"]))))
    tables = [[(a, b, None if a is None else float(a), i) for i, (a, b) in enumerate(t)] for t in tables]
    return tables, steps


@settings(max_examples=100, deadline=None, derandomize=True)
@given(snowflakes())
def test_branches_are_the_binary_joins_in_order(case):
    """Every table's ``id`` is read, so no step is left out: the statement's
    one pipeline runs every step, its branches by the rule."""
    tables, steps = case
    sql = elimination_sql(steps, set(range(len(tables))))
    fused, binary = branch_database(tables), branch_database(tables, optimizer=False)
    rows = fused.execute(sql).rows
    assert rows == binary.execute(sql).rows, (sql, tables)  # same rows, same order
    (count,) = map(int, re.findall(r"branch_steps=(\d+)", fused.execute("EXPLAIN ANALYZE " + sql).pretty()))
    expected = expected_branch_steps(
        [len(rows) for rows in tables],
        [kind for kind, _, _ in steps],
        [{probe} for _, probe, _ in steps],
        [distinct_keys(rows, ELIMINATION_KEYS[key][1]) for rows, (_, _, key) in zip(tables[1:], steps)],
    )
    assert count == expected, (sql, tables)


def test_a_repeated_key_switches_a_step_to_buckets_with_no_re_plan(db):
    """One planned statement, replayed: the step binds its row while the
    build side has one row per key, and after an INSERT of a repeated key
    walks the bucket, in order, with the plan unchanged."""
    db.execute("CREATE TABLE p (x INTEGER, y VARCHAR)")
    db.execute("CREATE TABLE q (z INTEGER, w VARCHAR)")
    db.execute("INSERT INTO p VALUES (1, 'p1'), (2, 'p2'), (1, 'p3')")
    db.execute("INSERT INTO q VALUES (1, 'q1'), (2, 'q2')")
    query = db.plan_query(parse_query("SELECT p.y, q.w FROM p JOIN q ON p.x = q.z"))
    (pipeline,) = pipelines(query.plan)

    def run():
        watch = Watch(spans=False)
        result, _ = db.execute_planned(query, watch=watch)
        return result.rows, watch._operators[id(pipeline)].counters["unique_steps"]

    assert run() == ([("p1", "q1"), ("p2", "q2"), ("p3", "q1")], 1)
    db.execute("INSERT INTO q VALUES (1, 'q1b')")
    assert run() == ([("p1", "q1"), ("p1", "q1b"), ("p2", "q2"), ("p3", "q1"), ("p3", "q1b")], 0)
    assert pipelines(query.plan)[0] is pipeline


def test_a_pipeline_builds_no_tuple_per_row():
    """The source relation of ``revenue_by_region`` at the benchmark's scale
    (11 751 rows out): the pipeline leaves a few lists, not a tuple per row,
    for the cyclic collector to count."""
    import gc

    from repro.workloads.tpch import TPCH_QUERIES, tpch_measure_database

    db = tpch_measure_database(0.002)
    (pipeline,) = pipelines(planned(db, TPCH_QUERIES["revenue_by_region"]))
    execute_plan(pipeline, ExecutionContext(db.catalog))  # the verdicts, once
    ctx = ExecutionContext(db.catalog)
    enabled = gc.isenabled()
    gc.disable()
    try:
        before = gc.get_count()[0]
        rows = execute_plan(pipeline, ctx)
        grown = gc.get_count()[0] - before
    finally:
        if enabled:
            gc.enable()
    assert len(rows) == 11751 and grown < 200, grown


# -- unique build sides: one row bound, or a bucket looped over -------------------
#
# Pipelines of 1-3 INNER / LEFT steps built by hand (``ValuesPlan`` sources,
# so a key column can hold ``1``, ``1.0`` and ``True`` at once), each source
# ``(a, b, id)``: a step's key is ``a`` or ``(a, b)`` of its build side, read
# from ``a`` / ``(a, b)`` of an earlier input.  The reference is the binary
# nested loop joins written out: Python ``==``, which is what hashing decides,
# and a NULL key never matches.

NUMERIC_ONES = (1, 1.0, True)


@st.composite
def build_side(draw, composite: bool, driving: bool = False):
    """``(rows, shape)``: rows ``(a, b, id)`` whose keys are unique, or
    unique but for one repeated key (at the second row, the last row, or
    past row 256), or carry NULL keys, or ``1`` / ``1.0`` / ``True``."""
    if driving:
        values = st.none() | st.sampled_from([0, 1, 1.0, True, 2, 299])
        pairs = draw(st.lists(st.tuples(values, values), max_size=12))
        return [(a, b, index) for index, (a, b) in enumerate(pairs)], "driving"
    size = draw(st.sampled_from([0, 1, 2, 7, 300]))
    keys = draw(st.permutations(range(size)))
    pairs = [(key % 5, key // 5) if composite else (key, key % 3) for key in keys]
    shapes = ["unique", "one NULL", "NULLs", "ones"]
    if size >= 2:
        shapes += ["repeat first", "repeat last"]
    if size > 256:
        shapes.append("repeat mid-batch")
    shape = draw(st.sampled_from(shapes))
    if shape.startswith("repeat"):
        at = {"repeat first": 1, "repeat last": size - 1}.get(shape) or draw(st.integers(257, size - 1))
        pairs[at] = pairs[draw(st.integers(0, at - 1))]
    elif "NULL" in shape:
        for at in draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=1 if shape == "one NULL" else 4)) if size else ():
            a, b = pairs[at]
            pairs[at] = (None, b) if not composite or draw(st.booleans()) else (a, None)
    elif shape == "ones" and size:
        for at in draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=3, unique=True)):
            pairs[at] = (draw(st.sampled_from(NUMERIC_ONES)), 0 if composite else pairs[at][1])
    return [(a, b, index) for index, (a, b) in enumerate(pairs)], shape


@st.composite
def unique_pipelines(draw):
    """``(inputs, steps)``: a driving input and 1-3 steps ``(kind, [(input
    the key is read from, key column)])``."""
    steps, inputs = [], [draw(build_side(False, driving=True))[0]]
    for index in range(1, draw(st.integers(1, 3)) + 1):
        columns = (0, 1) if draw(st.booleans()) else (0,)
        inputs.append(draw(build_side(len(columns) > 1))[0])
        kind, earlier = draw(st.sampled_from(["INNER", "LEFT"])), draw(st.integers(0, index - 1))
        steps.append((kind, [(earlier, c) for c in columns]))
    return inputs, steps


def hand_built(inputs, steps, residual: bool = False, emit=None):
    """The steps ``(kind, [(earlier input, column)])`` as a ``JoinPipeline``
    emitting ``emit`` (None: every column), or (``residual``) as binary
    ``Join``s whose condition also holds a TRUE conjunct, so each runs
    ``_match_loop`` over the same hash table."""
    from repro.semantics import bound as b
    from repro.types import BOOLEAN, INTEGER, sql_and, sql_eq

    def source(rows):
        cells = [[b.BoundLiteral(value, INTEGER) for value in row] for row in rows]
        return plans.ValuesPlan(cells, [("a", INTEGER), ("b", INTEGER), ("id", INTEGER)])

    sources = [source(rows) for rows in inputs]
    conditions = []
    for index, (_, cells) in enumerate(steps, 1):
        pairs = [
            b.BoundCall("=", [b.BoundColumn(3 * earlier + c, INTEGER), b.BoundColumn(3 * index + c, INTEGER)], BOOLEAN, sql_eq)
            for earlier, c in cells
        ]
        if residual:
            pairs.append(b.BoundLiteral(True, BOOLEAN))
        conditions.append(pairs[0] if len(pairs) == 1 else b.BoundCall("AND", pairs, BOOLEAN, sql_and))
    emit = list(range(3 * len(sources))) if emit is None else emit
    schema = [(f"c{i}", INTEGER) for i in range(len(emit))]
    if not residual:
        return plans.JoinPipeline(sources, [kind for kind, _ in steps], conditions, emit, schema)
    plan = sources[0]
    for (kind, _), right, condition in zip(steps, sources[1:], conditions):
        plan = plans.Join(kind, plan, right, condition)
    return plan


@settings(max_examples=100, deadline=None, derandomize=True)
@given(unique_pipelines())
def test_unique_and_bucketed_steps_are_the_nested_loop_joins_in_order(pipeline):
    inputs, steps = pipeline
    expected = nested_walk(inputs, steps)
    for residual in (False, True):
        for watched in (False, True):
            plan = hand_built(inputs, steps, residual)
            watch = None
            if watched:  # 256-row batches, a checkpoint before each
                watch = Watch(spans=False)
                watch.attach(plan)
            ctx = ExecutionContext(None, watch=watch)
            assert execute_plan(plan, ctx) == expected
            assert (ctx.hash_joins, ctx.nested_loop_joins) == (len(steps), 0)


def test_several_null_keys_keep_a_build_side_unique():
    """NULL keys, whole or in part, are counted out of the length check:
    however many there are, and in whichever batch, a side whose other keys
    are distinct stays unique; a repeated key after them still buckets."""
    plan = plans.ValuesPlan([], [])

    def table(rows, key=(0,), watched=False):
        watch = None
        if watched:
            watch = Watch(spans=False)
            watch.attach(plan)
        return executor._hash_table(plan, rows, key, rows, ExecutionContext(None, watch=watch))

    rows = [(1, "a"), (None, "b"), (None, "c"), (2, "d")]
    assert table(rows) == ({1: (1, "a"), 2: (2, "d")}, True)
    half = [(1, None, "a"), (1, None, "b"), (None, 2, "c"), (1, 2, "d"), (None, None, "e")]
    assert table(half, (0, 1)) == ({(1, 2): (1, 2, "d")}, True)
    spread = [(None if k % 97 == 0 else k, k) for k in range(700)]
    for watched in (False, True):  # NULLs in every 256-row batch
        index, unique = table(spread, watched=watched)
        assert unique and len(index) == 700 - 8 and None not in index
        index, unique = table(spread + [(5, "again")], watched=watched)
        assert not unique and index[5] == [(5, 5), (5, "again")] and None not in index


def test_a_build_side_is_unique_until_its_first_repeated_key():
    """The table and its uniqueness, read directly: NULL keys are left out
    (so several of them may still leave it unique), ``1`` / ``1.0`` /
    ``True`` are one key, and a repeat past row 256 under a watcher turns
    the whole table into buckets, rows in order."""
    plan = plans.ValuesPlan([], [])

    def table(rows, key=(0,), watched=False):
        watch = None
        if watched:
            watch = Watch(spans=False)
            watch.attach(plan)
        return executor._hash_table(plan, rows, key, rows, ExecutionContext(None, watch=watch))

    rows = [(k, k % 2) for k in range(300)]
    for watched in (False, True):
        assert table(rows, watched=watched) == ({row[0]: row for row in rows}, True)
        assert table(rows, (0, 1), watched) == ({row: row for row in rows}, True)
        repeated = rows + [(260, "again")]
        index, unique = table(repeated, watched=watched)
        assert not unique and index[260] == [(260, 0), (260, "again")] and index[0] == [(0, 0)]
    assert table([(None, 0), (1, 0)]) == ({1: (1, 0)}, True)
    assert table([(None, 0), (None, 1), (1, 0)]) == ({1: (1, 0)}, True)
    assert table([(None, 0), (1, None), (1, 0)], (0, 1)) == ({(1, 0): (1, 0)}, True)
    assert table([(1, "a"), (1.0, "b")]) == ({1: [(1, "a"), (1.0, "b")]}, False)
    assert table([(True, "a"), (2, "b")]) == ({1: (True, "a"), 2: (2, "b")}, True)
    assert table([([1], "a")]) is None  # unhashable: the caller's nested loop
    assert table([]) == ({}, True)


# -- steps nobody reads, over keys the data holds: not run --------------------------
#
# A step whose row no emitted cell and no kept later step reads is left out
# when its build table holds one row per key and, for INNER, every key of the
# table it probes is among them.  Tables t0..tn are ``(a INTEGER, b INTEGER,
# f DOUBLE, id INTEGER)``; a step's key is ``a``, ``(a, b)`` or ``a = f``
# (``1 = 1.0``), read from one earlier table: the one before it (a snowflake
# chain) or any other.  The reference is ``optimizer=False``, whose binary
# joins emit every column and so leave no step out, and the rule below,
# written out over the stored rows.

ELIMINATION_COLUMNS = [("a", "INTEGER"), ("b", "INTEGER"), ("f", "DOUBLE"), ("id", "INTEGER")]
#: Key name -> (probe columns, build columns), as offsets into a row.
ELIMINATION_KEYS = {"a": ((0,), (0,)), "ab": ((0, 1), (0, 1)), "af": ((0,), (2,))}


def elimination_sql(steps, read) -> str:
    """``steps``: per step (kind, probe table, key name); ``read``: the
    tables whose ``id`` the query selects."""
    names = ("a", "b", "f")
    from_clause = "t0"
    for index, (kind, probe, key) in enumerate(steps, 1):
        left, right = ELIMINATION_KEYS[key]
        conjuncts = [f"t{probe}.{names[l]} = t{index}.{names[r]}" for l, r in zip(left, right)]
        from_clause += f" {kind} JOIN t{index} ON {' AND '.join(conjuncts)}"
    return f"SELECT {', '.join(f't{table}.id' for table in sorted(read))} FROM {from_clause}"


def expected_eliminated(tables, steps, read) -> int:
    """The rule, written out: last step first; a step goes when nothing
    reads its table, its build keys (NULLs aside; ``1 == 1.0``) are
    distinct, and, for INNER, the table it probes is no LEFT step's and
    every one of its rows has a key, wholly non-NULL, among them."""
    read, dropped = set(read), 0
    for index in range(len(steps), 0, -1):
        kind, probe, key = steps[index - 1]
        left, right = ELIMINATION_KEYS[key]
        keys = [tuple(row[c] for c in right) for row in tables[index]]
        keys = [k for k in keys if None not in k]
        goes = index not in read and len(set(keys)) == len(keys)
        if goes and kind == "INNER":
            padded = probe > 0 and steps[probe - 1][0] == "LEFT"
            probed = [tuple(row[c] for c in left) for row in tables[probe]]
            goes = not padded and all(None not in k and k in set(keys) for k in probed)
        if goes:
            dropped += 1
        else:
            read.add(probe)
    return dropped


@st.composite
def keyed_tables(draw):
    """Rows ``(a, b, f, id)``: half the time distinct non-NULL keys in every
    column (``f`` = ``a``), else anything over a small domain."""
    if draw(st.booleans()):
        keys = draw(st.lists(st.integers(0, 2), unique=True, max_size=3))
        rows = [(a, a % 2, float(a)) for a in keys]
    else:
        rows = draw(st.lists(
            st.tuples(st.none() | st.integers(0, 2), st.none() | st.integers(0, 1),
                      st.none() | st.sampled_from([0.0, 1.0, 2.0])),
            max_size=4,
        ))
    return [row + (index,) for index, row in enumerate(rows)]


@st.composite
def eliminations(draw):
    """``(tables, steps, read)``: 1-3 INNER / LEFT steps."""
    count = draw(st.integers(1, 3))
    tables = [draw(keyed_tables()) for _ in range(count + 1)]
    steps = [
        (draw(st.sampled_from(["INNER", "LEFT"])),
         index - 1 if draw(st.booleans()) else draw(st.integers(0, index - 1)),
         draw(st.sampled_from(sorted(ELIMINATION_KEYS))))
        for index in range(1, count + 1)
    ]
    read = draw(st.sets(st.integers(0, count), min_size=1))
    return tables, steps, read


def check_elimination(tables, steps, read) -> int:
    sql = elimination_sql(steps, read)

    def database(**options):
        db = Database(**options)
        for index, rows in enumerate(tables):
            db.create_table_from_rows(f"t{index}", ELIMINATION_COLUMNS, rows)
        return db

    fused, binary = database(), database(optimizer=False)
    rows = fused.execute(sql).rows
    expected = expected_eliminated(tables, steps, read)
    where = f"{sql}\n{tables}"
    assert rows == binary.execute(sql).rows, where  # same rows, same order
    assert fused.last_stats.hash_joins == len(steps) - expected, where
    assert eliminated_steps(fused, sql) == expected, where
    assert binary.last_stats.hash_joins == len(steps)
    return expected


@settings(max_examples=200, deadline=None, derandomize=True)
@given(eliminations())
def test_steps_nobody_reads_go_exactly_when_the_rule_says(case):
    check_elimination(*case)


#: Each trap, once by name: ``(tables, steps, read, steps left out)``.
UNIQUE = [(0, 0, 0.0, 0), (1, 1, 1.0, 1), (2, 0, 2.0, 2)]
ELIMINATION_CASES = {
    "every key holds": ([[(1, 1, 1.0, 0), (2, 0, 2.0, 1)], UNIQUE], [("INNER", 0, "a")], {0}, 1),
    "the build side is read": ([[(1, 1, 1.0, 0)], UNIQUE], [("INNER", 0, "a")], {1}, 0),
    "a dangling key": ([[(1, 1, 1.0, 0), (7, 0, 2.0, 1)], UNIQUE], [("INNER", 0, "a")], {0}, 0),
    "a NULL key": ([[(1, 1, 1.0, 0), (None, 0, 2.0, 1)], UNIQUE], [("INNER", 0, "a")], {0}, 0),
    "a composite key half NULL": (
        [[(1, 1, 1.0, 0), (2, None, 2.0, 1)], UNIQUE], [("INNER", 0, "ab")], {0}, 0),
    "a composite key that holds": (
        [[(1, 1, 1.0, 0), (2, 0, 2.0, 1)], UNIQUE], [("INNER", 0, "ab")], {0}, 1),
    "a repeated build key": (
        [[(1, 1, 1.0, 0)], UNIQUE + [(1, 0, 1.0, 3)]], [("INNER", 0, "a")], {0}, 0),
    "1 and 1.0 are one key": (
        [[(1, 1, 1.0, 0)], [(1, 1, 1.0, 0), (5, 0, 1.0, 1)]], [("INNER", 0, "af")], {0}, 0),
    "1 finds 1.0": ([[(1, 1, 1.0, 0)], UNIQUE], [("INNER", 0, "af")], {0}, 1),
    "an empty probe table": ([[], UNIQUE], [("INNER", 0, "a")], {0}, 1),
    "an empty build table": ([[(1, 1, 1.0, 0)], []], [("INNER", 0, "a")], {0}, 0),
    "LEFT needs only the key": (
        [[(7, 1, 1.0, 0), (None, 0, 2.0, 1)], UNIQUE], [("LEFT", 0, "a")], {0}, 1),
    "LEFT over a repeated key": (
        [[(1, 1, 1.0, 0)], UNIQUE + [(1, 0, 1.0, 3)]], [("LEFT", 0, "a")], {0}, 0),
    "an INNER step probing a LEFT input": (
        [[(1, 1, 1.0, 0), (7, 0, 2.0, 1)], UNIQUE, UNIQUE],
        [("LEFT", 0, "a"), ("INNER", 1, "a")], {0}, 0),
    "a snowflake chain, last first": (
        [[(1, 1, 1.0, 0), (2, 0, 2.0, 1)], UNIQUE, UNIQUE, UNIQUE],
        [("INNER", 0, "a"), ("INNER", 1, "a"), ("INNER", 2, "a")], {0}, 3),
    "a snowflake chain read at its end": (
        [[(1, 1, 1.0, 0), (2, 0, 2.0, 1)], UNIQUE, UNIQUE, UNIQUE],
        [("INNER", 0, "a"), ("INNER", 1, "a"), ("INNER", 2, "a")], {0, 3}, 0),
}


@pytest.mark.parametrize("name", ELIMINATION_CASES)
def test_each_elimination_trap(name):
    tables, steps, read, left_out = ELIMINATION_CASES[name]
    assert expected_eliminated(tables, steps, read) == left_out
    assert check_elimination(tables, steps, read) == left_out


def test_the_verdict_reads_the_build_table_as_the_hash_table_does():
    """``1``, ``1.0`` and ``True`` are one key of the build table, a NULL
    (or a composite key holding one) is none, and a probe key is found
    exactly when the loop would find it."""
    from types import SimpleNamespace

    def verdict(probe_rows, build_rows, key=(0,)):
        probe = SimpleNamespace(rows=probe_rows, stamp=0)
        build = SimpleNamespace(rows=build_rows, stamp=0)
        rule = (None if probe_rows is None else "s", key, "t", key)
        found, table = executor._verdict(rule, probe, build, plans.ValuesPlan([], []), ExecutionContext(None))
        assert table == executor._hash_table(None, build_rows, key, build_rows, ExecutionContext(None))
        return found

    assert verdict([(1,), (True,)], [(1.0,), (2,)])
    assert not verdict([(1,)], [(1,), (True,)]) and not verdict(None, [(1.0,), (1,)])
    assert verdict(None, [(None,), (None,), (1,)])  # NULL keys are left out
    assert not verdict([(None,)], [(None,), (1,)])
    assert not verdict([(1, None)], [(1, None), (1, 0)], key=(0, 1))
    assert verdict([(1, 0)], [(1, None), (1, 0)], key=(0, 1))
    assert verdict([], []) and not verdict([(0,)], [])


def test_a_write_that_breaks_a_key_brings_the_step_back():
    """One planned query, replayed: each write that breaks the key or the
    inclusion brings the step back with the rows the binary joins return,
    and the write that restores it lets the step go again."""
    from repro.profile import Watch
    from repro.workloads.tpch import TPCH_QUERIES, tpch_measure_database

    db = tpch_measure_database(0.001)
    plain = tpch_measure_database(0.001, optimizer=False)
    queries = {name: db.plan_query(parse_query(TPCH_QUERIES[name])) for name in (
        "revenue_by_region", "margin_by_returnflag")}

    def run(name):
        watch = Watch(spans=False)
        result, _ = db.execute_planned(queries[name], watch=watch)
        (pipeline,) = pipelines(queries[name].plan)
        counters = watch._operators[id(pipeline)].counters
        assert result.rows == plain.execute(TPCH_QUERIES[name]).rows, name
        return counters["eliminated_steps"]

    def both(sql, params=()):
        db.execute(sql, params)
        plain.execute(sql, params)

    def insert(table, row):
        both(f"INSERT INTO {table} VALUES ({', '.join('?' * len(row))})", row)

    assert (run("revenue_by_region"), run("margin_by_returnflag")) == (1, 4)
    (line,) = db.execute("SELECT * FROM lineitem LIMIT 1").rows
    insert("lineitem", (line[0], line[1], -1, 99) + line[4:])  # no partsupp (partkey, -1)
    assert run("revenue_by_region") == 0
    both("DELETE FROM lineitem WHERE l_suppkey = -1")
    assert run("revenue_by_region") == 1
    (order,) = db.execute("SELECT * FROM orders WHERE o_orderkey = ?", (line[0],)).rows
    both("DELETE FROM orders WHERE o_orderkey = ?", (line[0],))  # its lineitems dangle
    assert run("margin_by_returnflag") == 3
    insert("orders", order)
    assert run("margin_by_returnflag") == 4
    both("UPDATE nation SET n_nationkey = 99 WHERE n_nationkey = 0")  # customers dangle
    assert run("margin_by_returnflag") == 1  # region's step only
    both("UPDATE nation SET n_nationkey = 0 WHERE n_nationkey = 99")
    assert run("margin_by_returnflag") == 4
    both("UPDATE nation SET n_nationkey = 1 WHERE n_nationkey = 0")  # a repeated key
    assert run("margin_by_returnflag") == 1
    # One verdict per join shape, whatever the writes: none kept per write.
    assert len(db.catalog._join_verdicts) == 5

    uncached = tpch_measure_database(0.001, cache=False)
    rows = uncached.execute(TPCH_QUERIES["margin_by_returnflag"]).rows
    assert rows == tpch_measure_database(0.001, optimizer=False).execute(
        TPCH_QUERIES["margin_by_returnflag"]).rows
    assert uncached.last_stats.hash_joins == 1 and not uncached.catalog._join_verdicts


def test_a_kept_step_probes_the_table_its_verdict_built(db):
    """A verdict found false hands its build table to the step it keeps:
    that table is built, and charged to the memory budget, once, so the run
    that finds the verdict accounts as many bytes as the run that reads it
    from the catalog."""
    db.create_table_from_rows("s", [("k", "INTEGER"), ("v", "INTEGER")], [(1, 10), (7, 20)])
    db.create_table_from_rows("t", [("k", "INTEGER"), ("w", "INTEGER")], [(1, 0), (2, 0)])
    query = db.plan_query(parse_query("SELECT s.v FROM s JOIN t ON s.k = t.k"))
    used = []
    for _ in range(2):
        watch = Watch(spans=False)
        result, _ = db.execute_planned(query, watch=watch)
        assert result.rows == [(10,)]
        used.append(watch.memory_bytes)
    assert used[0] == used[1]


#: A summary whose WHERE joins its source to the other table, the table an
#: INSERT goes into, and the rows that break the key or the inclusion there.
MERGE_CASES = {
    "a dangling row stays behind": (
        "SELECT v, SUM(id) AS n FROM s WHERE id IN (SELECT x.id FROM s x JOIN t y ON x.fk = y.k) GROUP BY v",
        [(1, 1, 10), (2, 9, 20)], [(1, 0), (2, 0)], "s", (3, 2, 30)),
    "a repeated key comes in": (
        "SELECT w, SUM(k) AS n FROM t WHERE k IN (SELECT x.fk FROM s x JOIN t y ON x.fk = y.k) GROUP BY w",
        [(1, 1, 10)], [(1, 0), (2, 0)], "t", (1, 5)),
}


@pytest.mark.parametrize("name", MERGE_CASES)
def test_a_summary_merge_keeps_no_verdict_of_its_delta(name):
    """A summary's plan run over the inserted rows alone, handed in as its
    source table's snapshot: a verdict found over them is no fact of the
    table, so it is not kept under the table's stamp, and the plain join
    after the INSERT still runs the step.  These summaries scan their source
    twice, so the INSERT itself does not merge them (the delta would stand
    for the table in the subquery too): they go stale, and the plan is run
    over the delta by hand, as a merge would."""
    from repro.matview import maintenance

    summary, s_rows, t_rows, into, row = MERGE_CASES[name]

    def database(**options):
        db = Database(**options)
        db.create_table_from_rows("s", [("id", "INTEGER"), ("fk", "INTEGER"), ("v", "INTEGER")], s_rows)
        db.create_table_from_rows("t", [("k", "INTEGER"), ("w", "INTEGER")], t_rows)
        return db

    db, plain = database(), database(optimizer=False)
    db.execute(f"CREATE MATERIALIZED VIEW sv AS {summary}")
    insert = f"INSERT INTO {into} VALUES ({', '.join('?' * len(row))})"
    db.execute(insert, row)
    plain.execute(insert, row)
    stats = db.summary_stats()["sv"]
    assert stats["incremental_merges"] == 0 and stats["stale"]
    maintenance.compute_rows(db, db.catalog.get("sv").definition, [row])
    sql = "SELECT x.id FROM s x JOIN t ON x.fk = t.k"
    assert db.execute(sql).rows == plain.execute(sql).rows
    assert eliminated_steps(db, sql) == 0


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
    rows_out = 600 + 20  # a and b; c is read by nothing, and not run
    for verdict_checks in (2, 0):  # one checkpoint over c's keys, one over b's: once
        progress = Watch(spans=False)
        progress.attach(fan_out)
        rows = execute_plan(fan_out, ExecutionContext(fan_out.catalog, watch=progress))
        assert len(rows) == 600 * 20
        # Three batches of driving rows and one checkpoint per build.
        assert progress.rows_processed == (3 + 1 + verdict_checks) * TICK_ROWS + rows_out + len(rows)
        entry = progress._operators[id(fan_out)]
        assert (entry.label, entry.rows_out, entry.state) == (fan_out.label(), len(rows), "done")


def test_cancel_lands_between_two_batches(fan_out):
    execute_plan(fan_out, ExecutionContext(fan_out.catalog))  # c's step: found not needed
    counting = CancelAfter(float("inf"))
    execute_plan(fan_out, ExecutionContext(fan_out.catalog, cancel_event=counting))
    # Asked at three operators, one build and three batches; stop at the last.
    assert counting.asked == 3 + 1 + 3
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
        ("visible_orders_by_region", 4, "Project(2 of 7) [shared]"),
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


def join_line(db: Database, sql: str) -> str:
    (line,) = [line for line in db.execute("EXPLAIN ANALYZE " + sql).pretty().splitlines() if "Join" in line]
    return line


def test_explain_analyze_counts_the_steps_that_bound_their_row(jdb):
    from repro.workloads.tpch import TPCH_QUERIES, tpch_measure_database

    line = join_line(tpch_measure_database(0.002), TPCH_QUERIES["revenue_by_region"])
    # partsupp's step is not run (nothing reads it): 4 930 build rows less
    # its 1 600; the other four bind their one row.
    assert "eliminated_steps=1 hash_build_rows=3330 hash_probes=11751 unique_steps=4" in line
    # r repeats k = 1: a pipeline step and a binary hash join over buckets.
    line = join_line(jdb, "SELECT lv, rv FROM l JOIN r ON l.k = r.k")
    assert "eliminated_steps=0" in line and "unique_steps=0" in line
    assert "unique_steps=0" in join_line(jdb, "SELECT lv, rv FROM l JOIN r ON l.k = r.k AND rv > 100")
    # r.rv is unique: a FULL join binds its one row too.
    line = join_line(jdb, "SELECT lv, rv FROM l FULL JOIN r ON l.lv = r.rv")
    assert line.lstrip().startswith("Join(FULL)") and "unique_steps=1" in line


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
