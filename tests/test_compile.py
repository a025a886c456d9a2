"""The semantics compiled expressions must carry (:mod:`repro.engine.compile`).

Each case is one predicate driven through every place an operator runs a
compiled closure — Filter, Project, a hash join's residual, an aggregate
``FILTER``, a sort key and a measure formula — so that a specialization in
one of them cannot drift from the others.
"""

from __future__ import annotations

import pytest

from repro import Database, ExecutionError
from repro.engine import ExecutionContext, execute_plan
from repro.engine.compile import Relation, compile_expr, compile_rows, row_getter
from repro.plan import logical as plans
from repro.semantics import bound as b
from repro.types import BOOLEAN, INTEGER, VARCHAR, sql_eq

#: id -> (k, x, y, s); every id has a partner row in ``u`` through ``k``.
ROWS = {1: (1, 0, 10, "a"), 2: (1, 2, 10, "b"), 3: (2, None, 10, "7"), 4: (2, 5, None, "zz")}


@pytest.fixture
def db() -> Database:
    db = Database()
    integers = [(name, "INTEGER") for name in ("id", "k", "x", "y")]
    db.create_table_from_rows(
        "t", [*integers, ("s", "VARCHAR")], [(i, *row) for i, row in ROWS.items()]
    )
    db.create_table_from_rows(
        "u",
        [("k", "INTEGER"), ("tag", "VARCHAR")],
        [(1, "one"), (2, "two"), (3, "three"), (None, "none")],
    )
    return db


#: The predicate always starts at line 2, column 1 of the statement.
CONTEXTS = {
    "filter": "SELECT id FROM t WHERE (\n{e}) ORDER BY id",
    "project": "SELECT id, (\n{e}) FROM t ORDER BY id",
    "join residual": "SELECT a.id FROM t a JOIN u b ON a.k = b.k AND (\n{e}) ORDER BY a.id",
    "aggregate filter": "SELECT k, COUNT(*) FILTER (WHERE (\n{e})) FROM t GROUP BY k ORDER BY k",
    "sort key": "SELECT id FROM t ORDER BY (\n{e}), id",
    "measure formula": (
        "SELECT k, AGGREGATE(m) FROM (SELECT k, COUNT(*) FILTER (WHERE (\n{e}))"
        " AS MEASURE m FROM t) GROUP BY k ORDER BY k"
    ),
}


def expected_rows(context: str, truth: dict) -> list[tuple]:
    """What ``context`` returns when the predicate's value per id is ``truth``."""
    true_ids = [(i,) for i in sorted(truth) if truth[i] is True]
    if context in ("filter", "join residual"):
        return true_ids
    if context == "project":
        return [(i, truth[i]) for i in sorted(truth)]
    if context == "sort key":  # FALSE < TRUE < NULL, ties by id
        rank = {False: 0, True: 1, None: 2}
        return [(i,) for i in sorted(truth, key=lambda i: (rank[truth[i]], i))]
    return [(k, sum(1 for (i,) in true_ids if ROWS[i][0] == k)) for k in (1, 2)]


ONLY_ID_2 = {1: False, 2: True, 3: False, 4: False}

PREDICATES = {
    # AND/OR short-circuit: the guarded division never sees x = 0.
    "x <> 0 AND y / x > 1": {1: False, 2: True, 3: None, 4: None},
    "x = 0 OR y / x > 1": {1: True, 2: True, 3: None, 4: None},
    # Three-valued IN / NOT IN: NULL items, NULL operand.
    "x IN (2, NULL)": {1: None, 2: True, 3: None, 4: None},
    "x NOT IN (2, NULL)": {1: None, 2: False, 3: None, 4: None},
    "x IN (0, 2)": {1: True, 2: True, 3: None, 4: False},
    "x NOT IN (0, 2)": {1: False, 2: False, 3: None, 4: True},
    # CASE with no ELSE is NULL when no arm fires.
    "CASE WHEN x > 1 THEN TRUE END": {1: None, 2: True, 3: None, 4: True},
    # Correlated references one and two scopes up.
    "EXISTS (SELECT 1 FROM u WHERE u.k = x)": ONLY_ID_2,
    "EXISTS (SELECT 1 FROM u WHERE EXISTS (SELECT 1 FROM u u2 WHERE u2.k = x))": ONLY_ID_2,
}


@pytest.mark.parametrize("context", CONTEXTS)
@pytest.mark.parametrize("predicate", PREDICATES)
def test_predicate_means_the_same_everywhere(db, context, predicate):
    rows = db.execute(CONTEXTS[context].format(e=predicate)).rows
    assert rows == expected_rows(context, PREDICATES[predicate])


#: predicate -> (message, column of the innermost failing expression).
FAILURES = {
    "y / x > 1": ("division by zero", 1),
    "1 + CAST(s AS INTEGER) > 0": ("cannot cast 'a' to INTEGER", 5),
    "0 < SQRT(x - 3)": ("invalid argument to SQRT: math domain error", 5),
}


@pytest.mark.parametrize("context", CONTEXTS)
@pytest.mark.parametrize("predicate", FAILURES)
def test_errors_carry_the_innermost_position(db, context, predicate):
    message, column = FAILURES[predicate]
    with pytest.raises(ExecutionError) as caught:
        db.execute(CONTEXTS[context].format(e=predicate))
    assert (caught.value.message, caught.value.line, caught.value.column) == (
        message, 2, column,
    )


@pytest.mark.parametrize("context", CONTEXTS)
def test_too_few_parameters(db, context):
    sql = CONTEXTS[context].format(e="x >= ? AND y >= ?")
    with pytest.raises(ExecutionError, match=r"expects at least 2 parameter\(s\), got 1"):
        db.execute(sql, (0,))
    assert db.execute(sql, (1, 1)).rows == expected_rows(
        context, {1: False, 2: True, 3: None, 4: None}
    )


def test_constructs_out_of_context_fail_at_execution_not_at_compile():
    ctx = ExecutionContext(None)
    stray = b.BoundCase(
        [(b.BoundLiteral(False, INTEGER), b.BoundCurrentDim("d", INTEGER))],
        b.BoundAggCall("SUM", [], False, False, None, INTEGER),
        INTEGER,
    )
    run = compile_expr(stray)  # compiles: neither arm has run yet
    with pytest.raises(ExecutionError, match="aggregate SUM used outside"):
        run((), None, ctx)
    with pytest.raises(ExecutionError, match="CURRENT is only valid inside"):
        compile_expr(stray.whens[0][1])((), None, ctx)


def test_grouping_under_rollup(db):
    rows = db.execute(
        "SELECT k, x, GROUPING(k), GROUPING(x), GROUPING(k, x), COUNT(*) "
        "FROM t GROUP BY ROLLUP(k, x) ORDER BY 1, 2"
    ).rows
    assert rows == [
        (1, 0, 0, 0, 0, 1),
        (1, 2, 0, 0, 0, 1),
        (1, None, 0, 1, 1, 2),
        (2, 5, 0, 0, 0, 1),
        (2, None, 0, 0, 0, 1),
        (2, None, 0, 1, 1, 2),
        (None, None, 1, 1, 3, 4),
    ]


def test_column_only_lists_of_every_width(db):
    def column(offset):
        return b.BoundColumn(offset, INTEGER)

    rows = [(1, 2, 3), (4, 5, 6)]
    ctx = ExecutionContext(db.catalog)
    for offsets in ([], [2], [2, 0], [0, 1, 2]):
        expected = [tuple(row[o] for o in offsets) for row in rows]
        assert [row_getter(offsets)(row) for row in rows] == expected
        project = compile_rows([column(o) for o in offsets])
        assert project(Relation(rows), None, ctx) == expected
    # ... and through SQL: no group key, one column, many columns.
    assert db.execute("SELECT COUNT(*) FROM t").rows == [(4,)]
    assert db.execute("SELECT x FROM t ORDER BY id").rows == [(0,), (2,), (None,), (5,)]
    assert db.execute("SELECT y, id, k FROM t WHERE id = 4").rows == [(None, 4, 2)]


@pytest.fixture
def sides() -> Database:
    db = Database()
    keys = [("k", "INTEGER"), ("k2", "INTEGER")]
    db.create_table_from_rows(
        "l", [*keys, ("v", "VARCHAR")], [(1, 1, "l1"), (None, 1, "l-null"), (4, None, "l4")]
    )
    db.create_table_from_rows(
        "r", [*keys, ("w", "VARCHAR")], [(1, 1, "r1"), (None, 1, "r-null"), (5, None, "r5")]
    )
    return db


MATCH = ("l1", "r1")
LEFT_ONLY = [("l-null", None), ("l4", None)]
RIGHT_ONLY = [(None, "r-null"), (None, "r5")]
PADDING = {
    "INNER": [MATCH],
    "LEFT": [MATCH, *LEFT_ONLY],
    "RIGHT": [MATCH, *RIGHT_ONLY],
    "FULL": [MATCH, *LEFT_ONLY, *RIGHT_ONLY],
}


@pytest.mark.parametrize("kind", PADDING)
@pytest.mark.parametrize(
    "condition",
    ["l.k = r.k", "l.k = r.k AND l.k2 = r.k2", "l.k = r.k AND l.v < r.w"],
    ids=["one key", "composite key", "key and residual"],
)
def test_null_hash_keys_never_match(sides, kind, condition):
    rows = sides.execute(f"SELECT v, w FROM l {kind} JOIN r ON {condition}").rows
    assert sorted(rows, key=repr) == sorted(PADDING[kind], key=repr)
    assert sides.last_stats.hash_joins == 1


@pytest.mark.parametrize("kind", PADDING)
def test_unhashable_hash_keys_fall_back_to_the_nested_loop(kind):
    # No SQL type holds an unhashable value in a hash-compatible column, so
    # the plan is built by hand: the key columns carry Python lists.
    def side(name, rows):
        schema = [(f"{name}k", INTEGER), (name, VARCHAR)]
        cells = [
            [b.BoundLiteral(key, INTEGER), b.BoundLiteral(tag, VARCHAR)]
            for key, tag in rows
        ]
        return plans.ValuesPlan(cells, schema)

    left = side("v", [([1], "l1"), (None, "l-null"), ([4], "l4")])
    right = side("w", [([1], "r1"), (None, "r-null"), ([5], "r5")])
    condition = b.BoundCall(
        "=", [b.BoundColumn(0, INTEGER), b.BoundColumn(2, INTEGER)], BOOLEAN, sql_eq
    )
    join = plans.Join(kind, left, right, condition, left.schema + right.schema)
    ctx = ExecutionContext(None)
    rows = [(row[1], row[3]) for row in execute_plan(join, ctx)]
    assert sorted(rows, key=repr) == sorted(PADDING[kind], key=repr)
    assert (ctx.hash_joins, ctx.nested_loop_joins) == (1, 0)  # it bailed out


def test_set_current_value_compiles_once(monkeypatch):
    """``AT (SET d = CURRENT d - 1)`` evaluates its value per call-site row;
    the expression compiles once, with ``CURRENT d`` read from the incoming
    context at call time (it used to be rebuilt and recompiled per row)."""
    from repro.engine import compile as compiler

    db = Database()
    rows = [(1990 + i % 20, i) for i in range(240)]
    db.create_table_from_rows("sales", [("y", "INTEGER"), ("v", "INTEGER")], rows)
    db.execute("CREATE VIEW sales_m AS SELECT y, SUM(v) AS MEASURE total FROM sales")
    by_year: dict = {}
    for year, value in rows:
        by_year[year] = by_year.get(year, 0) + value

    built = []
    build_call = compiler._SCALAR[b.BoundCall]
    monkeypatch.setitem(
        compiler._SCALAR,
        b.BoundCall,
        lambda expr, sub: built.append(expr.op) or build_call(expr, sub),
    )
    result = db.execute(
        "SELECT y, total AT (SET y = CURRENT y - 1) AS previous FROM sales_m"
    ).rows
    assert len(result) == 240  # one evaluation of the SET value per row
    assert [previous for _, previous in result] == [
        by_year.get(year - 1) for year, _ in rows
    ]
    assert built.count("-") == 1
