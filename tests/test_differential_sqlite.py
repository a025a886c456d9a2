"""Differential testing against SQLite as an oracle.

Randomly generated queries from the plain-SQL subset both engines share are
executed on this engine and on the standard library's sqlite3; results must
agree as multisets.  The generator avoids the dialect's known divergences
(integer division, LIKE case folding, NULL sort position), which are covered
by targeted tests elsewhere.
"""

from __future__ import annotations

import sqlite3

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database, ExecutionError

COLUMNS = ["k", "g", "v", "w"]


rows_strategy = st.lists(
    st.tuples(
        st.integers(0, 4),                      # k
        st.sampled_from(["x", "y", "z"]),       # g
        st.one_of(st.none(), st.integers(-20, 20)),  # v
        st.integers(0, 9),                      # w
    ),
    min_size=0,
    max_size=25,
)


@st.composite
def scalar_expr(draw, depth=0) -> str:
    """A scalar expression both dialects evaluate identically."""
    if depth >= 2 or draw(st.booleans()):
        return draw(
            st.sampled_from(["k", "v", "w", "1", "2", "-3", "0"])
        )
    op = draw(st.sampled_from(["+", "-", "*"]))
    left = draw(scalar_expr(depth + 1))
    right = draw(scalar_expr(depth + 1))
    return f"({left} {op} {right})"


@st.composite
def predicate(draw, depth=0) -> str:
    if depth >= 2 or draw(st.booleans()):
        left = draw(scalar_expr())
        comparison = draw(st.sampled_from(["=", "<>", "<", "<=", ">", ">="]))
        right = draw(scalar_expr())
        base = f"({left} {comparison} {right})"
        if draw(st.booleans()):
            return base
        return draw(
            st.sampled_from(
                [f"(v IS NULL)", f"(v IS NOT NULL)", base, f"(g = 'x')", f"(k IN (1, 2))"]
            )
        )
    connective = draw(st.sampled_from(["AND", "OR"]))
    return f"({draw(predicate(depth + 1))} {connective} {draw(predicate(depth + 1))})"


@st.composite
def simple_query(draw) -> str:
    where = f" WHERE {draw(predicate())}" if draw(st.booleans()) else ""
    if draw(st.booleans()):
        # Aggregate query grouped by g.
        aggs = draw(
            st.lists(
                st.sampled_from(
                    ["COUNT(*)", "COUNT(v)", "SUM(v)", "MIN(v)", "MAX(v)",
                     "SUM(w)", "MIN(w + k)", "COUNT(DISTINCT k)"]
                ),
                min_size=1,
                max_size=3,
            )
        )
        having = ""
        if draw(st.booleans()):
            having = f" HAVING COUNT(*) > {draw(st.integers(0, 2))}"
        return f"SELECT g, {', '.join(aggs)} FROM t{where} GROUP BY g{having}"
    items = draw(
        st.lists(st.one_of(scalar_expr(), st.sampled_from(["g"])), min_size=1, max_size=3)
    )
    distinct = "DISTINCT " if draw(st.booleans()) else ""
    return f"SELECT {distinct}{', '.join(items)} FROM t{where}"


def run_sqlite(rows, sql: str) -> list[tuple]:
    connection = sqlite3.connect(":memory:")
    connection.execute("CREATE TABLE t (k INTEGER, g TEXT, v INTEGER, w INTEGER)")
    connection.executemany("INSERT INTO t VALUES (?, ?, ?, ?)", rows)
    return connection.execute(sql).fetchall()


def run_repro(rows, sql: str) -> list[tuple]:
    db = Database()
    db.create_table_from_rows(
        "t",
        [("k", "INTEGER"), ("g", "VARCHAR"), ("v", "INTEGER"), ("w", "INTEGER")],
        rows,
    )
    return db.execute(sql).rows


def canonical(rows) -> list:
    def key(row):
        return tuple((value is None, value) for value in row)

    return sorted((tuple(row) for row in rows), key=key)


@settings(max_examples=120, deadline=None)
@given(rows_strategy, simple_query())
def test_differential_against_sqlite(rows, sql):
    assert canonical(run_repro(rows, sql)) == canonical(run_sqlite(rows, sql))


@settings(max_examples=60, deadline=None)
@given(rows_strategy)
def test_differential_join(rows):
    sql = """SELECT a.g, b.k FROM t AS a JOIN t AS b ON a.k = b.k
             WHERE a.w > b.w"""
    assert canonical(run_repro(rows, sql)) == canonical(run_sqlite(rows, sql))


@settings(max_examples=60, deadline=None)
@given(rows_strategy)
def test_differential_left_join_aggregate(rows):
    sql = """SELECT a.g, COUNT(b.v) FROM t AS a
             LEFT JOIN t AS b ON a.k = b.k AND b.v IS NOT NULL
             GROUP BY a.g"""
    assert canonical(run_repro(rows, sql)) == canonical(run_sqlite(rows, sql))


@settings(max_examples=60, deadline=None)
@given(rows_strategy)
def test_differential_correlated_subquery(rows):
    sql = """SELECT g, v FROM t AS o
             WHERE v > (SELECT MIN(v) FROM t AS i WHERE i.g = o.g)"""
    assert canonical(run_repro(rows, sql)) == canonical(run_sqlite(rows, sql))


@settings(max_examples=60, deadline=None)
@given(rows_strategy)
def test_differential_union_except(rows):
    sql = """SELECT k FROM t WHERE g = 'x'
             UNION SELECT w FROM t WHERE g = 'y'"""
    assert canonical(run_repro(rows, sql)) == canonical(run_sqlite(rows, sql))
    sql = """SELECT k FROM t EXCEPT SELECT w FROM t"""
    assert canonical(run_repro(rows, sql)) == canonical(run_sqlite(rows, sql))


@settings(max_examples=40, deadline=None)
@given(rows_strategy)
def test_differential_window(rows):
    # NULLS LAST is explicit: SQLite defaults NULLs first, this engine
    # follows PostgreSQL (NULLs last ascending).
    sql = """SELECT g, v, ROW_NUMBER() OVER (PARTITION BY g ORDER BY w, k, v NULLS LAST)
             FROM t"""
    assert canonical(run_repro(rows, sql)) == canonical(run_sqlite(rows, sql))


@settings(max_examples=40, deadline=None)
@given(rows_strategy)
def test_differential_case_expression(rows):
    sql = """SELECT k, CASE WHEN v IS NULL THEN -1 WHEN v > 0 THEN 1 ELSE 0 END
             FROM t"""
    assert canonical(run_repro(rows, sql)) == canonical(run_sqlite(rows, sql))


# -- profiling differential: observation must not perturb results ------------


def run_repro_profiled(rows, sql: str) -> tuple[list[tuple], object]:
    db = Database(profile=True)
    db.create_table_from_rows(
        "t",
        [("k", "INTEGER"), ("g", "VARCHAR"), ("v", "INTEGER"), ("w", "INTEGER")],
        rows,
    )
    result = db.execute(sql)
    return result.rows, db.last_profile()


@settings(max_examples=80, deadline=None)
@given(rows_strategy, simple_query())
def test_differential_profile_on_off(rows, sql):
    """profile=True is pure observation: identical rows (exact order, not
    just multiset), and the profile's root cardinality matches."""
    plain = run_repro(rows, sql)
    profiled, profile = run_repro_profiled(rows, sql)
    assert profiled == plain
    assert profile is not None
    assert profile.result_rows == len(plain)
    assert profile.operator_tree["rows_out"] == len(plain)


@settings(max_examples=40, deadline=None)
@given(rows_strategy)
def test_differential_profile_correlated(rows):
    sql = """SELECT g, v FROM t AS o
             WHERE v > (SELECT MIN(v) FROM t AS i WHERE i.g = o.g)"""
    plain = run_repro(rows, sql)
    profiled, profile = run_repro_profiled(rows, sql)
    assert profiled == plain
    # Against the external oracle too, under profiling.
    assert canonical(profiled) == canonical(run_sqlite(rows, sql))
    assert profile.counters["subquery_executions"] >= 0


# -- telemetry differential: observation must not perturb results ------------


def run_repro_telemetered(rows, sql: str):
    db = Database(telemetry=True)
    db.create_table_from_rows(
        "t",
        [("k", "INTEGER"), ("g", "VARCHAR"), ("v", "INTEGER"), ("w", "INTEGER")],
        rows,
    )
    result = db.execute(sql)
    return result.rows, db


@settings(max_examples=80, deadline=None)
@given(rows_strategy, simple_query())
def test_differential_telemetry_on_off(rows, sql):
    """telemetry=True is pure observation: identical rows (exact order),
    and the recorded metrics agree with what actually ran."""
    plain = run_repro(rows, sql)
    observed, db = run_repro_telemetered(rows, sql)
    assert observed == plain
    tele = db.telemetry
    assert tele.queries_total.value(kind="select", strategy="interpreter") == 1
    assert tele.query_duration_ms.count(kind="select") == 1
    assert tele.rows_returned_total.value() == len(plain)
    # Against the external oracle too, under telemetry.
    assert canonical(observed) == canonical(run_sqlite(rows, sql))


# -- coercion and NULL-propagation edges --------------------------------------
#
# Targeted differential checks for the corners the dataflow analysis reasons
# about statically: strict-operator NULL propagation, BETWEEN's non-strict
# FALSE, three-valued IN, COALESCE/NULLIF, and aggregates over all-NULL input.
# The generator above avoids these shapes, so they get their own exercises.

NULL_EDGE_QUERIES = [
    # Strict operators propagate NULL...
    "SELECT k, v + NULL FROM t",
    "SELECT k, NULL * w FROM t",
    "SELECT k FROM t WHERE v = NULL",
    "SELECT k FROM t WHERE NOT (v <> NULL)",
    # ...but BETWEEN is not strict: 7 BETWEEN NULL AND 5 is FALSE, not NULL.
    "SELECT k, w BETWEEN NULL AND 5 FROM t",
    "SELECT k FROM t WHERE w BETWEEN NULL AND 5",
    # Three-valued IN: v IN (1, NULL) is NULL (not FALSE) when v <> 1.
    "SELECT k FROM t WHERE v IN (1, NULL)",
    "SELECT k FROM t WHERE v NOT IN (1, NULL)",
    # NULL-aware scalar functions.
    "SELECT k, COALESCE(v, -99), NULLIF(w, 0) FROM t",
    "SELECT k, COALESCE(NULL, NULL, v, w) FROM t",
    # CASE: a NULL condition is not TRUE.
    "SELECT k, CASE WHEN v > 0 THEN 'p' WHEN v <= 0 THEN 'n' ELSE '?' END FROM t",
    # Aggregates ignore NULLs; SUM/MIN/MAX of no non-NULL input are NULL.
    "SELECT g, SUM(v), MIN(v), MAX(v), COUNT(v), COUNT(*) FROM t GROUP BY g",
    "SELECT SUM(v), AVG(w) FROM t WHERE v IS NULL",
    # NULL = NULL is NULL, IS NOT DISTINCT FROM treats NULLs as equal.
    "SELECT a.k, b.k FROM t AS a JOIN t AS b ON a.v IS b.v",
]


@settings(max_examples=40, deadline=None)
@given(rows_strategy, st.sampled_from(NULL_EDGE_QUERIES))
def test_differential_null_propagation_edges(rows, sql):
    repro_sql = sql.replace(" IS b.v", " IS NOT DISTINCT FROM b.v")
    assert canonical(run_repro(rows, repro_sql)) == canonical(run_sqlite(rows, sql))


@settings(max_examples=40, deadline=None)
@given(rows_strategy)
def test_differential_inferred_nullability_is_sound(rows):
    """Dataflow soundness against the oracle's data: a column inferred
    non-nullable never holds a NULL produced by either engine."""
    from repro.analysis.dataflow import analyze_plan
    from repro.semantics.binder import Binder
    from repro.sql import parse_query

    sql = "SELECT k, COALESCE(v, 0), v IS NULL, w + 1 FROM t WHERE k >= 0"
    db = Database()
    db.create_table_from_rows(
        "t",
        [("k", "INTEGER"), ("g", "VARCHAR"), ("v", "INTEGER"), ("w", "INTEGER")],
        rows,
    )
    plan, _ = Binder(db.catalog).bind_query_top(parse_query(sql))
    facts = analyze_plan(plan, db.catalog)
    produced = db.execute(sql).rows
    assert canonical(produced) == canonical(run_sqlite(rows, sql))
    for offset, column in enumerate(facts.columns):
        if not column.nullable:
            assert all(row[offset] is not None for row in produced), column.name


# Integer % is exact integer arithmetic with the dividend's sign, like
# SQLite's: operands above 2**53 do not fit a double, and all four sign
# combinations truncate towards zero.
MODULO_OPERANDS = [
    (1000000000000000001, 7),
    (9007199254740993, 2),
    (-1000000000000000001, 7),
    (1000000000000000001, -7),
    (-1000000000000000001, -7),
    (7, 3),
    (-7, 3),
    (7, -3),
    (-7, -3),
]


def test_differential_integer_modulo():
    sql = "SELECT " + ", ".join(f"{a} % {b}" for a, b in MODULO_OPERANDS)
    expected = sqlite3.connect(":memory:").execute(sql).fetchall()
    assert Database().execute(sql).rows == expected
    assert expected[0][:2] == (2, 1)  # not the 1, 0 a double gives
    with pytest.raises(ExecutionError, match="division by zero"):
        Database().execute("SELECT 1000000000000000001 % 0")
