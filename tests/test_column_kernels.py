"""Column kernels (:func:`repro.engine.compile.compile_column`, ``Relation``,
``Slice``): the vector form of an expression has no semantics of its own.

(a) Property: over generated expressions and generated rows — clean numeric
    columns, NULLs, BOOLEANs, dates and strings where numbers are declared,
    mixed columns, no rows at all, ``?`` parameters, literals on either side —
    a column is, value for value and type for type, what the scalar closure
    gives row by row, and fails with the same error when that fails.
(b) Statements with hand-derived answers: an argument that only errors on
    rows no context selects; folds that equal the accumulators bit for bit;
    every aggregate shape that reads rows rather than columns; and the 15
    listings and 7 TPC-H queries against digests of the rows the commit
    before the kernels returned, with the cache and the optimizer on and off.
(c) Sharing, checkpoints and cancellation, by count and never by clock.
"""

from __future__ import annotations

import datetime
import hashlib
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import BindError, Database, ExecutionError
from repro.engine import ExecutionContext, execute_plan
from repro.engine import compile as compiled
from repro.engine.aggregates import make_accumulator
from repro.engine.compile import Column, Relation, Slice, compile_column, compile_expr
from repro.errors import QueryCancelled
from repro.plan import logical as plans
from repro.profile import Watch
from repro.sql import parse_query
from repro.types import NUMERIC_KINDS
from repro.workloads.listings import SETUP, all_listing_sql
from repro.workloads.paper_data import load_paper_tables
from repro.workloads.tpch import TPCH_QUERIES, tpch_measure_database

# -- (a) the column form against the scalar form ----------------------------------

#: a, b, c are declared numeric, so the binder accepts arithmetic over them;
#: what the rows hold there is up to the generator.
SCHEMA = "a INTEGER, b INTEGER, c DOUBLE, d DATE, s VARCHAR, p BOOLEAN"

NUMERIC_COLUMNS = ("a", "b", "c")
_small = st.integers(-6, 6)
_clean = st.one_of(
    _small,
    st.integers(-(2**70), 2**70),
    st.floats(-1e6, 1e6, allow_nan=False).map(lambda f: round(f, 3)),
)
_dirty = st.one_of(
    _clean,
    st.none(),
    st.booleans(),
    st.dates(datetime.date(1990, 1, 1), datetime.date(2030, 1, 1)),
    st.sampled_from(["", "7", "x"]),
)


@st.composite
def numeric_cells(draw):
    """One strategy per numeric column: all ints, all floats, NULL-bearing,
    or anything at all — so a column is often a single kind, sometimes mixed."""
    kind = draw(st.sampled_from(["int", "float", "clean", "nullable", "dirty"]))
    return {
        "int": _small,
        "float": st.floats(-50, 50, allow_nan=False).map(lambda f: round(f, 2)),
        "clean": _clean,
        "nullable": st.one_of(_clean, st.none()),
        "dirty": _dirty,
    }[kind]


@st.composite
def tables(draw):
    cells = [draw(numeric_cells()) for _ in NUMERIC_COLUMNS]
    row = st.tuples(
        *cells,
        st.one_of(st.none(), st.dates(datetime.date(1990, 1, 1), datetime.date(2030, 1, 1))),
        st.one_of(st.none(), st.sampled_from(["", "abc", "7", " 12 "])),
        st.one_of(st.none(), st.booleans()),
    )
    return draw(st.lists(row, min_size=0, max_size=9))


@st.composite
def numeric_sql(draw, depth=0) -> str:
    """An expression the binder types as a number."""
    leaf = st.one_of(
        st.sampled_from(NUMERIC_COLUMNS),
        st.sampled_from(["0", "1", "2", "1.5", "-3", "?"]),
    )
    if depth >= 3 or draw(st.integers(0, 3)) == 0:
        return draw(leaf)
    shape = draw(st.sampled_from(["binary"] * 6 + ["neg", "abs", "year", "length",
                                                     "coalesce", "case", "cast"]))
    sub = numeric_sql(depth + 1)
    if shape == "binary":
        op = draw(st.sampled_from(["+", "-", "*", "/", "%"]))
        return f"({draw(sub)} {op} {draw(sub)})"
    if shape == "neg":
        return f"(- {draw(sub)})"  # "--" would start a comment
    if shape == "abs":
        return f"ABS({draw(sub)})"
    if shape == "year":
        return "YEAR(d)"
    if shape == "length":
        return "LENGTH(s)"
    if shape == "coalesce":
        return f"COALESCE({draw(sub)}, {draw(sub)})"
    if shape == "cast":
        return draw(st.sampled_from(["CAST(s AS INTEGER)", "CAST(a AS DOUBLE)"]))
    # The guarded operand must not be evaluated where the guard says no.
    return f"CASE WHEN {draw(boolean_sql(depth + 1))} THEN {draw(sub)} ELSE {draw(sub)} END"


@st.composite
def boolean_sql(draw, depth=0) -> str:
    sub = numeric_sql(depth + 1)
    shape = draw(st.sampled_from(["compare", "compare", "null", "in", "and", "or", "p"]))
    if shape == "compare":
        op = draw(st.sampled_from(["=", "<>", "<", ">="]))
        return f"({draw(sub)} {op} {draw(sub)})"
    if shape == "null":
        return f"({draw(sub)} IS {draw(st.sampled_from(['', 'NOT ']))}NULL)"
    if shape == "in":
        return f"({draw(sub)} IN (1, {draw(sub)}, NULL))"
    if shape == "p" or depth >= 2:
        return "p"
    return f"({draw(boolean_sql(depth + 1))} {shape.upper()} {draw(boolean_sql(depth + 1))})"


class Bound:
    """Expressions bound against ``SCHEMA``, with their source positions."""

    def __init__(self):
        self.db = Database(optimizer=False)
        self.db.execute(f"CREATE TABLE t ({SCHEMA})")
        self.cache: dict = {}

    def expression(self, sql: str):
        if sql not in self.cache:
            planned = self.db.plan_query(parse_query(f"SELECT (\n{sql}) FROM t"))
            project = next(n for n in planned.plan.walk() if isinstance(n, plans.Project))
            self.cache[sql] = project.exprs[0]
        return self.cache[sql]

    def context(self, params=()):
        return ExecutionContext(self.db.catalog, params=params)


BOUND = Bound()


def outcome(thunk):
    """``("values", [(type, repr), ...])`` or ``("error", class, text, line,
    column)``: what there is to compare, to the bit and to the position."""
    try:
        values = thunk()
    except Exception as exc:  # noqa: BLE001 - the error *is* the outcome
        return ("error", type(exc), str(exc), getattr(exc, "line", None),
                getattr(exc, "column", None))
    return ("values", [(type(value), repr(value)) for value in values])


@settings(max_examples=400, deadline=None, derandomize=True)
@given(tables(), st.one_of(numeric_sql(), boolean_sql()),
       st.lists(st.one_of(_small, st.none(), st.just(2.5)), min_size=0, max_size=2))
def test_column_equals_scalar_value_for_value(rows, sql, params):
    expr = BOUND.expression(sql)
    ctx = BOUND.context(params)
    scalar = compile_expr(expr)
    expected = outcome(lambda: [scalar(row, None, ctx) for row in rows])
    # Through a relation, as every operator reads it: the same values of the
    # same types, or the very error the row loop meets first.
    assert outcome(lambda: Relation(rows).column(expr, None, ctx).values) == expected, sql
    positions = list(range(0, len(rows), 2))
    some = outcome(lambda: [scalar(rows[p], None, ctx) for p in positions])
    owned = Relation(rows, owner=plans.ValuesPlan([], []))
    assert outcome(lambda: owned.column(expr, None, ctx, positions).values) == some, sql
    assert outcome(lambda: owned.column(expr, None, ctx, positions).values) == some, sql
    # The bare kernel: the same values; where the row loop raises, it raises.
    try:
        column = compile_column(expr)(rows, None, ctx)
    except compiled._VALUE_ERRORS:
        assert expected[0] == "error", sql
    else:
        assert outcome(lambda: column.values) == expected, sql
        assert {type(value) for value in column.values} <= column.kinds, sql


def test_the_generator_reaches_both_paths():
    """Guard on the property above: clean columns take the bare operator,
    NULL-bearing and mixed ones the checked one, and both kinds of error
    occur — or the property proves less than it says."""
    expr = BOUND.expression("(a * (1 - c))")
    watch = Watch()
    ctx = ExecutionContext(BOUND.db.catalog, watch=watch)
    clean = [(2, 0, 0.25, None, None, None), (3, 0, 0.5, None, None, None)]
    assert compile_column(expr)(clean, None, ctx).values == [1.5, 1.5]
    assert watch.counters["column.checked_values"] == 0
    nullable = clean + [(None, 0, 0.5, None, None, None)]
    assert compile_column(expr)(nullable, None, ctx).values == [1.5, 1.5, None]
    assert watch.counters["column.checked_values"] == 3  # only a * (...)
    for bad, text in (((True, 0, 0.5), "numeric operator applied to bool"),
                      ((2, 0, "x"), "numeric operator applied to str")):
        with pytest.raises(ExecutionError, match=text):
            Relation(clean + [bad + (None, None, None)]).column(expr, None, ctx)


def test_kinds_are_derived_and_exact():
    ctx = BOUND.context()
    rows = [(2, 3, 0.5, None, None, None), (4, 5, 1.5, None, None, None)]

    def kinds(sql, over=rows):
        return compile_column(BOUND.expression(sql))(over, None, ctx)._kinds

    assert kinds("(a * b)") == {int} and kinds("(a + 1)") == {int}
    assert kinds("(a * c)") == {float} and kinds("(1 - c)") == {float}
    assert kinds("(a / b)") == {float}  # true division
    mixed = [(2, 3, 0.5) + (None,) * 3, (2.5, 3, 0.5) + (None,) * 3]
    assert kinds("(a + b)", mixed) is None  # int and float: look again
    assert compile_column(BOUND.expression("(a + b)"))(mixed, None, ctx).kinds == {int, float}
    # bool is not int, a date is not a number: exact types, never isinstance.
    assert Column([True, 1]).kinds == {bool, int}
    assert not Column([True]).kinds <= NUMERIC_KINDS
    assert not Column([datetime.date(2024, 1, 1)]).kinds <= NUMERIC_KINDS
    assert Column([]).kinds == frozenset() <= NUMERIC_KINDS


def test_division_takes_the_bare_operator_only_without_a_zero():
    expr = BOUND.expression("(a / b)")
    watch = Watch()
    ctx = ExecutionContext(BOUND.db.catalog, watch=watch)
    fine = [(1, 2) + (None,) * 4, (3, 4) + (None,) * 4]
    assert compile_column(expr)(fine, None, ctx).values == [0.5, 0.75]
    assert watch.counters["column.checked_values"] == 0
    for zero in (0, 0.0, -0.0):
        with pytest.raises(ExecutionError, match="division by zero") as excinfo:
            Relation(fine + [(1, zero) + (None,) * 4]).column(expr, None, ctx)
        assert (excinfo.value.line, excinfo.value.column) == (2, 2)  # where a / b starts


def test_the_first_failing_row_is_reported_not_the_first_failing_operator():
    """``(a / b) + (1 / c)``: a kernel evaluates ``a / b`` over every row
    before it looks at ``1 / c``; the row loop fails on row 0's ``1 / c``."""
    expr = BOUND.expression("((a / b) + (1 / c))")
    rows = [(1, 1, 0.0) + (None,) * 3, ("x", 1, 1.0) + (None,) * 3]
    ctx = BOUND.context()
    with pytest.raises(ExecutionError, match="numeric operator applied to str"):
        compile_column(expr)(rows, None, ctx)  # the kernel's own order
    with pytest.raises(ExecutionError, match="division by zero") as excinfo:
        Relation(rows).column(expr, None, ctx)
    assert (excinfo.value.line, excinfo.value.column) == (2, 13)  # where 1 / c starts


def test_a_missing_parameter_is_only_an_error_over_rows():
    expr = BOUND.expression("(a + ?)")
    ctx = BOUND.context(params=())
    assert Relation([]).column(expr, None, ctx).values == []
    with pytest.raises(ExecutionError, match="expects at least 1 parameter"):
        Relation([(1,) * 6]).column(expr, None, ctx)


def test_every_bound_node_type_has_a_column_form():
    """``compile_column`` is total: a node type without a kernel runs its
    scalar closure per row (here: a subquery, CURRENT outside SET, CASE)."""
    db = Database(optimizer=False)
    db.execute("CREATE TABLE t (x INTEGER)")
    db.execute("INSERT INTO t VALUES (1), (2), (3)")
    sql = """SELECT x, (SELECT MAX(x) FROM t AS u WHERE u.x < t.x),
                    CASE WHEN x > 1 THEN 6 / (x - 1) END, x IN (1, 3)
             FROM t ORDER BY x"""
    assert db.execute(sql).rows == [
        (1, None, None, True), (2, 1, 6.0, False), (3, 2, 3.0, True),
    ]


# -- (b) statements ------------------------------------------------------------------


@pytest.fixture
def ratios() -> Database:
    """``m = SUM(y / x)`` over rows where only group ``z`` divides by zero."""
    db = Database()
    db.create_table_from_rows(
        "t",
        [("k", "VARCHAR"), ("x", "INTEGER"), ("y", "INTEGER")],
        [("a", 2, 1), ("a", 4, 2), ("b", 5, 10), ("z", 0, 1), ("b", 1, 3)],
    )
    db.execute("CREATE VIEW v AS SELECT k, x,\n  SUM(y / x) AS MEASURE m FROM t")
    return db


def test_an_argument_that_fails_only_on_unselected_rows_returns_rows(ratios):
    # A group the WHERE removed: the whole-relation column cannot be built
    # (z divides by zero), so each context evaluates its own rows.
    sql = "SELECT k, m FROM v WHERE k <> 'z' GROUP BY k ORDER BY k"
    assert ratios.execute(sql).rows == [("a", 1.0), ("b", 5.0)]
    # AT (WHERE ...) and a pinned SET.
    assert ratios.execute(
        "SELECT k, m AT (WHERE x <> 0) FROM v WHERE k = 'z' GROUP BY k"
    ).rows == [("z", 6.0)]
    assert ratios.execute(
        "SELECT k, m AT (SET k = 'b') FROM v WHERE k = 'a' GROUP BY k"
    ).rows == [("a", 5.0)]
    # FILTER, in a measure and in a plain aggregate.
    assert ratios.execute(
        "SELECT k, SUM(y / x) FILTER (WHERE x <> 0) FROM t GROUP BY k ORDER BY k"
    ).rows == [("a", 1.0), ("b", 5.0), ("z", None)]
    ratios.execute(
        "CREATE VIEW f AS SELECT k, SUM(y / x) FILTER (WHERE x <> 0) AS MEASURE m FROM t"
    )
    assert ratios.execute("SELECT k, m FROM f GROUP BY k ORDER BY k").rows == [
        ("a", 1.0), ("b", 5.0), ("z", None),
    ]


@pytest.mark.parametrize("kwargs", [{}, {"cache": False}, {"optimizer": False}])
def test_and_fails_as_before_once_such_a_row_is_selected(ratios, kwargs):
    db = Database(**kwargs)
    db.create_table_from_rows(
        "t", [("k", "VARCHAR"), ("x", "INTEGER"), ("y", "INTEGER")],
        ratios.execute("SELECT k, x, y FROM t").rows,
    )
    db.execute("CREATE VIEW v AS SELECT k, x,\n  SUM(y / x) AS MEASURE m FROM t")
    for sql in ("SELECT k, m FROM v GROUP BY k ORDER BY k",
                "SELECT AGGREGATE(m) FROM v",
                "SELECT k, m AT (ALL) FROM v WHERE k = 'a' GROUP BY k"):
        with pytest.raises(ExecutionError, match="division by zero") as excinfo:
            db.execute(sql)
        # Where it always pointed: the y / x of the view's definition.
        assert (excinfo.value.line, excinfo.value.column) == (2, 7), sql
    assert db.execute(
        "SELECT k, m FROM v WHERE k <> 'z' GROUP BY k ORDER BY k"
    ).rows == [("a", 1.0), ("b", 5.0)]


def test_plain_group_by_fails_on_a_failing_group():
    db = Database()
    db.create_table_from_rows("t", [("k", "VARCHAR"), ("x", "INTEGER")],
                              [("a", 1), ("z", 0), ("a", 2)])
    with pytest.raises(ExecutionError, match="division by zero"):
        db.execute("SELECT k, SUM(1 / x) FROM t GROUP BY k")
    assert db.execute("SELECT k, SUM(1 / x) FROM t WHERE x <> 0 GROUP BY k").rows == [
        ("a", 1.5)
    ]


def accumulated(func: str, values):
    accumulator = make_accumulator(func)
    for value in values:
        accumulator.add(value)
    return accumulator.result()


def test_folds_equal_the_accumulators_bit_for_bit():
    rng = random.Random(20)
    values = [rng.uniform(-1e6, 1e6) * 10 ** rng.randint(-8, 8) for _ in range(10_000)]
    keys = [rng.choice("abc") for _ in values]
    db = Database()
    db.create_table_from_rows("t", [("k", "VARCHAR"), ("x", "DOUBLE")],
                              list(zip(keys, values)))
    total, mean = db.execute("SELECT SUM(x), AVG(x) FROM t").rows[0]
    assert total == accumulated("SUM", values) and mean == accumulated("AVG", values)
    # Neither is what a compensated or a sorted sum gives: the order matters.
    assert total != math.fsum(values)
    db.execute("CREATE VIEW v AS SELECT k, SUM(x * 1.5) AS MEASURE s, AVG(x) AS MEASURE a FROM t")
    for kwargs in ({}, {"cache": False}):
        twin = Database(**kwargs)
        twin.create_table_from_rows("t", [("k", "VARCHAR"), ("x", "DOUBLE")],
                                    list(zip(keys, values)))
        twin.execute("CREATE VIEW v AS SELECT k, SUM(x * 1.5) AS MEASURE s, "
                     "AVG(x) AS MEASURE a FROM t")
        rows = twin.execute("SELECT k, s, a, s AT (ALL) FROM v GROUP BY k ORDER BY k").rows
        for key, s, a, everything in rows:
            mine = [v for k, v in zip(keys, values) if k == key]
            assert s == accumulated("SUM", [v * 1.5 for v in mine])
            assert a == accumulated("AVG", mine)
            assert everything == accumulated("SUM", [v * 1.5 for v in values])


def test_integer_sums_stay_exact_integers():
    db = Database()
    db.create_table_from_rows("t", [("x", "INTEGER")], [(2**62,), (2**62,), (1,)])
    total, mean, product = db.execute("SELECT SUM(x), AVG(x), SUM(x * x) FROM t").rows[0]
    assert total == 2**63 + 1 and type(total) is int
    assert product == 2 * 2**124 + 1 and type(product) is int
    assert mean == (0.0 + 2**62 + 2**62 + 1) / 3


SHAPES = [("a", "u", 1, 0.5), ("a", "u", 1, 1.5), ("a", "v", 4, None),
          ("b", "u", None, 2.0), ("b", "v", 7, 2.0), ("b", "v", 2, 0.25)]


def shapes_database(**kwargs) -> Database:
    db = Database(**kwargs)
    db.create_table_from_rows(
        "t", [("k", "VARCHAR"), ("g", "VARCHAR"), ("x", "INTEGER"), ("w", "DOUBLE")], SHAPES
    )
    db.execute(
        """CREATE VIEW m AS SELECT k, g,
               SUM(x * 2) AS MEASURE twice,
               COUNT(DISTINCT x) AS MEASURE kinds,
               SUM(x) FILTER (WHERE w > 1) AS MEASURE heavy,
               MAX(w) AS MEASURE top,
               COUNT(*) AS MEASURE n
           FROM t"""
    )
    return db


@pytest.fixture
def shapes() -> Database:
    return shapes_database()


def test_aggregates_that_read_rows_not_columns(shapes):
    rows = shapes.execute(
        """SELECT k, SUM(DISTINCT x), COUNT(DISTINCT x), COUNT(x), COUNT(*),
                  SUM(x) FILTER (WHERE w > 1), AVG(x * w),
                  MIN(x), MAX(w), STRING_AGG(g ORDER BY x DESC, w),
                  ARRAY_AGG(x ORDER BY w DESC NULLS LAST),
                  SUM(x) WITHIN DISTINCT (g, x)
           FROM t GROUP BY k ORDER BY k"""
    ).rows
    assert rows == [
        ("a", 5, 2, 3, 3, 1, 1.0, 1, 1.5, "v,u,u", [1, 1, 4], 5),
        # ORDER BY x DESC: the row whose x is NULL comes first, as it does
        # under a query's or a window's ORDER BY (it used to come last here).
        ("b", 9, 2, 2, 3, 7, 7.25, 2, 2.0, "u,v,v", [7, 2], 9),
    ]
    spread = shapes.execute("SELECT STDDEV(x), VAR_POP(w) FROM t WHERE k = 'a'").rows[0]
    assert spread[0] == pytest.approx(math.sqrt(3.0))
    assert spread[1] == pytest.approx(0.25)
    with pytest.raises(ExecutionError, match="not constant within key"):
        shapes.execute("SELECT SUM(x) WITHIN DISTINCT (k) FROM t")


def test_rollup_and_grouping_sets_slice_one_relation(shapes):
    assert shapes.execute(
        "SELECT k, g, SUM(x * 2), COUNT(*) FROM t GROUP BY ROLLUP (k, g) ORDER BY k, g"
    ).rows == [
        ("a", "u", 4, 2), ("a", "v", 8, 1), ("a", None, 12, 3),
        ("b", "u", None, 1), ("b", "v", 18, 2), ("b", None, 18, 3),
        (None, None, 30, 6),
    ]
    assert shapes.execute(
        "SELECT k, g, twice, n FROM m GROUP BY GROUPING SETS ((k), (g), ()) ORDER BY k, g"
    ).rows == [
        ("a", None, 12, 3), ("b", None, 18, 3),
        (None, "u", 4, 3), (None, "v", 26, 3), (None, None, 30, 6),
    ]


@pytest.mark.parametrize("kwargs", [{}, {"cache": False}, {"optimizer": False}])
def test_measure_shapes_agree_whatever_is_switched_off(kwargs):
    db = shapes_database(**kwargs)
    assert db.execute(
        "SELECT k, twice, kinds, heavy, top, n, twice AT (ALL k) FROM m GROUP BY k ORDER BY k"
    ).rows == [("a", 12, 2, 1, 1.5, 3, 30), ("b", 18, 2, 7, 2.0, 3, 30)]
    # capture_rows: AGGREGATE() under a WHERE sees only the visible rows.
    assert db.execute(
        "SELECT k, AGGREGATE(twice), twice FROM m WHERE g = 'v' GROUP BY k ORDER BY k"
    ).rows == [("a", 8, 12), ("b", 18, 18)]
    # A measure over a measure: the inner context iterates the outer slice.
    db.execute("CREATE VIEW mm AS SELECT k, g, twice + n AS MEASURE both FROM m")
    assert db.execute("SELECT k, both FROM mm GROUP BY k ORDER BY k").rows == [
        ("a", 15), ("b", 21),
    ]


def test_negated_predicates_do_not_share_a_column():
    """Slots are keyed by fingerprint, so a fingerprint must tell ``IS NULL``
    from ``IS NOT NULL`` (and LIKE, BETWEEN, IS DISTINCT FROM from their
    negations) — it did not, and the binder merged the two aggregates."""
    db = Database()
    db.create_table_from_rows("t", [("x", "INTEGER"), ("s", "VARCHAR")],
                              [(1, "ab"), (None, "cd"), (3, "ae")])
    assert db.execute(
        """SELECT COUNTIF(x IS NULL), COUNTIF(x IS NOT NULL),
                  COUNTIF(s LIKE 'a%'), COUNTIF(s NOT LIKE 'a%'),
                  COUNTIF(x BETWEEN 2 AND 4), COUNTIF(x NOT BETWEEN 2 AND 4),
                  COUNTIF(x IS DISTINCT FROM 1), COUNTIF(x IS NOT DISTINCT FROM 1)
           FROM t"""
    ).rows == [(1, 2, 2, 1, 1, 1, 2, 1)]
    assert db.execute(
        "SELECT x IS NULL, COUNT(*) FROM t GROUP BY x IS NULL ORDER BY 1"
    ).rows == [(False, 2), (True, 1)]
    with pytest.raises(BindError, match="must appear in GROUP BY"):
        # It used to bind — as the group key — and print False beside False.
        db.execute("SELECT x IS NULL, x IS NOT NULL FROM t GROUP BY x IS NULL")


#: sha256 (first 16 hex digits) of ``repr(rows)`` at the commit before the
#: kernels — with the cache off and with the optimizer off it printed the
#: same digests.  A changed low bit of one float changes a digest.
PARENT_ROWS = {
    "listing1": "2a75963c0243481d", "listing2": "ff0026e582089157",
    "listing3": "679c6a75d22d88ec", "listing4": "fb9149bfa51a6ae9",
    "listing5": "fb9149bfa51a6ae9", "listing6": "fda42d6dc3876374",
    "listing7": "be033fe210de95cd", "listing8": "8cffbd356afaebcd",
    "listing9": "995f9666bbd7eaa9", "listing10": "34a2cc10943b1b46",
    "listing11": "34a2cc10943b1b46", "listing12_q1": "9e83a7e63ac3764f",
    "listing12_q2": "9e83a7e63ac3764f", "listing12_q3": "9e83a7e63ac3764f",
    "listing12_q4": "9e83a7e63ac3764f",
    "revenue_by_region": "93c2e91a8962f74b",
    "revenue_by_region_year": "7d2531a25bea8860",
    "margin_by_returnflag": "aba5fa3751b0fc1e",
    "orders_by_year": "6fc9793c41a0b9ae",
    "revenue_share_by_region": "de204ddcbb8f6579",
    "revenue_yoy_by_year": "cf630f863ddb6aca",
    "visible_orders_by_region": "39baf5b3930a38de",
}


def digest(rows) -> str:
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


@pytest.mark.parametrize("kwargs", [{}, {"cache": False}, {"optimizer": False}],
                         ids=["default", "cache off", "optimizer off"])
def test_listings_and_tpch_rows_are_the_parents_to_the_bit(kwargs):
    db = Database(**kwargs)
    load_paper_tables(db)
    for ddl in SETUP.values():
        db.execute(ddl)
    got = {name: digest(db.execute(sql).rows) for name, sql in all_listing_sql(db).items()}
    tpch = tpch_measure_database(0.001, **kwargs)
    got.update((name, digest(tpch.execute(sql).rows)) for name, sql in TPCH_QUERIES.items())
    assert got == PARENT_ROWS


def test_a_null_discount_is_checked_per_value_and_matches_sqlite():
    """The same query over a ``lineitem`` with one NULL ``l_discount``: a
    watched execution builds the column in 256-row batches, the batch holding
    the NULL is NULL-bearing, so its arithmetic is checked per value — and
    says so — and the row drops out of the sum as SQL says."""
    import sqlite3

    from repro.workloads.tpch import TPCH_TABLES, TpchConfig, generate_tpch, load_tpch, tpch_measures

    tables = {name: list(rows) for name, rows in generate_tpch(TpchConfig(sf=0.001)).items()}
    discount = [name for name, _ in TPCH_TABLES["lineitem"]].index("l_discount")
    first = list(tables["lineitem"][0])
    first[discount] = None
    tables["lineitem"][0] = tuple(first)
    db = Database(profile=True)
    load_tpch(db, tables=tables)
    tpch_measures(db)
    rows = db.execute(TPCH_QUERIES["revenue_share_by_region"]).rows
    counters = db.last_profile().counters
    assert counters["column.checked_values"] == 2 * 256  # "-" and "*", one batch
    assert counters["column.builds"] == 1 and counters["column.reads"] == 5

    oracle = sqlite3.connect(":memory:")
    for name, columns in TPCH_TABLES.items():
        oracle.execute(f"CREATE TABLE {name} ({', '.join(c for c, _ in columns)})")
        marks = ", ".join("?" for _ in columns)
        oracle.executemany(
            f"INSERT INTO {name} VALUES ({marks})",
            [tuple(v.isoformat() if isinstance(v, datetime.date) else v for v in row)
             for row in tables[name]],
        )
    expected = oracle.execute(
        """SELECT r.r_name, SUM(l.l_extendedprice * (1 - l.l_discount)),
                  SUM(l.l_extendedprice * (1 - l.l_discount)) /
                  (SELECT SUM(l_extendedprice * (1 - l_discount)) FROM lineitem
                     JOIN orders ON l_orderkey = o_orderkey
                     JOIN partsupp ON l_partkey = ps_partkey AND l_suppkey = ps_suppkey)
           FROM lineitem AS l
           JOIN orders AS o ON l.l_orderkey = o.o_orderkey
           JOIN partsupp AS ps ON l.l_partkey = ps.ps_partkey AND l.l_suppkey = ps.ps_suppkey
           JOIN customer AS c ON o.o_custkey = c.c_custkey
           JOIN nation AS n ON c.c_nationkey = n.n_nationkey
           JOIN region AS r ON n.n_regionkey = r.r_regionkey
           GROUP BY r.r_name ORDER BY r.r_name"""
    ).fetchall()
    assert [row[0] for row in rows] == [row[0] for row in expected]
    for mine, theirs in zip(rows, expected):
        assert mine[1:] == pytest.approx(theirs[1:], rel=1e-12)


# -- (c) sharing, checkpoints, cancellation: by count ----------------------------


@pytest.fixture(scope="module")
def tpch() -> Database:
    return tpch_measure_database(0.002, profile=True)


def source_relation(db: Database, sql: str, ctx: ExecutionContext):
    planned = db.plan_query(parse_query(sql))
    rows = execute_plan(planned.plan, ctx)
    (relation,) = ctx.relations.values()
    return rows, relation


def test_two_contexts_share_one_argument_column(tpch):
    sql = TPCH_QUERIES["revenue_share_by_region"]
    tpch.execute(sql)
    counters = tpch.last_profile().counters
    # Five regions and AT (ALL region): six uncached evaluations of one SUM.
    assert counters["measure_evaluations"] - counters["measure_cache_hits"] == 6
    assert counters["column.builds"] == 1
    assert counters["column.reads"] == 5
    assert counters["column.checked_values"] == 0
    assert counters["aggregate_invocations"] == 6
    _, relation = source_relation(tpch, sql, ExecutionContext(tpch.catalog))
    (key,) = relation.slots
    assert key.startswith("*(") and "-(1," in key  # extendedprice * (1 - discount)
    assert relation.slots[key].kinds == {float}
    assert len(relation.slots[key].values) == len(relation.rows)


def test_margin_builds_two_columns_for_three_aggregates(tpch):
    tpch.execute(TPCH_QUERIES["margin_by_returnflag"])
    counters = tpch.last_profile().counters
    # margin = (SUM(rev) - SUM(cost)) / SUM(rev), avg_discount = AVG(discount):
    # three groups x four aggregates; the bare column keeps no slot.
    assert counters["aggregate_invocations"] == 12
    assert counters["column.builds"] == 2
    assert counters["column.reads"] == 3 * 3 - 2
    _, relation = source_relation(
        tpch, TPCH_QUERIES["margin_by_returnflag"], ExecutionContext(tpch.catalog)
    )
    assert len(relation.slots) == 2


def test_a_dimension_is_computed_once_for_the_keys_and_the_index(tpch):
    sql = TPCH_QUERIES["revenue_by_region_year"]
    ctx = ExecutionContext(tpch.catalog, watch=Watch())
    rows, relation = source_relation(tpch, sql, ctx)
    assert len(rows) == 35
    years = [key for key in relation.slots if key.startswith("YEAR(")]
    assert len(years) == 1  # the Project's key and the EqTerm's index: one slot
    counters = ctx.watch.counters
    # YEAR(orderdate) + the revenue argument; quantity and region are bare.
    assert counters["column.builds"] == 2
    # The index read the year the Project built; 35 contexts x 2 measures
    # read their arguments, one of which is a kept column.
    assert counters["column.reads"] == 1 + 35 - 1


def test_without_the_cache_nothing_is_kept_and_nothing_changes(tpch):
    cold = tpch_measure_database(0.002, cache=False, profile=True)
    sql = TPCH_QUERIES["revenue_share_by_region"]
    assert cold.execute(sql).rows == tpch.execute(sql).rows
    counters = cold.last_profile().counters
    assert "column.builds" not in counters and "column.reads" not in counters
    assert counters["column.checked_values"] == 0  # still the bare operators


class BuildWatch:
    """A cancel event that counts how often it is asked, overall and from
    inside a column build, and says yes from the ``trip``-th time on."""

    def __init__(self, trip=None):
        self.building = False
        self.asked_while_building = 0
        self.trip = trip

    def is_set(self) -> bool:
        if self.building:
            self.asked_while_building += 1
            return self.trip is not None and self.asked_while_building >= self.trip
        return False


@pytest.fixture
def watched_builds(monkeypatch):
    watch = BuildWatch()
    build = Relation._build

    def watched(self, expr, ctx):
        watch.building = True
        try:
            return build(self, expr, ctx)
        finally:
            watch.building = False

    monkeypatch.setattr(Relation, "_build", watched)
    return watch


def test_a_watched_column_build_checkpoints_every_256_rows(tpch, watched_builds):
    sql = TPCH_QUERIES["revenue_share_by_region"]
    ctx = ExecutionContext(tpch.catalog, cancel_event=watched_builds)
    rows, relation = source_relation(tpch, sql, ctx)
    assert rows == tpch.execute(sql).rows
    assert len(relation.rows) > 10_000
    assert watched_builds.asked_while_building >= len(relation.rows) // 256


def test_a_cancel_lands_inside_a_column_build(tpch, watched_builds):
    watched_builds.trip = 3  # the third checkpoint of the build
    ctx = ExecutionContext(tpch.catalog, cancel_event=watched_builds)
    planned = tpch.plan_query(parse_query(TPCH_QUERIES["revenue_share_by_region"]))
    with pytest.raises(QueryCancelled):
        execute_plan(planned.plan, ctx)
    assert watched_builds.asked_while_building == 3
    # A cancel is not a row's error: no slot says "no column".
    (relation,) = ctx.relations.values()
    assert relation.slots == {}


def test_progress_accounts_a_columns_bytes_once(tpch):
    sql = TPCH_QUERIES["revenue_share_by_region"]
    planned = tpch.plan_query(parse_query(sql))
    source = next(n for n in planned.plan.walk() if n.shared)

    accounted = []

    class Accounting(Watch):
        def account_bytes(self, plan, nbytes):
            accounted.append((plan, nbytes))
            super().account_bytes(plan, nbytes)

    progress = Accounting(spans=False)
    progress.attach(planned.plan)
    ctx = ExecutionContext(tpch.catalog, watch=progress)
    execute_plan(planned.plan, ctx)
    (relation,) = ctx.relations.values()
    mine = [nbytes for plan, nbytes in accounted if plan is source]
    assert len(mine) == 1 and mine[0] >= 32 * len(relation.rows)


def test_release_drops_the_working_set_and_keeps_the_counters(tpch):
    tpch.execute(TPCH_QUERIES["revenue_share_by_region"])
    stats = tpch.last_stats
    assert stats.hash_joins == 5 and stats.measure_evaluations == 15
    assert not (stats.relations or stats.source_rows_cache or stats.dim_indexes
                or stats.measure_cache or stats.table_snapshots)


def test_slices_build_their_rows_only_when_asked():
    rows = [(i, i * 1.5) for i in range(10)]
    relation = Relation(rows, owner=plans.ValuesPlan([], []))
    part = Slice(relation, [1, 3, 5])
    assert len(part) == 3 and list(part.rows()) == [rows[1], rows[3], rows[5]]
    assert len(Slice(relation)) == 10 and Slice(relation).rows() is rows
    assert list(Slice(relation, [4]).rows()) == [rows[4]] and len(Slice(relation, [])) == 0
    assert Column([1.5, 2, None]).take([0, 1]).values == (1.5, 2)
    assert Column([1, 2], frozenset({int})).take([1])._kinds == {int}
    assert Column([1, None], frozenset({int, type(None)})).take([0])._kinds is None
