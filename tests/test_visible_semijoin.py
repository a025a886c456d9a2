"""VISIBLE as a hash semijoin == VISIBLE as docs/SEMANTICS.md states it.

The engine evaluates a ``Visible(P, R, ι)`` term by splitting ``P`` once
(local / outer / key / residual conjuncts), indexing the group ``R`` once and
enumerating candidates from the group side.  :func:`reference_visible` swaps
in the definition itself — for every candidate, rescan ``R`` and evaluate
every conjunct on ``g[ι ← dims(s)]`` — and every query below must return the
same rows both ways, on the default database and with the cache or the
optimizer off.  The work the semijoin does is asserted through the
``visible.*`` / ``semimatch.*`` profiler counters: counts, not clocks.
"""

from __future__ import annotations

import datetime
import sqlite3
from contextlib import contextmanager

import pytest

from repro import Database
from repro.core.context import VisibleTerm
from repro.engine.compile import Relation, Slice, compile_expr, slot_key
from repro.errors import ExecutionError
from repro.workloads.tpch import (
    TPCH_QUERIES,
    TPCH_TABLES,
    TpchConfig,
    generate_tpch,
    tpch_measure_database,
)
from tests.test_differential_tpch import ORACLES


def _group_rows(term: VisibleTerm) -> list:
    """``R`` as FROM rows.  Where every conjunct reads only ``ι``, ``g``
    outside ``ι`` is never read — the engine groups no FROM row for it (the
    Aggregate may group the measure's source instead) — so each row of the
    group stands as a row of NULLs."""
    if term.info.reads_group_rows:
        return list(term.group.rows())
    return [(None,) * term.info.range_end] * len(term.group)


def _reference_test(term: VisibleTerm, source_row: tuple, ctx) -> bool:
    """``Visible(P, R, ι)``: accept ``s`` iff ∃ ``g ∈ R`` with every
    conjunct of ``P`` TRUE on ``g[ι ← dims(s)]``."""
    info = term.info
    dims = tuple(
        None if expr is None else compile_expr(expr)(source_row, None, ctx)
        for expr in info.offset_dim_exprs
    )
    for g in _group_rows(term):
        substituted = g[: info.range_start] + dims + g[info.range_end :]
        if all(
            compile_expr(pred)(substituted, term.parent_env, ctx) is True
            for pred in info.preds
        ):
            return True
    return False


@contextmanager
def reference_visible():
    """Every VISIBLE term tests every candidate by the definition above."""
    patch = pytest.MonkeyPatch()
    patch.setattr(VisibleTerm, "test", _reference_test)
    patch.setattr(VisibleTerm, "probe_keys", lambda term, ctx: None)
    patch.setattr(VisibleTerm, "narrow", lambda term, relation, candidates, ctx: None)
    try:
        yield
    finally:
        patch.undo()


CUST = [
    ("Alice", "FR", "A", 30, True),
    ("Bob", "FR", "B", 40, False),
    ("Cara", "DE", "A", 25, True),
    ("Dan", None, "B", 50, False),
    ("Eve", "US", None, 35, True),
    ("Fay", "DE", "A", 45, None),
    ("Gus", "JP", "B", 20, False),
]
NATIONS = [
    ("FR", "EU", 67, 1),
    ("DE", "EU", 83, 0),
    ("US", "NA", 330, 1),
    (None, "XX", 1, 1),
    ("BR", "SA", 214, 0),
]
SEGS = [
    ("A", "FR", 1),
    ("A", "DE", 2),
    ("B", "FR", 3),
    (None, "US", 4),
    ("B", None, 5),
    ("A", "DE", 6),
]


def build(**options) -> Database:
    db = Database(**options)
    db.create_table_from_rows(
        "cust",
        [("name", "VARCHAR"), ("nation", "VARCHAR"), ("seg", "VARCHAR"),
         ("age", "INTEGER"), ("vip", "BOOLEAN")],
        CUST,
    )
    db.create_table_from_rows(
        "nations",
        [("code", "VARCHAR"), ("region", "VARCHAR"), ("pop", "INTEGER"),
         ("flag", "INTEGER")],
        NATIONS,
    )
    db.create_table_from_rows(
        "segs",
        [("seg", "VARCHAR"), ("nation", "VARCHAR"), ("weight", "INTEGER")],
        SEGS,
    )
    db.execute(
        """CREATE VIEW cust_m AS
           SELECT name, nation, seg, age, vip,
                  COUNT(*) AS MEASURE n, SUM(age) AS MEASURE ages
           FROM cust"""
    )
    # ``label`` comes from ``segs``: a column of the re-exported relation
    # that is not a dimension of the measure.
    db.execute(
        """CREATE VIEW tagged AS
           SELECT c.name, c.nation, s.weight AS label, c.n
           FROM cust_m AS c JOIN segs AS s ON c.seg = s.seg"""
    )
    return db


#: name -> (sql, params).  Every ORDER BY is total, so rows compare as lists.
CASES: dict[str, tuple[str, tuple]] = {
    "single relation, local conjuncts only": (
        """SELECT nation, n AT (VISIBLE) AS viz, n, AGGREGATE(ages)
           FROM cust_m WHERE seg <> 'B' AND age < 45
           GROUP BY nation ORDER BY nation NULLS LAST""", ()),
    "inner equi-join": (
        """SELECT g.region, AGGREGATE(c.n), AGGREGATE(c.ages), c.n
           FROM cust_m AS c JOIN nations AS g ON c.nation = g.code
           WHERE g.pop > 50 GROUP BY g.region ORDER BY g.region""", ()),
    "inner equi-join, grouped on the measure side too": (
        """SELECT g.region, c.seg, AGGREGATE(c.n)
           FROM cust_m AS c JOIN nations AS g ON g.code = c.nation
           WHERE c.age > 20 GROUP BY g.region, c.seg
           ORDER BY g.region, c.seg NULLS LAST""", ()),
    "composite keys": (
        """SELECT s.weight, AGGREGATE(c.n), AGGREGATE(c.ages)
           FROM cust_m AS c JOIN segs AS s
             ON c.seg = s.seg AND c.nation = s.nation
           GROUP BY s.weight ORDER BY s.weight""", ()),
    "composite keys, one group": (
        """SELECT AGGREGATE(c.n), COUNT(*)
           FROM cust_m AS c JOIN segs AS s
             ON c.seg = s.seg AND s.nation = c.nation""", ()),
    "left join": (
        """SELECT g.region, AGGREGATE(c.n), COUNT(*)
           FROM cust_m AS c LEFT JOIN nations AS g ON c.nation = g.code
           GROUP BY g.region ORDER BY g.region NULLS LAST""", ()),
    "left join, filter on the padded side": (
        """SELECT c.seg, AGGREGATE(c.n)
           FROM cust_m AS c LEFT JOIN nations AS g ON c.nation = g.code
           WHERE g.pop IS NULL OR g.pop > 70
           GROUP BY c.seg ORDER BY c.seg NULLS LAST""", ()),
    "right join": (
        """SELECT g.region, AGGREGATE(c.n), COUNT(*)
           FROM cust_m AS c RIGHT JOIN nations AS g ON c.nation = g.code
           GROUP BY g.region ORDER BY g.region""", ()),
    "full join": (
        """SELECT g.region, c.n AT (VISIBLE), COUNT(*)
           FROM nations AS g FULL JOIN cust_m AS c ON c.nation = g.code
           WHERE c.age IS NOT NULL OR g.pop > 100
           GROUP BY g.region ORDER BY g.region NULLS LAST""", ()),
    "key on a column that is not a dimension": (
        """SELECT s.seg, AGGREGATE(t.n), COUNT(*)
           FROM tagged AS t JOIN segs AS s ON t.label = s.weight
           GROUP BY s.seg ORDER BY s.seg NULLS LAST""", ()),
    "non-equi cross-relation conjunct": (
        """SELECT g.code, AGGREGATE(c.n)
           FROM cust_m AS c JOIN nations AS g ON c.age < g.pop
           WHERE g.flag = 1 GROUP BY g.code ORDER BY g.code NULLS LAST""", ()),
    "computed join key (no column equality)": (
        """SELECT g.region, AGGREGATE(c.n)
           FROM cust_m AS c JOIN nations AS g ON c.nation || '' = g.code
           GROUP BY g.region ORDER BY g.region""", ()),
    "key plus a non-equi conjunct": (
        """SELECT g.region, AGGREGATE(c.ages)
           FROM cust_m AS c JOIN nations AS g
             ON c.nation = g.code AND c.age * 2 < g.pop
           GROUP BY g.region ORDER BY g.region""", ()),
    "parameter and uncorrelated subquery in WHERE": (
        """SELECT g.region, AGGREGATE(c.n)
           FROM cust_m AS c JOIN nations AS g ON c.nation = g.code
           WHERE g.pop > ? AND c.age > (SELECT MIN(age) FROM cust)
           GROUP BY g.region ORDER BY g.region""", (60,)),
    "correlated subquery in WHERE": (
        """SELECT c.nation, n AT (VISIBLE), n
           FROM cust_m AS c
           WHERE EXISTS (SELECT 1 FROM segs AS s WHERE s.nation = c.nation)
             AND c.seg <> ?
           GROUP BY c.nation ORDER BY c.nation NULLS LAST""", ("B",)),
    "rollup": (
        """SELECT nation, seg, AGGREGATE(n), n
           FROM cust_m WHERE age > 26 GROUP BY ROLLUP(nation, seg)
           ORDER BY nation NULLS LAST, seg NULLS LAST, 3""", ()),
    "grouping sets over a join": (
        """SELECT g.region, c.seg, AGGREGATE(c.n), GROUPING(g.region, c.seg) AS gid
           FROM cust_m AS c JOIN nations AS g ON c.nation = g.code
           WHERE c.age <> 40
           GROUP BY GROUPING SETS ((g.region, c.seg), (g.region), (c.seg), ())
           ORDER BY gid, g.region NULLS LAST, c.seg NULLS LAST""", ()),
    "row grain": (
        """SELECT c.name, c.n AT (VISIBLE), c.n AT (ALL name VISIBLE)
           FROM cust_m AS c JOIN nations AS g ON c.nation = g.code
           WHERE g.pop > 70 ORDER BY c.name""", ()),
    "row grain, one relation": (
        """SELECT name, n AT (ALL name VISIBLE), ages AT (ALL VISIBLE)
           FROM cust_m WHERE seg = 'A' ORDER BY name""", ()),
    "all dim visible": (
        """SELECT nation, n AT (ALL nation VISIBLE), n AT (VISIBLE ALL nation)
           FROM cust_m WHERE seg <> 'B' GROUP BY nation
           ORDER BY nation NULLS LAST""", ()),
    "empty global group": (
        "SELECT AGGREGATE(n), AGGREGATE(ages), n FROM cust_m WHERE age > 1000", ()),
    "empty global group over a join": (
        """SELECT AGGREGATE(c.n), COUNT(*)
           FROM cust_m AS c JOIN nations AS g ON c.nation = g.code
           WHERE g.pop < 0""", ()),
    "outer conjuncts only (cross join)": (
        """SELECT g.region, AGGREGATE(c.n)
           FROM cust_m AS c CROSS JOIN nations AS g
           WHERE g.pop > 100 GROUP BY g.region ORDER BY g.region""", ()),
}

OPTIONS = {"default": {}, "cache off": {"cache": False}, "optimizer off": {"optimizer": False}}


@pytest.fixture(scope="module", params=OPTIONS, ids=list(OPTIONS))
def db(request) -> Database:
    return build(**OPTIONS[request.param])


@pytest.mark.parametrize("name", CASES)
def test_semijoin_equals_the_definition(name, db):
    sql, params = CASES[name]
    got = db.execute(sql, params).rows
    with reference_visible():
        expected = db.execute(sql, params).rows
    assert got == expected
    assert got, "a case that returns nothing tests nothing"


def test_the_reference_is_not_vacuous(db):
    """Hand-derived answers for the cases whose rules are easiest to get
    wrong, so engine and reference cannot be wrong together."""

    def run(name):
        return db.execute(*CASES[name]).rows

    # FR, DE (pop > 50) are EU: Alice, Bob, Cara, Fay; US: Eve.  Dan's NULL
    # nation and the NULL-coded nation never join.
    assert run("inner equi-join") == [("EU", 4, 140, 7), ("NA", 1, 35, 7)]
    # Cara and Fay each match both ('A', 'DE') rows; a measure counts its
    # own grain, so weight 2 and weight 6 see two customers each.
    assert run("composite keys") == [(1, 1, 30), (2, 2, 70), (3, 1, 40), (6, 2, 70)]
    assert run("composite keys, one group") == [(4, 6)]
    # The padded rows (Dan: no nation; Gus: JP not listed) form the NULL
    # group, and NULL = nation is never TRUE: nobody is visible through it.
    assert run("left join") == [("EU", 4, 4), ("NA", 1, 1), (None, 0, 2)]
    # ``label`` is no dimension: NULL is substituted and the key never matches.
    assert {row[1] for row in run("key on a column that is not a dimension")} == {0}
    assert run("empty global group") == [(0, None, 7)]
    assert run("empty global group over a join") == [(0, 0)]
    assert run("outer conjuncts only (cross join)") == [("NA", 7), ("SA", 7)]


def test_mixed_type_equality_is_not_hashed():
    """BOOLEAN = INTEGER is a type error under SQL ``=``; hashing would have
    matched True with 1.  It raises what the definition raises."""
    db = build()
    sql = """SELECT g.region, AGGREGATE(c.n)
             FROM cust_m AS c JOIN nations AS g ON c.nation = g.code
             WHERE c.vip = g.flag GROUP BY g.region"""
    with pytest.raises(ExecutionError) as got:
        db.execute(sql)
    with reference_visible(), pytest.raises(ExecutionError) as expected:
        db.execute(sql)
    assert str(got.value) == str(expected.value)
    assert "cannot compare" in str(got.value)


def test_unhashable_keys_scan_instead():
    """No SQL type puts an unhashable value in a hash-compatible column, so
    the term is built by hand: the key columns carry Python lists.  The key
    conjuncts go back to the residual, as in the hash join."""
    from repro.core.context import VisibleInfo
    from repro.engine.evaluator import ExecutionContext
    from repro.semantics import bound as b
    from repro.types import BOOLEAN, INTEGER, sql_eq

    # FROM row: [measure relation's column, the other input's column].
    key_pred = b.BoundCall(
        "=", [b.BoundColumn(0, INTEGER), b.BoundColumn(1, INTEGER)], BOOLEAN, sql_eq
    )
    info = VisibleInfo(
        range_start=0,
        range_end=1,
        offset_dim_exprs=[b.BoundColumn(0, INTEGER)],
        keys=[(0, 1)],
        key_preds=[key_pred],
    )
    ctx = ExecutionContext(None)
    candidates = [([1],), ([2],), (None,), ([3],)]

    def verdicts(group_rows):
        term = VisibleTerm(info, Slice(Relation(group_rows)), None)
        assert [term.test(row, ctx) for row in candidates] == [
            _reference_test(VisibleTerm(info, Slice(Relation(group_rows)), None), row, ctx)
            for row in candidates
        ]
        return term

    unhashable_group = (([9], [1]), ([9], None), ([9], [3]))
    term = verdicts(unhashable_group)
    assert term.probe_keys(ctx) is None  # no table: nothing to enumerate from
    assert term.residual_rows > 0

    # Hashable group rows, unhashable candidates: the lookup itself fails,
    # and comparing a list with an integer is the definition's type error.
    term = VisibleTerm(info, Slice(Relation(((9, 1), (9, 3)))), None)
    assert list(term.probe_keys(ctx)) == [1, 3]
    for row in ([1],), ([2],):
        with pytest.raises(ExecutionError, match="cannot compare"):
            term.test(row, ctx)
        with pytest.raises(ExecutionError, match="cannot compare"):
            _reference_test(term, row, ctx)
    assert term.test((None,), ctx) is False
    assert term.test((3,), ctx) is True


# -- the work done, by count ---------------------------------------------------

# -- local conjuncts, read as columns of the source -----------------------------
#
# A local conjunct reads only the measure relation, so it is rewritten once
# over the source row and read as a column at the candidates.  Each shape
# below must give what the cache-free and optimizer-free databases give (the
# former tests every candidate), and what SQLite gives on the expansion.

VISITS = [
    ("Ann", datetime.date(2019, 5, 1), 10),
    ("Ann", datetime.date(2021, 3, 2), 20),
    ("Ann", datetime.date(2022, 7, 9), 5),
    ("Ben", datetime.date(2020, 1, 1), 30),
    ("Ben", datetime.date(2023, 2, 2), 12),
    ("Cy", datetime.date(2021, 12, 31), 15),
    ("Cy", None, 8),
    ("Zed", datetime.date(2022, 1, 1), 7),  # 10.0 / (spend - 7) fails here
]


def build_local(**options) -> Database:
    db = build(**options)
    db.create_table_from_rows(
        "visits", [("name", "VARCHAR"), ("day", "DATE"), ("spend", "INTEGER")], VISITS
    )
    db.execute(
        """CREATE VIEW visits_m AS
           SELECT name, YEAR(day) AS visitYear, spend,
                  SUM(spend) AS MEASURE total, COUNT(*) AS MEASURE n
           FROM visits"""
    )
    return db


#: name -> (sql, params, whether the local conjuncts are read as columns).
LOCAL_CASES: dict[str, tuple[str, tuple, bool]] = {
    "expression dimension": (
        """SELECT name, AGGREGATE(total), total, AGGREGATE(n)
           FROM visits_m WHERE visitYear > 2020
           GROUP BY name ORDER BY name""", (), True),
    "range column that is no dimension": (
        """SELECT nation, AGGREGATE(n), COUNT(*)
           FROM tagged WHERE label > 1
           GROUP BY nation ORDER BY nation NULLS LAST""", (), True),
    "parameter": (
        """SELECT visitYear, AGGREGATE(total), total
           FROM visits_m WHERE spend > ?
           GROUP BY visitYear ORDER BY visitYear NULLS LAST""", (9,), True),
    "correlated": (
        """SELECT v.name, v.spend,
                  (SELECT AGGREGATE(w.total) FROM visits_m AS w
                   WHERE w.spend > v.spend) AS above
           FROM visits AS v ORDER BY v.name, v.spend""", (), False),
    "fails only outside every candidate set": (
        """SELECT name, AGGREGATE(n), AGGREGATE(total)
           FROM visits_m WHERE name <> 'Zed' AND 10.0 / (spend - 7) > 0
           GROUP BY name ORDER BY name""", (), True),
}


@pytest.fixture(scope="module")
def sqlite_local():
    """The same tables in SQLite (dates as ISO text, BOOLEAN as 0 / 1), with
    the YEAR the expansion calls."""
    connection = sqlite3.connect(":memory:")
    for name, columns, rows in (
        ("cust", "name, nation, seg, age, vip", CUST),
        ("nations", "code, region, pop, flag", NATIONS),
        ("segs", "seg, nation, weight", SEGS),
        ("visits", "name, day, spend", VISITS),
    ):
        connection.execute(f"CREATE TABLE {name} ({columns})")
        marks = ", ".join("?" for _ in columns.split(","))
        connection.executemany(
            f"INSERT INTO {name} VALUES ({marks})",
            [tuple(v.isoformat() if isinstance(v, datetime.date) else v for v in row)
             for row in rows],
        )
    connection.create_function("YEAR", 1, lambda text: None if text is None else int(text[:4]))
    connection.create_aggregate("ANY_VALUE", 1, _AnyValue)
    return connection


class _AnyValue:
    def __init__(self):
        self.value = None

    def step(self, value):
        self.value = value

    def finalize(self):
        return self.value


@pytest.mark.parametrize("name", LOCAL_CASES)
def test_local_conjuncts_as_columns_agree_everywhere(name, sqlite_local):
    sql, params, masked = LOCAL_CASES[name]
    db = build_local(profile=True)
    got = db.execute(sql, params).rows
    assert got, "a case that returns nothing tests nothing"
    for options in ({"cache": False}, {"optimizer": False}):
        assert build_local(**options).execute(sql, params).rows == got, options
    with reference_visible():
        assert db.execute(sql, params).rows == got
    expanded = db.expand(sql)
    # One ``?`` per use in the text: the one parameter, repeated.
    assert sqlite_local.execute(expanded, params * expanded.count("?")).fetchall() == got
    db.execute(sql, params)
    counters = db.last_profile().counters
    if masked:
        assert counters["visible.masked"] > 0 and counters["visible.probes"] == 0
    else:  # a correlated conjunct: still tested per candidate
        assert counters["visible.masked"] == 0 and counters["visible.probes"] > 0


def test_the_local_cases_mean_what_they_say():
    db = build_local()

    def run(name):
        sql, params, _ = LOCAL_CASES[name]
        return db.execute(sql, params).rows

    # Ann visited after 2020 twice (20 + 5) of three visits; Cy's NULL year
    # is not after 2020, so one of Cy's two visits is visible.
    assert run("expression dimension") == [
        ("Ann", 25, 35, 2), ("Ben", 12, 42, 1), ("Cy", 15, 23, 1), ("Zed", 7, 7, 1),
    ]
    # NULL > 1 is never TRUE: nobody is visible through ``label``.
    assert {row[1] for row in run("range column that is no dimension")} == {0}
    assert run("fails only outside every candidate set") == [
        ("Ann", 2, 30), ("Ben", 2, 42), ("Cy", 2, 23),
    ]
    # And the conjunct does fail on Zed's row, once a candidate set holds it.
    with pytest.raises(ExecutionError, match="division by zero"):
        db.execute("SELECT AGGREGATE(n) FROM visits_m WHERE 10.0 / (spend - 7) > 0 OR name = 'Zed'")


CANONICAL = TPCH_QUERIES["visible_orders_by_region"]
JOINED = (
    "SELECT n.n_name, AGGREGATE(o.order_count) FROM tpch_orders_m AS o "
    "JOIN nation AS n ON o.nation = n.n_name "
    "WHERE n.n_regionkey < 3 GROUP BY n.n_name ORDER BY n.n_name"
)


def visible_counters(db: Database, sql: str) -> dict[str, int]:
    db.profile_enabled = True
    try:
        db.execute(sql)
        counters = db.last_profile().counters
    finally:
        db.profile_enabled = False
    return {
        name: count for name, count in counters.items()
        if name.startswith(("visible.", "semimatch."))
    }


@pytest.fixture(scope="module")
def tpch() -> Database:
    return tpch_measure_database(0.002)


def test_canonical_query_is_one_probe_per_candidate(tpch):
    """One relation, one conjunct that reads nothing but the candidate: no
    group row is ever scanned, and each region's evaluation reads the
    conjunct's column at exactly that region's orders — no per-candidate
    test is left."""
    orders = tpch.execute("SELECT COUNT(*) FROM orders").rows[0][0]
    assert visible_counters(tpch, CANONICAL) == {
        "visible.groups": 5,
        "visible.build_rows": 0,
        "visible.probes": 0,
        "visible.residual_rows": 0,
        "visible.masked": orders,
    }


def test_joined_aggregate_enumerates_from_the_group_side(tpch):
    """Grouped by the *other* relation's column there is no equality term to
    narrow the candidates; the key does: each group probes only the source
    rows carrying one of its key values, not all of them."""
    orders = tpch.execute("SELECT COUNT(*) FROM orders").rows[0][0]
    counters = visible_counters(tpch, JOINED)
    assert counters["visible.groups"] == 15
    assert counters["visible.residual_rows"] == 0
    assert 0 < counters["visible.probes"] <= orders  # groups x orders without it
    plain = tpch.execute(
        "SELECT n.n_name, COUNT(*) FROM orders AS o "
        "JOIN customer AS c ON o.o_custkey = c.c_custkey "
        "JOIN nation AS n ON c.c_nationkey = n.n_nationkey "
        "WHERE n.n_regionkey < 3 GROUP BY n.n_name ORDER BY n.n_name"
    ).rows
    assert tpch.execute(JOINED).rows == plain


def test_the_canonical_query_reads_one_column_of_the_shared_source(tpch, monkeypatch):
    """The Aggregate copies no group row and its VISIBLE reads none, so
    pruning narrows through it: the view's unread ``YEAR(orderdate)`` is
    never computed, the WHERE's Filter runs over the measure's shared source
    (no Project of the view's columns between them), and its ``<>`` is the
    one column VISIBLE's local conjunct reads too.  Rows as with the cache
    or the optimizer off, and as SQLite's."""
    built: list[str] = []  # every whole column computed, a slot's or not
    whole = Relation._whole

    def spy(relation, expr, outer, ctx):
        built.append(slot_key(expr))
        return whole(relation, expr, outer, ctx)

    monkeypatch.setattr(Relation, "_whole", spy)
    for segment in ("MACHINERY", "BUILDING"):
        sql = CANONICAL.replace("'MACHINERY'", f"'{segment}'")
        built.clear()
        tpch.execute(sql)
        assert not [key for key in built if "YEAR" in key], built
        assert len([key for key in built if "<>" in key]) == 1, built

    lines = [line.strip() for line in tpch.execute("EXPLAIN " + CANONICAL).pretty().splitlines()]
    assert lines[lines.index("Filter") + 1] == "Project(2 of 7) [shared]"

    got = tpch.execute(CANONICAL).rows
    for options in ({"cache": False}, {"optimizer": False}):
        assert tpch_measure_database(0.002, **options).execute(CANONICAL).rows == got
    tables = generate_tpch(TpchConfig(sf=0.002))
    oracle = sqlite3.connect(":memory:")
    for name in ("orders", "customer", "nation", "region"):
        columns = TPCH_TABLES[name]
        oracle.execute(f"CREATE TABLE {name} ({', '.join(col for col, _ in columns)})")
        oracle.executemany(
            f"INSERT INTO {name} VALUES ({', '.join('?' for _ in columns)})", tables[name]
        )
    assert oracle.execute(ORACLES["visible_orders_by_region"]).fetchall() == got


def test_work_is_linear_in_the_orders(tpch):
    small = sum(visible_counters(tpch, CANONICAL).values())
    large = sum(visible_counters(tpch_measure_database(0.004), CANONICAL).values())
    assert large <= 2.2 * small


def test_the_residual_scan_is_what_is_left(tpch):
    """No column equality to hash: candidates x group rows, and counted."""
    sql = (
        "SELECT n.n_name, AGGREGATE(o.order_count) FROM tpch_orders_m AS o "
        "JOIN nation AS n ON o.nation || '' = n.n_name "
        "WHERE n.n_nationkey < 1 GROUP BY n.n_name"
    )
    counters = visible_counters(tpch, sql)
    orders = tpch.execute("SELECT COUNT(*) FROM orders").rows[0][0]
    assert counters["visible.probes"] == orders
    assert counters["visible.residual_rows"] > orders


# -- measures over measures ----------------------------------------------------


def test_semimatch_is_a_set_lookup_per_candidate():
    """A measure over a measure at 2 400 source rows: one projection per
    candidate per inherited context, and SQLite's answer."""
    rows = [(i, f"k{i % 40}", f"g{i % 7}", i % 13) for i in range(2400)]
    db = Database()
    db.create_table_from_rows(
        "facts",
        [("id", "INTEGER"), ("k", "VARCHAR"), ("g", "VARCHAR"), ("v", "INTEGER")],
        rows,
    )
    sql = """SELECT g, spread, spread AT (ALL g) AS overall
             FROM (SELECT g, k, AGGREGATE(total) * 1.0 / COUNT(*) AS MEASURE spread
                   FROM (SELECT g, k, id, SUM(v) AS MEASURE total FROM facts))
             GROUP BY g ORDER BY g"""
    counters = visible_counters(db, sql)
    # Eight outer contexts (seven groups and ALL g), each filtering the
    # inner measure's 2 400 source rows once.
    assert counters == {"semimatch.probes": 8 * len(rows)}

    oracle = sqlite3.connect(":memory:")
    oracle.execute("CREATE TABLE facts (id INTEGER, k TEXT, g TEXT, v INTEGER)")
    oracle.executemany("INSERT INTO facts VALUES (?, ?, ?, ?)", rows)
    expected = oracle.execute(
        """SELECT g, SUM(v) * 1.0 / COUNT(*),
                  (SELECT SUM(v) * 1.0 / COUNT(*) FROM facts)
           FROM facts GROUP BY g ORDER BY g"""
    ).fetchall()
    got = db.execute(sql).rows
    assert [row[0] for row in got] == [row[0] for row in expected]
    for mine, theirs in zip(got, expected):
        assert mine[1:] == pytest.approx(theirs[1:])
