"""Measure expansion to plain SQL (paper section 4.2) and its equivalence
with the top-down interpreter."""

from __future__ import annotations

import pytest

from repro import Database, UnsupportedError, cli
from repro.core.expansion import EXPANSION_STRATEGIES
from repro.history import replay
from repro.workloads.generator import WorkloadConfig, workload_database


@pytest.fixture
def edb(paper_db: Database) -> Database:
    paper_db.execute(
        """CREATE VIEW eo AS
           SELECT prodName, custName, YEAR(orderDate) AS orderYear,
                  SUM(revenue) AS MEASURE rev,
                  (SUM(revenue) - SUM(cost)) / SUM(revenue) AS MEASURE margin
           FROM Orders"""
    )
    return paper_db


EQUIVALENCE_QUERIES = [
    # (id, sql)
    (
        "group-by-aggregate",
        "SELECT prodName, AGGREGATE(rev) AS r FROM eo GROUP BY prodName ORDER BY prodName",
    ),
    (
        "global-aggregate",
        "SELECT AGGREGATE(rev) FROM eo",
    ),
    (
        "bare-measure-ignores-where",
        """SELECT prodName, rev AS r FROM eo WHERE custName = 'Alice'
           GROUP BY prodName ORDER BY prodName""",
    ),
    (
        "visible-where",
        """SELECT prodName, rev AT (VISIBLE) AS r FROM eo WHERE custName <> 'Bob'
           GROUP BY prodName ORDER BY prodName""",
    ),
    (
        "all-proportion",
        """SELECT prodName, rev / rev AT (ALL prodName) AS share FROM eo
           GROUP BY prodName ORDER BY prodName""",
    ),
    (
        "all-clears-everything",
        "SELECT prodName, rev AT (ALL) AS total FROM eo GROUP BY prodName ORDER BY prodName",
    ),
    (
        "set-constant",
        """SELECT prodName, rev AT (SET custName = 'Bob') AS bob FROM eo
           GROUP BY prodName ORDER BY prodName""",
    ),
    (
        "set-current-arithmetic",
        """SELECT orderYear, rev AT (SET orderYear = CURRENT orderYear - 1) AS prev
           FROM eo GROUP BY orderYear ORDER BY orderYear""",
    ),
    (
        "where-modifier",
        """SELECT prodName, rev AT (WHERE orderYear = 2023) AS y23 FROM eo
           GROUP BY prodName ORDER BY prodName""",
    ),
    (
        "where-modifier-correlated",
        """SELECT prodName, rev AT (WHERE prodName = eo.prodName AND orderYear = 2023) AS v
           FROM eo GROUP BY prodName ORDER BY prodName""",
    ),
    (
        "row-grain-in-where",
        """SELECT prodName, custName FROM eo
           WHERE rev AT (WHERE prodName = eo.prodName) > 5
           ORDER BY prodName, custName""",
    ),
    (
        "multiple-measures",
        """SELECT prodName, AGGREGATE(rev) AS r, AGGREGATE(margin) AS m
           FROM eo GROUP BY prodName ORDER BY prodName""",
    ),
    (
        "having-on-measure",
        """SELECT prodName FROM eo GROUP BY prodName
           HAVING AGGREGATE(margin) > 0.5 ORDER BY prodName""",
    ),
    (
        "adhoc-group-dimension",
        """SELECT prodName, YEAR(orderDate) AS y, AGGREGATE(rev) AS r FROM
           (SELECT prodName, orderDate, SUM(revenue) AS MEASURE rev FROM Orders)
           GROUP BY prodName, YEAR(orderDate) ORDER BY prodName, y""",
    ),
]


@pytest.mark.parametrize(
    "sql", [q for _, q in EQUIVALENCE_QUERIES], ids=[i for i, _ in EQUIVALENCE_QUERIES]
)
def test_expansion_equivalence(edb, sql):
    """The static rewrite and the interpreter agree on every query shape."""
    expanded = edb.expand(sql)
    assert "AGGREGATE(" not in expanded
    assert " AT " not in expanded
    interpreted = edb.execute(sql).rows
    rewritten = edb.execute(expanded).rows

    def normalize(rows):
        return [
            tuple(round(v, 9) if isinstance(v, float) else v for v in row)
            for row in rows
        ]

    assert normalize(rewritten) == normalize(interpreted)


def test_expanded_sql_is_reparseable(edb):
    sql = "SELECT prodName, AGGREGATE(rev) FROM eo GROUP BY prodName"
    from repro.sql import parse_statement, to_sql

    expanded = edb.expand(sql)
    assert to_sql(parse_statement(expanded))


def test_explain_expand_statement(edb):
    result = edb.execute(
        "EXPLAIN EXPAND SELECT prodName, AGGREGATE(rev) FROM eo GROUP BY prodName"
    )
    assert result.column_names == ["expanded_sql"]
    assert "IS NOT DISTINCT FROM" in result.scalar()


def test_expansion_of_query_without_measures_is_identity_modulo_syntax(edb):
    sql = "SELECT prodName, SUM(revenue) AS r FROM Orders GROUP BY prodName ORDER BY prodName"
    assert edb.execute(edb.expand(sql)).rows == edb.execute(sql).rows


def test_expansion_strips_view_to_listing5_shape(edb):
    expanded = edb.expand("SELECT prodName, AGGREGATE(rev) FROM eo GROUP BY prodName")
    # The measure table is replaced by its measure-free projection...
    assert "AS MEASURE" not in expanded
    # ...and the measure by a correlated scalar subquery over Orders.
    assert expanded.count("FROM Orders") >= 1


def test_expansion_inlines_sibling_measures(paper_db):
    paper_db.execute(
        """CREATE VIEW sib AS
           SELECT prodName,
                  SUM(revenue) AS MEASURE a,
                  a * 2 AS MEASURE b
           FROM Orders"""
    )
    sql = "SELECT prodName, AGGREGATE(b) AS bb FROM sib GROUP BY prodName ORDER BY prodName"
    expanded = paper_db.expand(sql)
    assert paper_db.execute(expanded).rows == paper_db.execute(sql).rows


def test_expansion_with_view_over_view(paper_db):
    paper_db.execute("CREATE VIEW base AS SELECT * FROM Orders WHERE revenue > 3")
    paper_db.execute(
        "CREATE VIEW em AS SELECT prodName, SUM(revenue) AS MEASURE r FROM base"
    )
    sql = "SELECT prodName, AGGREGATE(r) FROM em GROUP BY prodName ORDER BY prodName"
    assert paper_db.execute(paper_db.expand(sql)).rows == paper_db.execute(sql).rows


def test_expansion_baked_where(paper_db):
    paper_db.execute(
        """CREATE VIEW alice AS
           SELECT prodName, SUM(revenue) AS MEASURE r FROM Orders
           WHERE custName = 'Alice'"""
    )
    sql = "SELECT prodName, r AT (ALL) AS t FROM alice GROUP BY prodName"
    expanded = paper_db.expand(sql)
    assert "Alice" in expanded  # the defining WHERE travels into the subquery
    assert paper_db.execute(expanded).rows == paper_db.execute(sql).rows


def test_expansion_visible_across_join(paper_db):
    """VISIBLE across join inputs is the interpreter's semijoin, printed as
    an EXISTS over a copy of the query's FROM (it used to be refused)."""
    paper_db.execute(
        "CREATE VIEW ec AS SELECT *, AVG(custAge) AS MEASURE avgAge FROM Customers"
    )
    sql = """SELECT o.prodName, AGGREGATE(c.avgAge)
             FROM Orders AS o JOIN ec AS c USING (custName)
             WHERE c.custAge >= 18 GROUP BY o.prodName ORDER BY o.prodName"""
    expanded = paper_db.expand(sql)
    assert "EXISTS (SELECT 1 FROM Orders AS" in expanded
    assert paper_db.execute(expanded).rows == paper_db.execute(sql).rows


def test_expansion_composed_measure_unsupported(edb):
    with pytest.raises(UnsupportedError):
        edb.expand(
            """SELECT prodName, AGGREGATE(m2) FROM
               (SELECT prodName, AGGREGATE(rev) AS MEASURE m2 FROM eo)
               GROUP BY prodName"""
        )


def test_expansion_equivalence_on_synthetic_workload():
    """Interpreter vs expansion on a few hundred synthetic orders."""
    db = workload_database(WorkloadConfig(orders=300, products=10, customers=20))
    db.execute(
        """CREATE VIEW em AS
           SELECT prodName, custName, YEAR(orderDate) AS y,
                  SUM(revenue) AS MEASURE r FROM Orders"""
    )
    sql = """SELECT prodName, y, AGGREGATE(r) AS r,
                    r AT (SET y = CURRENT y - 1) AS prev,
                    r / r AT (ALL prodName, y) AS share
             FROM em GROUP BY prodName, y ORDER BY prodName, y"""
    interpreted = db.execute(sql).rows
    rewritten = db.execute(db.expand(sql)).rows
    assert interpreted == rewritten


# -- one context semantics: the expansion is a projection of the bound query ----
#
# Every shape below runs four ways — the interpreter, ``execute(expand(sql))``,
# ``execute_with_strategy(sql, strategy="subquery")`` (the expanded AST) and
# SQLite on the expanded text — and all four must return the same rows.  The
# first rows are the shapes the AST-level expander got silently wrong (GROUP
# BY alias / ordinal, DISTINCT as grouping, re-exported measures) or refused
# (VISIBLE across join inputs); the rest are the ones it agreed on.

import sqlite3

from repro.workloads.listings import LISTINGS, SETUP
from repro.workloads.paper_data import CUSTOMERS, ORDERS, load_paper_tables

SHAPES = {
    "group-by-alias": "SELECT prodName AS p, r FROM mv GROUP BY p ORDER BY p",
    "group-by-ordinal": "SELECT prodName AS p, r FROM mv GROUP BY 1 ORDER BY 1",
    "select-distinct": "SELECT DISTINCT prodName, r FROM mv ORDER BY prodName",
    "bare-reexport": "SELECT prodName, custName, r FROM mv ORDER BY 1, 2",
    "reexport-qualify": """
        SELECT prodName, custName, r FROM mv
        QUALIFY ROW_NUMBER() OVER (PARTITION BY prodName ORDER BY custName) = 1
        ORDER BY 1""",
    "visible-join-on": """
        SELECT c.custAge, AGGREGATE(m.r) AS a FROM mv AS m
        JOIN Customers AS c ON m.custName = c.custName
        WHERE c.custAge > 20 GROUP BY c.custAge ORDER BY 1""",
    "visible-join-using": """
        SELECT c.custAge, AGGREGATE(m.r) AS a FROM mv AS m
        JOIN Customers AS c USING (custName)
        WHERE c.custAge > 20 GROUP BY c.custAge ORDER BY 1""",
    "visible-self-join": """
        SELECT a.prodName, AGGREGATE(a.r) AS ar, AGGREGATE(b.r) AS br
        FROM mv AS a JOIN mv AS b
          ON a.custName = b.custName AND a.orderYear < b.orderYear
        GROUP BY a.prodName ORDER BY 1""",
    "visible-left-join": """
        SELECT c.custName, AGGREGATE(m.r) AS a, COUNT(*) AS k
        FROM Customers AS c LEFT JOIN mv AS m
          ON m.custName = c.custName AND m.orderYear > 2022
        GROUP BY c.custName ORDER BY 1""",
    "parameter": """
        SELECT prodName, AGGREGATE(r) AS a FROM mv WHERE custName <> ?
        GROUP BY prodName ORDER BY 1""",
    "group-by-function": """
        SELECT UPPER(prodName) AS p, r FROM mv GROUP BY UPPER(prodName) ORDER BY 1""",
    "group-by-case": """
        SELECT CASE WHEN orderYear < 2024 THEN 'old' ELSE 'new' END AS age,
               AGGREGATE(r) AS a
        FROM mv GROUP BY CASE WHEN orderYear < 2024 THEN 'old' ELSE 'new' END
        ORDER BY 1""",
    "set-current-unconstrained": """
        SELECT prodName, r AT (SET orderYear = CURRENT orderYear - 1) AS prev
        FROM mv GROUP BY prodName ORDER BY 1""",
    "set-constant": """
        SELECT custName, r AT (SET prodName = 'Happy') AS h
        FROM mv GROUP BY custName ORDER BY 1""",
    "where-then-all": """
        SELECT prodName, r AT (WHERE prodName = 'Happy' ALL prodName) AS h
        FROM mv GROUP BY prodName ORDER BY 1""",
    "at-where": """
        SELECT prodName, r AT (WHERE orderYear = 2023) AS y23
        FROM mv GROUP BY prodName ORDER BY 1""",
    "all-visible-under-where": """
        SELECT prodName, r AT (ALL VISIBLE) AS v FROM mv
        WHERE custName <> 'Bob' GROUP BY prodName ORDER BY 1""",
    "row-grain-where": "SELECT prodName, custName FROM mv WHERE r > 5 ORDER BY 1, 2",
    "having": """
        SELECT prodName FROM mv GROUP BY prodName
        HAVING AGGREGATE(r) > 10 ORDER BY 1""",
    "bare-grouped-by-joined-column": """
        SELECT c.custAge, m.r AS bare FROM mv AS m
        JOIN Customers AS c ON m.custName = c.custName
        GROUP BY c.custAge ORDER BY 1""",
    "rollup": """
        SELECT prodName, orderYear, AGGREGATE(r) AS a FROM mv
        GROUP BY ROLLUP(prodName, orderYear)
        ORDER BY 1 NULLS LAST, 2 NULLS LAST""",
    "global-aggregate": "SELECT AGGREGATE(r) AS a, COUNT(*) AS c FROM mv",
    "order-by-aggregate": """
        SELECT prodName FROM mv GROUP BY prodName ORDER BY AGGREGATE(r) DESC""",
    "union-all": """
        SELECT prodName AS k, AGGREGATE(r) AS a FROM mv GROUP BY prodName
        UNION ALL SELECT custName, AGGREGATE(r) FROM mv GROUP BY custName
        ORDER BY 1""",
    "cte-measure-all": """
        WITH t AS (SELECT prodName, SUM(cost) AS MEASURE c FROM Orders)
        SELECT prodName, c AT (ALL) AS total FROM t GROUP BY prodName ORDER BY 1""",
    "limit": """
        SELECT prodName, AGGREGATE(r) AS a FROM mv
        GROUP BY prodName ORDER BY 1 LIMIT 2""",
    # Beyond the issue's table: more of what only the binder knew.
    "select-star": "SELECT * FROM mv ORDER BY 1, 2, 3",
    "natural-join": """
        SELECT custAge, AGGREGATE(r) AS a FROM mv NATURAL JOIN Customers
        GROUP BY custAge ORDER BY 1""",
    "reexport-through-where": """
        SELECT prodName, AGGREGATE(r) AS x, r AT (ALL) AS y
        FROM (SELECT prodName, r FROM mv WHERE custName <> 'Bob')
        GROUP BY prodName ORDER BY 1""",
    "set-operation-of-reexports": """
        SELECT prodName, r FROM mv WHERE custName = 'Bob'
        UNION ALL SELECT custName, r FROM mv ORDER BY 1, 2""",
    "measure-in-join-condition": """
        SELECT m.prodName, c.custName FROM mv AS m
        JOIN Customers AS c ON m.custName = c.custName AND m.r > 4
        ORDER BY 1, 2""",
    "measure-in-a-correlated-subquery": """
        SELECT o.prodName,
               (SELECT AGGREGATE(r) FROM mv WHERE mv.prodName = o.prodName) AS x
        FROM Orders AS o ORDER BY 1, 2""",
}
SHAPE_PARAMS = {"parameter": ("Bob",)}
#: The other three ways still run: SQLite has no QUALIFY.
NOT_ON_SQLITE = {"reexport-qualify"}

#: What the expansion cannot print: it says so, by construct.
REFUSED = {
    "composed": (
        """SELECT prodName, AGGREGATE(r2) AS a
           FROM (SELECT prodName, r + 1 AS MEASURE r2 FROM mv)
           GROUP BY prodName ORDER BY 1""",
        "a composed measure",
    ),
    "visible-in-subquery": (
        """SELECT prodName, AGGREGATE(r) AS a FROM mv
           WHERE custName IN (SELECT custName FROM Customers WHERE custAge > 20)
           GROUP BY prodName ORDER BY 1""",
        "a subquery inside a measure definition or a VISIBLE conjunct",
    ),
    # (prodName is column 0 of Orders and key 0 of the GROUP BY: the binder
    # leaves a VISIBLE conjunct's reference into an enclosing aggregate query
    # numbered by the FROM row, and the interpreter reads it off the
    # Aggregate's output.)
    "correlated-into-an-aggregate": (
        """SELECT o.prodName,
                  (SELECT AGGREGATE(r) FROM mv WHERE mv.prodName = o.prodName)
           FROM Orders AS o GROUP BY o.prodName""",
        "a correlated reference into an aggregate query",
    ),
}


@pytest.fixture
def listings_db(paper_db: Database) -> Database:
    for ddl in SETUP.values():
        paper_db.execute(ddl)
    return paper_db


class _AnyValue:
    def __init__(self):
        self.value = None

    def step(self, value):
        self.value = value

    def finalize(self):
        return self.value


@pytest.fixture(scope="module")
def sqlite_paper():
    """The paper tables in SQLite — dates as ISO text, money as REAL (its
    ``/`` on integers truncates) — with the few functions the expanded
    listings use that it lacks."""
    connection = sqlite3.connect(":memory:")
    connection.execute("CREATE TABLE Customers (custName TEXT, custAge INTEGER)")
    connection.executemany("INSERT INTO Customers VALUES (?, ?)", CUSTOMERS)
    connection.execute(
        "CREATE TABLE Orders (prodName TEXT, custName TEXT, orderDate TEXT, "
        "revenue REAL, cost REAL)"
    )
    connection.executemany("INSERT INTO Orders VALUES (?, ?, ?, ?, ?)", ORDERS)
    connection.create_function(
        "YEAR", 1, lambda text: None if text is None else int(text[:4])
    )
    connection.create_aggregate("ANY_VALUE", 1, _AnyValue)
    return connection


def _canonical(rows):
    """Rows as a sorted multiset, numbers as floats to nine places, dates as
    text (the engines order NULLs differently; SQLite has no DATE)."""
    cleaned = [
        tuple(
            v if v is None or isinstance(v, str)
            else round(float(v), 9) if isinstance(v, (int, float))
            else str(v)
            for v in row
        )
        for row in rows
    ]
    return sorted(cleaned, key=lambda row: [(v is None, str(v)) for v in row])


def _four_ways(db, sqlite, sql, params=(), on_sqlite=True):
    interpreted = db.execute(sql, params).rows
    expanded = db.expand(sql)
    assert "AGGREGATE(" not in expanded and " AT (" not in expanded
    # One ``?`` per use in the text: a single parameter can be repeated.
    uses = expanded.count("?")
    assert db.execute(expanded, tuple(params) * (uses or 1)).rows == interpreted
    assert (
        db.execute_with_strategy(sql, params, strategy="subquery").rows == interpreted
    )
    if on_sqlite:
        got = sqlite.execute(expanded, tuple(params) * uses).fetchall()
        assert _canonical(got) == _canonical(interpreted)
    return interpreted


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_expansion_is_the_interpreter_four_ways(listings_db, sqlite_paper, name):
    rows = _four_ways(
        listings_db,
        sqlite_paper,
        SHAPES[name],
        SHAPE_PARAMS.get(name, ()),
        on_sqlite=name not in NOT_ON_SQLITE,
    )
    assert rows  # an empty result would compare nothing


def test_the_shapes_the_second_binder_got_wrong(listings_db):
    """The numbers of the issue's table: each group its own total (not the
    grand total 25), DISTINCT groups, a re-export over the output's columns."""
    by_product = [("Acme", 5), ("Happy", 17), ("Whizz", 3)]
    for name in ("group-by-alias", "group-by-ordinal", "select-distinct"):
        assert listings_db.execute(listings_db.expand(SHAPES[name])).rows == by_product
    rows = listings_db.execute(listings_db.expand(SHAPES["bare-reexport"])).rows
    assert ("Happy", "Alice", 13) in rows and ("Happy", "Alice", 6) not in rows


#: A CTE whose name is a catalog table, and the same CTE renamed by hand.
SHADOW = "WITH {cte} AS (SELECT 'z' AS prodName, 'q' AS custName, 100 AS revenue) "
SHADOWED_VIEW_QUERIES = {
    # The view's table shadowed: the view still reads the catalog's Orders.
    "view-only": "SELECT prodName, AGGREGATE(r) FROM EO GROUP BY prodName",
    # And the CTE read beside the view, under its own name.
    "view-and-cte": (
        "SELECT o.prodName, AGGREGATE(e.r), COUNT(*) FROM EO AS e "
        "JOIN {cte} AS o ON o.prodName <> e.prodName GROUP BY o.prodName"
    ),
    "cte-qualified": (
        "SELECT {cte}.prodName, AGGREGATE(r) FROM EO JOIN {cte} "
        "ON {cte}.prodName <> EO.prodName GROUP BY {cte}.prodName"
    ),
}


@pytest.mark.parametrize("shadowed", [True, False])
@pytest.mark.parametrize("name", sorted(SHADOWED_VIEW_QUERIES))
def test_a_view_binds_in_the_catalogs_scope(paper_db, shadowed, name):
    """A view is a catalog object: a CTE of the statement naming it never
    replaces a table the view reads, in the interpreter or in the expansion."""
    paper_db.execute(
        "CREATE VIEW EO AS SELECT prodName, SUM(revenue) AS MEASURE r FROM Orders"
    )
    query = SHADOWED_VIEW_QUERIES[name]
    cte = "Orders" if shadowed else "Lone"
    sql = (SHADOW + query).format(cte=cte)
    by_hand = (SHADOW + query).format(cte="Renamed")
    interpreted = sorted(paper_db.execute(sql).rows)
    assert interpreted == sorted(paper_db.execute(paper_db.expand(sql)).rows)
    assert interpreted == sorted(paper_db.execute(by_hand).rows)
    if name == "view-only":
        assert interpreted == [("Acme", 5), ("Happy", 17), ("Whizz", 3)]


@pytest.mark.parametrize("name", sorted(REFUSED))
def test_what_the_expansion_cannot_print_is_refused_by_name(listings_db, name):
    sql, construct = REFUSED[name]
    assert listings_db.execute(sql).rows  # the interpreter runs it
    for refuse in (
        lambda: listings_db.expand(sql),
        lambda: listings_db.execute_with_strategy(sql, strategy="subquery"),
    ):
        with pytest.raises(UnsupportedError, match="static expansion cannot print"):
            refuse()
    with pytest.raises(UnsupportedError) as raised:
        listings_db.expand(sql)
    assert construct.split(" (")[0] in str(raised.value)


@pytest.mark.parametrize("name", sorted(LISTINGS))
def test_the_listings_expand_to_the_interpreters_rows_on_sqlite(
    listings_db, sqlite_paper, name
):
    _four_ways(listings_db, sqlite_paper, LISTINGS[name])


def test_keyword_named_columns_expand_to_runnable_sql(db):
    """Columns named ``from`` and ``order`` print quoted in the expansion,
    so both engines can read it back."""
    rows = [(1, 10), (1, 20), (2, 5)]
    ddl = 'CREATE TABLE t ("from" INTEGER, "order" INTEGER)'
    db.execute(ddl)
    db.execute("INSERT INTO t VALUES (1, 10), (1, 20), (2, 5)")
    db.execute('CREATE VIEW v AS SELECT "from", SUM("order") AS MEASURE s FROM t')
    sqlite = sqlite3.connect(":memory:")
    sqlite.execute(ddl)
    sqlite.executemany("INSERT INTO t VALUES (?, ?)", rows)
    sql = 'SELECT "from", s FROM v GROUP BY "from"'
    expanded = db.expand(sql)
    assert 'i1."order"' in expanded
    interpreted = db.execute(sql).rows
    assert interpreted == [(1, 30), (2, 5)]
    assert db.execute(expanded).rows == interpreted
    assert _canonical(sqlite.execute(expanded).fetchall()) == _canonical(interpreted)


def test_listing4_still_reads_like_the_papers_listing5(listings_db):
    expanded = listings_db.expand(LISTINGS["listing4"])
    assert expanded.count("(SELECT") == 2  # the measure, and the stripped view
    assert (
        "(SELECT ((SUM(i1.revenue) - SUM(i1.cost)) / SUM(i1.revenue)) "
        "FROM Orders AS i1 "
        "WHERE (i1.prodName IS NOT DISTINCT FROM EnhancedOrders.prodName))"
    ) in expanded


@pytest.mark.parametrize("strategy", EXPANSION_STRATEGIES)
def test_every_strategy_name_is_dispatched(listings_db, strategy):
    sql = LISTINGS["listing4"]
    try:
        expanded = listings_db.expand(sql, strategy=strategy)
    except UnsupportedError as exc:  # not the strategy's shape
        assert "unknown expansion strategy" not in str(exc)
    else:
        assert sorted(listings_db.execute(expanded).rows, key=repr) == sorted(
            listings_db.execute(sql).rows, key=repr
        )


def test_the_strategy_names_are_written_once(listings_db):
    assert cli.EXPANSION_STRATEGIES is replay.EXPANSION_STRATEGIES
    assert replay.EXPANSION_STRATEGIES is EXPANSION_STRATEGIES
    with pytest.raises(UnsupportedError, match="unknown expansion strategy"):
        listings_db.expand(LISTINGS["listing4"], strategy="bogus")


# -- `?` survives expansion ------------------------------------------------------

ROW_GRAIN = """
    SELECT o.prodName, o.orderDate FROM
      (SELECT prodName, orderDate, revenue, cost,
              AVG(revenue) AS MEASURE avgRevenue FROM Orders) AS o
    WHERE o.revenue > ? {more}
      AND o.revenue >= o.avgRevenue AT (WHERE prodName = o.prodName)
    ORDER BY 1, 2"""
GROUPED = """
    SELECT prodName, AGGREGATE(r) AS a, r AT (SET custName = ?) AS pinned
    FROM mv WHERE custName <> ? {more} GROUP BY prodName ORDER BY 1"""


@pytest.mark.parametrize("strategy", ["subquery", "window", "auto"])
@pytest.mark.parametrize(
    "sql, params",
    [
        (ROW_GRAIN.format(more=""), (3,)),
        (ROW_GRAIN.format(more="AND o.cost < ?"), (3, 4)),
        (GROUPED.format(more=""), ("Bob", "Celia")),
        (GROUPED.format(more="AND orderYear >= ?"), ("Bob", "Celia", 2023)),
    ],
    ids=["row-grain-1", "row-grain-2", "grouped-2", "grouped-3"],
)
def test_parameters_keep_their_index_through_every_strategy(
    listings_db, sql, params, strategy
):
    """A ``?`` copied into a measure's subquery used to be renumbered by
    the print-and-reparse round trip ("expects at least 2 parameter(s)")."""
    expected = listings_db.execute(sql, params).rows
    assert expected
    try:
        got = listings_db.execute_with_strategy(sql, params, strategy=strategy).rows
    except UnsupportedError:
        assert strategy == "window"  # not its shape
        assert "GROUP BY" in sql
        return
    assert got == expected


# -- a view's column list ---------------------------------------------------------

COLUMN_LIST_VIEWS = {
    "star": (
        "CREATE VIEW star (a, b, c, d, e) AS SELECT * FROM Orders",
        "SELECT a, c, d FROM star WHERE e > 1 ORDER BY 1, 2, 3",
    ),
    "star-measure": (
        "CREATE VIEW starm (a, b, c, d, e, m) AS "
        "SELECT *, SUM(revenue) AS MEASURE m FROM Orders",
        "SELECT a, AGGREGATE(m) AS t, m AT (ALL) AS total FROM starm "
        "GROUP BY a ORDER BY 1",
    ),
    "union-all": (
        "CREATE VIEW duo (who, amount) AS "
        "SELECT prodName, revenue FROM Orders "
        "UNION ALL SELECT custName, cost FROM Orders",
        "SELECT who, SUM(amount) AS s FROM duo GROUP BY who ORDER BY 1",
    ),
}


@pytest.mark.parametrize("name", sorted(COLUMN_LIST_VIEWS))
def test_a_view_column_list_expands_four_ways(listings_db, sqlite_paper, name):
    """The view prints from its own bind, under the names its column list
    declares — over a ``*``, beside a measure, over a set operation."""
    ddl, sql = COLUMN_LIST_VIEWS[name]
    listings_db.execute(ddl)
    assert _four_ways(listings_db, sqlite_paper, sql)


#: Grouping sets beside the one ROLLUP of SHAPES.
GROUPING_SET_SHAPES = [
    """SELECT prodName, custName, GROUPING(prodName, custName) AS g,
              AGGREGATE(r) AS a, r AT (VISIBLE) AS v
       FROM mv WHERE custName <> 'Bob' GROUP BY CUBE(prodName, custName)
       HAVING AGGREGATE(r) > 0 ORDER BY a DESC""",
    """SELECT DISTINCT orderYear, r FROM mv AS m
       GROUP BY GROUPING SETS ((m.orderYear), ()) ORDER BY 1""",
]


def test_expansion_leaves_its_input_and_the_catalog_as_parsed(listings_db):
    """Every strategy prints a new tree: the statement it was given and
    every view it inlined still equal a fresh parse of their text."""
    from repro.sql import ast, parse_query, parse_statement, to_sql

    ddls = [*SETUP.values(), *(ddl for ddl, _ in COLUMN_LIST_VIEWS.values())]
    for ddl in ddls[len(SETUP):]:
        listings_db.execute(ddl)
    queries = [
        *LISTINGS.values(),
        *SHAPES.values(),
        *GROUPING_SET_SHAPES,
        *(sql for _, sql in COLUMN_LIST_VIEWS.values()),
    ]
    accepted = set()
    for sql in queries:
        for strategy in EXPANSION_STRATEGIES:
            query = parse_query(sql)
            try:
                listings_db.expand_query(query, strategy=strategy)
            except UnsupportedError:
                continue  # not the strategy's shape
            accepted.add(strategy)
            fresh = parse_query(sql)
            assert query == fresh and to_sql(query) == to_sql(fresh), (strategy, sql)
    assert accepted == set(EXPANSION_STRATEGIES)
    for ddl in ddls:
        statement = parse_statement(ddl)
        assert isinstance(statement, ast.CreateView)
        view = listings_db.catalog.get(statement.name)
        assert view.query == statement.query
        assert to_sql(view.query) == to_sql(statement.query)


def test_the_ast_preparation_is_gone():
    """The expansion binds the statement's own AST and prints a new tree:
    no AST preparation, no deep copy, no key matched by its printed text."""
    import ast as python_ast
    import pathlib

    import repro.core
    from repro.core import expansion

    for name in ("_prepare", "_prepare_from", "_fresh_cte_name", "_view_query",
                 "_expand_grouping_sets"):
        assert not hasattr(expansion.Expander, name), name
    assert not hasattr(expansion, "_GroupingSetBranch")
    for path in pathlib.Path(repro.core.__file__).parent.glob("*.py"):
        tree = python_ast.parse(path.read_text())
        imported = {
            alias.name for node in python_ast.walk(tree)
            if isinstance(node, python_ast.Import) for alias in node.names
        } | {
            node.module for node in python_ast.walk(tree)
            if isinstance(node, python_ast.ImportFrom)
        }
        assert "copy" not in imported, path.name


def test_a_measure_over_a_cte_named_like_a_table_reads_the_cte(paper_db):
    """A measure source's FROM prints in the scope it was defined in: here
    the renamed CTE, not the catalog's ``Orders``."""
    sql = (
        "WITH Orders AS (SELECT 'Happy' AS prodName, 1 AS revenue "
        "UNION ALL SELECT 'Acme', 2), "
        "m AS (SELECT prodName, SUM(revenue) AS MEASURE s FROM Orders) "
        "SELECT prodName, AGGREGATE(s) AS t FROM m GROUP BY prodName"
    )
    interpreted = sorted(paper_db.execute(sql).rows)
    assert interpreted == [("Acme", 2), ("Happy", 1)]
    assert sorted(paper_db.execute(paper_db.expand(sql)).rows) == interpreted
