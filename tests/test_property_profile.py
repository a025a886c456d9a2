"""Property tests: profiled cardinalities are self-consistent.

For random data and the paper's Listing 12 query family, executed under
``profile=True`` through three rewrite strategies (the general correlated
subquery expansion, the window-aggregate rewrite, and the WinMagic rewrite),
the reported operator tree must satisfy:

* the root operator's ``rows_out`` equals the result cardinality, and
* every operator's ``rows_in`` equals the sum of its children's
  ``rows_out`` (direct plan inputs only — expression-level subquery
  executions are excluded by construction).

All strategies must also agree on the result rows themselves.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database
from repro.sql import parse_statement, to_sql
from repro.sql.ast import QueryStatement

rows_strategy = st.lists(
    st.tuples(
        st.sampled_from(["a", "b", "c"]),           # g: partition key
        st.integers(-10, 10),                       # v: value
    ),
    min_size=1,
    max_size=20,
)

#: Listing 12 over the random table: rows whose v exceeds their group AVG.
MEASURE_SQL = """
SELECT o.g, o.v FROM
  (SELECT g, v, AVG(v) AS MEASURE am FROM t) AS o
WHERE o.v > o.am AT (WHERE g = o.g)
ORDER BY 1, 2
"""
CORRELATED_SQL = """
SELECT o.g, o.v FROM t AS o
WHERE o.v > (SELECT AVG(v) FROM t AS i WHERE i.g = o.g)
ORDER BY 1, 2
"""


def make_db(rows) -> Database:
    db = Database(profile=True)
    db.create_table_from_rows("t", [("g", "VARCHAR"), ("v", "INTEGER")], rows)
    return db


def winmagic_sql(db: Database) -> str:
    """The WinMagic rewrite of the correlated formulation, as SQL."""
    from repro.core.winmagic import winmagic_rewrite

    statement = parse_statement(CORRELATED_SQL)
    assert isinstance(statement, QueryStatement)
    return to_sql(winmagic_rewrite(db, statement.query))


def check_cardinalities(profile, result) -> None:
    tree = profile.operator_tree
    assert tree is not None
    assert tree["rows_out"] == len(result.rows)
    for node in walk(tree):
        children = node.get("children")
        if children:
            assert node["rows_in"] == sum(c["rows_out"] for c in children), (
                f"{node['label']}: rows_in={node['rows_in']} != "
                f"sum(children rows_out)"
            )


def walk(node):
    yield node
    for child in [*node.get("children", ()), *node.get("subplans", ())]:
        yield from walk(child)


def run_strategy(db: Database, strategy: str):
    """Execute the workload via one strategy; returns (result, profile)."""
    if strategy == "expand":
        sql = db.expand(MEASURE_SQL, strategy="subquery")
    elif strategy == "window":
        sql = db.expand(MEASURE_SQL, strategy="window")
    else:  # winmagic
        sql = winmagic_sql(db)
    result = db.execute(sql)
    return result, db.last_profile()


@settings(max_examples=40, deadline=None)
@given(rows_strategy)
def test_cardinality_consistency_across_strategies(rows):
    db = make_db(rows)
    results = {}
    for strategy in ("expand", "window", "winmagic"):
        result, profile = run_strategy(db, strategy)
        check_cardinalities(profile, result)
        results[strategy] = result.rows
    # All three rewrites compute the same relation.
    assert results["expand"] == results["window"] == results["winmagic"]


@settings(max_examples=40, deadline=None)
@given(rows_strategy)
def test_cardinality_consistency_interpreted_measures(rows):
    """The measure query executed directly (no pre-expansion) satisfies the
    same invariants — subquery plans run from expression evaluation must
    never pollute an operator's rows_in."""
    db = make_db(rows)
    result = db.execute(MEASURE_SQL)
    check_cardinalities(db.last_profile(), result)


@settings(max_examples=30, deadline=None)
@given(rows_strategy)
def test_profile_counters_consistent(rows):
    """Cache hits never exceed evaluations; scanned rows are positive
    whenever the table is read."""
    db = make_db(rows)
    db.execute(MEASURE_SQL)
    counters = db.last_profile().counters
    assert counters["measure_cache_hits"] <= counters["measure_evaluations"]
    assert counters["subquery_cache_hits"] <= counters["subquery_executions"]
    assert counters["rows_scanned"] >= len(rows)


@settings(max_examples=30, deadline=None)
@given(rows_strategy, st.sampled_from(["expand", "window", "winmagic"]))
def test_profile_agrees_with_unprofiled_run(rows, strategy):
    """Profiling must not change results: the same strategy with profiling
    off returns identical rows."""
    profiled = make_db(rows)
    plain = Database()
    plain.create_table_from_rows(
        "t", [("g", "VARCHAR"), ("v", "INTEGER")], rows
    )
    result, profile = run_strategy(profiled, strategy)
    if strategy == "expand":
        sql = plain.expand(MEASURE_SQL, strategy="subquery")
    elif strategy == "window":
        sql = plain.expand(MEASURE_SQL, strategy="window")
    else:
        sql = winmagic_sql(plain)
    assert plain.execute(sql).rows == result.rows
    assert profile is not None and profile.result_rows == len(result.rows)
