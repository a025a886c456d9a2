"""Public API and Result tests."""

from __future__ import annotations

import pytest

from repro import Database, Result, SqlError
from repro.result import ResultColumn
from repro.types import INTEGER, VARCHAR


def test_execute_script(db):
    results = db.execute_script(
        """
        CREATE TABLE t (a INTEGER);
        INSERT INTO t VALUES (1), (2);
        SELECT SUM(a) FROM t;
        """
    )
    assert len(results) == 3
    assert results[2].scalar() == 3


def test_query_alias(db):
    assert db.query("SELECT 42").scalar() == 42


def test_result_iteration_and_len(db):
    db.execute("CREATE TABLE t (a INTEGER)")
    db.execute("INSERT INTO t VALUES (1), (2)")
    result = db.execute("SELECT a FROM t ORDER BY a")
    assert len(result) == 2
    assert list(result) == [(1,), (2,)]


def test_result_column_accessor(db):
    db.execute("CREATE TABLE t (a INTEGER, b VARCHAR)")
    db.execute("INSERT INTO t VALUES (1, 'x')")
    result = db.execute("SELECT a, b FROM t")
    assert result.column("A") == [1]
    assert result.column("B") == ["x"]
    with pytest.raises(KeyError):
        result.column("zzz")


def test_result_to_dicts(db):
    db.execute("CREATE TABLE t (a INTEGER)")
    db.execute("INSERT INTO t VALUES (7)")
    assert db.execute("SELECT a FROM t").to_dicts() == [{"a": 7}]


def test_scalar_requires_1x1(db):
    db.execute("CREATE TABLE t (a INTEGER)")
    db.execute("INSERT INTO t VALUES (1), (2)")
    with pytest.raises(ValueError):
        db.execute("SELECT a FROM t").scalar()


def test_pretty_formats_table(db):
    db.execute("CREATE TABLE t (name VARCHAR, v DOUBLE)")
    db.execute("INSERT INTO t VALUES ('x', 0.5), ('longer', NULL)")
    text = db.execute("SELECT name, v FROM t").pretty()
    lines = text.splitlines()
    assert lines[0].startswith("name")
    assert set(lines[1]) <= {"=", " "}
    assert "longer" in text


def test_pretty_max_rows(db):
    db.execute("CREATE TABLE t (a INTEGER)")
    for i in range(5):
        db.execute(f"INSERT INTO t VALUES ({i})")
    text = db.execute("SELECT a FROM t").pretty(max_rows=2)
    assert "3 more rows" in text


def test_pretty_ddl_message(db):
    result = db.execute("CREATE TABLE t (a INTEGER)")
    assert "created" in result.pretty()


def test_result_dataclass_direct():
    result = Result(
        columns=[ResultColumn("a", INTEGER), ResultColumn("s", VARCHAR)],
        rows=[(1, "x")],
        rowcount=1,
    )
    assert result.column_names == ["a", "s"]


def test_last_stats_populated(db):
    db.execute("CREATE TABLE t (a INTEGER)")
    db.execute("INSERT INTO t VALUES (1)")
    db.execute("SELECT a FROM t")
    assert db.last_stats is not None
    assert db.last_stats.rows_scanned == 1


def test_expand_requires_query(db):
    with pytest.raises(SqlError):
        db.expand("CREATE TABLE t (a INTEGER)")


def test_create_table_from_rows_roundtrip(db):
    count = db.create_table_from_rows(
        "people",
        [("name", "VARCHAR"), ("age", "INTEGER")],
        [("ann", 30), ("bo", None)],
    )
    assert count == 2
    assert db.execute("SELECT COUNT(*) FROM people").scalar() == 2


def test_doc_quickstart_example():
    from repro import Database

    db = Database()
    db.execute("CREATE TABLE Orders (prodName VARCHAR, revenue INTEGER)")
    db.execute("INSERT INTO Orders VALUES ('Happy', 6), ('Acme', 5)")
    db.execute(
        """CREATE VIEW eo AS
           SELECT prodName, SUM(revenue) AS MEASURE sumRevenue FROM Orders"""
    )
    rows = db.execute(
        "SELECT prodName, AGGREGATE(sumRevenue) FROM eo GROUP BY prodName ORDER BY 1"
    ).rows
    assert rows == [("Acme", 5), ("Happy", 6)]


def test_describe_table(db):
    db.execute("CREATE TABLE t (a INTEGER, b DATE)")
    db.execute("INSERT INTO t VALUES (1, DATE '2024-01-01')")
    info = db.describe("t")
    assert info["kind"] == "table"
    assert info["rows"] == 1
    assert info["columns"][1] == {"name": "b", "type": "DATE", "measure": False}
    assert info["measures"] == []


def test_describe_measure_view_exposes_dimensionality(db):
    from repro.workloads.paper_data import load_paper_tables

    load_paper_tables(db)
    db.execute(
        """CREATE VIEW eo AS
           SELECT prodName, YEAR(orderDate) AS y,
                  SUM(revenue) AS MEASURE r FROM Orders"""
    )
    info = db.describe("eo")
    assert info["kind"] == "view"
    assert info["measures"] == [
        {"name": "r", "type": "INTEGER", "dimensions": ["prodName", "y"]}
    ]
    # The formula is not exposed: the view is an abstraction boundary.
    assert "formula" not in str(info)
    assert "revenue" not in str(info)


def test_describe_lists_a_views_columns_under_its_column_list(db):
    from repro.workloads.paper_data import load_paper_tables

    load_paper_tables(db)
    db.execute(
        "CREATE VIEW v2 (odate, margin) AS SELECT orderDate, "
        "(SUM(revenue) - SUM(cost)) / SUM(revenue) AS MEASURE profitMargin "
        "FROM Orders"
    )
    info = db.describe("v2")
    # The names that run: SELECT odate, AGGREGATE(margin) FROM v2 ...
    assert [c["name"] for c in info["columns"]] == ["odate", "margin"]
    assert info["measures"] == [
        {"name": "margin", "type": "DOUBLE", "dimensions": ["odate"]}
    ]


def test_describe_unknown_raises(db):
    from repro import CatalogError

    with pytest.raises(CatalogError):
        db.describe("ghost")


def test_positional_parameters(db):
    db.execute("CREATE TABLE t (a INTEGER, b VARCHAR)")
    db.execute("INSERT INTO t VALUES (?, ?)", (1, "x"))
    db.execute("INSERT INTO t VALUES (?, ?)", (2, "y"))
    rows = db.execute("SELECT b FROM t WHERE a >= ? ORDER BY b", (1,)).rows
    assert rows == [("x",), ("y",)]


def test_parameters_in_expressions_and_limits(db):
    assert db.execute("SELECT ? * ? + ?", (2, 3, 4)).scalar() == 10


def test_missing_parameter_raises(db):
    from repro import ExecutionError

    with pytest.raises(ExecutionError, match="parameter"):
        db.execute("SELECT ? + 1", ())


def test_parameter_null(db):
    assert db.execute("SELECT ? IS NULL", (None,)).scalar() is True


def test_parameters_with_measures(db):
    from repro.workloads.paper_data import load_paper_tables

    load_paper_tables(db)
    db.execute("CREATE VIEW eo AS SELECT prodName, SUM(revenue) AS MEASURE r FROM Orders")
    rows = db.execute(
        "SELECT prodName FROM eo GROUP BY prodName HAVING AGGREGATE(r) > ? ORDER BY 1",
        (4,),
    ).rows
    assert rows == [("Acme",), ("Happy",)]
