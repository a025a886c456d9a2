"""Catalog and storage: DDL, DML, schema enforcement, coercion."""

from __future__ import annotations

import datetime

import pytest

from repro import CatalogError, Database, ExecutionError
from repro.catalog import Catalog, Column, TableSchema
from repro.storage.table import MemoryTable
from repro.types import DATE, INTEGER, VARCHAR


def test_create_and_insert_and_count(db):
    db.execute("CREATE TABLE t (a INTEGER)")
    assert db.execute("INSERT INTO t VALUES (1), (2)").rowcount == 2
    assert db.execute("SELECT COUNT(*) FROM t").scalar() == 2


def test_create_duplicate_table_raises(db):
    db.execute("CREATE TABLE t (a INTEGER)")
    with pytest.raises(CatalogError):
        db.execute("CREATE TABLE t (a INTEGER)")


def test_create_if_not_exists(db):
    db.execute("CREATE TABLE t (a INTEGER)")
    db.execute("CREATE TABLE IF NOT EXISTS t (a INTEGER)")  # no error


def test_create_or_replace_table(db):
    db.execute("CREATE TABLE t (a INTEGER)")
    db.execute("INSERT INTO t VALUES (1)")
    db.execute("CREATE OR REPLACE TABLE t (a INTEGER, b INTEGER)")
    assert db.execute("SELECT COUNT(*) FROM t").scalar() == 0


def test_drop_table(db):
    db.execute("CREATE TABLE t (a INTEGER)")
    db.execute("DROP TABLE t")
    with pytest.raises(CatalogError):
        db.execute("SELECT 1 FROM t")


def test_drop_missing_table_raises_unless_if_exists(db):
    with pytest.raises(CatalogError):
        db.execute("DROP TABLE t")
    db.execute("DROP TABLE IF EXISTS t")  # fine


def test_drop_wrong_kind_raises(db):
    db.execute("CREATE TABLE t (a INTEGER)")
    with pytest.raises(CatalogError):
        db.execute("DROP VIEW t")


def test_view_validated_at_creation(db):
    db.execute("CREATE TABLE t (a INTEGER)")
    from repro import BindError

    with pytest.raises(BindError):
        db.execute("CREATE VIEW v AS SELECT nope FROM t")


def test_view_column_count_mismatch(db):
    db.execute("CREATE TABLE t (a INTEGER)")
    from repro import BindError

    with pytest.raises(BindError):
        db.execute("CREATE VIEW v (x, y) AS SELECT a FROM t")


def test_create_or_replace_view(db):
    db.execute("CREATE TABLE t (a INTEGER)")
    db.execute("INSERT INTO t VALUES (5)")
    db.execute("CREATE VIEW v AS SELECT a FROM t")
    db.execute("CREATE OR REPLACE VIEW v AS SELECT a * 2 AS a2 FROM t")
    assert db.execute("SELECT a2 FROM v").scalar() == 10


def test_insert_column_subset_pads_null(db):
    db.execute("CREATE TABLE t (a INTEGER, b VARCHAR)")
    db.execute("INSERT INTO t (b) VALUES ('only-b')")
    assert db.execute("SELECT a, b FROM t").rows == [(None, "only-b")]


def test_insert_arity_mismatch_raises(db):
    db.execute("CREATE TABLE t (a INTEGER, b VARCHAR)")
    with pytest.raises(CatalogError):
        db.execute("INSERT INTO t VALUES (1)")


def test_insert_select(db):
    db.execute("CREATE TABLE src (a INTEGER)")
    db.execute("CREATE TABLE dst (a INTEGER)")
    db.execute("INSERT INTO src VALUES (1), (2), (3)")
    assert db.execute("INSERT INTO dst SELECT a * 10 FROM src").rowcount == 3
    assert db.execute("SELECT SUM(a) FROM dst").scalar() == 60


def test_insert_into_view_rejected(db):
    db.execute("CREATE TABLE t (a INTEGER)")
    db.execute("CREATE VIEW v AS SELECT a FROM t")
    with pytest.raises(CatalogError):
        db.execute("INSERT INTO v VALUES (1)")


def test_insert_coerces_types(db):
    db.execute("CREATE TABLE t (d DATE, f DOUBLE)")
    db.execute("INSERT INTO t VALUES ('2024-01-15', 3)")
    row = db.execute("SELECT d, f FROM t").rows[0]
    assert row == (datetime.date(2024, 1, 15), 3.0)
    assert isinstance(row[1], float)


def test_insert_bad_type_raises(db):
    db.execute("CREATE TABLE t (a INTEGER)")
    with pytest.raises(ExecutionError):
        db.execute("INSERT INTO t VALUES ('not a number')")


def test_insert_bad_date_raises(db):
    db.execute("CREATE TABLE t (d DATE)")
    with pytest.raises(ExecutionError):
        db.execute("INSERT INTO t VALUES ('yesterday')")


def test_case_insensitive_names(db):
    db.execute("CREATE TABLE MixedCase (CamelCol INTEGER)")
    db.execute("INSERT INTO mixedcase VALUES (1)")
    assert db.execute("SELECT camelcol FROM MIXEDCASE").scalar() == 1


def test_duplicate_column_in_schema_raises():
    with pytest.raises(CatalogError):
        TableSchema([Column("a", INTEGER), Column("A", VARCHAR)])


def test_schema_lookup():
    schema = TableSchema([Column("a", INTEGER), Column("d", DATE)])
    assert schema.index_of("D") == 1
    assert schema.find("z") is None
    with pytest.raises(CatalogError):
        schema.index_of("z")


def test_memory_table_insert_partial_duplicate_column():
    table = MemoryTable(TableSchema([Column("a", INTEGER), Column("b", INTEGER)]))
    with pytest.raises(CatalogError):
        table.insert_many([[1, 2]], ["a", "a"])


def test_memory_table_truncate():
    table = MemoryTable(TableSchema([Column("a", INTEGER)]))
    table.insert_many([[1]])
    assert table.truncate() == 1
    assert len(table) == 0 and table.changed == 2


def test_catalog_names_sorted():
    catalog = Catalog()
    catalog.create_table("zeta", TableSchema([Column("a", INTEGER)]))
    catalog.create_table("Alpha", TableSchema([Column("a", INTEGER)]))
    assert catalog.names() == ["Alpha", "zeta"]


def test_table_names_api(db):
    db.execute("CREATE TABLE t (a INTEGER)")
    db.execute("CREATE VIEW v AS SELECT a FROM t")
    assert db.table_names() == ["t", "v"]
