"""Printer tests: canonical output and parse -> print -> parse stability."""

from __future__ import annotations

import pytest

from repro.sql import ast, parse_expression, parse_statement, to_sql
from repro.sql.printer import format_literal

ROUND_TRIP_STATEMENTS = [
    "SELECT 1",
    "SELECT a, b AS c FROM t",
    "SELECT DISTINCT a FROM t WHERE x > 1 GROUP BY a HAVING COUNT(*) > 2 "
    "ORDER BY a DESC NULLS FIRST LIMIT 3 OFFSET 1",
    "SELECT * FROM a JOIN b ON a.x = b.y LEFT JOIN c USING (k)",
    "SELECT 1 FROM a CROSS JOIN b",
    "SELECT x FROM (SELECT a AS x FROM t) AS sub",
    "WITH c AS (SELECT 1 AS x) SELECT x FROM c",
    "SELECT a FROM t UNION ALL SELECT b FROM u",
    "SELECT a FROM t INTERSECT SELECT b FROM u",
    "SELECT a FROM t EXCEPT SELECT b FROM u ORDER BY 1 LIMIT 5",
    "VALUES (1, 'a'), (2, 'b')",
    "SELECT CASE WHEN a THEN 1 ELSE 2 END FROM t",
    "SELECT CASE x WHEN 1 THEN 'a' END FROM t",
    "SELECT CAST(a AS DOUBLE), COALESCE(a, b, 0) FROM t",
    "SELECT x IS NULL, y IS NOT NULL, a IS NOT DISTINCT FROM b FROM t",
    "SELECT a BETWEEN 1 AND 2, b NOT IN (1, 2), c LIKE 'x%' ESCAPE '!' FROM t",
    "SELECT COUNT(*), SUM(DISTINCT x) FILTER (WHERE y > 0) FROM t",
    "SELECT AVG(x) OVER (PARTITION BY a ORDER BY b ROWS BETWEEN 1 PRECEDING "
    "AND 1 FOLLOWING) FROM t",
    "SELECT ROW_NUMBER() OVER (ORDER BY a) FROM t",
    "SELECT SUM(x) AS MEASURE m, a FROM t",
    "SELECT m AT (ALL a, b SET c = CURRENT c - 1 VISIBLE WHERE d > 2) FROM v",
    "SELECT AGGREGATE(m) FROM v GROUP BY ROLLUP(a, b)",
    "SELECT 1 FROM t GROUP BY GROUPING SETS ((a, b), (a), ())",
    "SELECT 1 FROM t GROUP BY CUBE(a, b)",
    "CREATE TABLE t (a INTEGER, b VARCHAR, c DATE)",
    "CREATE OR REPLACE VIEW v (x) AS SELECT a FROM t",
    "DROP VIEW IF EXISTS v",
    "INSERT INTO t (a, b) VALUES (1, 'x')",
    "INSERT INTO t SELECT * FROM u",
    "SELECT x FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.k = t.k)",
    "SELECT DATE '2024-01-31', -x, NOT a FROM t",
    "EXPLAIN EXPAND SELECT AGGREGATE(m) FROM v GROUP BY a",
    "EXPLAIN (TYPES) SELECT a FROM t",
    "EXPLAIN (LINT, TYPES) SELECT a FROM t",
    "EXPLAIN (ANALYZE, TYPES) SELECT a FROM t",
]


@pytest.mark.parametrize("sql", ROUND_TRIP_STATEMENTS)
def test_round_trip_statement(sql):
    """print(parse(sql)) re-parses to SQL that prints identically."""
    first = to_sql(parse_statement(sql))
    second = to_sql(parse_statement(first))
    assert first == second


def test_format_literal_string_escaping():
    assert format_literal("it's") == "'it''s'"


def test_format_literal_null_and_booleans():
    assert format_literal(None) == "NULL"
    assert format_literal(True) == "TRUE"
    assert format_literal(False) == "FALSE"


def test_format_literal_date():
    import datetime

    assert format_literal(datetime.date(2024, 2, 29)) == "DATE '2024-02-29'"


def test_quoted_identifier_in_output():
    stmt = parse_statement('SELECT "weird name" FROM t')
    assert '"weird name"' in to_sql(stmt)


@pytest.mark.parametrize("name", ["from", "order", "select", "date", "é", 'a"b', "a b"])
def test_every_identifier_prints_as_the_lexer_reads_it(name):
    """Keywords, non-ASCII letters and quotes are quoted, ``"`` doubled."""
    quoted = '"' + name.replace('"', '""') + '"'
    sql = f"SELECT {quoted}, t.{quoted} AS {quoted} FROM {quoted} AS t GROUP BY {quoted}"
    parsed = parse_statement(sql)
    assert parsed.query.items[0].expr.parts == (name,)
    assert parse_statement(to_sql(parsed)) == parsed


def test_plain_identifiers_print_bare():
    assert to_sql(parse_statement("SELECT a$1, _b FROM t")) == "SELECT a$1, _b FROM t"


def test_expression_precedence_preserved():
    """The printer parenthesizes, so precedence survives the round trip."""
    expr = parse_expression("1 + 2 * 3")
    reparsed = parse_expression(to_sql(expr))
    assert isinstance(reparsed, ast.Binary) and reparsed.op == "+"
    assert reparsed.right.op == "*"


def test_at_modifier_order_preserved():
    expr = parse_expression("m AT (ALL a SET b = 1)")
    reparsed = parse_expression(to_sql(expr))
    assert [type(m).__name__ for m in reparsed.modifiers] == [
        "AllModifier",
        "SetModifier",
    ]


def test_as_measure_round_trip():
    query = parse_statement("SELECT SUM(x) AS MEASURE m FROM t")
    printed = to_sql(query)
    assert "AS MEASURE m" in printed
    assert parse_statement(printed).query.items[0].is_measure
