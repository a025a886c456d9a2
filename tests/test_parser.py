"""Parser unit tests: statement shapes, expression precedence, measure syntax."""

from __future__ import annotations

import datetime
import sys

import pytest

from repro.errors import ParseError
from repro.sql import ast, parse_expression, parse_query, parse_statement, parse_statements
from repro.workloads.listings import SETUP, all_listing_sql


# -- expressions --------------------------------------------------------------


def test_precedence_multiplication_binds_tighter():
    expr = parse_expression("1 + 2 * 3")
    assert isinstance(expr, ast.Binary) and expr.op == "+"
    assert isinstance(expr.right, ast.Binary) and expr.right.op == "*"


def test_precedence_parentheses_override():
    expr = parse_expression("(1 + 2) * 3")
    assert expr.op == "*"
    assert expr.left.op == "+"


def test_precedence_and_binds_tighter_than_or():
    expr = parse_expression("a OR b AND c")
    assert expr.op == "OR"
    assert expr.right.op == "AND"


def test_precedence_not_above_comparison():
    expr = parse_expression("NOT a = b")
    assert isinstance(expr, ast.Unary) and expr.op == "NOT"
    assert isinstance(expr.operand, ast.Binary) and expr.operand.op == "="


def test_precedence_comparison_below_additive():
    expr = parse_expression("a + 1 < b - 2")
    assert expr.op == "<"
    assert expr.left.op == "+"
    assert expr.right.op == "-"


def test_at_binds_tighter_than_division():
    expr = parse_expression("x / x AT (ALL a)")
    assert isinstance(expr, ast.Binary) and expr.op == "/"
    assert isinstance(expr.right, ast.At)


def test_unary_minus():
    expr = parse_expression("-x + 1")
    assert expr.op == "+"
    assert isinstance(expr.left, ast.Unary)


def test_not_equal_normalized():
    assert parse_expression("a != b").op == "<>"


def test_concat_operator():
    assert parse_expression("a || b").op == "||"


def test_comparison_level_chains_left_to_right():
    expr = parse_expression("a < b = c IS NULL")
    assert isinstance(expr, ast.IsNull)
    assert expr.operand.op == "=" and expr.operand.left.op == "<"


@pytest.mark.parametrize(
    "sql, found",
    [("a IS NULL + 1", "+"), ("a IN (1) * 2", "*"), ("NOT a IS TRUE * 2", "*")],
)
def test_nothing_binds_tighter_after_a_comparison(sql, found):
    """After IS / IN (or a prefix NOT), arithmetic does not continue the
    expression: the grammar's levels stop there."""
    with pytest.raises(ParseError) as exc:
        parse_expression(sql)
    assert f"unexpected input after expression (found {found!r})" in str(exc.value)


def test_between():
    expr = parse_expression("x BETWEEN 1 AND 10")
    assert isinstance(expr, ast.Between)
    assert not expr.negated


def test_not_between():
    assert parse_expression("x NOT BETWEEN 1 AND 10").negated


def test_in_list():
    expr = parse_expression("x IN (1, 2, 3)")
    assert isinstance(expr, ast.InList)
    assert len(expr.items) == 3


def test_not_in_subquery():
    expr = parse_expression("x NOT IN (SELECT y FROM t)")
    assert isinstance(expr, ast.InSubquery)
    assert expr.negated


def test_like_with_escape():
    expr = parse_expression("x LIKE 'a!%%' ESCAPE '!'")
    assert isinstance(expr, ast.Like)
    assert expr.escape is not None


def test_is_null_and_is_not_null():
    assert not parse_expression("x IS NULL").negated
    assert parse_expression("x IS NOT NULL").negated


def test_is_not_distinct_from():
    expr = parse_expression("x IS NOT DISTINCT FROM y")
    assert isinstance(expr, ast.IsDistinctFrom)
    assert expr.negated


def test_searched_case():
    expr = parse_expression("CASE WHEN a THEN 1 WHEN b THEN 2 ELSE 3 END")
    assert isinstance(expr, ast.Case)
    assert expr.operand is None
    assert len(expr.whens) == 2
    assert expr.else_result is not None


def test_simple_case():
    expr = parse_expression("CASE x WHEN 1 THEN 'one' END")
    assert expr.operand is not None
    assert expr.else_result is None


def test_case_requires_when():
    with pytest.raises(ParseError):
        parse_expression("CASE ELSE 1 END")


def test_cast():
    expr = parse_expression("CAST(x AS DOUBLE)")
    assert isinstance(expr, ast.Cast)
    assert expr.type_name == "DOUBLE"
    assert not expr.is_measure_type


def test_cast_to_measure_type():
    assert parse_expression("CAST(x AS INTEGER MEASURE)").is_measure_type


def test_extract_becomes_function():
    expr = parse_expression("EXTRACT(YEAR FROM d)")
    assert isinstance(expr, ast.FunctionCall)
    assert expr.name == "YEAR"


def test_date_literal():
    expr = parse_expression("DATE '2023-11-28'")
    assert expr.value == datetime.date(2023, 11, 28)


def test_date_literal_with_slashes():
    assert parse_expression("DATE '2023/11/28'").value == datetime.date(2023, 11, 28)


def test_invalid_date_literal_raises():
    with pytest.raises(ParseError):
        parse_expression("DATE '2023-13-99'")


def test_boolean_and_null_literals():
    assert parse_expression("TRUE").value is True
    assert parse_expression("FALSE").value is False
    assert parse_expression("NULL").value is None


def test_qualified_column_ref():
    expr = parse_expression("o.prodName")
    assert expr.parts == ("o", "prodName")
    assert expr.qualifier == "o"
    assert expr.name == "prodName"


def test_count_star():
    expr = parse_expression("COUNT(*)")
    assert expr.star_arg


def test_distinct_aggregate():
    assert parse_expression("COUNT(DISTINCT x)").distinct


def test_aggregate_filter_clause():
    expr = parse_expression("SUM(x) FILTER (WHERE x > 0)")
    assert expr.filter_where is not None


def test_window_function_full_spec():
    expr = parse_expression(
        "SUM(x) OVER (PARTITION BY a, b ORDER BY c DESC "
        "ROWS BETWEEN 2 PRECEDING AND CURRENT ROW)"
    )
    spec = expr.over
    assert len(spec.partition_by) == 2
    assert spec.order_by[0].descending
    assert spec.frame.unit == "ROWS"
    assert spec.frame.start.kind == "PRECEDING"
    assert spec.frame.end.kind == "CURRENT_ROW"


def test_window_shorthand_frame():
    expr = parse_expression("SUM(x) OVER (ORDER BY c ROWS UNBOUNDED PRECEDING)")
    assert expr.over.frame.start.kind == "UNBOUNDED_PRECEDING"
    assert expr.over.frame.end.kind == "CURRENT_ROW"


def test_scalar_subquery_in_expression():
    expr = parse_expression("(SELECT MAX(x) FROM t)")
    assert isinstance(expr, ast.ScalarSubquery)


def test_double_paren_subquery_arithmetic():
    expr = parse_expression("((SELECT a FROM t) / (SELECT b FROM u))")
    assert isinstance(expr, ast.Binary) and expr.op == "/"
    assert isinstance(expr.left, ast.ScalarSubquery)


def test_exists():
    assert isinstance(parse_expression("EXISTS (SELECT 1 FROM t)"), ast.Exists)


# -- measure syntax ----------------------------------------------------------


def test_as_measure_select_item():
    stmt = parse_query("SELECT SUM(x) AS MEASURE total FROM t")
    item = stmt.items[0]
    assert item.is_measure
    assert item.alias == "total"


def test_plain_as_alias_is_not_measure():
    assert not parse_query("SELECT SUM(x) AS total FROM t").items[0].is_measure


def test_at_all_bare():
    expr = parse_expression("m AT (ALL)")
    assert isinstance(expr, ast.At)
    assert isinstance(expr.modifiers[0], ast.AllModifier)
    assert expr.modifiers[0].dims == []


def test_at_all_with_dims():
    expr = parse_expression("m AT (ALL a, b)")
    assert len(expr.modifiers[0].dims) == 2


def test_at_set_with_current():
    expr = parse_expression("m AT (SET y = CURRENT y - 1)")
    modifier = expr.modifiers[0]
    assert isinstance(modifier, ast.SetModifier)
    value = modifier.value
    assert isinstance(value, ast.Binary)
    assert isinstance(value.left, ast.CurrentDim)


def test_at_multiple_modifiers_space_separated():
    expr = parse_expression("m AT (ALL a SET b = 1 VISIBLE WHERE c > 2)")
    types = [type(m).__name__ for m in expr.modifiers]
    assert types == ["AllModifier", "SetModifier", "VisibleModifier", "WhereModifier"]


def test_at_chained():
    expr = parse_expression("m AT (ALL) AT (VISIBLE)")
    assert isinstance(expr, ast.At)
    assert isinstance(expr.operand, ast.At)


def test_at_set_adhoc_dimension():
    expr = parse_expression("m AT (SET YEAR(d) = 2023)")
    assert isinstance(expr.modifiers[0].dim, ast.FunctionCall)


def test_at_requires_modifier():
    with pytest.raises(ParseError):
        parse_expression("m AT ()")


def test_aggregate_call_parses_as_function():
    expr = parse_expression("AGGREGATE(profitMargin)")
    assert isinstance(expr, ast.FunctionCall)
    assert expr.name == "AGGREGATE"


# -- statements ----------------------------------------------------------------


def test_create_table():
    stmt = parse_statement("CREATE TABLE t (a INTEGER, b VARCHAR, c DATE)")
    assert isinstance(stmt, ast.CreateTable)
    assert [c.name for c in stmt.columns] == ["a", "b", "c"]
    assert stmt.columns[2].type_name == "DATE"


def test_create_table_with_precision():
    stmt = parse_statement("CREATE TABLE t (a VARCHAR(30), b DECIMAL(10, 2))")
    assert stmt.columns[0].type_name == "VARCHAR"


def test_create_or_replace_view_with_columns():
    stmt = parse_statement("CREATE OR REPLACE VIEW v (x, y) AS SELECT a, b FROM t")
    assert isinstance(stmt, ast.CreateView)
    assert stmt.or_replace
    assert stmt.column_names == ["x", "y"]


def test_drop_table_if_exists():
    stmt = parse_statement("DROP TABLE IF EXISTS t")
    assert stmt.kind == "TABLE"
    assert stmt.if_exists


def test_insert_values():
    stmt = parse_statement("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')")
    assert isinstance(stmt, ast.Insert)
    assert stmt.columns == ["a", "b"]
    assert len(stmt.source.rows) == 2


def test_insert_from_select():
    stmt = parse_statement("INSERT INTO t SELECT * FROM u")
    assert isinstance(stmt.source, ast.Select)


def test_explain_expand():
    stmt = parse_statement("EXPLAIN EXPAND SELECT AGGREGATE(m) FROM v GROUP BY a")
    assert isinstance(stmt, ast.ExplainExpand)


def test_multiple_statements():
    stmts = parse_statements("SELECT 1; SELECT 2;; SELECT 3")
    assert len(stmts) == 3


# -- query clauses -----------------------------------------------------------


def test_select_distinct():
    assert parse_query("SELECT DISTINCT a FROM t").distinct


def test_group_by_rollup():
    query = parse_query("SELECT a, COUNT(*) FROM t GROUP BY ROLLUP(a, b)")
    assert isinstance(query.group_by[0], ast.Rollup)
    assert len(query.group_by[0].exprs) == 2


def test_group_by_cube():
    query = parse_query("SELECT 1 FROM t GROUP BY CUBE(a, b)")
    assert isinstance(query.group_by[0], ast.Cube)


def test_group_by_grouping_sets_with_empty_set():
    query = parse_query("SELECT 1 FROM t GROUP BY GROUPING SETS ((a, b), (a), ())")
    sets = query.group_by[0].sets
    assert [len(s) for s in sets] == [2, 1, 0]


def test_group_by_mixed_elements():
    query = parse_query("SELECT 1 FROM t GROUP BY a, ROLLUP(b)")
    assert isinstance(query.group_by[0], ast.SimpleGrouping)
    assert isinstance(query.group_by[1], ast.Rollup)


def test_order_by_directions_and_nulls():
    query = parse_query("SELECT a FROM t ORDER BY a DESC NULLS FIRST, b ASC NULLS LAST")
    assert query.order_by[0].descending
    assert query.order_by[0].nulls_first is True
    assert query.order_by[1].nulls_first is False


def test_limit_offset():
    query = parse_query("SELECT a FROM t LIMIT 10 OFFSET 5")
    assert query.limit.value == 10
    assert query.offset.value == 5


def test_joins_chain_left_associative():
    query = parse_query("SELECT 1 FROM a JOIN b ON x = y LEFT JOIN c USING (k)")
    outer = query.from_clause
    assert isinstance(outer, ast.Join)
    assert outer.kind == "LEFT"
    assert outer.using == ["k"]
    assert isinstance(outer.left, ast.Join)


def test_cross_join_and_comma_join_equivalence():
    explicit = parse_query("SELECT 1 FROM a CROSS JOIN b").from_clause
    comma = parse_query("SELECT 1 FROM a, b").from_clause
    assert explicit.kind == comma.kind == "CROSS"


def test_natural_join():
    assert parse_query("SELECT 1 FROM a NATURAL JOIN b").from_clause.natural


def test_join_requires_condition():
    with pytest.raises(ParseError):
        parse_query("SELECT 1 FROM a JOIN b")


def test_subquery_in_from_with_alias():
    query = parse_query("SELECT x FROM (SELECT a AS x FROM t) AS sub")
    assert isinstance(query.from_clause, ast.SubqueryRef)
    assert query.from_clause.alias == "sub"


def test_with_cte():
    query = parse_query("WITH c (x) AS (SELECT a FROM t) SELECT x FROM c")
    assert isinstance(query, ast.WithQuery)
    assert query.ctes[0].name == "c"
    assert query.ctes[0].columns == ["x"]


def test_set_ops_intersect_binds_tighter():
    query = parse_query("SELECT 1 UNION SELECT 2 INTERSECT SELECT 3")
    assert query.op == "UNION"
    assert query.right.op == "INTERSECT"


def test_union_all_flag():
    assert parse_query("SELECT 1 UNION ALL SELECT 2").all
    assert not parse_query("SELECT 1 UNION DISTINCT SELECT 2").all


def test_values_as_query():
    query = parse_query("VALUES (1, 'a'), (2, 'b')")
    assert isinstance(query, ast.Values)
    assert len(query.rows) == 2


def test_star_and_qualified_star_items():
    query = parse_query("SELECT *, o.* FROM Orders AS o")
    assert isinstance(query.items[0].expr, ast.Star)
    assert query.items[1].expr.qualifier == "o"


def test_trailing_garbage_raises():
    with pytest.raises(ParseError):
        parse_statement("SELECT 1 FROM t xyzzy plugh")


def test_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_statement("SELECT FROM t")
    assert "line 1" in str(exc.value)


# -- cost guard -----------------------------------------------------------------

#: Python-level calls made to parse the paper's 15 listings (13 listings and
#: the expansions of Listings 4 and 10): 10 672 on CPython 3.11, plus 5 %.
#: The character-at-a-time lexer and the six-level expression ladder made
#: 38 876.  No clock: a change that brings back per-character or per-level
#: method calls fails here deterministically.
PARSE_LISTINGS_CALL_CEILING = 11_205


def _python_calls(run) -> int:
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return calls


def test_the_ladder_and_the_character_lexer_are_gone():
    from repro.sql import lexer, parser

    assert not hasattr(lexer, "_Lexer")
    for name in ("_or_expr", "_and_expr", "_not_expr", "_predicate", "_additive",
                 "_multiplicative", "_postfix"):
        assert not hasattr(parser._Parser, name), name


def test_parsing_the_listings_stays_within_its_call_budget(paper_db):
    for ddl in SETUP.values():
        paper_db.execute(ddl)
    texts = list(all_listing_sql(paper_db).values())
    assert len(texts) == 15

    def parse_all():
        for text in texts:
            parse_statement(text)

    parse_all()  # warm: nothing lazily built is counted
    assert _python_calls(parse_all) <= PARSE_LISTINGS_CALL_CEILING
