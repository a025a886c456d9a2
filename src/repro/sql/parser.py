"""Recursive-descent parser for the supported SQL dialect.

The grammar covers the subset in DESIGN.md plus the paper's measure
extensions.  Expression parsing is precedence climbing: one binding-power
table (:data:`_POWER`) and one loop (:meth:`_Parser._binary`), with these
levels, loosest first::

    OR  <  AND  <  NOT  <  comparison/IS/IN/BETWEEN/LIKE  <  + - ||  <  * / %
       <  unary +/-  <  postfix AT  <  primary

``AT`` binds tighter than arithmetic so that, as in the paper's Listing 6,
``sumRevenue / sumRevenue AT (ALL prodName)`` divides by the modified measure.
"""

from __future__ import annotations

import datetime
from typing import Optional

from repro.errors import ParseError
from repro.sql import ast
from repro.sql.lexer import tokenize
from repro.sql.tokens import Token, TokenType

__all__ = ["parse_statement", "parse_statements", "parse_query", "parse_expression"]

#: Keywords that may also appear as function names (``AGGREGATE(m)`` etc.).
_KEYWORD_FUNCTIONS = frozenset({"AGGREGATE", "EVAL", "GROUPING", "IF", "LEFT", "RIGHT", "REPLACE"})

#: Non-reserved keywords that may also appear in identifier position.
_IDENT_KEYWORDS = frozenset(
    {"AGGREGATE", "DATE", "EVAL", "FIRST", "LAST", "ROW", "SETS", "VALUES", "VISIBLE"}
)

_KEYWORD = TokenType.KEYWORD
_OPERATOR = TokenType.OPERATOR

#: Binding powers, loosest first.  ``NOT`` is also the prefix operator's
#: power: its operand takes comparisons and arithmetic but stops at AND / OR.
_OR, _AND, _NOT, _COMPARISON, _ADDITIVE, _MULTIPLICATIVE = range(1, 7)

#: The infix operators' binding powers, keyed by (token type, token text).
#: All are left-associative.  The keywords at the comparison level (IS,
#: BETWEEN, IN, LIKE, and NOT before the last three) build their own nodes in
#: :meth:`_Parser._keyword_comparison`.
_POWER = {
    (_KEYWORD, "OR"): _OR,
    (_KEYWORD, "AND"): _AND,
    **{(_KEYWORD, word): _COMPARISON for word in ("IS", "BETWEEN", "IN", "LIKE", "NOT")},
    **{(_OPERATOR, op): _COMPARISON for op in ("=", "<>", "!=", "<", "<=", ">", ">=")},
    **{(_OPERATOR, op): _ADDITIVE for op in ("+", "-", "||")},
    **{(_OPERATOR, op): _MULTIPLICATIVE for op in ("*", "/", "%")},
}


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0
        self.parameter_count = 0

    # -- token utilities ---------------------------------------------------

    @property
    def current(self) -> Token:
        return self.tokens[self.pos]

    def peek(self, offset: int = 0) -> Token:
        index = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def error(self, message: str) -> ParseError:
        token = self.current
        found = token.text or "end of input"
        return ParseError(f"{message} (found {found!r})", token.line, token.column)

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.type is not TokenType.EOF:
            self.pos += 1
        return token

    def _mark(self, node: ast.Node, token: Token) -> ast.Node:
        """Attach ``token``'s source position to ``node`` (first mark wins)."""
        if node.span is None:
            node.span = ast.Span(
                token.line,
                token.column,
                token.line,
                token.column + (len(token.text) or 1),
            )
        return node

    # Keyword and operator tokens are never EOF, so a match may step past
    # them without advance()'s EOF check.

    def at_keyword(self, *words: str) -> bool:
        token = self.tokens[self.pos]
        return token.type is _KEYWORD and token.text in words

    def accept_keyword(self, *words: str) -> bool:
        token = self.tokens[self.pos]
        if token.type is _KEYWORD and token.text in words:
            self.pos += 1
            return True
        return False

    def expect_keyword(self, word: str) -> Token:
        token = self.tokens[self.pos]
        if token.type is not _KEYWORD or token.text != word:
            raise self.error(f"expected {word}")
        self.pos += 1
        return token

    def at_operator(self, *ops: str) -> bool:
        token = self.tokens[self.pos]
        return token.type is _OPERATOR and token.text in ops

    def accept_operator(self, *ops: str) -> bool:
        token = self.tokens[self.pos]
        if token.type is _OPERATOR and token.text in ops:
            self.pos += 1
            return True
        return False

    def expect_operator(self, op: str) -> Token:
        token = self.tokens[self.pos]
        if token.type is not _OPERATOR or token.text != op:
            raise self.error(f"expected {op!r}")
        self.pos += 1
        return token

    def expect_ident(self, what: str = "identifier") -> str:
        token = self.tokens[self.pos]
        if token.type is TokenType.IDENT or (
            token.type is _KEYWORD and token.text in _IDENT_KEYWORDS
        ):
            self.pos += 1
            return token.value
        raise self.error(f"expected {what}")

    # -- entry points --------------------------------------------------

    def parse_statement(self) -> ast.Statement:
        stmt = self._statement()
        self.accept_operator(";")
        if self.current.type is not TokenType.EOF:
            raise self.error("unexpected input after statement")
        return stmt

    def parse_statements(self) -> list[ast.Statement]:
        statements = []
        while self.current.type is not TokenType.EOF:
            statements.append(self._statement())
            while self.accept_operator(";"):
                pass
        return statements

    def parse_query_only(self) -> ast.Query:
        query = self._query()
        self.accept_operator(";")
        if self.current.type is not TokenType.EOF:
            raise self.error("unexpected input after query")
        return query

    def parse_expression_only(self) -> ast.Expression:
        expr = self._expr()
        if self.current.type is not TokenType.EOF:
            raise self.error("unexpected input after expression")
        return expr

    # -- statements ---------------------------------------------------

    def _statement(self) -> ast.Statement:
        start = self.current
        return self._mark(self._statement_inner(), start)

    def _statement_inner(self) -> ast.Statement:
        if self.at_keyword("CREATE"):
            return self._create()
        if self.at_keyword("DROP"):
            return self._drop()
        if self.at_keyword("INSERT"):
            return self._insert()
        if self.at_keyword("UPDATE"):
            return self._update()
        if (
            self.current.type is TokenType.IDENT
            and str(self.current.value).upper() == "TRUNCATE"
        ):
            self.advance()
            self.accept_keyword("TABLE")
            return ast.Truncate(self.expect_ident("table name"))
        if (
            self.current.type is TokenType.IDENT
            and str(self.current.value).upper() == "ANALYZE"
        ):
            self.advance()
            table = None
            if self.current.type is TokenType.IDENT:
                table = self.expect_ident("table name")
            return ast.Analyze(table)
        if self.at_keyword("DELETE"):
            return self._delete()
        if self.at_keyword("REFRESH"):
            self.advance()
            self.expect_keyword("MATERIALIZED")
            self.expect_keyword("VIEW")
            return ast.RefreshMaterializedView(self.expect_ident("view name"))
        if (
            self.current.type is TokenType.IDENT
            and str(self.current.value).upper() == "EXPLAIN"
        ):
            self.advance()
            if (
                self.current.type is TokenType.IDENT
                and str(self.current.value).upper() == "EXPAND"
            ):
                self.advance()
                return ast.ExplainExpand(self._query())
            lint = False
            analyze = False
            types = False
            # Bare ANALYZE keyword: EXPLAIN ANALYZE <query>.
            if (
                self.current.type is TokenType.IDENT
                and str(self.current.value).upper() == "ANALYZE"
            ):
                self.advance()
                analyze = True
            # EXPLAIN (LINT[, ANALYZE][, TYPES]) query — the lookahead
            # distinguishes the option list from a parenthesized query:
            # EXPLAIN (SELECT ...) stays a plain EXPLAIN.
            elif (
                self.at_operator("(")
                and self.peek(1).type is TokenType.IDENT
                and str(self.peek(1).value).upper() in ("LINT", "ANALYZE", "TYPES")
            ):
                self.advance()  # '('
                while True:
                    option = self.expect_ident("EXPLAIN option").upper()
                    if option == "LINT":
                        lint = True
                    elif option == "ANALYZE":
                        analyze = True
                    elif option == "TYPES":
                        types = True
                    else:
                        raise self.error(
                            f"unknown EXPLAIN option {option}; "
                            "expected LINT, ANALYZE or TYPES"
                        )
                    if not self.accept_operator(","):
                        break
                self.expect_operator(")")
            if not (
                self.at_keyword("SELECT", "WITH", "VALUES")
                or self.at_operator("(")
                or self._at_show_stats()
            ):
                # EXPLAIN over DDL/DML: parses (so the linter can flag it,
                # rule RP111) but refuses to execute.
                target = self._statement()
                return ast.ExplainPlan(
                    None, lint=lint, analyze=analyze, types=types, target=target
                )
            return ast.ExplainPlan(
                self._query(), lint=lint, analyze=analyze, types=types
            )
        if self._at_show_stats():
            return ast.QueryStatement(self._show_stats())
        if self.at_keyword("SELECT", "WITH", "VALUES") or self.at_operator("("):
            return ast.QueryStatement(self._query())
        raise self.error("expected a statement")

    def _at_show_stats(self) -> bool:
        """True at ``SHOW STATS`` (two soft keywords, like EXPLAIN: plain
        identifiers named show/stats stay usable everywhere else)."""
        return (
            self.current.type is TokenType.IDENT
            and str(self.current.value).upper() == "SHOW"
            and self.peek(1).type is TokenType.IDENT
            and str(self.peek(1).value).upper() == "STATS"
        )

    def _show_stats(self) -> ast.ShowStats:
        token = self.advance()  # SHOW
        self.advance()  # STATS
        node = ast.ShowStats()
        self._mark(node, token)
        return node

    def _create(self) -> ast.Statement:
        self.expect_keyword("CREATE")
        or_replace = False
        if self.accept_keyword("OR"):
            self.expect_keyword("REPLACE")
            or_replace = True
        if self.accept_keyword("TABLE"):
            if_not_exists = False
            if self.accept_keyword("IF"):
                self.expect_keyword("NOT")
                self.expect_keyword("EXISTS")
                if_not_exists = True
            name = self.expect_ident("table name")
            if self.accept_keyword("AS"):
                return ast.CreateTableAs(name, self._query(), or_replace)
            self.expect_operator("(")
            columns = []
            while True:
                col_name = self.expect_ident("column name")
                type_name = self._type_name()
                columns.append(ast.ColumnDef(col_name, type_name))
                if not self.accept_operator(","):
                    break
            self.expect_operator(")")
            return ast.CreateTable(name, columns, or_replace, if_not_exists)
        if self.accept_keyword("MATERIALIZED"):
            self.expect_keyword("VIEW")
            name = self.expect_ident("view name")
            self.expect_keyword("AS")
            return ast.CreateMaterializedView(name, self._query(), or_replace)
        if self.accept_keyword("VIEW"):
            name = self.expect_ident("view name")
            column_names: list[str] = []
            if self.accept_operator("("):
                while True:
                    column_names.append(self.expect_ident("column name"))
                    if not self.accept_operator(","):
                        break
                self.expect_operator(")")
            self.expect_keyword("AS")
            query = self._query()
            return ast.CreateView(name, query, or_replace, column_names)
        raise self.error("expected TABLE, VIEW or MATERIALIZED VIEW after CREATE")

    def _type_name(self) -> str:
        if self.current.type is TokenType.KEYWORD and self.current.text in (
            "DATE",
            "BOOLEAN",
        ):
            return self.advance().text
        name = self.expect_ident("type name")
        # Consume optional precision/scale, e.g. VARCHAR(30), DECIMAL(10, 2).
        if self.accept_operator("("):
            while not self.at_operator(")"):
                self.advance()
            self.expect_operator(")")
        return name

    def _drop(self) -> ast.Statement:
        self.expect_keyword("DROP")
        if self.accept_keyword("TABLE"):
            kind = "TABLE"
        elif self.accept_keyword("MATERIALIZED"):
            self.expect_keyword("VIEW")
            kind = "MATERIALIZED VIEW"
        elif self.accept_keyword("VIEW"):
            kind = "VIEW"
        else:
            raise self.error("expected TABLE, VIEW or MATERIALIZED VIEW after DROP")
        if_exists = False
        if self.accept_keyword("IF"):
            self.expect_keyword("EXISTS")
            if_exists = True
        name = self.expect_ident("object name")
        return ast.DropObject(kind, name, if_exists)

    def _update(self) -> ast.Statement:
        self.expect_keyword("UPDATE")
        table = self.expect_ident("table name")
        self.expect_keyword("SET")
        assignments = []
        while True:
            column = self.expect_ident("column name")
            self.expect_operator("=")
            assignments.append(ast.Assignment(column, self._expr()))
            if not self.accept_operator(","):
                break
        where = self._expr() if self.accept_keyword("WHERE") else None
        return ast.Update(table, assignments, where)

    def _delete(self) -> ast.Statement:
        self.expect_keyword("DELETE")
        self.expect_keyword("FROM")
        table = self.expect_ident("table name")
        where = self._expr() if self.accept_keyword("WHERE") else None
        return ast.Delete(table, where)

    def _insert(self) -> ast.Statement:
        self.expect_keyword("INSERT")
        self.expect_keyword("INTO")
        table = self.expect_ident("table name")
        columns: list[str] = []
        if self.at_operator("(") and not self._paren_starts_query():
            self.expect_operator("(")
            while True:
                columns.append(self.expect_ident("column name"))
                if not self.accept_operator(","):
                    break
            self.expect_operator(")")
        source = self._query()
        return ast.Insert(table, columns, source)

    # -- queries --------------------------------------------------------

    def _paren_starts_query(self) -> bool:
        """Does the current '(' open a query (vs a parenthesized expression)?

        Only one level is inspected: ``((SELECT ...`` is treated as an
        expression paren whose contents re-enter the expression parser, where
        the inner ``(SELECT`` becomes a scalar subquery.  This makes shapes
        like ``((SELECT a) / (SELECT b))`` parse correctly.
        """
        if not self.at_operator("("):
            return False
        return self.peek(1).is_keyword("SELECT", "WITH", "VALUES")

    def _query(self) -> ast.Query:
        if self.at_keyword("WITH"):
            return self._with_query()
        return self._set_op_query()

    def _with_query(self) -> ast.Query:
        self.expect_keyword("WITH")
        ctes = []
        while True:
            name = self.expect_ident("CTE name")
            columns: list[str] = []
            if self.accept_operator("("):
                while True:
                    columns.append(self.expect_ident("column name"))
                    if not self.accept_operator(","):
                        break
                self.expect_operator(")")
            self.expect_keyword("AS")
            self.expect_operator("(")
            query = self._query()
            self.expect_operator(")")
            ctes.append(ast.Cte(name, columns, query))
            if not self.accept_operator(","):
                break
        body = self._set_op_query()
        return ast.WithQuery(ctes, body)

    def _set_op_query(self) -> ast.Query:
        left = self._intersect_query()
        while self.at_keyword("UNION", "EXCEPT"):
            op = self.advance().text
            all_flag = self.accept_keyword("ALL")
            if not all_flag:
                self.accept_keyword("DISTINCT")
            right = self._intersect_query()
            left = ast.SetOp(op, all_flag, left, right)
        self._attach_trailing_clauses(left)
        return left

    def _trailing_clauses(self) -> tuple:
        order_by: list[ast.OrderItem] = []
        limit = offset = None
        if self.at_keyword("ORDER"):
            order_by = self._order_by()
        if self.accept_keyword("LIMIT"):
            limit = self._expr()
        if self.accept_keyword("OFFSET"):
            offset = self._expr()
        return order_by, limit, offset

    def _intersect_query(self) -> ast.Query:
        left = self._query_primary()
        while self.at_keyword("INTERSECT"):
            self.advance()
            all_flag = self.accept_keyword("ALL")
            if not all_flag:
                self.accept_keyword("DISTINCT")
            right = self._query_primary()
            left = ast.SetOp("INTERSECT", all_flag, left, right)
        return left

    def _attach_trailing_clauses(self, query: ast.Query) -> None:
        """Attach ORDER BY / LIMIT / OFFSET to the whole query expression
        (they belong to the set operation, not its last operand)."""
        order_by, limit, offset = self._trailing_clauses()
        if isinstance(query, (ast.SetOp, ast.Select)):
            if order_by:
                query.order_by = order_by
            if limit is not None:
                query.limit = limit
            if offset is not None:
                query.offset = offset
        elif order_by or limit is not None or offset is not None:
            raise self.error("ORDER BY/LIMIT is not supported on VALUES")

    def _query_primary(self) -> ast.Query:
        if self.at_keyword("SELECT"):
            return self._select()
        if self.at_keyword("VALUES"):
            return self._values()
        if self._at_show_stats():
            # Parses anywhere a query can appear so lint rule RP112 can
            # point at nested uses; the binder rejects them.
            return self._show_stats()
        if self.at_operator("("):
            self.expect_operator("(")
            query = self._query()
            self.expect_operator(")")
            return query
        raise self.error("expected SELECT, VALUES, or a parenthesized query")

    def _values(self) -> ast.Values:
        self.expect_keyword("VALUES")
        rows = []
        while True:
            self.expect_operator("(")
            row = [self._expr()]
            while self.accept_operator(","):
                row.append(self._expr())
            self.expect_operator(")")
            rows.append(row)
            if not self.accept_operator(","):
                break
        return ast.Values(rows)

    def _select(self) -> ast.Select:
        start = self.expect_keyword("SELECT")
        distinct = False
        if self.accept_keyword("DISTINCT"):
            distinct = True
        else:
            self.accept_keyword("ALL")
        items = [self._select_item()]
        while self.accept_operator(","):
            items.append(self._select_item())
        select = ast.Select(items=items, distinct=distinct)
        self._mark(select, start)
        if self.accept_keyword("FROM"):
            select.from_clause = self._from_clause()
        if self.accept_keyword("WHERE"):
            select.where = self._expr()
        if self.at_keyword("GROUP"):
            self.advance()
            self.expect_keyword("BY")
            select.group_by = self._grouping_elements()
        if self.accept_keyword("HAVING"):
            select.having = self._expr()
        if self.accept_keyword("QUALIFY"):
            select.qualify = self._expr()
        if self.accept_keyword("WINDOW"):
            while True:
                window_name = self.expect_ident("window name")
                self.expect_keyword("AS")
                select.windows.append(
                    ast.NamedWindow(window_name, self._window_spec())
                )
                if not self.accept_operator(","):
                    break
        return select

    def _select_item(self) -> ast.SelectItem:
        start = self.current
        if self.at_operator("*"):
            self.advance()
            item = ast.SelectItem(self._mark(ast.Star(), start))
            return self._mark(item, start)
        if (
            self.current.type is TokenType.IDENT
            and self.peek(1).type is TokenType.OPERATOR
            and self.peek(1).text == "."
            and self.peek(2).type is TokenType.OPERATOR
            and self.peek(2).text == "*"
        ):
            qualifier = str(self.advance().value)
            self.advance()  # '.'
            self.advance()  # '*'
            item = ast.SelectItem(self._mark(ast.Star(qualifier), start))
            return self._mark(item, start)
        expr = self._expr()
        alias: Optional[str] = None
        is_measure = False
        if self.accept_keyword("AS"):
            if self.accept_keyword("MEASURE"):
                is_measure = True
            alias = self.expect_ident("alias")
        elif self.current.type is TokenType.IDENT:
            alias = str(self.advance().value)
        return self._mark(ast.SelectItem(expr, alias, is_measure), start)

    def _from_clause(self) -> ast.TableRef:
        left = self._join_chain()
        while self.accept_operator(","):
            right = self._join_chain()
            left = ast.Join("CROSS", left, right)
        return left

    def _join_chain(self) -> ast.TableRef:
        left = self._table_primary()
        while True:
            natural = False
            if self.at_keyword("NATURAL"):
                natural = True
                self.advance()
            if self.at_keyword("JOIN"):
                kind = "INNER"
                self.advance()
            elif self.at_keyword("INNER"):
                self.advance()
                self.expect_keyword("JOIN")
                kind = "INNER"
            elif self.at_keyword("LEFT", "RIGHT", "FULL"):
                kind = self.advance().text
                self.accept_keyword("OUTER")
                self.expect_keyword("JOIN")
            elif self.at_keyword("CROSS"):
                self.advance()
                self.expect_keyword("JOIN")
                kind = "CROSS"
            else:
                if natural:
                    raise self.error("expected JOIN after NATURAL")
                return left
            right = self._table_primary()
            join = ast.Join(kind, left, right, natural=natural)
            if kind != "CROSS" and not natural:
                if self.accept_keyword("ON"):
                    join.condition = self._expr()
                elif self.accept_keyword("USING"):
                    self.expect_operator("(")
                    names = [self.expect_ident("column name")]
                    while self.accept_operator(","):
                        names.append(self.expect_ident("column name"))
                    self.expect_operator(")")
                    join.using = names
                else:
                    raise self.error("expected ON or USING for join")
            left = join

    def _table_primary(self) -> ast.TableRef:
        table = self._table_primary_base()
        while self.at_keyword("PIVOT", "UNPIVOT"):
            if self.at_keyword("PIVOT"):
                table = self._pivot(table)
            else:
                table = self._unpivot(table)
        return table

    def _pivot(self, table: ast.TableRef) -> ast.TableRef:
        self.expect_keyword("PIVOT")
        self.expect_operator("(")
        agg_name = self.expect_ident("aggregate function")
        agg = self._function_call(agg_name)
        if not isinstance(agg, ast.FunctionCall):
            raise self.error("PIVOT requires an aggregate function call")
        self.expect_keyword("FOR")
        key = self._column_ref()
        self.expect_keyword("IN")
        self.expect_operator("(")
        values: list[tuple[ast.Literal, Optional[str]]] = []
        while True:
            literal = self._primary()
            if not isinstance(literal, ast.Literal):
                raise self.error("PIVOT IN list requires literals")
            alias = None
            if self.accept_keyword("AS"):
                alias = self.expect_ident("pivot column name")
            values.append((literal, alias))
            if not self.accept_operator(","):
                break
        self.expect_operator(")")
        self.expect_operator(")")
        alias = self._table_alias()
        return ast.PivotRef(table, agg, key, values, alias)

    def _unpivot(self, table: ast.TableRef) -> ast.TableRef:
        self.expect_keyword("UNPIVOT")
        self.expect_operator("(")
        value_column = self.expect_ident("value column name")
        self.expect_keyword("FOR")
        name_column = self.expect_ident("name column name")
        self.expect_keyword("IN")
        self.expect_operator("(")
        columns: list[tuple[str, Optional[str]]] = []
        while True:
            column = self.expect_ident("column name")
            label = None
            if self.accept_keyword("AS"):
                if self.current.type is TokenType.STRING:
                    label = str(self.advance().value)
                else:
                    label = self.expect_ident("label")
            columns.append((column, label))
            if not self.accept_operator(","):
                break
        self.expect_operator(")")
        self.expect_operator(")")
        alias = self._table_alias()
        return ast.UnpivotRef(table, value_column, name_column, columns, alias)

    def _table_primary_base(self) -> ast.TableRef:
        start = self.current
        if self.at_operator("("):
            self.expect_operator("(")
            if self.at_keyword("SELECT", "WITH", "VALUES"):
                query = self._query()
                self.expect_operator(")")
                alias = self._table_alias()
                return self._mark(ast.SubqueryRef(query, alias), start)
            # Parenthesized table expression (join tree, PIVOT, nested query).
            table = self._from_clause()
            self.expect_operator(")")
            return table
        name = self.expect_ident("table name")
        alias = self._table_alias()
        return self._mark(ast.TableName(name, alias), start)

    def _table_alias(self) -> Optional[str]:
        if self.accept_keyword("AS"):
            return self.expect_ident("alias")
        if self.current.type is TokenType.IDENT:
            return str(self.advance().value)
        return None

    def _grouping_elements(self) -> list[ast.GroupingElement]:
        elements: list[ast.GroupingElement] = []
        while True:
            if self.accept_keyword("ROLLUP"):
                self.expect_operator("(")
                exprs = [self._expr()]
                while self.accept_operator(","):
                    exprs.append(self._expr())
                self.expect_operator(")")
                elements.append(ast.Rollup(exprs))
            elif self.accept_keyword("CUBE"):
                self.expect_operator("(")
                exprs = [self._expr()]
                while self.accept_operator(","):
                    exprs.append(self._expr())
                self.expect_operator(")")
                elements.append(ast.Cube(exprs))
            elif self.at_keyword("GROUPING") and self.peek(1).is_keyword("SETS"):
                self.advance()
                self.advance()
                self.expect_operator("(")
                sets: list[list[ast.Expression]] = []
                while True:
                    self.expect_operator("(")
                    group: list[ast.Expression] = []
                    if not self.at_operator(")"):
                        group.append(self._expr())
                        while self.accept_operator(","):
                            group.append(self._expr())
                    self.expect_operator(")")
                    sets.append(group)
                    if not self.accept_operator(","):
                        break
                self.expect_operator(")")
                elements.append(ast.GroupingSets(sets))
            else:
                start = self.current
                elements.append(
                    self._mark(ast.SimpleGrouping(self._expr()), start)
                )
            if not self.accept_operator(","):
                return elements

    def _order_by(self) -> list[ast.OrderItem]:
        self.expect_keyword("ORDER")
        self.expect_keyword("BY")
        items = [self._order_item()]
        while self.accept_operator(","):
            items.append(self._order_item())
        return items

    def _order_item(self) -> ast.OrderItem:
        start = self.current
        expr = self._expr()
        descending = False
        if self.accept_keyword("DESC"):
            descending = True
        else:
            self.accept_keyword("ASC")
        nulls_first: Optional[bool] = None
        if self.accept_keyword("NULLS"):
            if self.accept_keyword("FIRST"):
                nulls_first = True
            else:
                self.expect_keyword("LAST")
                nulls_first = False
        return self._mark(ast.OrderItem(expr, descending, nulls_first), start)

    # -- expressions ------------------------------------------------------

    def _expr(self) -> ast.Expression:
        start = self.tokens[self.pos]
        return self._mark(self._binary(_OR), start)

    def _binary(self, min_power: int) -> ast.Expression:
        """Precedence climbing: the expression whose infix operators all
        bind at least as tightly as ``min_power`` (see :data:`_POWER`).

        No operator may bind tighter than the one just applied (``ceiling``):
        ``a IS NULL + 1`` and ``NOT a IS NULL * 2`` stop before the
        arithmetic, as the grammar's levels require."""
        tokens = self.tokens
        token = tokens[self.pos]
        if min_power <= _NOT and token.type is _KEYWORD and token.text == "NOT":
            self.pos += 1
            left: ast.Expression = ast.Unary("NOT", self._binary(_NOT))
            ceiling = _NOT
        else:
            left = self._unary()
            ceiling = _MULTIPLICATIVE
        while True:
            token = tokens[self.pos]
            power = _POWER.get((token.type, token.text), 0)
            if not min_power <= power <= ceiling:
                return left
            ceiling = power
            if token.type is _OPERATOR or power != _COMPARISON:
                self.pos += 1
                op = "<>" if token.text == "!=" else token.text
                left = ast.Binary(op, left, self._binary(power + 1))
            elif token.text == "NOT" and not tokens[self.pos + 1].is_keyword(
                "BETWEEN", "IN", "LIKE"
            ):
                return left
            else:
                left = self._keyword_comparison(left)

    def _keyword_comparison(self, left: ast.Expression) -> ast.Expression:
        """``left`` IS ... / [NOT] BETWEEN / [NOT] IN / [NOT] LIKE ...: the
        keyword forms of the comparison level."""
        if self.accept_keyword("IS"):
            negated = self.accept_keyword("NOT")
            if self.accept_keyword("NULL"):
                return ast.IsNull(left, negated)
            if self.accept_keyword("DISTINCT"):
                self.expect_keyword("FROM")
                return ast.IsDistinctFrom(left, self._binary(_ADDITIVE), negated)
            if self.accept_keyword("TRUE", "FALSE"):
                truth = self.tokens[self.pos - 1].text == "TRUE"
                result = ast.Binary("=", left, ast.Literal(truth))
                return ast.Unary("NOT", result) if negated else result
            raise self.error("expected NULL, TRUE, FALSE or DISTINCT FROM after IS")
        negated = self.accept_keyword("NOT")
        if self.accept_keyword("BETWEEN"):
            low = self._binary(_ADDITIVE)
            self.expect_keyword("AND")
            return ast.Between(left, low, self._binary(_ADDITIVE), negated)
        if self.accept_keyword("IN"):
            self.expect_operator("(")
            if self.at_keyword("SELECT", "WITH", "VALUES"):
                query = self._query()
                self.expect_operator(")")
                return ast.InSubquery(left, query, negated)
            items = [self._expr()]
            while self.accept_operator(","):
                items.append(self._expr())
            self.expect_operator(")")
            return ast.InList(left, items, negated)
        self.expect_keyword("LIKE")
        pattern = self._binary(_ADDITIVE)
        escape = self._binary(_ADDITIVE) if self.accept_keyword("ESCAPE") else None
        return ast.Like(left, pattern, negated, escape)

    def _unary(self) -> ast.Expression:
        """Prefix ``-`` / ``+`` over a primary and its postfix ``AT (...)``."""
        token = self.tokens[self.pos]
        if token.type is _OPERATOR:
            if token.text == "-":
                self.pos += 1
                return ast.Unary("-", self._unary())
            if token.text == "+":
                self.pos += 1
                return self._unary()
        expr = self._primary()
        while (
            self.at_keyword("AT")
            and self.peek(1).type is _OPERATOR
            and self.peek(1).text == "("
        ):
            at_token = self.advance()
            self.expect_operator("(")
            modifiers = self._at_modifiers()
            self.expect_operator(")")
            expr = self._mark(ast.At(expr, modifiers), at_token)
        return expr

    def _at_modifiers(self) -> list[ast.AtModifier]:
        modifiers: list[ast.AtModifier] = []
        while True:
            start = self.current
            if self.at_keyword("ALL"):
                self.advance()
                dims: list[ast.Expression] = []
                while self._starts_dimension():
                    dim_start = self.current
                    dims.append(self._mark(self._binary(_ADDITIVE), dim_start))
                    if not (
                        self.at_operator(",")
                        and not self.peek(1).is_keyword("ALL", "SET", "VISIBLE", "WHERE")
                    ):
                        break
                    self.advance()
                modifiers.append(self._mark(ast.AllModifier(dims), start))
            elif self.at_keyword("SET"):
                self.advance()
                dim_start = self.current
                dim = self._mark(self._binary(_ADDITIVE), dim_start)
                self.expect_operator("=")
                value = self._binary(_ADDITIVE)
                modifiers.append(self._mark(ast.SetModifier(dim, value), start))
            elif self.at_keyword("VISIBLE"):
                self.advance()
                modifiers.append(self._mark(ast.VisibleModifier(), start))
            elif self.at_keyword("WHERE"):
                self.advance()
                modifiers.append(self._mark(ast.WhereModifier(self._expr()), start))
            else:
                raise self.error("expected ALL, SET, VISIBLE or WHERE in AT")
            self.accept_operator(",")
            if self.at_operator(")"):
                return modifiers

    def _starts_dimension(self) -> bool:
        token = self.current
        if token.type is TokenType.IDENT:
            return True
        if token.type is TokenType.KEYWORD and token.text in _KEYWORD_FUNCTIONS:
            return True
        return False

    def _primary(self) -> ast.Expression:
        token = self.current
        return self._mark(self._primary_inner(), token)

    def _primary_inner(self) -> ast.Expression:
        token = self.current
        if token.type is TokenType.NUMBER:
            self.advance()
            return ast.Literal(token.value)
        if token.type is TokenType.STRING:
            self.advance()
            return ast.Literal(token.value)
        if token.is_keyword("TRUE"):
            self.advance()
            return ast.Literal(True)
        if token.is_keyword("FALSE"):
            self.advance()
            return ast.Literal(False)
        if token.is_keyword("NULL"):
            self.advance()
            return ast.Literal(None)
        if token.is_keyword("DATE") and self.peek(1).type is TokenType.STRING:
            self.advance()
            text = str(self.advance().value)
            try:
                value = datetime.date.fromisoformat(text.replace("/", "-"))
            except ValueError:
                raise ParseError(
                    f"invalid DATE literal {text!r}", token.line, token.column
                ) from None
            return ast.Literal(value)
        if token.is_keyword("CASE"):
            return self._case()
        if token.is_keyword("CAST"):
            return self._cast()
        if token.is_keyword("EXTRACT"):
            return self._extract()
        if token.is_keyword("EXISTS"):
            self.advance()
            self.expect_operator("(")
            query = self._query()
            self.expect_operator(")")
            return ast.Exists(query)
        if token.is_keyword("CURRENT"):
            self.advance()
            name = self.expect_ident("dimension name")
            parts = [name]
            while self.at_operator(".") and self.peek(1).type is TokenType.IDENT:
                self.advance()
                parts.append(self.expect_ident("dimension name"))
            return ast.CurrentDim(ast.ColumnRef(tuple(parts)))
        if token.is_keyword(*_KEYWORD_FUNCTIONS) and self.peek(1).type is TokenType.OPERATOR and self.peek(1).text == "(":
            name = self.advance().text
            return self._function_call(name)
        if token.type is TokenType.IDENT:
            if (
                self.peek(1).type is TokenType.OPERATOR
                and self.peek(1).text == "("
            ):
                name = str(self.advance().value)
                return self._function_call(name)
            return self._column_ref()
        if self.at_operator("?"):
            self.advance()
            parameter = ast.Parameter(self.parameter_count)
            self.parameter_count += 1
            return parameter
        if self.at_operator("("):
            if self._paren_starts_query():
                self.expect_operator("(")
                query = self._query()
                self.expect_operator(")")
                return ast.ScalarSubquery(query)
            self.expect_operator("(")
            expr = self._expr()
            self.expect_operator(")")
            return expr
        raise self.error("expected an expression")

    def _column_ref(self) -> ast.ColumnRef:
        start = self.current
        parts = [self.expect_ident("column name")]
        while self.at_operator(".") and (
            self.peek(1).type is TokenType.IDENT
            or self.peek(1).is_keyword("DATE")
        ):
            self.advance()
            parts.append(self.expect_ident("column name"))
        ref = ast.ColumnRef(tuple(parts))
        self._mark(ref, start)
        return ref

    def _function_call(self, name: str) -> ast.Expression:
        self.expect_operator("(")
        distinct = False
        star_arg = False
        args: list[ast.Expression] = []
        if self.at_operator("*"):
            self.advance()
            star_arg = True
        elif not self.at_operator(")"):
            if self.accept_keyword("DISTINCT"):
                distinct = True
            elif self.at_keyword("ALL") and not self.peek(1).is_keyword("SET", "VISIBLE", "WHERE"):
                self.accept_keyword("ALL")
            args.append(self._expr())
            while self.accept_operator(","):
                args.append(self._expr())
        order_by: list[ast.OrderItem] = []
        if self.at_keyword("ORDER"):
            # Ordered-set aggregates: LAST_VALUE(x ORDER BY day), STRING_AGG...
            order_by = self._order_by()
        self.expect_operator(")")
        call = ast.FunctionCall(
            name.upper(), args, distinct=distinct, star_arg=star_arg,
            order_by=order_by,
        )
        if self.at_keyword("WITHIN"):
            self.advance()
            self.expect_keyword("DISTINCT")
            self.expect_operator("(")
            call.within_distinct.append(self._expr())
            while self.accept_operator(","):
                call.within_distinct.append(self._expr())
            self.expect_operator(")")
        if self.at_keyword("FILTER"):
            self.advance()
            self.expect_operator("(")
            self.expect_keyword("WHERE")
            call.filter_where = self._expr()
            self.expect_operator(")")
        if self.at_keyword("OVER"):
            self.advance()
            if self.current.type is TokenType.IDENT:
                call.over_name = self.expect_ident("window name")
            else:
                call.over = self._window_spec()
        return call

    def _window_spec(self) -> ast.WindowSpec:
        self.expect_operator("(")
        spec = ast.WindowSpec()
        if self.at_keyword("PARTITION"):
            self.advance()
            self.expect_keyword("BY")
            spec.partition_by.append(self._expr())
            while self.accept_operator(","):
                spec.partition_by.append(self._expr())
        if self.at_keyword("ORDER"):
            spec.order_by = self._order_by()
        if self.at_keyword("ROWS", "RANGE"):
            unit = self.advance().text
            if self.accept_keyword("BETWEEN"):
                start = self._frame_bound()
                self.expect_keyword("AND")
                end = self._frame_bound()
            else:
                start = self._frame_bound()
                end = ast.FrameBound("CURRENT_ROW")
            spec.frame = ast.WindowFrame(unit, start, end)
        self.expect_operator(")")
        return spec

    def _frame_bound(self) -> ast.FrameBound:
        if self.accept_keyword("UNBOUNDED"):
            if self.accept_keyword("PRECEDING"):
                return ast.FrameBound("UNBOUNDED_PRECEDING")
            self.expect_keyword("FOLLOWING")
            return ast.FrameBound("UNBOUNDED_FOLLOWING")
        if self.at_keyword("CURRENT"):
            self.advance()
            self.expect_keyword("ROW")
            return ast.FrameBound("CURRENT_ROW")
        offset = self._binary(_ADDITIVE)
        if self.accept_keyword("PRECEDING"):
            return ast.FrameBound("PRECEDING", offset)
        self.expect_keyword("FOLLOWING")
        return ast.FrameBound("FOLLOWING", offset)

    def _case(self) -> ast.Case:
        self.expect_keyword("CASE")
        operand = None
        if not self.at_keyword("WHEN"):
            operand = self._expr()
        whens = []
        while self.accept_keyword("WHEN"):
            condition = self._expr()
            self.expect_keyword("THEN")
            result = self._expr()
            whens.append(ast.CaseWhen(condition, result))
        if not whens:
            raise self.error("CASE requires at least one WHEN")
        else_result = None
        if self.accept_keyword("ELSE"):
            else_result = self._expr()
        self.expect_keyword("END")
        return ast.Case(operand, whens, else_result)

    def _cast(self) -> ast.Cast:
        self.expect_keyword("CAST")
        self.expect_operator("(")
        operand = self._expr()
        self.expect_keyword("AS")
        type_name = self._type_name()
        is_measure = bool(self.accept_keyword("MEASURE"))
        self.expect_operator(")")
        return ast.Cast(operand, type_name, is_measure)

    def _extract(self) -> ast.FunctionCall:
        self.expect_keyword("EXTRACT")
        self.expect_operator("(")
        field_name = self.expect_ident("datetime field").upper()
        self.expect_keyword("FROM")
        operand = self._expr()
        self.expect_operator(")")
        return ast.FunctionCall(field_name, [operand])


def parse_statement(text: str) -> ast.Statement:
    """Parse a single SQL statement (a trailing semicolon is allowed)."""
    return _Parser(text).parse_statement()


def parse_statements(text: str) -> list[ast.Statement]:
    """Parse a semicolon-separated script into a list of statements."""
    return _Parser(text).parse_statements()


def parse_query(text: str) -> ast.Query:
    """Parse a query expression (SELECT / VALUES / WITH / set operation)."""
    return _Parser(text).parse_query_only()


def parse_expression(text: str) -> ast.Expression:
    """Parse a standalone scalar expression (used heavily in tests)."""
    return _Parser(text).parse_expression_only()
