"""Expression binding: AST expressions to the bound IR.

One :class:`ExprBinder` binds one clause of one query.  It knows the query's
scope, whether aggregates are allowed at its call site, and — for measure
machinery — how to attach evaluation-context information to measure
references:

* a measure column reference becomes a :class:`BoundMeasureEval` whose
  :class:`~repro.core.context.ContextSpec` starts life as a row-grain
  placeholder; the query binder later rewrites it for aggregate call sites;
* ``AGGREGATE(m)`` prepends a VISIBLE modifier (paper: ``AGGREGATE(m)`` is
  ``EVAL(m AT (VISIBLE))``);
* ``m AT (mods)`` binds the modifiers against the measure's dimensions;
* inside ``AT (WHERE p)``, unqualified names resolve to the measure table's
  dimensions (the source row) while qualified names resolve to the enclosing
  query (the call-site row) — exactly the reading of paper Listing 12 query 4.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.context import ContextSpec
from repro.core.modifiers import (
    BoundAll,
    BoundModifier,
    BoundSet,
    BoundVisible,
    BoundWhere,
)
from repro.engine.aggregates import aggregate_result_type, is_aggregate_function
from repro.engine.functions import lookup_function
from repro.engine.window import is_window_only_function
from repro.errors import BindError, MeasureError, UnsupportedError
from repro.semantics import bound as b
from repro.semantics.correlate import collect_outer_refs, transform_expr
from repro.semantics.scope import Relation, Scope
from repro.sql import ast
from repro.types import (
    BOOLEAN,
    DOUBLE,
    INTEGER,
    UNKNOWN,
    VARCHAR,
    DataType,
    arithmetic_result,
    common_type,
    division_result,
    infer_literal_type,
    is_distinct,
    is_not_distinct,
    parse_type_name,
    sql_add,
    sql_and,
    sql_compare,
    sql_div,
    sql_mod,
    sql_mul,
    sql_neg,
    sql_not,
    sql_or,
    sql_sub,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.semantics.binder import QueryBinder

__all__ = ["ExprBinder", "located"]


class located:
    """``with located(node, rule):`` attaches ``node``'s source span to any
    :class:`BindError` escaping the block — the innermost position wins: an
    error that already carries a location keeps it — and, when given, the
    lint ``rule`` it breaks.  (A class, not a generator: it brackets every
    FROM item and clause item the binder binds.)"""

    __slots__ = ("node", "rule")

    def __init__(self, node: Optional[ast.Node], rule: Optional[str] = None):
        self.node = node
        self.rule = rule

    def __enter__(self) -> None:
        return None

    def __exit__(self, kind, exc, traceback) -> bool:
        if isinstance(exc, BindError):
            span = ast.node_span(self.node)
            if span is not None:
                exc.attach_location(span.line, span.column)
            if self.rule is not None:
                exc.rule = self.rule
        return False


def _null_propagating(fn):
    def wrapper(*args):
        for arg in args:
            if arg is None:
                return None
        return fn(*args)

    return wrapper


def _concat(left, right):
    if left is None or right is None:
        return None
    return str(left) + str(right)


def _between(value, low, high):
    return sql_and(sql_compare(">=", value, low), sql_compare("<=", value, high))


def _not_between(value, low, high):
    return sql_not(_between(value, low, high))


def _like_matcher(negated: bool):
    import re

    def matcher(value, pattern, escape=None):
        if value is None or pattern is None:
            return None
        regex_parts = []
        index = 0
        while index < len(pattern):
            char = pattern[index]
            if escape and char == escape and index + 1 < len(pattern):
                regex_parts.append(re.escape(pattern[index + 1]))
                index += 2
                continue
            if char == "%":
                regex_parts.append(".*")
            elif char == "_":
                regex_parts.append(".")
            else:
                regex_parts.append(re.escape(char))
            index += 1
        matched = re.fullmatch("".join(regex_parts), value, re.DOTALL) is not None
        return (not matched) if negated else matched

    return matcher


class ExprBinder:
    """Binds AST expressions for one clause of one query."""

    def __init__(
        self,
        query_binder: "QueryBinder",
        scope: Scope,
        *,
        allow_aggregates: bool = False,
        allow_windows: bool = False,
        allow_measures: bool = True,
        formula_mode: bool = False,
        clause: str = "expression",
    ):
        self.qb = query_binder
        self.scope = scope
        self.allow_aggregates = allow_aggregates
        self.allow_windows = allow_windows
        self.allow_measures = allow_measures
        self.formula_mode = formula_mode
        self.clause = clause
        self._in_aggregate_args = False

    # -- entry point -------------------------------------------------------

    def bind(self, expr: ast.Expression) -> b.BoundExpr:
        method = getattr(self, f"_bind_{type(expr).__name__}", None)
        if method is None:
            raise UnsupportedError(f"cannot bind {type(expr).__name__}")
        try:
            bound = method(expr)
        except BindError as exc:
            # Attach the offending node's source span: the innermost node
            # with a span wins, errors keep their position while unwinding.
            # (``located`` inlined: this runs for every node bound, and a
            # bare try costs nothing until it raises.)
            span = ast.node_span(expr)
            if span is not None:
                exc.attach_location(span.line, span.column)
            raise
        # Thread the source span onto the bound node (innermost span wins:
        # sub-binders that already stamped one keep it) so runtime errors
        # and dataflow diagnostics can point at source text.
        if bound.span is None:
            span = ast.node_span(expr)
            if span is not None:
                bound.span = span
        return bound

    # -- leaves -----------------------------------------------------------

    def _bind_Literal(self, expr: ast.Literal) -> b.BoundExpr:
        return b.BoundLiteral(expr.value, infer_literal_type(expr.value))

    def _bind_Parameter(self, expr: ast.Parameter) -> b.BoundExpr:
        return b.BoundParameter(expr.index, UNKNOWN)

    def _bind_ColumnRef(self, expr: ast.ColumnRef) -> b.BoundExpr:
        # Sibling measures defined in the same SELECT may be referenced by
        # name inside measure formulas (paper section 5.4).
        if self.formula_mode and len(expr.parts) == 1:
            sibling = self.qb.resolve_sibling_measure(expr.parts[0])
            if sibling is not None:
                return sibling
        resolution = self.scope.resolve(expr.parts)
        column = resolution.column
        if column.is_measure:
            if not self.allow_measures:
                raise MeasureError(
                    f"measure {column.name!r} is not allowed in the {self.clause} clause"
                )
            if resolution.depth > 0:
                raise UnsupportedError(
                    f"correlated reference to measure {column.name!r} is not supported"
                )
            return self._site(
                expr,
                self.qb.new_measure_eval(
                    column.measure, resolution.relation, inherited=self.formula_mode
                ),
            )
        if resolution.depth == 0:
            return b.BoundColumn(column.offset, column.dtype, column.name)
        return b.BoundOuterColumn(
            resolution.depth, column.offset, column.dtype, column.name
        )

    def _bind_Star(self, expr: ast.Star) -> b.BoundExpr:
        raise BindError("* is only valid as a SELECT item or inside COUNT(*)")

    # -- operators ----------------------------------------------------------

    def _bind_Unary(self, expr: ast.Unary) -> b.BoundExpr:
        operand = self.bind(expr.operand)
        if expr.op == "NOT":
            return b.BoundCall("NOT", [operand], BOOLEAN, sql_not)
        if expr.op == "-":
            return b.BoundCall(
                "NEG", [operand], operand.dtype.unwrap(), sql_neg
            )
        raise UnsupportedError(f"unary operator {expr.op}")

    def _bind_Binary(self, expr: ast.Binary) -> b.BoundExpr:
        left = self.bind(expr.left)
        right = self.bind(expr.right)
        return self._make_binary(expr.op, left, right)

    def _make_binary(self, op: str, left: b.BoundExpr, right: b.BoundExpr) -> b.BoundExpr:
        if op == "AND":
            return b.BoundCall("AND", [left, right], BOOLEAN, sql_and)
        if op == "OR":
            return b.BoundCall("OR", [left, right], BOOLEAN, sql_or)
        if op in ("=", "<>", "<", "<=", ">", ">="):
            fn = lambda a, c, op=op: sql_compare(op, a, c)  # noqa: E731
            return b.BoundCall(op, [left, right], BOOLEAN, fn)
        if op == "+":
            return b.BoundCall(
                "+", [left, right], arithmetic_result(left.dtype, right.dtype), sql_add
            )
        if op == "-":
            return b.BoundCall(
                "-", [left, right], arithmetic_result(left.dtype, right.dtype), sql_sub
            )
        if op == "*":
            return b.BoundCall(
                "*", [left, right], arithmetic_result(left.dtype, right.dtype), sql_mul
            )
        if op == "/":
            return b.BoundCall(
                "/", [left, right], division_result(left.dtype, right.dtype), sql_div
            )
        if op == "%":
            return b.BoundCall(
                "%", [left, right], arithmetic_result(left.dtype, right.dtype), sql_mod
            )
        if op == "||":
            return b.BoundCall("||", [left, right], VARCHAR, _concat)
        raise UnsupportedError(f"binary operator {op}")

    def _bind_IsNull(self, expr: ast.IsNull) -> b.BoundExpr:
        operand = self.bind(expr.operand)
        if expr.negated:
            fn = lambda v: v is not None  # noqa: E731
        else:
            fn = lambda v: v is None  # noqa: E731
        # The negation is part of the name: ``op`` + arguments is the
        # expression's fingerprint, which must tell the two apart.
        op = "IS NOT NULL" if expr.negated else "IS NULL"
        return b.BoundCall(op, [operand], BOOLEAN, fn)

    def _bind_IsDistinctFrom(self, expr: ast.IsDistinctFrom) -> b.BoundExpr:
        left = self.bind(expr.left)
        right = self.bind(expr.right)
        fn = is_not_distinct if expr.negated else is_distinct
        op = "IS NOT DISTINCT" if expr.negated else "IS DISTINCT"
        return b.BoundCall(op, [left, right], BOOLEAN, fn)

    def _bind_Between(self, expr: ast.Between) -> b.BoundExpr:
        operand = self.bind(expr.operand)
        low = self.bind(expr.low)
        high = self.bind(expr.high)
        fn = _not_between if expr.negated else _between
        op = "NOT BETWEEN" if expr.negated else "BETWEEN"
        return b.BoundCall(op, [operand, low, high], BOOLEAN, fn)

    def _bind_InList(self, expr: ast.InList) -> b.BoundExpr:
        operand = self.bind(expr.operand)
        items = [self.bind(item) for item in expr.items]
        return b.BoundInList(operand, items, expr.negated, BOOLEAN)

    def _bind_Like(self, expr: ast.Like) -> b.BoundExpr:
        operand = self.bind(expr.operand)
        pattern = self.bind(expr.pattern)
        args = [operand, pattern]
        if expr.escape is not None:
            args.append(self.bind(expr.escape))
        op = "NOT LIKE" if expr.negated else "LIKE"
        return b.BoundCall(op, args, BOOLEAN, _like_matcher(expr.negated))

    def _bind_Case(self, expr: ast.Case) -> b.BoundExpr:
        whens: list[tuple[b.BoundExpr, b.BoundExpr]] = []
        result_type: DataType = UNKNOWN
        for when in expr.whens:
            if expr.operand is not None:
                condition = b.BoundCall(
                    "=",
                    [self.bind(expr.operand), self.bind(when.condition)],
                    BOOLEAN,
                    lambda a, c: sql_compare("=", a, c),
                )
            else:
                condition = self.bind(when.condition)
            result = self.bind(when.result)
            result_type = common_type(result_type, result.dtype)
            whens.append((condition, result))
        else_result = None
        if expr.else_result is not None:
            else_result = self.bind(expr.else_result)
            result_type = common_type(result_type, else_result.dtype)
        return b.BoundCase(whens, else_result, result_type)

    def _bind_Cast(self, expr: ast.Cast) -> b.BoundExpr:
        if expr.is_measure_type:
            raise UnsupportedError("CAST to a MEASURE type is not supported")
        operand = self.bind(expr.operand)
        return b.BoundCast(operand, parse_type_name(expr.type_name))

    # -- subqueries ---------------------------------------------------------

    def _bind_ScalarSubquery(self, expr: ast.ScalarSubquery) -> b.BoundExpr:
        plan, columns = self.qb.binder.bind_query_top(expr.query, self.scope)
        if len(columns) != 1:
            raise BindError("scalar subquery must return exactly one column")
        return b.BoundSubquery(
            plan,
            "SCALAR",
            columns[0].dtype.unwrap(),
            outer_refs=collect_outer_refs(plan),
        )

    def _bind_Exists(self, expr: ast.Exists) -> b.BoundExpr:
        plan, _ = self.qb.binder.bind_query_top(expr.query, self.scope)
        return b.BoundSubquery(
            plan,
            "EXISTS",
            BOOLEAN,
            negated=expr.negated,
            outer_refs=collect_outer_refs(plan),
        )

    def _bind_InSubquery(self, expr: ast.InSubquery) -> b.BoundExpr:
        operand = self.bind(expr.operand)
        plan, columns = self.qb.binder.bind_query_top(expr.query, self.scope)
        if len(columns) != 1:
            raise BindError("IN subquery must return exactly one column")
        return b.BoundSubquery(
            plan,
            "IN",
            BOOLEAN,
            operand=operand,
            negated=expr.negated,
            outer_refs=collect_outer_refs(plan),
        )

    # -- function calls -----------------------------------------------------

    def _bind_FunctionCall(self, expr: ast.FunctionCall) -> b.BoundExpr:
        name = expr.name.upper()
        if expr.over is not None or expr.over_name is not None:
            return self._bind_window_call(expr)
        if name in ("AGGREGATE", "EVAL"):
            return self._bind_measure_operator(expr)
        if name in ("GROUPING", "GROUPING_ID"):
            args = [self.bind(arg) for arg in expr.args]
            if not args:
                raise BindError(f"{name} requires at least one argument")
            return b.BoundCall("$GROUPING", args, INTEGER, _grouping_misuse)
        if is_window_only_function(name):
            raise BindError(f"{name} requires an OVER clause")
        if is_aggregate_function(name):
            return self._bind_aggregate_call(expr)
        function = lookup_function(name)
        if function is None:
            raise BindError(f"unknown function {name}")
        function.check_arity(len(expr.args))
        args = [self.bind(arg) for arg in expr.args]
        fn = function.fn if function.null_safe else _null_propagating(function.fn)
        return b.BoundCall(name, args, function.result_type([a.dtype for a in args]), fn)

    def _bind_aggregate_call(self, expr: ast.FunctionCall) -> b.BoundExpr:
        name = expr.name.upper()
        if not self.allow_aggregates:
            raise BindError(
                f"aggregate function {name} is not allowed in the {self.clause} clause",
                rule="RP106",
            )
        if self._in_aggregate_args:
            raise BindError("aggregate functions cannot be nested")
        if name == "COUNT" and expr.star_arg:
            filter_where = (
                self.bind(expr.filter_where) if expr.filter_where is not None else None
            )
            within_distinct = [self.bind(k) for k in expr.within_distinct]
            return b.BoundAggCall(
                "COUNT", [], False, True, filter_where, INTEGER,
                within_distinct=within_distinct,
            )
        if expr.star_arg:
            raise BindError(f"{name}(*) is not valid")
        if not expr.args:
            raise BindError(f"{name} requires an argument")
        self._in_aggregate_args = True
        try:
            args = [self.bind(arg) for arg in expr.args]
            filter_where = (
                self.bind(expr.filter_where) if expr.filter_where is not None else None
            )
            order_by = [
                b.SortSpec(self.bind(item.expr), item.descending, item.nulls_first)
                for item in expr.order_by
            ]
            within_distinct = [self.bind(k) for k in expr.within_distinct]
        finally:
            self._in_aggregate_args = False
        dtype = aggregate_result_type(name, [a.dtype for a in args])
        return b.BoundAggCall(
            name, args, expr.distinct, False, filter_where, dtype, order_by,
            within_distinct,
        )

    def _bind_window_call(self, expr: ast.FunctionCall) -> b.BoundExpr:
        name = expr.name.upper()
        if not self.allow_windows:
            raise BindError(
                f"window function {name} is not allowed in the {self.clause} clause"
            )
        if not (is_window_only_function(name) or is_aggregate_function(name)):
            raise BindError(f"{name} is not a window function")
        # The window operator runs none of these: refuse them by name
        # rather than compute the call without them.
        for clause, part in (
            ("FILTER", expr.filter_where),
            ("WITHIN DISTINCT", expr.within_distinct and expr.within_distinct[0]),
            ("ORDER BY inside the call", expr.order_by and expr.order_by[0]),
        ):
            if part:
                with located(part):
                    raise BindError(
                        f"{clause} is not supported on the window function {name}"
                    )
        args = [self.bind(arg) for arg in expr.args]
        spec = expr.over
        if spec is None and expr.over_name is not None:
            spec = self.qb.resolve_named_window(expr.over_name)
        partition_by = [self.bind(e) for e in spec.partition_by]
        order_by = [
            b.SortSpec(self.bind(item.expr), item.descending, item.nulls_first)
            for item in spec.order_by
        ]
        frame = None
        if spec.frame is not None:
            frame = (
                spec.frame.unit,
                spec.frame.start.kind,
                self.bind(spec.frame.start.offset)
                if spec.frame.start.offset is not None
                else None,
                spec.frame.end.kind,
                self.bind(spec.frame.end.offset)
                if spec.frame.end.offset is not None
                else None,
            )
        if is_aggregate_function(name):
            dtype = aggregate_result_type(
                name, [a.dtype for a in args]
            ) if (args or name == "COUNT") else UNKNOWN
        elif name in ("LAG", "LEAD", "FIRST_VALUE", "LAST_VALUE"):
            dtype = args[0].dtype.unwrap() if args else UNKNOWN
        elif name in ("PERCENT_RANK", "CUME_DIST"):
            dtype = DOUBLE
        else:
            dtype = INTEGER
        return b.BoundWindowCall(
            name,
            args,
            partition_by,
            order_by,
            frame,
            dtype,
            distinct=expr.distinct,
            star=expr.star_arg,
        )

    # -- measure operators -------------------------------------------------

    def _bind_measure_operator(self, expr: ast.FunctionCall) -> b.BoundExpr:
        name = expr.name.upper()
        if len(expr.args) != 1 or expr.star_arg:
            raise BindError(f"{name} takes exactly one argument")
        operand = self.bind(expr.args[0])
        if not isinstance(operand, b.BoundMeasureEval):
            raise MeasureError(f"the argument of {name} must be a measure")
        if name == "AGGREGATE":
            # AGGREGATE(m) == EVAL(m AT (VISIBLE)): VISIBLE applies first.
            operand.context.modifiers.insert(0, BoundVisible())
            self.qb.note_aggregate_operator(self.clause)
        return self._site(expr, operand)

    def _bind_At(self, expr: ast.At) -> b.BoundExpr:
        operand = self.bind(expr.operand)
        if not isinstance(operand, b.BoundMeasureEval):
            raise MeasureError("AT can only be applied to a measure", rule="RP102")
        relation = self.qb.relation_for_spec(operand.context)
        modifiers = [self._bind_modifier(m, relation) for m in expr.modifiers]
        # Modifiers of an outer AT apply before those of an inner AT; within
        # one AT they apply left to right (paper section 3.5).
        operand.context.modifiers = modifiers + operand.context.modifiers
        return self._site(expr, operand)

    def _site(self, expr: ast.Expression, node: b.BoundMeasureEval):
        """Record that ``expr`` is (so far) the whole of ``node``'s call
        site; the wrappers around a measure register after it, outermost
        last, and a reader that walks the AST top-down meets that one."""
        self.qb.binder.sites[id(expr)] = node
        return node

    def _bind_modifier(self, modifier: ast.AtModifier, relation: Relation) -> BoundModifier:
        if isinstance(modifier, ast.AllModifier):
            if not modifier.dims:
                return BoundAll(None)
            keys = [self._dimension_of(dim, relation)[1] for dim in modifier.dims]
            return BoundAll(keys)
        if isinstance(modifier, ast.SetModifier):
            source_expr, key = self._dimension_of(modifier.dim, relation)
            value = self._bind_set_value(modifier.value, relation)
            return BoundSet(key, source_expr, value)
        if isinstance(modifier, ast.VisibleModifier):
            return BoundVisible()
        if isinstance(modifier, ast.WhereModifier):
            return self._bind_where_modifier(modifier.predicate, relation)
        raise UnsupportedError(f"unknown AT modifier {type(modifier).__name__}")

    def _dimension_of(
        self, dim_expr: ast.Expression, relation: Relation
    ) -> tuple[b.BoundExpr, str]:
        """Bind a dimension expression and rewrite it onto the source row.

        A bare name that matches one of the measure relation's columns
        resolves there directly, so that ``AT (ALL custName)`` works even
        when another join input also has a custName column.  Whatever fails
        here is lint rule RP103, at the dimension expression.
        """
        if isinstance(dim_expr, ast.ColumnRef) and len(dim_expr.parts) == 1:
            column = relation.find(dim_expr.parts[0])
            if column is not None and not column.is_measure:
                dim = relation.dim_for_offset.get(column.offset)
                if dim is not None:
                    return dim, b.fingerprint(dim)
        with located(dim_expr, rule="RP103"):
            rewritten = self.qb.rewrite_to_source(self.bind(dim_expr), relation)
            if rewritten is None:
                raise MeasureError(
                    "AT dimension must be an expression over the measure table's "
                    "dimension columns"
                )
        return rewritten, b.fingerprint(rewritten)

    def _bind_set_value(
        self, value: ast.Expression, relation: Relation
    ) -> b.BoundExpr:
        """Bind a SET value, resolving CURRENT dim against the relation."""

        def bind_with_current(expr: ast.Expression) -> b.BoundExpr:
            if isinstance(expr, ast.CurrentDim):
                source_expr, key = self._dimension_of(expr.dim, relation)
                return b.BoundCurrentDim(key, source_expr.dtype)
            if isinstance(expr, ast.Binary):
                left = bind_with_current(expr.left)
                right = bind_with_current(expr.right)
                return self._make_binary(expr.op, left, right)
            if isinstance(expr, ast.Unary):
                operand = bind_with_current(expr.operand)
                if expr.op == "-":
                    return b.BoundCall("NEG", [operand], operand.dtype.unwrap(), sql_neg)
                if expr.op == "NOT":
                    return b.BoundCall("NOT", [operand], BOOLEAN, sql_not)
                raise UnsupportedError(f"unary operator {expr.op} in SET value")
            if isinstance(expr, ast.FunctionCall):
                name = expr.name.upper()
                function = lookup_function(name)
                if function is None:
                    raise BindError(f"unknown function {name} in SET value")
                function.check_arity(len(expr.args))
                args = [bind_with_current(arg) for arg in expr.args]
                fn = function.fn if function.null_safe else _null_propagating(function.fn)
                return b.BoundCall(
                    name, args, function.result_type([a.dtype for a in args]), fn
                )
            return self.bind(expr)

        return bind_with_current(value)

    def _bind_where_modifier(
        self, predicate: ast.Expression, relation: Relation
    ) -> BoundWhere:
        bound = _AtWhereBinder(self, relation).bind(predicate)
        # Decompose equality conjuncts `source = call_site` so that the
        # evaluator can serve them from the per-dimension source indexes.
        eq_pairs: list[tuple[b.BoundExpr, b.BoundExpr]] = []
        residual: list[b.BoundExpr] = []
        for conjunct in b.conjuncts(bound):
            pair = _split_eq_conjunct(conjunct)
            if pair is not None:
                eq_pairs.append(pair)
            else:
                residual.append(conjunct)
        return BoundWhere(b.conjoin(residual), b.fingerprint(bound), eq_pairs)

    def _bind_CurrentDim(self, expr: ast.CurrentDim) -> b.BoundExpr:
        raise MeasureError("CURRENT is only valid inside an AT SET modifier")


def _split_eq_conjunct(conjunct: b.BoundExpr):
    """``source_side = call_site_side`` -> (source_expr, value_expr)."""
    if not (
        isinstance(conjunct, b.BoundCall)
        and conjunct.op == "="
        and len(conjunct.args) == 2
    ):
        return None
    first, second = conjunct.args
    for source_side, value_side in ((first, second), (second, first)):
        if _is_source_only(source_side) and _is_callsite_only(value_side):
            return source_side, value_side
    return None


def _is_source_only(expr: b.BoundExpr) -> bool:
    saw_column = False
    for node in b.walk(expr):
        if isinstance(node, b.BoundColumn):
            saw_column = True
        elif isinstance(
            node,
            (b.BoundOuterColumn, b.BoundSubquery, b.BoundMeasureEval,
             b.BoundAggCall, b.BoundCurrentDim, b.BoundParameter),
        ):
            return False
    return saw_column


def _is_callsite_only(expr: b.BoundExpr) -> bool:
    for node in b.walk(expr):
        if isinstance(
            node,
            (b.BoundColumn, b.BoundSubquery, b.BoundMeasureEval,
             b.BoundAggCall, b.BoundCurrentDim),
        ):
            return False
    return True


def _grouping_misuse(*_args):
    raise BindError("GROUPING is only valid in a query with GROUP BY")


class _AtWhereBinder(ExprBinder):
    """Binds an ``AT (WHERE ...)`` predicate.

    Unqualified names resolve to the measure table's dimensions (expressions
    over the source row); every other reference resolves through the
    call-site scope with its depth shifted by one, because at runtime the
    predicate is evaluated with the source row as the current row and the
    call-site row as its parent environment.
    """

    def __init__(self, parent: ExprBinder, relation: Relation):
        super().__init__(
            parent.qb,
            parent.scope,
            allow_aggregates=False,
            allow_windows=False,
            allow_measures=False,
            clause="AT WHERE",
        )
        self.relation = relation

    def _bind_ColumnRef(self, expr: ast.ColumnRef) -> b.BoundExpr:
        if len(expr.parts) == 1:
            column = self.relation.find(expr.parts[0])
            if column is not None and not column.is_measure:
                dim = self.relation.dim_for_offset.get(column.offset)
                if dim is not None:
                    return dim
        resolution = self.scope.resolve(expr.parts)
        column = resolution.column
        if column.is_measure:
            raise MeasureError(
                "measures cannot be referenced inside an AT WHERE predicate"
            )
        return b.BoundOuterColumn(
            resolution.depth + 1, column.offset, column.dtype, column.name
        )
