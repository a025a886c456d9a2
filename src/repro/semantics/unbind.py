"""Bound expressions back to SQL: the inverse of :class:`ExprBinder`.

The binder resolves every name to a row offset; SQL expansion
(:mod:`repro.core.expansion`) prints what the binder bound, so it needs the
way back.  :func:`unbind` covers the scalar and aggregate subset — what a
measure formula, a dimension, a context value or a WHERE conjunct is made
of — and is table-driven off ``BoundCall.op``, which is already symbolic
(``"="``, ``"AND"``, ``"IS NULL"``, ``"BETWEEN"``, ``"NEG"``, a function
name).  Everything else is the one :class:`~repro.errors.UnsupportedError`
of static expansion: it names the construct, it never prints something else.
"""

from __future__ import annotations

from typing import Callable, Mapping, Optional, Sequence

from repro.errors import UnsupportedError
from repro.semantics import bound as b
from repro.sql import ast

__all__ = ["unbind"]

#: ``frames[depth](offset)``: the SQL expression that reads column ``offset``
#: of the row ``depth`` levels out (0 = the row the expression is evaluated
#: on); None where static expansion has no name for that row.
Frames = Sequence[Optional[Callable[[int], ast.Expression]]]

_BINARY = frozenset(
    ["AND", "OR", "=", "<>", "<", "<=", ">", ">=", "+", "-", "*", "/", "%", "||"]
)
_UNARY = {"NOT": "NOT", "NEG": "-"}
#: op -> (AST class, negated)
_PREDICATES = {
    "IS NULL": (ast.IsNull, False),
    "IS NOT NULL": (ast.IsNull, True),
    "IS DISTINCT": (ast.IsDistinctFrom, False),
    "IS NOT DISTINCT": (ast.IsDistinctFrom, True),
    "BETWEEN": (ast.Between, False),
    "NOT BETWEEN": (ast.Between, True),
}
#: What the error calls a node that has no SQL form here.
_CONSTRUCTS = {
    b.BoundMeasureEval: "a measure evaluated inside another measure's "
    "formula or context (a composed measure)",
    b.BoundSubquery: "a subquery inside a measure definition or a VISIBLE "
    "conjunct, or in a grouping-set query's SELECT list or HAVING",
    b.BoundWindowCall: "a window call inside a dimension or a context, or in "
    "a grouping-set query",
    b.BoundGroupingId: "GROUPING() inside a context",
    b.BoundOuterColumn: "a correlated reference into an aggregate query",
}


def unbind(
    expr: b.BoundExpr,
    names: Frames,
    current: Optional[Mapping[str, ast.Expression]] = None,
    hook: Optional[Callable[[b.BoundExpr], Optional[ast.Expression]]] = None,
) -> ast.Expression:
    """``expr`` as SQL, its columns spelled by ``names``.  ``current`` gives
    ``CURRENT dim`` its value by dimension key (NULL when absent).  ``hook``
    prints the nodes its caller prints itself (a measure call, ``GROUPING()``,
    a windowed aggregate): it returns their SQL, or None for everything else."""

    def column(depth: int, offset: int) -> ast.Expression:
        name = names[depth] if depth < len(names) else None
        if name is None:
            raise _unsupported(b.BoundOuterColumn)
        return name(offset)

    def go(node: b.BoundExpr) -> ast.Expression:
        if hook is not None:
            printed = hook(node)
            if printed is not None:
                return printed
        kind = type(node)
        if kind is b.BoundColumn:
            return column(0, node.offset)
        if kind is b.BoundAggRef:
            return column(0, node.index)
        if kind is b.BoundOuterColumn:
            return column(node.depth, node.offset)
        if kind is b.BoundLiteral:
            return ast.Literal(node.value)
        if kind is b.BoundParameter:
            return ast.Parameter(node.index)
        if kind is b.BoundCurrentDim:
            return (current or {}).get(node.dim_key) or ast.Literal(None)
        if kind is b.BoundCall:
            return _call(node.op, [go(arg) for arg in node.args])
        if kind is b.BoundCase:
            whens = [ast.CaseWhen(go(c), go(r)) for c, r in node.whens]
            tail = None if node.else_result is None else go(node.else_result)
            return ast.Case(None, whens, tail)
        if kind is b.BoundCast:
            return ast.Cast(go(node.operand), str(node.dtype))
        if kind is b.BoundInList:
            return ast.InList(
                go(node.operand), [go(item) for item in node.items], node.negated
            )
        if kind is b.BoundAggCall:
            return ast.FunctionCall(
                node.func,
                [go(arg) for arg in node.args],
                distinct=node.distinct,
                star_arg=node.star,
                filter_where=(
                    None if node.filter_where is None else go(node.filter_where)
                ),
                order_by=[
                    ast.OrderItem(go(s.expr), s.descending, s.nulls_first)
                    for s in node.order_by
                ],
                within_distinct=[go(key) for key in node.within_distinct],
            )
        raise _unsupported(kind)

    return go(expr)


def _call(op: str, args: list[ast.Expression]) -> ast.Expression:
    if op in _BINARY:
        return ast.Binary(op, *args)
    if op in _UNARY:
        return ast.Unary(_UNARY[op], *args)
    if op in _PREDICATES:
        node, negated = _PREDICATES[op]
        return node(*args, negated=negated)
    if op in ("LIKE", "NOT LIKE"):
        escape = args[2] if len(args) > 2 else None
        return ast.Like(args[0], args[1], op == "NOT LIKE", escape)
    if op.startswith("$"):
        raise _unsupported(b.BoundGroupingId)
    return ast.FunctionCall(op, args)


def _unsupported(kind: type) -> UnsupportedError:
    what = _CONSTRUCTS.get(kind, kind.__name__)
    return UnsupportedError(
        f"static expansion cannot print {what}; use the interpreter"
    )
