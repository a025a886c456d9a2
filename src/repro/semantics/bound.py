"""Bound expression IR.

The binder translates AST expressions into this IR.  Bound expressions
reference their inputs by **column offset** into the current operator's input
row (a flat tuple), which makes evaluation fast and makes expression identity
well-defined: :func:`fingerprint` renders a canonical string used for

* matching SELECT expressions against GROUP BY expressions,
* identifying dimensions in ``AT (ALL dim)`` / ``AT (SET dim = ...)``,
* memoization keys for measure evaluation and correlated subqueries,
* the optimizer's no-progress check (through ``LogicalPlan.fingerprint``).

Correlated references into an enclosing query's row are
:class:`BoundOuterColumn` with a ``depth`` (1 = immediately enclosing).

**A node describes itself once.**  Each class is a dataclass and names, in
``CHILDREN``, the fields that can hold expressions.  Everything that
traverses is derived from that and from the dataclass fields, here and
nowhere else: :meth:`BoundExpr.children` (read), :func:`map_exprs` /
:func:`~repro.semantics.correlate.transform_expr` (rebuild) and
:func:`fingerprint` (identity: every field that is not a label, unless the
class spells a shorter form).  A field value may be an expression, None, a
:class:`SortSpec`, a list or tuple of those (nested), or an object that lists
its own call-site expressions (``child_exprs()``: a measure's
``ContextSpec``); the three functions agree on that shape.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Optional

from repro.sql.printer import format_literal
from repro.types import BOOLEAN, DataType, sql_and

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.core.context import ContextSpec
    from repro.core.definition import MeasureInstance
    from repro.plan.logical import LogicalPlan

__all__ = [
    "BoundExpr",
    "BoundLiteral",
    "BoundColumn",
    "BoundParameter",
    "BoundOuterColumn",
    "BoundCall",
    "BoundCase",
    "BoundCast",
    "BoundInList",
    "BoundAggCall",
    "BoundAggRef",
    "BoundWindowCall",
    "BoundGroupingId",
    "BoundSubquery",
    "BoundMeasureEval",
    "BoundCurrentDim",
    "fingerprint",
    "collect_exprs",
    "map_exprs",
    "conjuncts",
    "conjoin",
    "walk",
    "max_outer_depth",
    "contains_aggregate",
    "SortSpec",
]


class BoundExpr:
    """Base class of all bound expressions."""

    dtype: DataType

    #: Source position of the AST node this expression was bound from
    #: (``repro.sql.ast.Span`` or None).  Set by :meth:`ExprBinder.bind`
    #: as an instance attribute; carried through rewrites by value so the
    #: evaluator and the dataflow analyzer can point errors and
    #: diagnostics at real source text.
    span = None

    #: The declaration: names of the fields that can hold expressions.
    CHILDREN: tuple = ()
    #: Fields that label a node without deciding the value it computes, so
    #: no part of its identity (a class whose type is not implied by the
    #: rest, :class:`BoundCast`, spells it in).
    LABELS = frozenset(["dtype", "name", "fn"])

    def children(self) -> list["BoundExpr"]:
        """The expressions this node holds, in field order."""
        found: list[BoundExpr] = []
        for name in self.CHILDREN:
            collect_exprs(getattr(self, name), found)
        return found

    def fingerprint(self) -> str:
        """This node's :func:`fingerprint`: every field but the labels, so a
        field added to a class is part of its identity without being listed.
        The scalar classes a dimension key is made of spell a shorter form
        (users read those strings in lint messages)."""
        parts = [
            fingerprint(getattr(self, name)) for name in _identity_fields(type(self))
        ]
        return f"{type(self).__name__}({';'.join(parts)})"


@functools.cache
def _identity_fields(cls: type) -> tuple:
    return tuple(
        f.name for f in dataclasses.fields(cls) if f.name not in cls.LABELS
    )


@dataclass
class BoundLiteral(BoundExpr):
    value: Any
    dtype: DataType

    def fingerprint(self) -> str:
        return format_literal(self.value)


@dataclass
class BoundParameter(BoundExpr):
    """A positional query parameter, read from the execution context."""

    index: int
    dtype: DataType

    def fingerprint(self) -> str:
        return f"?{self.index}"


@dataclass
class BoundColumn(BoundExpr):
    """A column of the current operator's input row."""

    offset: int
    dtype: DataType
    name: str = ""

    def fingerprint(self) -> str:
        return f"${self.offset}"


@dataclass
class BoundOuterColumn(BoundExpr):
    """A correlated reference to an enclosing query's row."""

    depth: int
    offset: int
    dtype: DataType
    name: str = ""

    def fingerprint(self) -> str:
        return f"$up{self.depth}.{self.offset}"


@dataclass
class BoundCall(BoundExpr):
    """A scalar function or operator call.

    ``op`` is the canonical name (e.g. ``+``, ``AND``, ``YEAR``); ``fn`` is
    the runtime callable taking evaluated argument values.
    """

    op: str
    args: list[BoundExpr]
    dtype: DataType
    fn: Callable[..., Any]

    CHILDREN = ("args",)

    def fingerprint(self) -> str:
        return f"{self.op}({','.join([a.fingerprint() for a in self.args])})"


@dataclass
class BoundCase(BoundExpr):
    """Searched CASE (simple CASE is desugared by the binder)."""

    whens: list[tuple[BoundExpr, BoundExpr]]
    else_result: Optional[BoundExpr]
    dtype: DataType

    CHILDREN = ("whens", "else_result")

    def fingerprint(self) -> str:
        whens = ",".join(
            [f"{c.fingerprint()}:{r.fingerprint()}" for c, r in self.whens]
        )
        tail = self.else_result.fingerprint() if self.else_result else ""
        return f"CASE({whens};{tail})"


@dataclass
class BoundCast(BoundExpr):
    operand: BoundExpr
    dtype: DataType

    CHILDREN = ("operand",)

    def fingerprint(self) -> str:
        return f"CAST({self.operand.fingerprint()} AS {self.dtype})"


@dataclass
class BoundInList(BoundExpr):
    operand: BoundExpr
    items: list[BoundExpr]
    negated: bool
    dtype: DataType

    CHILDREN = ("operand", "items")

    def fingerprint(self) -> str:
        items = ",".join([item.fingerprint() for item in self.items])
        head = "NOTIN" if self.negated else "IN"
        return f"{head}({self.operand.fingerprint()};{items})"


@dataclass
class BoundAggCall(BoundExpr):
    """An aggregate function call, evaluated over a set of rows.

    Appears in two places: inside :class:`~repro.plan.logical.Aggregate`
    nodes (the normal case) and inside measure formulas, where the row set is
    the measure's context-filtered source rows.
    """

    func: str
    args: list[BoundExpr]
    distinct: bool
    star: bool
    filter_where: Optional[BoundExpr]
    dtype: DataType
    order_by: list["SortSpec"] = field(default_factory=list)
    within_distinct: list[BoundExpr] = field(default_factory=list)

    CHILDREN = ("args", "filter_where", "order_by", "within_distinct")


@dataclass
class SortSpec:
    """One ORDER BY key: expression + direction + null placement."""

    expr: BoundExpr
    descending: bool = False
    nulls_first: Optional[bool] = None

    def fingerprint(self) -> str:
        return f"{self.expr.fingerprint()}:{self.descending}:{self.nulls_first}"


@dataclass
class BoundAggRef(BoundExpr):
    """Reference to an aggregate slot in the Aggregate operator's output."""

    index: int
    dtype: DataType


@dataclass
class BoundWindowCall(BoundExpr):
    """A window function call (evaluated by the Window operator)."""

    func: str
    args: list[BoundExpr]
    partition_by: list[BoundExpr]
    order_by: list[SortSpec]
    frame: Optional[tuple]  # (unit, start_kind, start_off, end_kind, end_off)
    dtype: DataType
    distinct: bool = False
    star: bool = False

    CHILDREN = ("args", "partition_by", "order_by", "frame")


@dataclass
class BoundGroupingId(BoundExpr):
    """``GROUPING(...)`` / ``GROUPING_ID(...)``: reads the grouping bitmap.

    ``grouping_column`` is the offset of the hidden grouping-id column in the
    Aggregate output; ``key_indexes`` are the positions (within the group key
    list) of the argument dimensions, most significant first.
    """

    grouping_column: int
    key_indexes: list[int]
    dtype: DataType


@dataclass
class BoundSubquery(BoundExpr):
    """A scalar / EXISTS / IN subquery with its own plan.

    ``outer_refs`` lists the (depth, offset) pairs of every correlated
    reference *as seen from inside the subquery* (depth >= 1); the executor
    uses their runtime values as a memoization key.

    ``plan`` is not among the children: a walk stays in one query's row
    frame, and whoever means the subquery's expressions goes through
    :func:`~repro.semantics.correlate.plan_expressions`.
    """

    plan: "LogicalPlan"
    kind: str  # 'SCALAR' | 'EXISTS' | 'IN'
    dtype: DataType
    operand: Optional[BoundExpr] = None  # for IN
    negated: bool = False
    outer_refs: list[tuple[int, int]] = field(default_factory=list)

    CHILDREN = ("operand",)

    def fingerprint(self) -> str:
        """Structural, down through the plan, and kept on the node (the
        ``slot_key`` memo): whoever re-points ``plan`` in place drops it."""
        done = self.__dict__.get("_fingerprint")
        if done is None:
            done = self._fingerprint = super().fingerprint()
        return done


@dataclass
class BoundMeasureEval(BoundExpr):
    """Evaluation of a measure (a CSE) at a call site.

    This is the paper's ``EVAL(m AT (...))``: ``measure`` identifies the
    measure and its source relation, ``context`` describes how to build the
    evaluation-context predicate from the current row.  Its children are the
    context's call-site expressions (``ContextSpec.child_exprs``); a rebuild
    leaves the context alone — it is finalized in place and shared.
    """

    measure: "MeasureInstance"
    context: "ContextSpec"
    dtype: DataType

    CHILDREN = ("context",)

    def fingerprint(self) -> str:
        return f"MEASURE({self.measure.serial};{self.context.fingerprint()})"


@dataclass
class BoundCurrentDim(BoundExpr):
    """``CURRENT dim`` inside an AT modifier: reads the dimension's pinned
    value from the evaluation context being modified (NULL if unconstrained)."""

    dim_key: str
    dtype: DataType


# ---------------------------------------------------------------------------
# The three derived traversals: read, rebuild, identify
# ---------------------------------------------------------------------------


def collect_exprs(value, found: list) -> None:
    """Append to ``found`` the expressions the field value ``value`` holds."""
    kind = value.__class__
    if kind is list or kind is tuple:
        for item in value:
            if isinstance(item, BoundExpr):
                found.append(item)
            else:
                collect_exprs(item, found)
    elif isinstance(value, BoundExpr):
        found.append(value)
    elif kind is SortSpec:
        found.append(value.expr)
    elif hasattr(value, "child_exprs"):
        found.extend(value.child_exprs())


def map_exprs(value, fn: Callable[..., BoundExpr], *args):
    """The field value ``value`` with ``fn(expr, *args)`` in place of every
    expression directly in it; ``value`` itself when none changed."""
    kind = value.__class__
    if kind is list or kind is tuple:
        items = None
        for index, item in enumerate(value):
            new = (
                fn(item, *args) if isinstance(item, BoundExpr)
                else map_exprs(item, fn, *args)
            )
            if new is not item:
                if items is None:
                    items = list(value)
                items[index] = new
        if items is None:
            return value
        return items if kind is list else tuple(items)
    if isinstance(value, BoundExpr):
        return fn(value, *args)
    if kind is SortSpec:
        expr = fn(value.expr, *args)
        return value if expr is value.expr else dataclasses.replace(value, expr=expr)
    return value


def fingerprint(value) -> str:
    """A canonical string identity for a bound expression (or for anything
    a field of one holds).

    Two expressions with equal fingerprints compute the same value on the
    same input row, and a copy of an expression keeps its fingerprint.  Used
    for GROUP BY matching, dimension keys, aggregate and column sharing, and
    (through ``LogicalPlan.fingerprint``) the optimizer's no-progress check.
    """
    if isinstance(value, BoundExpr):
        return value.fingerprint()
    kind = value.__class__
    if kind in _PLAIN:
        return str(value)
    if kind is list or kind is tuple:
        return f"[{','.join([fingerprint(item) for item in value])}]" if value else "[]"
    render = getattr(kind, "fingerprint", None)
    return str(value) if render is None else render(value)


#: Field values that are their own fingerprint.
_PLAIN = frozenset([str, int, bool, type(None)])


def walk(expr: BoundExpr) -> Iterator[BoundExpr]:
    """Yield ``expr`` and all descendants, pre-order."""
    yield expr
    if expr.CHILDREN:
        stack = expr.children()
        stack.reverse()
        while stack:
            node = stack.pop()
            yield node
            if node.CHILDREN:
                stack.extend(node.children()[::-1])


def conjuncts(expr: BoundExpr) -> list[BoundExpr]:
    """The top-level AND operands of ``expr``, flattened, left to right."""
    if isinstance(expr, BoundCall) and expr.op == "AND":
        return [part for arg in expr.args for part in conjuncts(arg)]
    return [expr]


def conjoin(preds: Iterable[BoundExpr]) -> Optional[BoundExpr]:
    """The left-deep AND of ``preds`` (None for none): the inverse of
    :func:`conjuncts`."""
    result: Optional[BoundExpr] = None
    for pred in preds:
        result = (
            pred if result is None
            else BoundCall("AND", [result, pred], BOOLEAN, sql_and)
        )
    return result


def max_outer_depth(expr: BoundExpr) -> int:
    """Deepest enclosing-scope reference in ``expr`` (0 = uncorrelated)."""
    depth = 0
    for node in walk(expr):
        if isinstance(node, BoundOuterColumn):
            depth = max(depth, node.depth)
        elif isinstance(node, BoundSubquery):
            for ref_depth, _ in node.outer_refs:
                # Refs at depth d inside the subquery point d-1 levels above us.
                depth = max(depth, ref_depth - 1)
    return depth


def contains_aggregate(expr: BoundExpr) -> bool:
    return any(isinstance(node, BoundAggCall) for node in walk(expr))
