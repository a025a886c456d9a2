"""Abstract syntax tree for the supported SQL dialect.

All nodes are frozen-ish dataclasses (mutable for convenience during rewrites)
deriving from :class:`Node`, which provides generic child discovery so that
visitors and transformers (see :mod:`repro.sql.visitor`) need no per-node code.

Measure extensions over standard SQL:

* :class:`SelectItem` carries ``is_measure`` for ``expr AS MEASURE name``;
* :class:`At` represents ``cse AT (modifier ...)``;
* :class:`CurrentDim` represents ``CURRENT dim`` inside a ``SET`` modifier;
* ``AGGREGATE(m)`` and ``EVAL(m)`` parse as ordinary :class:`FunctionCall`
  nodes and are given meaning by the binder.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Iterator, NamedTuple, Optional, Sequence, Union

__all__ = [
    "Span",
    "node_span",
    "Node",
    "Expression",
    "Literal",
    "ColumnRef",
    "Parameter",
    "Star",
    "Unary",
    "Binary",
    "IsNull",
    "IsDistinctFrom",
    "Between",
    "InList",
    "InSubquery",
    "Like",
    "CaseWhen",
    "Case",
    "Cast",
    "FunctionCall",
    "WindowSpec",
    "FrameBound",
    "WindowFrame",
    "ScalarSubquery",
    "Exists",
    "At",
    "AtModifier",
    "AllModifier",
    "SetModifier",
    "VisibleModifier",
    "WhereModifier",
    "CurrentDim",
    "OrderItem",
    "SelectItem",
    "GroupingElement",
    "SimpleGrouping",
    "Rollup",
    "Cube",
    "GroupingSets",
    "TableRef",
    "TableName",
    "SubqueryRef",
    "PivotRef",
    "UnpivotRef",
    "Join",
    "Query",
    "Select",
    "SetOp",
    "Values",
    "Cte",
    "WithQuery",
    "Statement",
    "CreateTable",
    "CreateTableAs",
    "Truncate",
    "NamedWindow",
    "ColumnDef",
    "CreateView",
    "CreateMaterializedView",
    "RefreshMaterializedView",
    "DropObject",
    "Insert",
    "Update",
    "Delete",
    "Assignment",
    "ExplainExpand",
    "ExplainPlan",
]


class Span(NamedTuple):
    """A 1-based source position attached to an AST node by the parser.

    ``line``/``column`` point at the first token of the construct;
    ``end_line``/``end_column`` (when known) point just past its first token.
    Spans are informational only: they are deliberately *not* dataclass
    fields of the nodes, so node equality, :func:`dataclasses.replace`-based
    transforms, and printers are unaffected.
    """

    line: int
    column: int
    end_line: int = 0
    end_column: int = 0

    def __str__(self) -> str:
        return f"line {self.line}, column {self.column}"


class Node:
    """Base class for every AST node.

    ``span`` is the source position of the node's first token, or None for
    synthesized nodes (rewriter output, tests constructing ASTs directly).
    """

    span: Optional[Span] = None

    def children(self) -> Iterator["Node"]:
        """Yield direct child nodes (recursing into lists and tuples)."""
        for f in dataclasses.fields(self):  # type: ignore[arg-type]
            value = getattr(self, f.name)
            yield from _iter_nodes(value)

    def walk(self) -> Iterator["Node"]:
        """Yield this node and all descendants, pre-order."""
        yield self
        for child in self.children():
            yield from child.walk()


def _iter_nodes(value: Any) -> Iterator[Node]:
    if isinstance(value, Node):
        yield value
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _iter_nodes(item)


def node_span(node: Optional[Node]) -> Optional[Span]:
    """The best-known source span for ``node``.

    Falls back to the first descendant that carries a span, because compound
    nodes built by the parser's precedence-climbing loop (Binary chains,
    IS / BETWEEN / IN / LIKE, prefix NOT and minus) get no span of their own
    unless they are a whole expression: they inherit their position from
    their leftmost leaf.
    """
    if node is None:
        return None
    for candidate in node.walk():
        if candidate.span is not None:
            return candidate.span
    return None


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expression(Node):
    """Base class for scalar expressions."""


@dataclass
class Literal(Expression):
    """A constant: number, string, boolean, date, or NULL (value=None)."""

    value: Any


@dataclass
class ColumnRef(Expression):
    """A possibly-qualified column reference, e.g. ``o.prodName``."""

    parts: tuple[str, ...]

    @property
    def name(self) -> str:
        return self.parts[-1]

    @property
    def qualifier(self) -> Optional[str]:
        return self.parts[-2] if len(self.parts) > 1 else None


@dataclass
class Parameter(Expression):
    """A positional ``?`` placeholder (0-based ``index`` in query order)."""

    index: int


@dataclass
class Star(Expression):
    """``*`` or ``alias.*`` in a SELECT list or COUNT(*)."""

    qualifier: Optional[str] = None


@dataclass
class Unary(Expression):
    op: str  # '-', '+', 'NOT'
    operand: Expression


@dataclass
class Binary(Expression):
    op: str  # arithmetic, comparison, AND, OR, ||
    left: Expression
    right: Expression


@dataclass
class IsNull(Expression):
    operand: Expression
    negated: bool = False


@dataclass
class IsDistinctFrom(Expression):
    left: Expression
    right: Expression
    negated: bool = False  # True => IS NOT DISTINCT FROM


@dataclass
class Between(Expression):
    operand: Expression
    low: Expression
    high: Expression
    negated: bool = False


@dataclass
class InList(Expression):
    operand: Expression
    items: list[Expression]
    negated: bool = False


@dataclass
class InSubquery(Expression):
    operand: Expression
    query: "Query"
    negated: bool = False


@dataclass
class Like(Expression):
    operand: Expression
    pattern: Expression
    negated: bool = False
    escape: Optional[Expression] = None


@dataclass
class CaseWhen(Node):
    condition: Expression
    result: Expression


@dataclass
class Case(Expression):
    """Both simple (operand != None) and searched CASE."""

    operand: Optional[Expression]
    whens: list[CaseWhen]
    else_result: Optional[Expression]


@dataclass
class Cast(Expression):
    operand: Expression
    type_name: str
    is_measure_type: bool = False  # CAST(x AS INTEGER MEASURE)


@dataclass
class FrameBound(Node):
    kind: str  # UNBOUNDED_PRECEDING, PRECEDING, CURRENT_ROW, FOLLOWING, UNBOUNDED_FOLLOWING
    offset: Optional[Expression] = None


@dataclass
class WindowFrame(Node):
    unit: str  # ROWS or RANGE
    start: FrameBound
    end: FrameBound


@dataclass
class OrderItem(Node):
    expr: Expression
    descending: bool = False
    nulls_first: Optional[bool] = None  # None => dialect default


@dataclass
class WindowSpec(Node):
    partition_by: list[Expression] = field(default_factory=list)
    order_by: list[OrderItem] = field(default_factory=list)
    frame: Optional[WindowFrame] = None


@dataclass
class FunctionCall(Expression):
    """A scalar, aggregate, or window function call.

    ``AGGREGATE`` and ``EVAL`` (measure operators) arrive as FunctionCalls and
    are interpreted by the binder.  ``star_arg`` marks ``COUNT(*)``.
    """

    name: str
    args: list[Expression] = field(default_factory=list)
    distinct: bool = False
    star_arg: bool = False
    filter_where: Optional[Expression] = None
    over: Optional[WindowSpec] = None
    #: Named-window reference: fn() OVER w (resolved by the binder).
    over_name: Optional[str] = None
    #: In-aggregate ordering: LAST_VALUE(x ORDER BY day), STRING_AGG(...).
    order_by: list["OrderItem"] = field(default_factory=list)
    #: WITHIN DISTINCT (keys): aggregate one representative row per distinct
    #: key combination (paper section 6.3 / CALCITE-4483), the grain-managing
    #: clause that prevents join fan-out double counting.
    within_distinct: list[Expression] = field(default_factory=list)


@dataclass
class ScalarSubquery(Expression):
    query: "Query"


@dataclass
class Exists(Expression):
    query: "Query"
    negated: bool = False


class AtModifier(Node):
    """Base class for the AT operator's context modifiers (paper Table 3)."""


@dataclass
class AllModifier(AtModifier):
    """``ALL`` (empty dims: clear the whole context) or ``ALL dim, ...``."""

    dims: list[Expression] = field(default_factory=list)


@dataclass
class SetModifier(AtModifier):
    """``SET dim = expr``; ``expr`` may contain :class:`CurrentDim`."""

    dim: Expression
    value: Expression


@dataclass
class VisibleModifier(AtModifier):
    """``VISIBLE``: conjoin the query's WHERE clause and join conditions."""


@dataclass
class WhereModifier(AtModifier):
    """``WHERE predicate``: set the context to ``predicate``."""

    predicate: Expression


@dataclass
class At(Expression):
    """``cse AT (modifier ...)`` — the context transformation operator."""

    operand: Expression
    modifiers: list[AtModifier]


@dataclass
class CurrentDim(Expression):
    """``CURRENT dim``: the dimension's single value in the enclosing
    evaluation context, or NULL if unconstrained (paper section 3.5)."""

    dim: ColumnRef


# ---------------------------------------------------------------------------
# Query structure
# ---------------------------------------------------------------------------


@dataclass
class NamedWindow(Node):
    name: str
    spec: WindowSpec


@dataclass
class SelectItem(Node):
    expr: Expression
    alias: Optional[str] = None
    is_measure: bool = False  # expr AS MEASURE alias


class GroupingElement(Node):
    """Base for GROUP BY elements."""


@dataclass
class SimpleGrouping(GroupingElement):
    expr: Expression


@dataclass
class Rollup(GroupingElement):
    exprs: list[Expression]


@dataclass
class Cube(GroupingElement):
    exprs: list[Expression]


@dataclass
class GroupingSets(GroupingElement):
    sets: list[list[Expression]]


class TableRef(Node):
    """Base for FROM-clause items."""


@dataclass
class TableName(TableRef):
    name: str
    alias: Optional[str] = None


@dataclass
class SubqueryRef(TableRef):
    query: "Query"
    alias: Optional[str] = None


@dataclass
class PivotRef(TableRef):
    """``input PIVOT(agg(value) FOR key IN (v [AS name], ...)) [AS alias]``.

    Desugared by the binder into a grouped CASE-aggregate derived table.
    """

    input: TableRef
    agg: "FunctionCall"
    key: ColumnRef
    values: list[tuple["Literal", Optional[str]]]
    alias: Optional[str] = None


@dataclass
class UnpivotRef(TableRef):
    """``input UNPIVOT(value FOR name IN (col [AS 'label'], ...)) [AS alias]``.

    Desugared by the binder into a UNION ALL over the listed columns; rows
    with NULL values are excluded (BigQuery semantics).
    """

    input: TableRef
    value_column: str
    name_column: str
    columns: list[tuple[str, Optional[str]]]
    alias: Optional[str] = None


@dataclass
class Join(TableRef):
    kind: str  # INNER, LEFT, RIGHT, FULL, CROSS
    left: TableRef
    right: TableRef
    condition: Optional[Expression] = None
    using: list[str] = field(default_factory=list)
    natural: bool = False


class Query(Node):
    """Base for query expressions: SELECT, set operations, VALUES, WITH."""


@dataclass
class Select(Query):
    items: list[SelectItem]
    from_clause: Optional[TableRef] = None
    where: Optional[Expression] = None
    group_by: list[GroupingElement] = field(default_factory=list)
    having: Optional[Expression] = None
    qualify: Optional[Expression] = None
    order_by: list[OrderItem] = field(default_factory=list)
    limit: Optional[Expression] = None
    offset: Optional[Expression] = None
    distinct: bool = False
    #: Internal: marks a grouping-set branch as an aggregate query even when
    #: its GROUP BY list is empty (the global grouping set).  Never parsed or
    #: printed.
    force_aggregate: bool = False
    #: WINDOW clause: named window specifications usable in OVER.
    windows: list["NamedWindow"] = field(default_factory=list)


@dataclass
class SetOp(Query):
    op: str  # UNION, INTERSECT, EXCEPT
    all: bool
    left: Query
    right: Query
    order_by: list[OrderItem] = field(default_factory=list)
    limit: Optional[Expression] = None
    offset: Optional[Expression] = None


@dataclass
class Values(Query):
    rows: list[list[Expression]]


@dataclass
class Cte(Node):
    name: str
    columns: list[str]
    query: Query


@dataclass
class WithQuery(Query):
    ctes: list[Cte]
    body: Query


@dataclass
class ShowStats(Query):
    """``SHOW STATS``: the telemetry metrics registry as a result set.

    Parsed as a query so it composes syntactically (and so lint rule RP112
    can flag nested uses), but only the top level executes it — the binder
    rejects it inside views and subqueries.
    """


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class Statement(Node):
    """Base for top-level statements."""


@dataclass
class ColumnDef(Node):
    name: str
    type_name: str


@dataclass
class CreateTable(Statement):
    name: str
    columns: list[ColumnDef]
    or_replace: bool = False
    if_not_exists: bool = False


@dataclass
class CreateTableAs(Statement):
    """CREATE TABLE name AS query (column types inferred)."""

    name: str
    query: Query
    or_replace: bool = False


@dataclass
class Truncate(Statement):
    table: str


@dataclass
class Analyze(Statement):
    """``ANALYZE [table]``: collect per-column statistics (row count, NDV,
    min/max, null fraction, equi-depth histogram) into the catalog.  With
    no table, every base table (materialized views included) is analyzed.
    The results back the ``repro_table_stats`` / ``repro_column_stats``
    system tables."""

    table: Optional[str] = None


@dataclass
class CreateView(Statement):
    name: str
    query: Query
    or_replace: bool = False
    column_names: list[str] = field(default_factory=list)


@dataclass
class CreateMaterializedView(Statement):
    """``CREATE MATERIALIZED VIEW name AS SELECT dims..., agg(...)...
    FROM t GROUP BY dims``: a persistent summary table (Gray et al.'s data
    cube) the engine can answer subsumed measure queries from."""

    name: str
    query: Query
    or_replace: bool = False


@dataclass
class RefreshMaterializedView(Statement):
    """``REFRESH MATERIALIZED VIEW name``: recompute a stale summary."""

    name: str


@dataclass
class DropObject(Statement):
    kind: str  # TABLE, VIEW, or MATERIALIZED VIEW
    name: str
    if_exists: bool = False


@dataclass
class Insert(Statement):
    table: str
    columns: list[str]
    source: Query


@dataclass
class QueryStatement(Statement):
    """A top-level query used as a statement."""

    query: Query


@dataclass
class Assignment(Node):
    column: str
    value: Expression


@dataclass
class Update(Statement):
    table: str
    assignments: list[Assignment]
    where: Optional[Expression] = None


@dataclass
class Delete(Statement):
    table: str
    where: Optional[Expression] = None


@dataclass
class ExplainExpand(Statement):
    """``EXPLAIN EXPAND <query>`` — engine extension that returns the query
    with all measure references expanded to plain SQL (paper Listing 5)."""

    query: Query


@dataclass
class ExplainPlan(Statement):
    """``EXPLAIN [ANALYZE | (options)] <statement>``.

    Options (parenthesized, comma-separated, any order) or the bare
    ``ANALYZE`` keyword:

    * ``LINT`` — prepend static-analysis diagnostics as ``lint:`` lines;
    * ``ANALYZE`` — actually execute the query and render the operator tree
      annotated with observed row counts, call counts, and wall time;
    * ``TYPES`` — annotate every operator with its inferred dataflow facts
      (column types, nullability, constants, keys, cardinality bounds).

    ``query`` is the explained query; it is None when EXPLAIN wraps a
    DDL/DML statement instead, in which case ``target`` holds that
    statement.  Such statements parse (so lint can flag them — rule RP111)
    but refuse to execute: this engine plans only queries.
    """

    query: Optional[Query]
    lint: bool = False
    analyze: bool = False
    types: bool = False
    target: Optional[Statement] = None


StatementLike = Union[Statement, Query]
