"""Logical plan operators.

Plans are trees of these nodes; the binder emits them directly and the
executor interprets them.  Every node knows its output schema as a list of
``(name, DataType)`` pairs; rows are flat tuples in schema order.

The :class:`Aggregate` node is grouping-sets aware: ``grouping_sets`` lists,
for each output grouping, which positions of ``group_exprs`` are active.  When
more than one grouping set exists (ROLLUP/CUBE), a hidden grouping-id column
is appended; when any projection above needs measure VISIBLE semantics, a
hidden column capturing the group's input rows is appended as well.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.semantics.bound import BoundAggCall, BoundExpr, BoundWindowCall, SortSpec
from repro.types import DataType

__all__ = [
    "LogicalPlan",
    "Scan",
    "SystemScan",
    "ValuesPlan",
    "Filter",
    "Project",
    "Join",
    "Aggregate",
    "Window",
    "Sort",
    "Limit",
    "Distinct",
    "SetOpPlan",
    "mark_shared",
    "plan_tree_string",
]

Schema = list[tuple[str, DataType]]


class LogicalPlan:
    """Base class for plan nodes."""

    schema: Schema

    #: Dataflow facts (``repro.analysis.dataflow.OperatorFacts``) attached
    #: by :func:`~repro.analysis.dataflow.analyze_plan` after optimization.
    #: An instance attribute, not a dataclass field, so plan equality and
    #: structural fingerprints are unaffected.
    facts = None

    #: True on a node that is some measure group's ``source_plan``: the
    #: executor runs such a node at most once per execution and hands the
    #: same rows to the query's FROM and to measure evaluation.  Set by
    #: :func:`mark_shared` (the binder, where the group is created; the
    #: optimizer, where it replaces the node).  An instance attribute, like
    #: ``facts``.
    shared = False

    def inputs(self) -> Iterator["LogicalPlan"]:
        return iter(())

    @property
    def arity(self) -> int:
        return len(self.schema)

    def walk(self) -> Iterator["LogicalPlan"]:
        yield self
        for child in self.inputs():
            yield from child.walk()

    def label(self) -> str:
        """What EXPLAIN, profiles and progress call this operator."""
        return f"{self.name()} [shared]" if self.shared else self.name()

    def name(self) -> str:
        return type(self).__name__


def mark_shared(plan: LogicalPlan) -> LogicalPlan:
    """Mark ``plan`` as a measure's source relation (see
    :attr:`LogicalPlan.shared`).  Its rows are kept per execution, not per
    enclosing row, so the caller guarantees it has no outer references."""
    plan.shared = True
    return plan


@dataclass
class Scan(LogicalPlan):
    """Read all rows of a base table from the catalog at execution time."""

    table_name: str
    schema: Schema

    def name(self) -> str:
        return f"Scan({self.table_name})"


@dataclass
class SystemScan(Scan):
    """Read a snapshot of a virtual system table (``repro.introspect``).

    Subclasses :class:`Scan` so every structural pass (optimizer,
    validator, plan fingerprint) treats it as a leaf relation; only the
    executor dispatches differently — it materializes the provider's rows
    once per query and serves every scan from that snapshot.
    """

    def name(self) -> str:
        return f"SystemScan({self.table_name})"


@dataclass
class ValuesPlan(LogicalPlan):
    """Literal rows; each cell is a bound expression (usually a literal)."""

    rows: list[list[BoundExpr]]
    schema: Schema


@dataclass
class Filter(LogicalPlan):
    input: LogicalPlan
    predicate: BoundExpr

    def __post_init__(self) -> None:
        self.schema = self.input.schema

    def inputs(self) -> Iterator[LogicalPlan]:
        yield self.input


@dataclass
class Project(LogicalPlan):
    """One output column per expression.  ``of`` is set by the optimizer's
    column pruning on a Project it narrowed (the number of expressions it
    had) or inserted under a join (its input's width)."""

    input: LogicalPlan
    exprs: list[BoundExpr]
    schema: Schema
    of: Optional[int] = None

    def inputs(self) -> Iterator[LogicalPlan]:
        yield self.input

    def name(self) -> str:
        if self.of is None:
            return "Project"
        return f"Project({len(self.exprs)} of {self.of})"


@dataclass
class Join(LogicalPlan):
    """Nested-loop join; output row = left columns ++ right columns.

    For LEFT/RIGHT/FULL joins, unmatched rows are padded with NULLs.
    ``condition`` is evaluated over the combined row.
    """

    kind: str  # INNER, LEFT, RIGHT, FULL, CROSS
    left: LogicalPlan
    right: LogicalPlan
    condition: Optional[BoundExpr]
    schema: Schema = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.schema:
            self.schema = list(self.left.schema) + list(self.right.schema)

    def inputs(self) -> Iterator[LogicalPlan]:
        yield self.left
        yield self.right

    def name(self) -> str:
        return f"Join({self.kind})"


@dataclass
class Aggregate(LogicalPlan):
    """Hash aggregation with grouping sets.

    Output columns, in order:

    1. one column per entry of ``group_exprs`` (NULL when the column is not
       part of the current grouping set),
    2. one column per entry of ``agg_calls``,
    3. if ``len(grouping_sets) > 1`` or ``emit_grouping_id``: the grouping id
       (bitmap, most-significant bit = first group expr; bit set = column
       absent from the grouping set),
    4. if ``capture_rows``: a tuple of the group's input rows (hidden column
       used by measure VISIBLE evaluation).
    """

    input: LogicalPlan
    group_exprs: list[BoundExpr]
    agg_calls: list[BoundAggCall]
    grouping_sets: list[list[int]]
    schema: Schema
    emit_grouping_id: bool = False
    capture_rows: bool = False

    def inputs(self) -> Iterator[LogicalPlan]:
        yield self.input

    @property
    def has_grouping_id(self) -> bool:
        return self.emit_grouping_id or len(self.grouping_sets) > 1

    @property
    def grouping_id_offset(self) -> int:
        return len(self.group_exprs) + len(self.agg_calls)

    @property
    def captured_rows_offset(self) -> int:
        return len(self.group_exprs) + len(self.agg_calls) + (
            1 if self.has_grouping_id else 0
        )

    def name(self) -> str:
        return (
            f"Aggregate(keys={len(self.group_exprs)}, aggs={len(self.agg_calls)},"
            f" sets={len(self.grouping_sets)})"
        )


@dataclass
class Window(LogicalPlan):
    """Appends one column per window call to the input rows."""

    input: LogicalPlan
    calls: list[BoundWindowCall]
    schema: Schema

    def inputs(self) -> Iterator[LogicalPlan]:
        yield self.input


@dataclass
class Sort(LogicalPlan):
    input: LogicalPlan
    keys: list[SortSpec]

    def __post_init__(self) -> None:
        self.schema = self.input.schema

    def inputs(self) -> Iterator[LogicalPlan]:
        yield self.input


@dataclass
class Limit(LogicalPlan):
    input: LogicalPlan
    limit: Optional[BoundExpr]
    offset: Optional[BoundExpr]

    def __post_init__(self) -> None:
        self.schema = self.input.schema

    def inputs(self) -> Iterator[LogicalPlan]:
        yield self.input


@dataclass
class Distinct(LogicalPlan):
    input: LogicalPlan

    def __post_init__(self) -> None:
        self.schema = self.input.schema

    def inputs(self) -> Iterator[LogicalPlan]:
        yield self.input


@dataclass
class SetOpPlan(LogicalPlan):
    op: str  # UNION, INTERSECT, EXCEPT
    all: bool
    left: LogicalPlan
    right: LogicalPlan

    def __post_init__(self) -> None:
        self.schema = self.left.schema

    def inputs(self) -> Iterator[LogicalPlan]:
        yield self.left
        yield self.right

    def name(self) -> str:
        return f"{self.op}{' ALL' if self.all else ''}"


def plan_tree_string(plan: LogicalPlan, indent: int = 0) -> str:
    """Render a plan tree for EXPLAIN-style debugging output."""
    lines = ["  " * indent + plan.label()]
    for child in plan.inputs():
        lines.append(plan_tree_string(child, indent + 1))
    return "\n".join(lines)
