"""Logical plan operators.

Plans are trees of these nodes; the binder emits them directly and the
executor interprets them.  Every node knows its output schema as a list of
``(name, DataType)`` pairs; rows are flat tuples in schema order.

The :class:`Aggregate` node is grouping-sets aware: ``grouping_sets`` lists,
for each output grouping, which positions of ``group_exprs`` are active.  When
more than one grouping set exists (ROLLUP/CUBE), a hidden grouping-id column
is appended.  A group's input rows are not copied into its output row: the
VISIBLE call sites above an Aggregate read them as positions into its input,
through the :class:`GroupRef` they share with it.

**A node describes itself once.**  Each class is a dataclass and names which
of its fields are input plans (``INPUTS``) and which hold bound expressions
(``EXPRS``: an expression, None, a ``SortSpec``, or lists of those).  The
generic operations every traversal needs are derived from that declaration
on :class:`LogicalPlan` — :meth:`~LogicalPlan.inputs`,
:meth:`~LogicalPlan.with_inputs`, :meth:`~LogicalPlan.expressions`,
:meth:`~LogicalPlan.map_expressions`, :meth:`~LogicalPlan.fingerprint` — so
a pass that only needs to *reach* a node's parts asks the node and lists no
node types.  What stays a per-node dispatch is per-node semantics: the
executor, dataflow's transfer functions, what column pruning asks of an
input, the validator's arity assertions.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from repro.semantics.bound import (
    BoundAggCall,
    BoundExpr,
    BoundWindowCall,
    SortSpec,
    collect_exprs,
    fingerprint,
    map_exprs,
)
from repro.types import DataType

__all__ = [
    "LogicalPlan",
    "Scan",
    "SystemScan",
    "ValuesPlan",
    "Filter",
    "Project",
    "Join",
    "JoinPipeline",
    "Aggregate",
    "GroupRef",
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

    #: The declaration: names of the fields holding input plans (one, or a list),
    #: in order, and of the fields holding this operator's own expressions.
    INPUTS: tuple = ()
    EXPRS: tuple = ()

    def inputs(self) -> list["LogicalPlan"]:
        found: list = []
        for name in self.INPUTS:
            value = getattr(self, name)
            found += value if isinstance(value, list) else [value]
        return found

    def with_inputs(self, *children: "LogicalPlan") -> "LogicalPlan":
        """This node over ``children`` (one per input, in order), every
        other field as it is; the node itself when they are its inputs."""
        changes = {}
        rest = iter(children)
        for name in self.INPUTS:
            old = getattr(self, name)
            if isinstance(old, list):
                new = [next(rest) for _ in old]
                if all(n is o for n, o in zip(new, old)):
                    continue
            elif (new := next(rest)) is old:
                continue
            changes[name] = new
        return dataclasses.replace(self, **changes) if changes else self  # type: ignore[type-var]

    def expressions(self) -> list[BoundExpr]:
        """This operator's own expressions (not those of its inputs)."""
        found: list[BoundExpr] = []
        for name in self.EXPRS:
            collect_exprs(getattr(self, name), found)
        return found

    def map_expressions(
        self, fn: Callable[[BoundExpr], BoundExpr]
    ) -> "LogicalPlan":
        """This node with ``fn(expr)`` for each of its own expressions; the
        node itself when ``fn`` returned every one unchanged."""
        changes = {}
        for name in self.EXPRS:
            value = getattr(self, name)
            new = map_exprs(value, fn)
            if new is not value:
                changes[name] = new
        return dataclasses.replace(self, **changes) if changes else self  # type: ignore[type-var]

    def fingerprint(self) -> str:
        """A structural identity of the whole tree: equal for two plans with
        the same operators and expressions (by
        :func:`~repro.semantics.bound.fingerprint`, so down through subquery
        plans), whichever objects they are made of.  Every dataclass field
        takes part but the inputs, which follow, and the schema, which
        labels columns the operators already determine."""
        parts = [
            fingerprint(getattr(self, name)) for name in _detail_fields(type(self))
        ]
        children = ",".join([child.fingerprint() for child in self.inputs()])
        return f"{type(self).__name__}({'|'.join(parts)})({children})"

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


@functools.cache
def _detail_fields(cls: type) -> tuple:
    """The dataclass fields a node's fingerprint renders."""
    return tuple(
        f.name
        for f in dataclasses.fields(cls)
        if f.name != "schema" and f.name not in cls.INPUTS
    )


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

    EXPRS = ("rows",)


@dataclass
class Filter(LogicalPlan):
    input: LogicalPlan
    predicate: BoundExpr

    INPUTS = ("input",)
    EXPRS = ("predicate",)

    def __post_init__(self) -> None:
        self.schema = self.input.schema


@dataclass
class Project(LogicalPlan):
    """One output column per expression.  ``of`` is set by the optimizer's
    column pruning on a Project it narrowed (the number of expressions it
    had) or inserted under a join (its input's width)."""

    input: LogicalPlan
    exprs: list[BoundExpr]
    schema: Schema
    of: Optional[int] = None

    INPUTS = ("input",)
    EXPRS = ("exprs",)

    def name(self) -> str:
        if self.of is None:
            return "Project"
        return f"Project({len(self.exprs)} of {self.of})"


@dataclass
class Join(LogicalPlan):
    """Binary join; output row = left columns ++ right columns.

    For LEFT/RIGHT/FULL joins, unmatched rows are padded with NULLs.
    ``condition`` is evaluated over the combined row: hashed on its equi-key
    conjuncts, every pair tested (a nested loop) when it has none.
    """

    kind: str  # INNER, LEFT, RIGHT, FULL, CROSS
    left: LogicalPlan
    right: LogicalPlan
    condition: Optional[BoundExpr]
    schema: Schema = field(default_factory=list)

    INPUTS = ("left", "right")
    EXPRS = ("condition",)

    def __post_init__(self) -> None:
        if not self.schema:
            self.schema = list(self.left.schema) + list(self.right.schema)

    def name(self) -> str:
        return f"Join({self.kind})"


@dataclass
class JoinPipeline(LogicalPlan):
    """A left-deep chain of ``INNER`` / ``LEFT`` hash joins run as one loop:
    ``((sources[0] kinds[0] sources[1]) kinds[1] sources[2]) …`` (:attr:`joins`).

    ``conditions[k]``, all hashable equi-keys, reads ``sources[0 .. k + 1]``
    side by side; ``emit`` lists the offsets of *all* the sources side by side
    that make the output row, the only tuple the executor builds.  Created by
    column pruning (:mod:`repro.plan.pruning`), which knows what is read above.
    """

    sources: list[LogicalPlan]
    kinds: list[str]
    conditions: list[BoundExpr]
    emit: list[int]
    schema: Schema

    INPUTS = ("sources",)
    EXPRS = ("conditions",)

    @functools.cached_property
    def joins(self) -> list[Join]:
        """The binary joins this stands for, innermost first: what dataflow
        facts, arity and condition types are derived from."""
        found: list = []
        for kind, right, condition in zip(self.kinds, self.sources[1:], self.conditions):
            left = found[-1] if found else self.sources[0]
            found.append(Join(kind, left, right, condition))
        return found

    def name(self) -> str:
        width = sum(source.arity for source in self.sources)
        return f"JoinPipeline({', '.join(self.kinds)}: {len(self.emit)} of {width})"


class GroupRef:
    """How the VISIBLE call sites above an :class:`Aggregate` find their
    group: each execution of the Aggregate leaves its groups
    (:class:`~repro.engine.compile.Groups`, positions into its input) in
    ``ctx.groups`` under this object, and a call site looks its output row
    up there.  Nothing is copied into the row.

    ``rows_read``: some VISIBLE reads a group's rows (a key, outer or
    residual conjunct), not only whether it has any.  It reads them by
    offset in the query's FROM row, so column pruning keeps the Aggregate's
    input whole.
    """

    __slots__ = ("rows_read",)

    def __init__(self, rows_read: bool = False):
        self.rows_read = rows_read

    def fingerprint(self) -> str:
        return "rows" if self.rows_read else "groups"


@dataclass
class Aggregate(LogicalPlan):
    """Hash aggregation with grouping sets.

    Output columns, in order:

    1. one column per entry of ``group_exprs`` (NULL when the column is not
       part of the current grouping set),
    2. one column per entry of ``agg_calls``,
    3. if ``len(grouping_sets) > 1`` or ``emit_grouping_id``: the grouping id
       (bitmap, most-significant bit = first group expr; bit set = column
       absent from the grouping set).

    ``groups`` is set when a VISIBLE call site above reads the current
    group (:class:`GroupRef`).
    """

    input: LogicalPlan
    group_exprs: list[BoundExpr]
    agg_calls: list[BoundAggCall]
    grouping_sets: list[list[int]]
    schema: Schema
    emit_grouping_id: bool = False
    groups: Optional[GroupRef] = None

    INPUTS = ("input",)
    EXPRS = ("group_exprs", "agg_calls")

    @property
    def has_grouping_id(self) -> bool:
        return self.emit_grouping_id or len(self.grouping_sets) > 1

    @property
    def grouping_id_offset(self) -> int:
        return len(self.group_exprs) + len(self.agg_calls)

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

    INPUTS = ("input",)
    EXPRS = ("calls",)


@dataclass
class Sort(LogicalPlan):
    input: LogicalPlan
    keys: list[SortSpec]

    INPUTS = ("input",)
    EXPRS = ("keys",)

    def __post_init__(self) -> None:
        self.schema = self.input.schema


@dataclass
class Limit(LogicalPlan):
    input: LogicalPlan
    limit: Optional[BoundExpr]
    offset: Optional[BoundExpr]

    INPUTS = ("input",)
    EXPRS = ("limit", "offset")

    def __post_init__(self) -> None:
        self.schema = self.input.schema


@dataclass
class Distinct(LogicalPlan):
    input: LogicalPlan

    INPUTS = ("input",)

    def __post_init__(self) -> None:
        self.schema = self.input.schema


@dataclass
class SetOpPlan(LogicalPlan):
    op: str  # UNION, INTERSECT, EXCEPT
    all: bool
    left: LogicalPlan
    right: LogicalPlan

    INPUTS = ("left", "right")

    def __post_init__(self) -> None:
        self.schema = self.left.schema

    def name(self) -> str:
        return f"{self.op}{' ALL' if self.all else ''}"


def plan_tree_string(plan: LogicalPlan, indent: int = 0) -> str:
    """Render a plan tree for EXPLAIN-style debugging output."""
    lines = ["  " * indent + plan.label()]
    for child in plan.inputs():
        lines.append(plan_tree_string(child, indent + 1))
    return "\n".join(lines)
