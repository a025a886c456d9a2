"""Measure definitions.

A measure is defined by a query with ``AS MEASURE`` items (paper section 3.2).
All measures defined in one query share a :class:`MeasureGroup`: the **source
plan** (the defining query's FROM and WHERE — the WHERE is baked in and cannot
be subverted by users of the measure) and the **dimensions** (the defining
query's non-measure output columns, each an expression over the source row).

A measure's *dimensionality* is exactly its group's dimension set; evaluation
contexts are predicates over those dimensions (paper section 3.4).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Optional

from repro.semantics.bound import BoundExpr, fingerprint
from repro.types import DataType

if TYPE_CHECKING:  # pragma: no cover
    from repro.plan.logical import LogicalPlan
    from repro.semantics.binder import FromSql

__all__ = ["Dimension", "MeasureGroup", "MeasureInstance"]


@dataclass
class Dimension:
    """One dimension column of a measure table."""

    name: str
    source_expr: BoundExpr
    dtype: DataType

    @cached_property
    def key(self) -> str:
        """Canonical identity of this dimension (over the source row)."""
        return fingerprint(self.source_expr)


@dataclass
class MeasureGroup:
    """The shared context of all measures defined by one query."""

    source_plan: "LogicalPlan"
    dims: dict[str, Dimension]  # keyed by lower-case exposed name
    dim_order: list[str] = field(default_factory=list)
    #: The defining query's FROM (AST, names, join conditions) and every
    #: conjunct baked into ``source_plan``, over the same row: what SQL
    #: expansion prints a measure's subquery from.
    source_sql: Optional["FromSql"] = None


@dataclass
class MeasureInstance:
    """A single measure: a formula over its group's source rows.

    ``formula`` is a bound expression whose aggregate calls range over the
    context-filtered source rows; scalar operators combine aggregate results
    (e.g. ``(SUM(revenue) - SUM(cost)) / SUM(revenue)``).  The formula may
    contain nested :class:`~repro.semantics.bound.BoundMeasureEval` nodes when
    a measure is built from measures of an input table (paper section 5.4).
    """

    name: str
    group: MeasureGroup
    formula: BoundExpr
    value_type: DataType
    #: What a fingerprint calls this measure.  Two bindings of one view are
    #: two measures (each relation of a self-join has its own rows), so a
    #: name will not do; ``id()`` would, but does not survive a plan copy.
    serial: int = field(
        default_factory=itertools.count(1).__next__,
        init=False, compare=False, repr=False,
    )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        dims = ", ".join(self.group.dim_order)
        return f"MeasureInstance({self.name}; dims=[{dims}])"
