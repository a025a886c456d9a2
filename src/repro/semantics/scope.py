"""Name-resolution scopes.

A :class:`Scope` holds the relations visible in one query level's FROM clause;
scopes chain to enclosing query levels for correlated references.  Columns
resolve to a :class:`Resolution` carrying the nesting depth (0 = this query)
and the flat offset into that level's FROM row, or to a measure binding when
the name denotes a measure column.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.errors import BindError
from repro.semantics.bound import BoundExpr
from repro.types import DataType

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.definition import MeasureGroup, MeasureInstance

__all__ = ["RelColumn", "Relation", "Scope", "Resolution"]


@dataclass
class RelColumn:
    """One column exposed by a FROM-clause relation.

    Measure columns have ``offset`` None (they are virtual) and carry their
    :class:`~repro.core.definition.MeasureInstance`.  A ``hidden`` column (a
    summary's aggregate state) binds by name but ``*`` leaves it out.
    """

    name: str
    dtype: DataType
    offset: Optional[int]
    measure: Optional["MeasureInstance"] = None
    hidden: bool = False

    @property
    def is_measure(self) -> bool:
        return self.measure is not None


@dataclass
class Relation:
    """A FROM-clause item: alias, columns, and measure metadata."""

    alias: Optional[str]
    columns: list[RelColumn]
    start: int  # first FROM-row offset owned by this relation
    width: int  # number of non-measure columns
    group: Optional["MeasureGroup"] = None
    #: FROM-row offset -> the dimension expression over the measure source.
    dim_for_offset: dict[int, BoundExpr] = field(default_factory=dict)

    def find(self, name: str) -> Optional[RelColumn]:
        lowered = name.lower()
        for column in self.columns:
            if column.name.lower() == lowered:
                return column
        return None


@dataclass
class Resolution:
    depth: int
    relation: Relation
    column: RelColumn


class Scope:
    """Visible relations for one query level, chained to the enclosing level."""

    def __init__(self, parent: Optional["Scope"] = None):
        self.parent = parent
        self.relations: list[Relation] = []
        #: Column names merged by USING/NATURAL joins: unqualified references
        #: resolve to the left occurrence instead of being ambiguous.
        self.merged_names: set[str] = set()

    @property
    def width(self) -> int:
        return sum(relation.width for relation in self.relations)

    def add_relation(self, relation: Relation) -> None:
        if relation.alias:
            lowered = relation.alias.lower()
            for existing in self.relations:
                if existing.alias and existing.alias.lower() == lowered:
                    raise BindError(f"duplicate table alias {relation.alias!r}")
        self.relations.append(relation)

    def resolve(self, parts: tuple[str, ...]) -> Resolution:
        """Resolve a possibly-qualified column name, walking up the chain."""
        depth = 0
        scope: Optional[Scope] = self
        while scope is not None:
            found = scope._resolve_local(parts)
            if found is not None:
                relation, column = found
                return Resolution(depth, relation, column)
            scope = scope.parent
            depth += 1
        raise BindError(f"unknown column {'.'.join(parts)!r}")

    def _resolve_local(
        self, parts: tuple[str, ...]
    ) -> Optional[tuple[Relation, RelColumn]]:
        if len(parts) >= 2:
            qualifier = parts[-2].lower()
            name = parts[-1]
            for relation in self.relations:
                if relation.alias and relation.alias.lower() == qualifier:
                    column = relation.find(name)
                    if column is None:
                        raise BindError(
                            f"relation {relation.alias!r} has no column {name!r}"
                        )
                    return relation, column
            return None
        name = parts[0]
        matches = [
            (relation, column)
            for relation in self.relations
            if (column := relation.find(name)) is not None
        ]
        if not matches:
            return None
        if len(matches) > 1:
            if name.lower() in self.merged_names:
                return matches[0]
            raise BindError(f"ambiguous column reference {name!r}", rule="RP107")
        return matches[0]

    def relation_of_offset(self, offset: int) -> Optional[Relation]:
        for relation in self.relations:
            if relation.start <= offset < relation.start + relation.width:
                return relation
        return None
