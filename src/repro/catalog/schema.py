"""Column and table schemas.

Identifier matching is case-insensitive (standard SQL folding) while the
original spelling is preserved for display.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.errors import CatalogError
from repro.types import DataType

__all__ = ["Column", "RowType", "TableSchema"]


@dataclass(frozen=True)
class Column:
    """A named, typed column.  ``is_measure`` marks measure columns in views
    and derived tables; base-table columns are never measures."""

    name: str
    dtype: DataType

    @property
    def is_measure(self) -> bool:
        return self.dtype.is_measure


@dataclass
class TableSchema:
    columns: list[Column] = field(default_factory=list)

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for column in self.columns:
            key = column.name.lower()
            if key in seen:
                raise CatalogError(f"duplicate column name {column.name!r}")
            seen.add(key)

    def __len__(self) -> int:
        return len(self.columns)

    def names(self) -> list[str]:
        """Column names in declaration order."""
        return [column.name for column in self.columns]

    def find(self, name: str) -> Optional[int]:
        """Index of column ``name`` (case-insensitive), or None."""
        lowered = name.lower()
        for index, column in enumerate(self.columns):
            if column.name.lower() == lowered:
                return index
        return None

    def index_of(self, name: str) -> int:
        """Index of column ``name``; raises :class:`CatalogError` if absent."""
        index = self.find(name)
        if index is None:
            raise CatalogError(f"unknown column {name!r}")
        return index

    def column(self, name: str) -> Column:
        """The :class:`Column` named ``name``."""
        return self.columns[self.index_of(name)]

    @staticmethod
    def of(pairs: Iterable[tuple[str, DataType]]) -> "TableSchema":
        """Build a schema from ``(name, type)`` pairs."""
        return TableSchema([Column(name, dtype) for name, dtype in pairs])


class RowType:
    """Mixin for an object that is one row of a system table.

    ``COLUMNS`` — ``(name, type)`` pairs, each naming an attribute of the
    object — is the one declaration of the table's columns: the tuple a scan
    returns, the dict the Python accessors return and (through
    :meth:`TableSchema.of`) the table's schema are all read off it.
    """

    __slots__ = ()

    COLUMNS: tuple = ()

    def as_row(self) -> tuple:
        return tuple(getattr(self, name) for name, _ in self.COLUMNS)

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name, _ in self.COLUMNS}
