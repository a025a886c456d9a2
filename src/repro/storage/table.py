"""In-memory row storage for base tables: the one writer of a table's rows.

Rows are immutable tuples; values are coerced to the declared column types
on write, so the engine can rely on clean runtime types everywhere else.
Every write is one whole statement's: all of its rows are coerced before
any is written, so a write that fails leaves the table exactly as it was.

Each write stamps the table with the next tick of :data:`clock`, one
process-wide monotone counter, and adds the rows it touched to ``changed``.
Whoever asks "has this table changed since?" reads those two — summary
staleness, cached-plan validity, ANALYZE staleness — instead of being told
by the statement that wrote (DESIGN.md, "One write clock").
"""

from __future__ import annotations

import threading
from typing import Any, Iterable, Optional, Sequence

from repro.catalog.schema import TableSchema
from repro.errors import CatalogError
from repro.types import coerce_value

__all__ = ["MemoryTable", "clock"]


class Clock:
    """A process-wide monotone counter; ``now`` is the last tick issued."""

    def __init__(self) -> None:
        self.now = 0
        self._lock = threading.Lock()

    def tick(self) -> int:
        with self._lock:
            self.now += 1
            return self.now


#: The one write clock every table and the catalog stamp themselves with.
clock = Clock()


class MemoryTable:
    """A heap of tuples with a fixed schema."""

    def __init__(self, schema: TableSchema):
        self.schema = schema
        self._rows: list[tuple] = []
        #: The tick of the last write; a new table is one.
        self.stamp = clock.tick()
        #: Rows inserted, updated or deleted over the table's life.
        self.changed = 0

    def __len__(self) -> int:
        return len(self._rows)

    @property
    def rows(self) -> list[tuple]:
        return self._rows

    def _coerced(
        self, rows: Iterable[Sequence[Any]], columns: Optional[Sequence[str]] = None
    ) -> list[tuple]:
        """Every row as a tuple of the column types — from the values of
        ``columns``, NULL for the others, when given — or an error before
        any is kept."""
        dtypes = [column.dtype for column in self.schema.columns]
        width, picks = len(dtypes), None
        if columns:
            at = {self.schema.index_of(name): i for i, name in enumerate(columns)}
            if len(at) < len(columns):
                raise CatalogError(f"a column is named twice in ({', '.join(columns)})")
            width, picks = len(columns), [at.get(i) for i in range(len(dtypes))]
        coerced = []
        for row in rows:
            if len(row) != width:
                raise CatalogError(f"expected {width} values per row, got {len(row)}")
            if picks is not None:
                row = [None if pick is None else row[pick] for pick in picks]
            coerced.append(tuple(map(coerce_value, row, dtypes)))
        return coerced

    def _wrote(self, count: int) -> int:
        if count:
            self.changed += count
            self.stamp = clock.tick()
        return count

    def insert_many(
        self, rows: Iterable[Sequence[Any]], columns: Optional[Sequence[str]] = None
    ) -> int:
        """Append ``rows``, all or none; returns how many."""
        coerced = self._coerced(rows, columns)
        self._rows.extend(coerced)
        return self._wrote(len(coerced))

    def update(self, positions: Sequence[int], rows: Sequence[Sequence[Any]]) -> int:
        """Replace the row at each of ``positions`` by the row at the same
        index of ``rows``, all or none."""
        coerced = self._coerced(rows)
        for position, row in zip(positions, coerced):
            self._rows[position] = row
        return self._wrote(len(coerced))

    def delete(self, positions: Iterable[int]) -> int:
        """Remove the rows at ``positions``."""
        doomed = set(positions)
        if doomed:
            self._rows = [row for i, row in enumerate(self._rows) if i not in doomed]
        return self._wrote(len(doomed))

    def truncate(self) -> int:
        """Remove every row."""
        count, self._rows = len(self._rows), []
        return self._wrote(count)
