"""``ANALYZE`` column statistics.

:func:`analyze_table` scans a base table once and produces a
:class:`TableStats`: exact row count plus, per column, the number of
distinct values, null fraction, min/max, and an equi-depth histogram.
The catalog stores the result (:meth:`~repro.catalog.Catalog
.store_table_stats`) with the table's ``changed`` count at the time, so
staleness — rows changed since the statistics were gathered, the table's
count now less that one — is a first-class, queryable fact
(``repro_table_stats.mods_since_analyze``).

Everything is computed from the rows actually present: no sampling, no
sketches.  That is the right trade-off for an in-memory engine — the
scan is one pass over data already resident — and it makes the numbers
*exact*, which the differential tests rely on.  Unorderable columns
(mixed types after schema evolution, for example) degrade gracefully:
NDV and null fraction are always computed, min/max and the histogram
are simply omitted.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Any, Iterable, Optional, Sequence, Tuple

__all__ = [
    "HISTOGRAM_BUCKETS",
    "ColumnStats",
    "TableStats",
    "analyze_table",
    "equi_depth_bounds",
]

#: Default number of equi-depth histogram buckets per column.
HISTOGRAM_BUCKETS = 10


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="microseconds")


def equi_depth_bounds(
    ordered: Sequence[Any], buckets: int = HISTOGRAM_BUCKETS
) -> Tuple[Any, ...]:
    """Upper bounds of an equi-depth histogram over pre-sorted values.

    Bucket ``i`` holds roughly ``len(ordered) / buckets`` values and its
    bound is the largest value it contains; consecutive duplicate bounds
    (heavy hitters spanning buckets) are collapsed, so the result has at
    most ``buckets`` entries and is strictly increasing.
    """
    n = len(ordered)
    if n == 0:
        return ()
    bounds: list = []
    for i in range(1, buckets + 1):
        # The classic equi-depth cut: the value at the i/buckets quantile.
        index = max(0, min(n - 1, (i * n) // buckets - 1))
        value = ordered[index]
        if not bounds or bounds[-1] != value:
            bounds.append(value)
    return tuple(bounds)


@dataclass(frozen=True)
class ColumnStats:
    """Statistics for one column, gathered by ``ANALYZE``."""

    column: str
    dtype: str
    ndv: int  # distinct non-null values
    null_count: int
    null_frac: float
    min_value: Optional[Any]
    max_value: Optional[Any]
    #: Equi-depth histogram upper bounds (empty when unorderable/empty).
    histogram: Tuple[Any, ...]

    def histogram_json(self) -> str:
        """The histogram bounds as a JSON array (dates etc. stringified)."""
        return json.dumps(list(self.histogram), default=str)

    def as_dict(self) -> dict:
        return {
            "column": self.column,
            "dtype": self.dtype,
            "ndv": self.ndv,
            "null_count": self.null_count,
            "null_frac": self.null_frac,
            "min_value": self.min_value,
            "max_value": self.max_value,
            "histogram": list(self.histogram),
        }


@dataclass(frozen=True)
class TableStats:
    """One table's ``ANALYZE`` result: row count plus per-column stats."""

    table: str
    row_count: int
    analyzed_at: str  # UTC ISO timestamp
    columns: Tuple[ColumnStats, ...]
    changed: int = 0  # the table's ``changed`` count when analyzed

    def column(self, name: str) -> Optional[ColumnStats]:
        lowered = name.lower()
        for stats in self.columns:
            if stats.column.lower() == lowered:
                return stats
        return None

    def as_dict(self) -> dict:
        return {
            "table": self.table,
            "row_count": self.row_count,
            "analyzed_at": self.analyzed_at,
            "columns": [c.as_dict() for c in self.columns],
        }


def _analyze_column(
    name: str, dtype: str, values: Iterable[Any], *, buckets: int
) -> ColumnStats:
    non_null: list = []
    null_count = 0
    for value in values:
        if value is None:
            null_count += 1
        else:
            non_null.append(value)
    total = len(non_null) + null_count
    ndv = len(set(non_null))
    null_frac = (null_count / total) if total else 0.0
    try:
        non_null.sort()
        minimum = non_null[0] if non_null else None
        maximum = non_null[-1] if non_null else None
        histogram = equi_depth_bounds(non_null, buckets)
    except TypeError:
        # Unorderable values (mixed types): keep the counts, drop the
        # order statistics instead of failing the whole ANALYZE.
        minimum = maximum = None
        histogram = ()
    return ColumnStats(
        column=name,
        dtype=dtype,
        ndv=ndv,
        null_count=null_count,
        null_frac=null_frac,
        min_value=minimum,
        max_value=maximum,
        histogram=histogram,
    )


def analyze_table(
    name: str,
    schema,
    rows: Sequence[tuple],
    *,
    buckets: int = HISTOGRAM_BUCKETS,
) -> TableStats:
    """Scan ``rows`` once and compute full statistics for every column.

    ``schema`` is the table's :class:`~repro.catalog.schema.TableSchema`;
    measure columns cannot occur in base tables, so every column is a
    plain scalar.
    """
    columns = tuple(
        _analyze_column(
            column.name,
            str(column.dtype),
            (row[index] for row in rows),
            buckets=buckets,
        )
        for index, column in enumerate(schema.columns)
    )
    return TableStats(
        table=name,
        row_count=len(rows),
        analyzed_at=_utc_now(),
        columns=columns,
    )
