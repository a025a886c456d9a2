"""Per-(fingerprint, strategy) statement statistics and the flip detector.

The :class:`StatementStatsStore` is the storage behind the
``repro_stat_statements`` system table: one :class:`StrategyEntry` row per
(statement fingerprint, strategy) accumulating calls, wall time, rows and
errors.  These are distributive aggregates kept at the finest grain, so
every coarser fact — a fingerprint's calls, mean or errors across its
strategies — is one ``GROUP BY fingerprint`` away.  A failed statement's
error counts on the row of the strategy it ran under: ``"none"`` unless the
caller forced an expansion strategy.

It is fed one :class:`~repro.telemetry.record.StatementRecord` at a time.
When a fingerprint's plan hash *changes* between executions, :meth:`observe`
returns the flip as ``(old_strategy, old_plan_hash)``; the Telemetry facade
stores it on the statement's ring entry and counts it.

Everything here is plain bookkeeping — no clock and no lock: the Telemetry
calls in under its statement ring's one lock, so a statistics read, a flip
and :meth:`reset` are atomic with respect to each other.
"""

from __future__ import annotations

import copy
from typing import Any, Dict, List, Optional, Tuple

from repro.catalog.schema import RowType
from repro.types import DOUBLE, INTEGER, VARCHAR

__all__ = ["StrategyEntry", "StatementStatsStore"]


class StrategyEntry(RowType):
    """Calls, total / min / max wall ms, rows and errors of one statement
    fingerprint run under one strategy."""

    COLUMNS = (
        ("fingerprint", VARCHAR),
        ("strategy", VARCHAR),
        ("query", VARCHAR),
        ("calls", INTEGER),
        ("total_wall_ms", DOUBLE),
        ("mean_wall_ms", DOUBLE),
        ("min_wall_ms", DOUBLE),
        ("max_wall_ms", DOUBLE),
        ("rows_returned", INTEGER),
        ("errors", INTEGER),
    )

    def __init__(self, fingerprint: str, strategy: str, query: str):
        self.fingerprint = fingerprint
        self.strategy = strategy
        self.query = query  # normalized (literal-free) text
        self.calls = 0
        self.total_wall_ms = 0.0
        self.min_wall_ms: Optional[float] = None
        self.max_wall_ms: Optional[float] = None
        self.rows_returned = 0
        self.errors = 0

    @property
    def mean_wall_ms(self) -> float:
        return self.total_wall_ms / self.calls if self.calls else 0.0

    def add(self, wall_ms: float, rows: int) -> None:
        """Fold one completed execution in."""
        if self.calls:
            self.min_wall_ms = min(self.min_wall_ms, wall_ms)
            self.max_wall_ms = max(self.max_wall_ms, wall_ms)
        else:
            self.min_wall_ms = self.max_wall_ms = wall_ms
        self.calls += 1
        self.total_wall_ms += wall_ms
        self.rows_returned += rows


class StatementStatsStore:
    """(fingerprint, strategy)-keyed statistics plus each fingerprint's last
    ``(strategy, plan_hash)``, the flip detector's whole state."""

    def __init__(self) -> None:
        self._stats: Dict[Tuple[str, str], StrategyEntry] = {}
        self._last: Dict[str, Tuple[str, Optional[str]]] = {}

    def observe(self, record: Any) -> Optional[Tuple[str, str]]:
        """Fold one finished, fingerprinted statement in; returns the flip,
        ``(old_strategy, old_plan_hash)``, if any.

        A failed execution counts an error — never a call, never a flip.  A
        flip is a *change* of plan hash: the first hash seen for a
        fingerprint only seeds the detector, and statements with no plan
        (``plan_hash`` None — DDL, utilities, strategy experiments) never
        flip or overwrite a stored hash.
        """
        fingerprint = record.fingerprint
        strategy = record.strategy_label
        stats = self._stats.get((fingerprint, strategy))
        if stats is None:
            query = record.query_text
            if query is None:
                query = record.sql or ""
            stats = self._stats[fingerprint, strategy] = StrategyEntry(
                fingerprint, strategy, query
            )
        if record.outcome != "ok":
            stats.errors += 1
            return None
        stats.add(record.wall_ms, record.rows)
        old_strategy, old_hash = self._last.get(fingerprint, (None, None))
        plan_hash = record.plan_hash
        if plan_hash is None:
            self._last[fingerprint] = (strategy, old_hash)
            return None
        self._last[fingerprint] = (strategy, plan_hash)
        if old_hash in (None, plan_hash):
            return None
        return old_strategy, old_hash

    def entries(self) -> List[StrategyEntry]:
        """All rows, in first-seen order (point-in-time copies)."""
        return [copy.copy(s) for s in self._stats.values()]

    def reset(self) -> None:
        """Discard all statistics and the flip detector's state."""
        self._stats.clear()
        self._last.clear()
