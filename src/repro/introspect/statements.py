"""Per-fingerprint statement statistics and the plan-flip log.

The :class:`StatementStatsStore` is the storage behind the
``repro_stat_statements``, ``repro_strategy_stats`` and ``repro_plan_flips``
system tables: one entry per statement fingerprint accumulating calls, wall
time, rows, and errors, plus the last observed execution strategy and plan
hash; one entry per (fingerprint, strategy) with the same timing; and a
bounded ring of plan flips.  It is fed one
:class:`~repro.telemetry.record.StatementRecord` at a time.  When a
fingerprint's plan hash *changes* between executions, :meth:`observe`
returns the flip; the Telemetry facade turns that into a ``plan_flip``
event and a ``plan_flips_total`` increment.

Everything here is plain bookkeeping — no clock at all: wall time and the
flip timestamp are the record's.  The store is thread-safe: concurrent
sessions observe into the same fingerprint entry, so every mutation and
every read happens under one store lock, and :meth:`reset` clears the
entries *and* the flip ring atomically — a reader can never see a flip
whose fingerprint is already gone from the statistics.
"""

from __future__ import annotations

import copy
import threading
from typing import Any, Dict, List, Optional, Tuple

from repro.catalog.schema import RowType
from repro.types import DOUBLE, INTEGER, VARCHAR

__all__ = [
    "FLIP_COLUMNS",
    "StatementEntry",
    "StrategyEntry",
    "StatementStatsStore",
]

#: Plan flips one store retains.
FLIP_CAPACITY = 200

#: The ``repro_plan_flips`` columns; a flip is the ring entry (a dict)
#: holding exactly these keys.
FLIP_COLUMNS = (
    ("seq", INTEGER),
    ("ts", VARCHAR),
    ("fingerprint", VARCHAR),
    ("query", VARCHAR),
    ("old_strategy", VARCHAR),
    ("new_strategy", VARCHAR),
    ("old_plan_hash", VARCHAR),
    ("new_plan_hash", VARCHAR),
)


class _WallStats(RowType):
    """Calls, total / min / max wall ms and rows over a set of executions.

    These are distributive aggregates, so the per-fingerprint row is the
    sub-total of the fingerprint's per-strategy rows; both kinds of row
    accumulate through the one :meth:`add`.
    """

    TIMING = (
        ("calls", INTEGER),
        ("total_wall_ms", DOUBLE),
        ("mean_wall_ms", DOUBLE),
        ("min_wall_ms", DOUBLE),
        ("max_wall_ms", DOUBLE),
        ("rows_returned", INTEGER),
    )

    def __init__(self, fingerprint: str, query: str):
        self.fingerprint = fingerprint
        self.query = query  # normalized (literal-free) text
        self.calls = 0
        self.total_wall_ms = 0.0
        self.min_wall_ms: Optional[float] = None
        self.max_wall_ms: Optional[float] = None
        self.rows_returned = 0

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


class StatementEntry(_WallStats):
    """Lifetime statistics for one statement fingerprint."""

    COLUMNS = (
        (("fingerprint", VARCHAR), ("query", VARCHAR))
        + _WallStats.TIMING
        + (
            ("errors", INTEGER),
            ("last_strategy", VARCHAR),
            ("last_plan_hash", VARCHAR),
        )
    )

    def __init__(self, fingerprint: str, query: str):
        super().__init__(fingerprint, query)
        self.errors = 0
        self.last_strategy: Optional[str] = None
        self.last_plan_hash: Optional[str] = None


class StrategyEntry(_WallStats):
    """Lifetime statistics for one (fingerprint, strategy) pair.

    This is the timing *history* behind ``repro_strategy_stats``: where
    :class:`StatementEntry` keeps only the last observed strategy, one
    of these accumulates per strategy, so inline-vs-window-vs-subquery
    -vs-WinMagic costs for the same statement survive across executions
    and a cost-based chooser can compare them.
    """

    COLUMNS = (
        (("fingerprint", VARCHAR), ("strategy", VARCHAR), ("query", VARCHAR))
        + _WallStats.TIMING
    )

    def __init__(self, fingerprint: str, strategy: str, query: str):
        super().__init__(fingerprint, query)
        self.strategy = strategy


class StatementStatsStore:
    """Fingerprint-keyed statement statistics plus the flip ring."""

    def __init__(self) -> None:
        # Imported here, not at module level: the row types above are needed
        # by every Database (the system tables' schemas), the telemetry
        # package only by one that has telemetry on.
        from repro.telemetry.events import Ring

        self._entries: Dict[str, StatementEntry] = {}
        self._strategy: Dict[Tuple[str, str], StrategyEntry] = {}
        self._flips = Ring(FLIP_CAPACITY)
        #: One lock for the whole store: entry mutation, flip append, and
        #: reset must be atomic with respect to concurrent sessions.
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def observe(self, record: Any) -> Optional[Dict[str, Any]]:
        """Fold one finished, fingerprinted statement in; returns the flip,
        if any.

        A failed execution counts an error — never a call, never a flip.  A
        flip is a *change* of plan hash: the first hash seen for a
        fingerprint only seeds the detector, and statements with no plan
        (``plan_hash`` None — DDL, utilities, strategy experiments) never
        flip or overwrite a stored hash.
        """
        fingerprint = record.fingerprint
        query = record.query_text
        if query is None:
            query = record.sql or ""
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is None:
                entry = self._entries[fingerprint] = StatementEntry(
                    fingerprint, query
                )
            if record.outcome != "ok":
                entry.errors += 1
                return None
            strategy = record.strategy_label
            per = self._strategy.get((fingerprint, strategy))
            if per is None:
                per = self._strategy[fingerprint, strategy] = StrategyEntry(
                    fingerprint, strategy, query
                )
            entry.add(record.wall_ms, record.rows)
            per.add(record.wall_ms, record.rows)
            flip = None
            if record.plan_hash is not None:
                if entry.last_plan_hash not in (None, record.plan_hash):
                    flip = self._flips.append(
                        ts=record.ts,
                        fingerprint=fingerprint,
                        query=query,
                        old_strategy=entry.last_strategy,
                        new_strategy=strategy,
                        old_plan_hash=entry.last_plan_hash,
                        new_plan_hash=record.plan_hash,
                    )
                entry.last_plan_hash = record.plan_hash
            entry.last_strategy = strategy
            return flip

    def entries(self) -> List[StatementEntry]:
        """All entries, in first-seen order (point-in-time copies)."""
        return self.snapshot()[0]

    def flips(self) -> List[Dict[str, Any]]:
        """Retained plan flips, oldest first."""
        with self._lock:
            return self._flips.tail()

    def strategy_entries(self) -> List[StrategyEntry]:
        """Per-(fingerprint, strategy) history, in first-seen order."""
        return self.snapshot()[2]

    def snapshot(
        self,
    ) -> Tuple[List[StatementEntry], List[Dict[str, Any]], List[StrategyEntry]]:
        """Entries, flips, and strategy history under one lock acquisition.

        This is the consistency primitive behind the
        ``repro_stat_statements`` / ``repro_plan_flips`` /
        ``repro_strategy_stats`` snapshot group: a query joining the
        tables sees one store state, so a flip or strategy row always has
        a matching statistics row even while other sessions execute or
        :meth:`reset` concurrently.
        """
        with self._lock:
            return (
                [copy.copy(e) for e in self._entries.values()],
                self._flips.tail(),
                [copy.copy(e) for e in self._strategy.values()],
            )

    def reset(self) -> None:
        """Discard all statistics and retained flips (``reset_stats()``).

        All three clears happen under the store lock — atomically, as far
        as any concurrent observer is concerned — so ``repro_plan_flips``
        can never reference a fingerprint absent from
        ``repro_stat_statements``.
        """
        with self._lock:
            self._entries.clear()
            self._strategy.clear()
            self._flips.clear()
