"""The shared prepared-plan cache.

One :class:`PlanCache` serves every session of a
:class:`~repro.server.session.SessionManager`.  Entries are keyed by the
statement's canonical printed SQL — the *exact* query text after the
parser and printer normalize whitespace, comments, and redundant parens —
with the PR 5 statement fingerprint stored alongside as metadata.  The
fingerprint deliberately is NOT the key: it collapses literals to ``?``,
and two queries that differ only in literals can have genuinely different
semantics here (ordinal ``ORDER BY 2`` vs ``ORDER BY 3``, measure
expansions that print-and-reparse constants), so each literal variant
gets its own entry, and each keeps its own plan: variants that plan
differently (one matches a summary, one does not) never evict each other.
The fingerprint groups them only in the ``repro_plan_cache`` system table.

Nobody tells the cache about a write.  An entry is replayed only while
:meth:`~repro.api.PlannedQuery.invalidated` says it is valid — nothing it
read or rejected, and not the catalog, was stamped by the write clock since
it was planned — and every access first sweeps out the entries that are
not.  While the clock has not moved since the last sweep that is one
integer compared, no entry walked.

Eviction reasons (the ``reason`` label on ``plan_cache_evictions_total``):

``lru``
    Capacity eviction of the least-recently-used entry.
``ddl``
    A CREATE/DROP/replace stamped the catalog after the entry was planned.
``dml``
    A write stamped a table the entry read or rejected (a REFRESH writes
    the summary; a write to a summary's source counts as one to it).
``clear``
    Explicit administrative clear.

Under the same lock the cache keeps a second map, the *text memo*: the
exact text a client sent -> its :class:`ParsedText` (the parsed statement,
its canonical key and its fingerprint), so a repeated text is parsed,
printed and fingerprinted once, not once per execution.  Two spellings of
one query are two texts but one key, hence one plan.  Nothing invalidates
a text: a parse reads no catalog.  The memo is LRU at the same
``capacity`` and holds one entry per distinct text, nothing per execution.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, NamedTuple, Optional

from repro.api import PlannedQuery
from repro.sql import ast
from repro.storage.table import clock

__all__ = ["ParsedText", "PlanCache"]


class ParsedText(NamedTuple):
    """One client text, parsed once.  ``key`` is the canonical print the
    plans are keyed by (None for a statement that is not planned through
    the cache); ``fingerprint`` is ``(fingerprint, normalized_sql)``."""

    statement: ast.Statement
    key: Optional[str]
    fingerprint: tuple


class _Entry:
    __slots__ = ("planned", "hits")

    def __init__(self, planned: PlannedQuery):
        self.planned = planned
        self.hits = 0


class PlanCache:
    """An LRU cache of :class:`~repro.api.PlannedQuery` keyed by SQL text,
    and the text memo in front of it.

    Thread-safe: sessions on different connections hit and evict it
    concurrently.  ``on_evict(reason, count)`` is called whenever entries
    leave the cache, which is how eviction counts reach telemetry without
    the cache importing it; a sweep calls it under the cache's lock, so it
    must not call back into the cache.
    """

    def __init__(
        self,
        capacity: int = 128,
        *,
        on_evict: Optional[Callable[[str, int], None]] = None,
    ):
        if capacity < 1:
            raise ValueError("plan cache capacity must be >= 1")
        self.capacity = capacity
        self._on_evict = on_evict
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        #: The text memo: client text -> ParsedText, LRU at ``capacity``.
        self._texts: "OrderedDict[str, ParsedText]" = OrderedDict()
        #: The write clock at the last sweep.
        self._swept = clock.now
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            self._sweep()
            return len(self._entries)

    def _notify(self, reason: str, count: int) -> None:
        if count and self._on_evict is not None:
            self._on_evict(reason, count)

    def _sweep(self) -> None:
        """Drop every entry a read would not replay; called under the lock.
        While the clock has not moved since the last sweep, nothing can have
        been stamped: one integer compared, no entry walked."""
        now = clock.now
        if now == self._swept:
            return
        self._swept = now
        for sql, entry in list(self._entries.items()):
            reason = entry.planned.invalidated()
            if reason is not None:
                del self._entries[sql]
                self._notify(reason, 1)

    def text(self, sql: str) -> Optional[ParsedText]:
        """The memoized parse of the client text ``sql``, or None; a hit
        refreshes recency."""
        with self._lock:
            parsed = self._texts.get(sql)
            if parsed is not None:
                self._texts.move_to_end(sql)
            return parsed

    def remember(self, sql: str, parsed: ParsedText) -> ParsedText:
        """Memoize ``parsed`` as the parse of ``sql``, dropping the least
        recently used text beyond capacity."""
        with self._lock:
            self._texts[sql] = parsed
            self._texts.move_to_end(sql)
            if len(self._texts) > self.capacity:
                self._texts.popitem(last=False)
        return parsed

    def get(self, sql: str) -> Optional[PlannedQuery]:
        """The cached plan for ``sql``, or None; a hit refreshes recency."""
        with self._lock:
            self._sweep()
            entry = self._entries.get(sql)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(sql)
            entry.hits += 1
            self.hits += 1
            return entry.planned

    def put(self, planned: PlannedQuery) -> None:
        """Insert ``planned`` (keyed by its canonical SQL), evicting LRU
        entries to stay within capacity."""
        evicted = 0
        with self._lock:
            self._sweep()
            self._entries[planned.sql] = _Entry(planned)
            self._entries.move_to_end(planned.sql)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                evicted += 1
        self._notify("lru", evicted)

    def clear(self) -> int:
        """Drop every entry."""
        with self._lock:
            count = len(self._entries)
            self._entries.clear()
        self._notify("clear", count)
        return count

    def rows(self) -> list:
        """Rows for the ``repro_plan_cache`` system table, LRU-first;
        ``relations`` names what each plan read or rejected."""
        with self._lock:
            self._sweep()
            rows = []
            for sql, entry in self._entries.items():
                planned = entry.planned
                names = sorted({table.name.lower() for table in planned.reads})
                rows.append((
                    planned.fingerprint, sql, planned.strategy, entry.hits,
                    len(names), ",".join(names),
                ))
            return rows

    def stats(self) -> dict:
        with self._lock:
            self._sweep()
            return {
                "size": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "texts": len(self._texts),
            }
