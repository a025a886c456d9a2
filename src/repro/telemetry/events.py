"""The bounded ring every telemetry buffer is, and the two logs built on it.

Entries are plain dicts with a monotonically increasing ``seq`` and an
ISO-8601 UTC ``ts``.  A :class:`Ring` is bounded so a long-lived Database
cannot grow without limit; the event log, the slow-query log, the trace
buffer and the plan-flip log are all instances of it.

The event log adds an optional *sink* (any object with a ``write``
method) that receives each event as one JSON line the moment it is
recorded, which is how the log is tailed to a file.  The slow-query log
is a smaller ring holding the full :meth:`QueryProfile.to_dict` of every
query whose wall time met the configured threshold.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from typing import Any, Dict, List, Optional

from repro.telemetry.record import utc_now

__all__ = ["Ring", "EventLog", "SlowQueryLog"]

#: Ring sizes of one Telemetry.  No caller ever asked for another size.
EVENT_CAPACITY = 1000
SLOW_LOG_CAPACITY = 100


class Ring:
    """Bounded ring buffer of ``seq``/``ts``-stamped dict entries."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("ring capacity must be >= 1")
        self.capacity = capacity
        self._entries: deque = deque(maxlen=capacity)
        self._seq = 0
        #: Guards seq assignment + append so concurrent sessions cannot
        #: interleave (two entries sharing a seq, or a torn tail() read).
        self._lock = threading.Lock()
        #: Entries that fell off the ring (observable data loss).
        self.dropped = 0

    def append(self, **fields: Any) -> Dict[str, Any]:
        """Append one entry; returns the stored dict.  ``seq`` is assigned
        here; ``ts`` is now unless ``fields`` brings the statement's own."""
        with self._lock:
            self._seq += 1
            entry: Dict[str, Any] = {"seq": self._seq, "ts": None}
            entry.update(fields)
            if entry["ts"] is None:
                entry["ts"] = utc_now()
            if len(self._entries) == self.capacity:
                self.dropped += 1
            self._entries.append(entry)
        return entry

    def __len__(self) -> int:
        return len(self._entries)

    def tail(self, n: Optional[int] = None) -> List[Dict[str, Any]]:
        """The most recent ``n`` entries, oldest first (all when ``n`` None)."""
        with self._lock:
            entries = list(self._entries)
        if n is not None and n >= 0:
            entries = entries[-n:] if n else []
        return entries

    def clear(self) -> None:
        """Discard the entries; ``seq`` keeps counting, so a reader's
        watermark stays valid across the reset."""
        with self._lock:
            self._entries.clear()


class EventLog(Ring):
    """Bounded ring buffer of query-lifecycle events."""

    def __init__(self, capacity: int = EVENT_CAPACITY, sink: Any = None):
        super().__init__(capacity)
        self.sink = sink

    def record(self, event: str, **fields: Any) -> Dict[str, Any]:
        """Append one event; returns the stored dict (with seq/ts added)."""
        entry = self.append(event=event, **fields)
        if self.sink is not None:
            self.sink.write(json.dumps(entry, default=str) + "\n")
        return entry

    def to_jsonl(self, n: Optional[int] = None) -> str:
        """The tail rendered as JSON lines (one event per line)."""
        return "\n".join(
            json.dumps(event, default=str) for event in self.tail(n)
        )


class SlowQueryLog(Ring):
    """Ring buffer of queries that exceeded the slow-query threshold."""

    def __init__(self, threshold_ms: float, capacity: int = SLOW_LOG_CAPACITY):
        super().__init__(capacity)
        self.threshold_ms = float(threshold_ms)

    def add(
        self,
        sql: Optional[str],
        duration_ms: float,
        profile: Optional[Dict[str, Any]],
        ts: Optional[str] = None,
    ) -> Dict[str, Any]:
        return self.append(
            ts=ts,
            sql=sql,
            duration_ms=duration_ms,
            threshold_ms=self.threshold_ms,
            profile=profile,
        )

    def entries(self) -> List[Dict[str, Any]]:
        """All retained entries, oldest first."""
        return self.tail()
