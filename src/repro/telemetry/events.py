"""The statement ring: the one bounded buffer of what a Telemetry saw.

Every finished statement becomes one :class:`Entry` — its record's fields,
not its result — and every other event (``session_open`` /
``session_close``, ``matview_maintenance``, ``lint``) one plain dict, in one
:class:`Ring` with one ``seq``, one lock and one capacity.  The event log,
the slow-query log, the trace export, the plan flips and
``repro_statements`` are projections of it, built when read: observing a
statement flattens no span tree and builds no event dict.

A statement's events (``plan_flip``, its lifecycle event, ``slow_query`` /
``resource_exhausted``) are read off its one entry, so they share that
entry's ``seq``.  An entry keeps its frozen profile only while it is one of
the newest :data:`PROFILE_CAPACITY` profiled successes (the traces) or one
of the newest :data:`PROFILE_CAPACITY` slow entries (the slow log).

An optional *sink* (any object with a ``write`` method) receives each event
as one JSON line the moment it is recorded, which is how the log is tailed
to a file.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from typing import Any, Dict, List, Optional

from repro.telemetry.record import utc_now

__all__ = ["Entry", "Ring", "RING_CAPACITY", "PROFILE_CAPACITY"]

#: Entries one Telemetry retains.  No caller ever asked for another size.
RING_CAPACITY = 1000
#: Profiles retained: of the newest profiled successes, and of the newest
#: slow entries.
PROFILE_CAPACITY = 100

#: The :class:`~repro.telemetry.record.StatementRecord` fields an entry
#: keeps as they are.
_COPIED = (
    "ts", "session", "traceparent", "kind", "fingerprint", "sql", "strategy",
    "plan_hash", "outcome", "wall_ms", "rows", "phases",
)


class Entry:
    """One finished statement: the fields of its record every projection
    reads, without its result.  ``old_strategy`` / ``old_plan_hash`` are
    set, as the entry joins the ring, when the statement flipped its
    fingerprint's plan.  ``profile`` is None once no profile list of the
    ring holds the entry (``holds`` counts them), and for a failed
    statement that is not slow."""

    __slots__ = _COPIED + (
        "seq", "query", "summary", "error", "message", "spans_dropped",
        "profile", "holds", "slow", "exhausted", "old_strategy", "old_plan_hash",
    )

    def __init__(self, record: Any, slow: bool, exhausted: bool):
        for name in _COPIED:
            setattr(self, name, getattr(record, name))
        error, profile = record.error, record.profile
        self.seq = self.holds = 0
        self.query = record.query_text
        self.summary = [
            {
                "view": getattr(r.view, "name", r.view),
                "status": r.status,
                "reason": r.reason,
                "rule": r.rule,
            }
            for r in record.reports
        ]
        # None: the statement was not profiled.
        self.spans_dropped = None if profile is None else profile.spans_dropped
        self.slow = slow
        self.exhausted = exhausted
        if error is None:
            self.error = self.message = None
            self.profile = profile
        else:
            self.error, self.message = type(error).__name__, str(error)
            # A failed statement's partial profile only feeds the slow log.
            self.profile = profile if slow else None
        self.old_strategy = self.old_plan_hash = None

    # -- projections ---------------------------------------------------------

    def as_row(self) -> tuple:
        """One ``repro_statements`` row."""
        return (
            self.seq, self.ts, self.session or None, self.kind,
            self.fingerprint, self.query, self.sql, self.strategy or "none",
            self.plan_hash, self.old_strategy, self.old_plan_hash,
            self.outcome, self.error, self.wall_ms, self.rows,
            json.dumps(self.phases, sort_keys=True) if self.phases else None,
        )

    def flip(self) -> Dict[str, Any]:
        """The plan flip this statement made (only when it made one)."""
        return {
            "seq": self.seq,
            "ts": self.ts,
            "fingerprint": self.fingerprint,
            "query": self.query if self.query is not None else self.sql or "",
            "old_strategy": self.old_strategy,
            "new_strategy": self.strategy or "none",
            "old_plan_hash": self.old_plan_hash,
            "new_plan_hash": self.plan_hash,
        }

    def _event(self, event: str, **extra: Any) -> Dict[str, Any]:
        """One event about this statement: the fields every statement event
        carries, plus ``extra``.  ``ts`` is the record's, shared with the
        journal line; ``duration_ms`` is ``wall_ms`` under the events'
        documented name."""
        fields: Dict[str, Any] = {
            "seq": self.seq,
            "ts": self.ts,
            "event": event,
            "kind": self.kind,
            "fingerprint": self.fingerprint,
            "strategy": self.strategy,
            "outcome": self.outcome,
            "duration_ms": round(self.wall_ms, 3),
            "sql": self.sql,
        }
        if self.session:
            fields["session"] = self.session
        if self.traceparent:
            # Slow, failed and cancelled statements correlate across
            # sessions and services by the caller's trace context.
            fields["traceparent"] = self.traceparent
        fields.update(extra)
        return fields

    def events(self, threshold_ms: Optional[float]) -> List[Dict[str, Any]]:
        """This statement's events, in the order they happened: its plan
        flip, its lifecycle event — ``error`` for a failure, ``query`` for a
        profiled query, ``statement`` for everything else (DDL, DML,
        ``SHOW STATS``) — then ``slow_query`` or ``resource_exhausted``."""
        out = []
        if self.old_plan_hash is not None:
            out.append({**self.flip(), "event": "plan_flip"})
        if self.error is not None:
            out.append(self._event("error", error_class=self.error, message=self.message))
        elif self.spans_dropped is not None:
            fields = self._event("query", rows=self.rows, phases=self.phases)
            if self.summary:
                fields["summary"] = self.summary
            if self.spans_dropped:
                fields["spans_dropped"] = self.spans_dropped
            out.append(fields)
        else:
            out.append(self._event("statement", rowcount=self.rows))
        if self.exhausted:
            out.append(self._event("resource_exhausted", message=self.message))
        elif self.slow:
            out.append(self._event("slow_query", threshold_ms=threshold_ms))
        return out

    def slow_entry(self, threshold_ms: Optional[float], profile: Any) -> Dict[str, Any]:
        """This statement as a slow-log entry, ``profile`` serialized."""
        return {
            "seq": self.seq,
            "ts": self.ts,
            "sql": self.sql,
            "duration_ms": round(self.wall_ms, 3),
            "threshold_ms": threshold_ms,
            "profile": None if profile is None else profile.to_dict(),
        }


class Ring:
    """The bounded ring of statement entries and other events.

    ``seq`` is assigned under the ring's one :attr:`lock`, so concurrent
    sessions never share a seq or tear a read.
    """

    def __init__(self, sink: Any = None):
        self._entries: deque = deque(maxlen=RING_CAPACITY)
        self._seq = 0
        self.lock = threading.Lock()
        self.sink = sink
        #: The newest slow entries and the newest profiled successes, oldest
        #: first: the entries that keep their profile.  A slow entry stays
        #: listed after it has left the ring.
        self.slow: deque = deque()
        self.traced: deque = deque()
        #: Traces released to keep the bound.
        self.traces_dropped = 0

    def add(self, entry: Entry) -> None:
        """Append one statement entry; the caller holds :attr:`lock`."""
        self._seq += 1
        entry.seq = self._seq
        self._entries.append(entry)
        if entry.slow:
            self._hold(self.slow, entry)
        if entry.profile is not None and entry.outcome == "ok":
            self.traces_dropped += self._hold(self.traced, entry)

    @staticmethod
    def _hold(newest: deque, entry: Entry) -> bool:
        """List ``entry`` among ``newest``; True when that released the
        oldest, whose profile goes once no list holds it."""
        entry.holds += 1
        newest.append(entry)
        if len(newest) <= PROFILE_CAPACITY:
            return False
        old = newest.popleft()
        old.holds -= 1
        if not old.holds:
            old.profile = None
        return True

    def record(self, event: str, **fields: Any) -> None:
        """Append one non-statement event."""
        entry: Dict[str, Any] = {"seq": 0, "ts": utc_now(), "event": event, **fields}
        with self.lock:
            self._seq += 1
            entry["seq"] = self._seq
            self._entries.append(entry)
        self.write([entry])

    def write(self, events: List[Dict[str, Any]]) -> None:
        """Hand ``events`` to the sink, one JSON line each."""
        if self.sink is not None:
            for event in events:
                self.sink.write(json.dumps(event, default=str) + "\n")

    def entries(self) -> list:
        """Every retained entry, oldest first."""
        with self.lock:
            return list(self._entries)

    def held(self, newest: deque) -> List[tuple]:
        """``(entry, its profile)`` for each of ``newest`` (:attr:`slow` or
        :attr:`traced`), read under the lock: a newer entry may release a
        profile."""
        with self.lock:
            return [(entry, entry.profile) for entry in newest]
