"""The statement record: everything known about one finished statement.

``Database._emit`` builds exactly one :class:`StatementRecord` per statement
and hands it to every watcher — ``Telemetry.observe`` (metrics, statement
statistics and the statement ring) and ``JournalWriter.record``.  Nothing
downstream re-reads the session or trace context, re-classifies the outcome,
takes its own timestamp or trusts its own clock: a sink that reports a
``kind``, ``fingerprint``, ``strategy``, ``outcome``, ``rows`` or wall time
reports *this* record's, so all of them agree.

The ring keeps the record's fields, not the record, as one
:class:`~repro.telemetry.events.Entry`; the event dicts, slow-log entries,
traces and ``repro_statements`` rows are projections of that entry.
``docs/OBSERVABILITY.md`` ("The statement record") lists which sink reads
which field.
"""

from __future__ import annotations

import contextvars
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Any, Dict, Optional, Sequence

from repro.errors import QueryCancelled

__all__ = [
    "StatementRecord",
    "current_session",
    "current_traceparent",
    "utc_now",
]

#: The session id attached to statements recorded from the current execution
#: context, or "" for direct Database API use.  The query server sets it
#: around each statement it runs; a ContextVar (rather than a thread-local)
#: survives the ``asyncio.to_thread`` hop between the event loop and the
#: worker thread that actually executes the statement.
current_session: contextvars.ContextVar[str] = contextvars.ContextVar(
    "repro_current_session", default=""
)

#: The W3C ``traceparent`` propagated with the current statement, or ""
#: when the caller sent none.  Set by the session layer from the wire
#: protocol's optional ``traceparent`` field; read when the statement's
#: record is built so the exported trace joins the caller's distributed
#: trace instead of minting a fresh id.  Same ContextVar rationale as
#: ``current_session``.
current_traceparent: contextvars.ContextVar[str] = contextvars.ContextVar(
    "repro_current_traceparent", default=""
)


def utc_now() -> str:
    """ISO-8601 UTC, microseconds: the one timestamp format of the
    statement record, the event rings and the journal."""
    return datetime.now(timezone.utc).isoformat(timespec="microseconds")


@dataclass(frozen=True)
class StatementRecord:
    """One finished statement, success or failure.

    Built where the statement finished, in its execution context: ``ts``,
    ``session`` and ``traceparent`` default to now and to the two
    ContextVars above, read this once.  ``sql`` is the caller's text where
    there is one and the canonical printed statement otherwise; ``kind`` /
    ``fingerprint`` / ``query_text`` (the literal-free text the fingerprint
    hashes) are None for a statement that did not parse.  ``strategy`` is
    what planning decided (``summary`` or ``interpreter``) or the expansion
    strategy the caller forced, None for a failed or plan-less statement;
    ``plan_hash`` is None for those and for a strategy experiment, which is
    deliberately not a plan flip.  ``wall_ms`` is the one duration every
    sink reports.

    ``result`` and ``profile`` are attachments, never serialized: the
    journal digests the one, the statement ring keeps the other for the
    slow log and the trace export (the *partial* profile of a query that
    failed mid-execution).
    The last five fields are read off the others, here and nowhere else:
    ``outcome``; ``rows``, the result's row count (rows returned by a
    query, rows affected by DML), None on failure; the profile's ``phases``
    (per-phase ms) and ``counters``, empty for an unprofiled statement; and
    ``strategy_label``.
    """

    # -- identity
    sql: Optional[str] = None
    kind: Optional[str] = None
    params: Sequence[Any] = ()
    fingerprint: Optional[str] = None
    query_text: Optional[str] = None
    ts: str = field(default_factory=utc_now)
    session: str = field(default_factory=current_session.get)
    traceparent: str = field(default_factory=current_traceparent.get)
    # -- decision
    strategy: Optional[str] = None
    plan_hash: Optional[str] = None
    reports: tuple = ()
    introspection: bool = False
    # -- outcome and cost
    error: Optional[BaseException] = None
    wall_ms: float = 0.0
    # -- attachments
    result: Any = None
    profile: Any = None
    # -- derived
    outcome: str = field(init=False)  # "ok" | "error" | "cancelled"
    rows: Optional[int] = field(init=False)
    phases: Dict[str, float] = field(init=False)
    counters: Dict[str, int] = field(init=False)
    #: ``strategy`` as a metric label and statistics key: a plan-less
    #: statement is ``"none"``, not a missing label.
    strategy_label: str = field(init=False)

    def __post_init__(self) -> None:
        error, result, profile = self.error, self.result, self.profile
        if error is None:
            outcome = "ok"
        elif isinstance(error, QueryCancelled):
            outcome = "cancelled"
        else:
            outcome = "error"
        phases: Dict[str, float] = {}
        if profile is not None:
            for child in profile.root_span.children:
                if child.kind == "phase":
                    phases[child.name] = round(child.duration_ms, 3)
        for name, value in (
            ("outcome", outcome),
            ("rows", None if result is None else result.rowcount),
            ("phases", phases),
            ("counters", {} if profile is None else profile.counters),
            ("strategy_label", self.strategy or "none"),
        ):
            object.__setattr__(self, name, value)  # the dataclass is frozen
