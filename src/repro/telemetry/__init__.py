"""Database-lifetime observability: metrics and the statement ring.

Where :mod:`repro.profile` answers "what did *this query* do", this
package answers "what has *this Database* been doing" — cumulative
counters and latency histograms (Prometheus text exposition via
``Database.metrics_text()``) and one bounded ring of recent statements
and events (:mod:`repro.telemetry.events`).  The structured JSON-lines
event log, the slow-query log with its full :class:`QueryProfile` dumps,
the OTel-flavored trace export, the plan flips and ``repro_statements``
are all read off that ring.

The facade is :class:`Telemetry`.  ``Database(telemetry=True)`` creates
one; when telemetry is off (the default) ``Database.telemetry`` is None
and the only cost on the query path is that None check — the same
zero-cost-when-off discipline as the watcher (repro.profile).

All metric names, label sets, and schemas are documented in
``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import re
from typing import Any, Dict, Iterable, List, Optional

from repro.errors import ResourceExhausted
from repro.profile.watch import CTX_COUNTERS
from repro.telemetry.events import Entry, Ring
from repro.telemetry.record import (
    StatementRecord,
    current_session,
    current_traceparent,
)
from repro.telemetry.registry import (
    DEFAULT_DURATION_BUCKETS_MS,
    Counter,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.traces import TRACE_SCHEMA, trace_envelope

__all__ = [
    "Telemetry",
    "MetricsRegistry",
    "Counter",
    "Histogram",
    "Ring",
    "StatementRecord",
    "TRACE_SCHEMA",
    "trace_envelope",
    "DEFAULT_DURATION_BUCKETS_MS",
    "statement_kind",
    "current_session",
    "current_traceparent",
    "parse_traceparent",
]

_CAMEL = re.compile(r"(?<=[a-z0-9])(?=[A-Z])")

#: ``version-trace_id-parent_span_id-flags`` per the W3C Trace Context
#: recommendation; all-zero trace/span ids are invalid per spec.
_TRACEPARENT = re.compile(
    r"^(?P<version>[0-9a-f]{2})-(?P<trace_id>[0-9a-f]{32})"
    r"-(?P<span_id>[0-9a-f]{16})-(?P<flags>[0-9a-f]{2})$"
)


def parse_traceparent(value: Optional[str]):
    """Parse a W3C ``traceparent`` header value.

    Returns ``(trace_id, parent_span_id, flags)`` or None when the value
    is missing or malformed (invalid values are ignored, per spec, rather
    than rejected — a bad header must never fail the statement).
    """
    if not value or not isinstance(value, str):
        return None
    match = _TRACEPARENT.match(value.strip().lower())
    if match is None:
        return None
    trace_id = match.group("trace_id")
    span_id = match.group("span_id")
    if trace_id == "0" * 32 or span_id == "0" * 16:
        return None
    return (trace_id, span_id, match.group("flags"))


def statement_kind(statement: Any) -> str:
    """Classify a parsed statement for the ``kind`` metric label.

    Queries are ``"select"`` (or ``"show_stats"``); everything else uses
    the snake_cased AST class name (``CreateMaterializedView`` ->
    ``"create_materialized_view"``), so new statement types pick up a
    sensible label with no registry to maintain.
    """
    from repro.sql import ast

    if isinstance(statement, ast.QueryStatement):
        if isinstance(statement.query, ast.ShowStats):
            return "show_stats"
        return "select"
    return _CAMEL.sub("_", type(statement).__name__).lower()


class Telemetry:
    """One Database's lifetime observability state.

    Composes a :class:`MetricsRegistry`, the statement :class:`Ring` and
    the :class:`~repro.introspect.statements.StatementStatsStore`.  The
    Database hands :meth:`observe` one :class:`StatementRecord` per
    finished statement and calls the ``record_*`` feeds from the matview /
    expansion / lint paths; nothing here reads a clock except
    the timestamping of the non-statement events, which only happens when
    telemetry is on.
    """

    def __init__(
        self,
        *,
        slow_query_ms: Optional[float] = None,
        event_sink: Any = None,
    ):
        self.registry = MetricsRegistry()
        self.ring = Ring(sink=event_sink)
        self.slow_query_ms = (
            None if slow_query_ms is None else float(slow_query_ms)
        )
        #: The ring's newest seq at the last reset_stats(): plan_flips()
        #: lists only the flips after it.
        self._reset_seq = 0

        reg = self.registry
        self.queries_total = reg.counter(
            "queries_total",
            "Statements executed, by statement kind and execution strategy.",
            ("kind", "strategy"),
        )
        self.query_duration_ms = reg.histogram(
            "query_duration_ms",
            "Statement wall time in milliseconds.",
            ("kind",),
        )
        self.rows_returned_total = reg.counter(
            "rows_returned_total", "Result rows returned to callers."
        )
        self.errors_total = reg.counter(
            "errors_total",
            "Statements that raised, by error class.",
            ("class",),
        )
        self.internal_queries_total = reg.counter(
            "internal_queries_total",
            "Internal summary-maintenance queries (excluded from "
            "queries_total and every per-query metric).",
        )
        self.introspection_queries_total = reg.counter(
            "introspection_queries_total",
            "Queries that scan only repro_* system tables (excluded from "
            "queries_total and every per-query metric, mirroring the "
            "internal-maintenance exclusion).",
        )
        self.plan_flips_total = reg.counter(
            "plan_flips_total",
            "Plan-hash changes detected between executions of one "
            "statement fingerprint.",
        )
        from repro.introspect.statements import StatementStatsStore

        #: Per-(fingerprint, strategy) statement statistics and the flip
        #: detector; read and written under ``ring.lock``.
        self.statements = StatementStatsStore()
        self.matview_hits_total = reg.counter(
            "matview_hits_total",
            "Queries rewritten to read a materialized summary table.",
            ("view",),
        )
        self.matview_misses_total = reg.counter(
            "matview_misses_total",
            "Summary candidates considered but not used, by view and "
            "status (rejected or stale).",
            ("view", "status"),
        )
        self.matview_maintenance_total = reg.counter(
            "matview_maintenance_total",
            "Materialized-view maintenance events (refresh, "
            "incremental_merge).",
            ("event", "view"),
        )
        self.expansions_total = reg.counter(
            "expansions_total",
            "Measure expansions requested, by strategy.",
            ("strategy",),
        )
        self.lint_diagnostics_total = reg.counter(
            "lint_diagnostics_total",
            "Lint diagnostics produced, by rule code.",
            ("rule",),
        )
        self.slow_queries_total = reg.counter(
            "slow_queries_total",
            "Queries at or over the configured slow_query_ms threshold.",
        )
        self.sessions_opened_total = reg.counter(
            "sessions_opened_total", "Server sessions opened."
        )
        self.sessions_closed_total = reg.counter(
            "sessions_closed_total", "Server sessions closed."
        )
        self.session_statements_total = reg.counter(
            "session_statements_total",
            "Statements executed through a server session, by session id.",
            ("session",),
        )
        self.plan_cache_hits_total = reg.counter(
            "plan_cache_hits_total",
            "Statements served from a session's prepared-plan cache.",
        )
        self.plan_cache_misses_total = reg.counter(
            "plan_cache_misses_total",
            "Statements planned cold (no usable plan-cache entry).",
        )
        self.plan_cache_evictions_total = reg.counter(
            "plan_cache_evictions_total",
            "Plan-cache entries evicted, by reason (lru, ddl, dml, clear); "
            "a REFRESH is a write to the summary, so dml.",
            ("reason",),
        )
        self._profile_counters = tuple(
            (src, reg.counter(f"{src}_total", f"Lifetime total of the "
                              f"per-query '{src}' profile counter."))
            for src in CTX_COUNTERS
        )

    # -- statement boundary --------------------------------------------------

    def observe(self, record: StatementRecord) -> None:
        """Fold one finished statement in: metrics, statement statistics
        (and the flip they may detect), and one ring entry.

        Everything reported is read off ``record``.  Events, traces and
        slow-log entries are projections of the entry, built when read;
        only an attached event sink gets the statement's events now.  An
        ``introspection`` query (one that scans only system tables)
        increments ``introspection_queries_total`` and touches *nothing
        else*, so the database observing itself never skews the statistics
        being observed.  A plan-cache hit's record carries the cold run's
        strategy and plan hash, keeping the flip detector quiet.
        """
        if record.session:
            self.session_statements_total.inc(session=record.session)
        if record.introspection:
            self.introspection_queries_total.inc()
            return
        error = record.error
        # A query killed by its memory budget joins the slow log whatever
        # its duration: its partial profile is what sizes the budget.
        exhausted = isinstance(error, ResourceExhausted)
        slow = self.slow_query_ms is not None and (
            exhausted if error is not None else record.wall_ms >= self.slow_query_ms
        )
        if error is not None:
            self.errors_total.inc(**{"class": type(error).__name__})
        else:
            kind = record.kind
            self.queries_total.inc(kind=kind, strategy=record.strategy_label)
            self.query_duration_ms.observe(record.wall_ms, kind=kind)
            if record.profile is not None:
                self.rows_returned_total.inc(record.rows)
                for src, metric in self._profile_counters:
                    amount = record.counters.get(src, 0)
                    if amount:
                        metric.inc(amount)
            if slow:
                self.slow_queries_total.inc()
        ring = self.ring
        entry = Entry(record, slow, exhausted)
        # One lock over the statistics and the ring: reset_stats() can never
        # fall between a flip's detection and its entry.
        with ring.lock:
            flip = None
            if record.fingerprint is not None:
                flip = self.statements.observe(record)
                if flip is not None:
                    entry.old_strategy, entry.old_plan_hash = flip
            ring.add(entry)
        if flip is not None:
            self.plan_flips_total.inc()
        if ring.sink is not None:
            ring.write(entry.events(self.slow_query_ms))

    def reset_stats(self) -> None:
        """Discard the statement statistics and hide the flips so far from
        :meth:`plan_flips`; the ring itself, like the metrics, keeps its
        history."""
        with self.ring.lock:
            self.statements.reset()
            self._reset_seq = self.ring._seq

    # -- subsystem feeds -----------------------------------------------------

    def record_rewrite(self, outcome: Any) -> None:
        """Feed matview hit/miss counters from one RewriteOutcome.

        Mirrors exactly what the summary ``match(record=True)`` adds to each
        view's :class:`SummaryStats`, so the lifetime counters stay
        consistent with ``summary_stats()``.
        """
        for report in outcome.reports:
            view = getattr(report.view, "name", report.view)
            if report.status == "hit":
                self.matview_hits_total.inc(view=view)
            else:
                self.matview_misses_total.inc(view=view, status=report.status)

    def record_maintenance(self, event: str, view: str) -> None:
        self.matview_maintenance_total.inc(event=event, view=view)
        self.ring.record("matview_maintenance", op=event, view=view)

    def record_internal_query(self) -> None:
        """Count (only) an internal maintenance query; nothing else."""
        self.internal_queries_total.inc()

    def record_expansion(self, strategy: str) -> None:
        self.expansions_total.inc(strategy=strategy)

    def record_lint(self, diagnostics: Iterable[Any]) -> None:
        codes: List[str] = []
        for diag in diagnostics:
            self.lint_diagnostics_total.inc(rule=diag.code)
            codes.append(diag.code)
        if codes:
            self.ring.record("lint", rules=codes)

    # -- projections of the ring ---------------------------------------------

    def metrics_text(self) -> str:
        return self.registry.render_prometheus()

    def snapshot(self) -> Dict[str, dict]:
        return self.registry.snapshot()

    def events(self, n: Optional[int] = None) -> List[Dict[str, Any]]:
        """The newest ``n`` events (all when None or negative), oldest
        first.  A statement's events are read off its one entry and share
        its seq."""
        threshold = self.slow_query_ms
        out: List[Dict[str, Any]] = []
        for entry in self.ring.entries():
            if isinstance(entry, Entry):
                out.extend(entry.events(threshold))
            else:
                out.append(entry)
        return out if n is None or n < 0 else out[max(len(out) - n, 0):]

    def statement_snapshot(self) -> tuple:
        """``(statistics rows, statement entries, reset seq)`` from one
        locked read; a flip with a seq over the reset seq always has its
        statistics row, even while other sessions observe or reset."""
        ring = self.ring
        with ring.lock:
            stats = self.statements.entries()
            entries = [e for e in ring._entries if isinstance(e, Entry)]
            return stats, entries, self._reset_seq

    def plan_flips(self) -> List[Dict[str, Any]]:
        """The plan flips still in the ring since the last
        :meth:`reset_stats`, oldest first."""
        after = self._reset_seq
        return [
            e.flip()
            for e in self.ring.entries()
            if isinstance(e, Entry) and e.old_plan_hash is not None and e.seq > after
        ]

    def slow_queries(self) -> List[Dict[str, Any]]:
        """The newest slow entries, oldest first, each with its profile."""
        ring = self.ring
        return [e.slow_entry(self.slow_query_ms, p) for e, p in ring.held(ring.slow)]

    def export_traces(self) -> Dict[str, Any]:
        """The ``repro-trace-v2`` envelope of the retained traces."""
        ring = self.ring
        return trace_envelope(ring.held(ring.traced), ring.traces_dropped)
