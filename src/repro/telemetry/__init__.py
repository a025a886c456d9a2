"""Database-lifetime observability: metrics, events, slow log, traces.

Where :mod:`repro.profile` answers "what did *this query* do", this
package answers "what has *this Database* been doing" — cumulative
counters and latency histograms (Prometheus text exposition via
``Database.metrics_text()``), a structured JSON-lines event log, a
slow-query log capturing full :class:`QueryProfile` dumps, and an
OTel-flavored trace export of every profiled query's span tree.

The facade is :class:`Telemetry`.  ``Database(telemetry=True)`` creates
one; when telemetry is off (the default) ``Database.telemetry`` is None
and the only cost on the query path is that None check — the same
zero-cost-when-off discipline as the profiler.

All metric names, label sets, and schemas are documented in
``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import contextvars
import re
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.telemetry.events import EventLog, SlowQueryLog
from repro.telemetry.registry import (
    DEFAULT_DURATION_BUCKETS_MS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.traces import TRACE_SCHEMA, TraceBuffer

__all__ = [
    "Telemetry",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "EventLog",
    "SlowQueryLog",
    "TraceBuffer",
    "TRACE_SCHEMA",
    "DEFAULT_DURATION_BUCKETS_MS",
    "statement_kind",
    "current_session",
    "current_traceparent",
    "parse_traceparent",
]

_CAMEL = re.compile(r"(?<=[a-z0-9])(?=[A-Z])")

#: The session id attached to telemetry recorded from the current execution
#: context, or "" for direct Database API use.  The query server sets it
#: around each statement it runs; a ContextVar (rather than a thread-local)
#: survives the ``asyncio.to_thread`` hop between the event loop and the
#: worker thread that actually executes the statement.
current_session: contextvars.ContextVar[str] = contextvars.ContextVar(
    "repro_current_session", default=""
)

#: The W3C ``traceparent`` propagated with the current statement, or ""
#: when the caller sent none.  Set by the session layer from the wire
#: protocol's optional ``traceparent`` field; read at capture time so the
#: exported trace joins the caller's distributed trace instead of minting
#: a fresh id.  Same ContextVar rationale as ``current_session``.
current_traceparent: contextvars.ContextVar[str] = contextvars.ContextVar(
    "repro_current_traceparent", default=""
)

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


#: ExecutionContext counters mirrored as lifetime totals, profile name ->
#: metric name.
_PROFILE_COUNTER_METRICS = (
    ("rows_scanned", "rows_scanned_total"),
    ("subquery_executions", "subquery_executions_total"),
    ("subquery_cache_hits", "subquery_cache_hits_total"),
    ("measure_evaluations", "measure_evaluations_total"),
    ("measure_cache_hits", "measure_cache_hits_total"),
    ("hash_joins", "hash_joins_total"),
    ("nested_loop_joins", "nested_loop_joins_total"),
)


class Telemetry:
    """One Database's lifetime observability state.

    Composes a :class:`MetricsRegistry`, an :class:`EventLog`, an optional
    :class:`SlowQueryLog`, and a :class:`TraceBuffer`.  The Database calls
    the ``record_*`` methods at the query boundary and from the matview /
    expansion / winmagic / lint paths; nothing here reads a clock except
    event timestamping, which only happens when telemetry is on.
    """

    def __init__(
        self,
        *,
        slow_query_ms: Optional[float] = None,
        event_capacity: int = 1000,
        trace_capacity: int = 100,
        slow_log_capacity: int = 100,
        event_sink: Any = None,
        duration_buckets: Sequence[float] = DEFAULT_DURATION_BUCKETS_MS,
    ):
        self.registry = MetricsRegistry()
        self.events = EventLog(capacity=event_capacity, sink=event_sink)
        self.traces = TraceBuffer(capacity=trace_capacity)
        self.slow_query_ms = (
            None if slow_query_ms is None else float(slow_query_ms)
        )
        self.slow_log = (
            None
            if self.slow_query_ms is None
            else SlowQueryLog(self.slow_query_ms, capacity=slow_log_capacity)
        )

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
            buckets=duration_buckets,
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

        #: Per-fingerprint statement statistics; backs the
        #: repro_stat_statements and repro_plan_flips system tables.
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
            "incremental_merge, invalidation).",
            ("event", "view"),
        )
        self.expansions_total = reg.counter(
            "expansions_total",
            "Measure expansions requested, by strategy.",
            ("strategy",),
        )
        self.winmagic_total = reg.counter(
            "winmagic_total",
            "WinMagic rewrite attempts, by outcome.",
            ("outcome",),
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
        self.spans_dropped_total = reg.counter(
            "spans_dropped_total",
            "Trace spans dropped by the per-query span budget.",
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
            "Plan-cache entries evicted, by reason "
            "(lru, ddl, dml, refresh, flip, clear).",
            ("reason",),
        )
        self._profile_counters = tuple(
            (src, reg.counter(name, f"Lifetime total of the per-query "
                              f"'{src}' profile counter."))
            for src, name in _PROFILE_COUNTER_METRICS
        )

    # -- query boundary ------------------------------------------------------

    def record_query(
        self,
        kind: str,
        profile: Any,
        *,
        rows: int,
        sql: Optional[str] = None,
        reports: Iterable[Any] = (),
        fingerprint: Optional[str] = None,
        query_text: Optional[str] = None,
        plan_shape: Optional[str] = None,
        introspection: bool = False,
        strategy: str = "interpreter",
    ) -> None:
        """Record one completed query (kind select/explain/...): metrics,
        a lifecycle event, the trace, and — if slow — a slow-log entry.

        ``fingerprint``/``query_text`` key the statement into the
        per-fingerprint statistics store; ``plan_shape`` (the bound plan's
        operator tree) combines with the decided strategy into the plan
        hash the flip detector watches.  ``introspection`` marks a query
        that scans only system tables: it increments
        ``introspection_queries_total`` and touches *nothing else*, the
        same exclusion internal maintenance gets — so the database
        observing itself never skews the statistics being observed.

        ``strategy`` is what planning decided (``summary`` or
        ``interpreter``) or the expansion strategy the caller forced;
        ``reports`` only detail the event.  A plan-cache hit replays a
        stored plan without re-running the rewriter, so it has no reports
        but the cold run's strategy, keeping the plan hash stable and the
        flip detector quiet for cached executions.
        """
        session = current_session.get()
        traceparent = current_traceparent.get()
        if session:
            self.session_statements_total.inc(session=session)
        if introspection:
            self.introspection_queries_total.inc()
            return
        report_dicts = [
            {
                "view": getattr(r.view, "name", r.view),
                "status": r.status,
                "reason": r.reason,
                "rule": r.rule,
            }
            for r in reports
        ]
        duration_ms = profile.total_ms
        if fingerprint is not None:
            from repro.introspect.fingerprint import plan_hash

            phash = (
                None if plan_shape is None else plan_hash(strategy, plan_shape)
            )
            flip = self.statements.observe(
                fingerprint,
                query_text if query_text is not None else (sql or ""),
                duration_ms,
                rows=rows,
                strategy=strategy,
                plan_hash=phash,
            )
            if flip is not None:
                self.plan_flips_total.inc()
                self.events.record("plan_flip", **flip.as_dict())
        self.queries_total.inc(kind=kind, strategy=strategy)
        self.query_duration_ms.observe(duration_ms, kind=kind)
        self.rows_returned_total.inc(rows)
        counters = profile.counters
        for src, metric in self._profile_counters:
            amount = counters.get(src, 0)
            if amount:
                metric.inc(amount)
        if profile.spans_dropped:
            self.spans_dropped_total.inc(profile.spans_dropped)
        phases = {
            child.name: round(child.duration_ms, 3)
            for child in profile.root_span.children
            if child.kind == "phase"
        }
        event: Dict[str, Any] = {
            "kind": kind,
            "strategy": strategy,
            "duration_ms": round(duration_ms, 3),
            "rows": rows,
            "phases": phases,
            "sql": sql,
        }
        if session:
            event["session"] = session
        if traceparent:
            event["traceparent"] = traceparent
        if report_dicts:
            event["summary"] = report_dicts
        if profile.spans_dropped:
            event["spans_dropped"] = profile.spans_dropped
        self.events.record("query", **event)
        self.traces.capture(
            profile.root_span,
            sql=sql,
            spans_dropped=profile.spans_dropped,
            traceparent=traceparent or None,
        )
        if (
            self.slow_log is not None
            and duration_ms >= self.slow_log.threshold_ms
        ):
            self.slow_queries_total.inc()
            self.slow_log.add(sql, round(duration_ms, 3), profile.to_dict())
            slow_event: Dict[str, Any] = {
                "sql": sql,
                "duration_ms": round(duration_ms, 3),
                "threshold_ms": self.slow_log.threshold_ms,
            }
            if traceparent:
                # A slow query correlates across sessions and services by
                # the caller's trace context, not just by SQL text.
                slow_event["traceparent"] = traceparent
            self.events.record("slow_query", **slow_event)

    def record_statement(
        self,
        kind: str,
        duration_ms: float,
        *,
        rowcount: int = 0,
        sql: Optional[str] = None,
        fingerprint: Optional[str] = None,
        query_text: Optional[str] = None,
    ) -> None:
        """Record one non-query statement (DDL/DML/utility)."""
        session = current_session.get()
        if session:
            self.session_statements_total.inc(session=session)
        if fingerprint is not None:
            # No bound plan, so no plan hash: statements can never flip,
            # and observe() never overwrites a stored hash with None.
            self.statements.observe(
                fingerprint,
                query_text if query_text is not None else (sql or ""),
                duration_ms,
                rows=rowcount,
                strategy="none",
            )
        self.queries_total.inc(kind=kind, strategy="none")
        self.query_duration_ms.observe(duration_ms, kind=kind)
        detail: Dict[str, Any] = {
            "kind": kind,
            "duration_ms": round(duration_ms, 3),
            "rowcount": rowcount,
            "sql": sql,
        }
        if session:
            detail["session"] = session
        self.events.record("statement", **detail)
        if (
            self.slow_log is not None
            and duration_ms >= self.slow_log.threshold_ms
        ):
            self.slow_queries_total.inc()
            self.slow_log.add(sql, round(duration_ms, 3), None)
            self.events.record(
                "slow_query",
                sql=sql,
                duration_ms=round(duration_ms, 3),
                threshold_ms=self.slow_log.threshold_ms,
            )

    def record_error(
        self,
        exc: BaseException,
        *,
        sql: Optional[str] = None,
        fingerprint: Optional[str] = None,
        query_text: Optional[str] = None,
    ) -> None:
        if fingerprint is not None:
            self.statements.record_error(
                fingerprint, query_text if query_text is not None else (sql or "")
            )
        self.errors_total.inc(**{"class": type(exc).__name__})
        detail: Dict[str, Any] = {
            "error_class": type(exc).__name__,
            "message": str(exc),
            "sql": sql,
        }
        session = current_session.get()
        if session:
            detail["session"] = session
        traceparent = current_traceparent.get()
        if traceparent:
            # Cancels and failures correlate across sessions by the
            # caller's propagated trace context.
            detail["traceparent"] = traceparent
        self.events.record("error", **detail)

    def record_resource_exhausted(
        self, exc: BaseException, *, sql: Optional[str], profiler: Any
    ) -> None:
        """A query died on its memory budget: keep its *partial* profile.

        The profiler was live when :class:`ResourceExhausted` fired, so
        freezing it now captures everything up to the failing operator —
        exactly the evidence needed to size a budget or fix the query.
        The entry goes to the slow-query log (when configured) regardless
        of the duration threshold: an OOM-averted query is always worth
        keeping.
        """
        profile = None if profiler is None else profiler.finish(sql=sql)
        duration_ms = 0.0 if profile is None else round(profile.total_ms, 3)
        if self.slow_log is not None:
            self.slow_log.add(
                sql, duration_ms, None if profile is None else profile.to_dict()
            )
        detail: Dict[str, Any] = {
            "sql": sql,
            "message": str(exc),
            "duration_ms": duration_ms,
        }
        traceparent = current_traceparent.get()
        if traceparent:
            detail["traceparent"] = traceparent
        self.events.record("resource_exhausted", **detail)

    # -- subsystem feeds -----------------------------------------------------

    def record_rewrite(self, outcome: Any) -> None:
        """Feed matview hit/miss counters from one RewriteOutcome.

        Mirrors exactly what ``rewrite_query(record=True)`` adds to each
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
        self.events.record("matview_maintenance", op=event, view=view)

    def record_internal_query(self) -> None:
        """Count (only) an internal maintenance query; nothing else."""
        self.internal_queries_total.inc()

    def record_expansion(self, strategy: str) -> None:
        self.expansions_total.inc(strategy=strategy)

    def record_winmagic(self, outcome: str) -> None:
        self.winmagic_total.inc(outcome=outcome)

    def record_lint(self, diagnostics: Iterable[Any]) -> None:
        codes: List[str] = []
        for diag in diagnostics:
            self.lint_diagnostics_total.inc(rule=diag.code)
            codes.append(diag.code)
        if codes:
            self.events.record("lint", rules=codes)

    # -- export --------------------------------------------------------------

    def metrics_text(self) -> str:
        return self.registry.render_prometheus()

    def snapshot(self) -> Dict[str, dict]:
        return self.registry.snapshot()

    def slow_queries(self) -> List[Dict[str, Any]]:
        return [] if self.slow_log is None else self.slow_log.entries()

    def export_traces(self) -> Dict[str, Any]:
        return self.traces.export()
