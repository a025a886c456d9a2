"""Sessions: per-client execution contexts over one shared Database.

A :class:`SessionManager` owns the shared pieces — the Database, the
:class:`~repro.server.plancache.PlanCache`, and the ``repro_sessions`` /
``repro_plan_cache`` system tables — and hands out :class:`Session`
objects, one per connected client.  Sessions are the concurrency
boundary:

* Every statement runs under the Database's single-writer/many-reader
  lock (``Database.rwlock``).  Queries take the read side, so any number
  of sessions read concurrently; DDL/DML/EXPLAIN take the write side and
  run exclusively.
* Within a statement, scans snapshot each table's rows at first touch
  (:class:`~repro.engine.evaluator.ExecutionContext`), so a self-join
  sees one consistent state even of a table the statement itself is not
  allowed to change.
* Every statement is found through the cache's text memo: a text seen
  before is not parsed, printed or fingerprinted again.
* Queries go through the shared plan cache: the canonical SQL text is
  the key, a hit replays the stored plan with fresh parameters, and a
  miss plans cold and populates the cache.  A plan is replayed only while
  nothing it read was stamped by a write since it was planned, whoever
  wrote (:mod:`repro.server.plancache`).

Sessions can be used directly (the benchmark does) or through the
asyncio server in :mod:`repro.server.server`.
"""

from __future__ import annotations

import dataclasses
import itertools
import threading
from contextlib import contextmanager
from datetime import datetime, timezone
from time import perf_counter
from typing import Any, Optional, Sequence

from repro.api import _fingerprint
from repro.errors import SqlError
from repro.result import Result
from repro.server.plancache import ParsedText, PlanCache
from repro.sql import ast
from repro.sql.printer import to_sql
from repro.telemetry import current_session, current_traceparent

__all__ = ["Session", "SessionManager"]


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


class Session:
    """One client's execution context.

    Not thread-safe for concurrent *statements* — the server runs each
    connection's operations in order — but :meth:`cancel` and the system
    table reads may be called from any thread at any time.
    """

    def __init__(self, manager: "SessionManager", session_id: str, label: str = ""):
        self.manager = manager
        self.db = manager.db
        self.id = session_id
        self.label = label
        self.created = _utc_now()
        self.closed = False
        self.statements = 0
        #: Set by cancel(); the executor checks it at operator boundaries.
        self.cancel_event = threading.Event()
        self._prepared: dict = {}
        self._prepared_seq = itertools.count(1)

    # -- statement entry points ------------------------------------------

    def execute(
        self,
        sql: str,
        params: Sequence[Any] = (),
        *,
        traceparent: Optional[str] = None,
    ) -> Result:
        """Parse and run one statement in this session.

        ``traceparent`` (a W3C Trace Context header value) scopes the
        statement to the caller's distributed trace: captured spans adopt
        its trace id and the telemetry events carry it.
        """
        start = perf_counter()  # before the parse: what the caller waits for
        with self._statement_scope(sql, traceparent):
            return self._run(sql, params, start)

    def prepare(self, sql: str) -> str:
        """Parse (and for queries, plan) ``sql``; returns a handle.

        The parse lands in the text memo and the plan in the shared cache
        keyed by its canonical text — preparing is priming both.  If the
        cache later drops either (DDL, eviction), execution transparently
        parses or replans; the handle never dangles.
        """
        start = perf_counter()
        with self._statement_scope(sql):
            parsed, _ = self._parsed(sql, start)
            if parsed.key is not None:
                with self.db.rwlock.read():
                    try:
                        self._planned(parsed)
                    except SqlError as exc:
                        # A query that cannot be planned fails here, not at
                        # execution: journal it where it happened.
                        self.db._emit(
                            parsed.statement, parsed.key, start=start,
                            error=exc, fingerprint=parsed.fingerprint,
                        )
                        raise
            handle = f"{self.id}_p{next(self._prepared_seq)}"
            self._prepared[handle] = sql
            return handle

    def execute_prepared(
        self,
        handle: str,
        params: Sequence[Any] = (),
        *,
        traceparent: Optional[str] = None,
    ) -> Result:
        """Run a prepared statement, binding ``params`` to its ``?``s."""
        start = perf_counter()
        try:
            sql = self._prepared[handle]
        except KeyError:
            raise SqlError(f"unknown prepared statement {handle!r}") from None
        with self._statement_scope(sql, traceparent):
            return self._run(sql, params, start)

    def deallocate(self, handle: str) -> None:
        self._prepared.pop(handle, None)

    def cancel(self) -> None:
        """Abort the statement currently executing in this session (if
        any) at its next operator boundary."""
        self.cancel_event.set()

    def close(self) -> None:
        self.manager.close_session(self)

    @property
    def prepared_count(self) -> int:
        return len(self._prepared)

    # -- internals --------------------------------------------------------

    @contextmanager
    def _statement_scope(self, sql: str, traceparent: Optional[str] = None):
        """Per-statement bookkeeping: liveness check, cancel-flag reset,
        and the telemetry session label and trace context (ContextVars,
        so they follow this statement across threads)."""
        if self.closed:
            raise SqlError(f"session {self.id} is closed")
        self.statements += 1
        # A cancel targets the in-flight statement; one arriving between
        # statements is deliberately dropped here.
        self.cancel_event.clear()
        token = current_session.set(self.id)
        trace_token = current_traceparent.set(traceparent or "")
        try:
            yield
        finally:
            current_traceparent.reset(trace_token)
            current_session.reset(token)

    def _watch(self):
        """The statement's watcher, made before the parse so its phases
        cover what the client waited for; telemetry is what reads them."""
        return None if self.db.telemetry is None else self.db._watch()

    def _parsed(self, sql: str, start: float):
        """``(ParsedText, watch)`` for the client text ``sql``: from the
        text memo, or parsed under a fresh watcher and memoized.  The
        watcher is None on a memo hit (nothing was parsed).  A parse error
        is emitted and raised, and not memoized."""
        cache = self.manager.plan_cache
        parsed = cache.text(sql)
        if parsed is not None:
            return parsed, None
        watch = self._watch()
        statement = self.db._parse(sql, watch, start=start)
        cached = isinstance(statement, ast.QueryStatement) and not isinstance(
            statement.query, ast.ShowStats
        )
        key = to_sql(statement) if cached else None
        return cache.remember(
            sql, ParsedText(statement, key, _fingerprint(statement))
        ), watch

    def _run(self, sql: str, params: Sequence[Any], start: float) -> Result:
        """``start`` is the entry point's clock, handed down to the emit
        step so the statement's wall time includes the lock wait.  A write
        runs alone and tells nobody: what it wrote carries its stamp."""
        parsed, watch = self._parsed(sql, start)
        if isinstance(parsed.statement, ast.QueryStatement):
            return self._run_read(parsed, sql, params, start, watch)
        with self.db.rwlock.write():
            return self.db._execute_observed(
                parsed.statement, params, sql=sql, start=start,
                fingerprint=parsed.fingerprint,
            )

    def _run_read(
        self,
        parsed: ParsedText,
        sql: str,
        params: Sequence[Any],
        start: float,
        watch,
    ) -> Result:
        db = self.db
        if watch is None:  # a memoized text: nothing was parsed
            watch = self._watch()
        statement = parsed.statement
        with db.rwlock.read():
            if parsed.key is None:
                # SHOW STATS: answered from the registry; no plan, nothing
                # to cache.
                return db._execute_observed(
                    statement, params, sql=sql, watch=watch, start=start,
                    fingerprint=parsed.fingerprint,
                )
            # The plan_cache phase: the lookup and, on a miss, the planning
            # phases under it.  _planned closes it.
            span = None if watch is None else watch.tracer.begin("plan_cache", "phase")
            return db._execute_observed(
                statement,
                params,
                sql=parsed.key,
                watch=watch,
                run=lambda watch: self._replay(parsed, params, watch, span),
                start=start,
            )

    def _replay(self, parsed: ParsedText, params, watch, span):
        """The session's plan -> run step: the plan comes from the shared
        cache.  Returns what ``Database._run_query`` returns."""
        planned = self._planned(parsed, watch, span)
        result, profile = self.db.execute_planned(
            planned, params, cancel_event=self.cancel_event, watch=watch
        )
        return result, planned, profile

    def _planned(self, parsed: ParsedText, watch=None, span=None):
        """The statement's plan from the shared cache (keyed by
        ``parsed.key``, its canonical text), planned cold and cached on a
        miss; ``span`` is the open ``plan_cache`` phase of ``watch``, closed
        here."""
        cache = self.manager.plan_cache
        telemetry = self.db.telemetry
        planned = cache.get(parsed.key)
        if span is not None:
            span.meta["cache"] = "miss" if planned is None else "hit"
        if planned is not None:
            if telemetry is not None:
                telemetry.plan_cache_hits_total.inc()
        else:
            if telemetry is not None:
                telemetry.plan_cache_misses_total.inc()
            planned = self.db.plan_query(
                parsed.statement.query, sql=parsed.key, watch=watch,
                fingerprint=parsed.fingerprint,
            )
            # A cache hit never re-runs the rewriter, so the cached copy drops
            # the cold run's reports: replaying them would double-count summary
            # hits.  Its strategy and plan shape stay, keeping the plan hash
            # stable for cached executions.
            cache.put(dataclasses.replace(planned, reports=()))
        if span is not None:
            watch.tracer.end(span)
        return planned


class SessionManager:
    """Shared session state for one Database: the session registry, the
    plan cache, and the server-side system tables."""

    def __init__(self, db, *, plan_cache_capacity: int = 128):
        self.db = db
        self._lock = threading.Lock()
        self._sessions: dict = {}
        self._session_seq = itertools.count(1)

        def on_evict(reason: str, count: int) -> None:
            if db.telemetry is not None:
                db.telemetry.plan_cache_evictions_total.inc(
                    count, reason=reason
                )

        self.plan_cache = PlanCache(plan_cache_capacity, on_evict=on_evict)
        self._install_system_tables()

    # -- session lifecycle -------------------------------------------------

    def open_session(self, label: str = "") -> Session:
        with self._lock:
            session = Session(self, f"s{next(self._session_seq)}", label)
            self._sessions[session.id] = session
        if self.db.telemetry is not None:
            self.db.telemetry.sessions_opened_total.inc()
            self.db.telemetry.ring.record(
                "session_open", session=session.id, label=label or None
            )
        return session

    def close_session(self, session: Session) -> None:
        with self._lock:
            live = self._sessions.pop(session.id, None)
        if live is None or session.closed:
            return
        session.closed = True
        session.cancel_event.set()
        session._prepared.clear()
        if self.db.telemetry is not None:
            self.db.telemetry.sessions_closed_total.inc()
            self.db.telemetry.ring.record(
                "session_close",
                session=session.id,
                statements=session.statements,
            )

    def get(self, session_id: str) -> Optional[Session]:
        with self._lock:
            return self._sessions.get(session_id)

    def sessions(self) -> list:
        with self._lock:
            return list(self._sessions.values())

    def close_all(self) -> None:
        for session in self.sessions():
            self.close_session(session)

    # -- system tables -----------------------------------------------------

    def _install_system_tables(self) -> None:
        from repro.catalog.objects import SystemTable
        from repro.catalog.schema import Column, TableSchema
        from repro.types import INTEGER, VARCHAR

        def _schema(*columns):
            return TableSchema([Column(n, t) for n, t in columns])

        def sessions_rows() -> list:
            return [
                (
                    s.id,
                    s.label or None,
                    s.created,
                    s.statements,
                    s.prepared_count,
                )
                for s in self.sessions()
            ]

        register = self.db.catalog.register_system_table
        register(
            SystemTable(
                "repro_sessions",
                _schema(
                    ("session_id", VARCHAR),
                    ("label", VARCHAR),
                    ("created", VARCHAR),
                    ("statements", INTEGER),
                    ("prepared", INTEGER),
                ),
                sessions_rows,
                comment="open server sessions",
            )
        )
        register(
            SystemTable(
                "repro_plan_cache",
                _schema(
                    ("fingerprint", VARCHAR),
                    ("query", VARCHAR),
                    ("strategy", VARCHAR),
                    ("hits", INTEGER),
                    ("relation_count", INTEGER),
                    ("relations", VARCHAR),
                ),
                self.plan_cache.rows,
                comment="cached prepared plans, least recently used first",
            )
        )
