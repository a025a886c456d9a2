"""Public API: the :class:`Database`.

>>> from repro import Database
>>> db = Database()
>>> db.execute("CREATE TABLE t (x INTEGER)")           # doctest: +ELLIPSIS
Result(...)
>>> db.execute("INSERT INTO t VALUES (1), (2)").rowcount
2
>>> db.execute("SELECT SUM(x) FROM t").scalar()
3

Measures work end to end::

    db.execute('''CREATE VIEW eo AS
                  SELECT orderDate, prodName,
                         (SUM(revenue) - SUM(cost)) / SUM(revenue)
                           AS MEASURE profitMargin
                  FROM Orders''')
    db.execute("SELECT prodName, AGGREGATE(profitMargin) FROM eo GROUP BY prodName")

``Database.expand`` returns the measure-free SQL a query rewrites to (the
paper's Listing 5), and ``EXPLAIN EXPAND <query>`` does the same inside SQL.
"""

from __future__ import annotations

import dataclasses
import json
from time import perf_counter
from typing import Any, Iterable, Optional, Sequence

from repro.catalog import (
    BaseTable,
    Catalog,
    MaterializedView,
    SystemTable,
    TableSchema,
    View,
)
from repro.catalog.schema import Column
from repro.engine.compile import compile_expr, row_list
from repro.engine.evaluator import ExecutionContext
from repro.engine.executor import execute_plan
from repro.errors import CatalogError, SqlError
from repro.introspect import (
    fingerprint_statement,
    install_system_tables,
    is_introspection_plan,
    plan_hash,
    plan_shape,
)
from repro.matview import analyze_definition, maintenance, match, summary_candidates
from repro.matview.definition import table_schema
from repro.plan.optimizer import optimize
from repro.profile.watch import QueryRegistry, Watch, current_query_id
from repro.result import Result, ResultColumn
from repro.semantics.binder import Binder
from repro.sql import ast, parse_statement, parse_statements
from repro.sql.printer import to_sql
from repro.storage.locks import RWLock
from repro.storage.table import MemoryTable, clock
from repro.types import parse_type_name

__all__ = ["Database", "PlannedQuery"]


@dataclasses.dataclass(frozen=True)
class PlannedQuery:
    """A query planned once for repeated execution.

    Produced by :meth:`Database.plan_query` and replayed by
    :meth:`Database.execute_planned`; the query server's plan cache stores
    these.  ``reads`` (every table it read or rejected, a summary's sources
    included) and ``as_of`` (the write clock when it was planned) are what
    :meth:`invalidated` checks; ``strategy``/``plan_shape`` reproduce the
    plan hash the flip detector watches, so cached replays never look like
    plan changes.  The fields after ``catalog`` are what a *cached* plan
    needs; :meth:`Database.plan_query` fills them.
    """

    query: ast.Query
    plan: Any
    columns: tuple
    strategy: str
    reports: tuple
    reads: tuple
    as_of: int
    catalog: Catalog
    sql: Optional[str] = None
    plan_shape: Optional[str] = None
    fingerprint: Optional[str] = None
    normalized: Optional[str] = None

    def invalidated(self) -> Optional[str]:
        """Why this plan must not be replayed: ``"ddl"`` when the catalog
        was stamped after it was planned, ``"dml"`` when something it read
        or rejected was; None while it is valid."""
        if self.catalog.stamp > self.as_of:
            return "ddl"
        if any(table.stamp > self.as_of for table in self.reads):
            return "dml"
        return None


def _text_result(column: str, lines: list) -> Result:
    """A one-VARCHAR-column result, one row per line (EXPLAIN output)."""
    from repro.types import VARCHAR

    return Result(
        columns=[ResultColumn(column, VARCHAR)],
        rows=[(line,) for line in lines],
        rowcount=len(lines),
    )


def _printed(node: ast.Node) -> Optional[str]:
    """Canonical SQL of ``node``, or None for one the printer cannot
    canonicalize (it still executes and is metered)."""
    try:
        return to_sql(node)
    except Exception:
        return None


def _fingerprint(statement: ast.Statement) -> tuple:
    """``(fingerprint, normalized_sql)``, or ``(None, None)`` for a
    statement the printer cannot canonicalize: it just has no
    stat_statements row."""
    try:
        return fingerprint_statement(statement)
    except Exception:
        return None, None


class Database:
    """An in-memory SQL database with measure support.

    Parameters
    ----------
    cache:
        Enable memoization of measure evaluations and correlated subqueries
        (the paper's "localized self-join" strategy).  On by default; the
        F02 benchmark turns it off to expose the naive quadratic behaviour.
    optimizer:
        Enable the logical-plan optimizer (A02 ablation).
    summaries:
        Enable answering queries from materialized summary tables (the
        :mod:`repro.matview` match).  Off, summaries can still be
        created and refreshed but are never consulted.
    validate:
        Run the :mod:`repro.analysis` plan/IR validator on every bound plan
        and after every optimizer pass.  Defaults to the ``REPRO_VALIDATE``
        environment flag; cheap enough for test suites, off for benchmarks.
    profile:
        Profile every query: phase timings (parse/rewrite/bind/optimize/
        dataflow/execute), per-operator row counts and wall time, and
        measure-cache behaviour.  The resulting :class:`~repro.profile.QueryProfile` is
        available from :meth:`last_profile`.  Off by default — when off, the
        executor pays a single ``is None`` check per operator and no timers
        run.  ``EXPLAIN ANALYZE`` profiles a single query regardless of
        this flag.
    telemetry:
        Database-lifetime observability (:mod:`repro.telemetry`): cumulative
        metrics (:meth:`metrics`, :meth:`metrics_text`, ``SHOW STATS``), a
        structured event log (:meth:`events`), and a trace export
        (:meth:`export_traces`).  Pass True for defaults or a pre-built
        :class:`~repro.telemetry.Telemetry` to configure an event sink.
        Off by default; when off, the query path pays one ``is None`` check.
    slow_query_ms:
        Capture SQL, duration, and the full QueryProfile of every statement
        at or over this wall-time threshold (:meth:`slow_queries`).  Setting
        it implies ``telemetry=True``.
    memory_limit_bytes:
        Per-query memory budget.  The executor accounts estimated bytes of
        materialized state (operator outputs, hash-join build tables,
        aggregation buffers) as it runs and raises
        :class:`~repro.errors.ResourceExhausted` — a graceful, catchable
        error naming the operator — instead of letting a runaway join OOM
        the host.  Setting a limit implies progress tracking.
    track_progress:
        List every running query (rows processed, current operator, bytes
        buffered, estimated-vs-actual rows per operator — its
        :class:`~repro.profile.Watch`), visible while the query runs
        through the ``repro_running_queries`` / ``repro_query_progress``
        system tables, :meth:`running_queries`, and the server's
        ``/queries`` endpoint.  Default None means "on iff telemetry is
        on"; pass False to force it off (the zero-overhead configuration)
        or True to track without telemetry.
    record_to:
        Attach the workload flight recorder (:mod:`repro.history`): every
        executed statement, one that fails to parse included — SQL, bind
        params, session, traceparent, fingerprint, strategy, outcome, wall
        time, rows — is appended to a JSON-lines journal at this path (or to a
        pre-built :class:`~repro.history.JournalWriter`).  Replay it with
        ``python -m repro.history replay <journal> --diff``.
    """

    def __init__(
        self,
        *,
        cache: bool = True,
        optimizer: bool = True,
        summaries: bool = True,
        validate: Optional[bool] = None,
        profile: bool = False,
        telemetry=False,
        slow_query_ms: Optional[float] = None,
        memory_limit_bytes: Optional[int] = None,
        track_progress: Optional[bool] = None,
        record_to=None,
    ):
        from repro.analysis.validator import validation_enabled

        self.catalog = Catalog()
        self.cache_enabled = cache
        self.optimizer_enabled = optimizer
        self.summaries_enabled = summaries
        self.validate_enabled = (
            validation_enabled() if validate is None else validate
        )
        self.profile_enabled = profile
        if telemetry is False and slow_query_ms is None:
            #: The Telemetry facade, or None when telemetry is off.
            self.telemetry = None
        elif telemetry is False or telemetry is True:
            from repro.telemetry import Telemetry

            self.telemetry = Telemetry(slow_query_ms=slow_query_ms)
        else:  # a caller-configured Telemetry instance
            self.telemetry = telemetry
            if slow_query_ms is not None:
                raise ValueError(
                    "pass slow_query_ms to the Telemetry instance, not both"
                )
        #: Single-writer/many-reader lock over the catalog and all table
        #: data.  Direct Database calls do not take it (single-threaded use
        #: stays zero-cost); the session layer (repro.server) wraps every
        #: statement in rwlock.read() or rwlock.write(), which is what
        #: makes concurrent sessions safe.
        self.rwlock = RWLock()
        #: Statistics of the most recent query execution.
        self.last_stats: Optional[ExecutionContext] = None
        #: QueryProfile of the most recent profiled query (see last_profile).
        self._last_profile = None
        #: Per-query memory budget in bytes; None = unlimited.  Mutable:
        #: the shell's \connect-ed admin can tighten it at runtime.
        self.memory_limit_bytes = memory_limit_bytes
        #: None = auto (track iff telemetry is on); see __init__ docs.
        self._track_progress = track_progress
        #: Directory of in-flight tracked queries; backs the
        #: repro_running_queries / repro_query_progress system tables and
        #: the server's /queries endpoint.  Always present (cheap), only
        #: populated when tracking is enabled.
        self.running = QueryRegistry()
        #: The workload flight recorder, or None when recording is off.
        self.recorder = None
        if record_to is not None:
            from repro.history import JournalWriter

            self.recorder = (
                record_to
                if isinstance(record_to, JournalWriter)
                else JournalWriter(record_to)
            )
        # The repro_* system tables always exist — with telemetry off they
        # bind and scan normally and simply return no rows.
        install_system_tables(self)

    # -- statement execution ----------------------------------------------
    #
    # One pipeline, four steps, each written once (DESIGN.md, "Statement
    # pipeline"): parse (_parse) -> plan (_plan) -> run (_run) -> emit
    # (_emit).  _execute_observed strings them together for every entry
    # point that telemetry, a profile or the recorder watches.

    def execute(self, sql: str, params: Sequence[Any] = ()) -> Result:
        """Parse and execute a single SQL statement.

        ``params`` supplies values for positional ``?`` placeholders, in
        order (DB-API style).
        """
        profiled = self.telemetry is not None or self.profile_enabled
        if not profiled and self.recorder is None:
            # The plain early exit: nothing watches, so no clock, record,
            # fingerprint or printed SQL is built.
            return self._execute_statement(parse_statement(sql), params)
        # The statement's one clock starts before the parse: wall_ms is
        # what the caller waited for.
        start = perf_counter()
        # The watcher carries the parse span into the query pipeline so the
        # finished profile covers the whole statement.
        watch = self._watch() if profiled else None
        statement = self._parse(sql, watch, start=start)
        return self._execute_observed(
            statement, params, sql=sql, watch=watch, start=start
        )

    def execute_script(self, sql: str) -> list[Result]:
        """Execute a semicolon-separated script; returns one Result each.

        The script is parsed once for all its statements, so each
        statement's ``wall_ms`` starts after the parse and covers its own
        plan and run only."""
        statements = self._parse(sql, parser=parse_statements)
        return [self._execute_observed(s) for s in statements]

    def _watch(self, *, spans: bool = True) -> Watch:
        """One statement's watcher.  ``spans=False`` is the one built for
        progress tracking or a memory budget alone: no profile was asked
        for, so it reads no clock."""
        return Watch(spans=spans, memory_limit_bytes=self.memory_limit_bytes)

    def _parse(
        self, sql: str, watch=None, *, parser=parse_statement, start=None
    ):
        """The **parse** step.  A failure is emitted like any other failed
        statement: it is part of the workload, and replaying the journal
        must reproduce it as an error, not skip it."""
        try:
            if watch is None:
                return parser(sql)
            with watch.tracer.span("parse"):
                return parser(sql)
        except SqlError as exc:
            self._emit(None, sql, start=start, error=exc)
            raise

    def _execute_observed(
        self,
        statement: ast.Statement,
        params: Sequence[Any] = (),
        *,
        sql: Optional[str] = None,
        watch=None,
        run=None,
        strategy: Optional[str] = None,
        start: Optional[float] = None,
        fingerprint: Optional[tuple] = None,
    ) -> Result:
        """Run one parsed statement and emit its outcome.

        ``run(watch)`` replaces the default plan -> run step (the
        session's plan cache, a strategy experiment); like
        :meth:`_run_query` it returns ``(Result, PlannedQuery | None,
        QueryProfile | None)``.  Telemetry needs a span tree and counters
        for every query, so queries run under a span-keeping watcher
        whenever it is on, even with ``profile=False``; other statements
        are wall timed.  ``start`` is the caller's clock when it began
        before the parse; without one the statement's wall time starts here.
        ``fingerprint`` is handed to :meth:`_emit`.
        """
        is_query = isinstance(statement, ast.QueryStatement)
        if watch is None and is_query and self.telemetry is not None:
            watch = self._watch()
        if start is None:
            start = perf_counter()
        try:
            if run is not None:
                outcome = run(watch)
            elif is_query:
                outcome = self._run_query(statement.query, params, watch)
            else:
                outcome = self._execute_statement(statement, params), None, None
        except SqlError as exc:
            # A query that failed mid-flight (a memory budget fired, say)
            # keeps what was seen up to the failing operator.
            partial = None if watch is None else watch.finish(sql=sql)
            self._emit(
                statement, sql, params, start=start, strategy=strategy,
                outcome=(None, None, partial), error=exc,
                fingerprint=fingerprint,
            )
            raise
        self._emit(
            statement, sql, params, start=start, strategy=strategy,
            outcome=outcome, fingerprint=fingerprint,
        )
        return outcome[0]

    def _emit(
        self,
        statement: Optional[ast.Statement],
        sql: Optional[str],
        params: Sequence[Any] = (),
        *,
        start: Optional[float] = None,
        strategy: Optional[str] = None,
        outcome=None,
        error: Optional[SqlError] = None,
        fingerprint: Optional[tuple] = None,
    ) -> None:
        """The **emit** step: build the one
        :class:`~repro.telemetry.record.StatementRecord` of a finished
        statement and hand it to telemetry and the flight recorder — the
        only place a record is built and the only place either is told
        about a statement.

        ``statement`` is None when parsing failed; ``sql`` None means "print
        the statement".  ``outcome`` is the ``(result, planned, profile)``
        of a success (of a failure: only the partial profile, if it was
        watched).  ``strategy`` names a forced expansion strategy;
        otherwise a query reports what its plan decided (``summary`` or
        ``interpreter``) and a failed or plan-less statement reports none.
        ``fingerprint`` is the statement's ``(fingerprint, normalized_sql)``
        when the caller already has it (a session's memoized text); a
        planned query's own wins, and otherwise the statement is
        fingerprinted here.  ``telemetry`` and ``recorder`` are read here,
        per statement: the shell toggles both at run time.
        """
        telemetry, recorder = self.telemetry, self.recorder
        if telemetry is None and recorder is None:
            return
        from repro.telemetry import StatementRecord, statement_kind

        wall_ms = 0.0 if start is None else (perf_counter() - start) * 1000.0
        result, planned, profile = outcome or (None, None, None)
        kind = normalized = None
        if statement is not None:
            kind = statement_kind(statement)
            if sql is None:
                sql = _printed(statement)
            if planned is not None and planned.fingerprint is not None:
                fingerprint, normalized = planned.fingerprint, planned.normalized
            else:
                fingerprint, normalized = fingerprint or _fingerprint(statement)
        if strategy is None and planned is not None:
            strategy = planned.strategy
        phash, introspection = None, False
        if planned is not None and telemetry is not None:
            # Only telemetry reads these two.  A strategy experiment
            # reports no plan (planned is None): the expanded plan's hash
            # differs per strategy by construction, and a deliberate
            # experiment is not a flip.
            plan = planned.plan
            phash = plan_hash(strategy, planned.plan_shape or plan_shape(plan))
            introspection = is_introspection_plan(plan)
        record = StatementRecord(
            sql=sql,
            kind=kind,
            params=params,
            fingerprint=fingerprint,
            query_text=normalized,
            strategy=strategy,
            plan_hash=phash,
            reports=() if planned is None else planned.reports,
            introspection=introspection,
            error=error,
            wall_ms=wall_ms,
            result=result,
            profile=profile,
        )
        if telemetry is not None:
            telemetry.observe(record)
        if recorder is not None:
            recorder.record(record)

    def query(self, sql: str) -> Result:
        """Alias of :meth:`execute` for read-only use."""
        return self.execute(sql)

    def _execute_statement(
        self, statement: ast.Statement, params: Sequence[Any] = ()
    ) -> Result:
        if isinstance(statement, ast.QueryStatement):
            return self._run_query(statement.query, params)[0]
        if isinstance(statement, ast.CreateTable):
            return self._create_table(statement)
        if isinstance(statement, ast.CreateTableAs):
            return self._create_table_as(statement)
        if isinstance(statement, ast.Truncate):
            count = self.catalog.base_table(statement.table).table.truncate()
            return Result(rowcount=count, message=f"{count} rows truncated")
        if isinstance(statement, ast.Analyze):
            return self._analyze(statement)
        if isinstance(statement, ast.CreateView):
            return self._create_view(statement)
        if isinstance(statement, ast.CreateMaterializedView):
            return self._create_materialized_view(statement)
        if isinstance(statement, ast.RefreshMaterializedView):
            return self._refresh_materialized_view(statement)
        if isinstance(statement, ast.DropObject):
            self.catalog.drop(
                statement.kind, statement.name, if_exists=statement.if_exists
            )
            return Result(message=f"{statement.kind} {statement.name} dropped")
        if isinstance(statement, ast.Insert):
            return self._insert(statement, params)
        if isinstance(statement, ast.Update):
            return self._update(statement, params)
        if isinstance(statement, ast.Delete):
            return self._delete(statement, params)
        if isinstance(statement, ast.ExplainPlan):
            return self._explain(statement)
        if isinstance(statement, ast.ExplainExpand):
            return _text_result(
                "expanded_sql", [self.expand_query(statement.query)]
            )
        raise SqlError(f"cannot execute {type(statement).__name__}")

    def _analyze(self, statement: ast.Analyze) -> Result:
        """``ANALYZE [table]``: gather per-column statistics into the catalog.

        With no table, every base table (materialized views included) is
        analyzed.  The stored statistics back ``repro_table_stats`` /
        ``repro_column_stats`` and record the table's ``changed`` count, which
        ``mods_since_analyze`` is measured from.
        Returns one row per analyzed table.
        """
        from repro.catalog.stats import analyze_table
        from repro.types import INTEGER, VARCHAR

        if statement.table is not None:
            obj = self.catalog.resolve(statement.table)
            if not isinstance(obj, BaseTable):
                raise CatalogError(
                    f"{statement.table!r} is a {obj.kind.lower()}; ANALYZE "
                    f"targets tables"
                )
            targets = [obj]
        else:
            targets = sorted(
                (o for o in self.catalog if isinstance(o, BaseTable)),
                key=lambda o: o.name.lower(),
            )
        rows = []
        for table in targets:
            stats = analyze_table(table.name, table.schema, table.table.rows)
            self.catalog.store_table_stats(stats)
            rows.append((table.name, stats.row_count, len(stats.columns)))
        return Result(
            columns=[
                ResultColumn("table_name", VARCHAR),
                ResultColumn("row_count", INTEGER),
                ResultColumn("columns_analyzed", INTEGER),
            ],
            rows=rows,
            rowcount=len(rows),
        )

    def _run_query(
        self,
        query: ast.Query,
        params: Sequence[Any] = (),
        watch=None,
    ):
        """Plan and run one query for the direct API:
        ``(Result, PlannedQuery | None, QueryProfile | None)``.

        Unlike :meth:`execute_planned` this owns the Database-wide slots —
        ``last_stats``, ``last_profile()`` and the per-view summary latency
        — so it is for single-threaded (or write-locked) callers only.
        """
        if isinstance(query, ast.ShowStats):
            # Answered from the telemetry registry, not the planner; the
            # binder rejects nested uses (lint rule RP112).
            return self._show_stats(), None, None
        if watch is None and (self.profile_enabled or self.progress_enabled()):
            watch = self._watch(spans=self.profile_enabled)
        start = perf_counter()
        # Dataflow facts ride on the plan nodes, where the watcher's entries
        # read them as estimated rows next to the actuals; nobody else does.
        planned = self._plan(query, watch, facts=watch is not None)
        result, profile, self.last_stats = self._run(planned, params, watch, None)
        if planned.reports:
            self._record_summary_latency(
                planned.reports, (perf_counter() - start) * 1000.0
            )
        if profile is not None:
            self._last_profile = profile
        return result, planned, profile

    def _plan(
        self, query: ast.Query, watch=None, *, facts: bool, record: bool = True
    ) -> PlannedQuery:
        """The **plan** step: summary match -> bind -> optimize/validate ->
        (``facts``) dataflow analysis.

        A query with candidate summaries is bound in the ``rewrite`` phase,
        and the match reads that bind; a hit binds its answer in ``bind``, a
        miss keeps the query's.  ``record=False`` (EXPLAIN) leaves the
        per-view hit/reject counters and their telemetry mirror untouched.
        The result carries only what planning decided; :meth:`plan_query`
        adds the printed and hashed fields a cached plan needs.
        """
        tracer = watch.tracer if watch is not None else None
        as_of, reads = clock.now, {}
        strategy, reports, bound, answer = "interpreter", (), None, query
        if self.summaries_enabled:
            span = tracer.begin("rewrite", "phase") if tracer is not None else None
            views = summary_candidates(self.catalog, query)
            if views:
                binder = Binder(self.catalog)
                bound = binder.bind_query_top(query)
                outcome = match(views, query, binder, record=record)
                # The query's bind read every candidate's sources: a
                # candidate summarizes the relation the query reads.
                reads = binder.reads
                reads.update((view.name.lower(), view) for view in views)
                if outcome.used is not None:
                    strategy, bound, answer = "summary", None, outcome.query
                    if span is not None:
                        span.meta["summary"] = outcome.used.name
                if record and self.telemetry is not None:
                    # Mirrors what match(record=True) just added to the
                    # per-view SummaryStats, keeping the lifetime hit/miss
                    # counters consistent with summary_stats().
                    self.telemetry.record_rewrite(outcome)
                reports = tuple(outcome.reports)
            if span is not None:
                tracer.end(span)
        span = tracer.begin("bind", "phase") if tracer is not None else None
        if bound is None:
            binder = Binder(self.catalog)
            bound = binder.bind_query_top(answer)
            reads.update(binder.reads)
        plan, columns = bound
        if tracer is not None:
            tracer.end(span)
        optimizing = tracer is not None and self.optimizer_enabled
        span = tracer.begin("optimize", "phase") if optimizing else None
        plan = self._optimize(plan)
        if span is not None:
            tracer.end(span)
        if facts:
            from repro.analysis.dataflow import analyze_plan

            span = tracer.begin("dataflow", "phase") if tracer is not None else None
            analyze_plan(plan, self.catalog)
            if tracer is not None:
                tracer.end(span)
        return PlannedQuery(query, plan, tuple(columns), strategy, reports,
                            tuple(reads.values()), as_of, self.catalog)

    def _optimize(self, plan):
        """A bound plan optimized (``optimize`` re-validates it and every
        pass) or, with the optimizer off, validated when asked."""
        if self.optimizer_enabled:
            return optimize(plan, validate=self.validate_enabled)
        if self.validate_enabled:
            from repro.analysis.validator import check_plan

            check_plan(plan, "binding")
        return plan

    def _run(self, planned: PlannedQuery, params, watch, cancel_event):
        """The **run** step: execute a planned query in a fresh
        :class:`ExecutionContext`; ``(Result, QueryProfile | None, ctx)``.

        Touches no Database-wide slot, so any number of sessions can run
        the same plan concurrently.  A watched execution is listed in the
        running-queries directory for its duration when
        :meth:`progress_enabled` says so.
        """
        sql = planned.sql
        listed = False
        if watch is not None:
            if sql is None:
                sql = _printed(planned.query)
            watch.attach(planned.plan)
            listed = self.progress_enabled()
        if listed:
            from repro.telemetry import current_session, current_traceparent

            self.running.start(
                watch, sql, current_session.get(), current_traceparent.get()
            )
            # How a query over the running-queries tables avoids observing
            # itself in the registry snapshot.
            token = current_query_id.set(watch.query_id)
        ctx = ExecutionContext(
            self.catalog,
            enable_cache=self.cache_enabled,
            params=params,
            watch=watch,
            cancel_event=cancel_event,
        )
        tracer = watch.tracer if watch is not None else None
        span = tracer.begin("execute", "phase") if tracer is not None else None
        try:
            rows = row_list(execute_plan(planned.plan, ctx))
        finally:
            if listed:
                current_query_id.reset(token)
                self.running.finish(watch)
        if tracer is not None:
            tracer.end(span)
        profile = None if watch is None else watch.finish(ctx, len(rows), sql=sql)
        result = Result(
            columns=[ResultColumn(c.name, c.dtype) for c in planned.columns],
            rows=rows,
            rowcount=len(rows),
        )
        # What is left of the context is its counters (``last_stats``).
        ctx.release()
        return result, profile, ctx

    def _record_summary_latency(self, reports, elapsed_ms: float) -> None:
        """Attribute a query's wall time to the summary that answered it,
        or — when none did — to every candidate that could not."""
        hit = next((r for r in reports if r.status == "hit"), None)
        if hit is not None:
            self.catalog.get(hit.view).stats.hit_time_ms += elapsed_ms
            return
        for report in reports:
            view = self.catalog.get(report.view)
            if isinstance(view, MaterializedView):
                view.stats.miss_time_ms += elapsed_ms

    # -- planned execution (the query server's path) -------------------------

    def plan_query(
        self,
        query: ast.Query,
        *,
        sql: Optional[str] = None,
        watch=None,
        fingerprint: Optional[tuple] = None,
    ) -> PlannedQuery:
        """Plan ``query`` once for repeated execution, without running it.

        Runs the same rewrite -> bind -> optimize pipeline as
        :meth:`execute` but returns the finished plan instead of rows.
        Unlike the execute path, nothing is stored on the Database — the
        returned :class:`PlannedQuery` is self-contained, so concurrent
        sessions can plan and replay without racing on shared state.
        Summary-rewrite telemetry is recorded here (at plan time); cached
        replays deliberately skip the rewriter and its counters.  The
        planning phases are spans of ``watch`` when there is one.  ``sql``
        (the canonical print) and ``fingerprint`` (``(fingerprint,
        normalized_sql)``) are computed here unless the caller has them.
        """
        if isinstance(query, ast.ShowStats):
            raise SqlError("SHOW STATS has no plan; execute it directly")
        statement = ast.QueryStatement(query)
        if sql is None:
            sql = to_sql(statement)
        fingerprint, normalized = fingerprint or _fingerprint(statement)
        # Facts (types/nullability/keys/cardinality bounds) travel with the
        # cached plan; a write to a table it read invalidates them with it.
        planned = self._plan(query, watch, facts=True)
        return dataclasses.replace(
            planned,
            sql=sql,
            plan_shape=plan_shape(planned.plan),
            fingerprint=fingerprint,
            normalized=normalized,
        )

    def execute_planned(
        self,
        planned: PlannedQuery,
        params: Sequence[Any] = (),
        *,
        cancel_event=None,
        watch=None,
    ):
        """Execute a :class:`PlannedQuery`; ``(Result, QueryProfile | None)``.

        All mutable execution state lives in a fresh
        :class:`ExecutionContext`, so any number of sessions can replay the
        same plan concurrently.  Deliberately does NOT update
        ``last_stats``/``last_profile()`` (shared slots would race) and
        does not touch per-view summary latency attribution — the profile
        is returned to the caller instead.  ``cancel_event`` (a
        ``threading.Event``) aborts execution at the next operator
        boundary with :class:`~repro.errors.QueryCancelled`.
        """
        if watch is None and self.progress_enabled():
            watch = self._watch(spans=False)
        result, profile, _ = self._run(planned, params, watch, cancel_event)
        return result, profile

    # -- live progress --------------------------------------------------------

    def progress_enabled(self) -> bool:
        """Whether queries are watched and listed while they run.

        A memory budget forces tracking on (accounting rides the same
        watcher); otherwise the explicit ``track_progress`` flag wins, and
        its None default follows telemetry — a telemetry-on Database
        already watches every query, so listing it costs a registration,
        while a bare Database stays on the zero-overhead path.
        """
        if self.memory_limit_bytes is not None:
            return True
        if self._track_progress is None:
            return self.telemetry is not None
        return self._track_progress

    def running_queries(self) -> list[dict]:
        """Live progress of every in-flight tracked query, as dicts
        (the JSON shape the server's ``/queries`` endpoint serves).
        Empty when no query is running or tracking is off."""
        return [watch.as_dict() for watch in self.running.snapshot()]

    # -- DDL / DML ----------------------------------------------------------

    def _create_table(self, statement: ast.CreateTable) -> Result:
        schema = TableSchema(
            [Column(c.name, parse_type_name(c.type_name)) for c in statement.columns]
        )
        self.catalog.create_table(
            statement.name,
            schema,
            or_replace=statement.or_replace,
            if_not_exists=statement.if_not_exists,
        )
        return Result(message=f"table {statement.name} created")

    def _create_table_as(self, statement: ast.CreateTableAs) -> Result:
        result = self._run_query(statement.query)[0]
        schema = table_schema((c.name, c.dtype) for c in result.columns)
        table = self.catalog.create_table(
            statement.name, schema, or_replace=statement.or_replace
        )
        count = table.table.insert_many(result.rows)
        return Result(rowcount=count, message=f"table {statement.name} created ({count} rows)")

    def _create_view(self, statement: ast.CreateView) -> Result:
        # Bind eagerly so that invalid views are rejected at creation time.
        view = View(statement.name, statement.query, statement.column_names)
        Binder(self.catalog).bind_view(view)
        self.catalog.create_view(
            statement.name,
            statement.query,
            column_names=statement.column_names,
            or_replace=statement.or_replace,
        )
        return Result(message=f"view {statement.name} created")

    def _create_materialized_view(
        self, statement: ast.CreateMaterializedView
    ) -> Result:
        existing = self.catalog.get(statement.name)
        if existing is not None:
            # Fail before computing any rows; OR REPLACE only replaces
            # another materialized view (the catalog enforces this too).
            if not statement.or_replace:
                raise CatalogError(f"object {statement.name!r} already exists")
            if not isinstance(existing, MaterializedView):
                raise CatalogError(
                    f"{statement.name!r} is a {existing.kind.lower()}, not a "
                    f"materialized view; OR REPLACE cannot replace it"
                )
        definition = analyze_definition(self, statement.name, statement.query)
        view = MaterializedView(
            statement.name,
            MemoryTable(definition.schema),
            query=statement.query,
            definition=definition,
            catalog=self.catalog,
        )
        count = view.table.insert_many(maintenance.compute_rows(self, definition))
        view.fresh_as = clock.now
        self.catalog.add_materialized_view(
            statement.name, view, or_replace=statement.or_replace
        )
        return Result(
            rowcount=count,
            message=f"materialized view {statement.name} created ({count} rows)",
        )

    def _refresh_materialized_view(
        self, statement: ast.RefreshMaterializedView
    ) -> Result:
        obj = self.catalog.resolve(statement.name)
        if not isinstance(obj, MaterializedView):
            raise CatalogError(
                f"{statement.name!r} is a {obj.kind.lower()}, not a "
                f"materialized view"
            )
        count = maintenance.refresh(self, obj)
        return Result(
            rowcount=count,
            message=f"materialized view {statement.name} refreshed ({count} rows)",
        )

    def _insert(self, statement: ast.Insert, params: Sequence[Any] = ()) -> Result:
        table = self.catalog.base_table(statement.table)
        rows = self._run_query(statement.source, params)[0].rows
        count = maintenance.insert(self, table, rows, statement.columns)
        return Result(rowcount=count, message=f"{count} rows inserted")

    def _bind_table_predicate(self, table, where: Optional[ast.Expression]):
        """Bind an UPDATE/DELETE predicate (and a row evaluator) over a
        single base table's row."""
        from repro.semantics.binder import _DummyQueryBinder
        from repro.semantics.exprbinder import ExprBinder
        from repro.semantics.scope import RelColumn, Relation, Scope

        query_binder = _DummyQueryBinder(Binder(self.catalog))
        scope = Scope()
        columns = [
            RelColumn(c.name, c.dtype, i)
            for i, c in enumerate(table.schema.columns)
        ]
        scope.add_relation(Relation(table.name, columns, 0, len(columns)))
        expr_binder = ExprBinder(query_binder, scope, clause="WHERE")
        bound_where = expr_binder.bind(where) if where is not None else None
        return expr_binder, bound_where

    def _matching_indexes(self, table, bound_where, params=()) -> list[int]:
        if bound_where is None:
            return list(range(len(table.table.rows)))
        ctx = ExecutionContext(
            self.catalog, enable_cache=self.cache_enabled, params=params
        )
        matches = compile_expr(bound_where)
        return [
            index
            for index, row in enumerate(table.table.rows)
            if matches(row, None, ctx) is True
        ]

    def _update(self, statement: ast.Update, params: Sequence[Any] = ()) -> Result:
        table = self.catalog.base_table(statement.table)
        expr_binder, bound_where = self._bind_table_predicate(
            table, statement.where
        )
        targets = []
        for assignment in statement.assignments:
            index = table.schema.index_of(assignment.column)
            targets.append((index, compile_expr(expr_binder.bind(assignment.value))))
        ctx = ExecutionContext(
            self.catalog, enable_cache=self.cache_enabled, params=params
        )
        rows = table.table.rows
        positions = self._matching_indexes(table, bound_where, params)
        updated = []
        for position in positions:
            row = list(rows[position])
            for column_index, value_of in targets:
                row[column_index] = value_of(rows[position], None, ctx)
            updated.append(row)
        count = table.table.update(positions, updated)
        return Result(rowcount=count, message=f"{count} rows updated")

    def _delete(self, statement: ast.Delete, params: Sequence[Any] = ()) -> Result:
        table = self.catalog.base_table(statement.table)
        _, bound_where = self._bind_table_predicate(table, statement.where)
        count = table.table.delete(self._matching_indexes(table, bound_where, params))
        return Result(rowcount=count, message=f"{count} rows deleted")

    def _explain(self, statement: ast.ExplainPlan) -> Result:
        from repro.plan.logical import plan_tree_string

        if statement.query is None:
            # EXPLAIN over DDL/DML parses (lint rule RP111 flags it) but has
            # no plan to show: this engine only plans queries.
            target = type(statement.target).__name__
            raise SqlError(
                f"EXPLAIN cannot explain a {target} statement; "
                "only queries have plans (lint rule RP111)"
            )
        if isinstance(statement.query, ast.ShowStats):
            raise SqlError(
                "EXPLAIN cannot explain SHOW STATS; it is answered from "
                "the telemetry registry and has no plan"
            )
        query = statement.query
        lint_lines: list[str] = []
        if statement.lint:
            from repro.analysis.linter import lint_query

            lint_lines = [
                f"lint: {diag.render()}"
                for diag in lint_query(self.catalog, query)
            ] or ["lint: clean"]
        if statement.analyze:
            return self._explain_analyze(statement, lint_lines)
        # record=False: EXPLAIN reports the summary decision without
        # inflating the per-view hit/reject counters.
        planned = self._plan(query, facts=False, record=False)
        plan = planned.plan
        summary_lines = [f"summary: {r.describe()}" for r in planned.reports]
        if statement.types:
            from repro.analysis.dataflow import explain_types_lines

            plan_lines = explain_types_lines(plan, self.catalog)
        else:
            plan_lines = plan_tree_string(plan).splitlines()
        return _text_result("plan", lint_lines + summary_lines + plan_lines)

    def _explain_analyze(
        self, statement: ast.ExplainPlan, lint_lines: list[str]
    ) -> Result:
        """``EXPLAIN ANALYZE``: execute the query under a fresh watcher and
        render the operator tree annotated with observed rows and timing.

        Like PostgreSQL, the query genuinely runs (summary hit counters and
        DML-visible side effects of the execution happen); the result rows
        are discarded and the annotated plan is returned instead.
        """
        _, planned, profile = self._run_query(statement.query, watch=self._watch())
        types_lines: list[str] = []
        if statement.types:
            # (ANALYZE, TYPES): the observed tree first, then the same plan
            # with the statically inferred facts, so predicted bounds can be
            # read next to what actually happened.
            from repro.analysis.dataflow import explain_types_lines

            types_lines = ["types:"] + explain_types_lines(
                planned.plan, self.catalog
            )
        return _text_result(
            "plan",
            lint_lines
            + profile.plan_lines()
            + types_lines
            + profile.summary_lines(),
        )

    def last_profile(self):
        """The :class:`~repro.profile.QueryProfile` of the most recent
        profiled query, or None.

        Populated whenever the database was constructed with
        ``profile=True`` or ``telemetry=True`` (queries are watched
        either way) or an ``EXPLAIN ANALYZE`` statement ran.
        """
        return self._last_profile

    # -- telemetry -----------------------------------------------------------

    def _show_stats(self) -> Result:
        """``SHOW STATS``: one row per telemetry metric sample.

        Histograms contribute ``_bucket``/``_sum``/``_count`` rows.  With
        telemetry off the result is empty (same columns, zero rows).
        """
        from repro.types import DOUBLE, VARCHAR

        columns = [
            ResultColumn("metric", VARCHAR),
            ResultColumn("labels", VARCHAR),
            ResultColumn("value", DOUBLE),
        ]
        rows = [] if self.telemetry is None else self.telemetry.registry.rows()
        return Result(columns=columns, rows=rows, rowcount=len(rows))

    def metrics(self) -> dict:
        """A plain-dict snapshot of every telemetry metric.

        Maps metric name to ``{"kind", "help", "labels", "series"}``;
        empty when telemetry is off.  See docs/OBSERVABILITY.md for the
        full catalog.
        """
        return {} if self.telemetry is None else self.telemetry.snapshot()

    def metrics_text(self) -> str:
        """The metrics in the Prometheus text exposition format (the body
        a ``/metrics`` scrape endpoint would serve).  Empty when off."""
        return "" if self.telemetry is None else self.telemetry.metrics_text()

    def events(self, n: Optional[int] = None) -> list:
        """The most recent ``n`` structured telemetry events (all by
        default), oldest first, as plain dicts."""
        return [] if self.telemetry is None else self.telemetry.events(n)

    def slow_queries(self) -> list:
        """Slow-query log entries (``Database(slow_query_ms=...)``),
        oldest first; each carries sql, duration_ms, and the profile."""
        return [] if self.telemetry is None else self.telemetry.slow_queries()

    def stat_statements(self) -> list:
        """Statement statistics, first-seen order.

        One dict per (statement fingerprint, strategy) — calls,
        total/mean/min/max wall ms, rows returned and errors; the same
        rows the ``repro_stat_statements`` system table exposes to SQL.
        Populated by ordinary execution (``interpreter``/``summary``) and
        by :meth:`execute_with_strategy` runs; empty when telemetry is off.
        """
        if self.telemetry is None:
            return []
        return [e.as_dict() for e in self.telemetry.statement_snapshot()[0]]

    def plan_flips(self) -> list:
        """Detected plan flips since the last :meth:`reset_stats`, oldest
        first: statements whose plan hash changed between executions (the
        ``repro_statements`` rows with an ``old_plan_hash``, as dicts).
        Empty when telemetry is off."""
        return [] if self.telemetry is None else self.telemetry.plan_flips()

    def table_stats(self) -> list:
        """Stored ``ANALYZE`` results as dicts (row count, per-column NDV
        / null fraction / min / max / histogram), plus each table's
        rows-changed-since-analyze staleness counter.  Empty until
        ``ANALYZE`` runs."""
        return [
            {
                **stats.as_dict(),
                "mods_since_analyze": self.catalog.mods_since_analyze(
                    stats.table
                ),
            }
            for stats in self.catalog.all_table_stats()
        ]

    def reset_stats(self) -> None:
        """Discard all statement statistics and the plan flips so far
        (``pg_stat_statements_reset`` style).  Cumulative metrics and the
        statement ring — events, ``repro_statements``, the slow log and
        traces — are unaffected."""
        if self.telemetry is not None:
            self.telemetry.reset_stats()

    def export_traces(self, *, indent: Optional[int] = None) -> str:
        """Serialize captured query traces to OTel-flavored JSON
        (schema ``repro-trace-v1``); an empty envelope when telemetry is
        off.  Always valid JSON (round-trips through ``json.loads``)."""
        if self.telemetry is None:
            from repro.telemetry import trace_envelope

            envelope = trace_envelope()
        else:
            envelope = self.telemetry.export_traces()
        return json.dumps(envelope, indent=indent, default=str)

    # -- static analysis ------------------------------------------------------

    def lint(self, sql: str) -> list:
        """Run the static analyzer over ``sql`` without executing it.

        Returns a list of :class:`repro.analysis.Diagnostic` objects, sorted
        by severity then source position; empty means the statement is
        clean.  Lexer/parser failures surface as a single ``RP001``
        diagnostic and a statement that does not bind as a single error
        diagnostic under the code its bind error carries (``RP002`` when it
        carries none) — lint never raises on bad SQL.
        """
        from repro.analysis.linter import lint_sql

        diagnostics = lint_sql(self.catalog, sql)
        if self.telemetry is not None:
            self.telemetry.record_lint(diagnostics)
        return diagnostics

    # -- measure expansion ----------------------------------------------------

    def expand(self, sql: str, *, strategy: str = "subquery") -> str:
        """Rewrite a query's measure references to plain SQL.

        ``strategy`` selects the rewrite (paper section 6.4): ``"subquery"``
        (the general correlated-subquery expansion of section 4.2),
        ``"inline"`` (inline the formula into a simple GROUP BY query),
        ``"window"`` (rewrite row-grain measure uses and correlated
        subqueries to window aggregates, section 5.1), or ``"auto"`` (try
        inline, then window, then fall back to subquery).

        A ``?`` that the rewrite copies into a measure's subquery is printed
        once per *use*, so the text may hold more ``?`` than the query has
        parameters; :meth:`execute_with_strategy` runs the expanded AST,
        where every copy keeps its parameter index.
        """
        statement = parse_statement(sql)
        if isinstance(statement, ast.ExplainExpand):
            query = statement.query
        elif isinstance(statement, ast.QueryStatement):
            query = statement.query
        else:
            raise SqlError("expand() requires a query")
        return self.expand_query(query, strategy=strategy)

    def expand_query(self, query: ast.Query, *, strategy: str = "subquery") -> str:
        """Like :meth:`expand`, for an already-parsed query AST."""
        return to_sql(self._expand_ast(query, strategy))

    def _expand_ast(self, query: ast.Query, strategy: str) -> ast.Query:
        from repro.core.expansion import expand_query_ast

        if self.telemetry is not None:
            # The *requested* strategy; "auto" resolves inside the cascade.
            self.telemetry.record_expansion(strategy)
        if not self.profile_enabled:
            return expand_query_ast(self, query, strategy=strategy)
        watch = self._watch()
        with watch.tracer.span("expand"):
            expanded = expand_query_ast(
                self, query, strategy=strategy, tracer=watch.tracer
            )
        self._last_profile = watch.finish(sql=to_sql(expanded))
        return expanded

    def execute_with_strategy(
        self, sql: str, params: Sequence[Any] = (), *, strategy: str
    ) -> Result:
        """Execute a query under a chosen expansion strategy.

        ``"interpreter"`` runs the query directly (the top-down measure
        interpreter).  Any expansion strategy (``"subquery"``,
        ``"inline"``, ``"window"``, ``"auto"``) first
        rewrites the query to measure-free SQL, then executes the
        rewritten form.  Timing is recorded in the statement statistics
        (``repro_stat_statements``) under the *original* statement's
        fingerprint — that is what makes one query's strategies
        comparable rows — and no plan hash is stored, so strategy
        experiments never register as plan flips.  A shape the strategy
        does not support raises
        :class:`~repro.errors.UnsupportedError`, recorded (and journaled)
        as an error like any other failure.
        """
        if strategy == "interpreter":
            return self.execute(sql, params)
        start = perf_counter()
        statement = self._parse(sql, start=start)
        if not isinstance(statement, ast.QueryStatement) or isinstance(
            statement.query, ast.ShowStats
        ):
            raise SqlError("execute_with_strategy() requires a query")

        def run(watch):
            # The expanded AST, not its text: re-parsing would renumber the
            # ``?`` a measure's subquery copied.
            expanded = self._expand_ast(statement.query, strategy)
            result, _, profile = self._run_query(expanded, params, watch)
            # The expanded plan is not the statement's plan: report none.
            return result, None, profile

        return self._execute_observed(
            statement, params, sql=sql, run=run, strategy=strategy, start=start
        )

    # -- convenience ------------------------------------------------------------

    def create_table_from_rows(
        self,
        name: str,
        columns: Sequence[tuple[str, str]],
        rows: Iterable[Sequence[Any]],
    ) -> int:
        """Create a table and bulk-load Python rows (used by workloads)."""
        schema = TableSchema(
            [Column(col, parse_type_name(type_name)) for col, type_name in columns]
        )
        table = self.catalog.create_table(name, schema, or_replace=True)
        return table.table.insert_many(rows)

    def table_names(self) -> list[str]:
        """Sorted names of every table and view in the catalog."""
        return self.catalog.names()

    def summary_stats(self) -> dict:
        """Per-materialized-view observability counters.

        Maps view name to hit/reject/stale-skip/refresh counters, cumulative
        hit/miss query latency (``hit_time_ms``/``miss_time_ms``), plus the
        current staleness flag — the numbers EXPLAIN's ``summary:`` lines
        are drawn from.
        """
        return {
            view.name: {**view.stats.as_dict(), "stale": view.stale}
            for view in self.catalog.materialized_views()
        }

    def describe(self, name: str) -> dict:
        """Structured metadata for a table or view.

        This is the information the paper's Looker Open SQL Interface
        exposes to BI tools (section 5.6): regular columns appear as
        dimensions, measure columns as measures with their dimensionality.
        Measure formulas are intentionally NOT included — the view is an
        abstraction boundary (section 3.2).
        """
        obj = self.catalog.resolve(name)
        if isinstance(obj, MaterializedView):
            visible = obj.visible_columns
            dimension_names = {d.name.lower() for d in obj.definition.dimensions}
            return {
                "name": obj.name,
                "kind": "materialized view",
                "source": obj.definition.source_name,
                "stale": obj.stale,
                "rows": len(obj.table),
                "columns": [
                    {
                        "name": c.name,
                        "type": str(c.dtype),
                        "measure": c.name.lower() not in dimension_names,
                    }
                    for c in visible
                ],
                "dimensions": [d.name for d in obj.definition.dimensions],
                "measures": [
                    {"name": m.name, "rollup": obj.definition.rollup(m)}
                    for m in obj.definition.measures
                ],
            }
        if isinstance(obj, BaseTable):
            return {
                "name": obj.name,
                "kind": "table",
                "rows": len(obj.table),
                "columns": [
                    {"name": c.name, "type": str(c.dtype), "measure": False}
                    for c in obj.schema.columns
                ],
                "measures": [],
            }
        if isinstance(obj, SystemTable):
            return {
                "name": obj.name,
                "kind": "system table",
                "comment": obj.comment,
                "columns": [
                    {"name": c.name, "type": str(c.dtype), "measure": False}
                    for c in obj.schema.columns
                ],
                "measures": [],
            }
        bound = Binder(self.catalog).bind_view(obj)
        dimension_names = [c.name for c in bound.columns if not c.is_measure]
        return {
            "name": obj.name,
            "kind": "view",
            "columns": [
                {"name": c.name, "type": str(c.dtype), "measure": c.is_measure}
                for c in bound.columns
            ],
            "measures": [
                {
                    "name": c.name,
                    "type": str(c.dtype.unwrap()),
                    "dimensions": list(dimension_names),
                }
                for c in bound.columns
                if c.is_measure
            ],
        }
