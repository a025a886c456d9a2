"""One watcher per watched statement (:class:`Watch`), the directory of the
ones running (:class:`QueryRegistry`) and the frozen result
(:class:`QueryProfile`).

A :class:`Watch` rides on the
:class:`~repro.engine.evaluator.ExecutionContext` of one execution.  The
executor brackets every operator execution with :meth:`Watch.enter` /
``exit`` / ``abort``; the one checkpoint (``ExecutionContext.checkpoint``:
every 256 rows of a row loop, once per measure evaluation) lands in
:meth:`Watch.tick`; phase timing (parse, plan_cache, rewrite, bind, optimize,
dataflow, execute) goes through the embedded
:class:`~repro.profile.tracer.Tracer`, which holds nothing else.

There is one record per operator, its :class:`OperatorEntry`, however often
the operator runs, and whatever shows an operator reads it:
:meth:`Watch.finish` freezes every entry into a :class:`QueryProfile`'s
operator tree (``EXPLAIN ANALYZE``, the slow log, ``last_profile()``, the
exported trace's operator spans), :meth:`Watch.operator_rows` projects them,
live, as ``repro_query_progress`` rows — the two show the same operators
with the same numbers.  A plan first entered from inside an expression (a
correlated subquery, a measure's source outside the FROM) is frozen under
the ``subplans`` of the operator that ran it, never under its
``children``, which stay the operator's plan inputs.

One thread writes a watcher — the one executing the query — and any number
read it without a lock (the running-queries tables, ``/queries``, ``\\top``).
All mutations are plain attribute stores of immutable values, so under the
GIL a reader sees a value that *was* true at some point; readers materialize
``list(dict.values())``, which is atomic.

The watcher carries the per-query memory budget: materialization sites
account estimated bytes as they grow, and crossing ``memory_limit_bytes``
raises :class:`~repro.errors.ResourceExhausted` mid-loop — a catchable error
instead of an interpreter OOM.

``spans=False`` (progress tracking or a memory budget, no profile asked for)
counts and ticks but reads no clock and allocates no span: ``tracer`` is None
and :meth:`Watch.finish` freezes nothing.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import sys
import threading
import time
from datetime import datetime, timezone
from typing import Any, List, Optional

from repro.catalog.schema import RowType
from repro.errors import ResourceExhausted
from repro.profile.tracer import Span, Tracer
from repro.types import DOUBLE, INTEGER, VARCHAR

__all__ = [
    "CTX_COUNTERS",
    "OperatorEntry",
    "QueryProfile",
    "QueryRegistry",
    "Watch",
    "current_query_id",
]

#: ExecutionContext counters copied into every profile, in report order;
#: telemetry mirrors each as a ``<name>_total`` lifetime metric.
CTX_COUNTERS = (
    "rows_scanned",
    "subquery_executions",
    "subquery_cache_hits",
    "measure_evaluations",
    "measure_cache_hits",
    "hash_joins",
    "nested_loop_joins",
)

#: The query id of the listed statement executing in this context, or ""
#: outside one.  A ContextVar (not a thread-local) so it survives the
#: server's ``asyncio.to_thread`` hop, like the telemetry session label.
current_query_id: contextvars.ContextVar[str] = contextvars.ContextVar(
    "repro_current_query", default=""
)

#: Byte estimate used for a row before the first real row is sampled.
_DEFAULT_ROW_BYTES = 80

#: Rows between two ticks; mirrors the row loops' checkpoint mask
#: (``not index & 0xFF``).
TICK_ROWS = 256


def _estimate_row_bytes(row: tuple) -> int:
    """Cheap shallow byte estimate of one materialized row."""
    try:
        return sys.getsizeof(row) + sum(
            sys.getsizeof(value) for value in row
        )
    except TypeError:  # pragma: no cover - exotic cell types
        return _DEFAULT_ROW_BYTES


class OperatorEntry(RowType):
    """One plan node in one execution: what the dataflow analyzer expected
    of it (``plan.facts``' cardinality bounds) and what it did so far.

    A node re-entered per outer row — a correlated subquery plan —
    accumulates across calls; ``calls`` says how often.  ``rows_in`` is
    *measured*, not derived: when an operator finishes, its output
    cardinality is added to the enclosing operator's ``rows_in`` — but only
    if it is a direct plan input of that operator, so subqueries executed
    from inside an expression do not pollute their host's input count;
    those are the host's ``subplans``.  ``state`` walks pending -> running
    -> done.
    """

    #: The ``repro_query_progress`` columns after the leading ``query_id``.
    COLUMNS = (
        ("op_id", INTEGER),
        ("operator", VARCHAR),
        ("est_rows_min", INTEGER),
        ("est_rows_max", INTEGER),
        ("rows_out", INTEGER),
        ("calls", INTEGER),
        ("state", VARCHAR),
    )

    def __init__(self, plan: Any, op_id: int):
        #: Pinned for the watcher's lifetime: entries are keyed by
        #: ``id(plan)``, and a recycled id must never alias two operators.
        self.plan = plan
        self.inputs = plan.inputs()
        self.op_id = op_id
        self.label = plan.label()
        facts = plan.facts
        self.est_rows_min = None if facts is None else facts.row_min
        self.est_rows_max = None if facts is None else facts.row_max
        self.state = "pending"
        #: Number of times the operator was executed (re-entrant plans >1).
        self.calls = 0
        self.rows_in = 0
        self.rows_out = 0
        #: Materialized row batches produced (one per call in this
        #: operator-at-a-time engine; kept explicit so a vectorized executor
        #: reports real batch counts through the same field).
        self.batches = 0
        #: Wall time spent inside the operator, children included, and the
        #: clock at its first enter and its last exit (None until then):
        #: what the exported trace draws the operator's span between.
        self.time_ns = 0
        self.first_ns: Optional[int] = None
        self.last_ns: Optional[int] = None
        #: Entries of the plans first entered from inside this operator's
        #: expressions, in the order they first ran.
        self.subplans: list["OperatorEntry"] = []
        #: Operator-specific counters (hash_probes, groups, errors, ...).
        self.counters: dict[str, int] = {}
        #: Sampled bytes per output row; None until a row was seen.
        self.row_bytes: Optional[int] = None

    @property
    def operator(self) -> str:
        return self.label

    def count(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount


class Watch(RowType):
    """Everything observed about one statement's execution; single writer,
    lock-free readers."""

    #: The ``repro_running_queries`` columns, which are also the keys of
    #: ``as_dict`` (the JSON shape the HTTP sidecar's ``/queries`` serves).
    COLUMNS = (
        ("query_id", VARCHAR),
        ("session_id", VARCHAR),
        ("sql", VARCHAR),
        ("traceparent", VARCHAR),
        ("started", VARCHAR),
        ("elapsed_ms", DOUBLE),
        ("rows_processed", INTEGER),
        ("current_operator", VARCHAR),
        ("memory_bytes", INTEGER),
        ("memory_limit_bytes", INTEGER),
    )
    #: The ``repro_query_progress`` columns.
    OPERATOR_COLUMNS = COLUMNS[:1] + OperatorEntry.COLUMNS

    #: What a listing names the execution by; None until
    #: :meth:`QueryRegistry.start` lists it.
    query_id = session_id = sql = traceparent = started = None
    started_ns = 0

    def __init__(
        self,
        *,
        spans: bool = True,
        memory_limit_bytes: Optional[int] = None,
        clock=time.perf_counter_ns,
    ):
        self.tracer = Tracer(clock=clock) if spans else None
        self._clock = clock
        #: measure name -> {"evaluations", "cache_hits", "time_ns"}.
        self.measures: dict[str, dict[str, int]] = {}
        #: Engine-wide counters outside any one operator (window partitions,
        #: aggregate invocations, context terms by kind, ...).
        self.counters: dict[str, int] = {}
        #: The statement's root plan, once :meth:`attach` was told.
        self.plan: Any = None
        self.rows_processed = 0
        self.current_operator: Optional[str] = None
        self.memory_bytes = 0
        self.memory_limit_bytes = memory_limit_bytes
        #: id(plan node) -> OperatorEntry, insertion-ordered.
        self._operators: dict[int, OperatorEntry] = {}
        #: ``(entry, start_ns)`` of the operators entered and not yet
        #: exited, innermost last: a finished nested operator (a measure's
        #: source plan, a correlated subquery) hands ``current_operator``
        #: back to the one that is still running.
        self._running: list[tuple] = []

    # -- operators (the executing thread) ------------------------------------

    def attach(self, plan: Any) -> None:
        """Name the statement's root plan and register every operator under
        it with its estimated cardinality bounds, so estimated-vs-actual
        rows are visible from the first tick, and a failed execution still
        freezes the whole tree (operators that never ran: ``calls=0``)."""
        self.plan = plan
        self._entry(plan)

    def _entry(self, plan: Any) -> OperatorEntry:
        """``plan``'s entry; a node first seen here (a subquery's plan,
        executed from inside an expression) registers with its subtree."""
        entry = self._operators.get(id(plan))
        if entry is None:
            entry = OperatorEntry(plan, len(self._operators) + 1)
            self._operators[id(plan)] = entry
            for child in entry.inputs:
                self._entry(child)
        return entry

    def enter(self, plan: Any) -> None:
        """Called by the executor before running ``plan``; exactly one
        :meth:`exit` or :meth:`abort` follows."""
        running = self._running
        entry = self._operators.get(id(plan))
        if entry is None:
            # Not under the attached root: run from inside an expression of
            # the operator running now, whose subplan it is.
            entry = self._entry(plan)
            if running:
                running[-1][0].subplans.append(entry)
        entry.state = "running"
        self.current_operator = entry.label
        if self.tracer is None:
            running.append((entry, 0))
        else:
            now = self._clock()
            if entry.first_ns is None:
                entry.first_ns = now
            running.append((entry, now))

    def exit(self, rows: list) -> None:
        """The innermost running operator produced ``rows``: account its
        materialized output against the memory budget, then record it."""
        running = self._running
        entry, start_ns = running[-1]
        count = len(rows)
        if count:
            if entry.row_bytes is None:
                entry.row_bytes = _estimate_row_bytes(rows[0])
            self.memory_bytes += count * entry.row_bytes
            # A breach raises with the entry still on the stack: the
            # executor's abort() closes it, stamping the failure on it.
            self._check_budget(entry.label, self.memory_bytes)
        running.pop()
        entry.calls += 1
        entry.rows_out += count
        entry.batches += 1
        entry.state = "done"
        self.rows_processed += count
        if running:
            self.current_operator = running[-1][0].label
        self._feed_parent(entry.plan, count)
        if self.tracer is not None:
            self._stop(entry, start_ns)

    def abort(self) -> None:
        """The innermost running operator raised."""
        entry, start_ns = self._running.pop()
        entry.calls += 1
        entry.count("errors")
        if self.tracer is not None:
            self._stop(entry, start_ns)

    def _stop(self, entry: OperatorEntry, start_ns: int) -> None:
        now = self._clock()
        entry.time_ns += now - start_ns
        entry.last_ns = now

    def shared_hit(self, plan: Any, rows_out: int) -> None:
        """An operator asked for a shared input (a measure's source
        relation) again and was handed the rows its one execution kept."""
        self.operator_count(plan, "shared_hits")
        self._feed_parent(plan, rows_out)

    def _feed_parent(self, plan: Any, rows_out: int) -> None:
        # Only direct plan inputs feed the enclosing operator's rows_in; a
        # subquery plan executed from inside an expression does not.
        if self._running:
            parent = self._running[-1][0]
            if any(child is plan for child in parent.inputs):
                parent.rows_in += rows_out

    def operator_count(self, plan: Any, key: str, amount: int = 1) -> None:
        """Add an operator-specific counter (hash_probes, groups, ...)."""
        self._entry(plan).count(key, amount)

    # -- the checkpoint and the memory budget ----------------------------------

    def tick(self, plan: Any = None, buffered_rows: int = 0) -> None:
        """One executor checkpoint (``ExecutionContext.checkpoint``).

        Advances the rows-processed counter, pins the current operator,
        and — when a budget is set — projects the loop's growing buffer
        against it, so a runaway join dies mid-flight instead of after
        materializing its output.  ``plan`` None charges the innermost
        running operator: measure evaluation ticks from inside whichever
        operator evaluates the measure.
        """
        if plan is None:
            if not self._running:
                return
            entry = self._running[-1][0]
        else:
            entry = self._entry(plan)
        self.current_operator = entry.label
        self.rows_processed += TICK_ROWS
        if buffered_rows and self.memory_limit_bytes is not None:
            per_row = entry.row_bytes or _DEFAULT_ROW_BYTES
            self._check_budget(entry.label, self.memory_bytes + buffered_rows * per_row)

    def account_bytes(self, plan: Any, nbytes: int) -> None:
        """Explicitly account auxiliary state (hash tables, columns)."""
        self.memory_bytes += nbytes
        self._check_budget(self._entry(plan).label, self.memory_bytes)

    def _check_budget(self, label: str, observed: int) -> None:
        limit = self.memory_limit_bytes
        if limit is not None and observed > limit:
            raise ResourceExhausted(
                f"query memory budget exhausted in {label}: ~{observed} bytes "
                f"buffered, limit {limit} (query {self.query_id})"
            )

    # -- measures ------------------------------------------------------------

    def enter_measure(self, name: str) -> tuple:
        return (name, self._clock())

    def exit_measure(self, token: tuple, *, cache_hit: bool) -> None:
        name, start_ns = token
        entry = self.measures.get(name)
        if entry is None:
            entry = {"evaluations": 0, "cache_hits": 0, "time_ns": 0}
            self.measures[name] = entry
        entry["evaluations"] += 1
        if cache_hit:
            entry["cache_hits"] += 1
        entry["time_ns"] += self._clock() - start_ns

    # -- global counters -----------------------------------------------------

    def bump(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    # -- the two projections -------------------------------------------------

    @property
    def elapsed_ms(self) -> float:
        return round((time.perf_counter_ns() - self.started_ns) / 1e6, 3)

    def operator_rows(self) -> List[tuple]:
        """The ``repro_query_progress`` rows, plan-registration order; any
        thread may ask while the query runs."""
        return [
            (self.query_id,) + entry.as_row()
            for entry in list(self._operators.values())
        ]

    def finish(
        self,
        ctx=None,
        result_rows: Optional[int] = None,
        sql: Optional[str] = None,
    ) -> Optional["QueryProfile"]:
        """Close all spans and freeze every entry into a
        :class:`QueryProfile` — of a failed execution too: what was seen up
        to the failing operator.  None from a watcher that kept no spans."""
        tracer = self.tracer
        if tracer is None:
            return None
        root = tracer.finish()
        counters = dict(self.counters)
        if ctx is not None:
            for name in CTX_COUNTERS:
                counters[name] = getattr(ctx, name)
        measures = {
            name: {
                "evaluations": entry["evaluations"],
                "cache_hits": entry["cache_hits"],
                "time_ms": round(entry["time_ns"] / 1e6, 3),
            }
            for name, entry in sorted(self.measures.items())
        }
        return QueryProfile(
            sql=sql,
            root_span=root,
            operator_tree=None
            if self.plan is None
            else self._freeze(self._operators[id(self.plan)], root.start_ns),
            counters=counters,
            measures=measures,
            result_rows=result_rows,
        )

    def _freeze(self, entry: OperatorEntry, base_ns: int) -> dict:
        """``entry`` and everything under it as plain dicts; ``start_ns`` /
        ``end_ns`` (an operator that ran) are offsets from ``base_ns``, the
        statement's start."""
        node: dict[str, Any] = {
            "label": entry.label,
            "calls": entry.calls,
            "rows_in": entry.rows_in,
            "rows_out": entry.rows_out,
            "batches": entry.batches,
            "time_ms": round(entry.time_ns / 1e6, 3),
        }
        if entry.calls:
            node["start_ns"] = entry.first_ns - base_ns
            node["end_ns"] = entry.last_ns - base_ns
        if entry.counters:
            node["counters"] = {k: entry.counters[k] for k in sorted(entry.counters)}
        facts = entry.plan.facts
        if facts is not None:
            # Static dataflow annotations (repro.analysis.dataflow), frozen
            # next to the observed numbers so a profile carries both the
            # predicted bounds and what actually happened.
            from repro.analysis.dataflow import facts_summary

            node["facts"] = facts_summary(facts)
        if entry.inputs:
            operators = self._operators
            node["children"] = [
                self._freeze(operators[id(child)], base_ns) for child in entry.inputs
            ]
        if entry.subplans:
            node["subplans"] = [self._freeze(sub, base_ns) for sub in entry.subplans]
        return node


class QueryRegistry:
    """Directory of the listed in-flight executions on one Database.

    Registration and removal take a plain lock (statement granularity);
    everything read *through* the registry is a lock-free :class:`Watch`.
    ``current_query_id`` is how a query scanning the registry avoids
    observing itself: the Database sets it for the duration of a listed
    execution, and :meth:`snapshot` excludes that id.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._queries: dict[str, Watch] = {}
        self._seq = itertools.count(1)
        #: Lifetime count of listed queries, exposed on /healthz.
        self.started_total = 0

    def start(
        self, watch: Watch, sql: str = "", session_id: str = "", traceparent: str = ""
    ) -> Watch:
        """List ``watch`` under a fresh query id until :meth:`finish`."""
        # Stored the way the columns read: SQL NULL, not "", when unset.
        watch.sql = sql or None
        watch.session_id = session_id or None
        watch.traceparent = traceparent or None
        watch.started = datetime.now(timezone.utc).isoformat(timespec="seconds")
        watch.started_ns = time.perf_counter_ns()
        with self._lock:
            watch.query_id = f"q{next(self._seq)}"
            self._queries[watch.query_id] = watch
            self.started_total += 1
        return watch

    def finish(self, watch: Watch) -> None:
        with self._lock:
            self._queries.pop(watch.query_id, None)

    def snapshot(self, exclude: str = "") -> List[Watch]:
        """The currently running queries, oldest first.

        ``exclude`` drops one query id — the caller's own, so a query
        over ``repro_running_queries`` never observes itself.
        """
        with self._lock:
            watches = list(self._queries.values())
        return [w for w in watches if w.query_id != exclude]

    def __len__(self) -> int:
        with self._lock:
            return len(self._queries)


class QueryProfile:
    """Frozen, serializable profile of one query execution."""

    __slots__ = (
        "sql",
        "root_span",
        "operator_tree",
        "counters",
        "measures",
        "result_rows",
    )

    #: Bumped whenever the serialized layout changes incompatibly.
    SCHEMA_VERSION = 2

    def __init__(
        self,
        *,
        sql: Optional[str],
        root_span: Span,
        operator_tree: Optional[dict],
        counters: dict[str, int],
        measures: dict[str, dict],
        result_rows: Optional[int],
    ):
        self.sql = sql
        self.root_span = root_span
        self.operator_tree = operator_tree
        self.counters = counters
        self.measures = measures
        self.result_rows = result_rows

    @property
    def total_ms(self) -> float:
        return self.root_span.duration_ms

    def phase_ms(self, name: str) -> Optional[float]:
        """Duration of a named phase span (parse, bind, ...) or None."""
        span = self.root_span.find(name)
        return None if span is None else span.duration_ms

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        """Stable dict layout; what :meth:`to_json` and the bench
        snapshots persist."""
        return {
            "schema_version": self.SCHEMA_VERSION,
            "sql": self.sql,
            "total_ms": round(self.total_ms, 3),
            "result_rows": self.result_rows,
            "phases": self.root_span.to_dict(),
            "plan": self.operator_tree,
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "measures": self.measures,
        }

    def to_json(self, *, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    # -- rendering -----------------------------------------------------------

    def plan_lines(self, *, timing: bool = True) -> list[str]:
        """The annotated operator tree, one line per operator; a host's
        subplans follow its children, each under a ``SubPlan`` line (its
        ``calls`` are PostgreSQL's loops)."""
        if self.operator_tree is None:
            return []
        return self._render_node(self.operator_tree, 0, timing)

    def _render_node(self, node: dict, indent: int, timing: bool) -> list[str]:
        parts = [f"rows={node['rows_out']}", f"calls={node['calls']}"]
        if node["rows_in"]:
            parts.append(f"rows_in={node['rows_in']}")
        if timing:
            parts.append(f"time={node['time_ms']:.3f}ms")
        for key, value in sorted(node.get("counters", {}).items()):
            parts.append(f"{key}={value}")
        line = f"{'  ' * indent}{node['label']} ({' '.join(parts)})"
        lines = [line]
        for child in node.get("children", ()):
            lines.extend(self._render_node(child, indent + 1, timing))
        for sub in node.get("subplans", ()):
            lines.append(f"{'  ' * (indent + 1)}SubPlan")
            lines.extend(self._render_node(sub, indent + 2, timing))
        return lines

    def summary_lines(self, *, timing: bool = True) -> list[str]:
        """Phase and counter footer lines (EXPLAIN ANALYZE's tail)."""
        lines = []
        phases = [
            child for child in self.root_span.children if child.kind == "phase"
        ]
        if phases and timing:
            rendered = " ".join(
                f"{span.name}={span.duration_ms:.3f}ms" for span in phases
            )
            lines.append(f"phases: {rendered} total={self.total_ms:.3f}ms")
        elif phases:
            lines.append("phases: " + " ".join(span.name for span in phases))
        if self.counters:
            rendered = " ".join(
                f"{key}={self.counters[key]}" for key in sorted(self.counters)
            )
            lines.append(f"counters: {rendered}")
        for name, entry in self.measures.items():
            lines.append(
                f"measure {name}: evaluations={entry['evaluations']} "
                f"cache_hits={entry['cache_hits']}"
                + (f" time={entry['time_ms']:.3f}ms" if timing else "")
            )
        return lines

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"QueryProfile(rows={self.result_rows}, total={self.total_ms:.3f}ms,"
            f" operators={len(self.plan_lines())})"
        )
