"""Live query progress: per-query state readable while the query runs.

A :class:`ProgressState` is written by exactly one thread — the one
executing the query — and read, without any lock, by any number of
observers (the ``repro_running_queries`` / ``repro_query_progress``
system tables, the HTTP sidecar's ``/queries``, the shell's ``\\top``).
All mutations are plain attribute stores of immutable values (ints,
strings), so under the GIL a reader always sees a value that *was* true
at some point; no torn reads are possible.  The executor feeds it from
the one cancellation checkpoint (``ExecutionContext.checkpoint``: every
256 rows of a row loop, once per measure evaluation), so with tracking
and cancellation off the hot loops pay one truthiness test per row and
nothing else.

The same object carries the per-query memory budget: materialization
sites (operator output buffers, hash-join build tables, aggregate key
buffers) account estimated bytes as they grow, and crossing
``memory_limit_bytes`` raises :class:`~repro.errors.ResourceExhausted`
mid-loop — a graceful, catchable error instead of an interpreter OOM.

:class:`QueryRegistry` is the Database-wide directory of in-flight
queries.  Registration takes a lock (queries start and finish rarely);
reading a registered state never does.  ``current_query_id`` is how a
query scanning the registry avoids observing itself: the Database sets
it for the duration of a tracked execution, and the registry's snapshot
excludes that id.
"""

from __future__ import annotations

import contextvars
import itertools
import sys
import threading
import time
from datetime import datetime, timezone
from typing import Any, List, Optional

from repro.catalog.schema import RowType
from repro.errors import ResourceExhausted
from repro.types import DOUBLE, INTEGER, VARCHAR

__all__ = [
    "OperatorProgress",
    "ProgressState",
    "QueryRegistry",
    "current_query_id",
]

#: The query id of the tracked statement executing in this context, or ""
#: outside one.  A ContextVar (not a thread-local) so it survives the
#: server's ``asyncio.to_thread`` hop, like the telemetry session label.
current_query_id: contextvars.ContextVar[str] = contextvars.ContextVar(
    "repro_current_query", default=""
)

#: Byte estimate used for a row before the first real row is sampled.
_DEFAULT_ROW_BYTES = 80

#: Rows between two progress ticks; mirrors the row loops' checkpoint
#: mask (``not index & 0xFF``).
TICK_ROWS = 256


def _estimate_row_bytes(row: tuple) -> int:
    """Cheap shallow byte estimate of one materialized row."""
    try:
        return sys.getsizeof(row) + sum(
            sys.getsizeof(value) for value in row
        )
    except TypeError:  # pragma: no cover - exotic cell types
        return _DEFAULT_ROW_BYTES


class OperatorProgress(RowType):
    """Live per-operator counters: estimated vs actual rows.

    ``est_rows_min`` / ``est_rows_max`` come from the dataflow analyzer's
    cardinality bounds (``plan.facts``); ``rows_out`` / ``calls`` are what
    actually happened so far.  ``state`` walks pending -> running -> done.
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

    __slots__ = (
        "op_id",
        "label",
        "est_rows_min",
        "est_rows_max",
        "rows_out",
        "calls",
        "state",
    )

    def __init__(
        self,
        op_id: int,
        label: str,
        est_rows_min: Optional[int] = None,
        est_rows_max: Optional[int] = None,
    ):
        self.op_id = op_id
        self.label = label
        self.est_rows_min = est_rows_min
        self.est_rows_max = est_rows_max
        self.rows_out = 0
        self.calls = 0
        self.state = "pending"

    @property
    def operator(self) -> str:
        return self.label


class ProgressState(RowType):
    """One running query's live counters; single writer, lock-free readers."""

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
    OPERATOR_COLUMNS = COLUMNS[:1] + OperatorProgress.COLUMNS

    __slots__ = (
        "query_id",
        "session_id",
        "sql",
        "traceparent",
        "started",
        "started_ns",
        "rows_processed",
        "current_operator",
        "memory_bytes",
        "memory_limit_bytes",
        "finished",
        "_operators",
        "_running",
        "_row_bytes",
        "_next_op",
    )

    def __init__(
        self,
        query_id: str,
        *,
        sql: str = "",
        session_id: str = "",
        traceparent: str = "",
        memory_limit_bytes: Optional[int] = None,
    ):
        self.query_id = query_id
        # Stored the way the columns read: SQL NULL, not "", when unset.
        self.session_id = session_id or None
        self.sql = sql or None
        self.traceparent = traceparent or None
        self.started = datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        )
        self.started_ns = time.perf_counter_ns()
        self.rows_processed = 0
        self.current_operator: Optional[str] = None
        self.memory_bytes = 0
        self.memory_limit_bytes = memory_limit_bytes
        self.finished = False
        #: id(plan node) -> OperatorProgress, insertion-ordered; readers
        #: materialize ``list(values())`` which is atomic under the GIL.
        self._operators: dict = {}
        #: Entries of the operators entered and not yet exited, innermost
        #: last: a finished nested operator (a measure's source plan, a
        #: correlated subquery) hands ``current_operator`` back to the one
        #: that is still running.
        self._running: list = []
        #: id(plan node) -> sampled bytes per output row.
        self._row_bytes: dict = {}
        self._next_op = itertools.count(1)

    # -- writer side (the executing thread) ------------------------------

    def attach_plan(self, plan: Any) -> None:
        """Pre-register every operator of ``plan`` with its estimated
        cardinality bounds, so estimated-vs-actual rows are visible from
        the first tick (and for operators that never run at all)."""
        for node in plan.walk():
            self._entry(node)

    def _entry(self, plan: Any) -> OperatorProgress:
        key = id(plan)
        entry = self._operators.get(key)
        if entry is None:
            facts = getattr(plan, "facts", None)
            entry = OperatorProgress(
                next(self._next_op),
                plan.label(),
                None if facts is None else facts.row_min,
                None if facts is None else facts.row_max,
            )
            self._operators[key] = entry
        return entry

    def enter_operator(self, plan: Any) -> None:
        entry = self._entry(plan)
        entry.state = "running"
        self._running.append(entry)
        self.current_operator = entry.label

    def exit_operator(self, plan: Any, rows: list) -> None:
        """Operator finished: record actual rows and account its
        materialized output buffer against the memory budget."""
        entry = self._operators[id(plan)]
        entry.calls += 1
        entry.rows_out += len(rows)
        entry.state = "done"
        running = self._running
        running.pop()
        if running:
            self.current_operator = running[-1].label
        self.rows_processed += len(rows)
        if rows:
            per_row = self._row_bytes.get(id(plan))
            if per_row is None:
                per_row = _estimate_row_bytes(rows[0])
                self._row_bytes[id(plan)] = per_row
            self.memory_bytes += len(rows) * per_row
            self._check_budget(entry.label)

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
            entry = self._running[-1]
        else:
            entry = self._entry(plan)
        self.current_operator = entry.label
        self.rows_processed += TICK_ROWS
        if self.memory_limit_bytes is not None and buffered_rows:
            per_row = self._row_bytes.get(id(plan), _DEFAULT_ROW_BYTES)
            projected = self.memory_bytes + buffered_rows * per_row
            if projected > self.memory_limit_bytes:
                self._exhausted(entry.label, projected)

    def account_bytes(self, plan: Any, nbytes: int) -> None:
        """Explicitly account auxiliary state (hash tables, sort keys)."""
        self.memory_bytes += nbytes
        self._check_budget(self._entry(plan).label)

    def _check_budget(self, label: str) -> None:
        if (
            self.memory_limit_bytes is not None
            and self.memory_bytes > self.memory_limit_bytes
        ):
            self._exhausted(label, self.memory_bytes)

    def _exhausted(self, label: str, observed: int) -> None:
        raise ResourceExhausted(
            f"query memory budget exhausted in {label}: "
            f"~{observed} bytes buffered, limit "
            f"{self.memory_limit_bytes} (query {self.query_id})"
        )

    # -- reader side (any thread) -----------------------------------------

    @property
    def elapsed_ms(self) -> float:
        return round((time.perf_counter_ns() - self.started_ns) / 1e6, 3)

    def operator_rows(self) -> List[tuple]:
        """The ``repro_query_progress`` rows, plan-registration order."""
        return [
            (self.query_id,) + entry.as_row()
            for entry in list(self._operators.values())
        ]


class QueryRegistry:
    """Directory of in-flight tracked queries on one Database.

    Registration and removal take a plain lock (statement granularity);
    everything read *through* the registry is lock-free ProgressState.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._queries: dict = {}
        self._seq = itertools.count(1)
        #: Lifetime count of tracked queries, exposed on /healthz.
        self.started_total = 0

    def start(
        self,
        *,
        sql: str = "",
        session_id: str = "",
        traceparent: str = "",
        memory_limit_bytes: Optional[int] = None,
    ) -> ProgressState:
        with self._lock:
            state = ProgressState(
                f"q{next(self._seq)}",
                sql=sql,
                session_id=session_id,
                traceparent=traceparent,
                memory_limit_bytes=memory_limit_bytes,
            )
            self._queries[state.query_id] = state
            self.started_total += 1
        return state

    def finish(self, state: ProgressState) -> None:
        state.finished = True
        with self._lock:
            self._queries.pop(state.query_id, None)

    def snapshot(self, exclude: str = "") -> List[ProgressState]:
        """The currently running queries, oldest first.

        ``exclude`` drops one query id — the caller's own, so a query
        over ``repro_running_queries`` never observes itself.
        """
        with self._lock:
            states = list(self._queries.values())
        return [s for s in states if s.query_id != exclude]

    def __len__(self) -> int:
        with self._lock:
            return len(self._queries)
