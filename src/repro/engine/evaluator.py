"""Execution state: the correlated-scope chain, the per-execution context,
and the runtime CAST.

:class:`EvalEnv` is one link of the correlated-scope chain: a row, and a link
to the enclosing query's environment.  Compiled expressions
(:mod:`repro.engine.compile`) take the current row and the enclosing
``EvalEnv`` as plain arguments; a link is only built where evaluation
actually descends into another scope (a subquery, a measure evaluation).

:class:`ExecutionContext` carries per-execution state: the catalog, the
correlated-subquery memo cache and the measure memo cache (the paper's
"localized self-join" strategy, section 5.1), plus counters that the
benchmarks read.
"""

from __future__ import annotations

import datetime
from typing import Any, Iterator, Optional, Sized

from repro.errors import ExecutionError, QueryCancelled
from repro.types import (
    BOOLEAN,
    DATE,
    DOUBLE,
    INTEGER,
    VARCHAR,
)

__all__ = ["EvalEnv", "ExecutionContext", "cast_value"]


class EvalEnv:
    """One link of the correlated-scope chain (see the module docstring)."""

    __slots__ = ("row", "parent")

    def __init__(self, row: tuple, parent: Optional["EvalEnv"] = None):
        self.row = row
        self.parent = parent

    def at_depth(self, depth: int) -> "EvalEnv":
        """The environment ``depth`` levels up (0 = this one)."""
        env = self
        for _ in range(depth):
            if env.parent is None:
                raise ExecutionError("correlated reference escapes all scopes")
            env = env.parent
        return env


class ExecutionContext:
    """Shared state for one query execution."""

    def __init__(
        self,
        catalog,
        *,
        enable_cache: bool = True,
        params=(),
        watch=None,
        cancel_event=None,
    ):
        self.catalog = catalog
        self.enable_cache = enable_cache
        self.params = tuple(params)
        #: Optional :class:`repro.profile.Watch`: per-operator entries, spans,
        #: live rows-processed / current-operator / memory accounting, fed
        #: at operator boundaries and the 256-row checkpoints.  None (the
        #: default) means every instrumentation site is a single attribute
        #: check; no timers run and no spans are allocated.
        self.watch = watch
        #: Optional :class:`threading.Event`; when set, execution raises
        #: :class:`~repro.errors.QueryCancelled` at the next operator
        #: boundary (the server's ``cancel`` op, see :mod:`repro.server`).
        self.cancel_event = cancel_event
        #: True when anything reads :meth:`checkpoint`; row loops hoist it
        #: into a local so an unwatched row pays one truthiness test.
        self.watched = cancel_event is not None or watch is not None
        self.subquery_cache: dict = {}
        self.measure_cache: dict = {}
        self.source_rows_cache: dict = {}
        #: id(``[shared]`` source node) -> its
        #: :class:`~repro.engine.compile.Relation`: those rows with the
        #: columns computed over them so far (aggregate arguments,
        #: dimensions), shared by every reader in the statement.
        self.relations: dict = {}
        #: (source plan id, dimension key) -> {value: [row positions]}.
        self.dim_indexes: dict = {}
        #: System-table name -> rows materialized at first scan, so every
        #: scan in one execution sees the same snapshot (repro.introspect).
        self.system_snapshots: dict = {}
        #: Base-table name -> rows materialized at first scan: every scan
        #: of one statement execution reads the same snapshot, so a
        #: self-join sees one table state (snapshot-at-statement-start,
        #: the user-table generalization of system_snapshots).
        self.table_snapshots: dict = {}
        #: Keeps row tuples referenced by id()-based cache keys alive for the
        #: duration of the execution (an id may otherwise be reused by a new
        #: object after garbage collection, aliasing unrelated cache entries).
        self.pinned: list = []
        #: The evaluation-context terms an ``AT (SET ...)`` value is being
        #: computed against (what ``CURRENT dim`` reads); None outside one.
        self.current_terms: Optional[list] = None
        # Counters exposed to benchmarks and tests.
        self.subquery_executions = 0
        self.subquery_cache_hits = 0
        self.measure_evaluations = 0
        self.measure_cache_hits = 0
        self.rows_scanned = 0
        self.hash_joins = 0
        self.nested_loop_joins = 0

    def release(self) -> None:
        """Drop what the execution materialized — snapshots, source rows and
        their columns, indexes, memos — and keep the counters.  The Database
        calls it once a statement's rows are out: ``last_stats`` is this
        object, and would otherwise carry one statement's working set
        through the next one's peak."""
        for cache in (
            self.subquery_cache,
            self.measure_cache,
            self.source_rows_cache,
            self.relations,
            self.dim_indexes,
            self.system_snapshots,
            self.table_snapshots,
            self.pinned,
        ):
            cache.clear()

    def checkpoint(self, plan=None, buffered_rows: int = 0) -> None:
        """The one cancellation / progress / memory checkpoint.

        Row loops call it every 256 rows (through :meth:`batches`, or ``if
        watched and not index & 0xFF`` where the loop needs its index) and
        measure evaluation once per evaluation, so a cancel or
        a budget breach lands within a bounded amount of work wherever the
        query is.  ``plan`` is the operator whose loop this is (None: the
        one currently running); ``buffered_rows`` is how many rows the loop
        has buffered so far, projected against the memory budget.
        """
        cancel = self.cancel_event
        if cancel is not None and cancel.is_set():
            raise QueryCancelled("query cancelled")
        if self.watch is not None:
            self.watch.tick(plan, buffered_rows)

    def batches(self, rows: list, plan=None, buffered: Sized = ()) -> Iterator[list]:
        """``rows`` in slices a row loop can hand to one comprehension.

        A watched execution gets 256 rows at a time with a :meth:`checkpoint`
        before each slice (``buffered`` is the loop's output so far); an
        unwatched one gets every row at once and pays nothing.
        """
        if not self.watched:
            yield rows
            return
        for start in range(0, len(rows), 256):
            self.checkpoint(plan, len(buffered))
            yield rows[start : start + 256]


def cast_value(value: Any, dtype) -> Any:
    """Runtime CAST implementation."""
    if value is None:
        return None
    target = dtype.unwrap()
    try:
        if target is INTEGER:
            if isinstance(value, str):
                return int(value.strip())
            if isinstance(value, (int, float)):
                return int(value)
            if isinstance(value, bool):
                return int(value)
        elif target is DOUBLE:
            if isinstance(value, (int, float, str)):
                return float(value)
        elif target is VARCHAR:
            if isinstance(value, bool):
                return "true" if value else "false"
            if isinstance(value, datetime.date):
                return value.isoformat()
            return str(value)
        elif target is BOOLEAN:
            if isinstance(value, bool):
                return value
            if isinstance(value, str):
                lowered = value.strip().lower()
                if lowered in ("true", "t", "1"):
                    return True
                if lowered in ("false", "f", "0"):
                    return False
        elif target is DATE:
            if isinstance(value, datetime.date):
                return value
            if isinstance(value, str):
                return datetime.date.fromisoformat(value.strip().replace("/", "-"))
        else:
            return value
    except (ValueError, TypeError):
        pass
    raise ExecutionError(f"cannot cast {value!r} to {target}")
