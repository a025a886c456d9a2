"""Interactive SQL shell.

Run with ``python -m repro [script.sql ...]``.  Statements end with ``;``.
Backslash meta-commands:

=========================  ===================================================
``\\q``                     quit
``\\d``                     list tables and views
``\\d NAME``                describe a table or view (columns, measures)
``\\timing``                toggle per-statement timing
``\\profile``               toggle per-query profiling (annotated operator
                           tree, phase timings, and counters after each query)
``\\expand [STRAT:] QUERY`` show the measure-free SQL a query expands to
                           (STRAT: subquery, inline, window, auto)
``\\analyze [NAME]``        collect column statistics (ANALYZE) for one
                           table or every table
``\\record PATH``           start journaling statements to PATH
                           (``\\record off`` stops; docs/OBSERVABILITY.md)
``\\watch [SECONDS] SQL``   re-run SQL every SECONDS (default 2) until
                           interrupted with Ctrl-C
``\\lint SQL``              report static-analysis diagnostics for SQL
``\\matviews``              list materialized views with staleness and stats
``\\telemetry``             toggle database-lifetime telemetry collection
``\\stats``                 print the telemetry metrics (Prometheus text)
``\\stat_statements``       print statement statistics per fingerprint and strategy
``\\flips``                 print detected plan flips
``\\events [N]``            print the last N telemetry events as JSON lines
``\\slowlog``               print the slow-query log
``\\top [N]``               show running queries (N refreshes, default 1);
                           reads ``repro_running_queries`` locally or over
                           a ``\\connect`` session
``\\i FILE``                execute a SQL script file
``\\load TABLE FILE.csv``   create TABLE from a CSV file
``\\demo``                  load the paper's Customers/Orders tables
``\\connect HOST:PORT``     attach to a running query server; subsequent SQL
                           runs in a server session (docs/SERVER.md)
``\\disconnect``            close the server session, back to the local db
=========================  ===================================================
"""

from __future__ import annotations

import json
import sys
import time
from typing import Optional

from repro.api import Database
from repro.core.expansion import EXPANSION_STRATEGIES
from repro.errors import SqlError

__all__ = ["Shell", "main"]

_BANNER = """repro — Measures in SQL (Hyde & Fremlin, SIGMOD 2024) reproduction
Type SQL ending with ';', or \\? for help.
"""

_HELP = """Meta commands:
  \\q                 quit
  \\d                 list tables and views
  \\d NAME            describe a table, view, or materialized view
  \\timing            toggle timing
  \\profile           toggle per-query profiling (plan tree + counters)
  \\expand [S:] QUERY; print the measure-free expansion of QUERY using
                     strategy S (subquery, inline, window, auto)
  \\analyze [NAME]    collect column statistics for NAME or all tables
                     (ANALYZE in SQL; repro_table_stats/repro_column_stats)
  \\record PATH       journal every statement to PATH for later replay
                     (\\record off stops; python -m repro.history replay)
  \\watch [N] SQL     re-run SQL every N seconds (default 2), Ctrl-C stops
  \\lint SQL;         report lint diagnostics (RPxxx) without executing
  \\matviews          list materialized views (staleness, hit/miss stats)
  \\telemetry         toggle telemetry (lifetime metrics, events, traces)
  \\stats             print telemetry metrics (SHOW STATS shows them in SQL)
  \\stat_statements   statement statistics per fingerprint and strategy
                     (SELECT * FROM repro_stat_statements in SQL)
  \\flips             detected plan flips (SELECT * FROM repro_statements
                     WHERE old_plan_hash IS NOT NULL in SQL)
  \\events [N]        print the last N telemetry events (default 10)
  \\slowlog           print slow queries (Database(slow_query_ms=...);
                     SELECT * FROM repro_statements WHERE wall_ms >= ms)
  \\top [N]           show running queries, N refreshes (default 1)
                     (SELECT * FROM repro_running_queries in SQL)
  \\i FILE            run a SQL script
  \\load TABLE FILE   load a CSV file into a new table
  \\demo              load the paper's example tables
  \\connect HOST:PORT attach to a query server (python -m repro.server);
                     SQL then runs in a server session
  \\disconnect        close the server session
"""

class Shell:
    """A small line-oriented shell around :class:`~repro.api.Database`."""

    def __init__(self, db: Optional[Database] = None, out=None):
        self.db = db or Database()
        self.out = out or sys.stdout
        self.timing = False
        self.buffer: list[str] = []
        #: An open server connection (\connect), or None for local mode.
        self.remote = None

    # -- output -------------------------------------------------------------

    def write(self, text: str = "") -> None:
        """Print one line to the shell's output stream."""
        print(text, file=self.out)

    # -- one input line ------------------------------------------------------

    def handle_line(self, line: str) -> bool:
        """Process one line; returns False when the shell should exit."""
        stripped = line.strip()
        if not self.buffer and stripped.startswith("\\"):
            return self.handle_meta(stripped)
        if not stripped and not self.buffer:
            return True
        self.buffer.append(line)
        if stripped.endswith(";"):
            statement = "\n".join(self.buffer)
            self.buffer = []
            self.run_sql(statement)
        return True

    @property
    def prompt(self) -> str:
        """The prompt string (continuation prompt while buffering)."""
        if self.buffer:
            return "   ...> "
        if self.remote is not None:
            return f"repro@{self.remote.session_id}=> "
        return "repro=> "

    # -- meta commands ----------------------------------------------------------

    def handle_meta(self, line: str) -> bool:
        """Execute one backslash command; False means quit."""
        command, _, argument = line.partition(" ")
        argument = argument.strip().rstrip(";")
        if command in ("\\q", "\\quit", "\\exit"):
            if self.remote is not None:
                try:
                    self.remote.close()
                except Exception:
                    pass
                self.remote = None
            return False
        if command == "\\?":
            self.write(_HELP)
        elif command == "\\d":
            if argument:
                self.describe(argument)
            else:
                self.list_objects()
        elif command == "\\timing":
            self.timing = not self.timing
            self.write(f"timing {'on' if self.timing else 'off'}")
        elif command == "\\profile":
            self.db.profile_enabled = not self.db.profile_enabled
            self.write(
                f"profile {'on' if self.db.profile_enabled else 'off'}"
            )
        elif command == "\\expand":
            strategy = "subquery"
            prefix, colon, rest = argument.partition(":")
            if colon and prefix.strip().lower() in EXPANSION_STRATEGIES:
                strategy = prefix.strip().lower()
                argument = rest.strip()
            try:
                self.write(self.db.expand(argument, strategy=strategy))
            except SqlError as exc:
                self.write(f"error: {exc}")
        elif command == "\\analyze":
            self.do_analyze(argument)
        elif command == "\\record":
            self.do_record(argument)
        elif command == "\\watch":
            self.do_watch(argument)
        elif command == "\\lint":
            self.lint(argument)
        elif command == "\\matviews":
            self.list_matviews()
        elif command == "\\telemetry":
            if self.db.telemetry is None:
                from repro.telemetry import Telemetry

                self.db.telemetry = Telemetry()
                self.write("telemetry on")
            else:
                self.db.telemetry = None
                self.write("telemetry off")
        elif command == "\\stats":
            self.show_stats()
        elif command == "\\stat_statements":
            self.show_stat_statements()
        elif command == "\\flips":
            self.show_flips()
        elif command == "\\events":
            self.show_events(argument)
        elif command == "\\slowlog":
            self.show_slowlog()
        elif command == "\\top":
            self.show_top(argument)
        elif command == "\\i":
            self.run_script_file(argument)
        elif command == "\\load":
            parts = argument.split()
            if len(parts) != 2:
                self.write("usage: \\load TABLE FILE.csv")
            else:
                from repro.storage.csv_io import load_csv

                try:
                    count = load_csv(self.db, parts[0], parts[1])
                    self.write(f"loaded {count} rows into {parts[0]}")
                except (OSError, SqlError) as exc:
                    self.write(f"error: {exc}")
        elif command == "\\demo":
            from repro.workloads.paper_data import load_paper_tables

            load_paper_tables(self.db)
            self.write("loaded Customers (3 rows) and Orders (5 rows)")
        elif command == "\\connect":
            self.do_connect(argument)
        elif command == "\\disconnect":
            self.do_disconnect()
        else:
            self.write(f"unknown command {command!r}; \\? for help")
        return True

    def list_objects(self) -> None:
        """Print every table and view (the bare ``\\d`` command)."""
        names = self.db.table_names()
        if not names:
            self.write("(no tables)")
            return
        for name in names:
            obj = self.db.catalog.resolve(name)
            self.write(f"  {obj.kind.lower():17s} {obj.name}")

    def lint(self, sql: str) -> None:
        """Print lint diagnostics for a SQL string (the ``\\lint`` command)."""
        if not sql:
            self.write("usage: \\lint SQL;")
            return
        diagnostics = self.db.lint(sql)
        if not diagnostics:
            self.write("lint: clean")
            return
        for diag in diagnostics:
            self.write(diag.render())

    def do_analyze(self, argument: str) -> None:
        """``\\analyze [NAME]``: collect column statistics via ANALYZE."""
        sql = f"ANALYZE {argument}" if argument else "ANALYZE"
        if self.remote is not None:
            self.run_remote_sql(sql)
            return
        try:
            result = self.db.execute(sql)
        except SqlError as exc:
            self.write(f"error: {exc}")
            return
        for table_name, row_count, columns in result.rows:
            self.write(
                f"  analyzed {table_name}: {row_count} rows, "
                f"{columns} columns"
            )
        if not result.rows:
            self.write("(no tables to analyze)")

    def do_record(self, argument: str) -> None:
        """``\\record PATH`` / ``\\record off``: toggle the flight recorder."""
        if not argument:
            if self.db.recorder is None:
                self.write("not recording (\\record PATH to start)")
            else:
                self.write(f"recording to {self.db.recorder.path}")
            return
        if argument.lower() == "off":
            if self.db.recorder is None:
                self.write("not recording")
                return
            path = self.db.recorder.path
            self.db.recorder.close()
            self.db.recorder = None
            self.write(f"stopped recording to {path}")
            return
        if self.db.recorder is not None:
            self.write(
                f"already recording to {self.db.recorder.path} "
                "(\\record off first)"
            )
            return
        from repro.history import JournalWriter

        try:
            self.db.recorder = JournalWriter(argument)
        except OSError as exc:
            self.write(f"error: {exc}")
            return
        self.write(f"recording to {argument}")

    def do_watch(self, argument: str) -> None:
        """``\\watch [SECONDS] SQL``: re-run SQL at an interval.

        Stops on Ctrl-C (KeyboardInterrupt), like ``psql``'s ``\\watch``.
        """
        interval = 2.0
        sql = argument
        head, _, rest = argument.partition(" ")
        if head:
            try:
                interval = float(head)
            except ValueError:
                pass
            else:
                sql = rest.strip()
        sql = sql.strip().rstrip(";").strip()
        if not sql or interval <= 0:
            self.write("usage: \\watch [SECONDS] SQL")
            return
        iteration = 0
        try:
            while True:
                iteration += 1
                self.write(f"-- watch #{iteration}: {sql}")
                self.run_sql(sql + ";")
                time.sleep(interval)
        except KeyboardInterrupt:
            self.write(f"\\watch stopped after {iteration} runs")

    def list_matviews(self) -> None:
        """Print every materialized view with staleness and usage counters."""
        views = self.db.catalog.materialized_views()
        if not views:
            self.write("(no materialized views)")
            return
        for view in views:
            state = "STALE" if view.stale else "fresh"
            stats = view.stats
            dims = ", ".join(d.name for d in view.definition.dimensions)
            self.write(
                f"  {view.name} over {view.definition.source_name} "
                f"({dims}) [{state}] hits={stats.hits} rejects={stats.rejects} "
                f"stale_skips={stats.stale_skips} refreshes={stats.refreshes}"
            )
            if stats.last_reject_reason:
                self.write(f"    last reject: {stats.last_reject_reason}")

    def show_stats(self) -> None:
        """Print the telemetry metrics in Prometheus text format."""
        if self.db.telemetry is None:
            self.write("telemetry is off (\\telemetry to enable)")
            return
        text = self.db.metrics_text()
        self.write(text.rstrip("\n") if text else "(no metrics)")

    def show_stat_statements(self) -> None:
        """Print statement statistics per (fingerprint, strategy), hottest
        first."""
        if self.db.telemetry is None:
            self.write("telemetry is off (\\telemetry to enable)")
            return
        entries = self.db.stat_statements()
        if not entries:
            self.write("(no statements recorded)")
            return
        self.write(
            f"  {'fingerprint':16s} {'strategy':11s} {'calls':>6s} {'total ms':>10s} "
            f"{'mean ms':>9s} {'rows':>6s} {'errs':>5s}  query"
        )
        for entry in sorted(
            entries, key=lambda e: e["total_wall_ms"], reverse=True
        ):
            self.write(
                f"  {entry['fingerprint']:16s} {entry['strategy']:11s} {entry['calls']:6d} "
                f"{entry['total_wall_ms']:10.3f} {entry['mean_wall_ms']:9.3f} "
                f"{entry['rows_returned']:6d} {entry['errors']:5d}  "
                f"{entry['query'][:60]}"
            )

    def show_flips(self) -> None:
        """Print detected plan flips, oldest first."""
        if self.db.telemetry is None:
            self.write("telemetry is off (\\telemetry to enable)")
            return
        flips = self.db.plan_flips()
        if not flips:
            self.write("(no plan flips)")
            return
        for flip in flips:
            self.write(
                f"  #{flip['seq']} {flip['fingerprint']}: "
                f"{flip['old_strategy']}/{flip['old_plan_hash']} -> "
                f"{flip['new_strategy']}/{flip['new_plan_hash']}"
            )
            self.write(f"    {flip['query'][:70]}")

    def show_events(self, argument: str) -> None:
        """Print the last N telemetry events as JSON lines."""
        if self.db.telemetry is None:
            self.write("telemetry is off (\\telemetry to enable)")
            return
        count = 10
        if argument:
            try:
                count = int(argument)
            except ValueError:
                self.write("usage: \\events [N]")
                return
        events = self.db.events(count)
        if not events:
            self.write("(no events)")
        for event in events:
            self.write(json.dumps(event, default=str))

    def show_slowlog(self) -> None:
        """Print the slow-query log, one line per offending query."""
        if self.db.telemetry is None:
            self.write("telemetry is off (\\telemetry to enable)")
            return
        if self.db.telemetry.slow_query_ms is None:
            self.write(
                "slow-query log not configured "
                "(Database(slow_query_ms=...))"
            )
            return
        entries = self.db.slow_queries()
        if not entries:
            self.write("(no slow queries)")
            return
        for entry in entries:
            self.write(
                f"  {entry['duration_ms']:10.3f} ms  "
                f"{entry['sql'] or '(unknown sql)'}"
            )

    _TOP_SQL = (
        "SELECT query_id, elapsed_ms, rows_processed, current_operator, "
        "memory_bytes, sql FROM repro_running_queries ORDER BY elapsed_ms DESC"
    )

    def show_top(self, argument: str) -> None:
        """``\\top [N]``: print running queries, refreshed N times.

        In remote mode the poll runs in the server session, so it reports
        the server's in-flight queries (the interesting ones); locally it
        reads this process's registry, where the poll itself is excluded.
        """
        refreshes = 1
        if argument:
            try:
                refreshes = max(1, int(argument))
            except ValueError:
                self.write("usage: \\top [N]")
                return
        for iteration in range(refreshes):
            if iteration:
                time.sleep(0.5)
            try:
                if self.remote is not None:
                    rows = [tuple(r) for r in self.remote.query(self._TOP_SQL)]
                else:
                    rows = self.db.query(self._TOP_SQL).rows
            except Exception as exc:
                self.write(f"error: {exc}")
                return
            if not rows:
                self.write("(no running queries)")
                continue
            self.write(
                f"  {'query':8s} {'elapsed ms':>10s} {'rows':>10s} "
                f"{'memory':>10s}  operator / sql"
            )
            for qid, elapsed, rows_done, operator, memory, sql in rows:
                self.write(
                    f"  {str(qid):8s} {float(elapsed):10.1f} "
                    f"{int(rows_done):10d} {int(memory):10d}  "
                    f"{operator or '-'}"
                )
                if sql:
                    self.write(f"    {str(sql)[:70]}")

    def describe(self, name: str) -> None:
        """Print one object's columns, row count, and measures."""
        from repro.catalog.objects import BaseTable, MaterializedView, SystemTable
        from repro.errors import CatalogError
        from repro.semantics.binder import Binder

        try:
            obj = self.db.catalog.resolve(name)
        except CatalogError as exc:
            self.write(f"error: {exc}")
            return
        if isinstance(obj, MaterializedView):
            state = "stale" if obj.stale else "fresh"
            self.write(
                f"materialized view {obj.name} over "
                f"{obj.definition.source_name} ({len(obj.table)} rows, {state})"
            )
            info = self.db.describe(obj.name)
            rollups = {m["name"].lower(): m["rollup"] for m in info["measures"]}
            for column in info["columns"]:
                name = column["name"]
                note = f"rollup: {rollups[name.lower()]}" if column["measure"] else "dimension"
                self.write(f"  {name:20s} {column['type']}  {note}")
            return
        if isinstance(obj, BaseTable):
            self.write(f"table {obj.name} ({len(obj.table)} rows)")
            for column in obj.schema.columns:
                self.write(f"  {column.name:20s} {column.dtype}")
            return
        if isinstance(obj, SystemTable):
            self.write(f"system table {obj.name}")
            if obj.comment:
                self.write(f"  -- {obj.comment}")
            for column in obj.schema.columns:
                self.write(f"  {column.name:20s} {column.dtype}")
            return
        try:
            bound = Binder(self.db.catalog).bind_view(obj)
        except SqlError as exc:
            self.write(f"view {obj.name} (invalid: {exc})")
            return
        self.write(f"view {obj.name}")
        for column in bound.columns:
            kind = "measure" if column.is_measure else ""
            self.write(f"  {column.name:20s} {column.dtype}  {kind}".rstrip())

    # -- server connection ----------------------------------------------------

    def do_connect(self, argument: str) -> None:
        """``\\connect HOST:PORT``: open a session on a query server."""
        from repro.server.client import ClientError, connect

        if self.remote is not None:
            self.write("already connected (\\disconnect first)")
            return
        host, _, port_text = argument.rpartition(":")
        if not host:
            host = "127.0.0.1"
        try:
            port = int(port_text)
        except ValueError:
            self.write("usage: \\connect HOST:PORT")
            return
        try:
            self.remote = connect(host, port)
        except (OSError, ClientError) as exc:
            self.write(f"error: cannot connect to {host}:{port}: {exc}")
            return
        self.write(
            f"connected to {host}:{port} as session {self.remote.session_id}"
        )

    def do_disconnect(self) -> None:
        """``\\disconnect``: close the server session."""
        if self.remote is None:
            self.write("not connected")
            return
        try:
            self.remote.close()
        except Exception:
            pass
        self.remote = None
        self.write("disconnected")

    def run_remote_sql(self, sql: str) -> None:
        """Run one statement in the connected server session."""
        from repro.result import Result, ResultColumn
        from repro.server.client import ClientError
        from repro.types import VARCHAR

        statement = sql.strip().rstrip(";").strip()
        if not statement:
            return
        start = time.perf_counter()
        try:
            result = self.remote.query(statement)
        except ClientError as exc:
            self.write(f"error: {exc}")
            return
        except OSError as exc:
            self.write(f"error: connection lost: {exc}")
            self.remote = None
            return
        elapsed = (time.perf_counter() - start) * 1000
        if result.columns:
            # Wire values are already rendered (dates as ISO strings), so
            # the local pretty-printer just needs names and cells.
            local = Result(
                columns=[ResultColumn(n, VARCHAR) for n in result.columns],
                rows=[tuple(row) for row in result.rows],
                rowcount=result.rowcount,
                message=result.message,
            )
            self.write(local.pretty(max_rows=50))
            self.write(f"({len(result.rows)} rows)")
        else:
            self.write(result.message or "ok")
        if self.timing:
            self.write(f"time: {elapsed:.1f} ms")

    # -- execution -----------------------------------------------------------

    def run_sql(self, sql: str) -> None:
        """Execute a SQL string and print results or a typed error."""
        if self.remote is not None:
            self.run_remote_sql(sql)
            return
        profile_before = (
            self.db.last_profile() if self.db.profile_enabled else None
        )
        start = time.perf_counter()
        try:
            results = self.db.execute_script(sql)
        except SqlError as exc:
            self.write(f"error: {exc}")
            return
        elapsed = (time.perf_counter() - start) * 1000
        for result in results:
            if result.columns:
                self.write(result.pretty(max_rows=50))
                self.write(f"({len(result.rows)} rows)")
            else:
                self.write(result.message or "ok")
        if self.db.profile_enabled:
            profile = self.db.last_profile()
            # Only a fresh profile (this script ran a query) is printed;
            # DDL-only scripts produce none.
            if profile is not None and profile is not profile_before:
                for line in profile.plan_lines():
                    self.write(line)
                for line in profile.summary_lines():
                    self.write(line)
        if self.timing:
            self.write(f"time: {elapsed:.1f} ms")

    def run_script_file(self, path: str) -> None:
        """Execute a .sql file (the ``\\i`` command / CLI arguments)."""
        try:
            with open(path) as handle:
                sql = handle.read()
        except OSError as exc:
            self.write(f"error: {exc}")
            return
        self.run_sql(sql)

    # -- main loop ----------------------------------------------------------

    def repl(self) -> None:
        """Run the interactive read-eval-print loop until EOF or \\q."""
        try:
            import readline  # noqa: F401 - line editing side effect
        except ImportError:  # pragma: no cover - platform dependent
            pass
        self.write(_BANNER)
        while True:
            try:
                line = input(self.prompt)
            except EOFError:
                self.write()
                return
            except KeyboardInterrupt:
                self.buffer = []
                self.write()
                continue
            if not self.handle_line(line):
                return


def main(argv: Optional[list[str]] = None) -> int:
    """Entry point: run script files from argv, then the REPL on a TTY."""
    argv = sys.argv[1:] if argv is None else argv
    shell = Shell()
    for path in argv:
        shell.run_script_file(path)
    if not argv or sys.stdin.isatty():
        shell.repl()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
