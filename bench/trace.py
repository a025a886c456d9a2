"""The outside-in layer trace: spans around each public pipeline call, and a
cProfile pass folded by package.

Nothing inside ``src/repro`` is instrumented.  :func:`traced_execute` calls
the same public functions ``Database.execute`` chains for a query
(``parse_statement`` → ``rewrite_query`` → ``Binder.bind_query_top`` →
``optimize`` → ``analyze_plan`` → ``execute_plan``), in the same order and
under the same conditions, with a span around each.  Spans are kept in
memory and written once, when the run ends.
"""

from __future__ import annotations

import cProfile
import json
import os
import statistics
import time
from pathlib import Path

from bench import SRC
from repro.analysis.dataflow import analyze_plan
from repro.engine.evaluator import ExecutionContext
from repro.engine.executor import execute_plan
from repro.matview import rewrite_query
from repro.plan.optimizer import optimize
from repro.semantics.binder import Binder
from repro.sql import parse_statement

#: Span name -> the per-layer metric that reports its median.
SPAN_METRICS = {
    "sql.parse": "sql.parse_ms",
    "matview.rewrite": "matview.rewrite_ms",
    "semantics.bind": "semantics.bind_ms",
    "plan.optimize": "plan.optimize_ms",
    "analysis.dataflow": "analysis.dataflow_ms",
    "engine.execute": "engine.execute_ms",
}

#: Packages whose exact call counts are reported as ``<package>.calls``.
CALL_PACKAGES = (
    "engine core types semantics sql plan matview analysis "
    "telemetry introspect history server storage catalog api"
).split()
_REPRO_DIR = str(SRC / "repro") + os.sep
FRONTEND = ("sql", "semantics", "plan", "matview", "analysis")
OBSERVERS = ("telemetry", "introspect", "profile", "history")


class Tracer:
    """Spans ``{id, name, start, end, parent, statement_id}``, in memory."""

    def __init__(self):
        self.spans: list[dict] = []

    def begin(self, name: str, parent, statement_id: int) -> dict:
        span = {
            "id": len(self.spans) + 1,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": None if parent is None else parent["id"],
            "statement_id": statement_id,
        }
        self.spans.append(span)
        return span

    @staticmethod
    def end(span: dict) -> float:
        span["end"] = time.perf_counter()
        return span["end"] - span["start"]

    def dump(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


def traced_execute(db, sql: str, tracer: Tracer, statement_id: int):
    """Run one query the way ``Database.execute`` does, a span per layer.

    Returns ``(rows, seconds)``: ``seconds`` maps each layer span's name to
    its seconds, with the whole statement under ``"statement"``.
    """
    seconds = {}
    root = tracer.begin("statement", None, statement_id)

    span = tracer.begin("sql.parse", root, statement_id)
    query = parse_statement(sql).query
    seconds["sql.parse"] = tracer.end(span)

    if db.summaries_enabled:
        span = tracer.begin("matview.rewrite", root, statement_id)
        query = rewrite_query(db.catalog, query).query
        seconds["matview.rewrite"] = tracer.end(span)

    span = tracer.begin("semantics.bind", root, statement_id)
    plan, _columns = Binder(db.catalog).bind_query_top(query)
    seconds["semantics.bind"] = tracer.end(span)

    if db.optimizer_enabled:
        span = tracer.begin("plan.optimize", root, statement_id)
        plan = optimize(plan, validate=db.validate_enabled)
        seconds["plan.optimize"] = tracer.end(span)

    # Database.execute runs the dataflow analysis only for a profiled or
    # progress-tracked query (a telemetry-on database: the server's).
    if db.profile_enabled or db.progress_enabled():
        span = tracer.begin("analysis.dataflow", root, statement_id)
        analyze_plan(plan, db.catalog)
        seconds["analysis.dataflow"] = tracer.end(span)

    ctx = ExecutionContext(db.catalog, enable_cache=db.cache_enabled)
    span = tracer.begin("engine.execute", root, statement_id)
    rows = execute_plan(plan, ctx)
    seconds["engine.execute"] = tracer.end(span)

    seconds["statement"] = tracer.end(root)
    return rows, seconds


class PipelineStats:
    """Plain and traced timings of the same statements, and the pipeline
    metrics they give."""

    def __init__(self, names):
        self.plain: dict = {name: [] for name in names}
        self.traced: dict = {name: [] for name in names}
        self.span_sums: dict = {name: [] for name in names}
        self.spans: dict = {name: [] for name in SPAN_METRICS}

    def add_plain(self, name: str, seconds: float) -> None:
        self.plain[name].append(seconds)

    def add_traced(self, name: str, layer: dict) -> None:
        """``layer`` as returned by :func:`traced_execute`."""
        self.traced[name].append(layer["statement"])
        total = 0.0
        for span_name, seconds in layer.items():
            if span_name != "statement":
                self.spans[span_name].append(seconds)
                total += seconds
        self.span_sums[name].append(total)

    def metrics(self) -> dict:
        """Median ms per layer span; ``api.overhead_ms``, the median over
        statements of plain ``Database.execute`` minus the span sum;
        ``trace.overhead_ratio``, traced over plain typical latency; and
        ``trace.coverage``, every span sum over every plain wall, total over
        total: the callers run the two sides of a statement back to back,
        so both totals saw the same host, which medians of a few samples
        taken a second apart did not (0.83-1.09 over fifteen runs on
        ``tpch_cold`` at selftest size, against 0.97-1.01 this way)."""
        median = statistics.median
        out = {
            metric: median(self.spans[span]) * 1e3
            for span, metric in SPAN_METRICS.items()
            if self.spans[span]
        }
        names = [n for n in self.plain if self.plain[n] and self.traced[n]]
        plain = {n: median(self.plain[n]) for n in names}
        sums = {n: median(self.span_sums[n]) for n in names}
        traced = {n: median(self.traced[n]) for n in names}
        out["api.overhead_ms"] = median(plain[n] - sums[n] for n in names) * 1e3
        out["trace.coverage"] = sum(sum(self.span_sums[n]) for n in names) / sum(
            sum(self.plain[n]) for n in names
        )
        out["trace.overhead_ratio"] = median(traced.values()) / median(
            plain.values()
        )
        return out


def _package_of(code) -> str:
    """``repro.<package>`` a profiled function belongs to; ``"py"`` for the
    standard library, the benchmark itself and builtins."""
    if isinstance(code, str):
        return "py"
    if not code.co_filename.startswith(_REPRO_DIR):
        return "py"
    head, slash, _ = code.co_filename[len(_REPRO_DIR):].partition(os.sep)
    # Top-level modules (api.py, result.py, errors.py) are the API layer.
    return head if slash else "api"


def profile_calls(thunk) -> tuple[dict, dict]:
    """Run ``thunk`` under cProfile; ``(calls, self_seconds)`` by package.

    Call counts are exact and repeat across processes; ``py`` counts every
    call, builtins included.  Self time is indicative only (cProfile slows
    Python calls but not native code); a builtin's time is charged to the
    package that called it, so ``isinstance`` dispatch counts as the
    evaluator's own time.
    """
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        thunk()
    finally:
        profiler.disable()
    calls: dict = {"py": 0}
    self_seconds: dict = {}
    for entry in profiler.getstats():
        package = _package_of(entry.code)
        calls["py"] += entry.callcount
        if package != "py":
            calls[package] = calls.get(package, 0) + entry.callcount
        if isinstance(entry.code, str):
            continue  # charged to its callers below
        self_seconds[package] = (
            self_seconds.get(package, 0.0) + entry.inlinetime
        )
        for callee in entry.calls or ():
            if isinstance(callee.code, str):
                self_seconds[package] += callee.inlinetime
    return calls, self_seconds


def fold_profile(calls: dict, self_seconds: dict) -> dict:
    """The ``*.calls`` and ``*.self_share`` metrics of one profiled pass."""
    total = sum(self_seconds.values()) or 1.0

    def share(packages) -> float:
        return sum(self_seconds.get(p, 0.0) for p in packages) / total

    metrics = {f"{p}.calls": calls.get(p, 0) for p in CALL_PACKAGES}
    metrics["py.calls"] = calls["py"]
    for package in ("engine", "core", "types"):
        metrics[f"{package}.self_share"] = share((package,))
    metrics["frontend.self_share"] = share(FRONTEND)
    metrics["observers.self_share"] = share(OBSERVERS)
    return metrics
