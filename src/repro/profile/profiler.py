"""The live collector (:class:`Profiler`) and its frozen result
(:class:`QueryProfile`).

A :class:`Profiler` rides on the
:class:`~repro.engine.evaluator.ExecutionContext` of one query execution.
The executor calls :meth:`Profiler.enter_operator` / ``exit_operator``
around every plan-operator execution; operator bodies add specific counters
through :meth:`Profiler.operator_count`; the measure evaluator brackets each
measure-context evaluation with :meth:`enter_measure` / ``exit_measure``;
phase timing (parse, rewrite, bind, optimize, execute) goes through the
embedded :class:`~repro.profile.tracer.Tracer`.

When the query finishes, :meth:`Profiler.finish` freezes everything into a
:class:`QueryProfile` — plain data, safe to keep after the plan and the
execution context are gone, with a stable ``to_dict()``/``to_json()``
serialization (the schema ``BENCH_*.json`` snapshots embed).
"""

from __future__ import annotations

import json
import time
from typing import Any, Optional

from repro.profile.metrics import OperatorMetrics
from repro.profile.tracer import Span, Tracer

__all__ = ["CTX_COUNTERS", "Profiler", "QueryProfile"]

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


class Profiler:
    """Collects spans, operator metrics, and counters for one query."""

    __slots__ = (
        "tracer",
        "operators",
        "measures",
        "counters",
        "_plans",
        "_op_stack",
        "_clock",
    )

    def __init__(self, *, max_spans: int = 20_000, clock=time.perf_counter_ns):
        self.tracer = Tracer(max_spans=max_spans, clock=clock)
        #: id(plan node) -> OperatorMetrics.
        self.operators: dict[int, OperatorMetrics] = {}
        #: measure name -> {"evaluations", "cache_hits", "time_ns"}.
        self.measures: dict[str, dict[str, int]] = {}
        #: Engine-wide counters outside any one operator (window partitions,
        #: aggregate invocations, context terms by kind, ...).
        self.counters: dict[str, int] = {}
        #: Pins plan nodes keyed by id() for the profiler's lifetime, so a
        #: recycled id can never alias two operators' metrics.
        self._plans: dict[int, Any] = {}
        self._op_stack: list[tuple[Any, OperatorMetrics]] = []
        self._clock = clock

    # -- phases --------------------------------------------------------------

    def phase(self, name: str):
        """``with profiler.phase("bind"):`` — one top-level phase span."""
        return self.tracer.span(name, "phase")

    # -- operators -----------------------------------------------------------

    def enter_operator(self, plan) -> tuple:
        """Called by the executor before running ``plan``; returns a token
        for the matching :meth:`exit_operator` / :meth:`abort_operator`."""
        key = id(plan)
        metrics = self.operators.get(key)
        if metrics is None:
            metrics = OperatorMetrics(plan.label())
            self.operators[key] = metrics
            self._plans[key] = plan
        span = self.tracer.begin(plan.label(), "operator")
        self._op_stack.append((plan, metrics))
        return (plan, metrics, span, self._clock())

    def exit_operator(self, token: tuple, rows_out: int) -> None:
        plan, metrics, span, start_ns = token
        metrics.calls += 1
        metrics.rows_out += rows_out
        metrics.batches += 1
        metrics.time_ns += self._clock() - start_ns
        self._op_stack.pop()
        self._feed_parent(plan, rows_out)
        if span is not None:
            span.meta["rows"] = rows_out
            self.tracer.end(span)

    def shared_hit(self, plan, rows_out: int) -> None:
        """An operator asked for a shared input (a measure's source
        relation) again and was handed the rows its one execution kept."""
        self.operator_count(plan, "shared_hits")
        self._feed_parent(plan, rows_out)

    def _feed_parent(self, plan, rows_out: int) -> None:
        if self._op_stack:
            parent_plan, parent_metrics = self._op_stack[-1]
            # Only direct plan inputs feed a parent's rows_in; a subquery
            # plan executed from inside an expression does not.
            if any(child is plan for child in parent_plan.inputs()):
                parent_metrics.rows_in += rows_out

    def abort_operator(self, token: tuple) -> None:
        """Unwind bookkeeping when an operator raises."""
        plan, metrics, span, start_ns = token
        metrics.calls += 1
        metrics.time_ns += self._clock() - start_ns
        metrics.count("errors")
        self._op_stack.pop()
        if span is not None:
            span.meta["error"] = True
            self.tracer.end(span)

    def operator_count(self, plan, key: str, amount: int = 1) -> None:
        """Add an operator-specific counter (hash_probes, groups, ...)."""
        metrics = self.operators.get(id(plan))
        if metrics is None:
            metrics = OperatorMetrics(plan.label())
            self.operators[id(plan)] = metrics
            self._plans[id(plan)] = plan
        metrics.count(key, amount)

    # -- measures ------------------------------------------------------------

    def enter_measure(self, name: str) -> tuple:
        span = self.tracer.begin(f"measure:{name}", "measure")
        return (name, span, self._clock())

    def exit_measure(self, token: tuple, *, cache_hit: bool) -> None:
        name, span, start_ns = token
        entry = self.measures.get(name)
        if entry is None:
            entry = {"evaluations": 0, "cache_hits": 0, "time_ns": 0}
            self.measures[name] = entry
        entry["evaluations"] += 1
        if cache_hit:
            entry["cache_hits"] += 1
        entry["time_ns"] += self._clock() - start_ns
        if span is not None:
            span.meta["cache"] = "hit" if cache_hit else "miss"
            self.tracer.end(span)

    # -- global counters -----------------------------------------------------

    def bump(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    # -- freezing ------------------------------------------------------------

    def finish(
        self,
        plan=None,
        ctx=None,
        result_rows: Optional[int] = None,
        sql: Optional[str] = None,
    ) -> "QueryProfile":
        """Close all spans and freeze into a :class:`QueryProfile`."""
        root = self.tracer.finish()
        operator_tree = self._freeze_tree(plan) if plan is not None else None
        counters = dict(self.counters)
        if ctx is not None:
            for name in CTX_COUNTERS:
                counters[name] = getattr(ctx, name)
        spans_dropped = self.tracer.dropped
        if spans_dropped:
            counters["spans_dropped"] = spans_dropped
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
            operator_tree=operator_tree,
            counters=counters,
            measures=measures,
            result_rows=result_rows,
            spans_dropped=spans_dropped,
        )

    def _freeze_tree(self, plan) -> dict:
        metrics = self.operators.get(id(plan))
        if metrics is None:  # operator never executed (planned but skipped)
            metrics = OperatorMetrics(plan.label())
        node = metrics.to_dict()
        facts = getattr(plan, "facts", None)
        if facts is not None:
            # Static dataflow annotations (repro.analysis.dataflow), frozen
            # next to the observed metrics so a profile carries both the
            # predicted bounds and what actually happened.
            from repro.analysis.dataflow import facts_summary

            node["facts"] = facts_summary(facts)
        children = [self._freeze_tree(child) for child in plan.inputs()]
        if children:
            node["children"] = children
        return node


class QueryProfile:
    """Frozen, serializable profile of one query execution."""

    __slots__ = (
        "sql",
        "root_span",
        "operator_tree",
        "counters",
        "measures",
        "result_rows",
        "spans_dropped",
    )

    #: Bumped whenever the serialized layout changes incompatibly.
    SCHEMA_VERSION = 1

    def __init__(
        self,
        *,
        sql: Optional[str],
        root_span: Span,
        operator_tree: Optional[dict],
        counters: dict[str, int],
        measures: dict[str, dict],
        result_rows: Optional[int],
        spans_dropped: int = 0,
    ):
        self.sql = sql
        self.root_span = root_span
        self.operator_tree = operator_tree
        self.counters = counters
        self.measures = measures
        self.result_rows = result_rows
        self.spans_dropped = spans_dropped

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
            "spans_dropped": self.spans_dropped,
            "phases": self.root_span.to_dict(),
            "plan": self.operator_tree,
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "measures": self.measures,
        }

    def to_json(self, *, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    # -- rendering -----------------------------------------------------------

    def plan_lines(self, *, timing: bool = True) -> list[str]:
        """The annotated operator tree, one line per operator."""
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
        if self.spans_dropped:
            lines.append(
                f"warning: trace truncated, {self.spans_dropped} spans "
                "dropped (span budget exhausted)"
            )
        return lines

    def span_lines(self, *, timing: bool = True) -> list[str]:
        """The raw span tree (the tracer view; ``\\profile`` shows it)."""
        return self.root_span.tree_lines(timing=timing)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"QueryProfile(rows={self.result_rows}, total={self.total_ms:.3f}ms,"
            f" operators={len(self.plan_lines())})"
        )
