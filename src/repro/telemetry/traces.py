"""Trace export: a frozen profile as OTel-flavored JSON.

Each trace is a projection of one statement's
:class:`~repro.profile.watch.QueryProfile`, built when the traces are
exported (over the statement-ring entries that still hold their profile):
the phase spans of its :class:`~repro.profile.tracer.Span` tree as they
were recorded, and, under the ``execute`` phase, one ``operator`` span per
node of the frozen operator tree — its children and subplans nested under
it — drawn from the operator's first enter to its last exit, with its
``calls``, ``rows`` and busy ``time_ms`` as attributes.  An operator is one
span however often it ran, so a trace stays as small as its plan.  Spans
carry ``trace_id`` / ``span_id`` / ``parent_span_id`` links, the shape
OpenTelemetry tooling expects.  IDs are the entry's ring ``seq`` as
fixed-width hex (16 hex chars for spans, 32 for traces): an entry exports
the same ids every time.

Span timestamps come from ``time.perf_counter_ns`` (a monotonic clock
with an arbitrary epoch), so the export carries offsets relative to each
trace's root span (``start_ns`` / ``end_ns`` from root start) rather than
pretending to know wall-clock times; the wall-clock anchor is the
``captured_at`` timestamp on each trace.

The envelope is versioned (``schema: repro-trace-v2``) like the bench
snapshot and QueryProfile schemas.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

__all__ = ["TRACE_SCHEMA", "trace_envelope"]

TRACE_SCHEMA = "repro-trace-v2"


def _trace(entry: Any, profile: Any) -> Dict[str, Any]:
    """One entry's trace, projected off ``profile``.

    When the statement carried a valid W3C ``traceparent``, the trace
    adopts its trace id and parents the root span under the caller's span
    id, so the export splices into the caller's distributed trace.
    Malformed values are ignored (a local id is used instead), per the
    Trace Context spec.
    """
    from repro.telemetry import parse_traceparent

    parent = parse_traceparent(entry.traceparent)
    seq = entry.seq
    trace_id = f"{seq:032x}" if parent is None else parent[0]
    root = profile.root_span
    base_ns = root.start_ns
    flat: List[Dict[str, Any]] = []

    def add(parent_id, name, kind, start_ns, end_ns, attributes) -> str:
        span_id = f"{seq:08x}{len(flat) + 1:08x}"
        fields: Dict[str, Any] = {
            "trace_id": trace_id,
            "span_id": span_id,
            "parent_span_id": parent_id,
            "name": name,
            "kind": kind,
            "start_ns": start_ns,
            "end_ns": end_ns,
            "duration_ms": (end_ns - start_ns) / 1e6,
        }
        if attributes:
            fields["attributes"] = attributes
        flat.append(fields)
        return span_id

    def visit(span: Any, parent_id: Optional[str]) -> None:
        start_ns = span.start_ns - base_ns
        # An unclosed span keeps end_ns == 0; export zero duration.
        end_ns = span.end_ns - base_ns if span.end_ns else start_ns
        span_id = add(parent_id, span.name, span.kind, start_ns, end_ns, dict(span.meta))
        for child in span.children:
            visit(child, span_id)
        if span.kind == "phase" and span.name == "execute" and profile.operator_tree:
            operator(profile.operator_tree, span_id)

    def operator(node: Dict[str, Any], parent_id: str) -> None:
        # Only successes are traced, and every operator of one ran.
        attributes = {"calls": node["calls"], "rows": node["rows_out"], "time_ms": node["time_ms"]}
        span_id = add(
            parent_id, node["label"], "operator", node["start_ns"], node["end_ns"], attributes,
        )
        for child in [*node.get("children", ()), *node.get("subplans", ())]:
            operator(child, span_id)

    visit(root, None if parent is None else parent[1])
    trace = {"trace_id": trace_id, "sql": entry.sql, "spans": flat}
    if parent is not None:
        trace["traceparent"] = entry.traceparent
    trace["captured_at"] = entry.ts
    return trace


def trace_envelope(traced: List[tuple] = (), dropped: int = 0) -> Dict[str, Any]:
    """The versioned envelope holding the traces of ``traced``, ``(ring
    entry, its profile)`` pairs; ``dropped`` counts the traces released to
    keep the bound."""
    traces = [_trace(entry, profile) for entry, profile in traced]
    return {
        "schema": TRACE_SCHEMA,
        "trace_count": len(traces),
        "traces_dropped": dropped,
        "traces": traces,
    }
