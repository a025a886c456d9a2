"""Trace export: serialize span trees to OTel-flavored JSON.

The watcher's :class:`~repro.profile.tracer.Span` tree is flattened into
a list of spans with ``trace_id`` / ``span_id`` / ``parent_span_id``
links, the shape OpenTelemetry tooling expects, when the traces are
exported: over the statement-ring entries that still hold their profile.
IDs are the entry's ring ``seq`` as fixed-width hex (16 hex chars for
spans, 32 for traces): an entry exports the same ids every time.

Span timestamps come from ``time.perf_counter_ns`` (a monotonic clock
with an arbitrary epoch), so the export carries offsets relative to each
trace's root span (``start_ns`` / ``end_ns`` from root start) rather than
pretending to know wall-clock times; the wall-clock anchor is the
``captured_at`` timestamp on each trace.

The envelope is versioned (``schema: repro-trace-v1``) like the bench
snapshot and QueryProfile schemas.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

__all__ = ["TRACE_SCHEMA", "trace_envelope"]

TRACE_SCHEMA = "repro-trace-v1"


def _trace(entry: Any, profile: Any) -> Dict[str, Any]:
    """One entry's span tree (``profile``'s), flattened.

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

    def visit(span: Any, parent_id: Optional[str]) -> None:
        span_id = f"{seq:08x}{len(flat) + 1:08x}"
        # An unclosed span keeps end_ns == 0; export zero duration.
        end_ns = span.end_ns if span.end_ns else span.start_ns
        fields: Dict[str, Any] = {
            "trace_id": trace_id,
            "span_id": span_id,
            "parent_span_id": parent_id,
            "name": span.name,
            "kind": span.kind,
            "start_ns": span.start_ns - base_ns,
            "end_ns": end_ns - base_ns,
            "duration_ms": span.duration_ms,
        }
        if span.meta:
            fields["attributes"] = dict(span.meta)
        flat.append(fields)
        for child in span.children:
            visit(child, span_id)

    visit(root, None if parent is None else parent[1])
    trace = {
        "trace_id": trace_id,
        "sql": entry.sql,
        "spans_dropped": entry.spans_dropped,
        "spans": flat,
    }
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
