"""Trace export: serialize span trees to OTel-flavored JSON.

The watcher's :class:`~repro.profile.tracer.Span` tree is flattened into
a list of spans with ``trace_id`` / ``span_id`` / ``parent_span_id``
links, the shape OpenTelemetry tooling expects.  IDs are deterministic
counters rendered as fixed-width hex (16 hex chars for spans, 32 for
traces) — there is no global collector to collide with, and determinism
keeps the export testable.

Span timestamps come from ``time.perf_counter_ns`` (a monotonic clock
with an arbitrary epoch), so the export carries offsets relative to each
trace's root span (``start_ns`` / ``end_ns`` from root start) rather than
pretending to know wall-clock times; the wall-clock anchor is the
``captured_at`` timestamp on the trace envelope.

The envelope is versioned (``schema: repro-trace-v1``) like the bench
snapshot and QueryProfile schemas.
"""

from __future__ import annotations

import itertools
import json
from typing import Any, Dict, List, Optional

from repro.telemetry.events import Ring

__all__ = ["TraceBuffer", "TRACE_SCHEMA"]

TRACE_SCHEMA = "repro-trace-v1"

#: Traces one Telemetry retains.
TRACE_CAPACITY = 100


class TraceBuffer(Ring):
    """Bounded ring of captured traces (one per profiled query)."""

    def __init__(self, capacity: int = TRACE_CAPACITY):
        super().__init__(capacity)
        # next() on a count is atomic, so concurrent sessions capturing at
        # once never share an id.
        self._trace_ids = itertools.count(1)
        self._span_ids = itertools.count(1)

    def capture(
        self,
        root_span: Any,
        *,
        sql: Optional[str] = None,
        spans_dropped: int = 0,
        traceparent: Optional[str] = None,
        ts: Optional[str] = None,
    ) -> str:
        """Flatten one span tree into the buffer; returns the trace_id.

        When a valid W3C ``traceparent`` is supplied, the captured trace
        adopts its trace id and parents the root span under the caller's
        span id, so the export splices into the caller's distributed
        trace.  Malformed values are ignored (a deterministic local id is
        minted instead), per the Trace Context spec.
        """
        from repro.telemetry import parse_traceparent

        parent = parse_traceparent(traceparent)
        trace_id = (
            f"{next(self._trace_ids):032x}" if parent is None else parent[0]
        )
        remote_parent = None if parent is None else parent[1]
        base_ns = root_span.start_ns
        span_ids = self._span_ids
        flat: List[Dict[str, Any]] = []

        def visit(span: Any, parent_id: Optional[str]) -> None:
            span_id = f"{next(span_ids):016x}"
            # An unclosed span keeps end_ns == 0; export zero duration.
            end_ns = span.end_ns if span.end_ns else span.start_ns
            entry: Dict[str, Any] = {
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
                entry["attributes"] = dict(span.meta)
            flat.append(entry)
            for child in span.children:
                visit(child, span_id)

        visit(root_span, remote_parent)
        trace = {
            "trace_id": trace_id,
            "sql": sql,
            "spans_dropped": spans_dropped,
            "spans": flat,
        }
        if parent is not None:
            trace["traceparent"] = traceparent
        self.append(ts=ts, **trace)
        return trace_id

    def export(self) -> Dict[str, Any]:
        """The versioned envelope holding every retained trace.  The ring's
        ``ts`` is the envelope's ``captured_at``; its ``seq`` is not part of
        ``repro-trace-v1``."""
        traces = []
        for entry in self.tail():
            trace = dict(entry, captured_at=entry["ts"])
            del trace["seq"], trace["ts"]
            traces.append(trace)
        return {
            "schema": TRACE_SCHEMA,
            "trace_count": len(traces),
            "traces_dropped": self.dropped,
            "traces": traces,
        }

    def export_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.export(), indent=indent, default=str)
