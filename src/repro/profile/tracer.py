"""A lightweight nesting span tracer.

A :class:`Span` records one timed region of a statement — a phase (parse,
bind, optimize, execute, ...) or one rewrite-strategy attempt.  Spans form a
tree: the :class:`Tracer` keeps an explicit stack, so ``begin``/``end``
pairs nest without any thread-local or context-variable machinery; callers
that prefer ``with`` can use :meth:`Tracer.span`.

Operators and measure evaluations are not spans: the watcher records each
in one entry however often it runs (:mod:`repro.profile.watch`), so a
statement allocates a handful of spans whatever its plan does.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Iterator, Optional

__all__ = ["Span", "Tracer"]


class Span:
    """One timed region of a query's lifetime.

    ``kind`` classifies the span: ``"query"`` (the root), ``"phase"``
    (parse/bind/optimize/execute) or ``"expand"`` (one rewrite-strategy
    attempt).  ``meta`` holds small JSON-safe annotations (cache verdicts,
    summary names, strategy outcomes).
    """

    __slots__ = ("name", "kind", "start_ns", "end_ns", "children", "meta")

    def __init__(self, name: str, kind: str = "phase"):
        self.name = name
        self.kind = kind
        self.start_ns: int = 0
        self.end_ns: int = 0
        self.children: list["Span"] = []
        self.meta: dict[str, Any] = {}

    @property
    def duration_ms(self) -> float:
        """Wall time in milliseconds (0.0 while the span is still open)."""
        if self.end_ns <= self.start_ns:
            return 0.0
        return (self.end_ns - self.start_ns) / 1e6

    def walk(self) -> Iterator["Span"]:
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> Optional["Span"]:
        """First span named ``name`` in pre-order, or None."""
        for span in self.walk():
            if span.name == name:
                return span
        return None

    def to_dict(self) -> dict:
        """Stable serialization: keys are fixed, children are in start
        order, durations are milliseconds rounded to 3 decimals."""
        entry: dict[str, Any] = {
            "name": self.name,
            "kind": self.kind,
            "duration_ms": round(self.duration_ms, 3),
        }
        if self.meta:
            entry["meta"] = {k: self.meta[k] for k in sorted(self.meta)}
        if self.children:
            entry["children"] = [c.to_dict() for c in self.children]
        return entry

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Span({self.name!r}, {self.kind}, {self.duration_ms:.3f}ms)"


class Tracer:
    """Collects a tree of spans for one query execution."""

    __slots__ = ("root", "_stack", "_clock")

    def __init__(self, *, clock=time.perf_counter_ns):
        self._clock = clock
        self.root = Span("query", "query")
        self.root.start_ns = clock()
        self._stack: list[Span] = [self.root]

    @property
    def current(self) -> Span:
        return self._stack[-1]

    def begin(self, name: str, kind: str = "phase") -> Span:
        """Open a child span of the current span."""
        span = Span(name, kind)
        span.start_ns = self._clock()
        self._stack[-1].children.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        """Close ``span``."""
        span.end_ns = self._clock()
        # Pop back to the span's parent even if callers leaked inner spans
        # (an exception unwound past their end() calls).
        while self._stack and self._stack[-1] is not span:
            dangling = self._stack.pop()
            if dangling.end_ns == 0:
                dangling.end_ns = span.end_ns
        if self._stack:
            self._stack.pop()
        if not self._stack:  # never pop the root's slot entirely
            self._stack.append(self.root)

    @contextmanager
    def span(self, name: str, kind: str = "phase"):
        """``with tracer.span("bind"):`` convenience wrapper."""
        span = self.begin(name, kind)
        try:
            yield span
        finally:
            self.end(span)

    def finish(self) -> Span:
        """Close every open span (including the root) and return the root."""
        now = self._clock()
        while len(self._stack) > 1:
            open_span = self._stack.pop()
            if open_span.end_ns == 0:
                open_span.end_ns = now
        if self.root.end_ns == 0:
            self.root.end_ns = now
        return self.root
