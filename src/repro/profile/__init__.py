"""Runtime observability: tracing spans, the per-statement watcher, query
profiles.

* :mod:`repro.profile.tracer` — a lightweight span tracer.  A
  :class:`~repro.profile.tracer.Span` covers one phase (parse, bind,
  optimize, execute), one plan-operator execution, or one measure-context
  evaluation; spans nest, so a finished trace is a tree.
* :mod:`repro.profile.watch` — :class:`~repro.profile.watch.Watch`, the one
  object that watches a statement run (an entry per plan operator, the live
  fields and memory budget of the running-queries tables, the span tree),
  and the :class:`~repro.profile.watch.QueryProfile` it freezes into: the
  stable, serializable artifact behind ``EXPLAIN ANALYZE``,
  ``Database.last_profile()``, the shell's ``\\profile`` and the slow log.

Zero-cost when off: the engine consults one ``ctx.watch is None`` guard per
operator execution and takes no timestamp unless a watcher is attached.
"""

from repro.profile.tracer import Span, Tracer
from repro.profile.watch import QueryProfile, QueryRegistry, Watch

__all__ = ["Span", "Tracer", "Watch", "QueryProfile", "QueryRegistry"]
