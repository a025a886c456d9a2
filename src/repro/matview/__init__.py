"""Materialized summary tables (paper section 5's per-statement cache of
per-context aggregates, made persistent over a data-cube lattice).

* :mod:`repro.matview.definition` — a summary's definition, bound once;
* :mod:`repro.matview.rewriter` — the one match of a bound query against a
  summary, and the answer over its table, printed from the bind;
* :mod:`repro.matview.maintenance` — CREATE's and REFRESH's rows and the
  INSERT merge; a summary reads its staleness off the write stamps of what
  it depends on (``MaterializedView.stale``), nothing pushes it;
* :mod:`repro.matview.stats` — per-view hit/miss/stale counters.
"""

from repro.matview.definition import SummaryDefinition, analyze_definition
from repro.matview.maintenance import insert, refresh
from repro.matview.rewriter import (
    RewriteOutcome, match, rewrite_query, summary_candidates,
)
from repro.matview.stats import SummaryStats

__all__ = [
    "RewriteOutcome",
    "SummaryDefinition",
    "SummaryStats",
    "analyze_definition",
    "insert",
    "match",
    "refresh",
    "rewrite_query",
    "summary_candidates",
]
