"""Observability counters for materialized summary tables.

Each :class:`~repro.catalog.objects.MaterializedView` carries one
:class:`SummaryStats`.  The matcher, the INSERT merge and ``REFRESH``
update it; ``Database.summary_stats()`` and ``EXPLAIN`` surface it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Optional

__all__ = ["SummaryStats"]


@dataclass
class SummaryStats:
    """Per-view counters (one instance per materialized view)."""

    hits: int = 0  # queries answered from this summary
    rejects: int = 0  # times it was a candidate but could not answer
    stale_skips: int = 0  # times it was skipped as stale
    refreshes: int = 0  # REFRESH MATERIALIZED VIEW recomputations
    incremental_merges: int = 0  # insert-only deltas rolled up in place
    #: Why the matcher most recently rejected this summary, if ever.
    last_reject_reason: Optional[str] = None
    #: Reject counts per matchability rule (e.g. ``missing-dimension``).
    reject_reasons: dict[str, int] = field(default_factory=dict)
    #: Total wall time (ms) of queries answered from this summary, and of
    #: queries it was a candidate for but could not answer (rejected or
    #: stale): together, what the summary buys.  Idle summaries cost nothing.
    hit_time_ms: float = 0.0
    miss_time_ms: float = 0.0

    def record(self, report) -> None:
        """Count one :class:`~repro.matview.rewriter.CandidateReport`."""
        if report.status == "hit":
            self.hits += 1
        elif report.status == "stale":
            self.stale_skips += 1
        else:
            self.rejects += 1
            self.last_reject_reason = report.reason
            rule = report.rule
            self.reject_reasons[rule] = self.reject_reasons.get(rule, 0) + 1

    def as_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["hit_time_ms"] = round(self.hit_time_ms, 3)
        out["miss_time_ms"] = round(self.miss_time_ms, 3)
        return out
