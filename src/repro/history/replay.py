"""Deterministic journal replay with byte-for-byte diffing.

:func:`replay_journal` rebuilds the journal's starting state (its
``bootstrap`` preload), then re-executes every recorded statement in
sequence order against the fresh database:

* entries recorded under an expansion strategy are replayed through
  :meth:`Database.execute_with_strategy`, so inline/window/subquery
  runs are re-expanded the same way;
* cancelled entries are skipped — a cancellation is an artifact of the
  original run's timing, not of the workload;
* entries that *errored* are replayed expecting the same error: the
  failure class and message are part of the workload's observable
  behaviour.

With ``diff=True`` every replayed statement is compared against the
recording — result digests byte-for-byte for successes, error class and
message for failures — and each mismatch becomes a :class:`Divergence`.
A clean diff is the strongest cheap regression signal this engine has:
same workload, same bytes, end to end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.expansion import EXPANSION_STRATEGIES
from repro.errors import SqlError
from repro.history.journal import JournalEntry, read_journal, result_digest
from repro.server.protocol import error_payload

__all__ = [
    "EXPANSION_STRATEGIES",
    "Divergence",
    "ReplayReport",
    "build_bootstrap_database",
    "replay_journal",
]


def build_bootstrap_database(bootstrap: Optional[str], **db_kwargs):
    """A fresh Database with the journal's preload applied.

    ``"paper"`` loads the paper's Customers/Orders tables, ``"listings"``
    additionally creates the SETUP views the listings run over, None
    starts empty.  Anything else is a journal from a configuration this
    build does not know how to reconstruct — an error, not a guess.
    """
    from repro.api import Database

    if bootstrap not in (None, "paper", "listings"):
        raise ValueError(f"unknown journal bootstrap {bootstrap!r}")
    db = Database(**db_kwargs)
    if bootstrap in ("paper", "listings"):
        from repro.workloads.paper_data import load_paper_tables

        load_paper_tables(db)
    if bootstrap == "listings":
        from repro.workloads.listings import SETUP

        for ddl in SETUP.values():
            db.execute(ddl)
    return db


@dataclass(frozen=True)
class Divergence:
    """One statement whose replay did not reproduce the recording."""

    seq: int
    sql: Optional[str]
    reason: str
    recorded: Optional[str]
    replayed: Optional[str]

    def render(self) -> str:
        return (
            f"seq {self.seq}: {self.reason}\n"
            f"  sql:      {self.sql}\n"
            f"  recorded: {self.recorded}\n"
            f"  replayed: {self.replayed}"
        )


@dataclass
class ReplayReport:
    """The outcome of one journal replay."""

    total: int = 0
    replayed: int = 0
    skipped_cancelled: int = 0
    skipped_unprintable: int = 0
    errors_reproduced: int = 0
    divergences: List[Divergence] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.divergences

    def summary(self) -> str:
        status = (
            "byte-identical"
            if self.clean
            else f"{len(self.divergences)} divergence(s)"
        )
        return (
            f"replayed {self.replayed}/{self.total} statements "
            f"({self.skipped_cancelled} cancelled skipped, "
            f"{self.errors_reproduced} errors reproduced): {status}"
        )


def _error_text(error: Optional[dict]) -> Optional[str]:
    if error is None:
        return None
    return f"{error.get('class')}: {error.get('message')}"


def _replay_entry(db, entry: JournalEntry, report: ReplayReport, diff: bool):
    try:
        # The journal also holds "interpreter" / "summary" / None entries,
        # which replay through the plain execute path.
        if entry.strategy in EXPANSION_STRATEGIES:
            result = db.execute_with_strategy(
                entry.sql, entry.params, strategy=entry.strategy
            )
        else:
            result = db.execute(entry.sql, entry.params)
        outcome, digest, error = "ok", result_digest(result), None
    except SqlError as exc:
        outcome, digest, error = "error", None, error_payload(exc)
    report.replayed += 1
    if outcome == "error" and entry.outcome == "error":
        report.errors_reproduced += 1
    if not diff:
        return
    if outcome != entry.outcome:
        report.divergences.append(
            Divergence(
                seq=entry.seq,
                sql=entry.sql,
                reason="outcome changed",
                recorded=f"{entry.outcome} ({_error_text(entry.error)})",
                replayed=f"{outcome} ({_error_text(error)})",
            )
        )
    elif (
        outcome == "ok"
        and entry.digest is not None
        and digest != entry.digest
    ):
        # A None recorded digest means the original run captured no
        # result bytes (a bare writer.record without a Result); there is
        # nothing to hold the replay to beyond the outcome.
        report.divergences.append(
            Divergence(
                seq=entry.seq,
                sql=entry.sql,
                reason="result bytes changed",
                recorded=entry.digest,
                replayed=digest,
            )
        )
    elif outcome == "error" and error != entry.error:
        report.divergences.append(
            Divergence(
                seq=entry.seq,
                sql=entry.sql,
                reason="error changed",
                recorded=_error_text(entry.error),
                replayed=_error_text(error),
            )
        )


def replay_journal(
    path: str, *, diff: bool = False, db=None
) -> ReplayReport:
    """Re-execute a journal; with ``diff``, verify it byte-for-byte.

    ``db`` overrides the bootstrap database (tests inject a prepared
    one); by default a fresh database is built from the journal header.
    """
    header, entries = read_journal(path)
    if db is None:
        db = build_bootstrap_database(header.get("bootstrap"))
    report = ReplayReport(total=len(entries))
    for entry in entries:
        if entry.outcome == "cancelled":
            report.skipped_cancelled += 1
            continue
        if entry.sql is None:
            # Unprintable statement (no canonical SQL was recorded):
            # nothing to re-execute.
            report.skipped_unprintable += 1
            continue
        _replay_entry(db, entry, report, diff)
    return report
