"""The workload journal: a versioned, append-only JSON-lines record.

Line 1 is a header — ``{"schema": "repro-journal-v1", "created": ...,
"bootstrap": ...}`` — and every following line is one executed statement.
``bootstrap`` names the deterministic preload replay must apply before
re-executing (``"paper"`` = the paper's Customers/Orders tables,
``"listings"`` = those tables plus the SETUP views, ``null`` = an empty
database); everything else a replay needs travels *in* the journal as
recorded DDL/DML.

Entries are canonical bytes (:func:`repro.server.protocol.dumps_line`:
sorted keys, compact separators), so recording the same workload twice
produces identical journals.  Result rows are not stored — only a
SHA-256 digest of the canonically encoded result — which keeps journals
small while still letting ``--diff`` compare replays byte-for-byte.

Bind parameters *are* stored, with a typed encoding (dates, timestamps,
and decimals are tagged objects) so replay reconstructs the exact Python
values the original execution saw.

The writer is thread-safe: the query server's sessions append from
concurrent worker threads, and each entry is one atomic
``write()``+``flush()`` under the writer lock.
"""

from __future__ import annotations

import datetime
import decimal
import hashlib
import json
import threading
from dataclasses import dataclass
from typing import Any, Iterable, List, Optional, Sequence, Tuple

from repro.server.protocol import dumps_line, encode_result, error_payload
from repro.telemetry.record import utc_now

__all__ = [
    "JOURNAL_SCHEMA",
    "JournalEntry",
    "JournalWriter",
    "encode_params",
    "decode_params",
    "read_journal",
    "result_digest",
]

JOURNAL_SCHEMA = "repro-journal-v1"


def result_digest(result: Any) -> str:
    """SHA-256 over the canonical wire encoding of a Result.

    The exact bytes the server would send for this result — columns,
    rows, rowcount, message — so two executions digest equal iff a
    client could not tell them apart.
    """
    return hashlib.sha256(dumps_line(encode_result(result))).hexdigest()


def encode_params(params: Sequence[Any]) -> List[Any]:
    """JSON-safe, type-tagged encoding of bind parameters."""
    encoded: List[Any] = []
    for value in params:
        if isinstance(value, datetime.datetime):
            encoded.append({"$t": "timestamp", "v": value.isoformat(sep=" ")})
        elif isinstance(value, datetime.date):
            encoded.append({"$t": "date", "v": value.isoformat()})
        elif isinstance(value, decimal.Decimal):
            encoded.append({"$t": "decimal", "v": str(value)})
        else:
            encoded.append(value)
    return encoded


def decode_params(params: Iterable[Any]) -> Tuple[Any, ...]:
    """Invert :func:`encode_params` back to Python values."""
    decoded: List[Any] = []
    for value in params:
        if isinstance(value, dict) and "$t" in value:
            tag, raw = value["$t"], value["v"]
            if tag == "timestamp":
                decoded.append(
                    datetime.datetime.fromisoformat(raw.replace(" ", "T"))
                )
            elif tag == "date":
                decoded.append(datetime.date.fromisoformat(raw))
            elif tag == "decimal":
                decoded.append(decimal.Decimal(raw))
            else:
                raise ValueError(f"unknown parameter tag {tag!r}")
        else:
            decoded.append(value)
    return tuple(decoded)


@dataclass(frozen=True)
class JournalEntry:
    """One recorded statement execution."""

    seq: int
    ts: str
    session: Optional[str]
    traceparent: Optional[str]
    sql: Optional[str]
    params: Tuple[Any, ...]
    fingerprint: Optional[str]
    strategy: Optional[str]
    kind: Optional[str]
    outcome: str  # "ok" | "error" | "cancelled"
    error: Optional[dict]
    wall_ms: float
    rows: Optional[int]
    digest: Optional[str]

    @classmethod
    def from_json(cls, obj: dict) -> "JournalEntry":
        return cls(
            seq=obj["seq"],
            ts=obj["ts"],
            session=obj.get("session"),
            traceparent=obj.get("traceparent"),
            sql=obj.get("sql"),
            params=decode_params(obj.get("params", [])),
            fingerprint=obj.get("fingerprint"),
            strategy=obj.get("strategy"),
            kind=obj.get("kind"),
            outcome=obj["outcome"],
            error=obj.get("error"),
            wall_ms=obj.get("wall_ms", 0.0),
            rows=obj.get("rows"),
            digest=obj.get("digest"),
        )


class JournalWriter:
    """Appends executed statements to a journal file.

    Created fresh per recording run (the file is truncated and the
    header rewritten): a journal describes one workload against one
    starting state, which is what makes its replay deterministic.
    """

    def __init__(self, path: str, *, bootstrap: Optional[str] = None):
        self.path = str(path)
        self.bootstrap = bootstrap
        self._lock = threading.Lock()
        self._seq = 0
        self._fh = open(self.path, "w", encoding="utf-8")
        self._write(
            {
                "schema": JOURNAL_SCHEMA,
                "created": utc_now(),
                "bootstrap": bootstrap,
            }
        )

    def _write(self, obj: dict) -> None:
        self._fh.write(dumps_line(obj).decode("utf-8"))
        self._fh.flush()

    def record(self, record: Any) -> None:
        """Append one finished statement: the ``repro-journal-v1`` line is a
        projection of its :class:`~repro.telemetry.record.StatementRecord`
        (plus the digest of the attached result), so it reports the same
        identity, outcome and wall time as every other sink."""
        error, result = record.error, record.result
        entry = {
            "ts": record.ts,
            "session": record.session,
            "traceparent": record.traceparent,
            "sql": record.sql,
            "params": encode_params(record.params),
            "fingerprint": record.fingerprint,
            "strategy": record.strategy,
            "kind": record.kind,
            "outcome": record.outcome,
            "error": None if error is None else error_payload(error),
            "wall_ms": round(record.wall_ms, 3),
            "rows": record.rows,
            "digest": None if result is None else result_digest(result),
        }
        with self._lock:
            self._seq += 1
            entry["seq"] = self._seq
            self._write(entry)

    def close(self) -> None:
        with self._lock:
            if not self._fh.closed:
                self._fh.close()

    def __enter__(self) -> "JournalWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def read_journal(path: str) -> Tuple[dict, List[JournalEntry]]:
    """Parse a journal file; returns ``(header, entries)``.

    Raises ``ValueError`` on a missing/foreign schema marker so replay
    fails loudly on files that are not journals (or journals from an
    incompatible future version).
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line for line in fh.read().splitlines() if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty journal")
    header = json.loads(lines[0])
    if not isinstance(header, dict) or header.get("schema") != JOURNAL_SCHEMA:
        raise ValueError(
            f"{path}: not a {JOURNAL_SCHEMA} journal "
            f"(schema={header.get('schema') if isinstance(header, dict) else None!r})"
        )
    entries = [JournalEntry.from_json(json.loads(line)) for line in lines[1:]]
    return header, entries
