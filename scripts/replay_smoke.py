"""CI smoke test for the workload flight recorder.

Records all fifteen paper listings through a real TCP server with the
journal attached, then proves the journal round-trips:

1. ``python -m repro.history replay --diff`` over the recorded journal
   must be **byte-identical** (exit 0, zero divergences),
2. a deliberately corrupted copy (one result digest flipped) must make
   the same command exit non-zero and name the diverging statement —
   the diff gate actually gates.

The journal is left on disk (default ``replay/journal.jsonl``; first
CLI argument overrides) so CI can upload it as an artifact next to the
run that produced it.

Run it as ``make replay-smoke`` or ``python scripts/replay_smoke.py``.
"""

from __future__ import annotations

import faulthandler
import json
import os
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_ROOT, "src"))

from repro.api import Database
from repro.history import JournalWriter, read_journal
from repro.history.__main__ import main as history_main
from repro.server import ServerThread, connect
from repro.workloads.listings import SETUP, all_listing_sql
from repro.workloads.paper_data import load_paper_tables


def record_listings(journal_path: str) -> int:
    """Serve the paper database and record every listing; returns the
    number of statements journaled."""
    db = Database(telemetry=True)
    load_paper_tables(db)
    for ddl in SETUP.values():
        db.execute(ddl)
    listings = all_listing_sql(db)
    db.recorder = JournalWriter(journal_path, bootstrap="listings")
    try:
        with ServerThread(db) as server:
            host, port = server.server.host, server.server.port
            print(f"recording {len(listings)} listings via {host}:{port}")
            with connect(host, port) as conn:
                for sql in listings.values():
                    conn.query(sql)
    finally:
        db.recorder.close()
        db.recorder = None
    _, entries = read_journal(journal_path)
    return len(entries)


def corrupt_copy(journal_path: str) -> str:
    """Write a copy of the journal with the last entry's digest flipped."""
    with open(journal_path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    entry = json.loads(lines[-1])
    digest = entry.get("digest") or "0" * 64
    entry["digest"] = ("f" if digest[0] != "f" else "0") + digest[1:]
    lines[-1] = json.dumps(entry, sort_keys=True)
    corrupted = journal_path + ".corrupted"
    with open(corrupted, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    return corrupted


def main() -> int:
    journal_path = (
        sys.argv[1] if len(sys.argv) > 1 else os.path.join("replay", "journal.jsonl")
    )
    directory = os.path.dirname(journal_path)
    if directory:
        os.makedirs(directory, exist_ok=True)

    failures: list[str] = []
    recorded = record_listings(journal_path)
    print(f"journal: {journal_path} ({recorded} statements)")
    if recorded < 15:
        failures.append(f"expected >= 15 recorded statements, got {recorded}")

    code = history_main(["replay", journal_path, "--diff"])
    if code != 0:
        failures.append(f"replay --diff of the clean journal exited {code}")

    corrupted = corrupt_copy(journal_path)
    code = history_main(["replay", corrupted, "--diff"])
    if code == 0:
        failures.append("replay --diff accepted a corrupted journal")
    else:
        print(f"corrupted journal correctly rejected (exit {code})")
    os.unlink(corrupted)

    if failures:
        print(f"\nREPLAY SMOKE FAILED ({len(failures)}):")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print(
        f"\nREPLAY SMOKE OK: {recorded} statements recorded, replay "
        "byte-identical, injected mismatch rejected."
    )
    return 0


if __name__ == "__main__":
    # A crash in a server thread prints every thread's stack.
    faulthandler.enable(all_threads=True)
    sys.exit(main())
