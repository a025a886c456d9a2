"""One statement pipeline: every entry point reports a statement the same way.

The same workload — the paper's fifteen listings, one DML, one bind error
and one parse error — goes through ``Database.execute``,
``Database.execute_script``, ``Session.execute`` and ``Session.prepare`` /
``execute_prepared``, each on its own database with telemetry and the
flight recorder attached.  The journals must agree entry by entry and the
per-(fingerprint, strategy) statistics row by row.  (The journal's ``sql``
field is the caller's text on some paths and the canonical text on others;
it is not compared.)

Within one database every sink reads the same ``StatementRecord``: a
statement's journal entry and its lifecycle event carry the same numbers,
and a source-level guard keeps the record's one constructor and the context
reads where they are.
"""

from __future__ import annotations

import ast
import pathlib
import re

import pytest

import repro

from repro.errors import SqlError
from repro.history import (
    JournalWriter,
    build_bootstrap_database,
    read_journal,
    replay_journal,
)
from repro.server import SessionManager
from repro.workloads.listings import all_listing_sql


def workload() -> list:
    listings = all_listing_sql(build_bootstrap_database("listings"))
    assert len(listings) == 15
    return list(listings.values()) + [
        "INSERT INTO Orders VALUES ('Acme', 'Celia', '2024-01-05', 9, 3)",
        "SELECT nope FROM Orders",
        "SELEC 1",
    ]


def via_prepared(session, sql):
    session.execute_prepared(session.prepare(sql))


#: name -> run one statement, given the database and a session on it.
ENTRY_POINTS = {
    "execute": lambda db, session, sql: db.execute(sql),
    "execute_script": lambda db, session, sql: db.execute_script(sql),
    "session": lambda db, session, sql: session.execute(sql),
    "prepared": lambda db, session, sql: via_prepared(session, sql),
}


#: Journal entry field -> the key its lifecycle event reports it under.
SHARED_FIELDS = {
    "ts": "ts",
    "kind": "kind",
    "fingerprint": "fingerprint",
    "strategy": "strategy",
    "outcome": "outcome",
    "wall_ms": "duration_ms",
}


def record(name: str, tmp_path):
    """Run the workload through one entry point;
    ``(journal path, journal, stats, (entry, lifecycle event) pairs)``."""
    path = str(tmp_path / f"{name}.jsonl")
    db = build_bootstrap_database("listings", telemetry=True)
    # Attached after the bootstrap: the journal and the statistics hold the
    # workload only, not the preload every replay re-applies itself.
    db.recorder = JournalWriter(path, bootstrap="listings")
    db.reset_stats()
    session = SessionManager(db).open_session()
    preload_seq = db.events()[-1]["seq"]
    for sql in workload():
        try:
            ENTRY_POINTS[name](db, session, sql)
        except SqlError:
            pass
    db.recorder.close()
    _, entries = read_journal(path)
    lifecycle = [
        e
        for e in db.events()
        if e["seq"] > preload_seq
        and e["event"] in ("query", "statement", "error")
    ]
    assert len(lifecycle) == len(entries)
    journal = [
        (
            e.kind,
            e.fingerprint,
            e.strategy,
            e.outcome,
            None if e.error is None else e.error["class"],
            e.digest,
        )
        for e in entries
    ]
    stats = sorted(
        (s["fingerprint"], s["strategy"], s["calls"], s["errors"])
        for s in db.stat_statements()
    )
    return path, journal, stats, list(zip(entries, lifecycle))


@pytest.fixture(scope="module")
def recordings(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("parity")
    return {name: record(name, tmp_path) for name in ENTRY_POINTS}


def test_reference_journal_has_every_statement(recordings):
    _, journal, stats, _ = recordings["execute"]
    assert len(journal) == 18
    assert [entry[3] for entry in journal] == ["ok"] * 16 + ["error"] * 2
    assert [entry[0] for entry in journal] == ["select"] * 15 + [
        "insert",
        "select",
        None,
    ]
    assert [entry[2] for entry in journal] == ["interpreter"] * 15 + [None] * 3
    assert [entry[4] for entry in journal[16:]] == ["BindError", "ParseError"]
    # Listings 4/5 and 10/11 are different statements: 15 + the DML + the
    # bind error, which has a fingerprint; the parse error has none.
    assert len(stats) == 17
    assert sum(errors for *_, errors in stats) == 1


@pytest.mark.parametrize("name", ["execute_script", "session", "prepared"])
def test_entry_point_agrees_with_execute(recordings, name):
    _, reference_journal, reference_stats, _ = recordings["execute"]
    _, journal, stats, _ = recordings[name]
    assert journal == reference_journal
    assert stats == reference_stats


@pytest.mark.parametrize("name", list(ENTRY_POINTS))
def test_every_journal_replays_byte_identical(recordings, name):
    path, journal, _, _ = recordings[name]
    report = replay_journal(path, diff=True)
    assert report.clean, [d.render() for d in report.divergences]
    assert report.replayed == len(journal)
    assert report.errors_reproduced == 2


@pytest.mark.parametrize("name", list(ENTRY_POINTS))
def test_journal_and_events_report_the_same_record(recordings, name):
    *_, pairs = recordings[name]
    for entry, event in pairs:
        for field, key in SHARED_FIELDS.items():
            assert getattr(entry, field) == event[key], (field, entry, event)
        if event["event"] == "query":
            assert entry.rows == event["rows"], (entry, event)
            assert sum(event["phases"].values()) <= event["duration_ms"], event
        else:
            assert entry.rows == event.get("rowcount"), (entry, event)
    assert [event["event"] for _, event in pairs] == (
        ["query"] * 15 + ["statement"] + ["error"] * 2
    )


# -- source-level guard ---------------------------------------------------------

SRC = pathlib.Path(repro.__file__).parent


def _sites(matches) -> list:
    """``path::Class.function`` of every node under ``src/repro`` that
    ``matches``, read with Python ``ast`` the way ``analysis/lockcheck.py``
    reads code: no imports, no execution."""
    found = []

    def visit(node, path, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = scope + [node.name]
        if matches(node):
            found.append(f"{path}::{'.'.join(scope)}")
        for child in ast.iter_child_nodes(node):
            visit(child, path, scope)

    for file in sorted(SRC.rglob("*.py")):
        visit(ast.parse(file.read_text()), file.relative_to(SRC).as_posix(), [])
    return found


def _named(node, name: str) -> bool:
    return (isinstance(node, ast.Name) and node.id == name) or (
        isinstance(node, ast.Attribute) and node.attr == name
    )


def test_the_record_is_built_in_one_place():
    built = _sites(
        lambda n: isinstance(n, ast.Call) and _named(n.func, "StatementRecord")
    )
    assert built == ["api.py::Database._emit"]


def test_the_statement_context_is_read_by_the_record_and_progress_only():
    reads = _sites(
        lambda n: isinstance(n, ast.Attribute)
        and n.attr == "get"
        and isinstance(n.value, ast.Name)
        and n.value.id in ("current_session", "current_traceparent")
    )
    assert sorted(set(reads)) == [
        "api.py::Database._run",
        "telemetry/record.py::StatementRecord",
    ]
    assert len(reads) == 4


def test_no_hand_fed_statement_sink_is_left():
    gone = re.compile(r"record_(query|statement|error|resource_exhausted)\b")
    left = [
        f"{file.relative_to(SRC)}:{number}"
        for file in sorted(SRC.rglob("*.py"))
        for number, line in enumerate(file.read_text().splitlines(), 1)
        if gone.search(line)
    ]
    assert left == []
