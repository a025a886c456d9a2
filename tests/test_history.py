"""The workload flight recorder: journal format, recording, and replay.

Covers the tentpole's determinism contract — record through any entry
point (Database API, server session, prepared statements), replay
against a fresh database, and require byte-identical results — plus the
edge cases the journal must preserve faithfully: typed bind parameters,
errored statements (replayed *as* errors), cancelled statements
(skipped), and the expansion-strategy routing.
"""

from __future__ import annotations

import json
from datetime import date, datetime
from decimal import Decimal

import pytest

from repro.api import Database
from repro.errors import QueryCancelled, SqlError
from repro.history import (
    JOURNAL_SCHEMA,
    JournalWriter,
    build_bootstrap_database,
    read_journal,
    replay_journal,
    result_digest,
)
from repro.history.__main__ import main as history_main
from repro.history.journal import decode_params, encode_params
from repro.server import ServerThread, SessionManager, connect
from repro.telemetry import StatementRecord


def journal_path(tmp_path) -> str:
    return str(tmp_path / "journal.jsonl")


# -- the journal file itself --------------------------------------------------


class TestJournalFormat:
    def test_header_carries_schema_and_bootstrap(self, tmp_path):
        path = journal_path(tmp_path)
        JournalWriter(path, bootstrap="paper").close()
        header, entries = read_journal(path)
        assert header["schema"] == JOURNAL_SCHEMA
        assert header["bootstrap"] == "paper"
        assert entries == []

    def test_foreign_schema_rejected(self, tmp_path):
        path = journal_path(tmp_path)
        with open(path, "w") as handle:
            handle.write(json.dumps({"schema": "something-else"}) + "\n")
        with pytest.raises(ValueError):
            read_journal(path)

    def test_empty_file_rejected(self, tmp_path):
        path = journal_path(tmp_path)
        open(path, "w").close()
        with pytest.raises(ValueError):
            read_journal(path)

    def test_entries_get_monotonic_seqs(self, tmp_path):
        path = journal_path(tmp_path)
        with JournalWriter(path) as writer:
            for i in range(5):
                writer.record(StatementRecord(sql=f"SELECT {i}"))
        _, entries = read_journal(path)
        assert [e.seq for e in entries] == [1, 2, 3, 4, 5]

    def test_typed_params_round_trip(self):
        params = (
            1,
            "text",
            None,
            2.5,
            date(2024, 3, 1),
            datetime(2024, 3, 1, 12, 30, 45),
            Decimal("3.50"),
        )
        encoded = encode_params(params)
        # The encoding must be plain JSON (the journal is JSON lines).
        json.dumps(encoded)
        assert decode_params(encoded) == params
        assert isinstance(decode_params(encoded)[-1], Decimal)

    def test_outcomes_ok_error_cancelled(self, tmp_path):
        path = journal_path(tmp_path)
        with JournalWriter(path) as writer:
            writer.record(StatementRecord(sql="SELECT 1"))
            writer.record(
                StatementRecord(sql="SELECT broken", error=SqlError("no"))
            )
            writer.record(
                StatementRecord(sql="SELECT slow", error=QueryCancelled("stop"))
            )
        _, entries = read_journal(path)
        assert [e.outcome for e in entries] == ["ok", "error", "cancelled"]
        assert entries[1].error["class"] == "SqlError"


# -- recording through the Database API --------------------------------------


class TestDatabaseRecording:
    def test_record_to_journals_ddl_dml_and_queries(self, tmp_path):
        path = journal_path(tmp_path)
        db = Database(record_to=path)
        db.execute("CREATE TABLE t (x INTEGER)")
        db.execute("INSERT INTO t VALUES (?), (?)", (1, 2))
        db.execute("SELECT x FROM t ORDER BY x")
        db.recorder.close()
        _, entries = read_journal(path)
        assert [e.kind for e in entries] == [
            "create_table",
            "insert",
            "select",
        ]
        assert entries[1].params == (1, 2)
        assert entries[2].digest is not None

    def test_recording_identical_with_telemetry_on_and_off(self, tmp_path):
        def run(telemetry: bool, name: str) -> list:
            path = str(tmp_path / name)
            db = Database(telemetry=telemetry, record_to=path)
            db.execute("CREATE TABLE t (x INTEGER)")
            db.execute("INSERT INTO t VALUES (1), (2), (3)")
            db.execute("SELECT SUM(x) FROM t")
            db.recorder.close()
            _, entries = read_journal(path)
            return [(e.sql, e.outcome, e.digest) for e in entries]

        assert run(False, "off.jsonl") == run(True, "on.jsonl")

    def test_errors_recorded_and_replayed_as_errors(self, tmp_path):
        path = journal_path(tmp_path)
        db = Database(record_to=path)
        db.execute("CREATE TABLE t (x INTEGER)")
        with pytest.raises(SqlError):
            db.execute("SELECT nope FROM t")
        with pytest.raises(SqlError):
            db.execute("INSERT INTO missing VALUES (1)")
        db.recorder.close()
        _, entries = read_journal(path)
        assert [e.outcome for e in entries] == ["ok", "error", "error"]
        report = replay_journal(path, diff=True)
        assert report.clean
        assert report.errors_reproduced == 2

    @pytest.mark.parametrize("telemetry", [False, True])
    def test_parse_errors_journal_and_reproduce(self, tmp_path, telemetry):
        """A statement that does not parse is part of the workload for the
        direct API too, exactly as it is for a session."""
        path = journal_path(tmp_path)
        db = Database(telemetry=telemetry, record_to=path)
        with pytest.raises(SqlError):
            db.execute("SELEC 1")
        db.execute("SELECT 1")
        db.recorder.close()
        _, entries = read_journal(path)
        assert [(e.sql, e.outcome) for e in entries] == [
            ("SELEC 1", "error"),
            ("SELECT 1", "ok"),
        ]
        assert entries[0].error["class"] == "ParseError"
        assert entries[0].kind is None and entries[0].fingerprint is None
        report = replay_journal(path, diff=True)
        assert report.clean and report.errors_reproduced == 1

    def test_replay_diverges_when_error_becomes_success(self, tmp_path):
        """A statement recorded as an error but succeeding on replay is a
        divergence, not a silent pass."""
        path = journal_path(tmp_path)
        db = Database(record_to=path)
        with pytest.raises(SqlError):
            db.execute("SELECT * FROM t")  # t does not exist yet
        db.recorder.close()
        # Rewrite the journal so replay sees a CREATE first: the SELECT
        # then succeeds where the recording failed.
        with open(path) as handle:
            lines = handle.read().splitlines()
        entry = json.loads(lines[1])
        fixed = dict(entry, sql="CREATE TABLE t (x INTEGER)", seq=1)
        fixed["outcome"] = "ok"
        fixed["error"] = None
        lines.insert(1, json.dumps(fixed, sort_keys=True))
        with open(path, "w") as handle:
            handle.write("\n".join(lines) + "\n")
        report = replay_journal(path, diff=True)
        assert not report.clean
        assert any("outcome" in d.reason for d in report.divergences)

    def test_cancelled_entries_are_skipped_on_replay(self, tmp_path):
        path = journal_path(tmp_path)
        with JournalWriter(path) as writer:
            writer.record(
                StatementRecord(sql="SELECT 1", error=QueryCancelled("client"))
            )
            writer.record(StatementRecord(sql="SELECT 2"))
        report = replay_journal(path, diff=True)
        assert report.clean
        assert report.skipped_cancelled == 1
        assert report.replayed == 1


# -- recording through the server/session layer ------------------------------


class TestServerRecording:
    def test_session_statements_and_prepared_params_journal(self, tmp_path):
        path = journal_path(tmp_path)
        db = Database(telemetry=True, record_to=path)
        manager = SessionManager(db)
        session = manager.open_session()
        session.execute("CREATE TABLE t (x INTEGER)")
        session.execute("INSERT INTO t VALUES (?), (?), (?)", (1, 2, 3))
        handle = session.prepare("SELECT x FROM t WHERE x > ? ORDER BY x")
        session.execute_prepared(handle, (1,))
        session.execute_prepared(handle, (2,))
        session.close()
        db.recorder.close()
        _, entries = read_journal(path)
        selects = [e for e in entries if e.kind == "select"]
        assert [e.params for e in selects] == [(1,), (2,)]
        assert all(e.session == session.id for e in entries)
        report = replay_journal(path, diff=True)
        assert report.clean
        assert report.replayed == 4

    def test_parse_errors_journal_and_reproduce(self, tmp_path):
        path = journal_path(tmp_path)
        db = Database(telemetry=True, record_to=path)
        manager = SessionManager(db)
        session = manager.open_session()
        with pytest.raises(SqlError):
            session.execute("SELEC nope")
        session.close()
        db.recorder.close()
        _, entries = read_journal(path)
        assert entries[0].outcome == "error"
        report = replay_journal(path, diff=True)
        assert report.clean and report.errors_reproduced == 1

    def test_tcp_roundtrip_records_traceparent_and_replays(self, tmp_path):
        path = journal_path(tmp_path)
        db = Database(telemetry=True, record_to=path)
        trace = "00-" + "ab" * 16 + "-" + "cd" * 8 + "-01"
        with ServerThread(db) as server:
            host, port = server.server.host, server.server.port
            with connect(host, port) as conn:
                conn.query("CREATE TABLE t (x INTEGER)")
                conn.query("INSERT INTO t VALUES (1), (2)")
                conn.query("SELECT SUM(x) FROM t", traceparent=trace)
        db.recorder.close()
        _, entries = read_journal(path)
        assert entries[-1].traceparent == trace
        assert replay_journal(path, diff=True).clean


# -- expansion strategies -----------------------------------------------------


class TestStrategyReplay:
    #: Every expansion strategy listing12_q4 supports (inline requires a
    #: plain aggregate shape — covered separately on listing 4).
    STRATEGIES = ("subquery", "window", "auto")

    def test_paper_listing_replays_under_every_strategy(self, tmp_path):
        from repro.workloads.listings import LISTINGS

        path = journal_path(tmp_path)
        db = build_bootstrap_database("paper")
        db.recorder = JournalWriter(path, bootstrap="paper")
        sql = LISTINGS["listing12_q4"]
        rows = None
        for strategy in self.STRATEGIES:
            result = db.execute_with_strategy(sql, strategy=strategy)
            if rows is None:
                rows = result.rows
            assert result.rows == rows  # strategies agree before replay
        db.recorder.close()
        _, entries = read_journal(path)
        assert [e.strategy for e in entries] == list(self.STRATEGIES)
        report = replay_journal(path, diff=True)
        assert report.clean
        assert report.replayed == len(self.STRATEGIES)

    def test_inline_strategy_records_and_replays(self, tmp_path):
        from repro.workloads.listings import LISTINGS

        path = journal_path(tmp_path)
        db = build_bootstrap_database("listings")
        db.recorder = JournalWriter(path, bootstrap="listings")
        sql = LISTINGS["listing4"]
        inline = db.execute_with_strategy(sql, strategy="inline")
        subquery = db.execute_with_strategy(sql, strategy="subquery")
        assert inline.rows == subquery.rows
        db.recorder.close()
        _, entries = read_journal(path)
        assert [e.strategy for e in entries] == ["inline", "subquery"]
        assert replay_journal(path, diff=True).clean

    def test_unsupported_strategy_records_the_error(self, tmp_path):
        """A strategy that rejects the query (inline on a non-aggregate
        listing) journals the failure and replays it as the same error."""
        from repro.workloads.listings import LISTINGS

        path = journal_path(tmp_path)
        db = build_bootstrap_database("paper")
        db.recorder = JournalWriter(path, bootstrap="paper")
        with pytest.raises(SqlError):
            db.execute_with_strategy(
                LISTINGS["listing12_q4"], strategy="inline"
            )
        db.recorder.close()
        report = replay_journal(path, diff=True)
        assert report.clean and report.errors_reproduced == 1

    def test_strategy_stats_accumulate_distinct_rows(self, tmp_path):
        """One listing under four strategies -> four repro_stat_statements
        rows for one fingerprint, each with its own timing history."""
        from repro.workloads.listings import LISTINGS

        db = build_bootstrap_database("paper", telemetry=True)
        sql = LISTINGS["listing12_q4"]
        for strategy in self.STRATEGIES:
            db.execute_with_strategy(sql, strategy=strategy)
            db.execute_with_strategy(sql, strategy=strategy)
        rows = db.execute(
            "SELECT strategy, calls FROM repro_stat_statements "
            "ORDER BY strategy"
        ).rows
        by_strategy = {s: c for s, c in rows}
        for strategy in self.STRATEGIES:
            assert by_strategy[strategy] == 2
        stats = db.stat_statements()
        fingerprints = {e["fingerprint"] for e in stats if e["strategy"] in self.STRATEGIES}
        assert len(fingerprints) == 1  # same statement, four strategies
        for entry in stats:
            if entry["strategy"] in self.STRATEGIES:
                assert entry["total_wall_ms"] > 0.0
                assert entry["min_wall_ms"] <= entry["mean_wall_ms"] <= entry["max_wall_ms"]

    def test_strategy_errors_replay_as_errors(self, tmp_path):
        path = journal_path(tmp_path)
        db = build_bootstrap_database("paper")
        db.recorder = JournalWriter(path, bootstrap="paper")
        with pytest.raises(SqlError):
            db.execute_with_strategy(
                "SELECT missing FROM Orders", strategy="window"
            )
        db.recorder.close()
        report = replay_journal(path, diff=True)
        assert report.clean and report.errors_reproduced == 1


# -- bootstraps and the CLI ---------------------------------------------------


class TestReplayCli:
    def test_bootstrap_modes(self):
        assert build_bootstrap_database(None).table_names() == []
        paper = build_bootstrap_database("paper")
        assert "orders" in [n.lower() for n in paper.table_names()]
        listings = build_bootstrap_database("listings")
        names = [n.lower() for n in listings.table_names()]
        assert "enhancedorders" in names
        with pytest.raises(ValueError):
            build_bootstrap_database("wat")

    def test_clean_journal_exits_zero(self, tmp_path, capsys):
        path = journal_path(tmp_path)
        db = Database(record_to=path)
        db.execute("CREATE TABLE t (x INTEGER)")
        db.execute("INSERT INTO t VALUES (1)")
        db.execute("SELECT * FROM t")
        db.recorder.close()
        assert history_main(["replay", path, "--diff"]) == 0
        assert "byte-identical" in capsys.readouterr().out

    def test_injected_mismatch_exits_nonzero(self, tmp_path, capsys):
        path = journal_path(tmp_path)
        db = Database(record_to=path)
        db.execute("CREATE TABLE t (x INTEGER)")
        db.execute("INSERT INTO t VALUES (1)")
        db.execute("SELECT * FROM t")
        db.recorder.close()
        with open(path) as handle:
            lines = handle.read().splitlines()
        entry = json.loads(lines[-1])
        entry["digest"] = "0" * 64
        lines[-1] = json.dumps(entry, sort_keys=True)
        with open(path, "w") as handle:
            handle.write("\n".join(lines) + "\n")
        assert history_main(["replay", path, "--diff"]) == 1
        assert "result bytes changed" in capsys.readouterr().out

    def test_unreadable_journal_exits_two(self, tmp_path):
        assert history_main(["replay", str(tmp_path / "nope.jsonl")]) == 2

    def test_show_prints_entries(self, tmp_path, capsys):
        path = journal_path(tmp_path)
        db = Database(record_to=path)
        db.execute("CREATE TABLE t (x INTEGER)")
        db.recorder.close()
        assert history_main(["show", path]) == 0
        out = capsys.readouterr().out
        assert "CREATE TABLE" in out and JOURNAL_SCHEMA in out

    def test_result_digest_is_order_sensitive(self):
        db = Database()
        db.execute("CREATE TABLE t (x INTEGER)")
        db.execute("INSERT INTO t VALUES (1), (2)")
        asc = result_digest(db.execute("SELECT x FROM t ORDER BY x"))
        desc = result_digest(db.execute("SELECT x FROM t ORDER BY x DESC"))
        assert asc != desc
        again = result_digest(db.execute("SELECT x FROM t ORDER BY x"))
        assert asc == again
