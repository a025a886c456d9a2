"""CLI shell tests (driven through the Shell object, no TTY needed)."""

from __future__ import annotations

import io

import pytest

from repro import Database
from repro.cli import Shell


@pytest.fixture
def shell():
    out = io.StringIO()
    return Shell(Database(), out=out), out


def feed(shell: Shell, *lines: str) -> None:
    for line in lines:
        shell.handle_line(line)


def test_simple_statement(shell):
    sh, out = shell
    feed(sh, "SELECT 1 + 1 AS two;")
    text = out.getvalue()
    assert "two" in text
    assert "2" in text
    assert "(1 rows)" in text


def test_multiline_statement_buffers(shell):
    sh, out = shell
    feed(sh, "SELECT", "1 AS x", ";")
    assert "x" in out.getvalue()


def test_prompt_changes_while_buffering(shell):
    sh, _ = shell
    assert sh.prompt == "repro=> "
    sh.handle_line("SELECT")
    assert sh.prompt == "   ...> "


def test_error_is_reported_not_raised(shell):
    sh, out = shell
    feed(sh, "SELECT nope FROM nowhere;")
    assert "error:" in out.getvalue()


def test_quit_returns_false(shell):
    sh, _ = shell
    assert sh.handle_line("\\q") is False


def test_help(shell):
    sh, out = shell
    feed(sh, "\\?")
    assert "\\expand" in out.getvalue()


def test_demo_and_list(shell):
    sh, out = shell
    feed(sh, "\\demo", "\\d")
    text = out.getvalue()
    assert "Customers" in text and "Orders" in text


def test_describe_table(shell):
    sh, out = shell
    feed(sh, "\\demo", "\\d Orders")
    text = out.getvalue()
    assert "prodName" in text
    assert "(5 rows)" in text


def test_describe_view_shows_measures(shell):
    sh, out = shell
    feed(
        sh,
        "\\demo",
        "CREATE VIEW eo AS SELECT prodName, SUM(revenue) AS MEASURE r FROM Orders;",
        "\\d eo",
    )
    text = out.getvalue()
    assert "measure" in text
    assert "INTEGER MEASURE" in text


def test_describe_view_uses_its_column_list(shell):
    sh, out = shell
    feed(
        sh,
        "\\demo",
        "CREATE VIEW v2 (p, rev) AS "
        "SELECT prodName, SUM(revenue) AS MEASURE r FROM Orders;",
        "\\d v2",
    )
    lines = out.getvalue().splitlines()
    start = lines.index("view v2")
    assert [line.split()[0] for line in lines[start + 1 :]] == ["p", "rev"]


def test_describe_unknown(shell):
    sh, out = shell
    feed(sh, "\\d nothing")
    assert "error:" in out.getvalue()


def test_timing_toggle(shell):
    sh, out = shell
    feed(sh, "\\timing", "SELECT 1;")
    text = out.getvalue()
    assert "timing on" in text
    assert "time:" in text


def test_expand_meta(shell):
    sh, out = shell
    feed(
        sh,
        "\\demo",
        "CREATE VIEW eo AS SELECT prodName, SUM(revenue) AS MEASURE r FROM Orders;",
        "\\expand SELECT prodName, AGGREGATE(r) FROM eo GROUP BY prodName;",
    )
    assert "IS NOT DISTINCT FROM" in out.getvalue()


def test_load_csv(shell, tmp_path):
    sh, out = shell
    path = tmp_path / "x.csv"
    path.write_text("a,b\n1,one\n2,two\n")
    feed(sh, f"\\load stuff {path}", "SELECT COUNT(*) FROM stuff;")
    text = out.getvalue()
    assert "loaded 2 rows" in text


def test_script_file(shell, tmp_path):
    sh, out = shell
    script = tmp_path / "s.sql"
    script.write_text("CREATE TABLE t (a INTEGER); INSERT INTO t VALUES (5); SELECT a FROM t;")
    sh.run_script_file(str(script))
    assert "5" in out.getvalue()


def test_unknown_meta(shell):
    sh, out = shell
    feed(sh, "\\bogus")
    assert "unknown command" in out.getvalue()


def test_multiple_statements_one_line(shell):
    sh, out = shell
    feed(sh, "CREATE TABLE t (a INTEGER); INSERT INTO t VALUES (1); SELECT a FROM t;")
    assert "(1 rows)" in out.getvalue()


def test_top_idle(shell):
    sh, out = shell
    feed(sh, "\\top")
    assert "(no running queries)" in out.getvalue()


def test_top_bad_argument(shell):
    sh, out = shell
    feed(sh, "\\top soon")
    assert "usage: \\top [N]" in out.getvalue()


def test_top_shows_running_query():
    import threading
    import time

    out = io.StringIO()
    db = Database(track_progress=True)
    sh = Shell(db, out=out)
    feed(sh, "CREATE TABLE big (x INTEGER);")
    values = ", ".join(f"({i})" for i in range(300))
    feed(sh, f"INSERT INTO big VALUES {values};")

    def slow_join():
        db.execute(
            "SELECT COUNT(*) FROM big AS a JOIN big AS b ON a.x >= 0"
        )

    thread = threading.Thread(target=slow_join)
    thread.start()
    try:
        saw_query = False
        deadline = time.monotonic() + 10
        while thread.is_alive() and time.monotonic() < deadline:
            sh.show_top("1")
            if "Join" in out.getvalue() or "Scan" in out.getvalue():
                saw_query = True
                break
            time.sleep(0.005)
    finally:
        thread.join(timeout=30)
    # The join is fast enough that a poll can miss it on a loaded runner;
    # the shell must at least have produced the header or the idle line.
    text = out.getvalue()
    if saw_query:
        assert "elapsed ms" in text
        assert "SELECT COUNT(*) FROM big" in text
    else:
        assert "(no running queries)" in text


# -- \analyze, \record, \watch ------------------------------------------------


def test_analyze_command(shell):
    sh, out = shell
    feed(sh, "CREATE TABLE t (x INTEGER);", "INSERT INTO t VALUES (1), (2);")
    sh.handle_meta("\\analyze t")
    assert "analyzed t: 2 rows, 1 columns" in out.getvalue()
    feed(sh, "SELECT table_name, row_count FROM repro_table_stats;")
    assert "(1 rows)" in out.getvalue()


def test_analyze_all_and_errors(shell):
    sh, out = shell
    sh.handle_meta("\\analyze")
    assert "(no tables to analyze)" in out.getvalue()
    sh.handle_meta("\\analyze missing")
    assert "error:" in out.getvalue()


def test_record_command_round_trip(shell, tmp_path):
    from repro.history import read_journal

    sh, out = shell
    path = str(tmp_path / "cli.jsonl")
    sh.handle_meta(f"\\record {path}")
    assert f"recording to {path}" in out.getvalue()
    feed(sh, "CREATE TABLE t (x INTEGER);", "INSERT INTO t VALUES (1);")
    sh.handle_meta("\\record")  # status line while active
    sh.handle_meta("\\record off")
    assert "stopped recording" in out.getvalue()
    _, entries = read_journal(path)
    assert [e.kind for e in entries] == ["create_table", "insert"]
    # Recording again after stop opens a fresh journal.
    sh.handle_meta("\\record off")
    assert "not recording" in out.getvalue()


def test_record_refuses_double_start(shell, tmp_path):
    sh, out = shell
    sh.handle_meta(f"\\record {tmp_path / 'a.jsonl'}")
    sh.handle_meta(f"\\record {tmp_path / 'b.jsonl'}")
    assert "already recording" in out.getvalue()
    sh.handle_meta("\\record off")


def test_watch_reruns_until_interrupted(shell, monkeypatch):
    import time as time_module

    sh, out = shell
    feed(sh, "CREATE TABLE t (x INTEGER);", "INSERT INTO t VALUES (1);")
    sleeps = []

    def fake_sleep(seconds):
        sleeps.append(seconds)
        if len(sleeps) >= 3:
            raise KeyboardInterrupt

    monkeypatch.setattr(time_module, "sleep", fake_sleep)
    sh.do_watch("0.5 SELECT COUNT(*) FROM t")
    text = out.getvalue()
    assert "-- watch #3" in text
    assert "\\watch stopped after 3 runs" in text
    assert sleeps == [0.5, 0.5, 0.5]


def test_watch_default_interval_and_usage(shell, monkeypatch):
    import time as time_module

    sh, out = shell
    feed(sh, "CREATE TABLE t (x INTEGER);")
    monkeypatch.setattr(
        time_module,
        "sleep",
        lambda s: (_ for _ in ()).throw(KeyboardInterrupt),
    )
    sh.do_watch("SELECT COUNT(*) FROM t")
    assert "stopped after 1 runs" in out.getvalue()
    sh.do_watch("")
    assert "usage: \\watch" in out.getvalue()


def test_help_lists_new_commands(shell):
    sh, out = shell
    feed(sh, "\\?")
    text = out.getvalue()
    assert "\\analyze" in text
    assert "\\record" in text
    assert "\\watch" in text
    assert "window" in text
