"""Executable documentation: run every SQL block in docs/TUTORIAL.md in
order and check the blocks annotated with ``-- expect:``."""

from __future__ import annotations

import ast as python_ast
import re
from pathlib import Path

import pytest

from repro import Database

TUTORIAL = Path(__file__).resolve().parent.parent / "docs" / "TUTORIAL.md"

_BLOCK = re.compile(r"```sql\n(.*?)```", re.DOTALL)


def sql_blocks() -> list[str]:
    return _BLOCK.findall(TUTORIAL.read_text())


def parse_expectation(block: str):
    """The ``-- expect:`` line holds space-separated Python tuples."""
    for line in block.splitlines():
        line = line.strip()
        if line.startswith("-- expect:"):
            payload = line[len("-- expect:"):].strip()
            return list(python_ast.literal_eval(f"[{payload.replace(') (', '), (')}]"))
    return None


def test_tutorial_has_blocks():
    blocks = sql_blocks()
    assert len(blocks) >= 10
    assert sum(1 for b in blocks if "-- expect:" in b) >= 8


def test_tutorial_executes_and_matches():
    db = Database()
    for block in sql_blocks():
        expectation = parse_expectation(block)
        results = db.execute_script(block)
        if expectation is None:
            continue
        final = next(r for r in reversed(results) if r.columns)
        actual = [
            tuple(
                round(v, 6) if isinstance(v, float) else
                (v.isoformat() if hasattr(v, "isoformat") else v)
                for v in row
            )
            for row in final.rows
        ]
        expected = [
            tuple(round(v, 6) if isinstance(v, float) else v for v in row)
            for row in expectation
        ]
        assert actual == expected, f"block:\n{block}"


def test_tutorial_mentions_every_paper_section():
    text = TUTORIAL.read_text()
    for section in ("3.1", "3.2", "3.5", "3.6", "5.1", "5.4", "6.3"):
        assert section in text


def test_the_statement_cost_measures_agree_with_the_ring():
    """Section 13's measure view, on a served database with telemetry on:
    mean wall time, max wall time and error rate are each one AGGREGATE()
    at the grain asked for — fingerprint, strategy or session."""
    from repro.errors import SqlError
    from repro.server import SessionManager

    (block,) = [b for b in sql_blocks() if "FROM repro_statements" in b]
    db = Database(telemetry=True)
    db.execute("CREATE TABLE t (g VARCHAR, v INTEGER)")
    db.execute("INSERT INTO t VALUES ('x', 1), ('y', 2), ('x', 3)")
    session = SessionManager(db).open_session()
    for i in range(4):
        session.execute(f"SELECT g, SUM(v) FROM t WHERE v > {i} GROUP BY g")
    for run in (db.execute, session.execute):
        with pytest.raises(SqlError):
            run("SELECT nope FROM t")
    _, *grains = db.execute_script(block)
    # The view's own queries read only system tables: they add no row.
    ring = db.execute(
        "SELECT fingerprint, strategy, session, outcome, wall_ms FROM repro_statements"
    ).rows
    for column, result in enumerate(grains):
        groups: dict = {}
        for row in ring:
            groups.setdefault(row[column], []).append(row)
        expected = {
            key: (
                sum(r[4] for r in rows) / len(rows),
                max(r[4] for r in rows),
                sum(r[3] != "ok" for r in rows) / len(rows),
            )
            for key, rows in groups.items()
        }
        assert len(result.rows) == len(expected) >= 2
        for key, *measures in result.rows:
            assert measures == pytest.approx(expected[key])
