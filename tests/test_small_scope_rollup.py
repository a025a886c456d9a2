"""Summary roll-up, checked on every small database.

The small-scope hypothesis: a rewrite that is wrong is almost always wrong
on some database of two or three rows.  So instead of sampling queries over
one database, this enumerates databases: a table ``T(d1, d2, x)`` over the
domain {NULL, 0, 1} holding every bag of at most two rows (406 databases).
Each carries two summaries at ``(d1, d2)`` — one of plain aggregates, one of
measures of every roll-up class (a distributive ``SUM``, algebraic ones: a
difference, a ratio and an ``AVG``, and a holistic ``COUNT(DISTINCT)``) —
and every template of :data:`TEMPLATES` must be answered by the summary it
names (or by none), through EXPLAIN, with the rows the same query returns
with summaries off: equal as bags, or as lists under ORDER BY.  The INSERT
merge is checked the same way: one more row, and the summary over ``T``
must stay fresh and hold, as a bag, what REFRESH computes.  A
counterexample prints as the INSERTs that rebuild it.

Tier-1 runs a fixed-seed sample of the databases; ``-m slow`` runs all.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass
from typing import Optional

import pytest

from repro import Database

DOMAIN = (None, 0, 1)
ROWS = list(itertools.product(DOMAIN, repeat=3))
#: Every bag of at most two rows: 1 + 27 + 378 databases.
INSTANCES = [(), *((row,) for row in ROWS)] + list(
    itertools.combinations_with_replacement(ROWS, 2)
)

SETUP = (
    "CREATE VIEW tm AS SELECT d1, d2, SUM(x) AS MEASURE sx, "
    "MAX(x) - MIN(x) AS MEASURE spread, "
    "SAFE_DIVIDE(SUM(x), COUNT(*)) AS MEASURE ratio, AVG(x) AS MEASURE ax, "
    "COUNT(DISTINCT x) AS MEASURE kinds FROM T",
    "CREATE MATERIALIZED VIEW tp AS SELECT d1, d2, SUM(x) AS s, COUNT(*) AS n, "
    "COUNT(x) AS nx, MIN(x) AS lo, MAX(x) AS hi, AVG(x) AS av "
    "FROM T GROUP BY d1, d2",
    "CREATE MATERIALIZED VIEW tms AS SELECT d1, d2, AGGREGATE(sx) AS sx, "
    "AGGREGATE(spread) AS spread, AGGREGATE(ratio) AS ratio, "
    "AGGREGATE(ax) AS ax, AGGREGATE(kinds) AS kinds FROM tm GROUP BY d1, d2",
)


@dataclass(frozen=True)
class Template:
    name: str
    sql: str
    #: The summary EXPLAIN must say answers the query; None: none may.
    answered_by: Optional[str]


#: Rewrite -> the queries it must fire on, or must refuse.  This file holds
#: the summary roll-up's entry.
TEMPLATES = {
    "summary roll-up": [
        Template(
            "subset grain",
            "SELECT d1, SUM(x), COUNT(*), COUNT(x), MIN(x), MAX(x), AVG(x) "
            "FROM T GROUP BY d1",
            "tp",
        ),
        Template(
            "global grain",
            "SELECT SUM(x), COUNT(*), COUNT(x), MIN(x), MAX(x), AVG(x) FROM T",
            "tp",
        ),
        Template("ordinal GROUP BY", "SELECT d2, SUM(x) FROM T GROUP BY 1", "tp"),
        Template(
            "alias GROUP BY", "SELECT d2 AS k, COUNT(x) AS c FROM T GROUP BY k", "tp"
        ),
        Template(
            "residual WHERE on a dimension",
            "SELECT d1, SUM(x), MIN(x) FROM T WHERE d2 IS NULL GROUP BY d1",
            "tp",
        ),
        Template(
            "WHERE on a non-dimension",
            "SELECT d1, SUM(x) FROM T WHERE x = 1 GROUP BY d1",
            None,
        ),
        Template(
            "HAVING",
            "SELECT d1, SUM(x) FROM T GROUP BY d1 HAVING COUNT(*) > 1",
            "tp",
        ),
        Template(
            "hidden ORDER BY key",
            "SELECT SUM(x) AS s FROM T GROUP BY d1 ORDER BY d1",
            "tp",
        ),
        Template("measure, subset grain", "SELECT d2, sx FROM tm GROUP BY d2", "tms"),
        Template(
            "residual WHERE, bare measure",
            "SELECT d1, sx FROM tm WHERE d2 = 0 GROUP BY d1",
            None,
        ),
        Template(
            "residual WHERE, AGGREGATE",
            "SELECT d1, AGGREGATE(sx) FROM tm WHERE d2 = 0 GROUP BY d1",
            "tms",
        ),
        Template(
            "algebraic, exact grain",
            "SELECT d1, d2, AGGREGATE(spread) FROM tm GROUP BY d2, d1",
            "tms",
        ),
        Template(
            "algebraic, coarser grain",
            "SELECT d1, AGGREGATE(spread) FROM tm GROUP BY d1",
            "tms",
        ),
        Template(
            "ratio and AVG, subset grain",
            "SELECT d2, AGGREGATE(ratio), AGGREGATE(ax) FROM tm GROUP BY d2",
            "tms",
        ),
        Template(
            "ratio and AVG, global grain",
            "SELECT AGGREGATE(ratio), AGGREGATE(ax), AGGREGATE(spread) FROM tm",
            "tms",
        ),
        Template(
            "ratio, residual WHERE",
            "SELECT d1, AGGREGATE(ratio) FROM tm WHERE d2 = 1 GROUP BY d1",
            "tms",
        ),
        Template(
            "holistic, exact grain",
            "SELECT d1, d2, AGGREGATE(kinds) FROM tm GROUP BY d1, d2",
            "tms",
        ),
        Template(
            "holistic, coarser grain",
            "SELECT d1, AGGREGATE(kinds) FROM tm GROUP BY d1",
            None,
        ),
    ],
}


def build(rows) -> Database:
    db = Database()
    db.create_table_from_rows(
        "T", [("d1", "INTEGER"), ("d2", "INTEGER"), ("x", "INTEGER")], list(rows)
    )
    for ddl in SETUP:
        db.execute(ddl)
    return db


def as_inserts(rows) -> str:
    if not rows:
        return "-- T is empty"
    values = ", ".join(
        "(" + ", ".join("NULL" if v is None else str(v) for v in row) + ")"
        for row in rows
    )
    return f"INSERT INTO T VALUES {values};"


def answered_by(db: Database, sql: str) -> Optional[str]:
    prefix = "summary: answered from materialized view "
    for (line,) in db.execute(f"EXPLAIN {sql}").rows:
        if line.startswith(prefix):
            return line[len(prefix):]
    return None


def check(rows) -> None:
    db = build(rows)
    for rewrite, templates in TEMPLATES.items():
        for template in templates:
            where = f"{rewrite} / {template.name}: {template.sql}\n{as_inserts(rows)}"
            assert answered_by(db, template.sql) == template.answered_by, where
            got = db.execute(template.sql).rows
            db.summaries_enabled = False
            want = db.execute(template.sql).rows
            db.summaries_enabled = True
            if "ORDER BY" not in template.sql:
                got, want = Counter(got), Counter(want)
            assert got == want, where


def test_the_databases_are_every_bag_of_two_rows():
    assert len(INSTANCES) == 406 == len(set(INSTANCES))


def check_merge(rows, row) -> None:
    """INSERT ``row``: ``tp`` merges it and holds what REFRESH computes."""
    db = Database()
    db.create_table_from_rows(
        "T", [("d1", "INTEGER"), ("d2", "INTEGER"), ("x", "INTEGER")], list(rows)
    )
    db.execute(SETUP[1])
    db.execute(as_inserts([row]))
    where = f"{as_inserts(rows)}\nthen {as_inserts([row])}"
    stats = db.summary_stats()["tp"]
    assert not stats["stale"] and stats["incremental_merges"] == 1, where
    merged = Counter(db.catalog.get("tp").table.rows)
    db.execute("REFRESH MATERIALIZED VIEW tp")
    assert merged == Counter(db.catalog.get("tp").table.rows), where


def test_the_databases_are_every_bag_of_two_rows():
    assert len(INSTANCES) == 406 == len(set(INSTANCES))


def test_the_summaries_store_every_rollup_kind():
    db = build(())
    kinds = {
        (name, measure.name): db.catalog.get(name).definition.rollup(measure)
        for name in ("tp", "tms")
        for measure in db.catalog.get(name).definition.measures
    }
    assert kinds == {
        **{("tp", m): "distributive" for m in ("s", "n", "nx", "lo", "hi")},
        ("tp", "av"): "algebraic",
        ("tms", "sx"): "distributive",
        **{("tms", m): "algebraic" for m in ("spread", "ratio", "ax")},
        ("tms", "kinds"): "exact grain",
    }
    # A state is stored once; only those that are no item's value are hidden.
    assert [c.name for c in db.catalog.get("tp").schema.columns] == [
        "d1", "d2", "s", "n", "nx", "lo", "hi", "av",
    ]
    assert [s.column for s in db.catalog.get("tms").definition.states] == [
        "sx", "__spread_max", "__spread_min", "__ratio_count", "__ax_count",
    ]


def test_rollup_on_a_sample_of_small_databases():
    for rows in [(), *random.Random(406).sample(INSTANCES, 100)]:
        check(rows)


def test_insert_merge_on_a_sample_of_small_databases():
    pairs = list(itertools.product(INSTANCES, ROWS))
    for rows, row in random.Random(27).sample(pairs, 300):
        check_merge(rows, row)


@pytest.mark.slow
def test_rollup_on_every_small_database():
    for rows in INSTANCES:
        check(rows)


@pytest.mark.slow
def test_insert_merge_on_every_small_database():
    for rows in INSTANCES:
        for row in ROWS:
            check_merge(rows, row)
