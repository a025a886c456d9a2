"""Join elimination, checked both ways on every small database.

A pipeline step that nobody reads is left out when the data says it pairs
every probe row with exactly one build row: the build table holds one row
per key and, for ``INNER``, every key of the probe table is among them (an
inclusion dependency into a key; *Equivalence of SQL Queries in Presence of
Embedded Dependencies*).  A dependency-guarded rewrite is checked both
ways: on every database where the dependency holds the step must go, on
every database that violates it the step must stay, and in both cases the
rows must be those of ``optimizer=False`` (binary joins, which emit every
column and so leave no step out) as lists.

The databases: ``S(a, b)`` and ``T(a, b)`` over {NULL, 0, 1}, each any bag of
at most two rows (55 × 55).  Tier-1 runs a fixed-seed sample; ``-m slow``
runs all.  A counterexample prints as the INSERTs that rebuild it.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable

import pytest

from repro import Database

DOMAIN = (None, 0, 1)
ROWS = list(itertools.product(DOMAIN, repeat=2))
#: Every bag of at most two rows of one table: 1 + 9 + 45.
BAGS = [(), *((row,) for row in ROWS)] + list(itertools.combinations_with_replacement(ROWS, 2))
INSTANCES = list(itertools.product(BAGS, repeat=2))


def is_key(rows, columns) -> bool:
    """No two rows share a key wholly non-NULL (NULL keys match nothing)."""
    keys = [tuple(row[c] for c in columns) for row in rows]
    keys = [key for key in keys if None not in key]
    return len(keys) == len(set(keys))


def included(rows, columns, into, into_columns) -> bool:
    """Every row's key is wholly non-NULL and held by some row of ``into``."""
    held = {tuple(row[c] for c in into_columns) for row in into}
    return all(
        None not in key and key in held
        for key in (tuple(row[c] for c in columns) for row in rows)
    )


@dataclass(frozen=True)
class Guarded:
    name: str
    sql: str
    #: ``(S rows, T rows) -> whether the step may go``.
    holds: Callable[[tuple, tuple], bool]


#: Rewrite -> its dependency-guarded templates.
TEMPLATES = {
    "join elimination": [
        Guarded(
            "INNER, S(a) -> T(a)",
            "SELECT S.a, S.b FROM S JOIN T ON S.a = T.a",
            lambda s, t: is_key(t, (0,)) and included(s, (0,), t, (0,)),
        ),
        Guarded(
            "INNER, S(a, b) -> T(a, b)",
            "SELECT S.b FROM S JOIN T ON T.b = S.b AND S.a = T.a",
            lambda s, t: is_key(t, (0, 1)) and included(s, (0, 1), t, (0, 1)),
        ),
        Guarded(
            "INNER, S(b) -> T(a)",
            "SELECT S.a FROM S JOIN T ON S.b = T.a",
            lambda s, t: is_key(t, (0,)) and included(s, (1,), t, (0,)),
        ),
        Guarded(
            "LEFT, T(a) a key",
            "SELECT S.a, S.b FROM S LEFT JOIN T ON S.a = T.a",
            lambda s, t: is_key(t, (0,)),
        ),
        Guarded(
            "T read above the join",
            "SELECT S.a, T.b FROM S JOIN T ON S.a = T.a",
            lambda s, t: False,
        ),
    ],
}


def as_inserts(s, t) -> str:
    def values(rows):
        return ", ".join(
            "(" + ", ".join("NULL" if v is None else str(v) for v in row) + ")" for row in rows
        )

    return "\n".join(
        f"INSERT INTO {name} VALUES {values(rows)};" if rows else f"-- {name} is empty"
        for name, rows in (("S", s), ("T", t))
    )


def check(instance, seen: set) -> None:
    s, t = instance
    db = Database()
    for name, rows in (("S", s), ("T", t)):
        db.create_table_from_rows(name, [("a", "INTEGER"), ("b", "INTEGER")], list(rows))
    for rewrite, templates in TEMPLATES.items():
        for template in templates:
            where = f"{rewrite} / {template.name}: {template.sql}\n{as_inserts(s, t)}"
            holds = template.holds(s, t)
            db.optimizer_enabled = True
            got = db.execute(template.sql).rows
            assert db.last_stats.hash_joins == (0 if holds else 1), where
            db.optimizer_enabled = False
            assert got == db.execute(template.sql).rows, where
            assert db.last_stats.hash_joins == 1, where
            seen.add((template.name, holds))


def check_both_ways(instances) -> None:
    seen: set = set()
    for instance in instances:
        check(instance, seen)
    # Every guarded template went on some database and stayed on another.
    for template in TEMPLATES["join elimination"][:-1]:
        assert {(template.name, True), (template.name, False)} <= seen, template.name


def test_the_databases_are_every_two_bags_of_two_rows():
    assert len(BAGS) == 55 == len(set(BAGS))
    assert len(INSTANCES) == 55 * 55


def test_join_elimination_on_a_sample_of_small_databases():
    check_both_ways(random.Random(42).sample(INSTANCES, 300))


@pytest.mark.slow
def test_join_elimination_on_every_small_database():
    check_both_ways(INSTANCES)
