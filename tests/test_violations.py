"""Injected key violations: what they break, and what the engine makes of
them.

:func:`~repro.workloads.violations.inject_violations` breaks TPC-H's keys —
dangling foreign keys, duplicate keys, NULL keys — and
:func:`~repro.workloads.violations.check_constraints` must name every tuple
it broke and nothing on clean data.  Over the broken tables the six
``tpch_cold`` queries must return the rows of ``optimizer=False`` and of the
SQLite oracles, and only the join steps whose key or inclusion broke come
back; the others are still left out.
"""

from __future__ import annotations

import re
import sqlite3

import pytest

from repro import Database
from repro.workloads.tpch import (
    TPCH_QUERIES,
    TPCH_TABLES,
    TpchConfig,
    generate_tpch,
    load_tpch,
    tpch_measures,
)
from repro.workloads.violations import KINDS, check_constraints, inject_violations
from tests.test_differential_tpch import ORACLES, canonical

COLD = [name for name in TPCH_QUERIES if name != "visible_orders_by_region"]


@pytest.fixture(scope="module")
def clean():
    return generate_tpch(TpchConfig(sf=0.001))


def named(violations) -> set:
    return {(v.kind, v.table, v.row, v.constraint) for v in violations}


def test_clean_tables_break_nothing(clean):
    assert check_constraints(clean) == []


@pytest.mark.parametrize("kinds", [(kind,) for kind in KINDS] + [KINDS])
def test_the_check_names_every_injected_tuple(clean, kinds):
    broken, injected = inject_violations(clean, seed=7, ratio=0.01, kinds=kinds)
    assert injected and {v.kind for v in injected} == set(kinds)
    assert named(injected) <= named(check_constraints(broken))
    assert all(len(broken[name]) >= len(rows) for name, rows in clean.items())
    assert check_constraints(clean) == []  # the input is left as it was
    again, _ = inject_violations(clean, seed=7, ratio=0.01, kinds=kinds)
    assert again == broken


def test_each_kind_breaks_what_it_says(clean):
    (row,) = [clean["orders"][0]]
    tables = {"orders": [row]}
    broken, (violation,) = inject_violations(tables, seed=1, ratio=0.5, kinds=["duplicate_key"])
    assert broken["orders"] == [row, row] and violation.row == 1
    assert violation.constraint == "orders(o_orderkey)"
    broken, (violation,) = inject_violations(
        {"nation": clean["nation"][:1]}, seed=1, ratio=0.5, kinds=["dangling_fk"])
    assert broken["nation"][0][2] == -1
    assert violation.constraint == "nation(n_regionkey) -> region(r_regionkey)"
    with pytest.raises(ValueError, match="unknown violation kinds"):
        inject_violations(tables, seed=1, ratio=0.5, kinds=["denial"])


def oracle_connection(tables) -> sqlite3.Connection:
    connection = sqlite3.connect(":memory:")
    for name, columns in TPCH_TABLES.items():
        connection.execute(f"CREATE TABLE {name} ({', '.join(col for col, _ in columns)})")
        connection.executemany(
            f"INSERT INTO {name} VALUES ({', '.join('?' for _ in columns)})",
            [tuple(v.isoformat() if hasattr(v, "isoformat") else v for v in row)
             for row in tables[name]],
        )
    return connection


def measure_database(tables, **options) -> Database:
    db = Database(**options)
    load_tpch(db, tables=tables)
    tpch_measures(db)
    return db


def steps(db: Database, sql: str) -> tuple[int, int]:
    """``(eliminated_steps, unique_steps)`` of the statement's one pipeline."""
    text = db.execute("EXPLAIN ANALYZE " + sql).pretty()
    (eliminated,) = re.findall(r"eliminated_steps=(\d+)", text)
    (unique,) = re.findall(r"unique_steps=(\d+)", text)
    return int(eliminated), int(unique)


#: Per injection — ``(the table broken, kinds)`` — each cold query's
#: ``(eliminated_steps, unique_steps)``.  Clean: partsupp's step goes under
#: the revenue queries; orders, customer, nation and region under margin;
#: customer, nation and region under orders_by_year; and every build side is
#: unique.
CLEAN = {
    "revenue_by_region": (1, 4),
    "revenue_by_region_year": (1, 4),
    "margin_by_returnflag": (4, 1),
    "orders_by_year": (3, 0),
    "revenue_share_by_region": (1, 4),
    "revenue_yoy_by_year": (4, 1),
}
INJECTIONS = {
    # A lineitem pointing at no order, no partsupp: those two steps return,
    # customer, nation and region still go.
    "dangling lineitem": (("lineitem", ("dangling_fk",)), {
        "revenue_by_region": (0, 5),
        "revenue_by_region_year": (0, 5),
        "margin_by_returnflag": (3, 2),
        "revenue_share_by_region": (0, 5),
        "revenue_yoy_by_year": (3, 2),
    }),
    # An order pointing at no customer: customer's step returns, and with it
    # orders', which its key reads.
    "dangling order": (("orders", ("dangling_fk",)), {
        "margin_by_returnflag": (2, 3),
        "orders_by_year": (2, 1),
        "revenue_yoy_by_year": (3, 2),
    }),
    # Two rows of one order: its step is bucketed, so it returns and no
    # longer binds one row.
    "duplicate order": (("orders", ("duplicate_key",)), {
        "revenue_by_region": (1, 3),
        "revenue_by_region_year": (1, 3),
        "margin_by_returnflag": (3, 1),
        "revenue_share_by_region": (1, 3),
        "revenue_yoy_by_year": (4, 0),
    }),
    # NULL customer keys and NULL nation keys: nation's step returns (a NULL
    # matches nothing), and customer's and orders' with it; region's still
    # goes.  Customer's two NULL keys repeat in the hash table's first pass,
    # so its step is bucketed, though no key repeats.
    "NULL customer keys": (("customer", ("null_key",)), {
        "revenue_by_region": (1, 3),
        "revenue_by_region_year": (1, 3),
        "margin_by_returnflag": (1, 3),
        "orders_by_year": (1, 1),
        "revenue_share_by_region": (1, 3),
        "revenue_yoy_by_year": (2, 2),
    }),
}


@pytest.mark.parametrize("injection", INJECTIONS)
def test_only_the_broken_step_comes_back(clean, injection):
    (table, kinds), changed = INJECTIONS[injection]
    broken, injected = inject_violations({table: clean[table]}, seed=3, ratio=0.01, kinds=kinds)
    assert named(injected) <= named(check_constraints({**clean, **broken}))
    tables = {**clean, **broken}
    db, plain = measure_database(tables), measure_database(tables, optimizer=False)
    oracle = oracle_connection(tables)
    for name in COLD:
        sql = TPCH_QUERIES[name]
        rows = db.execute(sql).rows
        assert rows == plain.execute(sql).rows, name
        assert canonical(rows) == canonical(oracle.execute(ORACLES[name]).fetchall()), name
        assert steps(db, sql) == changed.get(name, CLEAN[name]), name


def test_clean_tables_leave_out_what_nobody_reads(clean):
    db = measure_database(clean)
    assert {name: steps(db, TPCH_QUERIES[name]) for name in COLD} == CLEAN
    assert steps(db, TPCH_QUERIES["visible_orders_by_region"]) == (0, 3)
