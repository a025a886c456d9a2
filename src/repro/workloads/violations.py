"""Key and foreign-key violations injected into TPC-H tables, and the check
that names them.

:func:`generate_tpch` keeps TPC-H's keys by construction.
:func:`inject_violations` breaks them on purpose — a dangling foreign key, a
duplicate key, a NULL key — and :func:`check_constraints` names every tuple
that breaks one, clean data naming none.  What the engine decides from the
data (a unique build side, a join step left out) is tested against both.
The denial constraints on dates and prices are not covered.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable

from repro.workloads.tpch import TPCH_TABLES

__all__ = [
    "KINDS",
    "TPCH_FOREIGN_KEYS",
    "TPCH_KEYS",
    "Violation",
    "check_constraints",
    "inject_violations",
]

#: TPC-H's primary keys: table -> key columns (offsets into a row).
TPCH_KEYS: dict[str, tuple[int, ...]] = {
    "region": (0,),
    "nation": (0,),
    "supplier": (0,),
    "part": (0,),
    "partsupp": (0, 1),
    "customer": (0,),
    "orders": (0,),
    "lineitem": (0, 3),
}

#: TPC-H's foreign keys: ``(table, columns, referenced table)``, the
#: referenced columns being that table's key.
TPCH_FOREIGN_KEYS: tuple[tuple[str, tuple[int, ...], str], ...] = (
    ("nation", (2,), "region"),
    ("supplier", (3,), "nation"),
    ("customer", (3,), "nation"),
    ("partsupp", (0,), "part"),
    ("partsupp", (1,), "supplier"),
    ("orders", (1,), "customer"),
    ("lineitem", (0,), "orders"),
    ("lineitem", (1, 2), "partsupp"),
    ("lineitem", (1,), "part"),
    ("lineitem", (2,), "supplier"),
)

KINDS = ("dangling_fk", "duplicate_key", "null_key")
#: Kind -> whether it breaks keys (True), foreign keys (False) or both (None).
_APPLIES = {"dangling_fk": False, "duplicate_key": True, "null_key": None}


@dataclass(frozen=True)
class Violation:
    """Row ``row`` of ``table`` breaks ``constraint`` (``"orders(o_orderkey)"``
    for a key, ``"orders(o_custkey) -> customer(c_custkey)"`` for a foreign
    key) this ``kind`` of way."""

    kind: str
    table: str
    row: int
    constraint: str


def _key_name(table: str) -> str:
    return _columns(table, TPCH_KEYS[table])


def _fk_name(table: str, columns: tuple, referenced: str) -> str:
    return f"{_columns(table, columns)} -> {_key_name(referenced)}"


def _columns(table: str, columns: tuple) -> str:
    names = [TPCH_TABLES[table][column][0] for column in columns]
    return f"{table}({', '.join(names)})"


def check_constraints(tables: dict[str, list[tuple]]) -> list[Violation]:
    """Every tuple of ``tables`` that breaks a TPC-H key or foreign key: a
    NULL in a key or foreign-key column (TPC-H declares every column NOT
    NULL), a key some earlier row already holds, a foreign key no row of the
    referenced table holds.  Constraints over a table not in ``tables`` are
    not checked."""
    found: list[Violation] = []
    keys: dict[str, set] = {}
    for table, columns in TPCH_KEYS.items():
        held: set = set()
        for position, row in enumerate(tables.get(table, ())):
            key = tuple(row[c] for c in columns)
            if None in key:
                found.append(Violation("null_key", table, position, _key_name(table)))
            elif key in held:
                found.append(Violation("duplicate_key", table, position, _key_name(table)))
            held.add(key)
        keys[table] = held
    for table, columns, referenced in TPCH_FOREIGN_KEYS:
        if table not in tables or referenced not in tables:
            continue
        name = _fk_name(table, columns, referenced)
        for position, row in enumerate(tables[table]):
            key = tuple(row[c] for c in columns)
            if None in key:
                found.append(Violation("null_key", table, position, name))
            elif key not in keys[referenced]:
                found.append(Violation("dangling_fk", table, position, name))
    return found


def inject_violations(
    tables: dict[str, list[tuple]], seed: int, ratio: float, kinds: Iterable[str]
) -> tuple[dict[str, list[tuple]], list[Violation]]:
    """Copies of ``tables`` with ``ratio`` of each table's rows (at least
    one) breaking each constraint of each of ``kinds`` over it, and the
    violations injected: ``dangling_fk`` points a foreign key at a negative
    value (no TPC-H key is), ``duplicate_key`` appends a copy of a row,
    ``null_key`` sets one key or foreign-key column to NULL.  Only the tables
    given are touched; a row is broken at most once."""
    kinds = tuple(kinds)
    unknown = set(kinds) - set(KINDS)
    if unknown:
        raise ValueError(f"unknown violation kinds {sorted(unknown)}")
    rng = random.Random(seed)
    out = {name: list(rows) for name, rows in tables.items()}
    injected: list[Violation] = []
    constraints = [
        (table, columns, None, _key_name(table)) for table, columns in TPCH_KEYS.items()
    ] + [
        (table, columns, referenced, _fk_name(table, columns, referenced))
        for table, columns, referenced in TPCH_FOREIGN_KEYS
    ]
    untouched = {name: list(range(len(rows))) for name, rows in out.items()}
    for kind in kinds:
        for table, columns, referenced, name in constraints:
            if table not in out or _APPLIES[kind] not in (None, referenced is None):
                continue
            free = untouched[table]
            count = min(len(free), max(1, round(ratio * len(out[table]))))
            for position in sorted(free.pop(rng.randrange(len(free))) for _ in range(count)):
                row = list(out[table][position])
                if kind == "duplicate_key":
                    out[table].append(tuple(row))
                    position = len(out[table]) - 1
                elif kind == "dangling_fk":
                    for column in columns:
                        row[column] = -1 - position
                    out[table][position] = tuple(row)
                else:
                    row[rng.choice(columns)] = None
                    out[table][position] = tuple(row)
                injected.append(Violation(kind, table, position, name))
    return out, injected
