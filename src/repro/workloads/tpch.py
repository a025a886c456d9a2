"""TPC-H-derived measure workload: deterministic generator + measure layer.

This module moves the benchmark trajectory off the paper's 5-row listing
tables and onto inputs where the summary-table rewriter, hash joins, and the
plan cache are actually measurable.  It provides:

* a **pure-Python, seed-deterministic generator** for the 8 TPC-H tables
  (``region``, ``nation``, ``supplier``, ``part``, ``partsupp``,
  ``customer``, ``orders``, ``lineitem``).  dbgen-compatible distributions
  are *not* a goal — stable pseudo-random columns with realistic
  cardinalities and foreign-key integrity are.  The same
  :class:`TpchConfig` always produces byte-identical tables, across
  processes and platforms (guarded by a regression test), so committed
  bench baselines stay comparable;
* a ``.tbl`` **loader/writer** (:func:`read_tbl`, :func:`load_tbl_dir`,
  :func:`write_tbl_dir`) for externally generated dbgen data, plus
  :func:`table_digest` for provenance fingerprints;
* a **measure layer** (:func:`tpch_measures`): views over
  lineitem/orders/customer defining ``revenue``, ``margin``,
  ``avg_discount`` and ``order_count`` as measures, with canonical
  drill-down queries (:data:`TPCH_QUERIES`) using ``AT`` — by region, by
  year, by returnflag — and summary-table definitions
  (:data:`TPCH_SUMMARIES`) the summary match can hit.

Scale is parameterized by the TPC-H scale factor.  Presets
(:data:`SCALE_FACTORS`): SF 0.001 (~6k lineitem rows, the differential/
property-test scale), 0.01 (~60k rows, the committed bench scale), and
0.05/0.1 (opt-in via the ``slow`` pytest marker).

Usage::

    from repro.workloads.tpch import tpch_database, tpch_measures, TPCH_QUERIES
    db = tpch_database(sf=0.001)
    tpch_measures(db)
    db.execute(TPCH_QUERIES["revenue_by_region"])

or, interactively, ``python -m repro.workloads --tpch``.

See docs/WORKLOADS.md for the schema, the measure definitions, and how the
differential battery (tests/test_differential_tpch.py) derives its oracle
queries.
"""

from __future__ import annotations

import datetime
import hashlib
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional

from repro.api import Database

__all__ = [
    "SCALE_FACTORS",
    "TPCH_QUERIES",
    "TPCH_SUMMARIES",
    "TPCH_TABLES",
    "TPCH_VIEWS",
    "TpchConfig",
    "generate_tpch",
    "load_tbl_dir",
    "load_tpch",
    "read_tbl",
    "table_cardinalities",
    "table_digest",
    "tpch_database",
    "tpch_measure_database",
    "tpch_measures",
    "write_tbl_dir",
]

#: Scale-factor presets.  0.001 and 0.01 run everywhere; 0.05 and 0.1 are
#: opt-in (pytest ``slow`` marker / the non-blocking CI tier).
SCALE_FACTORS = (0.001, 0.01, 0.05, 0.1)

#: The 8 TPC-H tables with their standard columns, in dbgen's ``.tbl``
#: column order (so external dbgen files load without a mapping step).
TPCH_TABLES: dict[str, list[tuple[str, str]]] = {
    "region": [
        ("r_regionkey", "INTEGER"),
        ("r_name", "VARCHAR"),
        ("r_comment", "VARCHAR"),
    ],
    "nation": [
        ("n_nationkey", "INTEGER"),
        ("n_name", "VARCHAR"),
        ("n_regionkey", "INTEGER"),
        ("n_comment", "VARCHAR"),
    ],
    "supplier": [
        ("s_suppkey", "INTEGER"),
        ("s_name", "VARCHAR"),
        ("s_address", "VARCHAR"),
        ("s_nationkey", "INTEGER"),
        ("s_phone", "VARCHAR"),
        ("s_acctbal", "DOUBLE"),
        ("s_comment", "VARCHAR"),
    ],
    "part": [
        ("p_partkey", "INTEGER"),
        ("p_name", "VARCHAR"),
        ("p_mfgr", "VARCHAR"),
        ("p_brand", "VARCHAR"),
        ("p_type", "VARCHAR"),
        ("p_size", "INTEGER"),
        ("p_container", "VARCHAR"),
        ("p_retailprice", "DOUBLE"),
        ("p_comment", "VARCHAR"),
    ],
    "partsupp": [
        ("ps_partkey", "INTEGER"),
        ("ps_suppkey", "INTEGER"),
        ("ps_availqty", "INTEGER"),
        ("ps_supplycost", "DOUBLE"),
        ("ps_comment", "VARCHAR"),
    ],
    "customer": [
        ("c_custkey", "INTEGER"),
        ("c_name", "VARCHAR"),
        ("c_address", "VARCHAR"),
        ("c_nationkey", "INTEGER"),
        ("c_phone", "VARCHAR"),
        ("c_acctbal", "DOUBLE"),
        ("c_mktsegment", "VARCHAR"),
        ("c_comment", "VARCHAR"),
    ],
    "orders": [
        ("o_orderkey", "INTEGER"),
        ("o_custkey", "INTEGER"),
        ("o_orderstatus", "VARCHAR"),
        ("o_totalprice", "DOUBLE"),
        ("o_orderdate", "DATE"),
        ("o_orderpriority", "VARCHAR"),
        ("o_clerk", "VARCHAR"),
        ("o_shippriority", "INTEGER"),
        ("o_comment", "VARCHAR"),
    ],
    "lineitem": [
        ("l_orderkey", "INTEGER"),
        ("l_partkey", "INTEGER"),
        ("l_suppkey", "INTEGER"),
        ("l_linenumber", "INTEGER"),
        ("l_quantity", "INTEGER"),
        ("l_extendedprice", "DOUBLE"),
        ("l_discount", "DOUBLE"),
        ("l_tax", "DOUBLE"),
        ("l_returnflag", "VARCHAR"),
        ("l_linestatus", "VARCHAR"),
        ("l_shipdate", "DATE"),
        ("l_commitdate", "DATE"),
        ("l_receiptdate", "DATE"),
        ("l_shipinstruct", "VARCHAR"),
        ("l_shipmode", "VARCHAR"),
        ("l_comment", "VARCHAR"),
    ],
}

_REGIONS = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]

# The spec's 25 nations with their region assignment (nation -> region index).
_NATIONS = [
    ("ALGERIA", 0), ("ARGENTINA", 1), ("BRAZIL", 1), ("CANADA", 1),
    ("EGYPT", 4), ("ETHIOPIA", 0), ("FRANCE", 3), ("GERMANY", 3),
    ("INDIA", 2), ("INDONESIA", 2), ("IRAN", 4), ("IRAQ", 4),
    ("JAPAN", 2), ("JORDAN", 4), ("KENYA", 0), ("MOROCCO", 0),
    ("MOZAMBIQUE", 0), ("PERU", 1), ("CHINA", 2), ("ROMANIA", 3),
    ("SAUDI ARABIA", 4), ("VIETNAM", 2), ("RUSSIA", 3),
    ("UNITED KINGDOM", 3), ("UNITED STATES", 1),
]

_SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"]
_PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]
_SHIPMODES = ["AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP", "TRUCK"]
_SHIPINSTRUCT = ["COLLECT COD", "DELIVER IN PERSON", "NONE", "TAKE BACK RETURN"]
_CONTAINERS = ["SM BOX", "SM CASE", "MED BOX", "MED PACK", "LG BOX", "LG CASE"]
_TYPES = ["ECONOMY ANODIZED", "LARGE BRUSHED", "MEDIUM POLISHED",
          "PROMO BURNISHED", "SMALL PLATED", "STANDARD POLISHED"]
_BRANDS = [f"Brand#{i}{j}" for i in range(1, 6) for j in range(1, 6)]
_NOUNS = ["packages", "deposits", "requests", "accounts", "foxes",
          "pinto beans", "instructions", "theodolites", "platelets", "ideas"]
_VERBS = ["sleep", "haggle", "nag", "wake", "cajole", "detect", "integrate"]
_ADVERBS = ["quickly", "slowly", "carefully", "furiously", "blithely", "never"]

#: Order dates span the spec's [1992-01-01, 1998-08-02] window.
_START_DATE = datetime.date(1992, 1, 1)
_DATE_SPAN_DAYS = 2406


@dataclass(frozen=True)
class TpchConfig:
    """Parameters of the TPC-H workload: scale factor and RNG seed.

    Every derived quantity (table cardinalities, every generated value) is a
    pure function of these two numbers.
    """

    sf: float = 0.001
    seed: int = 19920101


def table_cardinalities(sf: float) -> dict[str, int]:
    """Target row counts per table at scale factor ``sf``.

    Follows the spec's SF-1 cardinalities (supplier 10k, part 200k,
    customer 150k, orders 1.5M; partsupp = 4/part; lineitem 1-7/order)
    scaled linearly, with small floors so tiny scale factors stay joinable.
    ``lineitem`` is approximate: the exact count is drawn per order.
    """
    return {
        "region": len(_REGIONS),
        "nation": len(_NATIONS),
        "supplier": max(5, int(10_000 * sf)),
        "part": max(20, int(200_000 * sf)),
        "partsupp": 4 * max(20, int(200_000 * sf)),
        "customer": max(30, int(150_000 * sf)),
        "orders": max(150, int(1_500_000 * sf)),
        "lineitem": 4 * max(150, int(1_500_000 * sf)),
    }


def _comment(rng: random.Random) -> str:
    return (
        f"{_ADVERBS[rng.randrange(len(_ADVERBS))]} "
        f"{_VERBS[rng.randrange(len(_VERBS))]} "
        f"{_NOUNS[rng.randrange(len(_NOUNS))]}"
    )


def _money(rng: random.Random, low: float, high: float) -> float:
    # Two-decimal money amounts; round() on a double is deterministic.
    return round(low + (high - low) * rng.random(), 2)


def _phone(rng: random.Random, nationkey: int) -> str:
    return (
        f"{10 + nationkey}-{rng.randrange(100, 1000)}-"
        f"{rng.randrange(100, 1000)}-{rng.randrange(1000, 10000)}"
    )


def _table_rng(config: TpchConfig, table: str) -> random.Random:
    """A per-table RNG stream, so each table's content is independent of
    the generation order of the others."""
    # Stable across processes: string seeding hashes with SHA-512 (CPython
    # seeds str deterministically), but derive an int explicitly anyway so
    # the scheme is obvious and version-proof.
    digest = hashlib.sha256(
        f"tpch:{config.seed}:{table}".encode("ascii")
    ).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def generate_tpch(config: TpchConfig) -> dict[str, list[tuple]]:
    """Generate all 8 tables as ``{name: [row tuples]}``, deterministically.

    Foreign keys are consistent by construction: every ``lineitem``
    references an existing order and an existing ``(partkey, suppkey)``
    pair of ``partsupp``; every order references an existing customer.
    """
    counts = table_cardinalities(config.sf)
    tables: dict[str, list[tuple]] = {}

    rng = _table_rng(config, "region")
    tables["region"] = [
        (key, name, _comment(rng)) for key, name in enumerate(_REGIONS)
    ]

    rng = _table_rng(config, "nation")
    tables["nation"] = [
        (key, name, region, _comment(rng))
        for key, (name, region) in enumerate(_NATIONS)
    ]

    rng = _table_rng(config, "supplier")
    n_supplier = counts["supplier"]
    tables["supplier"] = [
        (
            key,
            f"Supplier#{key:09d}",
            f"{rng.randrange(1, 999)} Supply St",
            (nk := rng.randrange(len(_NATIONS))),
            _phone(rng, nk),
            _money(rng, -999.99, 9999.99),
            _comment(rng),
        )
        for key in range(1, n_supplier + 1)
    ]

    rng = _table_rng(config, "part")
    n_part = counts["part"]
    part_rows = []
    for key in range(1, n_part + 1):
        name = (
            f"{_ADVERBS[rng.randrange(len(_ADVERBS))]} "
            f"{_NOUNS[rng.randrange(len(_NOUNS))]}"
        )
        part_rows.append(
            (
                key,
                name,
                f"Manufacturer#{1 + key % 5}",
                _BRANDS[rng.randrange(len(_BRANDS))],
                f"{_TYPES[rng.randrange(len(_TYPES))]} "
                f"{['TIN', 'NICKEL', 'BRASS', 'STEEL', 'COPPER'][key % 5]}",
                rng.randrange(1, 51),
                _CONTAINERS[rng.randrange(len(_CONTAINERS))],
                # The spec's retail price formula keyed on partkey.
                round(900 + (key % 1000) / 10 + 100 * (key % 10), 2),
                _comment(rng),
            )
        )
    tables["part"] = part_rows
    retail_price = {row[0]: row[7] for row in part_rows}

    rng = _table_rng(config, "partsupp")
    partsupp_rows = []
    for partkey in range(1, n_part + 1):
        # 4 distinct suppliers per part, spread like dbgen does.
        for i in range(4):
            suppkey = 1 + (partkey + i * (n_supplier // 4 + 1)) % n_supplier
            partsupp_rows.append(
                (
                    partkey,
                    suppkey,
                    rng.randrange(1, 10_000),
                    # Supply cost sits below retail so margins stay positive
                    # on average but individual lines can lose money.
                    round(retail_price[partkey] * (0.4 + 0.5 * rng.random()) / 4, 2),
                    _comment(rng),
                )
            )
    tables["partsupp"] = partsupp_rows

    rng = _table_rng(config, "customer")
    n_customer = counts["customer"]
    tables["customer"] = [
        (
            key,
            f"Customer#{key:09d}",
            f"{rng.randrange(1, 999)} Market Rd",
            (nk := rng.randrange(len(_NATIONS))),
            _phone(rng, nk),
            _money(rng, -999.99, 9999.99),
            _SEGMENTS[rng.randrange(len(_SEGMENTS))],
            _comment(rng),
        )
        for key in range(1, n_customer + 1)
    ]

    # Orders and lineitem share one RNG stream: each order's lines are drawn
    # right after the order itself, so o_totalprice can be the exact sum of
    # its lines' extended charges (FK + aggregate integrity in one pass).
    rng = _table_rng(config, "orders")
    n_orders = counts["orders"]
    order_rows: list[tuple] = []
    line_rows: list[tuple] = []
    for orderkey in range(1, n_orders + 1):
        custkey = rng.randrange(1, n_customer + 1)
        orderdate = _START_DATE + datetime.timedelta(
            days=rng.randrange(_DATE_SPAN_DAYS)
        )
        priority = _PRIORITIES[rng.randrange(len(_PRIORITIES))]
        n_lines = rng.randrange(1, 8)
        total = 0.0
        all_filled = True
        any_filled = False
        for linenumber in range(1, n_lines + 1):
            partkey = rng.randrange(1, n_part + 1)
            suppkey = 1 + (partkey + rng.randrange(4) * (n_supplier // 4 + 1)) % n_supplier
            quantity = rng.randrange(1, 51)
            extendedprice = round(quantity * retail_price[partkey], 2)
            discount = rng.randrange(0, 11) / 100.0
            tax = rng.randrange(0, 9) / 100.0
            shipdate = orderdate + datetime.timedelta(days=rng.randrange(1, 122))
            commitdate = orderdate + datetime.timedelta(days=rng.randrange(30, 91))
            receiptdate = shipdate + datetime.timedelta(days=rng.randrange(1, 31))
            shipped = shipdate <= _START_DATE + datetime.timedelta(
                days=_DATE_SPAN_DAYS - 120
            )
            if shipped:
                any_filled = True
                returnflag = "R" if rng.random() < 0.25 else "A" if rng.random() < 0.5 else "N"
                linestatus = "F"
            else:
                all_filled = False
                returnflag = "N"
                linestatus = "O"
            total += round(extendedprice * (1 + tax) * (1 - discount), 2)
            line_rows.append(
                (
                    orderkey,
                    partkey,
                    suppkey,
                    linenumber,
                    quantity,
                    extendedprice,
                    discount,
                    tax,
                    returnflag,
                    linestatus,
                    shipdate.isoformat(),
                    commitdate.isoformat(),
                    receiptdate.isoformat(),
                    _SHIPINSTRUCT[rng.randrange(len(_SHIPINSTRUCT))],
                    _SHIPMODES[rng.randrange(len(_SHIPMODES))],
                    _comment(rng),
                )
            )
        status = "F" if all_filled else "P" if any_filled else "O"
        order_rows.append(
            (
                orderkey,
                custkey,
                status,
                round(total, 2),
                orderdate.isoformat(),
                priority,
                f"Clerk#{rng.randrange(1, 1001):09d}",
                0,
                _comment(rng),
            )
        )
    tables["orders"] = order_rows
    tables["lineitem"] = line_rows
    return tables


def load_tpch(
    db: Database,
    config: Optional[TpchConfig] = None,
    *,
    tables: Optional[dict[str, list[tuple]]] = None,
) -> dict[str, int]:
    """Create and populate the 8 TPC-H tables; returns per-table row counts.

    Pass ``tables`` (e.g. from :func:`read_tbl`/:func:`load_tbl_dir`'s
    underlying reader) to load externally generated data instead of
    generating.
    """
    if tables is None:
        tables = generate_tpch(config or TpchConfig())
    counts = {}
    for name, columns in TPCH_TABLES.items():
        rows = tables.get(name, [])
        counts[name] = db.create_table_from_rows(name, columns, rows)
    return counts


def tpch_database(
    sf: float = 0.001, *, seed: int = TpchConfig.seed, **db_kwargs
) -> Database:
    """A fresh database loaded with generated TPC-H tables at ``sf``."""
    db = Database(**db_kwargs)
    load_tpch(db, TpchConfig(sf=sf, seed=seed))
    return db


# -- .tbl interchange --------------------------------------------------------


def read_tbl(path: str | Path, table: str) -> list[tuple]:
    """Parse one dbgen ``.tbl`` file (pipe-separated, trailing pipe).

    Values are returned in the column order of :data:`TPCH_TABLES`; numeric
    columns are converted, DATE columns stay ISO strings (the table loader
    coerces them).
    """
    if table not in TPCH_TABLES:
        raise ValueError(f"unknown TPC-H table {table!r}")
    columns = TPCH_TABLES[table]
    rows: list[tuple] = []
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("|")
            if parts and parts[-1] == "":
                parts = parts[:-1]  # dbgen writes a trailing separator
            if len(parts) != len(columns):
                raise ValueError(
                    f"{path}:{lineno}: expected {len(columns)} fields for "
                    f"{table}, got {len(parts)}"
                )
            row = []
            for value, (_, type_name) in zip(parts, columns):
                if type_name == "INTEGER":
                    row.append(int(value))
                elif type_name == "DOUBLE":
                    row.append(float(value))
                else:
                    row.append(value)
            rows.append(tuple(row))
    return rows


def load_tbl_dir(
    db: Database, directory: str | Path, *, tables: Optional[Iterable[str]] = None
) -> dict[str, int]:
    """Load ``<table>.tbl`` files from ``directory`` into ``db``.

    Missing files are skipped (dbgen runs sometimes omit tiny tables);
    returns the per-table row counts actually loaded.
    """
    directory = Path(directory)
    counts: dict[str, int] = {}
    for name in tables if tables is not None else TPCH_TABLES:
        path = directory / f"{name}.tbl"
        if not path.exists():
            continue
        counts[name] = db.create_table_from_rows(
            name, TPCH_TABLES[name], read_tbl(path, name)
        )
    return counts


def _tbl_cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    if isinstance(value, (datetime.date, datetime.datetime)):
        return value.isoformat()
    return str(value)


def write_tbl_dir(
    tables: dict[str, list[tuple]], directory: str | Path
) -> dict[str, Path]:
    """Write generated tables as dbgen-style ``.tbl`` files; the inverse of
    :func:`read_tbl` (floats as 2-decimal money, trailing pipe)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written: dict[str, Path] = {}
    for name, rows in tables.items():
        path = directory / f"{name}.tbl"
        with open(path, "w", encoding="utf-8") as handle:
            for row in rows:
                handle.write("|".join(_tbl_cell(v) for v in row) + "|\n")
        written[name] = path
    return written


def table_digest(tables: dict[str, list[tuple]]) -> str:
    """A SHA-256 hex digest over a canonical serialization of the tables.

    Byte-identical generation across two processes is a committed-baseline
    guarantee; the determinism regression test compares this digest across
    interpreter invocations.
    """
    hasher = hashlib.sha256()
    for name in sorted(tables):
        hasher.update(name.encode("ascii"))
        for row in tables[name]:
            hasher.update(repr(row).encode("utf-8"))
    return hasher.hexdigest()


# -- the measure layer -------------------------------------------------------

#: Views created by :func:`tpch_measures`, in creation order.
TPCH_VIEWS: dict[str, str] = {
    # Denormalized lineitem grain: every sale with its order, customer,
    # geography, and supply-cost attributes.  Plain view — measures live in
    # tpch_sales_m.
    "tpch_sales": """
        CREATE VIEW tpch_sales AS
        SELECT l.l_orderkey AS orderkey,
               l.l_quantity AS quantity,
               l.l_extendedprice AS extendedprice,
               l.l_discount AS discount,
               l.l_returnflag AS returnflag,
               l.l_shipmode AS shipmode,
               ps.ps_supplycost AS supplycost,
               o.o_orderdate AS orderdate,
               c.c_mktsegment AS mktsegment,
               n.n_name AS nation,
               r.r_name AS region
        FROM lineitem AS l
        JOIN orders AS o ON l.l_orderkey = o.o_orderkey
        JOIN partsupp AS ps
          ON l.l_partkey = ps.ps_partkey AND l.l_suppkey = ps.ps_suppkey
        JOIN customer AS c ON o.o_custkey = c.c_custkey
        JOIN nation AS n ON c.c_nationkey = n.n_nationkey
        JOIN region AS r ON n.n_regionkey = r.r_regionkey
    """,
    # Lineitem-grain measures.  A summary stores each one's states: revenue
    # and total_qty are their own SUM; margin, a ratio, is its formula over
    # two SUM states; avg_discount is a SUM and a COUNT.  All four roll up.
    "tpch_sales_m": """
        CREATE VIEW tpch_sales_m AS
        SELECT region, nation, mktsegment, returnflag, shipmode,
               YEAR(orderdate) AS orderYear,
               SUM(extendedprice * (1 - discount)) AS MEASURE revenue,
               (SUM(extendedprice * (1 - discount)) - SUM(supplycost * quantity))
                 / SUM(extendedprice * (1 - discount)) AS MEASURE margin,
               AVG(discount) AS MEASURE avg_discount,
               SUM(quantity) AS MEASURE total_qty
        FROM tpch_sales
    """,
    # Order-grain facts and measures (order_count must count orders, not
    # lineitems, so it gets its own grain).
    "tpch_order_facts": """
        CREATE VIEW tpch_order_facts AS
        SELECT o.o_orderkey AS orderkey,
               o.o_totalprice AS totalprice,
               o.o_orderdate AS orderdate,
               o.o_orderpriority AS orderpriority,
               c.c_mktsegment AS mktsegment,
               n.n_name AS nation,
               r.r_name AS region
        FROM orders AS o
        JOIN customer AS c ON o.o_custkey = c.c_custkey
        JOIN nation AS n ON c.c_nationkey = n.n_nationkey
        JOIN region AS r ON n.n_regionkey = r.r_regionkey
    """,
    "tpch_orders_m": """
        CREATE VIEW tpch_orders_m AS
        SELECT region, nation, mktsegment, orderpriority,
               YEAR(orderdate) AS orderYear,
               COUNT(*) AS MEASURE order_count,
               SUM(totalprice) AS MEASURE total_price
        FROM tpch_order_facts
    """,
}

#: Canonical drill-down queries over the measure layer.  These are the
#: queries the differential battery cross-checks against SQLite oracles and
#: the bench suite times; names are stable (the bench snapshot keys on them).
TPCH_QUERIES: dict[str, str] = {
    # Plain roll-ups (summary candidates).
    "revenue_by_region": """
        SELECT region, revenue
        FROM tpch_sales_m GROUP BY region ORDER BY region
    """,
    "revenue_by_region_year": """
        SELECT region, orderYear, revenue, total_qty
        FROM tpch_sales_m GROUP BY region, orderYear
        ORDER BY region, orderYear
    """,
    "margin_by_returnflag": """
        SELECT returnflag, margin, avg_discount
        FROM tpch_sales_m GROUP BY returnflag ORDER BY returnflag
    """,
    "orders_by_year": """
        SELECT orderYear, order_count
        FROM tpch_orders_m GROUP BY orderYear ORDER BY orderYear
    """,
    # AT drill-downs (never answered from summaries: a measure evaluated AT
    # another context than its group is rejected by that bound context).
    "revenue_share_by_region": """
        SELECT region, revenue,
               revenue / revenue AT (ALL region) AS share
        FROM tpch_sales_m GROUP BY region ORDER BY region
    """,
    "revenue_yoy_by_year": """
        SELECT orderYear, revenue,
               revenue AT (SET orderYear = CURRENT orderYear - 1) AS prevRevenue
        FROM tpch_sales_m GROUP BY orderYear ORDER BY orderYear
    """,
    # VISIBLE at the order grain.  Its one conjunct reads only the measure's
    # own relation, so the interpreter tests each candidate order once (the
    # VISIBLE semijoin's "local" case); the *subquery expansion* of the same
    # query is still quadratic in orders — the pair the strategy chooser
    # (ROADMAP) has to tell apart.
    "visible_orders_by_region": """
        SELECT region, order_count AT (VISIBLE) AS visibleOrders,
               order_count
        FROM tpch_orders_m WHERE mktsegment <> 'MACHINERY'
        GROUP BY region ORDER BY region
    """,
}

#: Summary tables over the measure layer.  The summary match answers
#: ``revenue_by_region``/``revenue_by_region_year`` from
#: ``tpch_rev_by_region_year`` (SUM measures roll up from (region, year) to
#: (region)) and ``margin_by_returnflag`` from ``tpch_margin_by_returnflag``
#: at its own grain; that summary also stores the ratio ``margin``'s and
#: ``avg_discount``'s states, so a coarser query of either rolls up too.
TPCH_SUMMARIES: dict[str, str] = {
    "tpch_rev_by_region_year": """
        CREATE MATERIALIZED VIEW tpch_rev_by_region_year AS
        SELECT region, orderYear,
               AGGREGATE(revenue) AS revenue,
               AGGREGATE(total_qty) AS total_qty
        FROM tpch_sales_m GROUP BY region, orderYear
    """,
    "tpch_margin_by_returnflag": """
        CREATE MATERIALIZED VIEW tpch_margin_by_returnflag AS
        SELECT returnflag,
               AGGREGATE(margin) AS margin,
               AGGREGATE(avg_discount) AS avg_discount
        FROM tpch_sales_m GROUP BY returnflag
    """,
    "tpch_orders_by_year": """
        CREATE MATERIALIZED VIEW tpch_orders_by_year AS
        SELECT orderYear, AGGREGATE(order_count) AS order_count
        FROM tpch_orders_m GROUP BY orderYear
    """,
}


def tpch_measures(db: Database, *, summaries: bool = False) -> None:
    """Create the measure layer (and optionally its summary tables).

    Idempotent per database: raises if the views already exist (create a
    fresh :func:`tpch_database` instead of re-layering).
    """
    for ddl in TPCH_VIEWS.values():
        db.execute(ddl)
    if summaries:
        for ddl in TPCH_SUMMARIES.values():
            db.execute(ddl)


def tpch_measure_database(
    sf: float = 0.001,
    *,
    seed: int = TpchConfig.seed,
    summaries: bool = False,
    **db_kwargs,
) -> Database:
    """Generated tables + measure layer (+ summaries) in one call."""
    db = tpch_database(sf, seed=seed, **db_kwargs)
    tpch_measures(db, summaries=summaries)
    return db
