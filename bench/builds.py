"""The databases the workloads run against, built through public entry points.

Each builder returns the database together with what the oracle needs and
the seconds each phase took, so the same function serves ``setup_s`` (its
whole wall time) and the set-up breakdown of the traced run.
"""

from __future__ import annotations

import dataclasses
import time

from repro import Database
from repro.workloads.listings import SETUP
from repro.workloads.paper_data import load_paper_tables
from repro.workloads.tpch import (
    TPCH_QUERIES,
    TPCH_SUMMARIES,
    TpchConfig,
    generate_tpch,
    load_tpch,
    tpch_measures,
)

@dataclasses.dataclass(frozen=True)
class Scale:
    """How big a run is.  The driver always runs ``FULL`` (3 000 orders,
    12 000 lineitems: a cold pass takes about two seconds); ``QUICK`` exists
    so that ``--selftest`` can exercise every code path in a minute."""

    sf: float
    tpch_builds: int
    listings_builds: int
    server_builds: int
    sweep_repeats: tuple  # repeats at sf/2, sf, 2*sf


FULL = Scale(0.002, 7, 50, 3, (3, 2, 1))
QUICK = Scale(0.00025, 2, 5, 1, (1, 1, 1))

#: Answerable from ``TPCH_SUMMARIES`` (the server's plan-cache-hot reads).
SUMMARY_QUERIES = (
    "revenue_by_region",
    "revenue_by_region_year",
    "margin_by_returnflag",
    "orders_by_year",
)

#: The six queries of a ``tpch_cold`` pass: everything but the quadratic
#: VISIBLE query, which has a workload of its own.
COLD_QUERIES = tuple(
    name for name in TPCH_QUERIES if name != "visible_orders_by_region"
)

#: ``c_mktsegment`` values; a ``tpch_visible`` pass excludes each in turn.
SEGMENTS = ("AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY")

#: A summary over ``part`` at (manufacturer, brand) grain.  The server's
#: roll-up read groups by manufacturer only, and every INSERT INTO part
#: merges into it incrementally.
PART_BY_BRAND = """
    CREATE MATERIALIZED VIEW part_by_brand AS
    SELECT p_mfgr, p_brand, COUNT(*) AS parts, SUM(p_retailprice) AS retail
    FROM part GROUP BY p_mfgr, p_brand
"""
PART_BY_MFGR = """
    SELECT p_mfgr, COUNT(*) AS parts, SUM(p_retailprice) AS retail
    FROM part GROUP BY p_mfgr ORDER BY p_mfgr
"""


def visible_query(segment: str) -> str:
    sql = TPCH_QUERIES["visible_orders_by_region"]
    assert "'MACHINERY'" in sql
    return sql.replace("'MACHINERY'", f"'{segment}'")


@dataclasses.dataclass
class Built:
    db: Database
    #: Generated TPC-H rows by table (None for the paper tables).
    tables: dict | None
    #: Seconds per phase: generate, load, views, summaries.
    phases: dict


#: Every run generates the same TPC-H rows.  ``--seed`` orders the passes
#: and drives the ``server_mixed`` clients, but does not pick the rows: how
#: much work a query is depends on them (``tpch_cold`` ran at 3.40
#: statements/s on seed 3's rows and 3.86 on seed 9's, both sets of an A/A
#: agreeing within 1.1 % per seed, and peak RSS followed the rows with a
#: correlation of 0.94), and across ten seeds that reads as a spread of 5 %
#: in a benchmark whose own noise is 1-2 %.
DATA_SEED = 1


def tpch_tables(sf: float) -> dict:
    return generate_tpch(TpchConfig(sf=sf, seed=DATA_SEED))


def build_tpch(sf: float, *, summaries: bool = False, **db_kwargs) -> Built:
    """TPC-H tables generated, loaded, with the measure views (and, for the
    server, the summaries plus ``part_by_brand``)."""
    t0 = time.perf_counter()
    tables = tpch_tables(sf)
    t1 = time.perf_counter()
    db = Database(validate=False, **db_kwargs)
    load_tpch(db, tables=tables)
    t2 = time.perf_counter()
    tpch_measures(db)
    t3 = time.perf_counter()
    if summaries:
        for ddl in TPCH_SUMMARIES.values():
            db.execute(ddl)
        db.execute(PART_BY_BRAND)
    t4 = time.perf_counter()
    return Built(
        db,
        tables,
        {
            "generate": t1 - t0,
            "load": t2 - t1,
            "views": t3 - t2,
            "summaries": t4 - t3,
        },
    )


def build_server(sf: float) -> Built:
    """The database ``python -m repro.server`` would serve: telemetry on."""
    return build_tpch(sf, summaries=True, telemetry=True)


def build_listings(**db_kwargs) -> Built:
    """The paper's Tables 1-2 and the three views the listings read."""
    t0 = time.perf_counter()
    db = Database(validate=False, **db_kwargs)
    load_paper_tables(db)
    t1 = time.perf_counter()
    for ddl in SETUP.values():
        db.execute(ddl)
    t2 = time.perf_counter()
    return Built(
        db,
        None,
        {"generate": 0.0, "load": t1 - t0, "views": t2 - t1, "summaries": 0.0},
    )
