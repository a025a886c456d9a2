"""The TPC-H workload: generator determinism, .tbl interchange, the measure
layer, and summary-table hits (docs/WORKLOADS.md)."""

import subprocess
import sys

import pytest

from repro import Database
from repro.workloads.tpch import (
    TPCH_QUERIES,
    TPCH_SUMMARIES,
    TPCH_TABLES,
    TpchConfig,
    generate_tpch,
    load_tbl_dir,
    load_tpch,
    read_tbl,
    table_cardinalities,
    table_digest,
    tpch_database,
    tpch_measure_database,
    tpch_measures,
    write_tbl_dir,
)

CONFIG = TpchConfig(sf=0.001)


@pytest.fixture(scope="module")
def tables():
    return generate_tpch(CONFIG)


@pytest.fixture(scope="module")
def sales_db():
    return tpch_measure_database(0.001)


# -- generator shape and integrity -------------------------------------------


def test_all_eight_tables_present_with_declared_schema(tables):
    assert set(tables) == set(TPCH_TABLES)
    for name, columns in TPCH_TABLES.items():
        for row in tables[name][:5]:
            assert len(row) == len(columns), name


def test_cardinalities_match_targets(tables):
    counts = table_cardinalities(CONFIG.sf)
    for name in ("region", "nation", "supplier", "part", "partsupp", "customer", "orders"):
        assert len(tables[name]) == counts[name], name
    # lineitem is drawn per order (1-7 lines), only approximately 4x orders.
    n_orders = counts["orders"]
    assert n_orders < len(tables["lineitem"]) < 7 * n_orders


def test_cardinalities_scale_with_sf():
    small = table_cardinalities(0.001)
    large = table_cardinalities(0.01)
    assert large["orders"] > small["orders"]
    assert table_cardinalities(0.01)["orders"] == 15_000
    assert table_cardinalities(0.01)["customer"] == 1_500


def test_foreign_key_integrity(tables):
    region_keys = {r[0] for r in tables["region"]}
    nation_keys = {r[0] for r in tables["nation"]}
    supplier_keys = {r[0] for r in tables["supplier"]}
    part_keys = {r[0] for r in tables["part"]}
    customer_keys = {r[0] for r in tables["customer"]}
    order_keys = {r[0] for r in tables["orders"]}
    partsupp_pairs = {(r[0], r[1]) for r in tables["partsupp"]}

    assert all(r[2] in region_keys for r in tables["nation"])
    assert all(r[3] in nation_keys for r in tables["supplier"])
    assert all(r[3] in nation_keys for r in tables["customer"])
    assert all(r[0] in part_keys and r[1] in supplier_keys for r in tables["partsupp"])
    assert all(r[1] in customer_keys for r in tables["orders"])
    for row in tables["lineitem"]:
        assert row[0] in order_keys
        assert (row[1], row[2]) in partsupp_pairs


def test_each_part_has_four_distinct_suppliers(tables):
    by_part = {}
    for partkey, suppkey, *_ in tables["partsupp"]:
        by_part.setdefault(partkey, set()).add(suppkey)
    assert all(len(supps) == 4 for supps in by_part.values())


def test_order_totalprice_is_sum_of_line_charges(tables):
    lines_by_order = {}
    for row in tables["lineitem"]:
        lines_by_order.setdefault(row[0], []).append(row)
    for orderkey, _, _, totalprice, *_ in tables["orders"][:200]:
        expected = round(
            sum(
                round(row[5] * (1 + row[7]) * (1 - row[6]), 2)
                for row in lines_by_order[orderkey]
            ),
            2,
        )
        assert totalprice == expected


# -- determinism --------------------------------------------------------------


def test_same_config_generates_identical_tables(tables):
    assert generate_tpch(TpchConfig(sf=0.001)) == tables


def test_different_seed_generates_different_tables(tables):
    other = generate_tpch(TpchConfig(sf=0.001, seed=7))
    assert other["orders"] != tables["orders"]


def test_digest_is_byte_identical_across_processes(tables):
    """The committed-baseline guarantee: a fresh interpreter reproduces the
    exact same bytes for the same (seed, sf)."""
    script = (
        "from repro.workloads.tpch import TpchConfig, generate_tpch, table_digest;"
        "print(table_digest(generate_tpch(TpchConfig(sf=0.001))))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        cwd=".",
    )
    assert proc.stdout.strip() == table_digest(tables)


# -- .tbl interchange ---------------------------------------------------------


def test_tbl_round_trip(tmp_path, tables):
    written = write_tbl_dir(tables, tmp_path)
    assert set(written) == set(TPCH_TABLES)
    for name in TPCH_TABLES:
        assert read_tbl(written[name], name) == tables[name], name


def test_load_tbl_dir_matches_generated_load(tmp_path, tables):
    write_tbl_dir(tables, tmp_path)
    from_tbl = Database()
    counts = load_tbl_dir(from_tbl, tmp_path)
    generated = Database()
    assert counts == load_tpch(generated, CONFIG)
    for name in TPCH_TABLES:
        sql = f"SELECT * FROM {name}"
        assert from_tbl.execute(sql).rows == generated.execute(sql).rows, name


def test_load_tbl_dir_skips_missing_files(tmp_path, tables):
    write_tbl_dir({"region": tables["region"]}, tmp_path)
    db = Database()
    counts = load_tbl_dir(db, tmp_path)
    assert counts == {"region": len(tables["region"])}


def test_read_tbl_rejects_unknown_table_and_bad_field_count(tmp_path):
    with pytest.raises(ValueError, match="unknown TPC-H table"):
        read_tbl(tmp_path / "x.tbl", "widgets")
    bad = tmp_path / "region.tbl"
    bad.write_text("0|AFRICA|\n")
    with pytest.raises(ValueError, match="expected 3 fields"):
        read_tbl(bad, "region")


# -- the measure layer --------------------------------------------------------


def test_revenue_by_region_matches_python_oracle(sales_db, tables):
    region_names = {r[0]: r[1] for r in tables["region"]}
    nation_region = {n[0]: region_names[n[2]] for n in tables["nation"]}
    cust_region = {c[0]: nation_region[c[3]] for c in tables["customer"]}
    order_region = {o[0]: cust_region[o[1]] for o in tables["orders"]}
    expected: dict[str, float] = {}
    for row in tables["lineitem"]:
        region = order_region[row[0]]
        expected[region] = expected.get(region, 0.0) + row[5] * (1 - row[6])
    result = sales_db.execute(TPCH_QUERIES["revenue_by_region"]).rows
    assert [r[0] for r in result] == sorted(expected)
    for region, revenue in result:
        assert revenue == pytest.approx(expected[region], rel=1e-9)


def test_order_count_counts_orders_not_lineitems(sales_db, tables):
    result = sales_db.execute(
        "SELECT AGGREGATE(order_count) FROM tpch_orders_m"
    ).rows
    assert result == [(len(tables["orders"]),)]


def test_margin_is_between_zero_and_one(sales_db):
    rows = sales_db.execute(TPCH_QUERIES["margin_by_returnflag"]).rows
    assert len(rows) == 3  # A, N, R
    for _, margin, avg_discount in rows:
        assert 0.0 < margin < 1.0
        assert 0.0 <= avg_discount <= 0.10


def test_revenue_share_sums_to_one(sales_db):
    rows = sales_db.execute(TPCH_QUERIES["revenue_share_by_region"]).rows
    assert sum(r[2] for r in rows) == pytest.approx(1.0)


def test_yoy_aligns_previous_year(sales_db):
    rows = sales_db.execute(TPCH_QUERIES["revenue_yoy_by_year"]).rows
    by_year = {r[0]: r[1] for r in rows}
    for year, _, prev in rows:
        if year - 1 in by_year:
            assert prev == pytest.approx(by_year[year - 1], rel=1e-9)
        else:
            assert prev is None


def test_visible_orders_exclude_filtered_segment(sales_db):
    rows = sales_db.execute(TPCH_QUERIES["visible_orders_by_region"]).rows
    totals = dict(
        sales_db.execute(
            "SELECT region, order_count FROM tpch_orders_m GROUP BY region"
        ).rows
    )
    for region, visible, base in rows:
        assert visible < totals[region]  # MACHINERY orders removed
        assert base == totals[region]  # bare measure sees the full context


def test_measures_layer_is_not_relayerable(sales_db):
    with pytest.raises(Exception):
        tpch_measures(sales_db)


# -- summary tables -----------------------------------------------------------


@pytest.fixture(scope="module")
def summary_db():
    return tpch_measure_database(0.001, summaries=True)


def test_summary_hit_is_provable_via_explain(summary_db):
    """Acceptance: at least one TPC-H measure query answers from a summary."""
    lines = [
        row[0]
        for row in summary_db.execute(
            "EXPLAIN " + TPCH_QUERIES["revenue_by_region"]
        ).rows
    ]
    assert any(
        "summary: answered from materialized view tpch_rev_by_region_year"
        in line
        for line in lines
    ), lines


def test_all_three_summaries_get_hits(summary_db):
    for name in (
        "revenue_by_region",
        "revenue_by_region_year",
        "margin_by_returnflag",
        "orders_by_year",
    ):
        summary_db.execute(TPCH_QUERIES[name])
    stats = summary_db.summary_stats()
    assert set(TPCH_SUMMARIES) <= set(stats)
    for view in TPCH_SUMMARIES:
        assert stats[view]["hits"] >= 1, (view, stats)


def test_summary_answers_match_cold_to_the_cent(summary_db, sales_db):
    for name in ("revenue_by_region", "revenue_by_region_year", "orders_by_year"):
        cold = sales_db.execute(TPCH_QUERIES[name]).rows
        hot = summary_db.execute(TPCH_QUERIES[name]).rows
        assert len(cold) == len(hot)
        for ra, rb in zip(cold, hot):
            for va, vb in zip(ra, rb):
                if isinstance(va, float):
                    assert vb == pytest.approx(va, rel=1e-9, abs=0.01)
                else:
                    assert va == vb


def test_ratio_and_avg_measures_roll_up_from_a_finer_summary(summary_db, sales_db):
    """``margin`` (a ratio) and ``avg_discount`` (an AVG) are stored as their
    SUM and COUNT states, so the global grain rolls them up."""
    sql = "SELECT AGGREGATE(margin), AGGREGATE(avg_discount) FROM tpch_sales_m"
    lines = [row[0] for row in summary_db.execute("EXPLAIN " + sql).rows]
    assert (
        "summary: answered from materialized view tpch_margin_by_returnflag" in lines
    ), lines
    ((margin, discount),) = summary_db.execute(sql).rows
    ((cold_margin, cold_discount),) = sales_db.execute(sql).rows
    assert margin == pytest.approx(cold_margin, rel=1e-9)
    assert discount == pytest.approx(cold_discount, rel=1e-9)


def test_at_queries_never_hit_summaries():
    db = tpch_measure_database(0.001, summaries=True)
    before = {
        name: view["hits"] for name, view in db.summary_stats().items()
    }
    db.execute(TPCH_QUERIES["revenue_share_by_region"])
    after = {name: view["hits"] for name, view in db.summary_stats().items()}
    assert before == after


# -- CLI ----------------------------------------------------------------------


def test_workloads_cli_tpch_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.workloads", "--tpch", "--summaries"],
        input="SELECT region, revenue FROM tpch_sales_m GROUP BY region;\n\\q\n",
        capture_output=True,
        text=True,
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        cwd=".",
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "TPC-H tables generated at SF 0.001" in proc.stdout
    assert "tpch_sales_m" in proc.stdout
    assert "AFRICA" in proc.stdout


# -- the slow tier ------------------------------------------------------------


@pytest.mark.slow
def test_sf_005_generation_and_measures():
    db = tpch_measure_database(0.05, summaries=True)
    counts = {
        name: len(db.execute(f"SELECT * FROM {name}").rows)
        for name in ("orders", "lineitem")
    }
    assert counts["orders"] == 75_000
    assert counts["lineitem"] > counts["orders"]
    rows = db.execute(TPCH_QUERIES["revenue_by_region"]).rows
    assert len(rows) == 5
