"""Static analysis: lint rules (RPxxx codes + spans), bind-error source
positions, the plan/IR validator, and optimizer non-convergence detection."""

from __future__ import annotations

import copy
import io

import pytest

from repro import Database
from repro.analysis import (
    RULES,
    Severity,
    check_plan,
    plan_fingerprint,
    validate_plan,
    validation_enabled,
)
from repro.analysis.diagnostics import BIND_CODES
from repro.errors import BindError, InternalError, ValidationError
from repro.plan import logical as plans
from repro.semantics import bound as b
from repro.semantics.binder import Binder
from repro.sql import parse_query, parse_statement
from repro.types import infer_literal_type
from repro.workloads.listings import LISTINGS, SETUP, expanded_listings
from repro.workloads.paper_data import load_paper_tables

INT = infer_literal_type(1)


def codes(db: Database, sql: str) -> list[str]:
    return [diag.code for diag in db.lint(sql)]


def plan_of(db: Database, sql: str) -> plans.LogicalPlan:
    plan, _ = Binder(db.catalog).bind_query_top(parse_query(sql))
    return plan


@pytest.fixture
def summary_db() -> Database:
    """Orders plus a (prodName, custName) summary — RP110 / reject tests."""
    db = Database()
    load_paper_tables(db)
    db.execute(
        """CREATE MATERIALIZED VIEW prod_cust AS
           SELECT prodName, custName, SUM(revenue) AS rev, COUNT(*) AS n
           FROM Orders GROUP BY prodName, custName"""
    )
    return db


# ---------------------------------------------------------------------------
# Lint rules: one negative fixture per code, spans required
# ---------------------------------------------------------------------------

#: (fixture name, sql, expected code) — every rule the engine can emit.
NEGATIVE_FIXTURES = [
    ("paper_db", "SELEC 1", "RP001"),
    ("paper_db", "SELECT nosuch FROM Orders", "RP002"),
    ("orders_db", "SELECT orderDate, profitMargin FROM EnhancedOrders", "RP101"),
    ("orders_db", "SELECT orderDate AT (ALL prodName) FROM EnhancedOrders", "RP102"),
    (
        "orders_db",
        "SELECT AGGREGATE(profitMargin AT (ALL nosuchdim)) "
        "FROM EnhancedOrders GROUP BY orderDate",
        "RP103",
    ),
    ("paper_db", "SELECT revenue AS r, cost AS r FROM Orders", "RP104"),
    ("paper_db", "WITH dead AS (SELECT 1 AS one) SELECT 2 AS two", "RP105"),
    ("paper_db", "SELECT prodName FROM Orders WHERE SUM(revenue) > 10", "RP106"),
    (
        "paper_db",
        "SELECT custName FROM Orders "
        "JOIN Customers ON Orders.custName = Customers.custName",
        "RP107",
    ),
    ("paper_db", "SELECT prodName FROM Orders LIMIT 2", "RP108"),
    ("paper_db", "CREATE VIEW v AS SELECT * FROM Orders", "RP109"),
    (
        "summary_db",
        "SELECT orderDate, SUM(revenue) AS r FROM Orders GROUP BY orderDate",
        "RP110",
    ),
    ("paper_db", "CREATE VIEW v AS SHOW STATS", "RP112"),
    (
        "paper_db",
        "CREATE MATERIALIZED VIEW mv_stats AS "
        "SELECT fingerprint, SUM(calls) AS c "
        "FROM repro_stat_statements GROUP BY fingerprint",
        "RP113",
    ),
    ("paper_db", "SELECT prodName FROM Orders WHERE prodName = 5", "RP114"),
    ("paper_db", "SELECT prodName FROM Orders WHERE revenue = NULL", "RP115"),
    ("paper_db", "SELECT CAST('nope' AS DATE) FROM Orders", "RP116"),
    (
        "orders_db",
        "SELECT orderDate, AGGREGATE(profitMargin AT (SET orderDate = 5)) "
        "FROM EnhancedOrders GROUP BY orderDate",
        "RP117",
    ),
    (
        "paper_db",
        "SELECT c.custAge, SUM(o.revenue) FROM Orders AS o "
        "LEFT JOIN Customers AS c ON o.custName = c.custName "
        "GROUP BY c.custAge",
        "RP118",
    ),
]


@pytest.mark.parametrize(
    "fixture,sql,code", NEGATIVE_FIXTURES, ids=[c for _, _, c in NEGATIVE_FIXTURES]
)
def test_negative_fixture_reports_code_with_span(fixture, sql, code, request):
    db = request.getfixturevalue(fixture)
    diags = db.lint(sql)
    hits = [d for d in diags if d.code == code]
    assert hits, f"expected {code}, got {[d.code for d in diags]}"
    diag = hits[0]
    assert diag.line > 0 and diag.column > 0, f"{code} lost its span: {diag}"
    assert diag.severity == RULES[code][0]


def test_fixture_table_covers_ten_distinct_codes():
    assert len({code for _, _, code in NEGATIVE_FIXTURES}) >= 10


def test_rp002_span_points_at_the_bad_column(paper_db):
    (diag,) = paper_db.lint("SELECT nosuch FROM Orders")
    assert diag.code == "RP002"
    assert (diag.line, diag.column) == (1, 8)


def test_rp103_flags_measure_used_as_dimension(orders_db):
    diags = orders_db.lint(
        "SELECT AGGREGATE(profitMargin AT (ALL profitMargin)) "
        "FROM EnhancedOrders GROUP BY orderDate"
    )
    hits = [d for d in diags if d.code == "RP103"]
    assert hits and "measure" in hits[0].message
    # At the dimension expression, not at the AT keyword (column 31).
    assert (hits[0].line, hits[0].column) == (1, 39)


def test_rp104_duplicate_table_alias_and_cte_shadow(paper_db):
    # A FROM alias used twice is the binder's error (RP002), at the second.
    (diag,) = paper_db.lint("SELECT 1 AS one FROM Orders o, Customers o")
    assert diag.code == "RP002" and "duplicate table alias" in diag.message
    assert (diag.line, diag.column) == (1, 32)
    assert "RP104" in codes(
        paper_db, "WITH Orders AS (SELECT 1 AS x) SELECT x FROM Orders"
    )


#: A statement the binder rejects, as the fixture's code: a FROM alias used
#: twice enforces no lint rule.
BIND_REJECTED = [
    (fixture, sql, code)
    for fixture, sql, code in NEGATIVE_FIXTURES
    if code in BIND_CODES
] + [("paper_db", "SELECT 1 AS one FROM Orders o, Customers o", "RP002")]


@pytest.mark.parametrize(
    "fixture,sql,code", BIND_REJECTED, ids=[c for _, _, c in BIND_REJECTED]
)
def test_a_statement_that_does_not_bind_gets_one_error(fixture, sql, code, request):
    db = request.getfixturevalue(fixture)
    statement = parse_statement(sql)
    with pytest.raises(BindError) as err:
        Binder(db.catalog).bind_query_as_relation(statement.query, None)
    assert (err.value.rule or "RP002") == code
    errors = [d for d in db.lint(sql) if d.severity == Severity.ERROR]
    assert [(d.code, d.message) for d in errors] == [(code, err.value.message)]
    assert (errors[0].line, errors[0].column) == (err.value.line, err.value.column)
    assert errors[0].hint == RULES[code][2]


def test_rp106_covers_the_on_clause(paper_db):
    sql = "SELECT prodName FROM Orders JOIN Customers ON SUM(revenue) > 1"
    (diag,) = paper_db.lint(sql)
    assert diag.code == "RP106" and "JOIN ON" in diag.message
    assert diag.column == sql.index("SUM") + 1


def test_rp107_is_reported_once(paper_db):
    diags = paper_db.lint(
        "SELECT custName FROM Orders, Customers WHERE custName = prodName "
        "ORDER BY custName"
    )
    assert [d.code for d in diags] == ["RP107"]


def test_each_failed_bind_counts_once():
    db = Database(telemetry=True)
    load_paper_tables(db)
    db.execute(SETUP["EnhancedOrders"])
    counter = db.telemetry.lint_diagnostics_total
    for _, sql, code in BIND_REJECTED:
        before = counter.value(rule=code)
        db.lint(sql)
        assert counter.value(rule=code) == before + 1, sql


def test_rp101_sees_a_measure_renamed_by_a_view_column_list(paper_db):
    paper_db.execute(
        "CREATE VIEW v2 (odate, margin) AS SELECT orderDate, "
        "(SUM(revenue) - SUM(cost)) / SUM(revenue) AS MEASURE profitMargin "
        "FROM Orders"
    )
    sql = "SELECT odate, margin FROM v2"
    (diag,) = paper_db.lint(sql)
    assert diag.code == "RP101" and "'margin'" in diag.message
    assert diag.column == sql.index("margin") + 1
    assert paper_db.lint("SELECT odate, AGGREGATE(margin) FROM v2 GROUP BY odate") == []


def test_a_view_definition_binds_as_the_view(paper_db):
    # Its column list included: what CREATE VIEW itself would reject.
    sql = "CREATE VIEW bad (a, b) AS SELECT prodName FROM Orders"
    (diag,) = paper_db.lint(sql)
    assert diag.code == "RP002"
    assert diag.message == "view 'bad' declares 2 columns but its query returns 1"
    with pytest.raises(BindError, match="declares 2 columns"):
        paper_db.execute(sql)


def test_rp101_does_not_fire_on_a_view_that_reexports_a_measure(orders_db):
    # The view keeps the measure a measure; only a query evaluates it.
    assert orders_db.lint(
        "CREATE VIEW eo2 AS SELECT orderDate, profitMargin FROM EnhancedOrders"
    ) == []


def test_rp107_exempts_using_merged_columns(paper_db):
    sql = "SELECT custName FROM Orders JOIN Customers USING (custName)"
    assert "RP107" not in codes(paper_db, sql)


def test_rp108_silent_with_order_by(paper_db):
    sql = "SELECT prodName FROM Orders ORDER BY prodName LIMIT 2"
    assert paper_db.lint(sql) == []


def test_rp109_only_fires_in_view_definitions(paper_db):
    assert "RP109" not in codes(paper_db, "SELECT * FROM Orders")


def test_rp110_names_the_matchability_rule(summary_db):
    diags = summary_db.lint(
        "SELECT orderDate, SUM(revenue) AS r FROM Orders GROUP BY orderDate"
    )
    hits = [d for d in diags if d.code == "RP110"]
    assert hits
    assert hits[0].severity == Severity.INFO
    assert "missing-dimension" in hits[0].message


def test_lint_handles_scripts_and_orders_by_severity(paper_db):
    diags = paper_db.lint(
        "SELECT prodName FROM Orders LIMIT 1; SELECT nosuch FROM Orders"
    )
    found = [d.code for d in diags]
    assert "RP108" in found and "RP002" in found
    # Severity-major ordering: the error sorts before the warning.
    assert found.index("RP002") < found.index("RP108")


def test_lint_never_raises_on_garbage(paper_db):
    for sql in ("", ";;;", "SELECT", "WITH", ")))", "AT AT AT"):
        diags = paper_db.lint(sql)
        assert all(d.code in RULES for d in diags)


def test_paper_listings_lint_clean(paper_db):
    for name, ddl in SETUP.items():
        assert paper_db.lint(ddl) == [], f"setup {name} has findings"
        paper_db.execute(ddl)
    listings = dict(LISTINGS)
    listings.update(expanded_listings(paper_db))
    for name, sql in listings.items():
        diags = paper_db.lint(sql)
        assert diags == [], f"{name}: {[d.render() for d in diags]}"


# ---------------------------------------------------------------------------
# Surfaces: EXPLAIN (LINT) and the shell's \lint
# ---------------------------------------------------------------------------


def test_explain_lint_prepends_diagnostics(paper_db):
    rows = paper_db.execute(
        "EXPLAIN (LINT) SELECT prodName FROM Orders LIMIT 2"
    ).rows
    lines = [row[0] for row in rows]
    assert any(line.startswith("lint: warning RP108") for line in lines)
    # The plan itself still follows the lint block.
    assert any("Scan" in line for line in lines)


def test_explain_lint_clean_query(paper_db):
    rows = paper_db.execute(
        "EXPLAIN (LINT) SELECT prodName FROM Orders ORDER BY prodName"
    ).rows
    assert ("lint: clean",) in rows


def test_shell_lint_meta_command(paper_db):
    from repro.cli import Shell

    out = io.StringIO()
    shell = Shell(db=paper_db, out=out)
    shell.handle_line("\\lint SELECT prodName FROM Orders LIMIT 2;")
    assert "RP108" in out.getvalue()

    out = io.StringIO()
    Shell(db=paper_db, out=out).handle_line(
        "\\lint SELECT prodName FROM Orders;"
    )
    assert "lint: clean" in out.getvalue()


# ---------------------------------------------------------------------------
# Bind errors carry source positions (no more "line 0")
# ---------------------------------------------------------------------------


def test_bind_error_span_single_line(paper_db):
    with pytest.raises(BindError) as err:
        paper_db.execute("SELECT nosuch FROM Orders")
    assert err.value.line == 1 and err.value.column == 8
    assert "line 1, column 8" in str(err.value)


def test_bind_error_span_multi_line(paper_db):
    with pytest.raises(BindError) as err:
        paper_db.execute("SELECT\n  nosuch\nFROM Orders")
    assert err.value.line == 2


def test_bind_error_span_order_by_after_group_by(paper_db):
    sql = (
        "SELECT prodName, SUM(revenue) AS r FROM Orders "
        "GROUP BY prodName ORDER BY zzz"
    )
    with pytest.raises(BindError) as err:
        paper_db.execute(sql)
    assert "zzz" in str(err.value)
    assert err.value.line == 1 and err.value.column == sql.index("zzz") + 1


def test_bind_error_span_aggregate_in_where(paper_db):
    with pytest.raises(BindError) as err:
        paper_db.execute("SELECT prodName FROM Orders WHERE SUM(revenue) > 1")
    assert err.value.line == 1 and err.value.column > 1


# ---------------------------------------------------------------------------
# Plan/IR validator
# ---------------------------------------------------------------------------


def _values(arity: int = 1) -> plans.ValuesPlan:
    row = [b.BoundLiteral(i, INT) for i in range(arity)]
    schema = [(f"c{i}", INT) for i in range(arity)]
    return plans.ValuesPlan([row], schema)


def test_validator_accepts_real_plans(paper_db):
    for sql in (
        "SELECT prodName, SUM(revenue) AS r FROM Orders GROUP BY prodName",
        "SELECT o.prodName FROM Orders o JOIN Customers c "
        "ON o.custName = c.custName WHERE o.revenue > 4",
        "SELECT prodName FROM Orders WHERE revenue > "
        "(SELECT MIN(revenue) FROM Orders)",
    ):
        assert validate_plan(plan_of(paper_db, sql)) == []


def test_validator_flags_out_of_range_offset():
    bad = plans.Project(_values(1), [b.BoundColumn(3, INT, "y")], [("y", INT)])
    violations = validate_plan(bad)
    assert violations and "out of range" in violations[0]


def test_validator_flags_project_arity_mismatch():
    col = b.BoundColumn(0, INT, "x")
    bad = plans.Project(_values(1), [col, col], [("y", INT)])
    assert any("arity" in v for v in validate_plan(bad))


def test_validator_flags_dangling_outer_reference():
    bad = plans.Filter(_values(1), b.BoundOuterColumn(1, 0, INT, "o"))
    assert any("nesting depth" in v for v in validate_plan(bad))


def test_validator_checks_inside_subquery_plans():
    inner = plans.Project(_values(1), [b.BoundColumn(9, INT)], [("y", INT)])
    sub = b.BoundSubquery(inner, "SCALAR", INT)
    bad = plans.Filter(_values(1), sub)
    violations = validate_plan(bad)
    assert violations and "subquery" in violations[0]


def test_check_plan_raises_with_violation_detail():
    bad = plans.Project(_values(1), [b.BoundColumn(3, INT)], [("y", INT)])
    with pytest.raises(ValidationError) as err:
        check_plan(bad, "unit-test")
    assert "unit-test" in str(err.value)
    assert err.value.violations


def test_validation_enabled_reads_env(monkeypatch):
    monkeypatch.delenv("REPRO_VALIDATE", raising=False)
    assert not validation_enabled()
    monkeypatch.setenv("REPRO_VALIDATE", "1")
    assert validation_enabled()
    monkeypatch.setenv("REPRO_VALIDATE", "0")
    assert not validation_enabled()


def test_validating_database_matches_plain_results(validating_db):
    load_paper_tables(validating_db)
    plain = Database()
    load_paper_tables(plain)
    for sql in (
        "SELECT prodName, SUM(revenue) AS r FROM Orders GROUP BY prodName "
        "ORDER BY prodName",
        "SELECT o.prodName, c.custAge FROM Orders o JOIN Customers c "
        "ON o.custName = c.custName WHERE o.revenue > 4 ORDER BY 1, 2",
    ):
        assert validating_db.execute(sql).rows == plain.execute(sql).rows


# ---------------------------------------------------------------------------
# Fingerprints and non-convergence detection
# ---------------------------------------------------------------------------


def test_fingerprint_is_structural_not_identity(paper_db):
    sql = (
        "SELECT prodName FROM Orders WHERE revenue > "
        "(SELECT MIN(revenue) FROM Orders)"
    )
    plan = plan_of(paper_db, sql)
    assert plan_fingerprint(plan) == plan_fingerprint(copy.deepcopy(plan))


def test_fingerprint_survives_a_copy_of_a_plan_holding_measures(paper_db):
    paper_db.execute(SETUP["EnhancedOrders"])
    plan = plan_of(
        paper_db,
        "SELECT prodName, AGGREGATE(profitMargin) AT (ALL prodName) "
        "FROM EnhancedOrders GROUP BY prodName",
    )
    assert any(
        isinstance(node, b.BoundMeasureEval)
        for root in plan.expressions()
        for node in b.walk(root)
    )
    assert plan_fingerprint(plan) == plan_fingerprint(copy.deepcopy(plan))


def test_fingerprint_distinguishes_different_plans(paper_db):
    one = plan_of(paper_db, "SELECT prodName FROM Orders WHERE revenue > 4")
    two = plan_of(paper_db, "SELECT prodName FROM Orders WHERE revenue > 5")
    assert plan_fingerprint(one) != plan_fingerprint(two)


def test_validator_catches_non_converging_rewrite_rule(paper_db, monkeypatch):
    """A rule that 'changes' the plan into a structural copy of itself used
    to spin to the MAX_PASSES cap and die as an opaque InternalError; with
    validation on, the very first wasted pass is reported as such."""
    from repro.plan import optimizer

    plan = plan_of(paper_db, "SELECT prodName FROM Orders WHERE revenue > 4")
    monkeypatch.setattr(
        optimizer, "_rewrite", lambda p: (copy.deepcopy(p), True)
    )
    with pytest.raises(ValidationError, match="structurally identical"):
        optimizer.optimize(plan, validate=True)
    with pytest.raises(InternalError, match="fixpoint") as err:
        optimizer.optimize(plan, validate=False)
    assert not isinstance(err.value, ValidationError)


# ---------------------------------------------------------------------------
# Summary reject reasons carry rule slugs
# ---------------------------------------------------------------------------


def test_reject_reasons_break_down_by_rule(summary_db):
    summary_db.execute(
        "SELECT orderDate, SUM(revenue) AS r FROM Orders GROUP BY orderDate"
    )
    stats = summary_db.summary_stats()["prod_cust"]
    assert stats["rejects"] == 1
    assert stats["reject_reasons"] == {"missing-dimension": 1}


def test_explain_reject_lines_name_the_rule(summary_db):
    rows = summary_db.execute(
        "EXPLAIN SELECT orderDate, SUM(revenue) AS r FROM Orders "
        "GROUP BY orderDate"
    ).rows
    lines = [row[0] for row in rows]
    assert any(
        "rejected [missing-dimension]" in line for line in lines
    ), lines


def test_lint_summary_advisor_does_not_inflate_counters(summary_db):
    summary_db.lint(
        "SELECT orderDate, SUM(revenue) AS r FROM Orders GROUP BY orderDate"
    )
    assert summary_db.summary_stats()["prod_cust"]["rejects"] == 0


# ---------------------------------------------------------------------------
# Self-check entry point
# ---------------------------------------------------------------------------


def test_self_check_passes_on_paper_listings(tmp_path, capsys):
    from repro.analysis.__main__ import main

    exit_code = main(["--self-check", "--examples-dir", str(tmp_path / "no")])
    out = capsys.readouterr().out
    assert exit_code == 0
    assert "0 with findings" in out


def test_self_check_fails_on_an_expansion_that_returns_other_rows(
    tmp_path, capsys, monkeypatch
):
    """The self-check runs every listing through its expansion: a silent
    divergence from the interpreter (here: forced) is a finding."""
    from repro.analysis.__main__ import main

    real = Database.execute_with_strategy

    def diverging(self, sql, params=(), *, strategy):
        result = real(self, sql, params, strategy=strategy)
        if "AGGREGATE(profitMargin)" in sql:
            result.rows = result.rows[:-1]
        return result

    monkeypatch.setattr(Database, "execute_with_strategy", diverging)
    exit_code = main(["--self-check", "--examples-dir", str(tmp_path / "no")])
    out = capsys.readouterr().out
    assert exit_code == 1
    assert "FAIL expand:paper:listing3" in out and "FAIL expand:paper:listing4" in out


def test_self_check_accepts_a_refused_expansion(tmp_path, capsys, monkeypatch):
    from repro import UnsupportedError
    from repro.analysis.__main__ import main

    def refusing(self, sql, params=(), *, strategy):
        raise UnsupportedError("static expansion cannot print this")

    monkeypatch.setattr(Database, "execute_with_strategy", refusing)
    assert main(["--self-check", "--examples-dir", str(tmp_path / "no")]) == 0
