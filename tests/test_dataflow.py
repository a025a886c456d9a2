"""Typed dataflow analysis: inference, operator facts, fact-justified
optimizer rewrites, EXPLAIN (TYPES), profile annotations, the lock-discipline
checker, and the evaluator's error-span regressions."""

from __future__ import annotations

import textwrap

import pytest

from repro import Database
from repro.analysis.dataflow import (
    NOT_CONST,
    analyze_plan,
    explain_types_lines,
    facts_summary,
    is_null_rejecting,
)
from repro.errors import ExecutionError
from repro.plan import logical as plans
from repro.semantics import bound as b
from repro.semantics.binder import Binder
from repro.sql import parse_query
from repro.types import BOOLEAN, INTEGER, UNKNOWN, VARCHAR
from repro.workloads.listings import LISTINGS, SETUP
from repro.workloads.paper_data import load_paper_tables


def bound_plan(db: Database, sql: str) -> plans.LogicalPlan:
    """Bind without optimizing: spans and operator shapes stay as written."""
    plan, _ = Binder(db.catalog).bind_query_top(parse_query(sql))
    return plan


def facts_of(db: Database, sql: str):
    plan = bound_plan(db, sql)
    return analyze_plan(plan, db.catalog), plan


def optimized_plan(db: Database, sql: str) -> plans.LogicalPlan:
    return db.plan_query(parse_query(sql), sql=sql).plan


def tree_ops(plan: plans.LogicalPlan) -> list[str]:
    return [type(node).__name__ for node in plan.walk()]


# ---------------------------------------------------------------------------
# Expression-level inference
# ---------------------------------------------------------------------------


class TestInferExpr:
    def test_literal_is_constant_and_typed(self, paper_db):
        facts, _ = facts_of(paper_db, "SELECT 42, 'x', NULL FROM Orders")
        num, text, null = facts.columns
        assert num.dtype.unwrap() is INTEGER and num.const == 42
        assert not num.nullable
        assert text.dtype.unwrap() is VARCHAR and text.const == "x"
        assert null.nullable and null.const is None

    def test_strict_op_preserves_non_nullability(self, db):
        # VALUES literals are provably non-null, and + is strict.
        facts, _ = facts_of(db, "SELECT col1 + 1 FROM (VALUES (1), (2)) AS v")
        assert not facts.columns[0].nullable

    def test_strict_op_with_nullable_input_stays_nullable(self, db):
        db.execute("CREATE TABLE t (v INTEGER)")
        facts, _ = facts_of(db, "SELECT v * 2 FROM t")
        assert facts.columns[0].nullable

    def test_between_is_not_null_strict(self, db):
        # x BETWEEN NULL AND 5 is FALSE (not NULL) when x > 5, so BETWEEN
        # must not fold to NULL the way strict operators do.
        db.execute("CREATE TABLE t (v INTEGER)")
        db.execute("INSERT INTO t VALUES (7)")
        assert db.execute(
            "SELECT v BETWEEN NULL AND 5 FROM t"
        ).rows == [(False,)]
        facts, _ = facts_of(db, "SELECT v BETWEEN NULL AND 5 FROM t")
        assert facts.columns[0].const is NOT_CONST

    def test_is_null_and_coalesce_never_null(self, db):
        db.execute("CREATE TABLE t (v INTEGER)")
        facts, _ = facts_of(
            db, "SELECT v IS NULL, COALESCE(v, 0) FROM t"
        )
        is_null, coalesced = facts.columns
        assert is_null.dtype.unwrap() is BOOLEAN and not is_null.nullable
        assert not coalesced.nullable

    def test_constant_arithmetic_folds_through_inference(self, paper_db):
        facts, _ = facts_of(paper_db, "SELECT 2 + 3 * 4 FROM Orders")
        assert facts.columns[0].const == 14

    def test_comparison_of_constants_is_constant(self, paper_db):
        facts, _ = facts_of(paper_db, "SELECT 1 < 2 FROM Orders")
        assert facts.columns[0].const is True


# ---------------------------------------------------------------------------
# Operator-level facts
# ---------------------------------------------------------------------------


class TestOperatorFacts:
    def test_scan_carries_exact_cardinality_and_schema(self, paper_db):
        facts, plan = facts_of(paper_db, "SELECT * FROM Orders")
        scan = [n for n in plan.walk() if isinstance(n, plans.Scan)][0]
        assert scan.facts is not None
        assert scan.facts.row_min == scan.facts.row_max == 5
        names = [col.name for col in scan.facts.columns]
        assert "revenue" in names and "prodName" in names

    def test_every_node_gets_facts(self, paper_db):
        _, plan = facts_of(
            paper_db,
            "SELECT prodName, SUM(revenue) FROM Orders "
            "WHERE revenue > 10 GROUP BY prodName ORDER BY prodName",
        )
        for node in plan.walk():
            assert node.facts is not None, type(node).__name__

    def test_filter_equality_pins_column_to_constant(self, paper_db):
        facts, _ = facts_of(
            paper_db,
            "SELECT prodName FROM Orders WHERE prodName = 'Happy'",
        )
        assert facts.columns[0].const == "Happy"

    def test_aggregate_group_keys_become_unique(self, paper_db):
        facts, _ = facts_of(
            paper_db,
            "SELECT prodName, SUM(revenue) FROM Orders GROUP BY prodName",
        )
        assert frozenset([0]) in facts.keys

    def test_global_aggregate_is_exactly_one_row(self, paper_db):
        facts, _ = facts_of(paper_db, "SELECT SUM(revenue) FROM Orders")
        assert facts.row_min == facts.row_max == 1
        assert facts.keys == (frozenset(),)

    def test_limit_caps_row_bounds(self, paper_db):
        facts, _ = facts_of(paper_db, "SELECT * FROM Orders LIMIT 2")
        assert facts.row_max == 2

    def test_distinct_on_key_preserves_cardinality(self, paper_db):
        facts, _ = facts_of(paper_db, "SELECT DISTINCT custName FROM Customers")
        # custName is unique in Customers (3 rows), so DISTINCT is a no-op
        # cardinality-wise.
        assert facts.row_max == 3

    def test_left_join_marks_padded_columns(self, paper_db):
        _, plan = facts_of(
            paper_db,
            "SELECT o.prodName, c.custAge FROM Orders AS o "
            "LEFT JOIN Customers AS c ON o.custName = c.custName",
        )
        join = [n for n in plan.walk() if isinstance(n, plans.Join)][0]
        left_width = len(join.left.facts.columns)
        right_side = join.facts.columns[left_width:]
        assert right_side and all(col.padded for col in right_side)
        assert all(not col.padded for col in join.facts.columns[:left_width])

    def test_join_on_unique_key_does_not_multiply_rows(self, paper_db):
        facts, _ = facts_of(
            paper_db,
            "SELECT o.revenue FROM Orders AS o "
            "JOIN (SELECT custName FROM Customers GROUP BY custName) AS c "
            "ON o.custName = c.custName",
        )
        # The right side is keyed on custName (its GROUP BY key), so the
        # join can at most preserve Orders' five rows.
        assert facts.row_max == 5

    def test_values_facts(self, db):
        facts, _ = facts_of(db, "SELECT * FROM (VALUES (1, 'a'), (2, 'b')) AS v")
        assert facts.row_min == facts.row_max == 2
        n, s = facts.columns
        assert n.dtype.unwrap() is INTEGER and not n.nullable
        assert s.dtype.unwrap() is VARCHAR

    def test_union_all_adds_bounds(self, paper_db):
        facts, _ = facts_of(
            paper_db,
            "SELECT custName FROM Customers UNION ALL SELECT custName FROM Customers",
        )
        assert facts.row_min == facts.row_max == 6


class TestNullRejecting:
    def _filter_over_join(self, db, sql):
        plan = bound_plan(db, sql)
        filt = [n for n in plan.walk() if isinstance(n, plans.Filter)][0]
        join = [n for n in plan.walk() if isinstance(n, plans.Join)][0]
        facts = analyze_plan(join, db.catalog)
        padded = {
            offset for offset, col in enumerate(facts.columns) if col.padded
        }
        return filt.predicate, facts, padded

    def test_strict_comparison_rejects_padded_nulls(self, paper_db):
        predicate, facts, padded = self._filter_over_join(
            paper_db,
            "SELECT o.revenue, c.custAge FROM Orders AS o "
            "LEFT JOIN Customers AS c ON o.custName = c.custName "
            "WHERE c.custAge > 30",
        )
        assert padded
        assert is_null_rejecting(predicate, facts, padded)

    def test_is_null_predicate_is_not_null_rejecting(self, paper_db):
        predicate, facts, padded = self._filter_over_join(
            paper_db,
            "SELECT o.revenue FROM Orders AS o "
            "LEFT JOIN Customers AS c ON o.custName = c.custName "
            "WHERE c.custAge IS NULL",
        )
        assert not is_null_rejecting(predicate, facts, padded)


# ---------------------------------------------------------------------------
# Fact-justified optimizer rewrites
# ---------------------------------------------------------------------------


# Paper Listing 12 (query 2): a LEFT JOIN whose WHERE clause compares a
# right-side column.  The dataflow analysis proves the predicate rejects
# padded rows, so the optimizer strengthens the join to INNER.
LISTING12_Q2 = LISTINGS["listing12_q2"]


class TestOptimizerRewrites:
    def test_contradiction_becomes_empty_values(self, paper_db):
        plan = optimized_plan(paper_db, "SELECT revenue FROM Orders WHERE 1 = 2")
        ops = tree_ops(plan)
        assert "Scan" not in ops
        assert "ValuesPlan" in ops
        assert paper_db.execute("SELECT revenue FROM Orders WHERE 1 = 2").rows == []

    def test_strict_null_predicate_folds_to_empty(self, paper_db):
        plan = optimized_plan(
            paper_db, "SELECT revenue FROM Orders WHERE revenue = NULL"
        )
        assert "Scan" not in tree_ops(plan)
        assert (
            paper_db.execute("SELECT revenue FROM Orders WHERE revenue = NULL").rows
            == []
        )

    def test_tautology_drops_filter(self, paper_db):
        plan = optimized_plan(paper_db, "SELECT revenue FROM Orders WHERE 1 = 1")
        assert "Filter" not in tree_ops(plan)
        assert len(paper_db.execute("SELECT revenue FROM Orders WHERE 1 = 1").rows) == 5

    def test_constant_folding_in_projections(self, paper_db):
        plan = optimized_plan(paper_db, "SELECT revenue + (2 + 3) FROM Orders")
        project = [n for n in plan.walk() if isinstance(n, plans.Project)][0]
        folded = [
            node
            for expr in project.exprs
            for node in b.walk(expr)
            if isinstance(node, b.BoundLiteral) and node.value == 5
        ]
        assert folded, "2 + 3 should fold to a single literal 5"

    def test_folding_does_not_hide_runtime_errors(self, paper_db):
        # 1/0 under a CASE arm that never executes must not be folded into
        # an error at plan time, and must still raise when executed.
        rows = paper_db.execute(
            "SELECT CASE WHEN revenue > 0 THEN 1 ELSE 1/0 END FROM Orders"
        ).rows
        assert rows == [(1,)] * 5
        with pytest.raises(ExecutionError):
            paper_db.execute("SELECT 1/0 FROM Orders")

    def test_null_rejecting_filter_strengthens_left_join(self, paper_db):
        """The acceptance proof: a paper listing's plan changes under the
        dataflow-justified LEFT->INNER rewrite with identical results."""
        plan = optimized_plan(paper_db, LISTING12_Q2)
        # Strengthened, the join is a hash step: one pipeline, no Join left.
        kinds = [n.kinds for n in plan.walk() if isinstance(n, plans.JoinPipeline)]
        assert kinds == [["INNER"]]
        assert not any(isinstance(n, plans.Join) for n in plan.walk())

        unopt = Database()
        load_paper_tables(unopt)
        unopt.optimizer_enabled = False
        unopt_plan = unopt.plan_query(
            parse_query(LISTING12_Q2), sql=LISTING12_Q2
        ).plan
        unopt_joins = [
            n for n in unopt_plan.walk() if isinstance(n, plans.Join)
        ]
        assert any(j.kind == "LEFT" for j in unopt_joins)
        baseline = unopt.execute(LISTING12_Q2).rows
        assert paper_db.execute(LISTING12_Q2).rows == baseline

    def test_explain_shows_the_strengthened_join(self, paper_db):
        text = "\n".join(
            row[0] for row in paper_db.execute("EXPLAIN " + LISTING12_Q2).rows
        )
        assert "INNER" in text and "LEFT" not in text

    def test_optimizer_survives_validator(self):
        db = Database(validate=True)
        load_paper_tables(db)
        assert db.execute("SELECT revenue FROM Orders WHERE 1 = 2").rows == []
        assert len(db.execute(LISTING12_Q2).rows) > 0


# ---------------------------------------------------------------------------
# EXPLAIN (TYPES) and profile annotations
# ---------------------------------------------------------------------------


class TestExplainTypes:
    def test_explain_types_renders_per_node_facts(self, paper_db):
        rows = paper_db.execute(
            "EXPLAIN (TYPES) SELECT prodName, SUM(revenue) AS r "
            "FROM Orders GROUP BY prodName"
        ).rows
        text = "\n".join(row[0] for row in rows)
        assert "Aggregate" in text and "Scan" in text
        assert "rows=" in text and "key=" in text
        assert "VARCHAR" in text

    def test_explain_types_matches_dataflow_renderer(self, paper_db):
        sql = "SELECT revenue FROM Orders LIMIT 2"
        rows = paper_db.execute(f"EXPLAIN (TYPES) {sql}").rows
        plan = optimized_plan(paper_db, sql)
        assert [row[0] for row in rows] == explain_types_lines(
            plan, paper_db.catalog
        )

    def test_explain_lint_types_combination(self, paper_db):
        rows = paper_db.execute(
            "EXPLAIN (LINT, TYPES) SELECT revenue FROM Orders"
        ).rows
        text = "\n".join(row[0] for row in rows)
        assert text.startswith("lint:")
        assert "rows=" in text

    def test_explain_analyze_types_combination(self, paper_db):
        rows = paper_db.execute(
            "EXPLAIN (ANALYZE, TYPES) SELECT revenue FROM Orders"
        ).rows
        text = "\n".join(row[0] for row in rows)
        # Observed tree first, then the predicted facts under "types:".
        assert "calls=1" in text
        assert "types:" in text
        assert "INTEGER" in text.split("types:")[1]

    def test_profile_nodes_carry_facts(self, paper_db):
        paper_db.profile_enabled = True
        paper_db.execute("SELECT prodName, SUM(revenue) FROM Orders GROUP BY prodName")
        profile = paper_db.last_profile()
        tree = profile.to_dict()["plan"]
        stack = [tree]
        seen = 0
        while stack:
            node = stack.pop()
            if "facts" in node:
                seen += 1
                assert "columns" in node["facts"]
                assert "row_min" in node["facts"]
                assert "row_max" in node["facts"]
            stack.extend(node.get("children", []))
        assert seen > 0

    def test_facts_summary_shape(self, paper_db):
        facts, _ = facts_of(paper_db, "SELECT SUM(revenue) AS r FROM Orders")
        summary = facts_summary(facts)
        assert summary["row_min"] == summary["row_max"] == 1
        assert summary["columns"][0]["name"] == "r"


class TestSelfCheckTypes:
    def test_all_listings_fully_typed(self, paper_db):
        """The CI gate's property: zero UNKNOWN output types on the paper
        listings, and facts on every operator."""
        for ddl in SETUP.values():
            paper_db.execute(ddl)
        for name, sql in LISTINGS.items():
            planned = paper_db.plan_query(parse_query(sql), sql=sql)
            for node in planned.plan.walk():
                assert node.facts is not None, f"{name}: {type(node).__name__}"
            for col in planned.plan.facts.columns:
                assert col.dtype.unwrap() is not UNKNOWN, f"{name}: {col.name}"


# ---------------------------------------------------------------------------
# Lock-discipline checker
# ---------------------------------------------------------------------------


class TestLockCheck:
    def _check(self, tmp_path, source: str):
        from repro.analysis.lockcheck import check_file

        path = tmp_path / "mod.py"
        path.write_text(textwrap.dedent(source))
        return check_file(path, "server/mod.py")

    def test_unguarded_access_is_flagged(self, tmp_path):
        findings = self._check(
            tmp_path,
            """
            def handler(db):
                return db.execute("SELECT 1")
            """,
        )
        assert len(findings) == 1
        assert findings[0].member == "execute"
        assert findings[0].line > 0

    def test_guarded_access_is_clean(self, tmp_path):
        findings = self._check(
            tmp_path,
            """
            def handler(db, lock):
                with lock.rwlock.read():
                    return db.execute("SELECT 1")
            """,
        )
        assert findings == []

    def test_closure_inside_with_block_is_still_flagged(self, tmp_path):
        # The closure runs after the with-block releases the lock, so the
        # lexical guard must not cover it.
        findings = self._check(
            tmp_path,
            """
            def handler(db, lock):
                with lock.rwlock.write():
                    def later():
                        return db.catalog.names()
                    return later
            """,
        )
        assert [f.member for f in findings] == ["catalog"]

    def test_unguarded_after_with_block_is_flagged(self, tmp_path):
        findings = self._check(
            tmp_path,
            """
            def handler(db, lock):
                with lock.rwlock.read():
                    pass
                return db.catalog
            """,
        )
        assert [f.member for f in findings] == ["catalog"]

    def test_non_db_receiver_is_ignored(self, tmp_path):
        findings = self._check(
            tmp_path,
            """
            def handler(conn):
                return conn.execute("SELECT 1")
            """,
        )
        assert findings == []

    def test_real_tree_is_clean(self, capsys):
        from repro.analysis.lockcheck import run_lock_check

        assert run_lock_check() == 0
        out = capsys.readouterr().out
        assert "0 finding" in out

    @pytest.mark.parametrize(
        "entry",
        [
            "server/session.py::Session._no_such_method",
            "server/gone.py::main",
            "analysis/lockcheck.py::run_lock_check",  # a file it does not check
        ],
    )
    def test_a_stale_allowlist_entry_is_a_finding(self, monkeypatch, capsys, entry):
        from repro.analysis import lockcheck

        monkeypatch.setitem(lockcheck.ALLOWLIST, entry, "left behind")
        assert lockcheck.run_lock_check() == 1
        out = capsys.readouterr().out
        assert f"{entry}: stale allowlist entry" in out and "1 findings" in out


# ---------------------------------------------------------------------------
# Evaluator error spans (regression tests for the bugfix satellite)
# ---------------------------------------------------------------------------


class TestEvaluatorSpans:
    def test_cast_failure_carries_source_span(self, paper_db):
        with pytest.raises(ExecutionError) as exc_info:
            paper_db.execute("SELECT CAST(prodName AS INTEGER) FROM Orders")
        err = exc_info.value
        assert err.line == 1 and err.column == 8
        assert "line 1, column 8" in str(err)

    def test_multiline_sql_reports_the_right_line(self, paper_db):
        with pytest.raises(ExecutionError) as exc_info:
            paper_db.execute(
                "SELECT\n  CAST(prodName AS DATE)\nFROM Orders"
            )
        assert exc_info.value.line == 2

    def test_function_type_error_becomes_execution_error(self, paper_db):
        # A parameter's type is unknown at bind time; abs('x') raises a bare
        # TypeError at runtime, which must surface as a located
        # ExecutionError, not a Python traceback.
        with pytest.raises(ExecutionError) as exc_info:
            paper_db.execute("SELECT ABS(?) FROM Orders", params=("x",))
        err = exc_info.value
        assert err.line > 0 and "ABS" in str(err)

    def test_function_value_error_becomes_execution_error(self, paper_db):
        # Same for ValueError (int conversion of a malformed string).
        with pytest.raises(ExecutionError) as exc_info:
            paper_db.execute("SELECT SUBSTRING(prodName, 'x') FROM Orders")
        err = exc_info.value
        assert err.line > 0 and "SUBSTRING" in str(err)

    def test_division_by_zero_span(self, paper_db):
        with pytest.raises(ExecutionError) as exc_info:
            paper_db.execute("SELECT revenue / 0 FROM Orders")
        err = exc_info.value
        assert err.line == 1 and err.column > 0

    def test_innermost_span_wins(self, paper_db):
        # The failing cast is nested inside an addition; the error should
        # point at the cast, not the outer call.
        with pytest.raises(ExecutionError) as exc_info:
            paper_db.execute("SELECT 1 + CAST(prodName AS INTEGER) FROM Orders")
        assert exc_info.value.column == 12

    def test_formula_evaluation_carries_span(self, orders_db):
        orders_db.execute(
            "CREATE VIEW Bad AS SELECT prodName, "
            "SUM(CAST(prodName AS INTEGER)) AS MEASURE m FROM Orders"
        )
        with pytest.raises(ExecutionError) as exc_info:
            orders_db.execute("SELECT AGGREGATE(m) FROM Bad")
        assert exc_info.value.line > 0

    def test_unhashable_correlated_subquery_still_executes(self, db):
        # The subquery result cache silently skips unhashable keys; the
        # query must still produce correct rows.
        db.execute("CREATE TABLE t (v INTEGER)")
        db.execute("INSERT INTO t VALUES (1), (2)")
        rows = db.execute(
            "SELECT (SELECT COUNT(*) FROM t AS i WHERE i.v <= o.v) FROM t AS o"
        ).rows
        assert sorted(rows) == [(1,), (2,)]


# ---------------------------------------------------------------------------
# Property: static inference agrees with runtime values
# ---------------------------------------------------------------------------


import datetime

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SqlError

STRATEGIES = ("subquery", "inline", "window", "auto")


def _value_matches(value, dtype) -> bool:
    """Does a runtime value inhabit the statically inferred type?"""
    if value is None:
        return True
    name = str(dtype.unwrap())
    if name == "INTEGER":
        return isinstance(value, int) and not isinstance(value, bool)
    if name == "DOUBLE":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if name == "BOOLEAN":
        return isinstance(value, bool)
    if name == "VARCHAR":
        return isinstance(value, str)
    if name == "DATE":
        return isinstance(value, (datetime.date, str))
    return True  # UNKNOWN and friends constrain nothing


@pytest.fixture(scope="module")
def listings_db() -> Database:
    db = Database()
    load_paper_tables(db)
    for ddl in SETUP.values():
        db.execute(ddl)
    return db


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("name", sorted(LISTINGS))
def test_inference_agrees_with_runtime(listings_db, name, strategy):
    """Every paper listing, under every measure-expansion strategy: each
    output column's runtime values inhabit the inferred type, and columns
    inferred non-nullable never produce NULL."""
    sql = LISTINGS[name]
    try:
        expanded = listings_db.expand(sql, strategy=strategy)
    except SqlError as exc:
        pytest.skip(f"{strategy} expansion unsupported for {name}: {exc}")
    planned = listings_db.plan_query(parse_query(expanded), sql=expanded)
    facts = planned.plan.facts
    assert facts is not None
    rows = listings_db.execute(expanded).rows
    assert len(facts.columns) == len(planned.columns)
    for offset, column in enumerate(facts.columns):
        for row in rows:
            assert _value_matches(row[offset], column.dtype), (
                name, strategy, column.name, row[offset]
            )
            if not column.nullable:
                assert row[offset] is not None, (name, strategy, column.name)
    if facts.row_max is not None:
        assert len(rows) <= facts.row_max
    assert len(rows) >= facts.row_min or facts.row_min == 0


@settings(max_examples=50, deadline=None)
@given(
    exprs=st.lists(
        st.sampled_from(
            [
                "revenue",
                "revenue + cost",
                "revenue > 20",
                "prodName",
                "COALESCE(revenue, 0)",
                "CASE WHEN revenue > 20 THEN 'hi' ELSE 'lo' END",
                "revenue IS NULL",
                "-cost",
                "NULLIF(prodName, 'Happy')",
            ]
        ),
        min_size=1,
        max_size=4,
    ),
    agg=st.booleans(),
)
def test_inference_agrees_on_generated_queries(exprs, agg):
    db = Database()
    load_paper_tables(db)
    if agg:
        sql = (
            "SELECT prodName, SUM(revenue) AS s, COUNT(*) AS n "
            "FROM Orders GROUP BY prodName"
        )
    else:
        sql = f"SELECT {', '.join(exprs)} FROM Orders"
    facts, _ = facts_of(db, sql)
    rows = db.execute(sql).rows
    for offset, column in enumerate(facts.columns):
        for row in rows:
            assert _value_matches(row[offset], column.dtype)
            if not column.nullable:
                assert row[offset] is not None
