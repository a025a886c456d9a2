"""Subquery execution: scalar, EXISTS, IN; correlation; memoization."""

from __future__ import annotations

import pytest

from repro import BindError, Database, ExecutionError


@pytest.fixture
def sdb(db: Database) -> Database:
    db.execute("CREATE TABLE emp (name VARCHAR, dept VARCHAR, salary INTEGER)")
    db.execute(
        """INSERT INTO emp VALUES
           ('ann', 'eng', 100), ('bo', 'eng', 80),
           ('cy', 'ops', 60), ('di', 'ops', 70)"""
    )
    return db


def test_uncorrelated_scalar_subquery(sdb):
    rows = sdb.execute(
        "SELECT name FROM emp WHERE salary > (SELECT AVG(salary) FROM emp) ORDER BY name"
    ).rows
    assert rows == [("ann",), ("bo",)]  # AVG is 77.5


def test_correlated_scalar_subquery(sdb):
    rows = sdb.execute(
        """SELECT name FROM emp AS e
           WHERE salary > (SELECT AVG(salary) FROM emp AS i WHERE i.dept = e.dept)
           ORDER BY name"""
    ).rows
    assert rows == [("ann",), ("di",)]


def test_scalar_subquery_empty_is_null(sdb):
    assert (
        sdb.execute("SELECT (SELECT salary FROM emp WHERE name = 'zz')").scalar()
        is None
    )


def test_scalar_subquery_multiple_rows_raises(sdb):
    with pytest.raises(ExecutionError):
        sdb.execute("SELECT (SELECT salary FROM emp)")


def test_scalar_subquery_must_have_one_column(sdb):
    with pytest.raises(BindError):
        sdb.execute("SELECT (SELECT name, salary FROM emp WHERE name = 'ann')")


def test_exists(sdb):
    rows = sdb.execute(
        """SELECT DISTINCT dept FROM emp AS e
           WHERE EXISTS (SELECT 1 FROM emp AS i
                         WHERE i.dept = e.dept AND i.salary >= 100)"""
    ).rows
    assert rows == [("eng",)]


def test_not_exists(sdb):
    rows = sdb.execute(
        """SELECT DISTINCT dept FROM emp AS e
           WHERE NOT EXISTS (SELECT 1 FROM emp AS i
                             WHERE i.dept = e.dept AND i.salary >= 100)"""
    ).rows
    assert rows == [("ops",)]


def test_in_subquery(sdb):
    rows = sdb.execute(
        """SELECT name FROM emp
           WHERE dept IN (SELECT dept FROM emp WHERE salary >= 100)
           ORDER BY name"""
    ).rows
    assert rows == [("ann",), ("bo",)]


def test_not_in_subquery_with_null_yields_nothing(sdb):
    sdb.execute("INSERT INTO emp VALUES ('nn', NULL, 50)")
    rows = sdb.execute(
        "SELECT name FROM emp WHERE dept NOT IN (SELECT dept FROM emp)"
    ).rows
    # The NULL dept in the subquery makes NOT IN unknowable for every row.
    assert rows == []


def test_subquery_in_select_list(sdb):
    rows = sdb.execute(
        """SELECT name, (SELECT MAX(salary) FROM emp AS i WHERE i.dept = e.dept)
           FROM emp AS e ORDER BY name"""
    ).rows
    assert rows == [("ann", 100), ("bo", 100), ("cy", 70), ("di", 70)]


def test_correlated_subquery_in_select_of_grouped_query(sdb):
    rows = sdb.execute(
        """SELECT dept,
                  (SELECT COUNT(*) FROM emp AS i WHERE i.dept = e.dept) AS n
           FROM emp AS e GROUP BY dept ORDER BY dept"""
    ).rows
    assert rows == [("eng", 2), ("ops", 2)]


def test_correlated_on_group_expression(sdb):
    rows = sdb.execute(
        """SELECT UPPER(dept),
                  (SELECT SUM(salary) FROM emp AS i WHERE UPPER(i.dept) = UPPER(e.dept))
           FROM emp AS e GROUP BY UPPER(dept) ORDER BY 1"""
    ).rows
    assert rows == [("ENG", 180), ("OPS", 130)]


def test_correlation_to_nongrouped_column_rejected(sdb):
    with pytest.raises(BindError):
        sdb.execute(
            """SELECT dept,
                      (SELECT COUNT(*) FROM emp AS i WHERE i.name = e.name)
               FROM emp AS e GROUP BY dept"""
        )


def test_nested_correlation_two_levels(sdb):
    rows = sdb.execute(
        """SELECT name FROM emp AS e
           WHERE salary = (SELECT MAX(salary) FROM emp AS i
                           WHERE i.dept = e.dept
                             AND EXISTS (SELECT 1 FROM emp AS j
                                         WHERE j.dept = e.dept AND j.salary < i.salary))
           ORDER BY name"""
    ).rows
    assert rows == [("ann",), ("di",)]


def test_subquery_cache_hits(sdb):
    sdb.execute(
        """SELECT name FROM emp AS e
           WHERE salary > (SELECT AVG(salary) FROM emp AS i WHERE i.dept = e.dept)"""
    )
    stats = sdb.last_stats
    # Four rows but only two distinct departments: two executions, two hits.
    assert stats.subquery_executions == 2
    assert stats.subquery_cache_hits == 2


def test_subquery_cache_disabled(sdb):
    cold = Database(cache=False)
    cold.execute("CREATE TABLE emp (name VARCHAR, dept VARCHAR, salary INTEGER)")
    cold.execute(
        """INSERT INTO emp VALUES ('ann', 'eng', 100), ('bo', 'eng', 80),
           ('cy', 'ops', 60), ('di', 'ops', 70)"""
    )
    cold.execute(
        """SELECT name FROM emp AS e
           WHERE salary > (SELECT AVG(salary) FROM emp AS i WHERE i.dept = e.dept)"""
    )
    assert cold.last_stats.subquery_executions == 4
    assert cold.last_stats.subquery_cache_hits == 0


def test_subquery_over_view(sdb):
    sdb.execute("CREATE VIEW eng AS SELECT * FROM emp WHERE dept = 'eng'")
    assert sdb.execute("SELECT (SELECT COUNT(*) FROM eng)").scalar() == 2


FRAME_READS_OUTER_ROW = """
    SELECT o.k,
           (SELECT MAX(c)
            FROM (SELECT COUNT(*) OVER (ORDER BY i ROWS BETWEEN o.k PRECEDING
                                        AND CURRENT ROW) AS c
                  FROM steps) AS w)
    FROM offsets AS o ORDER BY o.k"""


@pytest.mark.parametrize("cache", [True, False], ids=["cache-on", "cache-off"])
def test_window_frame_offset_is_a_correlated_reference(cache):
    """A frame offset that reads the outer row correlates the subquery like
    any other expression: the widest frame of ``k`` PRECEDING rows over five
    holds min(k + 1, 5), one answer per distinct ``k``, none served from
    another's memo entry."""
    db = Database(cache=cache)
    db.execute("CREATE TABLE offsets (k INTEGER)")
    db.execute("INSERT INTO offsets VALUES (0), (1), (3)")
    db.execute("CREATE TABLE steps (i INTEGER)")
    db.execute("INSERT INTO steps VALUES (1), (2), (3), (4), (5)")
    assert db.execute(FRAME_READS_OUTER_ROW).rows == [(0, 1), (1, 2), (3, 4)]
    assert db.last_stats.subquery_executions == 3
    assert db.last_stats.subquery_cache_hits == 0


def test_validator_checks_window_frame_offsets():
    from repro.analysis.validator import validate_plan
    from repro.plan import logical as plans
    from repro.semantics import bound as b
    from repro.types import INTEGER

    scan = plans.Scan("steps", [("i", INTEGER)])

    def window(offset):
        call = b.BoundWindowCall(
            "COUNT", [], [], [b.SortSpec(b.BoundColumn(0, INTEGER))],
            ("ROWS", "PRECEDING", offset, "CURRENT ROW", None),
            INTEGER, star=True,
        )
        return plans.Window(scan, [call], [("i", INTEGER), ("$win0", INTEGER)])

    assert validate_plan(window(b.BoundLiteral(1, INTEGER))) == []
    violations = validate_plan(window(b.BoundColumn(7, INTEGER)))
    assert len(violations) == 1 and "offset 7 out of range" in violations[0]


def test_subqueries_are_identified_by_structure(sdb):
    """Two bindings of the same subquery text are the same expression: a
    SELECT item matches a GROUP BY key that holds one (it used to be refused
    as an ungrouped correlated reference), and an ORDER BY expression matches
    the SELECT item it repeats instead of sorting on a hidden copy."""
    top = "(SELECT MAX(i.salary) FROM emp AS i WHERE i.dept = e.dept) / 10"
    rows = sdb.execute(
        f"SELECT {top} AS top, COUNT(*) FROM emp AS e GROUP BY {top} ORDER BY 1"
    ).rows
    assert rows == [(7.0, 2), (10.0, 2)]
    query = (
        "SELECT name, salary + (SELECT 1) AS s FROM emp "
        "ORDER BY salary + (SELECT 1) DESC"
    )
    assert sdb.execute(query).rows == [
        ("ann", 101), ("bo", 81), ("di", 71), ("cy", 61)
    ]
    plan = [line.strip() for (line,) in sdb.execute("EXPLAIN " + query).rows]
    assert plan == ["Sort", "Project", "Scan(emp)"]
