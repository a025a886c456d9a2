"""Shared fixtures: fresh databases, the paper's tables, common views."""

from __future__ import annotations

import pytest

from repro import Database
from repro.analysis import validation_enabled
from repro.workloads.paper_data import load_paper_tables


def pytest_report_header(config) -> str:
    """Show whether the plan/IR validator is active for this run.

    ``Database`` reads ``REPRO_VALIDATE`` at construction, so running the
    suite as ``REPRO_VALIDATE=1 pytest tests/`` checks every bound and
    optimized plan against the structural invariants (CI does one such run).
    """
    state = "on" if validation_enabled() else "off (set REPRO_VALIDATE=1)"
    return f"repro plan validator: {state}"


@pytest.fixture
def db() -> Database:
    """An empty database."""
    return Database()


@pytest.fixture
def validating_db() -> Database:
    """A database with the plan/IR validator forced on, env aside."""
    return Database(validate=True)


@pytest.fixture
def paper_db() -> Database:
    """A database loaded with the paper's Customers and Orders tables."""
    database = Database()
    load_paper_tables(database)
    return database


@pytest.fixture
def orders_db(paper_db: Database) -> Database:
    """Paper tables plus the EnhancedOrders view (paper Listing 3)."""
    paper_db.execute(
        """
        CREATE VIEW EnhancedOrders AS
        SELECT orderDate, prodName,
               (SUM(revenue) - SUM(cost)) / SUM(revenue) AS MEASURE profitMargin
        FROM Orders
        """
    )
    return paper_db


def rows(db: Database, sql: str) -> list[tuple]:
    """Execute and return rows (test helper)."""
    return db.execute(sql).rows


def scalar(db: Database, sql: str):
    return db.execute(sql).scalar()


class BothWays:
    """A database and its twin with the optimizer off: every statement runs
    on both and must return the same rows, in the same order.  Anything else
    (``expand``, ``catalog``, ``summary_stats``) is the optimized one's."""

    def __init__(self, build, **kwargs):
        self.optimized = build(**kwargs)
        self.unoptimized = build(optimizer=False, **kwargs)

    def execute(self, sql: str, params=()):
        result = self.optimized.execute(sql, params)
        assert result.rows == self.unoptimized.execute(sql, params).rows, sql
        return result

    def __getattr__(self, name):
        return getattr(self.optimized, name)
