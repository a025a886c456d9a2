"""Queryable introspection: the ``repro_*`` system tables.

The database observing itself, as SQL.  This package provides

* :func:`install_system_tables` — registers the ten virtual
  ``repro_*`` tables in a Database's catalog (see
  :data:`SYSTEM_TABLE_NAMES`), from statement statistics and history
  (``repro_stat_statements``, ``repro_statements``) through live progress
  (``repro_running_queries``) to ``ANALYZE`` results
  (``repro_table_stats``, ``repro_column_stats``);
* statement fingerprinting (:func:`fingerprint_statement`) — literals
  normalized to ``?`` and IN-lists collapsed over the AST, so repeated
  parameterized statements aggregate under one fingerprint;
* plan hashing (:func:`plan_shape` / :func:`plan_hash`) and the
  per-(fingerprint, strategy) :class:`StatementStatsStore`, whose flip
  detector marks a flipping statement's ``repro_statements`` row.

Column references, fingerprinting rules, and plan-flip semantics are
documented in ``docs/OBSERVABILITY.md`` ("System tables").
"""

from repro.introspect.fingerprint import (
    fingerprint_statement,
    is_introspection_plan,
    normalize_statement,
    plan_hash,
    plan_shape,
)
from repro.introspect.statements import StatementStatsStore, StrategyEntry
from repro.introspect.tables import SYSTEM_TABLE_NAMES, install_system_tables

__all__ = [
    "SYSTEM_TABLE_NAMES",
    "StatementStatsStore",
    "StrategyEntry",
    "fingerprint_statement",
    "install_system_tables",
    "is_introspection_plan",
    "normalize_statement",
    "plan_hash",
    "plan_shape",
]
