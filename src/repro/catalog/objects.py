"""Catalog objects: base tables, views, and materialized summary tables.

A view stores its defining query AST; binding happens lazily each time the
view is referenced, so views compose (views over views over tables) and views
may define measures with ``AS MEASURE``.

A materialized view stores *rows* — a precomputed summary table — plus the
bound definition a query is matched against.  It subclasses
:class:`BaseTable` so the binder and executor scan it like any stored table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.catalog.schema import TableSchema
from repro.sql import ast
from repro.storage.table import MemoryTable

if TYPE_CHECKING:  # pragma: no cover
    from repro.catalog.catalog import Catalog
    from repro.matview.definition import SummaryDefinition
    from repro.matview.stats import SummaryStats

__all__ = ["BaseTable", "MaterializedView", "View", "SystemTable", "CatalogObject"]


@dataclass
class BaseTable:
    """A named base table backed by in-memory storage."""

    name: str
    table: MemoryTable

    @property
    def schema(self) -> TableSchema:
        return self.table.schema

    @property
    def stamp(self) -> int:
        """The write clock's tick at the table's last write."""
        return self.table.stamp

    @property
    def kind(self) -> str:
        return "TABLE"


@dataclass
class View:
    """A named view over a query, possibly defining measures; ``stamp`` is
    the catalog's tick when it was created."""

    name: str
    query: ast.Query
    column_names: list[str] = field(default_factory=list)
    stamp: int = 0

    @property
    def kind(self) -> str:
        return "VIEW"


@dataclass
class MaterializedView(BaseTable):
    """A persistent summary table with its analyzed definition.

    ``table`` holds the materialized rows (dimensions, visible aggregates,
    and hidden ``__`` columns for the aggregate states no visible column
    holds).  ``definition`` carries what the matcher needs: source
    relation, dimension keys, each item over its states, WHERE conjuncts,
    and the refresh plan.  ``fresh_as`` is the write
    clock when the rows were computed (CREATE, REFRESH) or last merged; the
    summary is :attr:`stale` — skipped until refreshed — once a relation in
    ``definition.depends_on`` was dropped, replaced or written after it.
    """

    query: ast.Query = None  # definition as written (for SHOW/describe)
    definition: "SummaryDefinition" = None
    stats: "SummaryStats" = None
    catalog: "Catalog" = field(default=None, repr=False, compare=False)
    fresh_as: int = 0

    def __post_init__(self) -> None:
        if self.stats is None:
            from repro.matview.stats import SummaryStats

            self.stats = SummaryStats()

    @property
    def stale(self) -> bool:
        return any(
            (source := self.catalog.get(name)) is None or source.stamp > self.fresh_as
            for name in self.definition.depends_on
        )

    @property
    def kind(self) -> str:
        return "MATERIALIZED VIEW"

    @property
    def visible_columns(self) -> list:
        """The columns ``SELECT *``, ``describe()`` and ``\\d`` list: all
        but the hidden aggregate states, which are stored last."""
        columns = self.schema.columns
        return columns[: len(columns) - self.definition.hidden]


@dataclass
class SystemTable:
    """A read-only virtual table answered by a provider, not storage.

    System tables (the ``repro_*`` introspection family, see
    :mod:`repro.introspect`) live in the catalog's reserved namespace: they
    bind and scan like ordinary tables but ``provider()`` computes their
    rows on demand, so they always reflect the live engine state.  The
    executor snapshots the provider's rows once per query, giving every
    scan of one execution a consistent view.

    ``group`` optionally names a *snapshot group* (see
    :meth:`~repro.catalog.catalog.Catalog.register_snapshot_group`):
    tables whose rows derive from one shared store are materialized
    together, in a single call against that store, so a query joining
    them (``repro_statements`` x ``repro_stat_statements``) can never see
    a torn cross-table state even while other sessions mutate the store.
    """

    name: str
    schema: TableSchema
    provider: Callable[[], list[tuple]]
    comment: str = ""
    group: str | None = None
    #: Never written: a scan reads the provider's rows at execution.
    stamp = 0

    @property
    def kind(self) -> str:
        return "SYSTEM TABLE"


CatalogObject = BaseTable | View | MaterializedView | SystemTable
