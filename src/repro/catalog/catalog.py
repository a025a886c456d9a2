"""The catalog: a case-insensitive namespace of tables and views."""

from __future__ import annotations

from dataclasses import replace
from typing import Iterator, Optional

from repro.catalog.objects import (
    BaseTable,
    CatalogObject,
    MaterializedView,
    SystemTable,
    View,
)
from repro.catalog.schema import TableSchema
from repro.catalog.stats import TableStats
from repro.errors import CatalogError
from repro.sql import ast
from repro.storage.table import MemoryTable, clock

__all__ = ["Catalog", "JOIN_VERDICTS"]

#: How many join shapes' verdicts a catalog keeps.
JOIN_VERDICTS = 1024


class Catalog:
    """Holds every named object visible to queries.  ``stamp`` is the write
    clock's tick at the last CREATE, DROP or replace."""

    def __init__(self) -> None:
        self._objects: dict[str, CatalogObject] = {}
        self.stamp = 0
        #: Reserved namespace of virtual system tables (repro.introspect).
        #: Kept apart from user objects so names()/__contains__ and the
        #: shell's object listings show only what the user created.
        self._system: dict[str, SystemTable] = {}
        #: Snapshot-group providers: group name -> zero-arg callable
        #: returning ``{table_name: rows}`` for every member table, read
        #: from the backing store in one atomic call.
        self._snapshot_groups: dict[str, object] = {}
        #: ``ANALYZE`` results, keyed by lowered table name.
        self._table_stats: dict[str, TableStats] = {}
        #: Join facts found in the data (:meth:`join_verdict`), one entry per
        #: join shape.
        self._join_verdicts: dict[tuple, tuple] = {}

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._objects

    def __iter__(self) -> Iterator[CatalogObject]:
        return iter(self._objects.values())

    def names(self) -> list[str]:
        """Sorted display names of all catalog objects."""
        return sorted(obj.name for obj in self._objects.values())

    def get(self, name: str) -> Optional[CatalogObject]:
        """The object named ``name`` (case-insensitive), or None."""
        key = name.lower()
        obj = self._objects.get(key)
        if obj is None:
            obj = self._system.get(key)
        return obj

    # -- system tables -------------------------------------------------------

    def register_system_table(self, table: SystemTable) -> SystemTable:
        """Register a virtual system table in the reserved namespace."""
        key = table.name.lower()
        if key in self._objects:
            raise CatalogError(
                f"cannot register system table {table.name!r}: a user "
                f"object with that name already exists"
            )
        self._system[key] = table
        return table

    def system_tables(self) -> list[SystemTable]:
        """All registered system tables, in name order."""
        return sorted(self._system.values(), key=lambda t: t.name.lower())

    def register_snapshot_group(self, group: str, provider) -> None:
        """Register a combined provider for a system-table snapshot group.

        ``provider`` takes no arguments and returns ``{table_name: rows}``
        covering every member table of the group; the executor calls it
        once per query execution (at the first scan of any member) so the
        member tables expose one consistent view of their shared store.
        """
        self._snapshot_groups[group] = provider

    def snapshot_group(self, group: str):
        """The group provider registered under ``group``, or None."""
        return self._snapshot_groups.get(group)

    def is_system(self, name: str) -> bool:
        return name.lower() in self._system

    # -- ANALYZE statistics --------------------------------------------------

    def store_table_stats(self, stats: TableStats) -> None:
        """Record an ``ANALYZE`` result with its table's ``changed`` count."""
        key = stats.table.lower()
        self._table_stats[key] = replace(stats, changed=self._objects[key].table.changed)

    def table_stats(self, name: str) -> Optional[TableStats]:
        """The stored ``ANALYZE`` result for ``name``, or None."""
        return self._table_stats.get(name.lower())

    def all_table_stats(self) -> list[TableStats]:
        """Every stored ``ANALYZE`` result, in table-name order."""
        return sorted(
            self._table_stats.values(), key=lambda s: s.table.lower()
        )

    def mods_since_analyze(self, name: str) -> int:
        """Rows changed since ``name`` was last analyzed (0 if never): its
        table's ``changed`` count less the one ANALYZE recorded."""
        key = name.lower()
        stats = self._table_stats.get(key)
        return 0 if stats is None else self._objects[key].table.changed - stats.changed

    def discard_table_stats(self, name: str) -> None:
        """Drop stored statistics (the table was dropped or replaced)."""
        self._table_stats.pop(name.lower(), None)

    # -- facts of the data ----------------------------------------------------

    def join_verdict(self, shape: tuple, stamps: tuple) -> Optional[bool]:
        """What the executor found of a join ``shape`` (whether each probe
        row pairs with exactly one build row) while its tables were at the
        write ``stamps``; None when never asked or a table was written
        since."""
        found = self._join_verdicts.get(shape)
        return found[1] if found is not None and found[0] == stamps else None

    def keep_join_verdict(self, shape: tuple, stamps: tuple, verdict: bool) -> None:
        """Keep ``verdict`` for ``shape`` at ``stamps``, replacing the
        shape's older one: one entry per shape, at most
        :data:`JOIN_VERDICTS` of them (past that, all are forgotten).  No
        lock: an entry is only read at the stamps it was found at, so a
        store lost to a racing reader costs a recomputation, never a wrong
        verdict."""
        if shape not in self._join_verdicts and len(self._join_verdicts) >= JOIN_VERDICTS:
            self._join_verdicts = {}
        self._join_verdicts[shape] = (stamps, verdict)

    def _stamp(self) -> int:
        self.stamp = clock.tick()
        return self.stamp

    def _reject_system_name(self, name: str) -> None:
        if name.lower() in self._system:
            raise CatalogError(
                f"{name!r} is a system table and cannot be redefined"
            )

    def resolve(self, name: str) -> CatalogObject:
        """Like :meth:`get` but raises :class:`CatalogError` when missing."""
        obj = self.get(name)
        if obj is None:
            raise CatalogError(f"unknown table or view {name!r}")
        return obj

    def create_table(
        self,
        name: str,
        schema: TableSchema,
        *,
        or_replace: bool = False,
        if_not_exists: bool = False,
    ) -> BaseTable:
        """Create (or with flags, replace/reuse) a base table."""
        self._reject_system_name(name)
        key = name.lower()
        if key in self._objects:
            if if_not_exists:
                existing = self._objects[key]
                if isinstance(existing, BaseTable) and not isinstance(
                    existing, MaterializedView
                ):
                    return existing
                raise CatalogError(f"{name!r} exists and is not a table")
            if not or_replace:
                raise CatalogError(f"object {name!r} already exists")
            # Statistics describe the replaced table's data, not the new
            # (empty) one; a later ANALYZE starts fresh.
            self.discard_table_stats(name)
        table = BaseTable(name, MemoryTable(schema))
        self._objects[key] = table
        self._stamp()
        return table

    def create_view(
        self,
        name: str,
        query: ast.Query,
        *,
        column_names: Optional[list[str]] = None,
        or_replace: bool = False,
    ) -> View:
        """Create a view over ``query``; ``column_names`` optionally rename."""
        self._reject_system_name(name)
        key = name.lower()
        if key in self._objects and not or_replace:
            raise CatalogError(f"object {name!r} already exists")
        view = View(name, query, list(column_names or []), self._stamp())
        self._objects[key] = view
        return view

    def add_materialized_view(
        self, name: str, view: MaterializedView, *, or_replace: bool = False
    ) -> MaterializedView:
        """Register a materialized summary table built by the engine.

        ``OR REPLACE`` only ever replaces another materialized view: silently
        destroying a base table (and its data) or a plain view that happens
        to share the name is never what the user meant.
        """
        self._reject_system_name(name)
        key = name.lower()
        existing = self._objects.get(key)
        if existing is not None:
            if not or_replace:
                raise CatalogError(f"object {name!r} already exists")
            if not isinstance(existing, MaterializedView):
                raise CatalogError(
                    f"{name!r} is a {existing.kind.lower()}, not a "
                    f"materialized view; OR REPLACE cannot replace it"
                )
            self.discard_table_stats(name)
        self._objects[key] = view
        self._stamp()
        return view

    def materialized_views(self) -> list[MaterializedView]:
        """All materialized views, in name order."""
        return sorted(
            (o for o in self._objects.values() if isinstance(o, MaterializedView)),
            key=lambda o: o.name.lower(),
        )

    def materialized_views_over(self, source_name: str) -> list[MaterializedView]:
        """Materialized views whose FROM relation is ``source_name``."""
        key = source_name.lower()
        return [v for v in self.materialized_views() if v.definition.source_name == key]

    def drop(self, kind: str, name: str, *, if_exists: bool = False) -> bool:
        """Drop a TABLE, VIEW, or MATERIALIZED VIEW; the kind must match."""
        key = name.lower()
        if key in self._system:
            raise CatalogError(
                f"{name!r} is a system table and cannot be dropped"
            )
        obj = self._objects.get(key)
        if obj is None:
            if if_exists:
                return False
            raise CatalogError(f"unknown {kind.lower()} {name!r}")
        if obj.kind != kind:
            raise CatalogError(f"{name!r} is a {obj.kind.lower()}, not a {kind.lower()}")
        del self._objects[key]
        self.discard_table_stats(name)
        self._stamp()
        return True

    def base_table(self, name: str) -> BaseTable:
        """Resolve ``name`` and require it to be a base table (DML targets)."""
        obj = self.resolve(name)
        if isinstance(obj, MaterializedView):
            raise CatalogError(
                f"{name!r} is a materialized view; use REFRESH MATERIALIZED "
                f"VIEW instead of DML"
            )
        if not isinstance(obj, BaseTable):
            raise CatalogError(f"{name!r} is not a base table")
        return obj
