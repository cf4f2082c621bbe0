"""The system catalog: tables, indexes and stored procedures.

The catalog is pure metadata — runtime structures (heap handles, B-trees)
are owned by the engine.  It is made durable by *snapshotting*: a
checkpoint writes ``snapshot()`` to the disk as a blob (skipped while
:attr:`Catalog.generation` says nothing changed since the last one), and
DDL is also logged in the WAL so that redo can roll the restored snapshot
forward to the crash point.

Snapshots obey the disk's ownership contract (see
:mod:`repro.storage.disk`): ``snapshot()`` hands over a structure that
aliases no live catalog state, and ``restore()`` builds fresh objects
without keeping references into the snapshot it read.

Name scoping: all object names are case-insensitive (stored lowercased).
Tables named with :data:`~repro.phoenix_names.PHOENIX_PREFIX` carry
``amplified=False`` so the cost model does not scale-compensate Phoenix's
own overhead tables (see DESIGN.md §6).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import (
    CatalogError,
    ProcedureNotFoundError,
    TableExistsError,
    TableNotFoundError,
)
from repro.phoenix_names import PHOENIX_PREFIX
from repro.types import Column, SqlType


def _copy_plain(value):
    """Structural copy of plain data (nested dicts/lists; scalars and
    tuples are immutable and shared) — the shape of ANALYZE output."""
    if isinstance(value, dict):
        return {key: _copy_plain(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_copy_plain(item) for item in value]
    return value


@dataclass(frozen=True)
class IndexInfo:
    """Metadata of one index (the B-tree itself is rebuilt at restart)."""

    name: str
    table_name: str
    column_names: tuple[str, ...]
    unique: bool = False


@dataclass(frozen=True)
class TableInfo:
    """Metadata of one table."""

    name: str
    table_id: int
    file_id: int
    columns: tuple[Column, ...]
    volatile: bool = False        # temp / never-logged, dies on crash
    amplified: bool = True        # base-table work gets scale compensation
    primary_key: tuple[str, ...] = ()

    def column_index(self, column_name: str) -> int:
        target = column_name.lower()
        for i, col in enumerate(self.columns):
            if col.name.lower() == target:
                return i
        raise CatalogError(
            f"table {self.name!r} has no column {column_name!r}")

    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]


@dataclass(frozen=True)
class ProcedureInfo:
    """A stored procedure: parameter names and SQL body text."""

    name: str
    param_names: tuple[str, ...]
    body_sql: str


@dataclass(frozen=True)
class ViewInfo:
    """A view: a named SELECT expanded at plan time."""

    name: str
    body_sql: str


@dataclass
class Catalog:
    """All metadata, snapshot-able as plain data."""

    tables: dict[str, TableInfo] = field(default_factory=dict)
    indexes: dict[str, IndexInfo] = field(default_factory=dict)
    procedures: dict[str, ProcedureInfo] = field(default_factory=dict)
    views: dict[str, ViewInfo] = field(default_factory=dict)
    next_table_id: int = 1
    next_file_id: int = 1
    #: Per-object-name DDL version counters (plan-cache invalidation keys).
    versions: dict[str, int] = field(default_factory=dict)
    #: Client-visible schema version carried in the protocol.  Counts only
    #: application DDL: Phoenix's own result-set tables and load procedures
    #: (``phoenix_``-prefixed) churn constantly and must not invalidate the
    #: client metadata cache.
    schema_version: int = 0
    #: Per-table *DML* version counters, bumped once per committed
    #: transaction that wrote the table (the shared result cache's
    #: invalidation keys).  Deliberately volatile — never snapshotted:
    #: restart derives them from the log (a durable base folded at each
    #: truncation plus the live log, see ``repro.engine.dml_versions``)
    #: so post-recovery versions are exactly consistent with the
    #: recovered data.  Commits bump them only while the result cache
    #: is on.
    dml_versions: dict[str, int] = field(default_factory=dict)
    #: ANALYZE output per table (plain dicts — see repro.sql.stats).
    #: Snapshotted, so statistics survive restart and Phoenix recovery.
    table_stats: dict[str, dict] = field(default_factory=dict)
    #: Per-table statistics version counters, bumped by ANALYZE.  These
    #: are the plan cache's stale-statistics invalidation keys — kept
    #: separate from :attr:`versions` because a stats refresh is not DDL
    #: and must not perturb the client-visible ``schema_version``.
    stats_versions: dict[str, int] = field(default_factory=dict)
    #: Volatile change stamp: bumped by every mutation :meth:`snapshot`
    #: would show (all DDL, ANALYZE, a restored statistics blob).  The
    #: engine compares it with the stamp of the last snapshot it wrote
    #: and skips rewriting an unchanged catalog at checkpoint time.
    generation: int = 0

    # -- versioning ----------------------------------------------------------

    def bump_version(self, name: str) -> None:
        """Record a DDL change to the named object."""
        key = name.lower()
        self.versions[key] = self.versions.get(key, 0) + 1
        self.generation += 1
        if not key.startswith(PHOENIX_PREFIX):
            self.schema_version += 1

    def version_of(self, name: str) -> int:
        return self.versions.get(name.lower(), 0)

    def bump_dml_version(self, name: str) -> int:
        """Record a committed write to the named table; returns the new
        version."""
        key = name.lower()
        version = self.dml_versions.get(key, 0) + 1
        self.dml_versions[key] = version
        return version

    def dml_version_of(self, name: str) -> int:
        return self.dml_versions.get(name.lower(), 0)

    # -- table statistics ----------------------------------------------------

    def set_table_stats(self, name: str, stats: dict) -> None:
        """Store ANALYZE output for a table and bump its stats version."""
        key = name.lower()
        self.table_stats[key] = stats
        self.stats_versions[key] = self.stats_versions.get(key, 0) + 1
        self.generation += 1

    def get_table_stats(self, name: str) -> dict | None:
        return self.table_stats.get(name.lower())

    def stats_version_of(self, name: str) -> int:
        return self.stats_versions.get(name.lower(), 0)

    def stats_image(self, name: str) -> dict | None:
        """A plain-data copy of a table's statistics (None before its
        first ANALYZE): what a DROP TABLE's log image carries, so the
        create that undoes the drop brings them back."""
        stats = self.table_stats.get(name.lower())
        return None if stats is None else _copy_plain(stats)

    def restore_stats_image(self, name: str, image: dict | None) -> None:
        """Store a copy of :meth:`stats_image` output (None: nothing)."""
        if image is not None:
            self.set_table_stats(name, _copy_plain(image))

    # -- tables ---------------------------------------------------------------

    def create_table(self, name: str, columns: list[Column],
                     volatile: bool = False, amplified: bool = True,
                     primary_key: tuple[str, ...] = (),
                     table_id: int | None = None,
                     file_id: int | None = None) -> TableInfo:
        """Register a table; ids are allocated unless redo supplies them."""
        key = name.lower()
        if key in self.tables:
            raise TableExistsError(f"table {name!r} already exists")
        if key in self.views:
            raise TableExistsError(f"{name!r} is a view")
        if table_id is None:
            table_id = self.next_table_id
        if file_id is None:
            file_id = self.next_file_id
        self.next_table_id = max(self.next_table_id, table_id + 1)
        self.next_file_id = max(self.next_file_id, file_id + 1)
        info = TableInfo(name=key, table_id=table_id, file_id=file_id,
                         columns=tuple(columns), volatile=volatile,
                         amplified=amplified,
                         primary_key=tuple(c.lower() for c in primary_key))
        self.tables[key] = info
        self.bump_version(key)
        return info

    def drop_table(self, name: str) -> TableInfo:
        key = name.lower()
        info = self.tables.pop(key, None)
        if info is None:
            raise TableNotFoundError(f"table {name!r} does not exist")
        for index_name in [n for n, ix in self.indexes.items()
                           if ix.table_name == key]:
            del self.indexes[index_name]
        self.table_stats.pop(key, None)
        self.bump_version(key)
        return info

    def get_table(self, name: str) -> TableInfo:
        info = self.tables.get(name.lower())
        if info is None:
            raise TableNotFoundError(f"table {name!r} does not exist")
        return info

    def has_table(self, name: str) -> bool:
        return name.lower() in self.tables

    # -- indexes -----------------------------------------------------------

    def create_index(self, name: str, table_name: str,
                     column_names: list[str], unique: bool = False) -> IndexInfo:
        key = name.lower()
        if key in self.indexes:
            raise CatalogError(f"index {name!r} already exists")
        table = self.get_table(table_name)
        for col in column_names:
            table.column_index(col)  # validates existence
        info = IndexInfo(name=key, table_name=table.name,
                         column_names=tuple(c.lower() for c in column_names),
                         unique=unique)
        self.indexes[key] = info
        self.bump_version(table.name)
        return info

    def drop_index(self, name: str) -> IndexInfo:
        info = self.indexes.pop(name.lower(), None)
        if info is None:
            raise CatalogError(f"index {name!r} does not exist")
        self.bump_version(info.table_name)
        return info

    def indexes_on(self, table_name: str) -> list[IndexInfo]:
        key = table_name.lower()
        return [ix for ix in self.indexes.values() if ix.table_name == key]

    # -- procedures ----------------------------------------------------------

    def create_procedure(self, name: str, param_names: list[str],
                         body_sql: str) -> ProcedureInfo:
        key = name.lower()
        if key in self.procedures:
            raise CatalogError(f"procedure {name!r} already exists")
        info = ProcedureInfo(name=key, param_names=tuple(param_names),
                             body_sql=body_sql)
        self.procedures[key] = info
        self.bump_version(key)
        return info

    def drop_procedure(self, name: str) -> ProcedureInfo:
        info = self.procedures.pop(name.lower(), None)
        if info is None:
            raise ProcedureNotFoundError(f"procedure {name!r} does not exist")
        self.bump_version(info.name)
        return info

    def get_procedure(self, name: str) -> ProcedureInfo:
        info = self.procedures.get(name.lower())
        if info is None:
            raise ProcedureNotFoundError(f"procedure {name!r} does not exist")
        return info

    def has_procedure(self, name: str) -> bool:
        return name.lower() in self.procedures

    # -- views ----------------------------------------------------------------

    def create_view(self, name: str, body_sql: str) -> ViewInfo:
        key = name.lower()
        if key in self.views:
            raise CatalogError(f"view {name!r} already exists")
        if key in self.tables:
            raise CatalogError(f"{name!r} is a table")
        info = ViewInfo(name=key, body_sql=body_sql)
        self.views[key] = info
        self.bump_version(key)
        return info

    def drop_view(self, name: str) -> ViewInfo:
        info = self.views.pop(name.lower(), None)
        if info is None:
            raise CatalogError(f"view {name!r} does not exist")
        self.bump_version(info.name)
        return info

    def get_view(self, name: str) -> ViewInfo | None:
        return self.views.get(name.lower())

    # -- snapshot / restore ----------------------------------------------------

    def snapshot(self) -> dict:
        """Plain-data snapshot (durable tables/procs only) for the disk
        blob; shares no mutable object with the live catalog."""
        return {
            "tables": [
                {
                    "name": t.name,
                    "table_id": t.table_id,
                    "file_id": t.file_id,
                    "columns": [
                        (c.name, c.sql_type.value, c.length, c.nullable)
                        for c in t.columns
                    ],
                    "amplified": t.amplified,
                    "primary_key": list(t.primary_key),
                }
                for t in self.tables.values() if not t.volatile
            ],
            "indexes": [
                {
                    "name": ix.name,
                    "table_name": ix.table_name,
                    "column_names": list(ix.column_names),
                    "unique": ix.unique,
                }
                for ix in self.indexes.values()
                if not self.get_table(ix.table_name).volatile
            ],
            "procedures": [
                {
                    "name": p.name,
                    "param_names": list(p.param_names),
                    "body_sql": p.body_sql,
                }
                for p in self.procedures.values()
            ],
            "views": [
                {"name": v.name, "body_sql": v.body_sql}
                for v in self.views.values()
            ],
            "next_table_id": self.next_table_id,
            "next_file_id": self.next_file_id,
            "versions": dict(self.versions),
            "schema_version": self.schema_version,
            "table_stats": {
                name: _copy_plain(stats)
                for name, stats in self.table_stats.items()
                if name in self.tables and not self.tables[name].volatile
            },
            "stats_versions": dict(self.stats_versions),
        }

    def stats_snapshot(self) -> dict:
        """Just the statistics, for the blob ANALYZE writes immediately
        (statistics are not WAL-logged, so they cannot wait for the next
        checkpoint)."""
        return {"table_stats": _copy_plain(self.table_stats),
                "stats_versions": dict(self.stats_versions)}

    def load_stats_snapshot(self, snapshot: dict | None) -> None:
        """Overlay :meth:`stats_snapshot` output onto this catalog."""
        if not snapshot:
            return
        self.table_stats.update(
            _copy_plain(snapshot.get("table_stats", {})))
        self.stats_versions.update(snapshot.get("stats_versions", {}))
        self.generation += 1

    @classmethod
    def restore(cls, snapshot: dict | None) -> "Catalog":
        """Rebuild a catalog from :meth:`snapshot` output (None → empty)."""
        catalog = cls()
        if not snapshot:
            return catalog
        for t in snapshot["tables"]:
            columns = [Column(name, SqlType(type_name), length, nullable)
                       for name, type_name, length, nullable in t["columns"]]
            catalog.create_table(
                t["name"], columns, volatile=False,
                amplified=t["amplified"],
                primary_key=tuple(t["primary_key"]),
                table_id=t["table_id"], file_id=t["file_id"])
        for ix in snapshot["indexes"]:
            catalog.create_index(ix["name"], ix["table_name"],
                                 ix["column_names"], ix["unique"])
        for p in snapshot["procedures"]:
            catalog.create_procedure(p["name"], p["param_names"], p["body_sql"])
        for v in snapshot.get("views", []):
            catalog.create_view(v["name"], v["body_sql"])
        catalog.next_table_id = snapshot["next_table_id"]
        catalog.next_file_id = snapshot["next_file_id"]
        # The create_* calls above bumped fresh counters; overwrite with the
        # persisted values so versions survive restart exactly.
        catalog.versions = dict(snapshot.get("versions", catalog.versions))
        catalog.schema_version = snapshot.get("schema_version",
                                              catalog.schema_version)
        catalog.table_stats = _copy_plain(snapshot.get("table_stats", {}))
        catalog.stats_versions = dict(snapshot.get("stats_versions", {}))
        return catalog

    def rename_table(self, old: str, new: str) -> TableInfo:
        """Rename a table (keeps ids); used by tests and utilities."""
        info = self.get_table(old)
        new_key = new.lower()
        if new_key in self.tables:
            raise TableExistsError(f"table {new!r} already exists")
        del self.tables[info.name]
        self.bump_version(old)
        info = replace(info, name=new_key)
        self.tables[new_key] = info
        self.bump_version(new_key)
        return info
