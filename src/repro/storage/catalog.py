"""The system catalog: tables, indexes, stored procedures and views.

The catalog is pure metadata — runtime structures (heap handles, B-trees)
are owned by the engine.  Every object has one plain-data *image*,
built by :meth:`Catalog.image`: a table's columns, ids, primary key,
indexes and statistics; an index's table, columns and uniqueness; a
procedure's parameters and body; a view's body.  Objects enter and leave
the catalog one way, :meth:`Catalog.apply`, which creates or drops an
object from its image and is idempotent.  Every path goes through it: a
DDL statement logs the image in its
:class:`~repro.wal.records.CatalogRecord` and applies it, redo and undo
apply a record's image (the undo of a drop re-creates the object from
the image the drop logged), and :meth:`Catalog.restore` applies the
images of a checkpoint snapshot.

Durability: a checkpoint writes :meth:`Catalog.snapshot` — the image of
every object plus the id and version counters — to the disk as a blob
(skipped while :attr:`Catalog.generation` says nothing changed since the
last one), and DDL is logged, so redo rolls the restored snapshot
forward to the crash point.  ANALYZE writes its statistics at once to a
blob of their own (:meth:`Catalog.stats_snapshot`); restart lays them
back only onto the tables they were taken from, matched by table id.

Snapshots obey the disk's ownership contract (see
:mod:`repro.storage.disk`): an image aliases no live mutable catalog
state, and ``apply`` builds fresh objects without keeping references
into the image's mutable parts.  A table's statistics are an immutable
:class:`~repro.sql.stats.TableStats`, so images, snapshots, the
statistics blob and restored catalogs share the one value ANALYZE made
instead of copying it.

Name scoping: all object names are case-insensitive (stored lowercased).
Tables named with :data:`~repro.phoenix_names.PHOENIX_PREFIX` carry
``amplified=False`` so the cost model does not scale-compensate Phoenix's
own overhead tables (see DESIGN.md §6).
"""

from __future__ import annotations

from copy import copy
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING

from repro.errors import (
    CatalogError,
    ProcedureNotFoundError,
    TableExistsError,
    TableNotFoundError,
)
from repro.phoenix_names import PHOENIX_PREFIX
from repro.types import Column, SqlType

if TYPE_CHECKING:
    from repro.sql.stats import TableStats


#: The kinds a snapshot lists images of, in order (a table's indexes
#: ride inside its image).
_SNAPSHOT_KINDS = ("table", "procedure", "view")
#: What a snapshot holds besides the images: ints and name -> int maps.
_COUNTERS = ("next_table_id", "next_file_id", "versions", "schema_version",
             "stats_versions")
#: The not-found error of a kind that has its own.
_MISSING = {"table": TableNotFoundError, "procedure": ProcedureNotFoundError}


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
    volatile: bool = False        # temp table or sys_* snapshot: never
                                  # in the catalog, never logged
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
    #: ANALYZE output per table (immutable ``TableStats`` values — see
    #: repro.sql.stats).  Part of each table's image, so statistics
    #: survive restart and Phoenix recovery.
    table_stats: dict[str, TableStats] = field(default_factory=dict)
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

    def set_table_stats(self, name: str, stats: TableStats) -> None:
        """Store ANALYZE output for a table and bump its stats version."""
        key = name.lower()
        self.table_stats[key] = stats
        self.stats_versions[key] = self.stats_versions.get(key, 0) + 1
        self.generation += 1

    def get_table_stats(self, name: str) -> TableStats | None:
        return self.table_stats.get(name.lower())

    def stats_version_of(self, name: str) -> int:
        return self.stats_versions.get(name.lower(), 0)

    # -- objects ------------------------------------------------------------

    def _objects(self, kind: str) -> dict:
        return {"table": self.tables, "index": self.indexes,
                "procedure": self.procedures, "view": self.views}[kind]

    def lookup(self, kind: str, name: str):
        """The live object ``name`` of ``kind``; raises when there is
        none."""
        info = self._objects(kind).get(name.lower())
        if info is None:
            raise _MISSING.get(kind, CatalogError)(
                f"{kind} {name!r} does not exist")
        return info

    def get_table(self, name: str) -> TableInfo:
        info = self.tables.get(name.lower())
        if info is None:
            raise TableNotFoundError(f"table {name!r} does not exist")
        return info

    def has_table(self, name: str) -> bool:
        return name.lower() in self.tables

    def indexes_on(self, table_name: str) -> list[IndexInfo]:
        key = table_name.lower()
        return [ix for ix in self.indexes.values() if ix.table_name == key]

    def get_procedure(self, name: str) -> ProcedureInfo:
        return self.lookup("procedure", name)

    def get_view(self, name: str) -> ViewInfo | None:
        return self.views.get(name.lower())

    def check_new(self, kind: str, info) -> None:
        """Raise what creating ``info`` must raise before a DDL statement
        logs it: its name is taken (a table's by a view too, a view's by
        a table), or an index names a table or a column there is not."""
        name = info.name
        taken = TableExistsError if kind == "table" else CatalogError
        if name in self._objects(kind):
            raise taken(f"{kind} {name!r} already exists")
        if kind == "table" and name in self.views:
            raise taken(f"{name!r} is a view")
        if kind == "view" and name in self.tables:
            raise taken(f"{name!r} is a table")
        if kind == "index":
            table = self.get_table(info.table_name)
            for column in info.column_names:
                table.column_index(column)  # validates existence

    def image(self, info) -> dict:
        """The plain-data image of one object (see the module
        docstring): what its DDL record logs, what a snapshot holds and
        what :meth:`apply` creates it from.  Shares nothing mutable with
        the catalog (a table's statistics are immutable, so shared)."""
        if not isinstance(info, TableInfo):
            return asdict(info)
        return {
            "name": info.name,
            "table_id": info.table_id,
            "file_id": info.file_id,
            "columns": [(c.name, c.sql_type.value, c.length, c.nullable)
                        for c in info.columns],
            "amplified": info.amplified,
            "primary_key": list(info.primary_key),
            "indexes": [self.image(index)
                        for index in self.indexes_on(info.name)],
            "stats": self.table_stats.get(info.name),
        }

    def apply(self, kind: str, create: bool, image: dict):
        """Create the object ``image`` describes, or drop it — the one
        way an object enters or leaves the catalog.  Idempotent: a
        create of a name already there (or of an index whose table is
        not), or a drop of a name not there, changes nothing and returns
        None; otherwise the info created or dropped is returned.  A
        table comes with the indexes and statistics of its image and
        goes with its own."""
        objects = self._objects(kind)
        name = image["name"]
        # The version an index moves is its table's.
        versioned = image.get("table_name", name)
        if not create:
            info = objects.pop(name, None)
            if info is not None:
                if kind == "table":
                    for index in self.indexes_on(name):
                        del self.indexes[index.name]
                    self.table_stats.pop(name, None)
                self.bump_version(versioned)
            return info
        if name in objects or (kind == "index"
                               and versioned not in self.tables):
            return None
        if kind == "table":
            info = TableInfo(
                name=name, table_id=image["table_id"],
                file_id=image["file_id"],
                columns=tuple(Column(column, SqlType(type_name), length,
                                     nullable)
                              for column, type_name, length, nullable
                              in image["columns"]),
                amplified=image["amplified"],
                primary_key=tuple(image["primary_key"]))
            self.next_table_id = max(self.next_table_id, info.table_id + 1)
            self.next_file_id = max(self.next_file_id, info.file_id + 1)
        elif kind == "index":
            info = IndexInfo(name=name, table_name=versioned,
                             column_names=tuple(image["column_names"]),
                             unique=image["unique"])
        elif kind == "procedure":
            info = ProcedureInfo(name=name,
                                 param_names=tuple(image["param_names"]),
                                 body_sql=image["body_sql"])
        else:
            info = ViewInfo(name=name, body_sql=image["body_sql"])
        objects[name] = info
        self.bump_version(versioned)
        if kind == "table":
            for index in image["indexes"]:
                self.apply("index", True, index)
            if image["stats"] is not None:
                self.set_table_stats(name, image["stats"])
        return info

    # -- snapshot / restore ----------------------------------------------------

    def snapshot(self) -> dict:
        """Plain-data snapshot for the disk blob: every object's image
        and the id and version counters; shares no mutable object with
        the live catalog."""
        snapshot = {name: copy(getattr(self, name)) for name in _COUNTERS}
        snapshot["objects"] = [(kind, self.image(info))
                               for kind in _SNAPSHOT_KINDS
                               for info in self._objects(kind).values()]
        return snapshot

    @classmethod
    def restore(cls, snapshot: dict | None) -> "Catalog":
        """Rebuild a catalog from :meth:`snapshot` output (None → empty):
        apply every image, then set the counters to what they were (the
        applies bumped fresh ones)."""
        catalog = cls()
        if snapshot:
            for kind, image in snapshot["objects"]:
                catalog.apply(kind, True, image)
            for name in _COUNTERS:
                setattr(catalog, name, copy(snapshot[name]))
        return catalog

    def stats_snapshot(self) -> dict:
        """Just the statistics, for the blob ANALYZE writes immediately
        (statistics are not WAL-logged, so they cannot wait for the next
        checkpoint), each with the id of the table it was taken from."""
        return {"table_stats": dict(self.table_stats),
                "table_ids": {name: self.tables[name].table_id
                              for name in self.table_stats},
                "stats_versions": dict(self.stats_versions)}

    def load_stats_snapshot(self, snapshot: dict | None) -> bool:
        """Lay :meth:`stats_snapshot` output over this catalog: each
        table's statistics go back onto the table they were taken from
        and no other — a table dropped since has none, and a table
        created since under the same name has its own id.  True when
        some entry found no table."""
        if not snapshot:
            return False
        taken_from = snapshot["table_ids"]
        stale = False
        for name, stats in snapshot["table_stats"].items():
            info = self.tables.get(name)
            if info is not None and info.table_id == taken_from[name]:
                self.table_stats[name] = stats
            else:
                stale = True
        for name, version in snapshot["stats_versions"].items():
            self.stats_versions[name] = max(
                version, self.stats_versions.get(name, 0))
        self.generation += 1
        return stale
