"""Tests for the catalog: object images, the one apply, snapshot/restore.

A DDL statement changes the catalog in three steps — check the new
object (or look up the one to drop), build its image, apply the image —
with the log write between the last two; ``create`` and ``drop`` below
are those steps without the log.
"""

import copy

import pytest

from repro.errors import (
    CatalogError,
    ProcedureNotFoundError,
    TableExistsError,
    TableNotFoundError,
)
from repro.storage.catalog import (
    Catalog,
    IndexInfo,
    ProcedureInfo,
    TableInfo,
)
from repro.sql.stats import ColumnStats, TableStats
from repro.types import Column, SqlType


def make_columns():
    return [Column("id", SqlType.INTEGER, nullable=False),
            Column("name", SqlType.VARCHAR, length=20)]


def new_table(catalog, name, primary_key=(), table_id=None, file_id=None):
    """A table a CREATE TABLE would make: the next ids unless given."""
    return TableInfo(
        name=name,
        table_id=catalog.next_table_id if table_id is None else table_id,
        file_id=catalog.next_file_id if file_id is None else file_id,
        columns=tuple(make_columns()), primary_key=primary_key)


def create(catalog, kind, info):
    catalog.check_new(kind, info)
    return catalog.apply(kind, True, catalog.image(info))


def drop(catalog, kind, name):
    return catalog.apply(kind, False,
                         catalog.image(catalog.lookup(kind, name)))


def new_index(name, table_name, *columns):
    return IndexInfo(name=name, table_name=table_name,
                     column_names=columns)


def new_procedure(name, *params, body="SELECT 1"):
    return ProcedureInfo(name=name, param_names=params, body_sql=body)


class TestCatalogTables:
    def test_create_and_get(self):
        catalog = Catalog()
        info = create(catalog, "table",
                      new_table(catalog, "t", primary_key=("id",)))
        assert info.name == "t"
        assert info.primary_key == ("id",)
        assert catalog.get_table("t") is info
        assert catalog.get_table("T") is info  # case-insensitive

    def test_duplicate_rejected(self):
        catalog = Catalog()
        create(catalog, "table", new_table(catalog, "t"))
        with pytest.raises(TableExistsError):
            create(catalog, "table", new_table(catalog, "t"))

    def test_drop(self):
        catalog = Catalog()
        create(catalog, "table", new_table(catalog, "t"))
        drop(catalog, "table", "t")
        assert not catalog.has_table("t")
        with pytest.raises(TableNotFoundError):
            catalog.get_table("t")

    def test_drop_missing_raises(self):
        with pytest.raises(TableNotFoundError):
            drop(Catalog(), "table", "ghost")

    def test_ids_are_unique_and_monotonic(self):
        catalog = Catalog()
        a = create(catalog, "table", new_table(catalog, "a"))
        b = create(catalog, "table", new_table(catalog, "b"))
        assert b.file_id > a.file_id
        assert b.table_id > a.table_id

    def test_explicit_ids_advance_counters(self):
        catalog = Catalog()
        create(catalog, "table",
               new_table(catalog, "a", table_id=10, file_id=20))
        b = create(catalog, "table", new_table(catalog, "b"))
        assert b.table_id == 11
        assert b.file_id == 21

    def test_column_index(self):
        catalog = Catalog()
        info = create(catalog, "table", new_table(catalog, "t"))
        assert info.column_index("NAME") == 1
        with pytest.raises(CatalogError):
            info.column_index("ghost")


class TestCatalogIndexes:
    def test_create_index_validates_columns(self):
        catalog = Catalog()
        create(catalog, "table", new_table(catalog, "t"))
        create(catalog, "index", new_index("ix", "t", "id"))
        with pytest.raises(CatalogError):
            create(catalog, "index", new_index("ix2", "t", "ghost"))

    def test_duplicate_index_rejected(self):
        catalog = Catalog()
        create(catalog, "table", new_table(catalog, "t"))
        create(catalog, "index", new_index("ix", "t", "id"))
        with pytest.raises(CatalogError):
            create(catalog, "index", new_index("ix", "t", "name"))

    def test_drop_table_drops_its_indexes(self):
        catalog = Catalog()
        create(catalog, "table", new_table(catalog, "t"))
        create(catalog, "index", new_index("ix", "t", "id"))
        drop(catalog, "table", "t")
        assert "ix" not in catalog.indexes

    def test_indexes_on(self):
        catalog = Catalog()
        create(catalog, "table", new_table(catalog, "t"))
        create(catalog, "table", new_table(catalog, "u"))
        create(catalog, "index", new_index("ix_t", "t", "id"))
        create(catalog, "index", new_index("ix_u", "u", "id"))
        assert [ix.name for ix in catalog.indexes_on("t")] == ["ix_t"]


class TestCatalogProcedures:
    def test_create_get_drop(self):
        catalog = Catalog()
        create(catalog, "procedure", new_procedure("p", "a"))
        assert catalog.get_procedure("P").body_sql == "SELECT 1"
        drop(catalog, "procedure", "p")
        with pytest.raises(ProcedureNotFoundError):
            catalog.get_procedure("p")

    def test_duplicate_rejected(self):
        catalog = Catalog()
        create(catalog, "procedure", new_procedure("p"))
        with pytest.raises(CatalogError):
            create(catalog, "procedure", new_procedure("p", body="SELECT 2"))


class TestApply:
    def test_apply_is_idempotent(self):
        """Redo may apply what is already there, undo may drop what is
        already gone: neither changes anything, versions included."""
        catalog = Catalog()
        info = create(catalog, "table", new_table(catalog, "t"))
        image = catalog.image(info)
        versions = dict(catalog.versions)
        assert catalog.apply("table", True, image) is None
        assert catalog.versions == versions
        assert catalog.apply("table", False, image) == info
        assert catalog.apply("table", False, image) is None
        assert catalog.apply("index", True, {
            "name": "ix", "table_name": "t", "column_names": ("id",),
            "unique": False}) is None   # its table is gone

    def test_drop_image_recreates_indexes_and_statistics(self):
        """The image a DROP TABLE logs is what its undo re-creates the
        table from: same ids, indexes and statistics."""
        catalog = Catalog()
        info = create(catalog, "table", new_table(catalog, "t"))
        create(catalog, "index", new_index("ix", "t", "name"))
        stats = TableStats(3, 1, (ColumnStats("id", 3, 0.0, 1, 3, (1, 3)),))
        catalog.set_table_stats("t", stats)
        image = catalog.image(info)
        drop(catalog, "table", "t")
        assert catalog.get_table_stats("t") is None
        assert catalog.apply("table", True, image) == info
        assert catalog.indexes_on("t") == [IndexInfo("ix", "t", ("name",))]
        # Immutable, so the image and the re-created table share it.
        assert catalog.get_table_stats("t") is stats
        image["stats"] = None
        assert catalog.get_table_stats("t") is stats


class TestSnapshotRestore:
    def test_roundtrip(self):
        catalog = Catalog()
        create(catalog, "table", new_table(catalog, "t", primary_key=("id",)))
        create(catalog, "index", new_index("ix", "t", "name"))
        create(catalog, "procedure", new_procedure("p", "x", body="SELECT @x"))
        restored = Catalog.restore(catalog.snapshot())
        table = restored.get_table("t")
        assert table.primary_key == ("id",)
        assert [c.name for c in table.columns] == ["id", "name"]
        assert restored.indexes["ix"].column_names == ("name",)
        assert restored.get_procedure("p").param_names == ("x",)
        assert restored.next_file_id == catalog.next_file_id
        assert restored.versions == catalog.versions
        assert restored.snapshot() == catalog.snapshot()

    def test_statistics_are_one_shared_immutable_value(self):
        """Images, snapshots, the statistics blob and a restored catalog
        hold the one value ANALYZE made; it cannot be changed, and a
        deep copy (a forked engine's disk) is the value itself."""
        catalog = Catalog()
        info = create(catalog, "table", new_table(catalog, "t"))
        stats = TableStats(3, 1, (ColumnStats("id", 3, 0.0, 1, 3, (1, 2, 3)),
                                  ColumnStats("name", 1, 0.5)))
        catalog.set_table_stats("t", stats)
        snapshot = catalog.snapshot()
        restored = Catalog.restore(snapshot)
        blob = catalog.stats_snapshot()
        assert catalog.image(info)["stats"] is stats
        assert dict(snapshot["objects"])["table"]["stats"] is stats
        assert restored.get_table_stats("t") is stats
        assert blob["table_stats"]["t"] is stats
        other = Catalog.restore(snapshot)
        assert other.load_stats_snapshot(blob) is False
        assert other.get_table_stats("t") is stats
        for mutate in (lambda: setattr(stats, "row_count", 9),
                       lambda: setattr(stats.column("id"), "ndv", 9),
                       lambda: stats.column("id").histogram.append(4),
                       lambda: stats.columns.append(None)):
            with pytest.raises(AttributeError):
                mutate()
        assert copy.deepcopy(stats) is stats
        assert copy.deepcopy(snapshot) == snapshot
        assert copy.deepcopy(restored).get_table_stats("t") is stats
        assert stats.column("name") == ColumnStats("name", 1, 0.5)
        assert stats.column("missing") is None

    def test_restore_none_is_empty(self):
        catalog = Catalog.restore(None)
        assert catalog.tables == {}
        assert catalog.next_file_id == 1

    def test_statistics_go_back_to_the_table_they_were_taken_from(self):
        """The ANALYZE blob skips a table dropped since, and one created
        since under the same name."""
        catalog = Catalog()
        create(catalog, "table", new_table(catalog, "t"))
        create(catalog, "table", new_table(catalog, "u"))
        catalog.set_table_stats("t", {"row_count": 3})
        catalog.set_table_stats("u", {"row_count": 4})
        blob = catalog.stats_snapshot()
        drop(catalog, "table", "t")
        create(catalog, "table", new_table(catalog, "t"))
        drop(catalog, "table", "u")
        restored = Catalog.restore(catalog.snapshot())
        assert restored.load_stats_snapshot(blob) is True
        assert restored.table_stats == {}
        assert restored.stats_versions == {"t": 1, "u": 1}
        assert restored.load_stats_snapshot(restored.stats_snapshot()) \
            is False
