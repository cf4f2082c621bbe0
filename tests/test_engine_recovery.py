"""Crash/restart recovery tests at the engine level.

These drive the core durability contract Phoenix depends on: committed
tables survive any crash, uncommitted work never does, and recovery is
idempotent.
"""

import copy

import pytest

from repro.engine.database import DatabaseEngine
from repro.errors import ConstraintError
from repro.sim.costs import CostModel
from repro.wal.records import CatalogRecord, CLRRecord
from tests.schedules import (
    ACCT_SETUP,
    EngineWorld,
    _sorted,
    acct_workload,
    assert_indexes_match_heap,
    user_tables,
)


@pytest.fixture
def harness():
    return EngineWorld()


class TestCrashRecovery:
    def test_committed_insert_survives(self, harness):
        harness.run("CREATE TABLE t (a INT)")
        harness.run("INSERT INTO t VALUES (1), (2)")
        harness.crash()
        harness.restart()
        assert sorted(harness.run("SELECT * FROM t")) == [(1,), (2,)]

    def test_committed_without_checkpoint_survives(self, harness):
        """No checkpoint ever taken: redo must replay from the log start."""
        harness.run("CREATE TABLE t (a INT)")
        harness.run("INSERT INTO t VALUES (7)")
        assert harness.engine.buffer_pool.dirty_pages > 0  # nothing flushed
        harness.crash()
        harness.restart()
        assert harness.run("SELECT * FROM t") == [(7,)]

    def test_uncommitted_insert_lost(self, harness):
        harness.run("CREATE TABLE t (a INT)")
        harness.run("BEGIN TRANSACTION")
        harness.run("INSERT INTO t VALUES (99)")
        # Force so the loser's records are durable (otherwise they simply
        # vanish with the un-forced log tail — also a correct outcome,
        # covered by test_unforced_tail_is_lost).
        harness.engine.wal.force()
        harness.crash()
        report = harness.restart()
        assert harness.run("SELECT * FROM t") == []
        assert len(report.losers) == 1

    def test_uncommitted_update_rolled_back(self, harness):
        harness.run("CREATE TABLE t (a INT)")
        harness.run("INSERT INTO t VALUES (1)")
        harness.run("BEGIN TRANSACTION")
        harness.run("UPDATE t SET a = 2")
        # Force the log so the loser's records are durable, then flush the
        # dirty page so the uncommitted value is physically on disk (steal).
        harness.engine.wal.force()
        harness.engine.buffer_pool.flush_all()
        harness.crash()
        harness.restart()
        assert harness.run("SELECT * FROM t") == [(1,)]

    def test_uncommitted_delete_rolled_back(self, harness):
        harness.run("CREATE TABLE t (a INT)")
        harness.run("INSERT INTO t VALUES (1), (2)")
        harness.run("BEGIN TRANSACTION")
        harness.run("DELETE FROM t WHERE a = 1")
        harness.engine.wal.force()
        harness.crash()
        harness.restart()
        assert sorted(harness.run("SELECT * FROM t")) == [(1,), (2,)]

    def test_checkpoint_then_more_work(self, harness):
        harness.run("CREATE TABLE t (a INT)")
        harness.run("INSERT INTO t VALUES (1)")
        harness.engine.checkpoint()
        harness.run("INSERT INTO t VALUES (2)")
        harness.crash()
        report = harness.restart()
        assert report.checkpoint_lsn > 0
        assert sorted(harness.run("SELECT * FROM t")) == [(1,), (2,)]

    def test_table_created_after_checkpoint_survives(self, harness):
        harness.run("CREATE TABLE a (x INT)")
        harness.engine.checkpoint()
        harness.run("CREATE TABLE b (y INT)")
        harness.run("INSERT INTO b VALUES (5)")
        harness.crash()
        harness.restart()
        assert harness.run("SELECT * FROM b") == [(5,)]

    def test_dropped_table_stays_dropped(self, harness):
        harness.run("CREATE TABLE t (a INT)")
        harness.run("INSERT INTO t VALUES (1)")
        harness.engine.checkpoint()
        harness.run("DROP TABLE t")
        harness.crash()
        harness.restart()
        from repro.errors import TableNotFoundError

        with pytest.raises(TableNotFoundError):
            harness.run("SELECT * FROM t")

    def test_unforced_tail_is_lost(self, harness):
        """Work whose commit never forced the log does not survive.

        (Commits always force, so build the scenario manually: append a
        record without forcing.)"""
        harness.run("CREATE TABLE t (a INT)")
        harness.engine.wal.force()
        flushed = harness.engine.wal.flushed_lsn
        from repro.wal.records import BeginRecord

        harness.engine.wal.append(BeginRecord(txn_id=12345))
        lost = harness.crash()
        assert lost == 1
        assert harness.wal.last_lsn == flushed

    def test_temp_tables_do_not_survive(self, harness):
        harness.run("CREATE TABLE #probe (a INT)")
        harness.run("INSERT INTO #probe VALUES (1)")
        harness.crash()
        harness.restart()
        from repro.errors import TableNotFoundError

        with pytest.raises(TableNotFoundError):
            harness.run("SELECT * FROM #probe")

    def test_procedures_survive(self, harness):
        harness.run("CREATE TABLE t (a INT)")
        harness.run("CREATE PROCEDURE fill (@v INT) AS "
                    "INSERT INTO t VALUES (@v)")
        harness.crash()
        harness.restart()
        harness.run("EXEC fill 3")
        assert harness.run("SELECT * FROM t") == [(3,)]

    def test_secondary_index_rebuilt(self, harness):
        harness.run("CREATE TABLE t (a INT, b INT)")
        harness.run("CREATE INDEX ix_b ON t (b)")
        harness.run("INSERT INTO t VALUES (1, 10), (2, 20)")
        harness.crash()
        harness.restart()
        assert harness.run("SELECT a FROM t WHERE b = 20") == [(2,)]

    def test_pk_index_rebuilt_and_enforced(self, harness):
        harness.run("CREATE TABLE t (a INT, PRIMARY KEY (a))")
        harness.run("INSERT INTO t VALUES (1)")
        harness.crash()
        harness.restart()
        with pytest.raises(ConstraintError):
            harness.run("INSERT INTO t VALUES (1)")

    def test_recovery_is_idempotent(self, harness):
        harness.run("CREATE TABLE t (a INT)")
        harness.run("INSERT INTO t VALUES (1)")
        harness.run("BEGIN TRANSACTION")
        harness.run("INSERT INTO t VALUES (2)")
        harness.engine.wal.force()
        harness.crash()
        harness.restart()
        # Crash immediately after recovery and recover again.
        harness.crash()
        harness.restart()
        assert harness.run("SELECT * FROM t") == [(1,)]

    def test_double_crash_with_new_work_between(self, harness):
        harness.run("CREATE TABLE t (a INT)")
        harness.run("INSERT INTO t VALUES (1)")
        harness.crash()
        harness.restart()
        harness.run("INSERT INTO t VALUES (2)")
        harness.crash()
        harness.restart()
        assert sorted(harness.run("SELECT * FROM t")) == [(1,), (2,)]

    def test_txn_ids_not_reused_after_crash(self, harness):
        harness.run("CREATE TABLE t (a INT)")
        harness.run("BEGIN TRANSACTION")
        harness.run("INSERT INTO t VALUES (1)")
        loser_id = harness.session().current_txn.txn_id
        harness.engine.wal.force()
        harness.crash()
        harness.restart()
        new_txn = harness.engine.txns.begin()
        assert new_txn.txn_id > loser_id
        harness.engine.txns.commit(new_txn)

    def test_many_rows_across_checkpoint(self, harness):
        harness.run("CREATE TABLE t (a INT)")
        for i in range(50):
            harness.run(f"INSERT INTO t VALUES ({i})")
            if i == 25:
                harness.engine.checkpoint()
        harness.crash()
        harness.restart()
        rows = harness.run("SELECT count(*) FROM t")
        assert rows == [(50,)]


class TestIndexRecovery:
    """Recovery maintains the B-trees incrementally (the sweep is
    ``tests/test_schedules.py``); these are its directed cases."""

    @pytest.mark.parametrize("flush_pages", [False, True])
    def test_loser_undo_restores_indexes(self, flush_pages):
        """A transaction that dies mid-flight leaves no index trace: its
        redone changes are compensated, B-trees included."""
        harness = EngineWorld(setup=ACCT_SETUP)
        for sql in acct_workload(seed=3, ops=12):
            harness.run(sql)
        committed = harness.contents()
        harness.run("BEGIN TRANSACTION")
        harness.run("INSERT INTO acct VALUES (900, 'own900', 1, 0)")
        harness.run("UPDATE acct SET tag = 4, owner = 'ownx' WHERE id = 0")
        harness.run("DELETE FROM acct WHERE id = 1")
        # Durable loser: force the log (and optionally the stolen pages)
        # so recovery must first redo the loser's work, then undo it —
        # both legs routed through the index-maintaining apply path.
        harness.engine.wal.force()
        if flush_pages:
            harness.engine.buffer_pool.flush_all()
        report = harness.crash_and_restart()
        assert len(report.losers) == 1
        assert harness.contents() == committed
        assert assert_indexes_match_heap(harness.engine) >= 3
        # The unique index still works: reinserting the undone key
        # succeeds, duplicating a committed one fails.
        assert harness.run(
            "INSERT INTO acct VALUES (901, 'own900', 1, 0)") == 1
        with pytest.raises(ConstraintError):
            harness.run("INSERT INTO acct VALUES (902, 'own900', 2, 1)")

    def test_unique_key_reuse_survives_partial_flush(self, harness):
        """Committed insert/delete/re-insert of one unique key, crashed
        with only the re-insert's page flushed.

        At restart the attach-time tree build (from the flushed page)
        already holds the key, and redo then replays the *first* insert
        of it — page-LSN can't skip it, the first page never reached
        disk — before replaying the delete that resolves the duplicate.
        Apply-mode inserts tolerate the transient duplicate and recovery
        re-validates uniqueness once undo completes.
        """
        harness.run("CREATE TABLE t (id INT NOT NULL, k VARCHAR(8), "
                    "PRIMARY KEY (id))")
        harness.run("CREATE UNIQUE INDEX ux_k ON t (k)")
        runtime = harness.engine._tables["t"]
        heap = runtime.heap
        per_page = heap.rows_per_page
        # First incarnation of the reused key plus fillers fill page 0.
        harness.run("INSERT INTO t VALUES (0, 'dup')")
        for i in range(1, per_page):
            harness.run(f"INSERT INTO t VALUES ({i}, 'f{i}')")
        # Free page 0's slot, plug it, then re-insert the key: it must
        # land on a fresh page so the two incarnations flush apart.
        harness.run("DELETE FROM t WHERE id = 0")
        harness.run(f"INSERT INTO t VALUES ({per_page}, 'plug')")
        harness.run(f"INSERT INTO t VALUES ({per_page + 1}, 'dup')")
        rids = runtime.index_tree("ux_k").search(("dup",))
        assert len(rids) == 1 and rids[0].page_no > 0, \
            "re-insert was expected to land on a new page"
        # Everything is committed and log-durable; flush ONLY the
        # re-insert's page, then crash.
        harness.engine.wal.force()
        harness.engine.buffer_pool.flush_page(heap.file_id, rids[0].page_no)
        report = harness.crash_and_restart()
        assert not report.losers
        rows = dict(harness.run("SELECT k, id FROM t"))
        assert rows["dup"] == per_page + 1
        assert len(rows) == per_page + 1  # fillers + plug + dup, not id 0
        assert assert_indexes_match_heap(harness.engine) >= 2

    def test_only_admitted_keys_are_validated(self, harness,
                                              monkeypatch):
        """The partial-flush schedule above: the attach-time build and
        redo admit a second rid for ('dup',), a later redo removes it,
        and validation reads just that key and passes."""
        from repro.engine.table import Table

        seen = {}

        def spy(runtime, _validate=Table.validate_unique_indexes):
            for info, tree in runtime._indexes.values():
                seen[info.name] = set(tree.admitted)
            _validate(runtime)
            assert not any(tree.admitted
                           for _info, tree in runtime._indexes.values())

        monkeypatch.setattr(Table, "validate_unique_indexes", spy)
        self.test_unique_key_reuse_survives_partial_flush(harness)
        assert seen["ux_k"] == {("dup",)}
        assert not seen["__pk_t"]

    def test_unresolved_duplicate_fails_validation(self, harness):
        """A duplicate that no redo resolves — here a flushed page
        doctored to repeat a unique key, in a table redo then touches —
        fails restart with the index and the key named."""
        harness.run("CREATE TABLE t (id INT NOT NULL, k VARCHAR(8), "
                    "PRIMARY KEY (id))")
        harness.run("CREATE UNIQUE INDEX ux_k ON t (k)")
        harness.run("INSERT INTO t VALUES (1, 'a'), (2, 'b')")
        heap = harness.engine._tables["t"].heap
        harness.engine.buffer_pool.flush_all()
        harness.run("INSERT INTO t VALUES (3, 'c')")   # redo touches t
        harness.engine.wal.force()
        page = harness.disk.read_page(heap.file_id, 0)
        page.slots[1] = (2, "a")
        harness.crash()
        with pytest.raises(ConstraintError,
                           match=r"unique index 'ux_k' of 't' holds 2 rows "
                                 r"for key \('a',\) after recovery"):
            harness.restart()

    def test_null_indexed_rows_survive_restart(self, harness):
        """NULL in a non-unique indexed column must not break attach-time
        tree builds or index-aware redo (keys store the NULL sentinel)."""
        harness.run("CREATE TABLE n (id INT NOT NULL, grp INT, "
                    "PRIMARY KEY (id))")
        harness.run("CREATE INDEX ix_grp ON n (grp)")
        harness.run("INSERT INTO n VALUES (1, 10), (2, NULL), (3, 10), "
                    "(4, NULL)")
        harness.run("UPDATE n SET grp = NULL WHERE id = 3")
        harness.run("UPDATE n SET grp = 7 WHERE id = 4")
        harness.engine.wal.force()
        harness.crash_and_restart()
        assert sorted(harness.run("SELECT id, grp FROM n")) == \
            [(1, 10), (2, None), (3, None), (4, 7)]
        # The seek itself never matches NULL (three-valued logic)…
        assert harness.run("SELECT id FROM n WHERE grp = 10") == [(1,)]
        # …but IS NULL over the full table still sees the rows.
        assert sorted(harness.run("SELECT id FROM n WHERE grp IS NULL")) \
            == [(2,), (3,)]
        assert assert_indexes_match_heap(harness.engine) >= 2


#: What every DDL case starts from: a table no case drops, one DROP
#: TABLE takes with its index, and an index, a view and a procedure for
#: the other drops.
DDL_SETUP = (
    "CREATE TABLE keep (a INT NOT NULL, b INT, PRIMARY KEY (a))",
    "INSERT INTO keep VALUES (1, 10), (2, 20)",
    "CREATE TABLE gone (x INT)",
    "INSERT INTO gone VALUES (5)",
    "CREATE INDEX ix_x ON gone (x)",
    "CREATE INDEX ix_b ON keep (b)",
    "CREATE VIEW v_old AS SELECT a FROM keep",
    "CREATE PROCEDURE p_old (@v INT) AS INSERT INTO keep VALUES (@v, 0)",
)

#: Each DDL statement, with the ``payload_bytes()`` of its record and of
#: the CLR its rollback logs (16 + the inverse record's).  A table
#: create is 64 + 16 per column, a table drop 64, an index 48, a
#: procedure or a view 32 + its body's length (31 and 18 here).
DDL_CASES = {
    "create_table": ("CREATE TABLE fresh (y INT, z VARCHAR(8))", 96, 80),
    "drop_table": ("DROP TABLE gone", 64, 96),
    "create_index": ("CREATE INDEX ix_ba ON keep (b, a)", 48, 64),
    "drop_index": ("DROP INDEX ix_b", 48, 64),
    "create_procedure": ("CREATE PROCEDURE p_new (@v INT) AS "
                         "INSERT INTO keep VALUES (@v, 1)", 63, 79),
    "drop_procedure": ("DROP PROCEDURE p_old", 63, 79),
    "create_view": ("CREATE VIEW v_new AS SELECT b FROM keep", 50, 66),
    "drop_view": ("DROP VIEW v_old", 50, 66),
}

#: What each object holds or gives once the DDL cases are done: a
#: table's rows, a view's rows, the row ``EXEC <procedure> <row[0]>``
#: inserts into ``keep``.
TABLE_ROWS = {"keep": [(1, 10), (2, 20)], "gone": [(5,)], "fresh": []}
VIEW_ROWS = {"v_old": [(1,), (2,)], "v_new": [(10,), (20,)]}
PROC_ROWS = {"p_old": (7, 0), "p_new": (8, 1)}


def catalog_state(engine) -> tuple:
    catalog = engine.catalog
    return (user_tables(engine),
            sorted((i.name, i.table_name, tuple(i.column_names), i.unique)
                   for i in catalog.indexes.values()),
            sorted((p.name, p.param_names, p.body_sql)
                   for p in catalog.procedures.values()),
            sorted((v.name, v.body_sql) for v in catalog.views.values()))


def catalog_image(catalog) -> tuple:
    """All a restart must bring back of the catalog, object for object:
    the objects with their ids, the id and version counters, the
    statistics."""
    return (dict(catalog.tables), dict(catalog.indexes),
            dict(catalog.procedures), dict(catalog.views),
            catalog.next_table_id, catalog.next_file_id,
            dict(catalog.versions), catalog.schema_version,
            dict(catalog.stats_versions), copy.deepcopy(catalog.table_stats))


def take_checkpoint(engine, kind: str) -> None:
    if kind == "sharp":
        engine.checkpoint()
    else:
        engine.fuzzy_checkpoint()


def assert_catalog_works(world) -> None:
    """Every table, view and procedure the catalog holds answers as it
    should, and every index equals its heap."""
    catalog = world.engine.catalog
    for name in catalog.views:
        assert _sorted(world.run(f"SELECT * FROM {name}")) == VIEW_ROWS[name]
    added = []
    for name in sorted(catalog.procedures):
        row = PROC_ROWS[name]
        world.run(f"EXEC {name} {row[0]}")
        added.append(row)
    expected = {name: _sorted(TABLE_ROWS[name]) for name in catalog.tables}
    expected["keep"] = _sorted(TABLE_ROWS["keep"] + added)
    assert world.contents() == expected
    assert world.run("SELECT a FROM keep WHERE b = 20") == [(2,)]
    # Every index tree, and keep's primary key.
    assert assert_indexes_match_heap(world.engine) \
        == len(catalog.indexes) + 1


class TestCatalogRecovery:
    """Every DDL statement through its three ends — rolled back online,
    undone at restart as a loser, committed and redone — with and
    without a checkpoint before it, then a second restart."""

    @pytest.mark.parametrize("checkpoint", [False, True],
                             ids=["no_checkpoint", "checkpoint"])
    @pytest.mark.parametrize("end", ["rollback", "loser", "committed"])
    @pytest.mark.parametrize("ddl", list(DDL_CASES))
    def test_ddl_end_to_end(self, ddl, end, checkpoint):
        world = EngineWorld(CostModel(checkpoint_interval_seconds=0.0),
                            DDL_SETUP)
        if checkpoint:
            world.engine.fuzzy_checkpoint()
        before = catalog_state(world.engine)
        if end != "committed":
            world.run("BEGIN TRANSACTION")
        world.run(DDL_CASES[ddl][0])
        changed = catalog_state(world.engine)
        assert changed != before
        if end == "rollback":
            world.run("ROLLBACK")
        elif end == "loser":
            world.engine.wal.force()
            assert len(world.crash_and_restart().losers) == 1
        else:
            world.crash_and_restart()
        expected = changed if end == "committed" else before
        assert catalog_state(world.engine) == expected
        world.crash_and_restart()
        assert catalog_state(world.engine) == expected
        assert_catalog_works(world)

    @pytest.mark.parametrize("checkpoint", [False, True],
                             ids=["no_checkpoint", "checkpoint_after_drop"])
    @pytest.mark.parametrize("end", ["rollback", "loser"])
    def test_rolled_back_drop_keeps_statistics_and_rows(self, end,
                                                        checkpoint):
        """ANALYZE; BEGIN; DROP TABLE; ROLLBACK — online, or undone as a
        loser at restart — brings the table back with its rows and its
        statistics, so its next plan is costed from them.  A checkpoint
        after the DROP, and an ANALYZE of another table, leave neither
        the catalog snapshot nor the statistics blob holding the table:
        its pages and the DROP's log image must do."""
        world = EngineWorld(CostModel(checkpoint_interval_seconds=0.0),
                            DDL_SETUP)
        world.run("ANALYZE")
        analyzed = copy.deepcopy(world.engine.catalog.get_table_stats("gone"))
        assert analyzed is not None
        world.run("BEGIN TRANSACTION")
        world.run("DROP TABLE gone")
        assert world.engine.catalog.get_table_stats("gone") is None
        if checkpoint:
            world.engine.fuzzy_checkpoint()
            world.run("ANALYZE keep", who=1)
            assert "gone" not in world.disk.read_blob(
                "table_stats_snapshot")["table_stats"]
        if end == "rollback":
            world.run("ROLLBACK")
        else:
            world.engine.wal.force()
            assert len(world.crash_and_restart().losers) == 1
        for _ in range(2):      # and again after a restart
            catalog = world.engine.catalog
            assert catalog.get_table_stats("gone") == analyzed
            fallbacks = world.meter.counters.get(
                "optimizer.stats_missing_fallbacks", 0)
            assert world.run("SELECT x FROM gone WHERE x = 5") == [(5,)]
            assert world.meter.counters.get(
                "optimizer.stats_missing_fallbacks", 0) == fallbacks
            world.engine.wal.force()
            world.crash_and_restart()

    @pytest.mark.parametrize("checkpoint", ["sharp", "fuzzy"])
    @pytest.mark.parametrize("ddl", list(DDL_CASES))
    def test_committed_ddl_restores_from_the_snapshot_alone(
            self, ddl, checkpoint, monkeypatch):
        """A checkpoint after the committed DDL: restart brings the
        catalog back from ``Catalog.restore`` alone — redo skips the DDL
        record — and it is the pre-crash catalog object for object, ids,
        version counters and statistics included."""
        world = EngineWorld(CostModel(checkpoint_interval_seconds=0.0),
                            DDL_SETUP)
        world.run("ANALYZE")
        first = world.wal.last_lsn + 1
        world.run(DDL_CASES[ddl][0])
        [record] = [r for r in world.wal.records_from(first)
                    if isinstance(r, CatalogRecord)]
        take_checkpoint(world.engine, checkpoint)
        before = catalog_image(world.engine.catalog)
        applied = []
        apply_catalog = DatabaseEngine.apply_catalog

        def spy(engine, rec, **kwargs):
            applied.append(rec)
            return apply_catalog(engine, rec, **kwargs)

        monkeypatch.setattr(DatabaseEngine, "apply_catalog", spy)
        report = world.crash_and_restart()
        monkeypatch.undo()
        assert applied == []
        assert record.lsn <= report.checkpoint_lsn
        assert catalog_image(world.engine.catalog) == before
        assert_catalog_works(world)

    @pytest.mark.parametrize("checkpoint", ["sharp", "fuzzy"])
    def test_recreated_table_takes_no_dropped_statistics(self, checkpoint):
        """ANALYZE t, DROP TABLE t, CREATE TABLE t with other columns,
        checkpoint, crash: the new ``t`` had no statistics online and
        has none after restart — the ANALYZE blob's were taken from
        another table."""
        world = EngineWorld(CostModel(checkpoint_interval_seconds=0.0))
        world.run("CREATE TABLE t (a INT, v INT)")
        world.run("INSERT INTO t VALUES (1, 1), (2, 2), (3, 3)")
        world.run("ANALYZE t")
        world.run("DROP TABLE t")
        world.run("CREATE TABLE t (b INT)")
        assert world.engine.catalog.get_table_stats("t") is None
        take_checkpoint(world.engine, checkpoint)
        world.crash_and_restart()
        assert world.engine.catalog.get_table_stats("t") is None
        assert world.run("SELECT table_name, column_name "
                         "FROM sys_table_stats") == []

    @pytest.mark.parametrize("checkpoint", ["sharp", "fuzzy"])
    def test_dropped_table_statistics_stay_dropped(self, checkpoint):
        """ANALYZE t, DROP TABLE t, checkpoint, crash: no statistics of
        ``t`` come back, in the catalog or in ``sys_table_stats``."""
        world = EngineWorld(CostModel(checkpoint_interval_seconds=0.0))
        world.run("CREATE TABLE t (a INT, v INT)")
        world.run("INSERT INTO t VALUES (1, 1), (2, 2), (3, 3)")
        world.run("ANALYZE t")
        world.run("DROP TABLE t")
        take_checkpoint(world.engine, checkpoint)
        world.crash_and_restart()
        assert "t" not in world.engine.catalog.table_stats
        assert world.run("SELECT table_name, column_name "
                         "FROM sys_table_stats") == []

    @pytest.mark.parametrize("checkpoint", [False, True])
    def test_restart_and_fork_share_the_statistics_value(self, checkpoint):
        """The statistics ANALYZE made are the ones a restarted engine
        and a forked one (a deep copy of the disk and the log) hold:
        restored from the statistics blob or the checkpoint's catalog
        image, never copied."""
        world = EngineWorld(CostModel(checkpoint_interval_seconds=0.0))
        world.run("CREATE TABLE t (k INT NOT NULL, v INT, PRIMARY KEY (k))")
        world.run("INSERT INTO t VALUES (1, 10), (2, 20)")
        world.run("ANALYZE t")
        stats = world.engine.catalog.get_table_stats("t")
        if checkpoint:
            world.engine.checkpoint()
        world.crash()
        forked = world.fork(CostModel(checkpoint_interval_seconds=0.0))
        world.restart()
        assert world.engine.catalog.get_table_stats("t") is stats
        assert forked.engine.catalog.get_table_stats("t") is stats

    def test_lost_create_leaves_its_table_id_no_statistics(self):
        """BEGIN, CREATE TABLE t, ANALYZE t, crash before the log is
        forced: the create is lost and its table id is free again.  The
        next CREATE TABLE t takes that id, and no later restart lays the
        lost table's statistics onto it."""
        world = EngineWorld(CostModel(checkpoint_interval_seconds=0.0))
        world.run("BEGIN")
        world.run("CREATE TABLE t (a INT, v INT)")
        lost_id = world.engine.catalog.get_table("t").table_id
        world.run("INSERT INTO t VALUES (1, 1), (2, 2), (3, 3)")
        world.run("ANALYZE t")
        assert world.crash() > 0
        world.restart()
        assert not world.engine.catalog.has_table("t")
        world.run("CREATE TABLE t (b INT)")
        assert world.engine.catalog.get_table("t").table_id == lost_id
        world.crash_and_restart()
        assert world.engine.catalog.get_table_stats("t") is None
        assert world.run("SELECT table_name, column_name "
                         "FROM sys_table_stats") == []

    @pytest.mark.parametrize("ddl", list(DDL_CASES))
    def test_ddl_log_pricing(self, ddl):
        """Log bytes are virtual time: the DDL record and its CLR."""
        sql, record_bytes, clr_bytes = DDL_CASES[ddl]
        world = EngineWorld(setup=DDL_SETUP)
        first = world.wal.last_lsn + 1
        world.run("BEGIN TRANSACTION")
        world.run(sql)
        world.run("ROLLBACK")
        records = list(world.wal.records_from(first))
        [record] = [r for r in records if isinstance(r, CatalogRecord)]
        [clr] = [r for r in records if isinstance(r, CLRRecord)]
        assert clr.action.create is not record.create
        assert (record.payload_bytes(), clr.payload_bytes()) \
            == (record_bytes, clr_bytes)
