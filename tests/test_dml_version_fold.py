"""History-independent durability: DML versions and durable blobs.

Log truncation folds the dropped prefix's per-table DML-version effect
into a small durable base; restart runs the *same* fold over the live log
only.  Two families of contracts:

* **equivalence** — post-restart ``catalog.dml_versions`` equals the
  full-history replay kept in ``tests/dml_version_oracle.py``, including
  when a transaction straddles the truncation boundary, when the log
  holds DDL, across several truncations, and when a prefix is folded
  twice.  (Oracle (i) of ``tests/schedules.py`` asserts the same at every
  restart of every engine schedule.)
* **history independence and crash semantics** — restart scans exactly
  the live log and reads no blob but the base and the catalog's, however
  long the history; the engine keeps no dropped record (the oracle's
  history is recorded by the test world); what the disk holds never
  aliases live state, although it no longer copies.
"""

import copy

import pytest

from repro.engine.dml_versions import BASE_BLOB
from repro.sim.costs import CostModel
from repro.wal.records import AbortRecord, CommitRecord
from tests.dml_version_oracle import (
    assert_versions_match_full_history,
    full_history_dml_versions,
)
from tests.schedules import EngineWorld


class World(EngineWorld):
    """An engine with the shared result cache on (so commits bump the
    live versions too) and as many sessions as a test asks for."""

    def __init__(self):
        # No cadence: the tests place (and count) their checkpoints.
        super().__init__(CostModel(result_cache_entries=64,
                                   checkpoint_interval_seconds=0.0))

    def run(self, sql, session_id=1):
        return super().run(sql, who=session_id)

    def truncating_checkpoint(self, flush=True) -> int:
        """Returns how many records the checkpoint truncated."""
        if flush:
            self.engine.buffer_pool.flush_all()
        before = self.wal.truncated_lsn
        self.engine.fuzzy_checkpoint(truncate=True)
        return self.wal.truncated_lsn - before

    def crash_and_restart(self):
        super().crash_and_restart()
        return self.engine

    def live_lsn_of(self, record_type, txn_id) -> int:
        return next(rec.lsn for rec in self.wal.all_records()
                    if isinstance(rec, record_type)
                    and rec.txn_id == txn_id)


def straddling_world(finish: str) -> tuple[World, int]:
    """T1 writes ``t`` and finishes with ``finish`` while a second,
    idle transaction pins the log *between* T1's write and its
    COMMIT/ABORT — so the next truncation archives the write and leaves
    the outcome record live."""
    world = World()
    world.run("CREATE TABLE t (k INT NOT NULL, v INT, PRIMARY KEY (k))")
    world.run("INSERT INTO t VALUES (1, 0)")
    world.run("BEGIN TRANSACTION", session_id=1)
    world.run("UPDATE t SET v = 7 WHERE k = 1", session_id=1)
    t1 = next(iter(world.engine.txns.active_transactions))
    world.run("BEGIN TRANSACTION", session_id=2)      # the pin
    world.run(finish, session_id=1)
    return world, t1


# -- equivalence: directed cases ------------------------------------------------

def test_commit_live_but_writes_archived():
    world, t1 = straddling_world("COMMIT")
    live_before = dict(world.engine.catalog.dml_versions)
    assert world.truncating_checkpoint() > 0
    # The straddle really happened: T1's COMMIT is live, its UPDATE is
    # not, and the durable base carries T1 as pending.
    commit_lsn = world.live_lsn_of(CommitRecord, t1)
    assert commit_lsn > world.wal.truncated_lsn
    assert world.disk.read_blob(BASE_BLOB)["pending"] == {t1: ["t"]}
    world.run("ROLLBACK", session_id=2)

    restarted = world.crash_and_restart()
    versions = assert_versions_match_full_history(restarted)
    assert versions == live_before
    assert versions["t"] == 3        # CREATE, INSERT, T1's UPDATE


def test_abort_live_but_writes_archived():
    world, t1 = straddling_world("ROLLBACK")
    live_before = dict(world.engine.catalog.dml_versions)
    assert world.truncating_checkpoint() > 0
    assert world.live_lsn_of(AbortRecord, t1) > world.wal.truncated_lsn
    assert world.disk.read_blob(BASE_BLOB)["pending"] == {t1: ["t"]}
    world.run("ROLLBACK", session_id=2)

    restarted = world.crash_and_restart()
    versions = assert_versions_match_full_history(restarted)
    assert versions == live_before
    assert versions["t"] == 2        # the aborted UPDATE never counts


def test_two_truncations_with_no_commit_in_between():
    """The pending set must ride through a truncation that folds no
    outcome record at all, and still be there when the COMMIT is
    finally folded — from the blob, by a later truncation."""
    world = World()
    world.run("CREATE TABLE t (k INT NOT NULL, v INT, PRIMARY KEY (k))")
    world.run("BEGIN TRANSACTION", session_id=1)
    world.run("INSERT INTO t VALUES (1, 0)", session_id=1)
    t1 = next(iter(world.engine.txns.active_transactions))
    world.run("BEGIN TRANSACTION", session_id=2)      # first pin
    world.run("BEGIN TRANSACTION", session_id=3)      # second pin
    world.run("COMMIT", session_id=1)
    live_before = dict(world.engine.catalog.dml_versions)

    assert world.truncating_checkpoint() > 0          # up to pin 1
    world.run("ROLLBACK", session_id=2)
    assert world.truncating_checkpoint() > 0          # pin 1 .. pin 2
    base = world.disk.read_blob(BASE_BLOB)
    assert base["pending"] == {t1: ["t"]}
    assert base["versions"] == {"t": 1}               # only the CREATE
    assert world.live_lsn_of(CommitRecord, t1) > world.wal.truncated_lsn

    restarted = world.crash_and_restart()             # COMMIT still live
    assert assert_versions_match_full_history(restarted) == live_before

    assert world.truncating_checkpoint() > 0          # past the COMMIT
    base = world.disk.read_blob(BASE_BLOB)
    assert base["pending"] == {}
    assert base["versions"] == {"t": 2}
    restarted = world.crash_and_restart()             # COMMIT archived
    assert assert_versions_match_full_history(restarted) == live_before


def test_ddl_records_count_like_writes():
    world = World()
    world.run("CREATE TABLE t (k INT NOT NULL, v INT, PRIMARY KEY (k))")
    world.run("CREATE INDEX ix_t_v ON t (v)")
    world.run("CREATE VIEW tv AS SELECT k FROM t")
    world.run("CREATE TABLE gone (k INT NOT NULL, PRIMARY KEY (k))")
    world.run("INSERT INTO gone VALUES (1)")
    world.run("DROP TABLE gone")
    world.run("CREATE PROCEDURE p AS SELECT k FROM t")   # untracked
    world.run("CREATE TABLE #scratch (k INT)")           # never logged
    live_before = dict(world.engine.catalog.dml_versions)
    assert world.truncating_checkpoint() > 0
    world.run("DROP INDEX ix_t_v")                       # live-log DDL
    world.run("DROP VIEW tv")
    live_before["t"] += 1
    live_before["tv"] += 1

    restarted = world.crash_and_restart()
    versions = assert_versions_match_full_history(restarted)
    assert versions == live_before == {"t": 3, "tv": 2, "gone": 3}


def test_crash_right_after_truncation_folds_once():
    world = World()
    world.run("CREATE TABLE t (k INT NOT NULL, v INT, PRIMARY KEY (k))")
    for i in range(5):
        world.run(f"INSERT INTO t VALUES ({i}, 0)")
    live_before = dict(world.engine.catalog.dml_versions)
    assert world.truncating_checkpoint() > 0
    assert world.disk.read_blob(BASE_BLOB)["through_lsn"] == \
        world.wal.truncated_lsn
    for _ in range(2):      # restarting twice must not count twice either
        restarted = world.crash_and_restart()
        assert assert_versions_match_full_history(restarted) == \
            live_before == {"t": 6}


def test_prefix_archived_but_not_yet_dropped_is_not_folded_twice():
    """Power cut between the truncation sink and the log dropping the
    prefix: the base already covers records the live log still holds."""
    world = World()
    world.run("CREATE TABLE t (k INT NOT NULL, v INT, PRIMARY KEY (k))")
    for i in range(4):
        world.run(f"INSERT INTO t VALUES ({i}, 0)")
    live_before = dict(world.engine.catalog.dml_versions)
    prefix = list(world.wal.all_records())[:-3]
    world.engine._archive_log_records(prefix)     # sink ran; drop did not
    assert world.wal.truncated_lsn == 0
    through = world.disk.read_blob(BASE_BLOB)["through_lsn"]
    assert through == prefix[-1].lsn

    restarted = world.crash_and_restart()
    assert assert_versions_match_full_history(restarted) == live_before
    # The truncation that finally happens hands the same prefix over
    # again: folded once, and each dropped record counted once.
    assert world.truncating_checkpoint() > 0
    assert world.engine.durable_log_stats()["archived_records"] == \
        world.disk.read_blob(BASE_BLOB)["through_lsn"] == \
        world.wal.truncated_lsn
    restarted = world.crash_and_restart()
    assert assert_versions_match_full_history(restarted) == live_before


# -- history independence ---------------------------------------------------------

def crashed_world_with_history(rounds: int) -> World:
    """``rounds`` of archived history, then a fixed live tail."""
    world = World()
    world.run("CREATE TABLE t (k INT NOT NULL, v INT, PRIMARY KEY (k))")
    world.run("INSERT INTO t VALUES (1, 0), (2, 0), (3, 0)")
    for _ in range(rounds):
        world.run("UPDATE t SET v = v + 1 WHERE k < 3")
    world.truncating_checkpoint()
    for _ in range(4):
        world.run("UPDATE t SET v = v + 1 WHERE k = 3")
    world.crash()
    return world


def test_restart_scans_the_live_log_only_whatever_the_history():
    scanned = {}
    archived = {}
    for rounds in (10, 100):
        world = crashed_world_with_history(rounds)
        blobs_read = []
        read_blob = world.disk.read_blob

        def spy(name, default=None):
            blobs_read.append(name)
            return read_blob(name, default)

        world.disk.read_blob = spy
        report = world.restart(check_versions=False)   # checked below
        del world.disk.read_blob
        engine = world.engine
        assert BASE_BLOB in blobs_read
        assert set(blobs_read) == {BASE_BLOB, "catalog_snapshot",
                                   "table_stats_snapshot"}
        assert report.version_records_scanned == \
            world.wal.last_lsn - world.wal.truncated_lsn
        assert engine.catalog.dml_versions == \
            full_history_dml_versions(world.wal)
        assert engine.catalog.dml_versions["t"] == 2 + rounds + 4
        scanned[rounds] = report.version_records_scanned
        archived[rounds] = \
            world.engine.durable_log_stats()["archived_records"]
    assert archived[100] > 8 * archived[10]
    assert scanned[100] == scanned[10]


# -- durable blobs never alias live state ---------------------------------------

def test_checkpointed_catalog_is_isolated_from_live_mutation():
    world = World()
    world.run("CREATE TABLE t (k INT NOT NULL, v INT, PRIMARY KEY (k))")
    world.run("INSERT INTO t VALUES " + ", ".join(
        f"({i}, {i % 5})" for i in range(40)))
    world.run("CREATE PROCEDURE p AS SELECT k FROM t")
    world.run("ANALYZE")
    world.truncating_checkpoint()
    catalog = world.engine.catalog
    checkpointed = copy.deepcopy(catalog.snapshot())
    archived = world.engine.durable_log_stats()["archived_records"]

    # Scribble over everything the snapshot was built from, and keep
    # logging: none of it was written back, so none of it may survive.
    # The statistics themselves are immutable (shared with the
    # snapshot, not copied): only the catalog's entry can be replaced.
    stats = catalog.table_stats["t"]
    with pytest.raises(AttributeError):
        stats.row_count = 10 ** 9
    with pytest.raises(AttributeError):
        stats.column("v").ndv = -1
    with pytest.raises(AttributeError):
        stats.column("v").histogram.append("garbage")
    catalog.table_stats["t"] = stats._replace(row_count=10 ** 9,
                                              columns=stats.columns[1:])
    catalog.stats_versions["t"] = 99
    catalog.versions["t"] = 99
    catalog.schema_version = 99
    del catalog.procedures["p"]
    world.run("UPDATE t SET v = v + 1 WHERE k = 1")
    assert world.disk.read_blob("catalog_snapshot") == checkpointed
    assert world.engine.durable_log_stats()["archived_records"] == archived

    restarted = world.crash_and_restart()
    assert restarted.catalog.snapshot() == checkpointed
    assert world.run("SELECT v FROM t WHERE k = 1") == [(2,)]

    # The reader's side of the contract: the restored catalog owns its
    # structures, so scribbling on *it* cannot reach the disk either.
    restarted.catalog.table_stats["t"] = \
        restarted.catalog.table_stats["t"]._replace(row_count=-5)
    assert world.disk.read_blob("catalog_snapshot") == checkpointed
    assert world.disk.read_blob("table_stats_snapshot")["table_stats"] \
        == {image["name"]: image["stats"]
            for kind, image in checkpointed["objects"] if kind == "table"}
    assert world.crash_and_restart().catalog.snapshot() == checkpointed


def test_analyze_blob_is_isolated_from_live_mutation():
    """Statistics reach the disk at ANALYZE time, before any checkpoint;
    that blob must not alias the live statistics either."""
    world = World()
    world.run("CREATE TABLE t (k INT NOT NULL, v INT, PRIMARY KEY (k))")
    world.run("INSERT INTO t VALUES (1, 1), (2, 2), (3, 3)")
    world.run("ANALYZE t")
    analyzed = copy.deepcopy(world.engine.catalog.table_stats["t"])
    world.engine.catalog.table_stats["t"] = analyzed._replace(
        row_count=12345)
    restarted = world.crash_and_restart()
    assert restarted.catalog.table_stats["t"] == analyzed
    assert restarted.catalog.stats_version_of("t") == 1


def test_unchanged_catalog_is_not_rewritten():
    world = World()
    world.run("CREATE TABLE t (k INT NOT NULL, v INT, PRIMARY KEY (k))")
    counters = world.meter.counters
    world.truncating_checkpoint()
    first = world.disk.read_blob("catalog_snapshot")
    world.run("INSERT INTO t VALUES (1, 0)")          # DML: no rewrite
    world.truncating_checkpoint()
    assert world.disk.read_blob("catalog_snapshot") is first
    assert counters["catalog_snapshots_written"] == 1
    assert counters["catalog_snapshots_skipped"] == 1
    world.run("ANALYZE t")                            # stats: rewrite
    world.truncating_checkpoint()
    world.run("CREATE INDEX ix_t_v ON t (v)")         # DDL: rewrite
    world.engine.checkpoint()                         # sharp path too
    assert counters["catalog_snapshots_written"] == 3
    assert counters["catalog_snapshots_skipped"] == 1
    # A restarted engine writes its first snapshot unconditionally, and
    # what it restores is the current catalog.
    restarted = world.crash_and_restart()
    assert "ix_t_v" in restarted.catalog.indexes
    assert restarted.catalog.get_table_stats("t") is not None
    world.truncating_checkpoint()
    assert counters["catalog_snapshots_written"] == 4
