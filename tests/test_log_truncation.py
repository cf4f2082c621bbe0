"""Directed log-truncation safety regressions.

Truncation may only drop a prefix no future recovery can need:

* nothing at or above any active transaction's first LSN (undo walks
  that far back);
* nothing at or above any dirty page's recLSN (redo starts there);
* and if those invariants are violated by hand, recovery must fail
  *loudly* with ``LogTruncatedError`` — never silently recover wrong
  state from a hole in the log.
"""

import pytest

from repro.errors import LogTruncatedError
from repro.sim.costs import CostModel
from repro.wal.records import EndCheckpointRecord
from tests.schedules import EngineWorld


def make_engine():
    # No cadence: the tests place their checkpoints by hand.
    world = EngineWorld(CostModel(checkpoint_interval_seconds=0.0))
    return world.engine, world.run, world


def test_truncation_preserves_loser_begun_before_checkpoint():
    """A transaction that began before the checkpoint pins the log: its
    whole undo chain must survive truncation, and after a crash the
    loser rolls back cleanly."""
    engine, run, world = make_engine()
    run("CREATE TABLE t (k INT NOT NULL, v INT, PRIMARY KEY (k))")
    run("INSERT INTO t VALUES (1, 0)")
    committed = sorted(run("SELECT k, v FROM t"))

    run("BEGIN TRANSACTION")
    run("UPDATE t SET v = 99 WHERE k = 1")
    loser = next(iter(engine.txns.active_transactions.values()))
    for _ in range(5):
        engine.fuzzy_checkpoint(truncate=True)
    # The checkpoint chain kept the loser's first LSN reachable.
    assert engine.wal.truncated_lsn < loser.first_lsn
    end = engine.wal.last_complete_checkpoint()
    assert isinstance(end, EndCheckpointRecord)
    assert loser.txn_id in end.active_first_lsns

    engine.wal.force()
    report = world.crash_and_restart()
    assert loser.txn_id in report.losers
    assert sorted(run("SELECT k, v FROM t")) == committed


def test_truncation_preserves_dirty_page_reclsn():
    """An unflushed page's recLSN caps the truncation point — redo must
    still find the records that rebuild the page."""
    engine, run, world = make_engine()
    run("CREATE TABLE t (k INT NOT NULL, v INT, PRIMARY KEY (k))")
    run("INSERT INTO t VALUES (1, 0)")
    engine.buffer_pool.flush_all()
    run("UPDATE t SET v = 7 WHERE k = 1")
    rec_lsn = min(engine.buffer_pool.dirty_page_table().values())
    assert rec_lsn > 0
    engine.fuzzy_checkpoint(truncate=True)
    assert engine.wal.truncated_lsn < rec_lsn
    # The page stayed dirty (hot), so recovery redoes from its recLSN.
    assert world.crash_and_restart().redo_start <= rec_lsn
    assert run("SELECT k, v FROM t") == [(1, 7)]


def test_unsafe_truncation_fails_loudly_not_silently():
    """Drop records a dirty page still needs: recovery must raise
    ``LogTruncatedError`` instead of recovering wrong contents."""
    engine, run, world = make_engine()
    run("CREATE TABLE t (k INT NOT NULL, v INT, PRIMARY KEY (k))")
    run("INSERT INTO t VALUES (1, 0)")
    run("UPDATE t SET v = 5 WHERE k = 1")
    engine.wal.force()
    # Bypass the safety rule: throw away the whole flushed prefix even
    # though the table's pages were never written to disk.
    engine.wal.truncate(engine.wal.flushed_lsn)
    with pytest.raises(LogTruncatedError):
        world.crash_and_restart()


def test_truncate_beyond_flushed_tail_rejected():
    engine, run, _world = make_engine()
    run("CREATE TABLE t (k INT NOT NULL, PRIMARY KEY (k))")
    wal = engine.wal
    with pytest.raises(ValueError):
        wal.truncate(wal.last_lsn + 10)


def test_reads_below_truncation_point_raise():
    engine, run, _world = make_engine()
    run("CREATE TABLE t (k INT NOT NULL, PRIMARY KEY (k))")
    run("INSERT INTO t VALUES (1)")
    engine.buffer_pool.flush_all()
    engine.fuzzy_checkpoint(truncate=True)
    wal = engine.wal
    assert wal.truncated_lsn > 0
    with pytest.raises(LogTruncatedError):
        wal.record(1)
    with pytest.raises(LogTruncatedError):
        list(wal.records_from(1))
    # Reads above the boundary still work.
    assert wal.record(wal.truncated_lsn + 1) is not None


def test_txn_ids_never_reused_after_truncation():
    """Analysis would corrupt if an archived transaction id came back."""
    engine, run, world = make_engine()
    run("CREATE TABLE t (k INT NOT NULL, PRIMARY KEY (k))")
    run("INSERT INTO t VALUES (1)")
    engine.buffer_pool.flush_all()
    engine.fuzzy_checkpoint(truncate=True)
    assert engine.wal.truncated_max_txn_id > 0
    world.crash_and_restart()
    restarted = world.engine
    txn = restarted.txns.begin()
    assert txn.txn_id > engine.wal.truncated_max_txn_id
    restarted.txns.commit(txn)


def test_truncated_prefix_is_archived_in_order():
    """The truncation sink receives each dropped record once, in LSN
    order, across two truncating checkpoints — and nothing keeps them:
    the archived count is the DML-version base's ``through_lsn``."""
    engine, run, _world = make_engine()
    handed = []
    sink = engine._archive_log_records

    def spy(records):
        handed.append(list(records))
        sink(records)

    engine._archive_log_records = spy
    run("CREATE TABLE t (k INT NOT NULL, PRIMARY KEY (k))")
    run("INSERT INTO t VALUES (1)")
    before = list(engine.wal.all_records())
    engine.buffer_pool.flush_all()
    engine.fuzzy_checkpoint(truncate=True)
    dropped = engine.wal.truncated_lsn
    assert dropped > 0
    assert len(handed) == 1
    assert [rec.lsn for rec in handed[0]] == list(range(1, dropped + 1))
    assert [type(rec) for rec in handed[0]] == \
        [type(rec) for rec in before[:dropped]]
    # A second truncating checkpoint hands over the records after those.
    run("INSERT INTO t VALUES (2)")
    engine.buffer_pool.flush_all()
    engine.fuzzy_checkpoint(truncate=True)
    assert engine.wal.truncated_lsn > dropped
    assert len(handed) == 2
    assert [rec.lsn for batch in handed for rec in batch] == \
        list(range(1, engine.wal.truncated_lsn + 1))
    assert engine.durable_log_stats()["archived_records"] == \
        engine.wal.truncated_lsn
