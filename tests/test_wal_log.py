"""Unit tests for the write-ahead log and lock manager."""

import pytest

from repro.errors import LockWaitError
from repro.sim.meter import Meter
from repro.txn.locks import LockManager, LockMode
from repro.wal.log import WriteAheadLog
from repro.wal.records import (
    BeginRecord,
    CheckpointRecord,
    CommitRecord,
    InsertRecord,
    UpdateRecord,
)


class TestWriteAheadLog:
    def test_lsns_are_sequential(self):
        log = WriteAheadLog()
        first = log.append(BeginRecord(txn_id=1))
        second = log.append(CommitRecord(txn_id=1))
        assert (first, second) == (1, 2)
        assert log.last_lsn == 2

    def test_force_advances_flushed_lsn(self):
        log = WriteAheadLog()
        log.append(BeginRecord(txn_id=1))
        assert log.flushed_lsn == 0
        log.force()
        assert log.flushed_lsn == 1

    def test_crash_discards_unforced_tail(self):
        log = WriteAheadLog()
        log.append(BeginRecord(txn_id=1))
        log.force()
        log.append(CommitRecord(txn_id=1))
        lost = log.crash()
        assert lost == 1
        assert log.last_lsn == 1
        with pytest.raises(IndexError):
            log.record(2)

    def test_force_is_idempotent(self):
        meter = Meter()
        log = WriteAheadLog(meter)
        log.append(BeginRecord(txn_id=1))
        log.force()
        t = meter.now
        log.force()  # nothing pending: no charge
        assert meter.now == t

    def test_sync_force_charges_latency(self):
        meter = Meter()
        log = WriteAheadLog(meter)
        log.append(BeginRecord(txn_id=1))
        log.force(sync=True)
        first = meter.now
        log.append(BeginRecord(txn_id=2))
        log.force(sync=False)
        second = meter.now - first
        assert first > second  # async flush skips the force latency

    def test_records_from(self):
        log = WriteAheadLog()
        for i in range(5):
            log.append(BeginRecord(txn_id=i + 1))
        assert [r.txn_id for r in log.records_from(3)] == [3, 4, 5]

    def test_last_checkpoint_only_counts_durable(self):
        log = WriteAheadLog()
        log.append(BeginRecord(txn_id=1))
        cp = log.append(CheckpointRecord(txn_id=0))
        assert log.last_complete_checkpoint() is None  # not forced yet
        log.force()
        assert log.last_complete_checkpoint().lsn == cp

    def test_payload_sizes_scale_with_rows(self):
        small = InsertRecord(txn_id=1, row=(1,))
        large = InsertRecord(txn_id=1, row=("x" * 500,))
        assert large.payload_bytes() > small.payload_bytes()
        update = UpdateRecord(txn_id=1, old_row=(1,), new_row=(2,))
        assert update.payload_bytes() > small.payload_bytes()


class TestLockManager:
    def test_shared_locks_coexist(self):
        locks = LockManager()
        locks.acquire(1, "t", LockMode.SHARED)
        locks.acquire(2, "t", LockMode.SHARED)
        assert locks.held(1, "t") is LockMode.SHARED

    def test_exclusive_conflicts_with_shared(self):
        locks = LockManager()
        locks.acquire(1, "t", LockMode.SHARED)
        with pytest.raises(LockWaitError):
            locks.acquire(2, "t", LockMode.EXCLUSIVE)
        # The reader's commit hands the lock to the queued writer.
        assert locks.release_all(1) == [2]
        assert locks.held(2, "t") is LockMode.EXCLUSIVE

    def test_shared_conflicts_with_exclusive(self):
        locks = LockManager()
        locks.acquire(1, "t", LockMode.EXCLUSIVE)
        with pytest.raises(LockWaitError):
            locks.acquire(2, "t", LockMode.SHARED)
        assert locks.waiting_for(2) == {1}
        # The reader gives up: nothing of it stays behind.
        assert locks.withdraw(2) == []
        assert not locks.is_waiting(2)
        assert locks.release_all(1) == []

    def test_upgrade_own_lock(self):
        locks = LockManager()
        locks.acquire(1, "t", LockMode.SHARED)
        locks.acquire(1, "t", LockMode.EXCLUSIVE)
        assert locks.held(1, "t") is LockMode.EXCLUSIVE

    def test_upgrade_blocked_by_other_reader(self):
        locks = LockManager()
        locks.acquire(1, "t", LockMode.SHARED)
        locks.acquire(2, "t", LockMode.SHARED)
        with pytest.raises(LockWaitError):
            locks.acquire(1, "t", LockMode.EXCLUSIVE)
        assert locks.held(1, "t") is LockMode.SHARED  # kept while queued
        assert locks.release_all(2) == [1]
        assert locks.held(1, "t") is LockMode.EXCLUSIVE

    def test_x_subsumes_s(self):
        locks = LockManager()
        locks.acquire(1, "t", LockMode.EXCLUSIVE)
        locks.acquire(1, "t", LockMode.SHARED)  # no-op
        assert locks.held(1, "t") is LockMode.EXCLUSIVE

    def test_release_all(self):
        locks = LockManager()
        locks.acquire(1, "t", LockMode.EXCLUSIVE)
        locks.acquire(1, "u", LockMode.SHARED)
        locks.release_all(1)
        locks.acquire(2, "t", LockMode.EXCLUSIVE)
        locks.acquire(2, "u", LockMode.EXCLUSIVE)

    def test_case_insensitive_names(self):
        locks = LockManager()
        locks.acquire(1, "Orders", LockMode.EXCLUSIVE)
        with pytest.raises(LockWaitError):
            locks.acquire(2, "ORDERS", LockMode.SHARED)
        assert locks.release_all(1) == [2]
        assert locks.held(2, "orders") is LockMode.SHARED
