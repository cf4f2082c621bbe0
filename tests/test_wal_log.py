"""Unit tests for the write-ahead log and lock manager."""

from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.database import DatabaseEngine
from repro.engine.session import EngineSession
from repro.errors import LockWaitError
from repro.sim.costs import CostModel
from repro.sim.meter import Meter
from repro.storage.heap import RowId
from repro.txn.locks import LockManager, LockMode
from repro.txn.manager import TransactionManager
from repro.wal.log import WriteAheadLog
from repro.wal.records import (
    BeginRecord,
    CatalogRecord,
    CheckpointRecord,
    CLRRecord,
    CommitRecord,
    DeleteRecord,
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

    def test_a_run_appends_as_its_records_one_by_one(self):
        """Same LSNs, same records, and the pending write time summed
        record by record: bit-equal, not merely close."""
        def run():
            return [InsertRecord(txn_id=1, table_name="t", slot=slot,
                                 row=("x" * slot,), row_bytes=slot)
                    for slot in range(7)]

        one, many = WriteAheadLog(Meter()), WriteAheadLog(Meter())
        for log in (one, many):
            log.append(BeginRecord(txn_id=1))
        for record in run():
            one.append(record, 500.0)
        assert many.append_run(run(), 500.0) == one.last_lsn == 8
        assert list(many.all_records()) == list(one.all_records())
        assert many._pending_write_seconds == one._pending_write_seconds

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


def field_by_field(record) -> tuple:
    return type(record), [(f.name, getattr(record, f.name))
                          for f in fields(record)]


class _NoRuntimes:
    """An undo target with no table runtimes and no catalog."""

    def table_for_file(self, file_id):
        return None

    def apply_catalog(self, record):
        pass


@settings(max_examples=50, deadline=None)
@given(name=st.text("tu", min_size=1, max_size=3),
       place=st.lists(st.integers(0, 99), min_size=4, max_size=4,
                      unique=True),
       rows=st.lists(st.tuples(st.integers(-9, 9), st.none() | st.text("x")),
                     min_size=2, max_size=2, unique=True))
def test_positional_records_equal_their_keyword_twins(name, place, rows):
    """The records the transaction manager logs, their inverses and the
    compensations a rollback logs are built positionally; each equals,
    field by field, the record its keyword-built twin would be (every
    position holds a different value, so a swap cannot hide)."""
    file_id, page_no, slot, width = place
    row, new_row = rows
    log = WriteAheadLog()
    txns = TransactionManager(log, LockManager(), _NoRuntimes())
    txn = txns.begin()
    rid = RowId(file_id, page_no, slot)
    txns.log_inserts(txn, name, file_id, page_no, [slot], [row], [width])
    txns.log_delete(txn, name, rid, row, width)
    txns.log_update(txn, name, rid, row, new_row, width)
    data = [r for r in log.all_records() if r.lsn > txn.first_lsn]
    where = dict(txn_id=txn.txn_id, table_name=name, file_id=file_id,
                 page_no=page_no, slot=slot, row_bytes=width)
    twins = [InsertRecord(**where, row=row), DeleteRecord(**where, row=row),
             UpdateRecord(**where, old_row=row, new_row=new_row)]
    inverses = [DeleteRecord(**where, row=row), InsertRecord(**where, row=row),
                UpdateRecord(**where, old_row=new_row, new_row=row)]
    prev = txn.first_lsn
    for record, twin, inverse in zip(data, twins, inverses):
        twin.prev_lsn, twin.lsn = prev, record.lsn
        prev = record.lsn
        assert field_by_field(record) == field_by_field(twin)
        assert field_by_field(record.inverse()) == field_by_field(inverse)
    txns.abort(txn)
    clrs = [r for r in log.all_records() if isinstance(r, CLRRecord)]
    prev = clrs[0].prev_lsn      # the abort record
    for clr, record, inverse in zip(clrs, reversed(data),
                                    reversed(inverses)):
        inverse.lsn = clr.lsn
        twin = CLRRecord(txn_id=txn.txn_id, prev_lsn=prev, lsn=clr.lsn,
                         action=inverse, undo_next_lsn=record.prev_lsn)
        prev = clr.lsn
        assert field_by_field(clr) == field_by_field(twin)
        assert field_by_field(clr.action) == field_by_field(inverse)


def test_catalog_records_equal_their_keyword_twins():
    # No checkpoint cadence: the first commit's would truncate the log.
    engine = DatabaseEngine(meter=Meter(CostModel(
        checkpoint_interval_seconds=0.0)))
    engine.execute("CREATE TABLE t (a INT)", EngineSession(session_id=1))
    record, = [r for r in engine.wal.all_records()
               if isinstance(r, CatalogRecord)]
    image = engine.catalog.image(engine.catalog.get_table("t"))
    twin = CatalogRecord(txn_id=record.txn_id, prev_lsn=record.prev_lsn,
                         lsn=record.lsn, kind="table", create=True, obj=image)
    assert field_by_field(record) == field_by_field(twin)
    assert field_by_field(record.inverse()) == field_by_field(CatalogRecord(
        txn_id=record.txn_id, kind="table", create=False, obj=image))


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
