"""Tests for the buffer pool: caching, eviction, crash, WAL interplay."""

import pytest

from repro.sim.costs import SERVER_DISK
from repro.sim.meter import Meter
from repro.storage.buffer_pool import BufferPool
from repro.storage.disk import SimulatedDisk
from repro.storage.page import Page


@pytest.fixture
def disk():
    return SimulatedDisk()


@pytest.fixture
def meter():
    return Meter()


class TestBufferPool:
    def test_new_page_is_dirty_and_resident(self, disk, meter):
        pool = BufferPool(disk, meter)
        pool.new_page(1, 0, capacity=4)
        assert pool.is_dirty(1, 0)
        assert pool.resident_pages == 1
        assert not disk.has_page(1, 0)

    def test_duplicate_new_page_rejected(self, disk, meter):
        pool = BufferPool(disk, meter)
        pool.new_page(1, 0, capacity=4)
        with pytest.raises(ValueError):
            pool.new_page(1, 0, capacity=4)

    def test_flush_writes_to_disk(self, disk, meter):
        pool = BufferPool(disk, meter)
        page = pool.new_page(1, 0, capacity=4)
        page.insert(("x",), 0, ())
        pool.flush_page(1, 0)
        assert disk.has_page(1, 0)
        assert not pool.is_dirty(1, 0)

    def test_get_page_faults_from_disk_and_charges(self, disk, meter):
        pool = BufferPool(disk, meter)
        page = pool.new_page(1, 0, capacity=4)
        page.insert(("x",), 0, ())
        pool.flush_all()
        pool.crash()
        before = meter.now
        fetched = pool.get_page(1, 0)
        assert fetched.read(0) == ("x",)
        assert meter.now > before  # read I/O charged
        # Second access is a hit: no extra I/O.
        at_hit = meter.now
        pool.get_page(1, 0)
        assert meter.now == at_hit

    def test_get_missing_page_returns_none(self, disk, meter):
        pool = BufferPool(disk, meter)
        assert pool.get_page(9, 9) is None

    def test_crash_loses_dirty_pages(self, disk, meter):
        pool = BufferPool(disk, meter)
        page = pool.new_page(1, 0, capacity=4)
        page.insert(("lost",), 0, ())
        pool.crash()
        assert pool.get_page(1, 0) is None

    def test_crash_keeps_flushed_pages_on_disk(self, disk, meter):
        pool = BufferPool(disk, meter)
        page = pool.new_page(1, 0, capacity=4)
        page.insert(("kept",), 0, ())
        pool.flush_all()
        page.insert(("lost",), 0, ())  # dirty again, not flushed
        pool.mark_dirty(1, 0)
        pool.crash()
        refetched = pool.get_page(1, 0)
        assert refetched.live_rows == 1
        assert refetched.read(0) == ("kept",)

    def test_eviction_respects_capacity(self, disk, meter):
        pool = BufferPool(disk, meter, capacity_pages=3)
        for i in range(5):
            pool.new_page(1, i, capacity=4)
        assert pool.resident_pages <= 3
        # Evicted dirty pages were flushed, not lost.
        evicted = [i for i in range(5) if disk.has_page(1, i)]
        assert len(evicted) >= 2

    def test_volatile_pages_never_flushed_or_evicted(self, disk, meter):
        pool = BufferPool(disk, meter, capacity_pages=2)
        pool.register_volatile(99)
        pool.new_page(99, 0, capacity=4)
        for i in range(4):
            pool.new_page(1, i, capacity=4)
        assert pool.get_page(99, 0) is not None
        pool.flush_all()
        assert not disk.has_page(99, 0)

    def test_volatile_pages_vanish_on_crash(self, disk, meter):
        pool = BufferPool(disk, meter)
        pool.register_volatile(99)
        pool.new_page(99, 0, capacity=4)
        pool.crash()
        assert pool.get_page(99, 0) is None

    def test_volatile_frames_stay_out_of_the_lru(self, disk, meter):
        # The eviction scan must never walk volatile frames: they live
        # in their own dict, so the durable LRU holds only candidates.
        pool = BufferPool(disk, meter, capacity_pages=8)
        pool.register_volatile(99)
        for i in range(6):
            pool.new_page(99, i, capacity=4)
        pool.new_page(1, 0, capacity=4)
        assert all(key[0] != 99 for key in pool._frames)
        assert pool.resident_pages == 7
        # Filling past capacity evicts the durable page even though the
        # volatile majority is unevictable.
        pool.new_page(1, 1, capacity=4)
        pool.new_page(1, 2, capacity=4)
        assert disk.has_page(1, 0)
        assert pool.get_page(99, 3) is not None

    def test_drop_file_forgets_pages(self, disk, meter):
        pool = BufferPool(disk, meter)
        pool.new_page(1, 0, capacity=4)
        pool.drop_file(1)
        assert pool.resident_pages == 0
        assert pool.dirty_pages == 0

    def test_wal_forced_before_flush(self, disk, meter):
        forced = []

        class FakeWal:
            def force(self, up_to_lsn=None, sync=True):
                forced.append((up_to_lsn, sync))

        pool = BufferPool(disk, meter, wal=FakeWal())
        page = pool.new_page(1, 0, capacity=4)
        page.insert(("x",), 0, ())
        page.page_lsn = 42
        pool.flush_page(1, 0)
        # WAL-rule flushes are write-behind (no synchronous force).
        assert forced == [(42, False)]

    def test_flush_charges_disk_time(self, disk, meter):
        pool = BufferPool(disk, meter)
        pool.new_page(1, 0, capacity=4)
        before = meter.now
        pool.flush_all()
        assert meter.now - before == pytest.approx(
            meter.costs.disk_page_write_seconds)

    def test_cost_factor_scales_io(self, disk, meter):
        pool = BufferPool(disk, meter)
        page = pool.new_page(1, 0, capacity=4)
        page.insert(("x",), 0, ())
        pool.flush_all()
        pool.crash()
        before = meter.now
        pool.get_page(1, 0, cost_factor=10.0)
        assert meter.now - before == pytest.approx(
            10.0 * meter.costs.disk_page_read_seconds)

    def test_disk_isolation_from_pool_mutation(self, disk, meter):
        """Mutating a resident page must not leak to disk without flush."""
        pool = BufferPool(disk, meter)
        page = pool.new_page(1, 0, capacity=4)
        page.insert(("v1",), 0, ())
        pool.flush_all()
        page.update(0, ("v2",))
        pool.mark_dirty(1, 0)
        pool.crash()
        assert pool.get_page(1, 0).read(0) == ("v1",)

    def test_zero_capacity_rejected(self, disk, meter):
        with pytest.raises(ValueError):
            BufferPool(disk, meter, capacity_pages=0)

    def test_mark_dirty_nonresident_raises(self, disk, meter):
        pool = BufferPool(disk, meter)
        with pytest.raises(ValueError):
            pool.mark_dirty(1, 0)


class TestSimulatedDiskFiles:
    """Pages are keyed per file, so per-file operations never look at
    another file's pages."""

    def test_per_file_listing_and_drop(self, disk):
        for page_no in (3, 0, 7):
            disk.write_page(1, page_no, f"f1p{page_no}")
        disk.write_page(2, 5, "f2p5")
        assert disk.file_page_numbers(1) == [0, 3, 7]
        assert disk.file_page_numbers(2) == [5]
        assert disk.file_page_numbers(9) == []
        assert disk.has_page(1, 3) and not disk.has_page(1, 5)
        assert not disk.has_page(9, 0)
        assert disk.drop_file(1) == 3
        assert disk.drop_file(1) == 0
        assert disk.file_page_numbers(1) == []
        assert disk.read_page(1, 3) is None
        assert disk.read_page(2, 5) == "f2p5"
        # Only page I/O counts; listing and dropping are metadata.
        assert disk.page_writes == 4
        assert disk.page_reads == 2
