"""Tests for slotted pages and heap files."""

import pytest

from repro.sim.meter import Meter
from repro.storage.buffer_pool import BufferPool
from repro.storage.disk import SimulatedDisk
from repro.storage.heap import HeapFile, RowId
from repro.storage.page import Page
from tests.insert_oracle import find_insert_target


def put(page, row):
    """Place one row as the insert path does: in the first slot the
    page hands out."""
    slots = page.open_slots(0, ())[:1]
    page.fill(slots, [row])
    return slots[0]


class TestPage:
    def test_insert_and_read(self):
        page = Page(0, capacity=4)
        slot = put(page, ("a", 1))
        assert page.read(slot) == ("a", 1)

    def test_capacity_enforced(self):
        page = Page(0, capacity=2)
        put(page, (1,))
        put(page, (2,))
        assert not page.has_empty_slot()
        assert page.open_slots(0, ()) == []

    def test_delete_frees_slot_for_reuse(self):
        page = Page(0, capacity=2)
        slot = put(page, (1,))
        put(page, (2,))
        page.delete(slot)
        assert page.has_empty_slot()
        new_slot = put(page, (3,))
        assert new_slot == slot
        assert page.live_rows == 2

    def test_delete_empty_slot_raises(self):
        page = Page(0, capacity=2)
        with pytest.raises(ValueError):
            page.delete(0)

    def test_update_returns_old_row(self):
        page = Page(0, capacity=2)
        slot = put(page, (1,))
        assert page.update(slot, (2,)) == (1,)
        assert page.read(slot) == (2,)

    def test_insert_at_specific_slot(self):
        page = Page(0, capacity=8)
        page.insert_at(5, ("x",))
        assert page.read(5) == ("x",)
        # Intermediate slots are free and reusable.
        assert page.has_empty_slot()
        assert page.live_rows == 1

    def test_rows_iterates_live_only(self):
        page = Page(0, capacity=4)
        a = put(page, (1,))
        put(page, (2,))
        page.delete(a)
        assert [row for _slot, row in page.rows()] == [(2,)]

    def test_live_is_a_snapshot_of_the_live_rows(self):
        page = Page(0, capacity=8)
        for value in range(3):
            put(page, (value,))
        whole = page.live()
        assert whole == [(0,), (1,), (2,)] and whole is not page.slots
        page.delete(1)
        page.insert_at(5, (5,))          # slots 3 and 4 become holes
        assert page.live() == [row for _slot, row in page.rows()] \
            == [(0,), (2,), (5,)]
        assert page.live_rows == 3
        assert whole == [(0,), (1,), (2,)]   # taken before the changes

    def test_clone_is_independent(self):
        page = Page(0, capacity=4)
        put(page, (1,))
        clone = page.clone()
        put(clone, (2,))
        assert page.live_rows == 1
        assert clone.live_rows == 2

    def test_a_deleted_slot_is_its_deleters_while_it_lives(self):
        page = Page(0, capacity=2)
        put(page, (1,))
        put(page, (2,))
        page.delete(0, owner=7)              # transaction 7 deletes
        image = page.clone()                 # what the flusher writes
        for copy in (page, image):
            assert copy.has_empty_slot()
            assert copy.open_slots(owner=8, live={7}) == []
            assert copy.open_slots(owner=7, live={7}) == [0]
        page.insert_at(0, (1,))              # 7 aborts: undo puts it back
        assert not page.reserved and page.free_slots == []
        # 7 has ended: the image's first look drops the reservation.
        assert image.open_slots(owner=8, live=()) == [0]
        assert image.reserved is None

    def test_a_run_takes_the_slots_successive_rows_would(self):
        page = Page(0, capacity=6)
        for value in range(4):
            put(page, (value,))
        page.delete(1, owner=7)
        page.delete(3)
        page.delete(0, owner=8)
        # Transaction 8: its own slot 0 and the free slot 3, most
        # recently emptied first, then the unused 4 and 5; 7 holds 1.
        slots = page.open_slots(owner=8, live={7, 8})
        assert slots == [0, 3, 4, 5]
        page.fill(slots[:3], [("a",), ("b",), ("c",)])
        assert page.slots == [("a",), None, (2,), ("b",), ("c",)]
        assert page.free_slots == [1]
        assert page.open_slots(owner=8, live={7, 8}) == [5]

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            Page(0, capacity=0)


@pytest.fixture
def pool():
    return BufferPool(SimulatedDisk(), Meter())


class TestHeapFile:
    def test_insert_read_roundtrip(self, pool):
        heap = HeapFile(1, rows_per_page=4, buffer_pool=pool)
        rid = find_insert_target(heap)
        heap.apply_insert(rid, ("hello", 42))
        assert heap.read(rid) == ("hello", 42)

    def test_rows_spill_to_new_pages(self, pool):
        heap = HeapFile(1, rows_per_page=2, buffer_pool=pool)
        for i in range(5):
            rid = find_insert_target(heap)
            heap.apply_insert(rid, (i,))
        assert heap.page_count == 3
        assert heap.count_rows() == 5

    def test_scan_returns_all_live_rows(self, pool):
        heap = HeapFile(1, rows_per_page=3, buffer_pool=pool)
        rids = []
        for i in range(7):
            rid = find_insert_target(heap)
            heap.apply_insert(rid, (i,))
            rids.append(rid)
        heap.apply_delete(rids[2])
        heap.apply_delete(rids[5])
        values = sorted(row[0] for _rid, row in heap.scan())
        assert values == [0, 1, 3, 4, 6]

    def test_deleted_slot_reused(self, pool):
        heap = HeapFile(1, rows_per_page=2, buffer_pool=pool)
        rid0 = find_insert_target(heap)
        heap.apply_insert(rid0, (0,))
        rid1 = find_insert_target(heap)
        heap.apply_insert(rid1, (1,))
        heap.apply_delete(rid0)
        rid2 = find_insert_target(heap)
        heap.apply_insert(rid2, (2,))
        assert rid2 == rid0
        assert heap.page_count == 1

    def test_a_page_held_by_a_live_deleter_is_passed_over(self, pool):
        heap = HeapFile(1, rows_per_page=2, buffer_pool=pool)
        for i in range(3):
            heap.apply_insert(find_insert_target(heap), (i,))
        heap.apply_delete(RowId(1, 0, 0), owner=7)
        # Page 0's one empty slot is 7's: another transaction's row goes
        # to page 1, and page 0 stays a candidate.
        assert heap.page_for_insert(8, {7})[0] == 1
        assert heap.page_for_insert(7, {7})[0] == 0
        assert heap.page_for_insert(8, ())[0] == 0   # 7 has ended

    def test_update_in_place(self, pool):
        heap = HeapFile(1, rows_per_page=4, buffer_pool=pool)
        rid = find_insert_target(heap)
        heap.apply_insert(rid, ("old",))
        old = heap.apply_update(rid, ("new",))
        assert old == ("old",)
        assert heap.read(rid) == ("new",)

    def test_read_missing_returns_none(self, pool):
        heap = HeapFile(1, rows_per_page=4, buffer_pool=pool)
        assert heap.read(RowId(1, 0, 0)) is None
        assert heap.read(RowId(1, 99, 0)) is None

    def test_read_wrong_file_raises(self, pool):
        heap = HeapFile(1, rows_per_page=4, buffer_pool=pool)
        with pytest.raises(ValueError):
            heap.read(RowId(2, 0, 0))

    def test_page_lsn_stamped(self, pool):
        heap = HeapFile(1, rows_per_page=4, buffer_pool=pool)
        rid = find_insert_target(heap)
        heap.apply_insert(rid, (1,), lsn=17)
        assert heap.page_lsn(rid.page_no) == 17
        heap.apply_update(rid, (2,), lsn=20)
        assert heap.page_lsn(rid.page_no) == 20
        # LSNs never move backwards.
        heap.apply_delete(rid, lsn=5)
        assert heap.page_lsn(rid.page_no) == 20

    def test_attach_rediscovers_pages(self, pool):
        disk = SimulatedDisk()
        pool = BufferPool(disk, Meter())
        heap = HeapFile(7, rows_per_page=2, buffer_pool=pool)
        for i in range(5):
            rid = find_insert_target(heap)
            heap.apply_insert(rid, (i,))
        pool.flush_all()
        # Re-attach through a fresh pool, as restart does.
        pool2 = BufferPool(disk, Meter())
        heap2 = HeapFile.attach(7, 2, pool2, disk)
        assert heap2.page_count == 3
        assert heap2.count_rows() == 5
        # New inserts go into the partially-filled last page.
        rid = find_insert_target(heap2)
        heap2.apply_insert(rid, (99,))
        assert heap2.page_count == 3
