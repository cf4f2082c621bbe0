"""Heap files: unordered row storage over slotted pages.

A :class:`HeapFile` owns the pages of one table (identified by
``file_id``) and goes through the buffer pool for every page touch, so all
I/O costs and crash semantics come from the pool.  Pages are numbered
``0..page_count-1``; row addresses are :class:`RowId` triples.

The heap does not write log records — that is the transaction manager's
job (it logs *before* asking the heap to change anything, then stamps the
page LSN through :meth:`apply_insert` / :meth:`apply_delete` /
:meth:`apply_update`, which are also the entry points redo and undo use).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.storage.buffer_pool import BufferPool
from repro.storage.page import Page


@dataclass(frozen=True, order=True, slots=True)
class RowId:
    """Physical row address: file, page, slot.  Slotted: every index
    entry holds one, and a tree build makes one per row."""

    file_id: int
    page_no: int
    slot: int


class HeapFile:
    """Row storage for one table."""

    def __init__(self, file_id: int, rows_per_page: int,
                 buffer_pool: BufferPool, cost_factor: float = 1.0):
        if rows_per_page < 1:
            raise ValueError("rows_per_page must be at least 1")
        self.file_id = file_id
        self.rows_per_page = rows_per_page
        self._pool = buffer_pool
        self.cost_factor = cost_factor
        self.page_count = 0
        self._pages_with_space: set[int] = set()

    @classmethod
    def attach(cls, file_id: int, rows_per_page: int,
               buffer_pool: BufferPool, disk,
               cost_factor: float = 1.0) -> "HeapFile":
        """Re-open an existing heap after restart, discovering its pages."""
        heap = cls(file_id, rows_per_page, buffer_pool, cost_factor)
        page_nos = disk.file_page_numbers(file_id)
        heap.page_count = (max(page_nos) + 1) if page_nos else 0
        # Newer pages may be resident only, never written yet: the heap
        # of a table whose DROP was rolled back is attached afresh.
        while buffer_pool.holds(file_id, heap.page_count):
            page_nos.append(heap.page_count)
            heap.page_count += 1
        for page_no in page_nos:
            page = buffer_pool.get_page(file_id, page_no, cost_factor)
            if page is not None and page.has_empty_slot():
                heap._pages_with_space.add(page_no)
        return heap

    # -- normal operations (used via the transaction manager) -----------------

    def page_for_insert(self, owner: int, live, passed: set[int] | None = None
                        ) -> tuple[int, Page, list[int]]:
        """The page a row of transaction ``owner`` goes to and the slots
        it hands out there (:meth:`Page.open_slots`; ``live``: the ids of
        the active transactions): the lowest-numbered page with a slot
        it may take, else a fresh one.  One pool access per call, bar
        pages whose empty slots other live transactions hold: those are
        passed over, stay candidates, and go into ``passed`` — the
        statement's set of such pages, which no later call asks the pool
        for again (no transaction ends while a statement runs).  The
        bulk insert path fills the page it gets and reports back through
        :meth:`stamp_filled`."""
        candidates = self._pages_with_space
        if passed is None:
            passed = set()
        while True:
            open_pages = candidates - passed if passed else candidates
            if not open_pages:
                page_no = self.page_count
                page = self._page(page_no, create=True)
                return page_no, page, page.open_slots(owner, live)
            page_no = min(open_pages)
            page = self._page(page_no, create=False)
            if page is not None:
                slots = page.open_slots(owner, live)
                if slots:
                    return page_no, page, slots
                if page.has_empty_slot():
                    passed.add(page_no)
                    continue
            candidates.discard(page_no)

    def stamp_filled(self, page_no: int, page: Page, first_lsn: int,
                     last_lsn: int) -> None:
        """Book a run of logged inserts into ``page`` (records
        ``first_lsn..last_lsn``, 0 when unlogged) as one page change."""
        if last_lsn > page.page_lsn:
            page.page_lsn = last_lsn
        self._pool.mark_dirty(self.file_id, page_no, rec_lsn=first_lsn)
        if not page.has_empty_slot():
            self._pages_with_space.discard(page_no)

    def apply_insert(self, rid: RowId, row: tuple, lsn: int = 0) -> None:
        """Insert ``row`` at ``rid`` and stamp the page LSN (redo-safe)."""
        page = self._page(rid.page_no, create=True)
        page.insert_at(rid.slot, row)
        self._stamp(page, rid.page_no, lsn)

    def apply_delete(self, rid: RowId, lsn: int = 0, owner: int = 0) -> tuple:
        """Delete the row at ``rid``, reserving its slot for transaction
        ``owner`` (0: none) until that transaction ends."""
        page = self._require_page(rid.page_no)
        row = page.delete(rid.slot, owner)
        self._stamp(page, rid.page_no, lsn)
        self._pages_with_space.add(rid.page_no)
        return row

    def apply_update(self, rid: RowId, row: tuple, lsn: int = 0) -> tuple:
        page = self._require_page(rid.page_no)
        old = page.update(rid.slot, row)
        self._stamp(page, rid.page_no, lsn)
        return old

    def read(self, rid: RowId) -> tuple | None:
        """Return the row at ``rid`` or ``None`` if the slot is empty."""
        if rid.file_id != self.file_id:
            raise ValueError("row id belongs to a different file")
        if rid.page_no >= self.page_count:
            return None
        page = self._pool.get_page(self.file_id, rid.page_no, self.cost_factor)
        if page is None:
            return None
        return page.read(rid.slot)

    def page_lsn(self, page_no: int) -> int:
        """Page LSN for redo decisions (0 for pages that do not exist yet)."""
        if page_no >= self.page_count:
            return 0
        page = self._pool.get_page(self.file_id, page_no, self.cost_factor)
        return page.page_lsn if page is not None else 0

    def scan(self):
        """Yield ``(RowId, row)`` for every live row, page order.  Each
        page's rows are taken as one snapshot when the page is reached,
        as a scan batch is, whatever DML runs while the reader pauses."""
        file_id = self.file_id
        for page_no, page in self.scan_pages():
            yield from [(RowId(file_id, page_no, slot), row)
                        for slot, row in page.rows()]

    def scan_pages(self):
        """Yield ``(page_no, page)`` for every resident page, page order.

        The one page iterator.  A reader that only needs rows takes
        ``page.live()``; one that needs addresses builds them from the
        page number and ``page.rows()``'s slots.  The batch executor
        consumes a page as one batch, so its batch boundaries coincide
        with page-fault boundaries — any disk charge the pool makes
        happens at exactly the same consumption point as under
        row-at-a-time iteration.
        """
        file_id = self.file_id
        for page_no in range(self.page_count):
            page = self._pool.get_page(file_id, page_no, self.cost_factor)
            if page is not None:
                yield page_no, page

    def count_rows(self) -> int:
        return sum(page.live_rows for _page_no, page in self.scan_pages())

    # -- internals -----------------------------------------------------------

    def _page(self, page_no: int, create: bool) -> Page | None:
        if page_no < self.page_count:
            page = self._pool.get_page(self.file_id, page_no, self.cost_factor)
            if page is not None:
                return page
            if not create:
                return None
            # Page was allocated before a crash but never flushed; redo is
            # recreating it now.
            page = self._pool.new_page(self.file_id, page_no, self.rows_per_page)
            self._pages_with_space.add(page_no)
            return page
        if not create:
            return None
        page = self._pool.new_page(self.file_id, page_no, self.rows_per_page)
        self.page_count = page_no + 1
        self._pages_with_space.add(page_no)
        return page

    def _require_page(self, page_no: int) -> Page:
        page = self._page(page_no, create=False)
        if page is None:
            raise ValueError(
                f"file {self.file_id} page {page_no} does not exist")
        return page

    def _stamp(self, page: Page, page_no: int, lsn: int) -> None:
        if lsn:
            page.page_lsn = max(page.page_lsn, lsn)
        self._pool.mark_dirty(self.file_id, page_no, rec_lsn=lsn)
        if not page.has_empty_slot():
            self._pages_with_space.discard(page_no)
