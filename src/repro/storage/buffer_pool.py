"""Volatile LRU buffer pool.

The pool caches :class:`~repro.storage.page.Page` objects between the
engine and the :class:`~repro.storage.disk.SimulatedDisk`.  It is the
component that makes crashes interesting: dirty pages live here and are
*lost* on crash, so restart recovery must redo committed work from the
write-ahead log (no-force policy).  Dirty pages may also be flushed before
their transaction commits when evicted (steal policy), which is why undo
exists.

The WAL protocol is enforced at the flush point: before a dirty page is
written to disk, the log is forced up to that page's ``page_lsn``.

Pages of *volatile* files (temp tables, never-logged Phoenix scratch space)
are registered via :meth:`register_volatile`; they are never flushed and
never evicted, and simply vanish on crash.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.sim.costs import SERVER_DISK
from repro.sim.meter import Meter
from repro.storage.disk import SimulatedDisk
from repro.storage.page import Page


class BufferPool:
    """LRU page cache with steal/no-force semantics."""

    def __init__(self, disk: SimulatedDisk, meter: Meter | None = None,
                 capacity_pages: int = 4096, wal=None):
        if capacity_pages < 1:
            raise ValueError("buffer pool needs at least one frame")
        self._disk = disk
        self._meter = meter
        self._wal = wal
        self.capacity_pages = capacity_pages
        #: Durable frames only, in LRU order — eviction scans this directly.
        self._frames: OrderedDict[tuple[int, int], Page] = OrderedDict()
        #: Volatile frames (temp tables, Phoenix scratch): never flushed and
        #: never evicted, kept out of the LRU so eviction does not have to
        #: skip-scan past them.  They still occupy capacity.
        self._volatile_frames: dict[tuple[int, int], Page] = {}
        #: Dirty-page table: (file_id, page_no) -> recLSN, the LSN of the
        #: first record that dirtied the page since it was last clean
        #: (0 = unknown, conservatively "needs the log from the start").
        #: Fuzzy checkpoints log this table instead of flushing it.
        self._dirty: dict[tuple[int, int], int] = {}
        self._volatile_files: set[int] = set()
        self.hits = 0
        self.misses = 0

    def attach_wal(self, wal) -> None:
        """Late-bind the WAL (server wires storage and log together)."""
        self._wal = wal

    # -- volatility -------------------------------------------------------------

    def register_volatile(self, file_id: int) -> None:
        """Mark ``file_id`` as volatile: in-memory only, dies on crash."""
        self._volatile_files.add(file_id)
        for key in [k for k in self._frames if k[0] == file_id]:
            self._volatile_frames[key] = self._frames.pop(key)
            self._dirty.pop(key, None)

    def is_volatile(self, file_id: int) -> bool:
        return file_id in self._volatile_files

    # -- page access --------------------------------------------------------

    def get_page(self, file_id: int, page_no: int,
                 cost_factor: float = 1.0) -> Page | None:
        """Return the page, faulting it in from disk on a miss.

        Returns ``None`` if the page exists neither in the pool nor on
        disk.  ``cost_factor`` scales the charged I/O time (work
        amplification for base tables).
        """
        key = (file_id, page_no)
        if file_id in self._volatile_files:
            page = self._volatile_frames.get(key)
            if page is not None:
                self.hits += 1
                return page
            self.misses += 1
            return None
        page = self._frames.get(key)
        if page is not None:
            self.hits += 1
            self._frames.move_to_end(key)
            return page
        self.misses += 1
        image = self._disk.read_page(file_id, page_no)
        if image is None:
            return None
        assert isinstance(image, Page)
        page = image.clone()
        self._charge_io(self._read_cost(cost_factor))
        self._admit(key, page)
        return page

    def holds(self, file_id: int, page_no: int) -> bool:
        """Whether the page is resident (a lookup: nothing is charged)."""
        return (file_id, page_no) in self._frames

    def new_page(self, file_id: int, page_no: int, capacity: int) -> Page:
        """Allocate a fresh page in the pool (dirty, not yet on disk)."""
        key = (file_id, page_no)
        if key in self._frames or key in self._volatile_frames \
                or self._disk.has_page(file_id, page_no):
            raise ValueError(f"page {key} already exists")
        page = Page(page_no, capacity)
        self._admit(key, page)
        self.mark_dirty(file_id, page_no)
        return page

    def mark_dirty(self, file_id: int, page_no: int,
                   rec_lsn: int = 0) -> None:
        """Mark a resident page dirty, tracking its recLSN.

        ``rec_lsn`` is the LSN of the record responsible for this
        dirtying (0 = unknown).  The table keeps the *minimum* over all
        dirtyings since the page was last clean, with 0 as the
        conservative floor — an unknown recLSN pins redo (and blocks
        truncation) back to the start of the log, which is always safe.
        """
        key = (file_id, page_no)
        if file_id in self._volatile_files:
            if key not in self._volatile_frames:
                raise ValueError(f"page {key} is not resident")
            return
        if key not in self._frames:
            raise ValueError(f"page {key} is not resident")
        existing = self._dirty.get(key)
        if existing is None:
            self._dirty[key] = rec_lsn
        elif rec_lsn < existing:
            self._dirty[key] = rec_lsn

    def is_dirty(self, file_id: int, page_no: int) -> bool:
        return (file_id, page_no) in self._dirty

    # -- flushing ----------------------------------------------------------

    def flush_page(self, file_id: int, page_no: int,
                   cost_factor: float = 1.0) -> None:
        """Write one dirty page to disk (forcing the WAL first)."""
        key = (file_id, page_no)
        if key not in self._dirty:
            return
        page = self._frames[key]
        if self._wal is not None:
            self._wal.force(up_to_lsn=page.page_lsn, sync=False)
        self._disk.write_page(file_id, page_no, page.clone())
        self._charge_io(self._write_cost(cost_factor))
        self._dirty.pop(key, None)

    def flush_all(self, cost_factor: float = 1.0) -> int:
        """Flush every dirty page (sharp checkpoint); returns count."""
        keys = sorted(self._dirty)
        for file_id, page_no in keys:
            self.flush_page(file_id, page_no, cost_factor)
        return len(keys)

    def flush_dirtied_before(self, lsn: int,
                             cost_factor: float = 1.0) -> int:
        """Background flusher: flush pages whose recLSN precedes ``lsn``.

        The fuzzy checkpointer calls this with the *previous* checkpoint's
        Begin LSN, so every page that has stayed dirty for a whole
        checkpoint interval reaches disk and the dirty-page table's
        minimum recLSN keeps advancing — which is what lets the log
        truncate.  Pages dirtied after ``lsn`` (the hot set) stay dirty.
        """
        keys = sorted(k for k, rec in self._dirty.items() if rec < lsn)
        for file_id, page_no in keys:
            self.flush_page(file_id, page_no, cost_factor)
        return len(keys)

    def flush_files_except(self, file_ids,
                           cost_factor: float = 1.0) -> int:
        """Flush every dirty page of a file not in ``file_ids``; returns
        the count."""
        keys = sorted(k for k in self._dirty if k[0] not in file_ids)
        for file_id, page_no in keys:
            self.flush_page(file_id, page_no, cost_factor)
        return len(keys)

    def dirty_page_table(self) -> dict[tuple[int, int], int]:
        """Snapshot of the dirty-page table ((file, page) -> recLSN)."""
        return dict(self._dirty)

    def min_rec_lsn(self) -> int | None:
        """Smallest recLSN across dirty pages (None when nothing dirty)."""
        if not self._dirty:
            return None
        return min(self._dirty.values())

    # -- lifecycle -----------------------------------------------------------

    def drop_file(self, file_id: int) -> None:
        """Forget all cached pages of a dropped file."""
        for key in [k for k in self._frames if k[0] == file_id]:
            del self._frames[key]
            self._dirty.pop(key, None)
        for key in [k for k in self._volatile_frames if k[0] == file_id]:
            del self._volatile_frames[key]
        self._volatile_files.discard(file_id)

    def crash(self) -> None:
        """Lose everything volatile (called by the server on crash)."""
        self._frames.clear()
        self._volatile_frames.clear()
        self._dirty.clear()
        self._volatile_files.clear()

    @property
    def resident_pages(self) -> int:
        return len(self._frames) + len(self._volatile_frames)

    @property
    def dirty_pages(self) -> int:
        return len(self._dirty)

    # -- internals -----------------------------------------------------------

    def _admit(self, key: tuple[int, int], page: Page) -> None:
        # Volatile pages count toward capacity (they occupy real frames),
        # so admissions of either kind apply the same eviction pressure.
        while len(self._frames) + len(self._volatile_frames) \
                >= self.capacity_pages:
            if not self._evict_one():
                break  # everything pinned/volatile; allow overflow
        if key[0] in self._volatile_files:
            self._volatile_frames[key] = page
        else:
            self._frames[key] = page
            self._frames.move_to_end(key)

    def _evict_one(self) -> bool:
        """Evict the least-recently-used durable page (O(1): volatile
        frames live in their own dict and are never candidates)."""
        for key in self._frames:
            if key in self._dirty:
                self.flush_page(*key)
            del self._frames[key]
            return True
        return False

    def _charge_io(self, seconds: float) -> None:
        if self._meter is not None:
            self._meter.charge_batched(SERVER_DISK, seconds, "page io")
            self._meter.count("disk_io")

    def _read_cost(self, cost_factor: float) -> float:
        costs = self._meter.costs if self._meter else None
        return (costs.disk_page_read_seconds * cost_factor) if costs else 0.0

    def _write_cost(self, cost_factor: float) -> float:
        costs = self._meter.costs if self._meter else None
        return (costs.disk_page_write_seconds * cost_factor) if costs else 0.0
