"""The simulated durable medium.

``SimulatedDisk`` is the only component whose contents survive a server
crash.  It stores page images per file (``file_id -> {page_no: image}``)
plus named blobs (the catalog snapshot, the statistics written at
ANALYZE time, the DML-version base; the WAL keeps its own durable
tail).  The disk holds live state only, never history: log truncation
keeps none of the records it drops, just the base's fold of them.  All
I/O *timing* is charged by the buffer pool / WAL, not here; the disk
itself only counts operations so tests can assert physical behaviour.

Ownership contract — one rule for pages and blobs: the disk stores the
exact object it is given and returns the exact object it stored, and it
never copies.  A writer *transfers ownership*: what it hands over must
alias no state it will mutate later.  A reader *borrows*: it must build
its own structures from what it reads and never mutate the stored
object.  The clients keep their side of the rule where the data is
produced, which is far cheaper than a generic deep copy here:

* the buffer pool — the only page client — clones pages on both sides of
  the boundary (:meth:`~repro.storage.page.Page.clone` is cheap because
  row tuples are immutable);
* :meth:`Catalog.snapshot <repro.storage.catalog.Catalog.snapshot>`
  builds fresh plain-data object images and
  :meth:`Catalog.restore <repro.storage.catalog.Catalog.restore>` builds
  fresh catalog objects from them, through the same
  :meth:`~repro.storage.catalog.Catalog.apply` that DDL, redo and undo
  run;
* :meth:`DmlVersionFold.snapshot
  <repro.engine.dml_versions.DmlVersionFold.snapshot>` builds fresh
  plain data for the DML-version base and
  :meth:`~repro.engine.dml_versions.DmlVersionFold.restore` builds
  fresh fold state from it.

So a post-crash read can never observe in-memory mutation that was not
explicitly written back.

Crash semantics: :class:`~repro.server.server.DatabaseServer` discards
every volatile structure (buffer pool, sessions, temp tables) but keeps the
``SimulatedDisk`` instance — exactly like a machine whose power was cut.
"""

from __future__ import annotations


class SimulatedDisk:
    """Durable page and blob store."""

    def __init__(self):
        self._files: dict[int, dict[int, object]] = {}
        self._blobs: dict[str, object] = {}
        self.page_reads = 0
        self.page_writes = 0

    # -- pages ---------------------------------------------------------------

    def write_page(self, file_id: int, page_no: int, image: object) -> None:
        """Durably store ``image`` (caller transfers ownership)."""
        pages = self._files.get(file_id)
        if pages is None:
            pages = self._files[file_id] = {}
        pages[page_no] = image
        self.page_writes += 1

    def read_page(self, file_id: int, page_no: int) -> object:
        """Return the stored image (caller must clone before mutating)."""
        self.page_reads += 1
        pages = self._files.get(file_id)
        return pages.get(page_no) if pages else None

    def has_page(self, file_id: int, page_no: int) -> bool:
        return page_no in self._files.get(file_id, ())

    def drop_file(self, file_id: int) -> int:
        """Remove every page of ``file_id``; returns how many were dropped."""
        return len(self._files.pop(file_id, ()))

    def file_page_numbers(self, file_id: int) -> list[int]:
        """Sorted page numbers currently stored for ``file_id``."""
        return sorted(self._files.get(file_id, ()))

    # -- blobs (catalog snapshots etc.) ---------------------------------------

    def write_blob(self, name: str, value: object) -> None:
        """Durably store ``value`` under ``name`` (caller transfers
        ownership: ``value`` must alias no live mutable state)."""
        self._blobs[name] = value

    def read_blob(self, name: str, default=None):
        """Return the stored object (caller must not mutate it)."""
        return self._blobs.get(name, default)

    def has_blob(self, name: str) -> bool:
        return name in self._blobs

    def delete_blob(self, name: str) -> None:
        self._blobs.pop(name, None)
