"""Slotted pages of rows.

A :class:`Page` holds up to ``capacity`` row tuples in slots.  Deleted
slots hold ``None`` and can be reused.  Each page carries the LSN of the
last logged change applied to it (``page_lsn``) so redo during restart
recovery is idempotent: a log record is only replayed onto a page whose
``page_lsn`` is older than the record's LSN (ARIES rule).
"""

from __future__ import annotations


class Page:
    """One slotted page: a fixed number of row slots plus a page LSN."""

    __slots__ = ("page_no", "capacity", "slots", "free_slots", "page_lsn")

    def __init__(self, page_no: int, capacity: int):
        if capacity < 1:
            raise ValueError("page capacity must be at least 1")
        self.page_no = page_no
        self.capacity = capacity
        self.slots: list[tuple | None] = []
        self.free_slots: list[int] = []  # reusable holes, LIFO
        self.page_lsn = 0

    # -- row operations --------------------------------------------------------

    @property
    def live_rows(self) -> int:
        return len(self.slots) - len(self.free_slots)

    def has_space(self) -> bool:
        return bool(self.free_slots) or len(self.slots) < self.capacity

    def next_slot(self) -> int:
        """The slot :meth:`insert` would use (the page must have space)."""
        return self.free_slots[-1] if self.free_slots else len(self.slots)

    def insert(self, row: tuple) -> int:
        """Place ``row`` in a free slot; returns the slot number."""
        if self.free_slots:
            slot = self.free_slots.pop()
            self.slots[slot] = row
            return slot
        if len(self.slots) >= self.capacity:
            raise ValueError(f"page {self.page_no} is full")
        self.slots.append(row)
        return len(self.slots) - 1

    def insert_at(self, slot: int, row: tuple) -> None:
        """Place ``row`` in a specific slot (used by redo/undo)."""
        while len(self.slots) <= slot:
            self.slots.append(None)
            self.free_slots.append(len(self.slots) - 1)
        if self.slots[slot] is None and slot in self.free_slots:
            self.free_slots.remove(slot)
        self.slots[slot] = row

    def read(self, slot: int) -> tuple | None:
        if 0 <= slot < len(self.slots):
            return self.slots[slot]
        return None

    def delete(self, slot: int) -> tuple:
        """Remove and return the row in ``slot``."""
        row = self.read(slot)
        if row is None:
            raise ValueError(f"page {self.page_no} slot {slot} is empty")
        self.slots[slot] = None
        self.free_slots.append(slot)
        return row

    def update(self, slot: int, row: tuple) -> tuple:
        """Replace the row in ``slot``; returns the previous row."""
        old = self.read(slot)
        if old is None:
            raise ValueError(f"page {self.page_no} slot {slot} is empty")
        self.slots[slot] = row
        return old

    def live(self) -> list[tuple]:
        """The live rows in slot order, as a new list (a page-sized scan
        batch: no slot numbers, no copies of the rows).  Every empty
        slot is on ``free_slots``, so a page without holes is its slot
        list."""
        if self.free_slots:
            return [row for row in self.slots if row is not None]
        return self.slots[:]

    def rows(self):
        """Yield ``(slot, row)`` for every live row in slot order."""
        for slot, row in enumerate(self.slots):
            if row is not None:
                yield slot, row

    # -- copying -----------------------------------------------------------

    def clone(self) -> "Page":
        """Cheap copy: slot list is copied, row tuples are shared."""
        other = Page(self.page_no, self.capacity)
        other.slots = list(self.slots)
        other.free_slots = list(self.free_slots)
        other.page_lsn = self.page_lsn
        return other

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Page(no={self.page_no}, live={self.live_rows}/"
                f"{self.capacity}, lsn={self.page_lsn})")
