"""Slotted pages of rows.

A :class:`Page` holds up to ``capacity`` row tuples in slots.  Deleted
slots hold ``None`` and can be reused.  Each page carries the LSN of the
last logged change applied to it (``page_lsn``) so redo during restart
recovery is idempotent: a log record is only replayed onto a page whose
``page_lsn`` is older than the record's LSN (ARIES rule).

A slot a transaction's DELETE emptied is *reserved* for that
transaction until it ends (ARIES space reservation, Mohan et al.):
another transaction's row may not take it, so an abort can put the
deleted row back without overwriting anyone's.  ``reserved`` maps such a
slot to its deleter's transaction id, and the copy the flusher writes
carries it.  A reservation ends with its holder — committed, aborted,
or gone with a crash — and transaction ids are never reused, so the
first insert that looks at the page after that drops it.
"""

from __future__ import annotations


class Page:
    """One slotted page: a fixed number of row slots plus a page LSN."""

    __slots__ = ("page_no", "capacity", "slots", "free_slots", "page_lsn",
                 "reserved")

    def __init__(self, page_no: int, capacity: int):
        if capacity < 1:
            raise ValueError("page capacity must be at least 1")
        self.page_no = page_no
        self.capacity = capacity
        self.slots: list[tuple | None] = []
        self.free_slots: list[int] = []  # empty slots, LIFO
        self.page_lsn = 0
        #: slot -> id of the transaction whose DELETE emptied it (None
        #: until the first logged delete: most pages never have one).
        self.reserved: dict[int, int] | None = None

    # -- row operations --------------------------------------------------------

    @property
    def live_rows(self) -> int:
        return len(self.slots) - len(self.free_slots)

    def has_empty_slot(self) -> bool:
        """Whether any slot is empty or still unused, reserved or not
        (the heap's free-space bookkeeping)."""
        return bool(self.free_slots) or len(self.slots) < self.capacity

    def _held_by_others(self, owner: int, live) -> set[int]:
        """The empty slots reserved for a live transaction other than
        ``owner`` (``live``: the ids of the active ones).  Reservations
        whose holder is no longer live are dropped on the way, so a page
        goes back to the plain path once its deleters have ended."""
        held = set()
        for slot, holder in list(self.reserved.items()):
            if holder not in live:
                del self.reserved[slot]
            elif holder != owner and self.slots[slot] is None:
                held.add(slot)
        if not self.reserved:
            self.reserved = None
        return held

    def open_slots(self, owner: int, live) -> list[int]:
        """The slots successive rows of transaction ``owner`` take, in
        order: the empty slots no other live transaction holds, most
        recently emptied first, then the unused ones.  Its length is how
        many rows the page still takes."""
        if self.reserved:
            held = self._held_by_others(owner, live)
            reuse = [slot for slot in reversed(self.free_slots)
                     if slot not in held]
        else:
            reuse = self.free_slots[::-1]
        return reuse + list(range(len(self.slots), self.capacity))

    def fill(self, slots: list[int], rows: list[tuple]) -> None:
        """Place ``rows`` in ``slots``, a non-empty prefix of
        :meth:`open_slots`: the reused slots come first, then the unused
        ones in order."""
        # The unused slots run on from the end of the slot list, so the
        # run's last slot says how many of them it takes.
        reused = len(slots) - max(0, slots[-1] + 1 - len(self.slots))
        if reused:
            taken = set(slots[:reused])
            self.free_slots = [slot for slot in self.free_slots
                               if slot not in taken]
            for slot, row in zip(slots[:reused], rows):
                self.slots[slot] = row
        self.slots.extend(rows[reused:])

    def insert_at(self, slot: int, row: tuple) -> None:
        """Place ``row`` in a specific slot (used by redo/undo)."""
        while len(self.slots) <= slot:
            self.slots.append(None)
            self.free_slots.append(len(self.slots) - 1)
        if self.slots[slot] is None and slot in self.free_slots:
            self.free_slots.remove(slot)
        if self.reserved:
            self.reserved.pop(slot, None)
        self.slots[slot] = row

    def read(self, slot: int) -> tuple | None:
        if 0 <= slot < len(self.slots):
            return self.slots[slot]
        return None

    def delete(self, slot: int, owner: int = 0) -> tuple:
        """Remove and return the row in ``slot``, reserving the slot for
        transaction ``owner`` (0: reusable at once)."""
        row = self.read(slot)
        if row is None:
            raise ValueError(f"page {self.page_no} slot {slot} is empty")
        self.slots[slot] = None
        self.free_slots.append(slot)
        if owner:
            if self.reserved is None:
                self.reserved = {}
            self.reserved[slot] = owner
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
        other.reserved = dict(self.reserved) if self.reserved else None
        return other

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Page(no={self.page_no}, live={self.live_rows}/"
                f"{self.capacity}, lsn={self.page_lsn})")
