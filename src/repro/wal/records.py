"""Log record types.

Records are physiological: data records name a page/slot (physical) but
carry whole row values (logical), which keeps redo idempotent via the
page-LSN test and makes undo trivial: a record's :meth:`~LogRecord.inverse`
is its compensation (the inverse row operation, or the opposite catalog
change).

Every record carries ``txn_id`` and ``prev_lsn`` — the backward chain used
by abort and by the undo pass of restart recovery.  ``lsn`` is assigned by
the log at append time.

Data, catalog and compensation records are built positionally, in field
order — ``txn_id, prev_lsn, lsn``, then the class's own fields — since a
keyword call costs measurably more on the per-row write path
(``tests/test_wal_log.py`` checks each against its keyword-built twin);
the field order of these classes is therefore part of their interface.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.types import value_width_bytes


@dataclass
class LogRecord:
    """Base class; concrete records are the dataclasses below."""

    txn_id: int
    prev_lsn: int = 0
    lsn: int = 0  # assigned by WriteAheadLog.append

    def payload_bytes(self) -> int:
        """Estimated payload size, for log-write cost charging."""
        return 16

    def inverse(self) -> LogRecord | None:
        """The record that undoes this one; None when undo skips it."""
        return None


def _row_bytes(row) -> int:
    if row is None:
        return 0
    return sum(map(value_width_bytes, row))


@dataclass
class BeginRecord(LogRecord):
    pass


@dataclass
class CommitRecord(LogRecord):
    pass


@dataclass
class AbortRecord(LogRecord):
    """Transaction decided to roll back; CLRs follow."""


@dataclass
class EndRecord(LogRecord):
    """Transaction fully finished (committed-and-forced or fully undone)."""


@dataclass
class InsertRecord(LogRecord):
    table_name: str = ""
    file_id: int = 0
    page_no: int = 0
    slot: int = 0
    row: tuple = ()
    #: Width of the row image(s) the record carries.  The table runtime
    #: sizes each row once (``RowShape.width``) and passes the number
    #: in; a record built without it walks its values when asked.
    row_bytes: int | None = None

    def payload_bytes(self) -> int:
        if self.row_bytes is None:
            return 24 + _row_bytes(self.row)
        return 24 + self.row_bytes

    def inverse(self) -> DeleteRecord:
        return DeleteRecord(self.txn_id, 0, 0, self.table_name,
                            self.file_id, self.page_no, self.slot, self.row,
                            self.row_bytes)


@dataclass
class DeleteRecord(LogRecord):
    table_name: str = ""
    file_id: int = 0
    page_no: int = 0
    slot: int = 0
    row: tuple = ()  # the deleted row (needed for undo)
    row_bytes: int | None = None  # see InsertRecord

    def payload_bytes(self) -> int:
        if self.row_bytes is None:
            return 24 + _row_bytes(self.row)
        return 24 + self.row_bytes

    def inverse(self) -> InsertRecord:
        return InsertRecord(self.txn_id, 0, 0, self.table_name,
                            self.file_id, self.page_no, self.slot, self.row,
                            self.row_bytes)


@dataclass
class UpdateRecord(LogRecord):
    table_name: str = ""
    file_id: int = 0
    page_no: int = 0
    slot: int = 0
    old_row: tuple = ()
    new_row: tuple = ()
    row_bytes: int | None = None  # both images; see InsertRecord

    def payload_bytes(self) -> int:
        if self.row_bytes is None:
            return 24 + _row_bytes(self.old_row) + _row_bytes(self.new_row)
        return 24 + self.row_bytes

    def inverse(self) -> UpdateRecord:
        return UpdateRecord(self.txn_id, 0, 0, self.table_name,
                            self.file_id, self.page_no, self.slot,
                            self.new_row, self.old_row, self.row_bytes)


@dataclass
class CatalogRecord(LogRecord):
    """DDL: create or drop one catalog object.

    ``kind`` is ``"table"``, ``"index"``, ``"procedure"`` or ``"view"``;
    ``obj`` is the object's image (:meth:`Catalog.image
    <repro.storage.catalog.Catalog.image>` — what it takes to create the
    object again, a table's indexes and statistics included), so a drop
    carries it for undo as a create does for redo.  A dropped table's rows
    survive a rolled-back drop because its pages are deallocated only
    when the dropping transaction commits.
    """

    kind: str = ""
    create: bool = True
    obj: dict = field(default_factory=dict)

    @property
    def table_name(self) -> str | None:
        """The name whose version this change moves: the table (an
        index's table), or the view; None for a procedure, which no
        result reads."""
        if self.kind == "index":
            return self.obj["table_name"]
        if self.kind == "procedure":
            return None
        return self.obj["name"]

    def inverse(self) -> CatalogRecord:
        return CatalogRecord(self.txn_id, 0, 0, self.kind, not self.create,
                             self.obj)

    def payload_bytes(self) -> int:
        if self.kind == "table":
            if self.create:
                return 64 + 16 * len(self.obj["columns"])
            return 64
        if self.kind == "index":
            return 48
        return 32 + len(self.obj["body_sql"])


@dataclass
class CheckpointRecord(LogRecord):
    """Sharp checkpoint: all dirty pages flushed, catalog snapshotted.

    ``active_txns`` maps txn_id -> last_lsn at checkpoint time so undo can
    find loser chains that started before the checkpoint.
    """

    active_txns: dict = field(default_factory=dict)

    def payload_bytes(self) -> int:
        return 32 + 12 * len(self.active_txns)


@dataclass
class BeginCheckpointRecord(LogRecord):
    """Fuzzy checkpoint opened: nothing is flushed, nothing blocks.

    The matching :class:`EndCheckpointRecord` carries the tables; a
    ``BeginCheckpointRecord`` with no durable End is an in-progress
    checkpoint that crashed — recovery ignores it and falls back to the
    previous complete checkpoint.
    """

    def payload_bytes(self) -> int:
        return 16


@dataclass
class EndCheckpointRecord(LogRecord):
    """Fuzzy checkpoint completed: the ARIES checkpoint tables.

    ``begin_lsn`` names the matching Begin record.  ``dirty_pages`` maps
    ``(file_id, page_no) -> recLSN`` (buffer-pool dirty-page table at End
    time, *after* the background flush); ``active_txns`` maps
    ``txn_id -> last_lsn`` and ``active_first_lsns`` maps
    ``txn_id -> first_lsn`` so undo chains of transactions that straddle
    the checkpoint stay reachable and log truncation can keep them.
    """

    begin_lsn: int = 0
    dirty_pages: dict = field(default_factory=dict)
    active_txns: dict = field(default_factory=dict)
    active_first_lsns: dict = field(default_factory=dict)

    def payload_bytes(self) -> int:
        return (32 + 20 * len(self.dirty_pages)
                + 12 * len(self.active_txns)
                + 12 * len(self.active_first_lsns))


@dataclass
class CLRRecord(LogRecord):
    """Compensation record: redo-only description of one undone action.

    ``action`` is the compensating data/DDL record (e.g. the DeleteRecord
    that compensates an insert); ``undo_next_lsn`` is where undo resumes if
    the system crashes mid-rollback.
    """

    action: LogRecord | None = None
    undo_next_lsn: int = 0

    def payload_bytes(self) -> int:
        inner = self.action.payload_bytes() if self.action is not None else 0
        return 16 + inner
