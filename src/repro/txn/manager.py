"""Transaction manager: WAL-logged begin/commit/abort and rollback.

The manager owns transaction identity and the write-ahead discipline.  The
engine's table runtime calls the ``log_*`` helpers *before* mutating pages
(WAL rule); commit forces the log; abort and statement rollback walk the
transaction's backward log chain with restart undo's own walk
(:func:`repro.wal.recovery.undo_txn`), so rollback behaviour is identical
online and after a crash.

Transaction ids restart above the highest id ever seen in the log so an id
is never reused across crashes (reuse would corrupt a later analysis
pass).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import TransactionError
from repro.storage.heap import RowId
from repro.txn.locks import LockManager
from repro.wal.log import WriteAheadLog
from repro.wal.records import (
    AbortRecord,
    BeginRecord,
    CatalogRecord,
    CommitRecord,
    DeleteRecord,
    EndRecord,
    InsertRecord,
    LogRecord,
    UpdateRecord,
)
from repro.wal.recovery import undo_txn


#: Most primary keys one transaction remembers per table; a table written
#: more widely than this is reported as written wholesale.  Bounds the
#: write set a bulk statement accumulates and the commit piggyback that
#: carries it to the shared result cache.
WRITE_KEY_CAP = 128


class TxnState(enum.Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


@dataclass
class Transaction:
    """One transaction's volatile control block."""

    txn_id: int
    last_lsn: int = 0
    #: LSN of this transaction's BeginRecord — the oldest record undo can
    #: reach; log truncation must never drop past the minimum first_lsn
    #: of the active set.
    first_lsn: int = 0
    state: TxnState = TxnState.ACTIVE
    #: Actions deferred to commit (e.g. physical deallocation of a dropped
    #: table's pages — deferring makes DROP TABLE undoable).
    on_commit: list = field(default_factory=list)
    #: The write set, for the shared result cache: lowercased table name
    #: -> the primary keys written (old *and* new key of an UPDATE), or
    #: the reason the table counts as written wholesale (``"no_pk"``,
    #: ``"ddl"``, ``"cap"``).  None while the cache is off: nothing is
    #: collected.  Keys come from the rows being logged, not from the
    #: lock manager (a table X lock covers rows without naming them).
    #: Consumed at commit.
    modified_tables: dict | None = None

    @property
    def is_active(self) -> bool:
        return self.state is TxnState.ACTIVE


class TransactionManager:
    """Creates transactions and mediates all logged changes."""

    def __init__(self, log: WriteAheadLog, locks: LockManager, target):
        """``target`` is the engine-side recovery interface
        (``table_for_file`` and ``apply_catalog``)."""
        self._log = log
        self.locks = locks
        self._target = target
        self._active: dict[int, Transaction] = {}
        self._next_txn_id = self._recovered_next_txn_id(log)

    @staticmethod
    def _recovered_next_txn_id(log: WriteAheadLog) -> int:
        # Records archived by log truncation are no longer iterable, but
        # their txn ids must stay retired (reuse would corrupt analysis).
        highest = getattr(log, "truncated_max_txn_id", 0)
        for rec in log.all_records():
            highest = max(highest, rec.txn_id)
        return highest + 1

    # -- lifecycle -----------------------------------------------------------

    def begin(self) -> Transaction:
        meter = self._log.meter
        txn = Transaction(txn_id=self._next_txn_id)
        if meter is not None and meter.costs.result_cache_entries > 0:
            txn.modified_tables = {}
        self._next_txn_id += 1
        txn.last_lsn = self._log.append(BeginRecord(txn_id=txn.txn_id))
        txn.first_lsn = txn.last_lsn
        self._active[txn.txn_id] = txn
        return txn

    def commit(self, txn: Transaction) -> None:
        """Commit ``txn``: log a commit record, force the log, ack —
        every commit is durable before this method returns."""
        self._require_active(txn)
        self._chain(txn, CommitRecord(txn_id=txn.txn_id))
        self._log.force()
        self._log.append(EndRecord(txn_id=txn.txn_id))
        txn.state = TxnState.COMMITTED
        for action in txn.on_commit:
            action()
        txn.on_commit.clear()
        self._finish(txn)
        # Fuzzy-checkpoint cadence hook (an interval of 0.0 means no
        # cadence: a single comparison, no charge).
        meter = self._log.meter
        if meter is not None \
                and meter.costs.checkpoint_interval_seconds > 0.0:
            hook = getattr(self._target, "maybe_fuzzy_checkpoint", None)
            if hook is not None:
                hook()
        # Shared-result-cache invalidation hook: bump per-table DML
        # versions for everything this transaction wrote and queue its
        # write set.  With the cache off there is no write set.
        if txn.modified_tables:
            hook = getattr(self._target, "note_committed_writes", None)
            if hook is not None:
                hook(txn.modified_tables)
        txn.modified_tables = None

    def abort(self, txn: Transaction) -> None:
        self._require_active(txn)
        self._chain(txn, AbortRecord(txn_id=txn.txn_id))
        self.rollback_to(txn, 0)
        self._log.append(EndRecord(txn_id=txn.txn_id))
        # Aborts need no synchronous force (the undo is repeatable from
        # whatever part of the log survives); flush write-behind.
        self._log.force(sync=False)
        txn.state = TxnState.ABORTED
        txn.on_commit.clear()
        txn.modified_tables = None
        self._finish(txn)

    def abort_all_active(self) -> list[int]:
        """Abort every in-flight transaction (server-side session sweep)."""
        ids = sorted(self._active)
        for txn_id in ids:
            self.abort(self._active[txn_id])
        return ids

    @property
    def active_transactions(self) -> dict[int, Transaction]:
        return dict(self._active)

    @property
    def live(self) -> dict[int, Transaction]:
        """The active transactions by id, uncopied: the heap asks it
        whether a reserved slot's holder is still live."""
        return self._active

    def active_txn_lsns(self) -> dict[int, int]:
        """txn_id -> last_lsn map recorded in checkpoint records."""
        return {t.txn_id: t.last_lsn for t in self._active.values()}

    def active_txn_first_lsns(self) -> dict[int, int]:
        """txn_id -> first_lsn map (fuzzy checkpoints log this so undo
        chains stay reachable and truncation knows what to keep)."""
        return {t.txn_id: t.first_lsn for t in self._active.values()}

    # -- logged data changes (called by the table runtime pre-mutation) --------
    #
    # ``row_bytes`` is the width of the row image(s) the record carries,
    # sized once by the table runtime (``RowShape.width``); ``key_of``
    # is the table's ``row -> primary-key tuple`` function (None without
    # a primary key).

    @staticmethod
    def _note_write(txn: Transaction, table_name: str, key_of,
                    rows) -> None:
        """Add the keys of ``rows`` to ``txn``'s write set."""
        written = txn.modified_tables
        if written is None:
            return
        name = table_name.lower()
        keys = written.get(name)
        if type(keys) is str:
            return
        if key_of is None:
            written[name] = "no_pk"
            return
        if keys is None:
            keys = written[name] = set()
        keys.update(map(key_of, rows))
        if len(keys) > WRITE_KEY_CAP:
            written[name] = "cap"

    def log_inserts(self, txn: Transaction, table_name: str, file_id: int,
                    page_no: int, slots, rows, widths,
                    cost_factor: float = 1.0, key_of=None) -> int:
        """Log one :class:`InsertRecord` per row of a run placed into
        ``slots`` of one page (``widths``: the rows' sizes), chained in
        order, and return the last LSN: the records, LSNs and charges
        one append per row would have made."""
        self._require_active(txn)
        self._note_write(txn, table_name, key_of, rows)
        txn_id = txn.txn_id
        records = [InsertRecord(txn_id, 0, 0, table_name, file_id, page_no,
                                slot, row, width)
                   for slot, row, width in zip(slots, rows, widths)]
        self._log.append_run(records, cost_factor)
        # Chained after the append, so that a record's prev_lsn is the
        # same int object as the previous record's lsn (as _chain leaves
        # it): the log holds one int per record, not two.
        prev = txn.last_lsn
        for record in records:
            record.prev_lsn = prev
            prev = record.lsn
        txn.last_lsn = prev
        return prev

    def log_delete(self, txn: Transaction, table_name: str, rid: RowId,
                   row: tuple, row_bytes: int, cost_factor: float = 1.0,
                   key_of=None) -> int:
        self._note_write(txn, table_name, key_of, (row,))
        return self._chain(txn, DeleteRecord(
            txn.txn_id, 0, 0, table_name, rid.file_id, rid.page_no,
            rid.slot, row, row_bytes), cost_factor)

    def log_update(self, txn: Transaction, table_name: str, rid: RowId,
                   old_row: tuple, new_row: tuple, row_bytes: int,
                   cost_factor: float = 1.0, key_of=None) -> int:
        self._note_write(txn, table_name, key_of, (old_row, new_row))
        return self._chain(txn, UpdateRecord(
            txn.txn_id, 0, 0, table_name, rid.file_id, rid.page_no,
            rid.slot, old_row, new_row, row_bytes), cost_factor)

    # -- logged DDL -----------------------------------------------------------

    def log_catalog(self, txn: Transaction, record: CatalogRecord) -> None:
        """Log the creation or drop of one catalog object (see
        :class:`~repro.wal.records.CatalogRecord`); the name it moves
        counts as written wholesale."""
        name = record.table_name
        if name is not None and txn.modified_tables is not None:
            txn.modified_tables[name.lower()] = "ddl"
        self._chain(txn, record)

    # -- internals -------------------------------------------------------------

    def _chain(self, txn: Transaction, record: LogRecord,
               cost_factor: float = 1.0) -> int:
        self._require_active(txn)
        record.prev_lsn = txn.last_lsn
        txn.last_lsn = self._log.append(record, cost_factor)
        return txn.last_lsn

    def rollback_to(self, txn: Transaction, lsn: int) -> None:
        """Undo what ``txn`` logged after record ``lsn`` and keep it
        open: how a failed statement inside an explicit transaction
        takes back its own effects (locks stay, strict 2PL), and, from
        0, how abort takes back all of them.  The CLRs make a later
        abort — or restart undo — skip the undone range.
        """
        self._require_active(txn)
        txn.last_lsn, _applied = undo_txn(self._log, self._target,
                                          txn.txn_id, txn.last_lsn,
                                          stop_lsn=lsn)

    def _finish(self, txn: Transaction) -> None:
        self.locks.release_all(txn.txn_id)
        self._active.pop(txn.txn_id, None)

    @staticmethod
    def _require_active(txn: Transaction) -> None:
        if not txn.is_active:
            raise TransactionError(
                f"transaction {txn.txn_id} is {txn.state.value}")
