"""The write-ahead log.

The log object itself *is* the durable medium for records up to
``flushed_lsn`` (think of it as the log disk).  Records appended but not
yet forced live in the volatile tail and are discarded by :meth:`crash`.

Cost accounting: appends are buffered (they accumulate pending write time
scaled by the appending table's amplification factor); :meth:`force`
charges the accumulated sequential-write time plus one force latency to
the server disk.  This reproduces the paper's observation that "the
primary ongoing overhead is the extra logging to store the result in a
table" — Phoenix pays real log-force time to make result sets durable.
"""

from __future__ import annotations

from repro.errors import LogTruncatedError
from repro.sim.costs import SERVER_DISK
from repro.sim.meter import Meter
from repro.wal.records import (
    CheckpointRecord,
    EndCheckpointRecord,
    LogRecord,
)


class WriteAheadLog:
    """Append-only log with explicit force points."""

    def __init__(self, meter: Meter | None = None):
        self._meter = meter
        self._records: list[LogRecord] = []
        self.flushed_lsn = 0
        self._pending_write_seconds = 0.0
        self.forces = 0
        # Truncation state: records with lsn <= _base_lsn have been
        # archived away; _records[i] holds lsn _base_lsn + i + 1.
        self._base_lsn = 0
        #: Highest txn id ever archived — transaction-id recovery must
        #: still never reuse ids whose records left the live log.
        self.truncated_max_txn_id = 0
        #: Total records ever truncated (diagnostics / sys_checkpoint).
        self.truncated_records = 0

    # -- append / force -------------------------------------------------------

    @property
    def last_lsn(self) -> int:
        return self._base_lsn + len(self._records)

    @property
    def truncated_lsn(self) -> int:
        """Highest LSN no longer in the live log (0 = nothing truncated)."""
        return self._base_lsn

    def append(self, record: LogRecord, cost_factor: float = 1.0) -> int:
        """Assign the next LSN to ``record`` and buffer it; returns the LSN."""
        record.lsn = self._base_lsn + len(self._records) + 1
        self._records.append(record)
        if self._meter is not None:
            seconds = self._meter.costs.log_write_seconds(
                record.payload_bytes()) * cost_factor
            self._pending_write_seconds += seconds
        return record.lsn

    def append_run(self, records: list[LogRecord],
                   cost_factor: float = 1.0) -> int:
        """:meth:`append` each of ``records`` in order; returns the last
        LSN.  The pending write time is added record by record, so the
        sum is the one the single appends would have made."""
        lsn = self._base_lsn + len(self._records)
        for record in records:
            lsn += 1
            record.lsn = lsn
        self._records.extend(records)
        if self._meter is not None:
            write_seconds = self._meter.costs.log_write_seconds
            pending = self._pending_write_seconds
            for record in records:
                pending += write_seconds(record.payload_bytes()) * cost_factor
            self._pending_write_seconds = pending
        return lsn

    def force(self, up_to_lsn: int | None = None,
              sync: bool = True) -> None:
        """Make the log durable up to ``up_to_lsn`` (default: everything).

        For simplicity the whole buffered tail is flushed whenever any
        part of it must be; this only ever over-forces, never
        under-forces.  ``sync=True`` (commits) pays the synchronous
        force latency on top of the write time; ``sync=False`` (WAL-rule
        flushes ahead of lazy page writes) pays only the sequential
        write time, like a write-behind log would.
        """
        target = self.last_lsn if up_to_lsn is None else min(up_to_lsn,
                                                             self.last_lsn)
        if target <= self.flushed_lsn:
            return
        if self._meter is not None:
            seconds = self._pending_write_seconds
            if sync:
                seconds += self._meter.costs.log_force_seconds
            self._meter.charge(SERVER_DISK, seconds, "log force")
            self._meter.count("log_forces")
        self._pending_write_seconds = 0.0
        self.flushed_lsn = self.last_lsn
        self.forces += 1

    # -- crash ---------------------------------------------------------------

    def crash(self) -> int:
        """Discard the un-forced tail; returns how many records were lost."""
        lost = self.last_lsn - self.flushed_lsn
        del self._records[self.flushed_lsn - self._base_lsn:]
        self._pending_write_seconds = 0.0
        return lost

    def attach_meter(self, meter: Meter | None) -> None:
        """Swap the meter (used when a restarted server re-wires itself)."""
        self._meter = meter

    @property
    def meter(self) -> Meter | None:
        return self._meter

    # -- reading ----------------------------------------------------------------

    def record(self, lsn: int) -> LogRecord:
        if 1 <= lsn <= self._base_lsn:
            raise LogTruncatedError(
                f"log record {lsn} was truncated (archive boundary is "
                f"{self._base_lsn}) — recovery needs history the live log "
                f"no longer holds")
        if not self._base_lsn < lsn <= self.last_lsn:
            raise IndexError(f"no log record with lsn {lsn}")
        return self._records[lsn - self._base_lsn - 1]

    def records_from(self, lsn: int):
        """Yield records with LSN >= ``lsn`` in order.

        Asking for a starting point inside the truncated prefix is a
        loud error: a redo scan that needs archived records means the
        truncation safety rule was violated.
        """
        if self._base_lsn and 1 <= lsn <= self._base_lsn:
            raise LogTruncatedError(
                f"redo scan from lsn {lsn} reaches below the truncation "
                f"boundary {self._base_lsn}")
        start = max(0, lsn - self._base_lsn - 1)
        yield from self._records[start:]

    def all_records(self):
        """Yield every *live* record (the truncated prefix is gone)."""
        yield from self._records

    def last_complete_checkpoint(self) -> LogRecord | None:
        """The newest durable complete checkpoint record, if any.

        Returns either a sharp :class:`CheckpointRecord` or a fuzzy
        :class:`EndCheckpointRecord` — whichever is latest in the durable
        prefix.  A ``BeginCheckpointRecord`` without a durable End (a
        checkpoint in progress at the crash) is naturally skipped.
        """
        for i in range(self.flushed_lsn - self._base_lsn - 1, -1, -1):
            rec = self._records[i]
            if isinstance(rec, (CheckpointRecord, EndCheckpointRecord)):
                return rec
        return None

    # -- truncation ------------------------------------------------------------

    def truncate(self, up_to_lsn: int, archive=None) -> int:
        """Drop every record with LSN <= ``up_to_lsn``.

        Only the durable prefix may be truncated (the volatile tail is
        not yet on the log disk).  ``archive``, when given, receives the
        list of dropped records — the records themselves, which nothing
        mutates once forced — before they leave the live log; the engine
        folds them into its durable DML-version base and keeps nothing
        else of them.  Returns how many records were truncated.

        The *caller* is responsible for the safety rule: ``up_to_lsn``
        must lie below every dirty page's recLSN and below every active
        transaction's first LSN.  Reads below the new boundary raise
        :class:`~repro.errors.LogTruncatedError`.
        """
        if up_to_lsn > self.flushed_lsn:
            raise ValueError(
                f"cannot truncate to {up_to_lsn}: only {self.flushed_lsn} "
                f"is durable")
        count = up_to_lsn - self._base_lsn
        if count <= 0:
            return 0
        dropped = self._records[:count]
        if archive is not None:
            archive(dropped)
        for rec in dropped:
            if rec.txn_id > self.truncated_max_txn_id:
                self.truncated_max_txn_id = rec.txn_id
        del self._records[:count]
        self._base_lsn = up_to_lsn
        self.truncated_records += count
        return count
