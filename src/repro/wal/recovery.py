"""Restart recovery: analysis, redo, undo (ARIES-lite).

``RecoveryManager`` drives the three passes against a *target* — the
engine — through a narrow interface:

* ``target.table_for_file(file_id)`` → Table runtime or None; every
  row change, redone or compensated, goes through :func:`apply_row`;
* ``target.apply_catalog(record)`` → applies one
  :class:`~repro.wal.records.CatalogRecord`, idempotently (redo, and the
  compensation of a create or a drop) — through the one
  :meth:`Catalog.apply <repro.storage.catalog.Catalog.apply>` the DDL
  statement itself ran and ``Catalog.restore`` runs over a checkpoint
  snapshot, from the object image the record carries.

Redo repeats *history* — loser transactions' changes are re-applied and
then rolled back by the undo pass, exactly as in ARIES.  Redo is
idempotent via the page-LSN test; undo is restartable via CLRs carrying
``undo_next_lsn``.  :func:`undo_txn` is the one backward walk of a
transaction's chain: restart's undo pass and the transaction manager's
abort and statement rollback both run it.

Secondary indexes are maintained *incrementally* during both passes:
a table runtime materializes its B-trees from the heap's on-disk state
the first time recovery touches the table, and every redone or undone
heap change also applies the matching index updates (the logical
equivalent of redoing/undoing index pages).  No wholesale post-recovery
index rebuild is needed, so the passes scale with the log tail; the
attach-time build of each touched table's trees still reads all its
rows (one ``BTree.build`` a tree).  Uniqueness is re-checked after undo
on the keys a unique tree admitted a second rid for, and no others.

One pass serves every checkpoint regime: analysis merges the dirty-page
table the last complete checkpoint logged with the pages touched after
it, redo starts at the oldest recLSN that checkpoint logged (never above
the checkpoint itself) and skips records whose effects provably reached
disk, and with ``CostModel.redo_workers >= 1`` apply time is charged as
a per-file-partition makespan while records are still applied serially
in LSN order.  A sharp checkpoint, or none, is a checkpoint with an
empty dirty-page table: redo starts right behind it and the filter skips
nothing.  Per-pass virtual times of every restart go to the
observability recovery log (``sys_recovery_phases``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.storage.heap import RowId
from repro.wal.log import WriteAheadLog
from repro.wal.records import (
    BeginCheckpointRecord,
    CatalogRecord,
    CheckpointRecord,
    CLRRecord,
    CommitRecord,
    DeleteRecord,
    EndCheckpointRecord,
    EndRecord,
    InsertRecord,
    LogRecord,
    UpdateRecord,
)

_DATA_RECORDS = (InsertRecord, DeleteRecord, UpdateRecord)


def apply_row(runtime, rec) -> None:
    """Apply one row change to its table runtime, indexes included."""
    rid = RowId(rec.file_id, rec.page_no, rec.slot)
    if isinstance(rec, InsertRecord):
        runtime.apply_insert_with_indexes(rid, rec.row, rec.lsn)
    elif isinstance(rec, DeleteRecord):
        runtime.apply_delete_with_indexes(rid, rec.lsn)
    else:
        runtime.apply_update_with_indexes(rid, rec.new_row, rec.lsn)


def undo_txn(log: WriteAheadLog, target, txn_id: int, last_lsn: int,
             stop_lsn: int = 0,
             touched: dict | None = None) -> tuple[int, int]:
    """Undo what transaction ``txn_id`` logged after ``stop_lsn``,
    walking its chain back from ``last_lsn``.

    Each record's :meth:`~repro.wal.records.LogRecord.inverse` is logged
    as a CLR — chained to the transaction's previous record — *before*
    it is applied, and the CLR's ``undo_next_lsn`` lets a later walk
    (an abort after a statement rollback, or restart undo after a crash
    mid-rollback) skip what is already undone.  Runtimes whose rows were
    compensated go into ``touched`` by file id.  Returns the
    transaction's last LSN and the number of compensations applied.
    """
    lsn = last_lsn
    applied = 0
    while lsn > stop_lsn:
        rec = log.record(lsn)
        if isinstance(rec, CLRRecord):
            lsn = rec.undo_next_lsn
            continue
        action = rec.inverse()
        if action is not None:
            last_lsn = log.append(CLRRecord(
                txn_id=txn_id, prev_lsn=last_lsn, action=action,
                undo_next_lsn=rec.prev_lsn))
            action.lsn = last_lsn
            if isinstance(action, CatalogRecord):
                target.apply_catalog(action)
            else:
                runtime = target.table_for_file(action.file_id)
                if runtime is not None:
                    if touched is not None:
                        touched[action.file_id] = runtime
                    apply_row(runtime, action)
            applied += 1
        lsn = rec.prev_lsn
    return last_lsn, applied


def _partition_makespan(loads: dict[int, float], workers: int) -> float:
    """Makespan of one redo round: greedily (LPT) assign each file
    partition's apply seconds to ``workers`` simulated workers and return
    the most-loaded worker's total.  Deterministic — partitions are
    placed largest-first with file id breaking ties, onto the least
    loaded (lowest-index) worker."""
    if not loads:
        return 0.0
    if workers <= 1:
        return sum(loads.values())
    bins = [0.0] * workers
    ordered = sorted(((load, file_id) for file_id, load in loads.items()),
                     key=lambda pair: (-pair[0], pair[1]))
    for load, _file_id in ordered:
        bins[bins.index(min(bins))] += load
    return max(bins)


@dataclass
class RecoveryReport:
    """What restart recovery did (used by tests and the server log)."""

    checkpoint_lsn: int = 0
    winners: set = field(default_factory=set)
    losers: set = field(default_factory=set)
    redo_applied: int = 0
    redo_skipped: int = 0
    undo_applied: int = 0
    #: True when the last complete checkpoint was a fuzzy Begin/End pair.
    fuzzy: bool = False
    #: Simulated redo workers used (0 = the seed's serial charging).
    redo_workers: int = 0
    #: First LSN the redo pass scanned: the oldest recLSN the checkpoint
    #: logged, at most checkpoint+1 (= checkpoint+1 unless it was fuzzy).
    redo_start: int = 0
    #: Virtual seconds of per-partition redo apply work, by file id
    #: (parallel redo only; the charged makespan is <= the sum of these).
    partition_seconds: dict = field(default_factory=dict)
    #: Log records the engine scanned after the three passes to rebuild
    #: the per-table DML versions — exactly the live log (``last_lsn -
    #: truncated_lsn``), however long the archived history is.
    version_records_scanned: int = 0


class RecoveryManager:
    """Runs the three recovery passes against an engine target."""

    def __init__(self, log: WriteAheadLog, target):
        self._log = log
        self._target = target
        #: table runtimes whose indexes redo/undo touched — their unique
        #: trees may hold transient duplicates while history is repeated,
        #: so they are re-validated once undo completes.
        self._touched_runtimes: dict[int, object] = {}

    def _charge_record(self, rec: LogRecord, applied: bool) -> None:
        """Charge the honest cost of processing one record at restart:
        sequential log read plus (when applied) the page operation."""
        meter = self._log.meter
        if meter is None:
            return
        from repro.sim.costs import SERVER_DISK

        seconds = meter.costs.log_write_seconds(rec.payload_bytes())
        if applied:
            seconds += meter.costs.cpu_per_tuple_insert
        meter.charge(SERVER_DISK, seconds, "restart recovery")

    def recover(self) -> RecoveryReport:
        """The three passes, each timed by one phase of the world's
        tracer; their durations are the restart's ``wal_*`` rows in the
        recovery log."""
        meter = self._log.meter
        tracer = meter.tracer
        workers = meter.costs.redo_workers
        report = RecoveryReport(redo_workers=workers)
        with tracer.phase("wal.recover", "wal") as root:
            with tracer.phase("wal.analysis", "wal") as analysis:
                last_lsn, committed, ended, dpt = self._analysis(report)
            report.winners = set(committed)
            report.losers = set(last_lsn) - committed - ended
            with tracer.phase("wal.redo", "wal") as redo:
                if workers >= 1:
                    self._redo_parallel(report, dpt, workers)
                else:
                    self._redo_serial(report, dpt)
            with tracer.phase("wal.undo", "wal") as undo:
                self._undo(report, {t: last_lsn[t] for t in report.losers})
            # Indexes were maintained incrementally through redo/undo
            # (see module docstring); no wholesale rebuild pass is
            # needed.  But repeating history tolerates transient
            # unique-key duplicates (apply-mode inserts do not enforce
            # uniqueness), so check the keys that took one are unique
            # again now that both passes are done.
            for runtime in self._touched_runtimes.values():
                runtime.validate_unique_indexes()
            self._log.force()
            root.set_attr("redo_applied", report.redo_applied)
            root.set_attr("undo_applied", report.undo_applied)
            root.set_attr("losers", len(report.losers))
        phase_seconds = {"wal_analysis": analysis.duration,
                         "wal_redo": redo.duration,
                         "wal_undo": undo.duration}
        for file_id in sorted(report.partition_seconds):
            phase_seconds[f"wal_redo_file_{file_id}"] = \
                report.partition_seconds[file_id]
        meter.record_recovery(phase_seconds, finished_at=root.end)
        return report

    def _analysis(self, report: RecoveryReport):
        """Analysis seeded from the last complete checkpoint: a fuzzy
        Begin/End pair, a sharp checkpoint record, or nothing.

        Returns ``(txn -> last undoable lsn, committed, ended,
        dirty-page table)`` and sets the report's checkpoint fields and
        ``redo_start``.  Losers are the transactions of the
        first map that neither committed nor ended; CLR LSNs also update
        it, so undo of a crash-during-rollback resumes from the right
        place.  The DPT starts from the one the checkpoint logged (empty
        unless it was fuzzy) and grows by first-touch recLSN for every
        page dirtied after the checkpoint — exactly the set redo must
        consider.
        """
        last_lsn: dict[int, int] = {}
        committed: set[int] = set()
        ended: set[int] = set()
        dpt: dict[tuple[int, int], int] = {}
        begin_lsn = 0
        checkpoint = self._log.last_complete_checkpoint()
        if isinstance(checkpoint, EndCheckpointRecord):
            report.fuzzy = True
            begin_lsn = checkpoint.begin_lsn
            last_lsn.update(checkpoint.active_txns)
            dpt.update(checkpoint.dirty_pages)
        elif isinstance(checkpoint, CheckpointRecord):
            begin_lsn = checkpoint.lsn
            last_lsn.update(checkpoint.active_txns)
        report.checkpoint_lsn = begin_lsn
        # Everything above the checkpoint is scanned whatever the DPT
        # says: DDL records name no page.
        report.redo_start = max(1, min([begin_lsn + 1, *dpt.values()]))
        for rec in self._log.records_from(begin_lsn + 1):
            if isinstance(rec, (CheckpointRecord, BeginCheckpointRecord,
                                EndCheckpointRecord)):
                continue
            if isinstance(rec, EndRecord):
                ended.add(rec.txn_id)
                continue
            if isinstance(rec, CommitRecord):
                committed.add(rec.txn_id)
                continue
            if rec.txn_id:
                last_lsn[rec.txn_id] = rec.lsn
            target = rec.action if isinstance(rec, CLRRecord) else rec
            if isinstance(target, _DATA_RECORDS):
                dpt.setdefault((target.file_id, target.page_no), rec.lsn)
        return last_lsn, committed, ended, dpt

    def _skip_redo(self, rec: LogRecord, dpt: dict,
                   report: RecoveryReport) -> bool:
        """DPT / catalog-snapshot redo filter.

        True when ``rec`` provably needs no redo: a data change to a page
        outside the dirty-page table (its image reached disk before the
        checkpoint) or below the page's recLSN, or DDL at/below the Begin
        record (the catalog snapshot written with it already carries the
        change).  This is what bounds redone records by dirty pages
        instead of log length.  A table drop by a transaction that did
        not commit is skipped too: online, its pages are released only
        at commit, and undo (or the CLR after it) brings the table back
        onto them — a redone drop would have released them.
        """
        target = rec.action if isinstance(rec, CLRRecord) else rec
        if isinstance(target, _DATA_RECORDS):
            rec_lsn = dpt.get((target.file_id, target.page_no))
            if rec_lsn is None or rec.lsn < rec_lsn:
                report.redo_skipped += 1
                return True
            return False
        if isinstance(target, CatalogRecord) and (
                rec.lsn <= report.checkpoint_lsn
                or (target is rec and target.kind == "table"
                    and not target.create
                    and rec.txn_id not in report.winners)):
            report.redo_skipped += 1
            return True
        return False

    def _redo_serial(self, report: RecoveryReport, dpt: dict) -> None:
        for rec in self._log.records_from(report.redo_start):
            if self._skip_redo(rec, dpt, report):
                self._charge_record(rec, applied=False)
                continue
            before = report.redo_applied
            self._redo_one(rec, report)
            self._charge_record(rec, applied=report.redo_applied > before)

    def _redo_parallel(self, report: RecoveryReport, dpt: dict,
                       workers: int) -> None:
        """Redo with the apply work charged as an N-worker makespan.

        Records are applied serially in LSN order — parallelism is purely
        a *timing* model, so 1-worker and 4-worker recovery produce
        identical contents.  The charge decomposes into:

        * the sequential log read (every scanned record, skipped or not);
        * DDL apply time, serial — a catalog change is a barrier that
          drains the in-flight round before running alone;
        * per round between barriers, the LPT makespan of per-file
          partition loads over ``workers`` workers (WAL partitions redo
          by file id: two changes to one file never race).

        Each record's apply cost is captured via the meter's overlap
        window + per-record recorder (page faults included), then charged
        once at the end as a single restart-recovery disk segment.
        """
        meter = self._log.meter
        from repro.sim.costs import SERVER_DISK

        read_seconds = 0.0
        serial_seconds = 0.0
        makespan = 0.0
        round_loads: dict[int, float] = {}
        meter.begin_overlap()
        try:
            for rec in self._log.records_from(report.redo_start):
                read_seconds += meter.costs.log_write_seconds(
                    rec.payload_bytes())
                if self._skip_redo(rec, dpt, report):
                    continue
                target = (rec.action if isinstance(rec, CLRRecord)
                          else rec)
                rec_sink = meter.push_recorder()
                before = report.redo_applied
                try:
                    self._redo_one(rec, report)
                finally:
                    meter.pop_recorder(rec_sink)
                seconds = sum(seg.seconds for seg in rec_sink)
                if report.redo_applied > before:
                    seconds += meter.costs.cpu_per_tuple_insert
                if isinstance(target, _DATA_RECORDS):
                    file_id = target.file_id
                    round_loads[file_id] = \
                        round_loads.get(file_id, 0.0) + seconds
                    report.partition_seconds[file_id] = \
                        report.partition_seconds.get(file_id, 0.0) \
                        + seconds
                elif seconds > 0.0:
                    makespan += _partition_makespan(round_loads, workers)
                    round_loads.clear()
                    serial_seconds += seconds
            makespan += _partition_makespan(round_loads, workers)
        finally:
            meter.end_overlap()
        meter.charge(SERVER_DISK,
                     read_seconds + serial_seconds + makespan,
                     "parallel redo")

    def _redo_one(self, rec: LogRecord, report: RecoveryReport) -> None:
        if isinstance(rec, CLRRecord):
            rec.action.lsn = rec.lsn  # page-LSN stamp comes from the CLR
            rec = rec.action
        if isinstance(rec, _DATA_RECORDS):
            runtime = self._target.table_for_file(rec.file_id)
            if runtime is None or runtime.heap.page_lsn(rec.page_no) \
                    >= rec.lsn:
                # No such table any more, or its page already carries
                # this change — and the runtime's indexes were built from
                # that heap state, so they carry it too.
                report.redo_skipped += 1
                return
            self._touched_runtimes[rec.file_id] = runtime
            apply_row(runtime, rec)
        elif isinstance(rec, CatalogRecord):
            self._target.apply_catalog(rec)
        else:
            return
        report.redo_applied += 1

    # -- undo ----------------------------------------------------------------

    def _undo(self, report: RecoveryReport, losers: dict[int, int]) -> None:
        for txn_id in sorted(losers):
            _last, applied = undo_txn(self._log, self._target, txn_id,
                                      losers[txn_id],
                                      touched=self._touched_runtimes)
            report.undo_applied += applied
            self._log.append(EndRecord(txn_id=txn_id))
