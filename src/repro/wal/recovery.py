"""Restart recovery: analysis, redo, undo (ARIES-lite).

``RecoveryManager`` drives the three passes against a *target* — the
engine — through a narrow interface:

* ``target.table_for_file(file_id)`` → Table runtime or None
* ``target.heap_for_file(file_id)`` → HeapFile or None (fallback when the
  target exposes no table runtimes)
* ``target.redo_create_table / redo_drop_table`` (idempotent DDL redo)
* ``target.redo_create_procedure / redo_drop_procedure``
* ``target.redo_create_index / redo_drop_index``

Redo repeats *history* — loser transactions' changes are re-applied and
then rolled back by the undo pass, exactly as in ARIES.  Redo is
idempotent via the page-LSN test; undo is restartable via CLRs carrying
``undo_next_lsn``.

Secondary indexes are maintained *incrementally* during both passes:
a table runtime materializes its B-trees from the heap's on-disk state
the first time recovery touches the table, and every redone or undone
heap change also applies the matching index updates (the logical
equivalent of redoing/undoing index pages).  No wholesale post-recovery
index rebuild is needed — restart cost scales with the log tail, not
with total data volume.

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
    AbortRecord,
    BeginCheckpointRecord,
    BeginRecord,
    CheckpointRecord,
    CLRRecord,
    CommitRecord,
    CreateIndexRecord,
    CreateProcedureRecord,
    CreateTableRecord,
    CreateViewRecord,
    DeleteRecord,
    DropIndexRecord,
    DropProcedureRecord,
    DropTableRecord,
    DropViewRecord,
    EndCheckpointRecord,
    EndRecord,
    InsertRecord,
    LogRecord,
    UpdateRecord,
)


def compensate(rec: LogRecord) -> LogRecord | None:
    """Build the record describing the inverse of ``rec``.

    Shared by online rollback (abort) and the restart undo pass so the two
    code paths cannot diverge.
    """
    if isinstance(rec, InsertRecord):
        return DeleteRecord(txn_id=rec.txn_id, table_name=rec.table_name,
                            file_id=rec.file_id, page_no=rec.page_no,
                            slot=rec.slot, row=rec.row,
                            row_bytes=rec.row_bytes)
    if isinstance(rec, DeleteRecord):
        return InsertRecord(txn_id=rec.txn_id, table_name=rec.table_name,
                            file_id=rec.file_id, page_no=rec.page_no,
                            slot=rec.slot, row=rec.row,
                            row_bytes=rec.row_bytes)
    if isinstance(rec, UpdateRecord):
        return UpdateRecord(txn_id=rec.txn_id, table_name=rec.table_name,
                            file_id=rec.file_id, page_no=rec.page_no,
                            slot=rec.slot, old_row=rec.new_row,
                            new_row=rec.old_row, row_bytes=rec.row_bytes)
    if isinstance(rec, CreateTableRecord):
        return DropTableRecord(txn_id=rec.txn_id, table=rec.table)
    if isinstance(rec, DropTableRecord):
        return CreateTableRecord(txn_id=rec.txn_id, table=rec.table)
    if isinstance(rec, CreateProcedureRecord):
        return DropProcedureRecord(txn_id=rec.txn_id, name=rec.name,
                                   param_names=rec.param_names,
                                   body_sql=rec.body_sql)
    if isinstance(rec, DropProcedureRecord):
        return CreateProcedureRecord(txn_id=rec.txn_id, name=rec.name,
                                     param_names=rec.param_names,
                                     body_sql=rec.body_sql)
    if isinstance(rec, CreateIndexRecord):
        return DropIndexRecord(txn_id=rec.txn_id, index=rec.index)
    if isinstance(rec, DropIndexRecord):
        return CreateIndexRecord(txn_id=rec.txn_id, index=rec.index)
    if isinstance(rec, CreateViewRecord):
        return DropViewRecord(txn_id=rec.txn_id, name=rec.name,
                              body_sql=rec.body_sql)
    if isinstance(rec, DropViewRecord):
        return CreateViewRecord(txn_id=rec.txn_id, name=rec.name,
                                body_sql=rec.body_sql)
    return None


def apply_compensation(action: LogRecord, target) -> None:
    """Apply a compensating action built by :func:`compensate`.

    DML compensations go through the table runtime when the target has
    one, so loser-undo keeps the secondary indexes in step with the heap.
    """
    if isinstance(action, (InsertRecord, DeleteRecord, UpdateRecord)):
        rid = RowId(action.file_id, action.page_no, action.slot)
        runtime = _runtime_for(target, action.file_id)
        if runtime is not None:
            if isinstance(action, InsertRecord):
                runtime.apply_insert_with_indexes(rid, action.row,
                                                  action.lsn)
            elif isinstance(action, DeleteRecord):
                runtime.apply_delete_with_indexes(rid, action.lsn)
            else:
                runtime.apply_update_with_indexes(rid, action.new_row,
                                                  action.lsn)
            return
        heap = target.heap_for_file(action.file_id)
        if heap is None:
            return
        if isinstance(action, InsertRecord):
            heap.apply_insert(rid, action.row, action.lsn)
        elif isinstance(action, DeleteRecord):
            heap.apply_delete(rid, action.lsn)
        else:
            heap.apply_update(rid, action.new_row, action.lsn)
    elif isinstance(action, DropTableRecord):
        target.redo_drop_table(action.table)
    elif isinstance(action, CreateTableRecord):
        target.redo_create_table(action.table)
    elif isinstance(action, DropProcedureRecord):
        target.redo_drop_procedure(action.name)
    elif isinstance(action, CreateProcedureRecord):
        target.redo_create_procedure(action.name, action.param_names,
                                     action.body_sql)
    elif isinstance(action, DropIndexRecord):
        target.redo_drop_index(action.index)
    elif isinstance(action, CreateIndexRecord):
        target.redo_create_index(action.index)
    elif isinstance(action, DropViewRecord):
        target.redo_drop_view(action.name)
    elif isinstance(action, CreateViewRecord):
        target.redo_create_view(action.name, action.body_sql)


def _runtime_for(target, file_id: int):
    """The index-maintaining table runtime for ``file_id``, if any."""
    table_for_file = getattr(target, "table_for_file", None)
    if table_for_file is None:
        return None
    return table_for_file(file_id)


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


#: Non-data records redo treats as DDL (redone via the target's
#: ``redo_*`` hooks).  Used by the fuzzy path to skip DDL already
#: captured by the checkpoint's catalog snapshot.
_DDL_RECORDS = (CreateTableRecord, DropTableRecord, CreateProcedureRecord,
                DropProcedureRecord, CreateIndexRecord, DropIndexRecord,
                CreateViewRecord, DropViewRecord)

_DATA_RECORDS = (InsertRecord, DeleteRecord, UpdateRecord)


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
            # uniqueness), so check the invariant is restored now that
            # both passes are done.
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
        instead of log length.
        """
        target = rec.action if isinstance(rec, CLRRecord) else rec
        if isinstance(target, _DATA_RECORDS):
            rec_lsn = dpt.get((target.file_id, target.page_no))
            if rec_lsn is None or rec.lsn < rec_lsn:
                report.redo_skipped += 1
                return True
            return False
        if isinstance(target, _DDL_RECORDS) \
                and rec.lsn <= report.checkpoint_lsn:
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
            if rec.action is not None:
                action = rec.action
                action.lsn = rec.lsn  # page-LSN stamp comes from the CLR
                self._redo_one(action, report)
            return
        if isinstance(rec, (InsertRecord, DeleteRecord, UpdateRecord)):
            runtime = _runtime_for(self._target, rec.file_id)
            heap = (runtime.heap if runtime is not None
                    else self._target.heap_for_file(rec.file_id))
            if heap is None:
                report.redo_skipped += 1
                return
            if heap.page_lsn(rec.page_no) >= rec.lsn:
                # Page already carries this change — and the runtime's
                # indexes were built from that heap state, so they carry
                # it too.
                report.redo_skipped += 1
                return
            rid = RowId(rec.file_id, rec.page_no, rec.slot)
            if runtime is not None:
                self._touched_runtimes[rec.file_id] = runtime
                if isinstance(rec, InsertRecord):
                    runtime.apply_insert_with_indexes(rid, rec.row, rec.lsn)
                elif isinstance(rec, DeleteRecord):
                    runtime.apply_delete_with_indexes(rid, rec.lsn)
                else:
                    runtime.apply_update_with_indexes(rid, rec.new_row,
                                                      rec.lsn)
            elif isinstance(rec, InsertRecord):
                heap.apply_insert(rid, rec.row, rec.lsn)
            elif isinstance(rec, DeleteRecord):
                heap.apply_delete(rid, rec.lsn)
            else:
                heap.apply_update(rid, rec.new_row, rec.lsn)
            report.redo_applied += 1
            return
        if isinstance(rec, CreateTableRecord):
            self._target.redo_create_table(rec.table)
            report.redo_applied += 1
        elif isinstance(rec, DropTableRecord):
            self._target.redo_drop_table(rec.table)
            report.redo_applied += 1
        elif isinstance(rec, CreateProcedureRecord):
            self._target.redo_create_procedure(rec.name, rec.param_names,
                                               rec.body_sql)
            report.redo_applied += 1
        elif isinstance(rec, DropProcedureRecord):
            self._target.redo_drop_procedure(rec.name)
            report.redo_applied += 1
        elif isinstance(rec, CreateIndexRecord):
            self._target.redo_create_index(rec.index)
            report.redo_applied += 1
        elif isinstance(rec, DropIndexRecord):
            self._target.redo_drop_index(rec.index)
            report.redo_applied += 1
        elif isinstance(rec, CreateViewRecord):
            self._target.redo_create_view(rec.name, rec.body_sql)
            report.redo_applied += 1
        elif isinstance(rec, DropViewRecord):
            self._target.redo_drop_view(rec.name)
            report.redo_applied += 1

    # -- undo ----------------------------------------------------------------

    def _undo(self, report: RecoveryReport, losers: dict[int, int]) -> None:
        for txn_id in sorted(losers):
            self._undo_txn(txn_id, losers[txn_id], report)

    def _undo_txn(self, txn_id: int, last_lsn: int,
                  report: RecoveryReport) -> None:
        lsn = last_lsn
        while lsn:
            rec = self._log.record(lsn)
            if isinstance(rec, CLRRecord):
                lsn = rec.undo_next_lsn  # already-undone prefix is skipped
                continue
            if isinstance(rec, (BeginRecord, AbortRecord)):
                lsn = rec.prev_lsn
                continue
            compensation = compensate(rec)
            if compensation is not None:
                clr = CLRRecord(txn_id=txn_id, prev_lsn=0,
                                action=compensation,
                                undo_next_lsn=rec.prev_lsn)
                self._log.append(clr)
                compensation.lsn = clr.lsn
                if isinstance(compensation,
                              (InsertRecord, DeleteRecord, UpdateRecord)):
                    runtime = _runtime_for(self._target,
                                           compensation.file_id)
                    if runtime is not None:
                        self._touched_runtimes[compensation.file_id] = \
                            runtime
                apply_compensation(compensation, self._target)
                report.undo_applied += 1
            lsn = rec.prev_lsn
        self._log.append(EndRecord(txn_id=txn_id))
