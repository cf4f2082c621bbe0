"""The database engine facade.

``DatabaseEngine`` wires storage, WAL, transactions and the SQL frontend
together and executes statements under an :class:`EngineSession`.  It is
also the *target* interface for restart recovery and online rollback
(``table_for_file`` and ``apply_catalog``; see ``repro.wal.recovery``).

Every CREATE and DROP changes the catalog through one funnel,
:meth:`_change_catalog`: check, build the object's image
(:meth:`Catalog.image <repro.storage.catalog.Catalog.image>`), lock, log it,
apply it with :meth:`apply_catalog` — the same apply redo and undo run,
and the one :meth:`Catalog.apply <repro.storage.catalog.Catalog.apply>`
that restoring a checkpoint snapshot runs too.  A table's own work
(its files, ``CREATE TABLE ... AS``'s rows, its charges) is
:meth:`_table_ddl`'s.

Crash model: the engine object is volatile.  The server keeps the
:class:`SimulatedDisk` and :class:`WriteAheadLog` across a crash and calls
:meth:`DatabaseEngine.restart` to build a fresh engine, which restores the
catalog from the last checkpoint snapshot, runs ARIES-lite recovery and
then lays the ANALYZE statistics blob over the tables they were taken
from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from repro.engine.dml_versions import (
    BASE_BLOB,
    DmlVersionFold,
    version_tracked,
)
from repro.engine.results import StatementResult
from repro.engine.session import EngineSession
from repro.engine.table import Table
from repro.errors import (
    DeadlockError,
    EngineError,
    LockWaitError,
    PlanningError,
    SqlSyntaxError,
    TableNotFoundError,
    TransactionError,
)
from repro.obs.views import SYSTEM_VIEWS, system_view
from repro.phoenix_names import PHOENIX_PREFIX
from repro.sim.costs import SERVER_CPU, SERVER_DISK
from repro.sim.meter import Meter
from repro.sql import ast
from repro.sql.executor import (
    is_streamable_plan,
    iterate_plan,
    stored_rows_source,
)
from repro.sql.expressions import EvalContext, reset_memos
from repro.sql.parser import parse_script, parse_statement
from repro.sql.plan_cache import (
    PLAN_CACHE_ENTRIES,
    CachedStatement,
    LRUCache,
    PlanCacheEntry,
    ShapeMemo,
    _type_signature,
    normalize_statement,
)
from repro.sql.planner import Planner
from repro.storage.buffer_pool import BufferPool
from repro.storage.catalog import (
    Catalog,
    IndexInfo,
    ProcedureInfo,
    TableInfo,
    ViewInfo,
)
from repro.storage.disk import SimulatedDisk
from repro.storage.heap import HeapFile, RowId
from repro.txn.locks import LockManager, LockMode
from repro.txn.manager import (
    WRITE_KEY_CAP,
    Transaction,
    TransactionManager,
)
from repro.types import (
    ROW_STATS,
    Column,
    SqlType,
    coerce_column,
    row_width_bytes,
)
from repro.wal.log import WriteAheadLog
from repro.wal.records import (
    BeginCheckpointRecord,
    CatalogRecord,
    CheckpointRecord,
    EndCheckpointRecord,
)
from repro.wal.recovery import RecoveryManager, RecoveryReport

_TYPE_ALIASES = {
    "INT": SqlType.INTEGER, "INTEGER": SqlType.INTEGER,
    "SMALLINT": SqlType.INTEGER, "TINYINT": SqlType.INTEGER,
    "BIGINT": SqlType.BIGINT,
    "FLOAT": SqlType.FLOAT, "REAL": SqlType.FLOAT,
    "DOUBLE": SqlType.FLOAT,
    "DECIMAL": SqlType.DECIMAL, "NUMERIC": SqlType.DECIMAL,
    "MONEY": SqlType.DECIMAL,
    "VARCHAR": SqlType.VARCHAR, "TEXT": SqlType.VARCHAR,
    "STRING": SqlType.VARCHAR,  # the paper's CREATE PROCEDURE P (@T string)
    "CHAR": SqlType.CHAR, "CHARACTER": SqlType.CHAR,
    "DATE": SqlType.DATE, "DATETIME": SqlType.DATE,
}


@system_view("sys_tables")
def _sys_tables(engine: "DatabaseEngine"):
    columns = [Column("name", SqlType.VARCHAR, 64),
               Column("table_id", SqlType.INTEGER),
               Column("file_id", SqlType.INTEGER),
               Column("column_count", SqlType.INTEGER)]
    rows = [(t.name, t.table_id, t.file_id, len(t.columns))
            for t in engine.catalog.tables.values()]
    return columns, rows


@system_view("sys_columns")
def _sys_columns(engine: "DatabaseEngine"):
    columns = [Column("table_name", SqlType.VARCHAR, 64),
               Column("name", SqlType.VARCHAR, 64),
               Column("type_name", SqlType.VARCHAR, 16),
               Column("length", SqlType.INTEGER),
               Column("nullable", SqlType.INTEGER),
               Column("position", SqlType.INTEGER)]
    rows = [(t.name, c.name, c.sql_type.value, c.length,
             int(c.nullable), i + 1)
            for t in engine.catalog.tables.values()
            for i, c in enumerate(t.columns)]
    return columns, rows


@system_view("sys_indexes")
def _sys_indexes(engine: "DatabaseEngine"):
    columns = [Column("name", SqlType.VARCHAR, 64),
               Column("table_name", SqlType.VARCHAR, 64),
               Column("column_names", SqlType.VARCHAR, 128),
               Column("is_unique", SqlType.INTEGER),
               Column("entries", SqlType.INTEGER)]
    rows = []
    for ix in engine.catalog.indexes.values():
        # Entry counts come from the live B-tree when the table runtime
        # is already materialized; NULL otherwise — the view must not
        # force a heap load just to count keys.
        runtime = engine._tables.get(ix.table_name)
        entries = None
        if runtime is not None and runtime.has_index(ix.name):
            entries = len(runtime.index_tree(ix.name))
        rows.append((ix.name, ix.table_name, ", ".join(ix.column_names),
                     int(ix.unique), entries))
    # Implicit primary-key indexes live on the runtime, not the catalog;
    # list the materialized ones so every live B-tree is accounted for.
    for runtime in engine._tables.values():
        for info in runtime.indexes():
            if info.name.startswith("__pk_"):
                rows.append((info.name, info.table_name,
                             ", ".join(info.column_names),
                             int(info.unique),
                             len(runtime.index_tree(info.name))))
    return columns, rows


@system_view("sys_table_stats")
def _sys_table_stats(engine: "DatabaseEngine"):
    """ANALYZE output: one row per analyzed column (plus the table's
    row/page counts), straight from the catalog's persisted stats."""
    columns = [Column("table_name", SqlType.VARCHAR, 64),
               Column("column_name", SqlType.VARCHAR, 64),
               Column("row_count", SqlType.INTEGER),
               Column("page_count", SqlType.INTEGER),
               Column("ndv", SqlType.INTEGER),
               Column("null_frac", SqlType.FLOAT),
               Column("min_value", SqlType.VARCHAR, 64),
               Column("max_value", SqlType.VARCHAR, 64),
               Column("histogram_buckets", SqlType.INTEGER),
               Column("stats_version", SqlType.INTEGER)]
    rows = []
    for name in sorted(engine.catalog.table_stats):
        stats = engine.catalog.table_stats[name]
        version = engine.catalog.stats_version_of(name)
        for col in stats.columns:
            hist = col.histogram
            rows.append((name, col.name, stats.row_count, stats.page_count,
                         col.ndv, col.null_frac,
                         None if col.min is None else str(col.min),
                         None if col.max is None else str(col.max),
                         0 if not hist else len(hist) - 1, version))
    return columns, rows


@system_view("sys_procedures")
def _sys_procedures(engine: "DatabaseEngine"):
    columns = [Column("name", SqlType.VARCHAR, 64),
               Column("param_count", SqlType.INTEGER)]
    rows = [(p.name, len(p.param_names))
            for p in engine.catalog.procedures.values()]
    return columns, rows


@system_view("sys_views")
def _sys_views(engine: "DatabaseEngine"):
    columns = [Column("name", SqlType.VARCHAR, 64),
               Column("definition", SqlType.VARCHAR, 512)]
    rows = [(v.name, v.body_sql) for v in engine.catalog.views.values()]
    return columns, rows


# The observability views (sys_traces, sys_metrics, sys_recovery_phases,
# sys_plan_cache) register themselves into the same SYSTEM_VIEWS registry
# when repro.obs.views is imported above.


@dataclass
class _CompiledDml:
    """Host-side compiled form of one DML statement (plan-cache payload).

    Bakes in the target :class:`Table` runtime and the statement's
    compiled closures so a repeat execution skips re-planning entirely.
    Revalidation (catalog versions, temp-table identity) is the enclosing
    :class:`PlanCacheEntry`'s job, exactly as for cached SELECT plans —
    the per-statement parse/plan *virtual* charge is still levied every
    execution, so cached and cold runs meter identically.
    """

    kind: str                           # "insert" | "update" | "delete"
    table: Table
    iterate: object = None              # UPDATE/DELETE row-source factory
    assignments: list = field(default_factory=list)   # (position, fn)
    #: INSERT: table position of each value (None: one per column, in
    #: table order — the only form ``RowShape.build`` takes untouched).
    column_positions: list | None = None
    row_fns: list = field(default_factory=list)   # VALUES row closures
    select_plan: object = None          # INSERT ... SELECT source plan


#: The statements :meth:`DatabaseEngine._execute_planned` plans and runs.
_PLANNED_STATEMENTS = (ast.SelectStatement, ast.UnionSelect,
                       ast.InsertStatement, ast.UpdateStatement,
                       ast.DeleteStatement)

#: Every CREATE and DROP statement :meth:`DatabaseEngine._execute_ddl`
#: runs: the kind of catalog object it makes or removes, and which.
_DDL_STATEMENTS = {
    ast.CreateTableStatement: ("table", True),
    ast.DropTableStatement: ("table", False),
    ast.CreateIndexStatement: ("index", True),
    ast.DropIndexStatement: ("index", False),
    ast.CreateProcedureStatement: ("procedure", True),
    ast.DropProcedureStatement: ("procedure", False),
    ast.CreateViewStatement: ("view", True),
    ast.DropViewStatement: ("view", False),
}


def _stored_rows(plan, source_rows: list, table: Table,
                 positions: list | None) -> list:
    """The rows ``table`` stores for an INSERT's (or a ``CREATE TABLE
    ... AS``'s) ``source_rows``, produced by ``plan`` (None: a VALUES
    list).

    ``RowShape.build`` of each row, except where the source provably
    yields what ``build`` would return: the plan hands on the stored
    tuples of one durable table (:func:`stored_rows_source`), no column
    list reorders them, the two tables' columns have the same runtime
    types, and no NOT NULL column of ``table`` takes a nullable source
    column.  Such a source row's values are each of its column's type
    or NULL, so ``build`` would return the row or an equal tuple and
    raise nothing — and the rows go in as they are, counted as
    conforming.
    """
    source = None if plan is None or positions is not None \
        else stored_rows_source(plan.root)
    if source is not None and source.shape.types == table.shape.types \
            and all(column.nullable or not origin.nullable
                    for origin, column in zip(source.info.columns,
                                              table.info.columns)):
        ROW_STATS["rows_built_fast"] += len(source_rows)
        return source_rows
    build = table.shape.build
    return [build(row, positions) for row in source_rows]


class DatabaseEngine:
    """Executes SQL statements against the storage substrate."""

    def __init__(self, meter: Meter | None = None,
                 disk: SimulatedDisk | None = None,
                 wal: WriteAheadLog | None = None,
                 recover: bool = False):
        self.meter = meter if meter is not None else Meter()
        self.disk = disk if disk is not None else SimulatedDisk()
        self.wal = wal if wal is not None else WriteAheadLog(self.meter)
        self.wal.attach_meter(self.meter)
        self.buffer_pool = BufferPool(self.disk, self.meter, wal=self.wal)
        self.locks = LockManager(meter=self.meter)
        self.locks.on_victim = self._abort_deadlock_victim
        self.catalog = Catalog.restore(
            self.disk.read_blob("catalog_snapshot") if recover else None)
        self._tables: dict[str, Table] = {}
        self._volatile_seq = 0
        # Statement/plan caches — a host-time optimization only: every
        # virtual charge (parse/plan CPU included) is still levied per
        # execution, so cached and cold runs meter identically.
        cap = PLAN_CACHE_ENTRIES
        self._shapes = ShapeMemo(4 * cap)       # shape -> token decisions
        self._stmt_cache = LRUCache(2 * cap)    # template text -> parsed AST
        self._plan_cache = LRUCache(cap)        # (text, sig) -> plan entry
        self.cache_stats = {
            "plan_hits": 0, "plan_misses": 0, "plan_invalidations": 0,
            "stmt_hits": 0, "stmt_misses": 0,
        }
        self.txns = TransactionManager(self.wal, self.locks, self)
        #: Committed writes accumulated since the last
        #: :meth:`pop_version_updates`, as ``table -> (base version, new
        #: version, written primary keys or None for the whole table)``
        #: — the server piggybacks them onto the next
        #: ``ExecuteResponse`` so clients can invalidate shared
        #: result-cache entries transactionally.  Empty (and never
        #: written) while the result cache is off.
        self.pending_version_updates: dict[str, tuple] = {}
        #: Live engine sessions by connection token — lets system views
        #: (``sys_plan_cache``) report per-session temp-plan state.
        self.sessions: dict[int, EngineSession] = {}
        self.last_recovery: RecoveryReport | None = None
        # Fuzzy-checkpoint cadence state (only consulted when the
        # ``checkpoint_interval_seconds`` knob is on).
        self._next_checkpoint_at = 0.0
        self._last_fuzzy_begin_lsn = 0
        #: ``catalog.generation`` of the last catalog snapshot this
        #: incarnation wrote (None: not yet — the first checkpoint after
        #: a restart always writes one).
        self._snapshot_generation: int | None = None
        if recover:
            self.last_recovery = RecoveryManager(self.wal, self).recover()
            if self.last_recovery.fuzzy:
                self._last_fuzzy_begin_lsn = self.last_recovery.checkpoint_lsn
            # ANALYZE persists statistics in their own blob the moment
            # they are collected (unlike DDL they are not WAL-logged), so
            # stats taken after the last checkpoint still survive a crash.
            # Laid over the recovered catalog, they find exactly the
            # tables they were taken from.  What found no table is then
            # dropped from the blob: its table id may be one a lost create
            # took, which the next create takes again.
            if self.catalog.load_stats_snapshot(
                    self.disk.read_blob("table_stats_snapshot")):
                self.disk.write_blob("table_stats_snapshot",
                                     self.catalog.stats_snapshot())
            self._restore_dml_versions()

    @classmethod
    def restart(cls, disk: SimulatedDisk, wal: WriteAheadLog,
                meter: Meter | None = None) -> "DatabaseEngine":
        """Build a post-crash engine from the surviving disk and log."""
        return cls(meter=meter, disk=disk, wal=wal, recover=True)

    # ------------------------------------------------------------------
    # Table runtimes
    # ------------------------------------------------------------------

    def table(self, name: str,
              session: EngineSession | None = None) -> Table:
        """Resolve a table name (``#temp`` names through the session)."""
        key = name.lower()
        if key.startswith("#"):
            if session is None:
                raise TableNotFoundError(
                    f"temp table {name!r} needs a session")
            temp = session.temp_table(key)
            if temp is None:
                raise TableNotFoundError(f"temp table {name!r} does not exist")
            return temp
        if key in SYSTEM_VIEWS:
            return self._system_table(key)
        info = self.catalog.get_table(key)
        return self._runtime(info)

    def _system_table(self, key: str) -> Table:
        """A read-only snapshot of catalog metadata as a queryable table.

        Rebuilt per reference (catalog contents change between queries);
        clients use these like SQL Server's system tables, e.g. the
        Phoenix maintenance tool enumerating orphaned result tables.
        """
        columns, rows = SYSTEM_VIEWS[key](self)
        self._volatile_seq += 1
        file_id = -self._volatile_seq
        self.buffer_pool.register_volatile(file_id)
        info = TableInfo(name=key, table_id=file_id, file_id=file_id,
                         columns=tuple(columns), volatile=True,
                         amplified=False)
        heap = HeapFile(file_id, self._rows_per_page(columns),
                        self.buffer_pool, cost_factor=1.0)
        runtime = Table(info, heap, self.meter)
        runtime.insert_many(rows, None, None)
        return runtime

    def bulk_load(self, table_name: str, rows) -> None:
        """Load ``rows`` into a table in one transaction, without SQL —
        the ``bcp`` of workload setup, on the statement write path."""
        table = self.table(table_name)
        txn = self.txns.begin()
        try:
            table.insert_many(list(map(table.shape.build, rows)), txn,
                              self.txns)
        except Exception:
            self.txns.abort(txn)
            raise
        self.txns.commit(txn)

    def table_provider(self, session: EngineSession | None):
        """Closure handed to the planner for name resolution."""

        def provide(name: str) -> Table:
            return self.table(name, session)

        return provide

    def _planner(self, session: EngineSession | None,
                 params: dict | None) -> Planner:
        """A planner wired to this engine (views + catalog statistics)."""
        return Planner(self.table_provider(session), self.meter,
                       self.catalog, params,
                       view_provider=self.view_provider())

    def _runtime(self, info: TableInfo) -> Table:
        runtime = self._tables.get(info.name)
        if runtime is not None and runtime.info.file_id == info.file_id:
            return runtime
        heap = HeapFile.attach(
            info.file_id, self._rows_per_page(info.columns),
            self.buffer_pool, self.disk, cost_factor=self._factor(info))
        runtime = Table(info, heap, self.meter)
        for index in self.catalog.indexes_on(info.name):
            # Attach-time build: mid-recovery heap state may transiently
            # duplicate a unique key; redo resolves it (see Table.add_index).
            runtime.add_index(index, enforce_unique=False)
        self._tables[info.name] = runtime
        return runtime

    def _rows_per_page(self, columns) -> int:
        return self.meter.costs.rows_per_page(row_width_bytes(list(columns)))

    def _factor(self, info: TableInfo) -> float:
        return self.meter.costs.work_amplification if info.amplified else 1.0

    # ------------------------------------------------------------------
    # Recovery / rollback target interface
    # ------------------------------------------------------------------

    def table_for_file(self, file_id: int) -> Table | None:
        """Table runtime for recovery: lets redo/undo maintain the
        secondary indexes alongside each heap change."""
        for info in self.catalog.tables.values():
            if info.file_id == file_id:
                return self._runtime(info)
        return None

    def apply_catalog(self, record: CatalogRecord,
                      release: bool = True) -> None:
        """Make the catalog hold what ``record`` says — a DDL statement's
        own change, its redo, or its compensation — through
        :meth:`Catalog.apply <repro.storage.catalog.Catalog.apply>`, and
        keep the table runtimes in step.  Idempotent: a create of what
        exists, or a drop of what does not, leaves the catalog as it is.
        A dropped table's files are released either way, unless
        ``release`` is False: a DROP TABLE statement releases them when
        its transaction commits, so a rollback still finds its rows."""
        kind, obj = record.kind, record.obj
        changed = self.catalog.apply(kind, record.create, obj)
        if kind == "table":
            self._tables.pop(obj["name"], None)
            if release and not record.create:
                self._release_file(obj["file_id"])
        elif kind == "index" and changed is not None:
            runtime = self._tables.get(obj["table_name"])
            if runtime is not None:
                if record.create:
                    runtime.add_index(changed)
                else:
                    runtime.remove_index(changed.name)

    def _release_file(self, file_id: int) -> None:
        self.buffer_pool.drop_file(file_id)
        self.disk.drop_file(file_id)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def checkpoint(self) -> int:
        """Sharp checkpoint: flush everything, snapshot the catalog,
        log a checkpoint record.  Returns its LSN."""
        # Checkpoint work reuses ordinary execution's charge notes
        # ("page io", "log force"); the attribution hint is what lets a
        # request's latency ledger bill it as checkpoint overhead.
        with self.meter.attribute_to("checkpoint"):
            self.buffer_pool.flush_all()
            self._write_catalog_snapshot()
            record = CheckpointRecord(
                txn_id=0, active_txns=self.txns.active_txn_lsns())
            lsn = self.wal.append(record)
            self.wal.force()
        return lsn

    def maybe_fuzzy_checkpoint(self) -> None:
        """Cadence hook (called after each commit when the knob is on):
        take a fuzzy checkpoint once the virtual interval has elapsed."""
        interval = self.meter.costs.checkpoint_interval_seconds
        if interval <= 0.0:
            return
        now = self.meter.peek_now()
        if now < self._next_checkpoint_at:
            return
        self._next_checkpoint_at = now + interval
        self.fuzzy_checkpoint()

    def fuzzy_checkpoint(self, truncate: bool = True) -> int:
        """ARIES-style fuzzy checkpoint: Begin/End records around the
        dirty-page and active-transaction tables — **no pool flush, no
        blocking of in-flight transactions**.  Returns the Begin LSN.

        Ordering matters for truncation safety: the background flusher
        runs *before* the dirty-page table is captured, so the DPT logged
        in the End record is exactly the one the truncation decision is
        made from (a stale pre-flush DPT could let recovery's redo start
        point below the truncation boundary).
        """
        with self.meter.attribute_to("checkpoint"):
            return self._fuzzy_checkpoint_inner(truncate)

    def _fuzzy_checkpoint_inner(self, truncate: bool) -> int:
        begin_lsn = self.wal.append(BeginCheckpointRecord(txn_id=0))
        # The catalog snapshot reflects every DDL record below begin_lsn
        # (appends are single-threaded), so redo skips pre-Begin DDL.
        self._write_catalog_snapshot()
        # Redo cannot replay the dirty pages of a table an uncommitted
        # DROP took out of that snapshot: on disk, its undo finds them.
        self.buffer_pool.flush_files_except(
            {info.file_id for info in self.catalog.tables.values()})
        # Background flusher: write out pages that stayed dirty for a
        # whole interval, advancing the DPT's minimum recLSN.
        flushed = self.buffer_pool.flush_dirtied_before(
            self._last_fuzzy_begin_lsn)
        dirty_pages = self.buffer_pool.dirty_page_table()
        end = EndCheckpointRecord(
            txn_id=0, begin_lsn=begin_lsn, dirty_pages=dirty_pages,
            active_txns=self.txns.active_txn_lsns(),
            active_first_lsns=self.txns.active_txn_first_lsns())
        self.wal.append(end)
        # Write-behind force (no commit latency): the checkpoint must be
        # durable before its truncation takes effect.
        self.wal.force(sync=False)
        self.meter.count("checkpoints_taken")
        if flushed:
            self.meter.count("pages_flushed_background", flushed)
        if truncate:
            keep_from = begin_lsn
            if dirty_pages:
                keep_from = min(keep_from, min(dirty_pages.values()))
            if end.active_first_lsns:
                keep_from = min(keep_from,
                                min(end.active_first_lsns.values()))
            if keep_from > 1:
                truncated = self.wal.truncate(
                    keep_from - 1, archive=self._archive_log_records)
                if truncated:
                    self.meter.count("log_records_truncated", truncated)
        self._last_fuzzy_begin_lsn = begin_lsn
        return begin_lsn

    def _write_catalog_snapshot(self) -> None:
        """Checkpoint step: make the catalog durable — unless the blob
        already on disk is this catalog (nothing changed since this
        incarnation last wrote it)."""
        generation = self.catalog.generation
        if generation == self._snapshot_generation:
            self.meter.count("catalog_snapshots_skipped")
            return
        self.disk.write_blob("catalog_snapshot", self.catalog.snapshot())
        self._snapshot_generation = generation
        self.meter.count("catalog_snapshots_written")

    def _archive_log_records(self, records: list) -> None:
        """Truncation sink: fold the dropped prefix's DML-version effect
        into the durable base, and keep nothing else of it.
        ``through_lsn`` guards the fold, so a prefix handed over twice
        is folded once."""
        base = DmlVersionFold.restore(self.disk.read_blob(BASE_BLOB))
        fresh = [rec for rec in records if rec.lsn > base.through_lsn]
        if not fresh:
            return
        base.fold(fresh)
        self.disk.write_blob(BASE_BLOB, base.snapshot())

    def durable_log_stats(self) -> dict[str, int]:
        """What truncation has left on disk (``sys_checkpoint`` rows):
        the base's ``through_lsn``, which counts every record dropped."""
        base = self.disk.read_blob(BASE_BLOB)
        through = base["through_lsn"] if base else 0
        return {"archived_records": through,
                "dml_versions_through_lsn": through}

    # ------------------------------------------------------------------
    # Per-table DML versions (shared result cache invalidation keys)
    # ------------------------------------------------------------------

    def note_committed_writes(self, written: dict) -> None:
        """Commit hook (see ``TransactionManager.commit``): bump the DML
        version of every table the committed transaction wrote and queue
        the bump, with the keys written, for the next response
        piggyback.  Bumps of one table not yet picked up merge: the
        oldest base, the newest version, the union of the keys."""
        pending = self.pending_version_updates
        for name in sorted(written):
            if not version_tracked(name):
                continue
            keys = written[name]
            if type(keys) is str:
                self.meter.count("result_cache.wholesale_writes." + keys)
                keys = None
            base = self.catalog.dml_version_of(name)
            version = self.catalog.bump_dml_version(name)
            if name in pending:
                base, _version, earlier = pending[name]
                if keys is not None and earlier is not None:
                    keys = keys | earlier
                    if len(keys) > WRITE_KEY_CAP:
                        self.meter.count("result_cache.wholesale_writes.cap")
                        keys = None
                else:
                    keys = None
            pending[name] = (base, version, keys)

    def pop_version_updates(self) -> dict[str, tuple]:
        """Drain the committed writes accumulated since the last call."""
        if not self.pending_version_updates:
            return {}
        updates = self.pending_version_updates
        self.pending_version_updates = {}
        return updates

    def _restore_dml_versions(self) -> None:
        """Rebuild ``catalog.dml_versions`` after a crash: the durable
        base (everything log truncation ever dropped, folded at the
        time) plus a fold over the live log.  See
        :mod:`repro.engine.dml_versions` for why this equals replaying
        the full history."""
        state = DmlVersionFold.restore(self.disk.read_blob(BASE_BLOB))
        self.last_recovery.version_records_scanned = state.fold(
            self.wal.all_records())
        self.catalog.dml_versions = state.versions

    # ------------------------------------------------------------------
    # Statement execution
    # ------------------------------------------------------------------

    def prepare(self, sql) -> tuple:
        """The prepared form of one statement (SQL text or pre-parsed
        AST): what :meth:`execute` runs, and what the server keeps of a
        statement that has to wait for a lock.

        Text resolves through the shape memo and the template cache to
        ``(shared template entry, this text's normalization)``; an AST
        has no text to key a plan on and is planned afresh each time.
        """
        if not isinstance(sql, str):
            return CachedStatement(statement=sql), None
        norm = normalize_statement(sql, self._shapes)
        template = norm.text if norm is not None else sql
        cached = self._stmt_cache.get(template)
        if cached is not None:
            self.cache_stats["stmt_hits"] += 1
            return cached, norm
        self.cache_stats["stmt_misses"] += 1
        if norm is not None:
            try:
                statement = parse_statement(template)
            except SqlSyntaxError:
                # The template hid a literal the grammar needed; remember
                # that its texts must be taken verbatim.
                self._shapes.refuse(norm)
                norm, template = None, sql
                statement = parse_statement(sql)
        else:
            statement = parse_statement(sql)
        cached = CachedStatement(statement=statement, text=template)
        self._stmt_cache.put(template, cached)
        return cached, norm

    def execute(self, sql, session: EngineSession,
                params: dict | None = None,
                rerun: bool = False) -> StatementResult:
        """Execute one statement (SQL text, pre-parsed AST, or the
        :meth:`prepare` form of either).

        ``rerun``: the statement was charged its parse/plan, met a lock
        (``LockWaitError``) and runs again from the prepared form its
        holder kept — execution is charged, parsing is not, and what the
        session's transaction had queued stays queued.  Without it the
        call is a *new* statement: a wait the session abandoned is
        withdrawn first.
        """
        prepared, norm = sql if isinstance(sql, tuple) else self.prepare(sql)
        return self._execute_one(prepared, norm, session, params or {},
                                 rerun)

    def _execute_one(self, prepared: CachedStatement, norm,
                     session: EngineSession, params: dict,
                     rerun: bool = False) -> StatementResult:
        """The single entry point every statement funnels through: levy
        the per-statement parse/plan charge, then dispatch.  ``norm`` is
        the current text's normalization (its literal values), never the
        shared template entry's."""
        tracer = self.meter.tracer
        if tracer.enabled:
            with tracer.span(
                    "engine.execute", layer="engine",
                    statement=type(prepared.statement).__name__):
                return self._execute_one_inner(prepared, norm, session,
                                               params, rerun)
        return self._execute_one_inner(prepared, norm, session, params,
                                       rerun)

    def _execute_one_inner(self, prepared: CachedStatement, norm,
                           session: EngineSession, params: dict,
                           rerun: bool) -> StatementResult:
        if not rerun:
            self.meter.charge(SERVER_CPU,
                              self.meter.costs.cpu_per_statement_seconds,
                              "statement parse/plan")
            if session is not None and (self.locks.waiting
                                        or session.queued_txn is not None):
                self.abandon_wait(session)
        txn = session.current_txn if session is not None else None
        if txn is not None and not txn.is_active:
            # The session's transaction was aborted out from under it —
            # chosen as a deadlock victim while another session held the
            # engine.  This check must sit on the single statement
            # funnel: a DML plan would otherwise see ``in_transaction``
            # False and run in a fresh autocommit scope, silently
            # committing the tail of a transaction whose head was just
            # undone.  Every statement fails until an explicit ROLLBACK
            # acknowledges the abort and resets the session.
            if not isinstance(prepared.statement, ast.RollbackStatement):
                raise DeadlockError(
                    f"txn {txn.txn_id} was aborted as a deadlock victim; "
                    f"roll back and retry the transaction")
            session.current_txn = None
            return StatementResult.ok("rolled back")
        if norm is not None:
            merged = norm.params
            if params:
                merged.update(params)
            exec_params = merged
        else:
            exec_params = params
        return self._execute_parsed(prepared, norm, session, exec_params,
                                    params)

    def abandon_wait(self, session: EngineSession) -> None:
        """The statement ``session`` had queued for a lock will not run
        again (cancelled, or another statement arrived instead): take
        its request out of the queue.  An autocommit statement's own
        transaction *is* its place in the queue and goes with it."""
        txn = session.queued_txn
        if txn is not None:
            session.queued_txn = None
            if txn.is_active:
                self.txns.abort(txn)
        elif session.current_txn is not None:
            self.locks.withdraw(session.current_txn.txn_id)

    def _stamp_read_versions(self, result: StatementResult,
                             entry: PlanCacheEntry,
                             session: EngineSession) -> None:
        """Stamp a SELECT result with its read set: for every name of
        the plan's footprint (``entry.footprint``), its DML version and
        the primary-key prefixes the footprint's leaves seek in it this
        execution, the empty prefix standing for all of it (the shared
        result cache's validity certificate).
        ``None`` — the knob-off state — also marks results the shared
        cache must not serve: those depending on temp tables, ``sys_*``
        views or Phoenix overhead tables, and those over a table another
        open transaction has written — they may show its uncommitted
        work (a statement outside a transaction takes no locks at all,
        and no lock stands in for a row someone deleted), which a
        ROLLBACK would take back without a version ever moving."""
        if self.meter.costs.result_cache_entries <= 0:
            return
        footprint = entry.footprint
        names = footprint.names
        if not all(map(version_tracked, names)):
            return
        own = session.current_txn if session is not None else None
        if any(name in txn.modified_tables
               for txn in self.txns.active_transactions.values()
               if txn is not own and txn.modified_tables
               for name in names):
            return
        sought = footprint.prefixes_sought()
        version_of = self.catalog.dml_version_of
        result.read_versions = {
            name: (version_of(name), tuple(sought.get(name, ((),))))
            for name in names}

    # -- plans: SELECT, INSERT, UPDATE, DELETE ------------------------------

    def _execute_planned(self, prepared: CachedStatement, norm,
                         session: EngineSession, params: dict,
                         user_params: dict) -> StatementResult:
        """Plan (through the plan cache when the statement has text) and
        run one SELECT or DML statement.

        The cache key is the template text plus the parameter type
        signature; a hit rebinds the entry's captured params dict in
        place, and entries are revalidated against catalog versions /
        temp-table identity.  A statement without text — a pre-parsed
        AST, a procedure body's — is planned afresh and never stored.
        """
        statement = prepared.statement
        stats = self.meter.executor_stats
        key = None
        if prepared.text is not None:
            sig = norm.signature if norm is not None else ()
            if user_params:
                sig = sig + tuple(sorted(
                    (name, _type_signature(value))
                    for name, value in user_params.items()))
            key = (prepared.text, sig)
            entry = self._lookup_plan(key, session)
            if entry is not None:
                self.cache_stats["plan_hits"] += 1
                self.meter.count("plan_cache_hits")
                # Plan reuse is compiled-expression reuse: every closure
                # in the plan was compiled once, on the miss that
                # created it.
                stats["expr_cache_hits"] = stats.get("expr_cache_hits",
                                                     0) + 1
                # Rebind in place: the plan's compiled closures captured
                # this exact dict.  Subquery memos and the values of
                # per-execution parameter subtrees are cleared so every
                # execution starts from the state a fresh compile would
                # have.
                entry.params.clear()
                entry.params.update(params)
                for subquery in entry.subqueries:
                    subquery.memo.clear()
                reset_memos(entry.param_memos)
                return self._run_entry(entry, session)
            self.cache_stats["plan_misses"] += 1
            self.meter.count("plan_cache_misses")
            stats["expr_cache_misses"] = stats.get("expr_cache_misses",
                                                   0) + 1
        plan_params = dict(params)
        planner = self._planner(session, plan_params)
        if isinstance(statement, (ast.SelectStatement, ast.UnionSelect)):
            plan = planner.plan_select(statement)
            root = plan.root
            streamable = is_streamable_plan(root)
        else:
            plan = self._compile_dml(statement, session, planner)
            root = None
            streamable = False
        entry = PlanCacheEntry(
            plan=plan, params=plan_params,
            subqueries=list(planner.subquery_log),
            param_memos=planner.param_memos,
            table_versions={}, temp_tables={}, streamable=streamable,
            footprint=planner.footprint(root))
        if key is not None:
            self._remember_plan(key, entry, session)
        return self._run_entry(entry, session)

    def _lookup_plan(self, key, session: EngineSession):
        """Find a still-valid cached plan for ``key``, or None."""
        store = self._plan_cache
        entry = store.get(key)
        if entry is None and session is not None:
            store = session.plan_cache
            entry = store.get(key)
        if entry is None:
            return None
        if entry.active > 0:
            # A suspended row stream still reads entry.params; plan fresh
            # rather than rebinding under it.
            return None
        if not entry.is_valid(self.catalog):
            store.pop(key)
            self.cache_stats["plan_invalidations"] += 1
            return None
        for name, runtime in entry.temp_tables.items():
            if session is None or session.temp_table(name) is not runtime:
                store.pop(key)
                self.cache_stats["plan_invalidations"] += 1
                return None
        return entry

    def _remember_plan(self, key, entry: PlanCacheEntry,
                       session: EngineSession) -> None:
        """Record revalidation facts and store the entry (when legal)."""
        names = entry.footprint.names
        if any(name in SYSTEM_VIEWS for name in names):
            return  # sys_* snapshots are rebuilt (and charged) per query
        for name in names:
            if name.startswith("#"):
                runtime = (session.temp_table(name)
                           if session is not None else None)
                if runtime is None:
                    return
                entry.temp_tables[name] = runtime
            else:
                entry.table_versions[name] = self.catalog.version_of(name)
                entry.stats_versions[name] = \
                    self.catalog.stats_version_of(name)
        if entry.temp_tables:
            if session is not None:
                session.plan_cache.put(key, entry)
        else:
            self._plan_cache.put(key, entry)

    def _run_entry(self, entry: PlanCacheEntry,
                   session: EngineSession) -> StatementResult:
        if isinstance(entry.plan, _CompiledDml):
            # A DML statement consumes its row source before returning,
            # so its entry is never left ``active``.
            return self._run_dml(entry.plan, session)
        plan = entry.plan
        if session is not None and session.in_transaction:
            txn = session.current_txn
            self._acquire_read_locks(txn.txn_id,
                                     entry.footprint.base_tables)
            rows = self._probed_rows(plan.root, self._reader_probe(txn))
        else:
            rows = iterate_plan(plan.root, self.meter)
        entry.active += 1

        def guarded_rows():
            try:
                yield from rows
            finally:
                entry.active -= 1

        result = StatementResult.of_rows(plan.output_columns,
                                         guarded_rows())
        result.streamable = entry.streamable
        self._stamp_read_versions(result, entry, session)
        return result

    def _execute_parsed(self, prepared: CachedStatement, norm,
                        session: EngineSession, params: dict,
                        user_params: dict) -> StatementResult:
        statement = prepared.statement
        if isinstance(statement, _PLANNED_STATEMENTS):
            return self._execute_planned(prepared, norm, session, params,
                                         user_params)
        if isinstance(statement, ast.ExplainStatement):
            return self._execute_explain(statement, session, params)
        if isinstance(statement, ast.AnalyzeStatement):
            return self._execute_analyze(statement, session)
        ddl = _DDL_STATEMENTS.get(type(statement))
        if ddl is not None:
            return self._execute_ddl(statement, *ddl, session, params)
        if isinstance(statement, ast.ExecStatement):
            return self._execute_proc(statement, session, params)
        if isinstance(statement, ast.BeginTransactionStatement):
            return self._execute_begin(session)
        if isinstance(statement, ast.CommitStatement):
            return self._execute_commit(session)
        if isinstance(statement, ast.RollbackStatement):
            return self._execute_rollback(session)
        raise EngineError(
            f"unsupported statement {type(statement).__name__}")

    # -- transactions ----------------------------------------------------------

    def _execute_begin(self, session: EngineSession) -> StatementResult:
        if session.in_transaction:
            raise TransactionError("already in a transaction")
        session.current_txn = self.txns.begin()
        return StatementResult.ok("transaction started")

    def _execute_commit(self, session: EngineSession) -> StatementResult:
        if not session.in_transaction:
            raise TransactionError("no transaction to commit")
        self.txns.commit(session.current_txn)
        session.current_txn = None
        return StatementResult.ok("committed")

    def _execute_rollback(self, session: EngineSession) -> StatementResult:
        if not session.in_transaction:
            raise TransactionError("no transaction to roll back")
        self.txns.abort(session.current_txn)
        session.current_txn = None
        return StatementResult.ok("rolled back")

    # -- locking ---------------------------------------------------------------

    def _abort_deadlock_victim(self, txn_id: int) -> None:
        """Deadlock-victim callback wired into the lock manager.

        Runs *inside* another session's lock request: the victim's undo
        executes (and is charged) before the requester unwinds with
        ``LockWaitError``.  The victim is out of every queue from here
        on, so a statement of its the server holds completes at once —
        with the ``DeadlockError`` of the check in
        :meth:`_execute_one_inner`, which also fails every later
        statement of the session until ROLLBACK.
        """
        txn = self.txns.active_transactions.get(txn_id)
        if txn is None or not txn.is_active:
            self.locks.release_all(txn_id)
            return
        self.txns.abort(txn)

    def _acquire_read_locks(self, txn_id: int, names) -> None:
        """Statement-start read locks for an in-transaction SELECT on
        the durable base tables of its footprint, views expanded, in
        name order (which queue a statement joins first must not depend
        on the process's hash seed).

        Tables with a primary key take IS — the executor's lock probe
        then takes row S locks per produced row — while tables without a
        primary key take table S.  View names, temp tables and sys_*
        snapshots take none: nothing writes them.
        """
        for name in names:
            mode = (LockMode.INTENT_SHARED
                    if self.catalog.tables[name].primary_key
                    else LockMode.SHARED)
            self.locks.acquire(txn_id, name, mode)

    def _reader_probe(self, txn: Transaction):
        """Per-row S-lock probe (see ``Meter.lock_probe``).  One probe
        serves one statement: what it needs to know about a table (name,
        key function, whether its rows are locked at all) and the table
        IS lock are resolved at the statement's first row of that
        table."""
        acquire = self.locks.acquire
        acquire_row = self.locks.acquire_row
        txn_id = txn.txn_id
        #: Table -> (name, row -> pk tuple); () when rows are not locked
        tables: dict = {}
        #: tables whose IS lock this statement has requested
        intent: set = set()

        def probe(table: Table, rid: RowId, row: tuple | None) -> None:
            entry = tables.get(table)
            if entry is None:
                info = table.info
                entry = tables[table] = (
                    () if info.volatile or not info.primary_key
                    else (info.name, table.row_lock_key))
            if not entry:
                return
            if not txn.is_active:
                raise DeadlockError(
                    f"txn {txn_id} was aborted as a deadlock victim")
            if row is None:
                # Covering (index-only) scan: the probe must identify the
                # row to lock it, so it reads the heap itself.
                row = table.heap.read(rid)
                if row is None:
                    return
            name, key = entry
            if table not in intent:
                acquire(txn_id, name, LockMode.INTENT_SHARED)
                intent.add(table)
            acquire_row(txn_id, name, key(row), LockMode.SHARED)

        return probe

    def _probed_rows(self, root, probe):
        """Iterate a plan with ``probe`` installed around each pull.

        Install/uninstall brackets every ``next`` so lazily-consumed
        result sets of *other* interleaved sessions can never pick up
        this transaction's probe.
        """
        meter = self.meter
        inner = iterate_plan(root, meter)
        while True:
            meter.lock_probe = probe
            try:
                row = next(inner)
            except StopIteration:
                return
            finally:
                meter.lock_probe = None
            yield row

    class _TxnScope:
        """Runs a statement inside the session txn or an autocommit txn."""

        def __init__(self, engine: "DatabaseEngine", session: EngineSession):
            self._engine = engine
            self._session = session
            self._own = not session.in_transaction
            self.txn: Transaction | None = None
            self._savepoint = 0

        def __enter__(self) -> Transaction:
            if self._own:
                session = self._session
                self.txn, session.queued_txn = session.queued_txn, None
                if self.txn is None:
                    self.txn = self._engine.txns.begin()
                elif not self.txn.is_active:
                    raise DeadlockError(
                        f"txn {self.txn.txn_id} was aborted as a "
                        f"deadlock victim while it waited for a lock")
            else:
                self.txn = self._session.current_txn
                self._savepoint = self.txn.last_lsn
            return self.txn

        def __exit__(self, exc_type, exc, tb) -> None:
            """A failed statement leaves no effects: its own transaction
            aborts; inside an explicit one only the statement's records
            are undone (a lock-wait unwind has logged none).  A lock
            wait keeps the statement's own transaction — it holds the
            place in the queue — for the re-run to pick up."""
            txns = self._engine.txns
            if exc_type is None:
                if self._own:
                    txns.commit(self.txn)
            elif self.txn.is_active:
                if not self._own:
                    txns.rollback_to(self.txn, self._savepoint)
                elif issubclass(exc_type, LockWaitError):
                    self._session.queued_txn = self.txn
                else:
                    txns.abort(self.txn)

    # -- EXPLAIN / ANALYZE --------------------------------------------------

    def _execute_explain(self, statement: ast.ExplainStatement,
                         session: EngineSession,
                         params: dict) -> StatementResult:
        from repro.sql.explain import explain_plan

        planner = self._planner(session, params)
        plan = planner.plan_select(statement.select)
        lines = explain_plan(plan.root)
        columns = [Column("plan", SqlType.VARCHAR, 200)]
        return StatementResult.of_rows(columns,
                                       iter((line,) for line in lines))

    def _execute_analyze(self, statement: ast.AnalyzeStatement,
                         session: EngineSession) -> StatementResult:
        """ANALYZE [table]: collect optimizer statistics.

        The scan charges per-tuple CPU (amplified like any base-table
        work); results land in the catalog (snapshotted at checkpoints)
        *and* in a dedicated blob written immediately, so statistics
        survive a crash that precedes the next checkpoint.  The stats
        version bump invalidates cached plans compiled under stale
        statistics (see :meth:`_remember_plan`).
        """
        from repro.sql.stats import collect_table_stats

        costs = self.meter.costs
        if statement.table is not None:
            names = [self.catalog.get_table(statement.table).name]
        else:
            names = sorted(self.catalog.tables)
        for name in names:
            runtime = self.table(name, session)
            stats = collect_table_stats(
                runtime, buckets=costs.analyze_histogram_buckets)
            per_tuple = costs.cpu_per_tuple_analyze * runtime.cost_factor
            if per_tuple > 0 and stats.row_count:
                self.meter.charge_rows(SERVER_CPU, per_tuple,
                                       stats.row_count, "analyze scan")
            self.catalog.set_table_stats(name, stats)
        if names:
            self.disk.write_blob("table_stats_snapshot",
                                 self.catalog.stats_snapshot())
        return StatementResult.ok(f"analyzed {len(names)} table(s)")

    # -- DML ----------------------------------------------------------------

    def _compile_dml(self, statement: ast.Statement,
                     session: EngineSession,
                     planner: Planner) -> _CompiledDml:
        """Plan one DML statement into reusable compiled artifacts."""
        if isinstance(statement, ast.InsertStatement):
            table = planner.resolve_table(statement.table)
            compiled = _CompiledDml(kind="insert", table=table)
            if statement.select is not None:
                compiled.select_plan = planner.plan_select(statement.select)
            else:
                compiled.row_fns = [
                    [planner.compile_scalar(e) for e in row_exprs]
                    for row_exprs in statement.rows]
            if statement.columns:
                positions = [table.info.column_index(c)
                             for c in statement.columns]
                for i, position in enumerate(positions):
                    if position in positions[:i]:
                        raise EngineError(
                            f"column {table.info.columns[position].name!r}"
                            f" specified more than once in INSERT")
                if positions != list(range(len(table.info.columns))):
                    compiled.column_positions = positions
            return compiled
        iterate, table = planner.plan_dml_source(statement.table,
                                                 statement.where)
        if isinstance(statement, ast.DeleteStatement):
            return _CompiledDml(kind="delete", table=table, iterate=iterate)
        bindings = [(table.info.name, c.name) for c in table.info.columns]
        assignments = []
        for column_name, expr in statement.assignments:
            position = table.info.column_index(column_name)
            assignments.append((position,
                                planner.compile_row_expr(expr, bindings)))
        return _CompiledDml(kind="update", table=table, iterate=iterate,
                            assignments=assignments)

    def _run_dml(self, compiled: _CompiledDml,
                 session: EngineSession) -> StatementResult:
        if compiled.kind == "insert":
            return self._run_insert(compiled, session)
        if compiled.kind == "update":
            return self._run_update(compiled, session)
        return self._run_delete(compiled, session)

    def _run_insert(self, compiled: _CompiledDml,
                    session: EngineSession) -> StatementResult:
        table = compiled.table
        if compiled.select_plan is not None:
            source_rows = list(iterate_plan(compiled.select_plan.root,
                                            self.meter))
        else:
            ctx = EvalContext(row=())
            source_rows = [tuple(fn(ctx) for fn in fns)
                           for fns in compiled.row_fns]
        positions = compiled.column_positions
        with DatabaseEngine._TxnScope(self, session) as txn:
            mode = self._lock_for_write(session, txn, table,
                                        inserting=True)
            # Every row is built before the first one is placed, so a
            # malformed row fails the statement before it mutates.
            rows = _stored_rows(compiled.select_plan, source_rows, table,
                                positions)
            if mode is LockMode.INTENT_EXCLUSIVE \
                    and table.row_lock_key is not None:
                # All row X locks before the first insert too, so a
                # LockWaitError can only unwind a statement that has not
                # mutated anything — the re-run starts from scratch
                # safely.
                name = table.info.name
                for row in rows:
                    self.locks.acquire_row(txn.txn_id, name,
                                           table.row_lock_key(row),
                                           LockMode.EXCLUSIVE)
            table.insert_many(rows, txn, self.txns)
        count = len(rows)
        return StatementResult.of_rowcount(count, f"{count} rows inserted")

    # -- UPDATE / DELETE -----------------------------------------------------

    def _run_update(self, compiled: _CompiledDml,
                    session: EngineSession) -> StatementResult:
        table = compiled.table
        columns = table.info.columns
        with DatabaseEngine._TxnScope(self, session) as txn:
            mode = self._lock_for_write(session, txn, table)
            matches = list(compiled.iterate())
            # Two-phase: compute every new row and take all row X locks
            # before the first update, so a LockWaitError unwinds only
            # statements that have not mutated anything (the matches may
            # also be stale — a retry re-reads them).
            updates = []
            for rid, row in matches:
                new_values = list(row)
                ctx = EvalContext(row=row)
                for position, fn in compiled.assignments:
                    column = columns[position]
                    value = coerce_column(fn(ctx), column)
                    if value is None and not column.nullable:
                        raise EngineError(
                            f"column {column.name!r} is NOT NULL")
                    new_values[position] = value
                updates.append((rid, row, tuple(new_values)))
            if mode is LockMode.INTENT_EXCLUSIVE:
                name = table.info.name
                for _rid, old_row, new_row in updates:
                    old_key = table.row_lock_key(old_row)
                    self.locks.acquire_row(txn.txn_id, name, old_key,
                                           LockMode.EXCLUSIVE)
                    new_key = table.row_lock_key(new_row)
                    if new_key != old_key:
                        self.locks.acquire_row(txn.txn_id, name, new_key,
                                               LockMode.EXCLUSIVE)
            for rid, _old_row, new_row in updates:
                table.update(rid, new_row, txn, self.txns)
            count = len(updates)
        return StatementResult.of_rowcount(count, f"{count} rows updated")

    def _run_delete(self, compiled: _CompiledDml,
                    session: EngineSession) -> StatementResult:
        table = compiled.table
        count = 0
        with DatabaseEngine._TxnScope(self, session) as txn:
            mode = self._lock_for_write(session, txn, table)
            matches = list(compiled.iterate())
            if mode is LockMode.INTENT_EXCLUSIVE:
                # All row X locks before the first delete (see _run_update).
                name = table.info.name
                for _rid, row in matches:
                    self.locks.acquire_row(txn.txn_id, name,
                                           table.row_lock_key(row),
                                           LockMode.EXCLUSIVE)
            for rid, _row in matches:
                table.delete(rid, txn, self.txns)
                count += 1
        return StatementResult.of_rowcount(count, f"{count} rows deleted")

    def _lock_for_write(self, session: EngineSession, txn: Transaction,
                        table: Table, inserting: bool = False
                        ) -> LockMode | None:
        """Take the table-granularity write lock; returns the mode taken.

        Table IX (the caller then takes row X locks) — except where IX
        would not isolate.  A table carrying a *secondary* unique index
        takes X: concurrent writers could race uniqueness checks against
        uncommitted rows.  A table without a primary key has no row
        identity to lock, so UPDATE and DELETE take X; an INSERT into it
        takes IX and no row lock (inserters do not conflict with each
        other, and everything that reads or rewrites such a table takes
        table S or X, which IX excludes).
        """
        info = table.info
        if info.volatile:
            return None
        mode = LockMode.EXCLUSIVE
        if info.primary_key or inserting:
            mode = LockMode.INTENT_EXCLUSIVE
            for index in table.indexes():
                if index.unique and not index.name.startswith("__pk_"):
                    mode = LockMode.EXCLUSIVE
                    break
        self.locks.acquire(txn.txn_id, info.name, mode)
        return mode

    # -- DDL ---------------------------------------------------------------

    def _execute_ddl(self, statement: ast.Statement, kind: str, create: bool,
                     session: EngineSession,
                     params: dict) -> StatementResult:
        """Every CREATE and DROP.  What fails before the transaction
        begins logs nothing (an unknown column type, a query that does
        not plan, a drop of what is not there); a create's name clash is
        found inside it, by :meth:`_change_catalog`.  Tables, with their
        locks, files, rows and charges, go through :meth:`_table_ddl`."""
        name = statement.name.lower()
        if kind == "table":
            if name.startswith("#"):
                return self._temp_table_ddl(statement, name, create, session)
            return self._table_ddl(statement, name, create, session, params)
        if create:
            info = self._new_object(statement, kind, name, session)
        else:
            info = self.catalog.lookup(kind, name)
        with DatabaseEngine._TxnScope(self, session) as txn:
            self._change_catalog(txn, kind, create, info)
        if kind == "procedure" and create:
            self.meter.charge(SERVER_CPU,
                              self.meter.costs.cpu_create_procedure_seconds,
                              "create procedure")
        return StatementResult.ok(
            f"{kind} {name} {'created' if create else 'dropped'}")

    def _change_catalog(self, txn: Transaction, kind: str, create: bool,
                        info) -> None:
        """Check, build the object's image, lock, log it and apply it
        with :meth:`apply_catalog` — the apply redo and undo run, so a
        statement, its redo and its compensation cannot disagree.  The
        X lock is on the table the record names (an index's table), or
        on the view or procedure itself, and is held to the end of the
        transaction: no other session changes what a compensation would
        have to put back.  A dropped table's files stay until its
        transaction commits."""
        if create:
            self.catalog.check_new(kind, info)
        record = CatalogRecord(txn.txn_id, 0, 0, kind, create,
                               self.catalog.image(info))
        self.locks.acquire(txn.txn_id, record.table_name or info.name,
                           LockMode.EXCLUSIVE)
        self.txns.log_catalog(txn, record)
        self.apply_catalog(record, release=False)

    def _table_ddl(self, statement: ast.Statement, name: str, create: bool,
                   session: EngineSession,
                   params: dict) -> StatementResult:
        """CREATE or DROP of a durable table.  A DROP TABLE frees the
        table's files only when its transaction commits.

        ``CREATE TABLE t AS <query>`` shapes ``t`` like the query's
        result: column ``i`` is ``c<i>``, of the query column's type;
        text columns keep the query's length and other types carry
        none, so the table lays out its pages as one created from the
        result's metadata would.  The source is read like ``INSERT ...
        SELECT``'s, and the statement's result is the row count with the
        query's own column metadata."""
        if not create:
            info = self.catalog.lookup("table", name)
            with DatabaseEngine._TxnScope(self, session) as txn:
                self._change_catalog(txn, "table", False, info)
                txn.on_commit.append(partial(self._release_file,
                                             info.file_id))
            return StatementResult.ok(f"table {name} dropped")
        plan = source_rows = None
        if statement.query is None:
            columns = [self._column_from_def(d) for d in statement.columns]
        else:
            plan = self._planner(session, params).plan_select(
                statement.query)
            columns = [Column(f"c{i}", column.sql_type,
                              column.length if column.sql_type.is_text
                              else 0)
                       for i, column in enumerate(plan.output_columns, 1)]
            source_rows = list(iterate_plan(plan.root, self.meter))
        catalog = self.catalog
        info = TableInfo(name=name, table_id=catalog.next_table_id,
                         file_id=catalog.next_file_id,
                         columns=tuple(columns),
                         amplified=not name.startswith(PHOENIX_PREFIX),
                         primary_key=tuple(c.lower()
                                           for c in statement.primary_key))
        with DatabaseEngine._TxnScope(self, session) as txn:
            self._change_catalog(txn, "table", True, info)
            table = self._runtime(catalog.get_table(name))
            if plan is not None:
                self._lock_for_write(session, txn, table, inserting=True)
                table.insert_many(
                    _stored_rows(plan, source_rows, table, None), txn,
                    self.txns)
        # Table creation as the paper measured it (§3.5).
        costs = self.meter.costs
        self.meter.charge(SERVER_CPU, costs.create_table_cpu_seconds,
                          "create table cpu")
        self.meter.charge(SERVER_DISK, costs.create_table_disk_seconds,
                          "create table disk")
        if plan is None:
            return StatementResult.ok(f"table {name} created")
        count = len(source_rows)
        result = StatementResult.of_rowcount(
            count, f"table {name} created, {count} rows")
        result.columns = list(plan.output_columns)
        return result

    def _new_object(self, statement: ast.Statement, kind: str, name: str,
                    session: EngineSession):
        """The index, procedure or view a CREATE makes, worked out before
        its transaction begins."""
        if kind == "index":
            return IndexInfo(name=name, table_name=statement.table.lower(),
                             column_names=tuple(c.lower()
                                                for c in statement.columns),
                             unique=statement.unique)
        if kind == "procedure":
            return ProcedureInfo(name=name,
                                 param_names=tuple(p for p, _type
                                                   in statement.params),
                                 body_sql=statement.body_sql)
        body = parse_statement(statement.body_sql)
        if not isinstance(body, (ast.SelectStatement, ast.UnionSelect)):
            raise PlanningError("a view definition must be a SELECT")
        # Validate the definition by planning it now.
        self._planner(session, None).plan_select(body)
        return ViewInfo(name=name, body_sql=statement.body_sql)

    def _temp_table_ddl(self, statement: ast.Statement, name: str,
                        create: bool,
                        session: EngineSession) -> StatementResult:
        """CREATE or DROP TABLE ``#name``: the session's own table, never
        in the catalog or the log."""
        if not create:
            if session.temp_tables.pop(name, None) is None:
                raise TableNotFoundError(f"temp table {name!r} does not exist")
            return StatementResult.ok(f"temp table {name} dropped")
        if statement.query is not None:
            raise PlanningError("CREATE TABLE ... AS needs a durable table")
        columns = [self._column_from_def(d) for d in statement.columns]
        if session.temp_table(name) is not None:
            raise EngineError(f"temp table {name!r} already exists")
        self._volatile_seq += 1
        file_id = -self._volatile_seq  # negative: never collides with durable
        info = TableInfo(name=name, table_id=file_id, file_id=file_id,
                         columns=tuple(columns), volatile=True,
                         amplified=False,
                         primary_key=tuple(c.lower()
                                           for c in statement.primary_key))
        self.buffer_pool.register_volatile(file_id)
        heap = HeapFile(file_id, self._rows_per_page(columns),
                        self.buffer_pool, cost_factor=1.0)
        session.temp_tables[name] = Table(info, heap, self.meter)
        return StatementResult.ok(f"temp table {name} created")

    def view_provider(self):
        """Closure handed to the planner for view expansion."""

        def provide(name: str):
            info = self.catalog.get_view(name)
            return info.body_sql if info is not None else None

        return provide

    def _execute_proc(self, statement: ast.ExecStatement,
                      session: EngineSession,
                      params: dict) -> StatementResult:
        proc = self.catalog.get_procedure(statement.name)
        planner = self._planner(session, params)
        ctx = EvalContext(row=())
        arg_values = [planner.compile_scalar(a)(ctx) for a in statement.args]
        if len(arg_values) != len(proc.param_names):
            raise EngineError(
                f"procedure {proc.name} expects {len(proc.param_names)} "
                f"arguments, got {len(arg_values)}")
        bound = dict(zip(proc.param_names, arg_values))
        result = StatementResult.ok(f"procedure {proc.name} executed")
        for statement in parse_script(proc.body_sql):
            self.meter.charge(SERVER_CPU,
                              self.meter.costs.cpu_per_statement_seconds,
                              "proc statement")
            result = self._execute_parsed(CachedStatement(statement), None,
                                          session, bound, bound)
        return result

    # -- helpers ---------------------------------------------------------------

    @staticmethod
    def _column_from_def(definition: ast.ColumnDef) -> Column:
        sql_type = _TYPE_ALIASES.get(definition.type_name.upper())
        if sql_type is None:
            raise PlanningError(
                f"unknown column type {definition.type_name!r}")
        length = definition.length
        if sql_type.is_text and length == 0:
            length = 32
        return Column(name=definition.name.lower(), sql_type=sql_type,
                      length=length, nullable=definition.nullable
                      and not definition.primary_key)
