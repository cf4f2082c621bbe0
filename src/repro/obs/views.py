"""Queryable ``sys_*`` views and the registry they plug into.

A system view is a function ``fn(engine) -> (columns, rows)`` registered
under its table name with :func:`system_view`.  The engine resolves any
table name found in :data:`SYSTEM_VIEWS` by materializing the function's
rows into a volatile snapshot table — rebuilt (and charged) per
reference, exactly like SQL Server's system tables.

The engine registers its catalog views (``sys_tables``, ...) in
:mod:`repro.engine.database`; this module registers the observability
views:

* ``sys_traces`` — finished spans of the world's tracer;
* ``sys_metrics`` — every world counter;
* ``sys_locks`` — held table/row locks with modes and waiters, and the
  lock queues: who waits for what, behind whom, for how long;
* ``sys_recovery_phases`` — per-phase virtual-time breakdown of each
  Phoenix session recovery;
* ``sys_plan_cache`` — statement/plan cache statistics, including
  per-session temp-table plan counts and LRU evictions;
* ``sys_executor`` — batch-execution diagnostics: batches per operator
  class, point-lookup fast-path hits, compiled-expression cache traffic;
* ``sys_network``, ``sys_result_cache``, ``sys_optimizer`` — the world
  counters of one family each, declared in :data:`_COUNTER_VIEWS`.

View functions only read engine/meter state; they import nothing from
the engine so the registry itself stays dependency-free.
"""

from __future__ import annotations

from typing import Callable

from repro.types import ROW_STATS, Column, SqlType

#: table name -> fn(engine) -> (columns, rows)
SYSTEM_VIEWS: dict[str, Callable] = {}


def system_view(name: str):
    """Decorator registering a system-view builder under ``name``."""

    def register(fn: Callable) -> Callable:
        SYSTEM_VIEWS[name.lower()] = fn
        return fn

    return register


def _render_attrs(attrs: dict) -> str:
    if not attrs:
        return ""
    text = " ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
    return text[:200]


@system_view("sys_traces")
def _sys_traces(engine):
    columns = [Column("span_id", SqlType.INTEGER),
               Column("parent_id", SqlType.INTEGER),
               Column("name", SqlType.VARCHAR, 48),
               Column("layer", SqlType.VARCHAR, 24),
               Column("kind", SqlType.VARCHAR, 8),
               Column("status", SqlType.VARCHAR, 8),
               Column("start_s", SqlType.FLOAT),
               Column("end_s", SqlType.FLOAT),
               Column("duration_s", SqlType.FLOAT),
               Column("attrs", SqlType.VARCHAR, 200)]
    tracer = engine.meter.tracer
    # The newest spans matter most; cap the snapshot so one view query
    # does not insert tens of thousands of volatile rows.
    recent = list(tracer.finished)[-1000:]
    rows = [(s.span_id, s.parent_id, s.name, s.layer, s.kind, s.status,
             s.start, s.end, s.duration, _render_attrs(s.attrs))
            for s in recent]
    return columns, rows


@system_view("sys_metrics")
def _sys_metrics(engine):
    """Every world counter, one ``counter`` row each (``bucket`` is
    empty: counters are the only metric kind)."""
    columns = [Column("kind", SqlType.VARCHAR, 12),
               Column("name", SqlType.VARCHAR, 64),
               Column("bucket", SqlType.VARCHAR, 16),
               Column("value", SqlType.FLOAT)]
    counters = engine.meter.counters
    return columns, [("counter", name, "", float(counters[name]))
                     for name in sorted(counters)]


@system_view("sys_locks")
def _sys_locks(engine):
    """Who holds what, and who waits for what and for how long.

    One row per (resource, holder) with ``status`` ``granted``, then one
    row per queued request with ``status`` ``waiting``.  ``lock_key`` is
    empty for table-granularity locks and the repr of the primary-key
    tuple for row locks.  On a granted row ``waiters`` lists the
    transactions that have this holder among their blockers; on a
    waiting row ``mode`` is the requested mode, ``queue_position``
    counts from 1 in service order, ``blockers`` lists the transactions
    the request has to outlast (incompatible holders and incompatible
    requests ahead of it) and ``waited_seconds`` is the virtual time
    since it was queued.
    """
    columns = [Column("table_name", SqlType.VARCHAR, 64),
               Column("granularity", SqlType.VARCHAR, 8),
               Column("lock_key", SqlType.VARCHAR, 80),
               Column("mode", SqlType.VARCHAR, 4),
               Column("txn_id", SqlType.INTEGER),
               Column("waiters", SqlType.VARCHAR, 80),
               Column("status", SqlType.VARCHAR, 8),
               Column("queue_position", SqlType.INTEGER),
               Column("blockers", SqlType.VARCHAR, 80),
               Column("waited_seconds", SqlType.FLOAT)]
    locks = engine.locks
    rows = [(table, granularity, key[:80], mode, txn_id, waiters[:80],
             "granted", None, "", None)
            for table, granularity, key, mode, txn_id, waiters
            in locks.snapshot()]
    rows.extend((table, granularity, key[:80], mode, txn_id, "",
                 "waiting", position, blockers[:80], waited)
                for table, granularity, key, mode, txn_id, position,
                blockers, waited in locks.queue_snapshot())
    return columns, rows


@system_view("sys_recovery_phases")
def _sys_recovery_phases(engine):
    columns = [Column("recovery_id", SqlType.INTEGER),
               Column("phase", SqlType.VARCHAR, 24),
               Column("seconds", SqlType.FLOAT),
               Column("finished_at", SqlType.FLOAT)]
    rows = [(record["recovery_id"], phase, seconds,
             record["finished_at"])
            for record in engine.meter.recovery_log
            for phase, seconds in record["phases"]]
    return columns, rows


@system_view("sys_executor")
def _sys_executor(engine):
    """Batch-executor diagnostics.

    Per-world counters come from ``meter.executor_stats`` (kept separate
    from ``meter.counters`` so virtual-output equivalence comparisons are
    not perturbed by host-side bookkeeping); the expression-compiler
    totals (``exprs_compiled``, ``exprs_generated`` and the code memo's
    ``code_memo_hits`` / ``code_memo_misses`` — a plan-time compile
    storm shows up as misses — and ``params_hoisted``, the parameter
    subtrees evaluated once per execution) come from the process-wide
    :data:`repro.sql.expressions.EXPR_STATS`, the write path's
    (``row_shapes_generated``, ``rows_built_fast`` against
    ``rows_built_coerced`` — the page-at-a-time insert only pays off
    where rows arrive already conforming — ``rows_inserted_bulk``,
    ``pages_filled_bulk``) from :data:`repro.types.ROW_STATS`.
    """
    from repro.sql.expressions import EXPR_STATS

    columns = [Column("metric", SqlType.VARCHAR, 48),
               Column("value", SqlType.BIGINT)]
    stats = engine.meter.executor_stats
    rows = [(name, int(stats[name])) for name in sorted(stats)]
    rows += [(name, int(EXPR_STATS[name])) for name in sorted(EXPR_STATS)]
    rows += [(name, int(ROW_STATS[name])) for name in sorted(ROW_STATS)]
    return columns, rows


def _result_cache_census(engine) -> list[tuple[str, int]]:
    """The shared result cache's live entries by read-set precision."""
    cache = getattr(engine.meter, "_shared_result_cache", None)
    if cache is None:
        return []
    return [(f"result_cache.entries.{kind}", count)
            for kind, count in cache.census().items()]


#: Views that are the world counters with the given name prefixes:
#: ``(view, prefixes, value type, metric column width, extra rows)``.
#:
#: * ``sys_network`` — the round-trip ledger kept by
#:   :class:`~repro.server.network.SimulatedNetwork` (``net.*``, with
#:   ``net.requests.<kind>`` / ``net.bytes_up.<kind>`` /
#:   ``net.bytes_down.<kind>`` per request kind) and the driver's
#:   fetch-ahead layer (``prefetch_*``, and ``pipeline_stall_seconds``
#:   for synchronous requests that queued behind in-flight batches).
#:   ``prefetch_overlap_seconds`` is already net of each batch's realized
#:   stall.  A script — a persisted result or a wrapped update on the
#:   default chain — is one ``ExecuteRequest``, however many statements
#:   it runs.
#: * ``sys_result_cache`` — the ``result_cache.*`` counters of
#:   :class:`~repro.phoenix.result_cache.SharedResultCache`: totals plus
#:   the per-table ``hits.<t>`` / ``misses.<t>`` / ``invalidations.<t>``
#:   families, and why an entry died or lived — ``invalidations_by_key``
#:   (evicted by a write that named its keys; the rest of
#:   ``invalidations`` fell to wholesale writes), ``spared`` (entries of
#:   a written table the write did not overlap) and
#:   ``wholesale_writes.<reason>`` (``no_pk`` / ``ddl`` / ``cap`` counted
#:   by the server per committed table write, ``gap`` by the client per
#:   bump that did not start at its mirror).  The live entries by the
#:   precision of their read set follow as
#:   ``result_cache.entries.key_stamped`` / ``.table_stamped``.  Empty
#:   while ``result_cache_entries`` is 0.
#: * ``sys_optimizer`` — the ``optimizer.*`` counters, accumulated at
#:   plan time: plans costed, join orders enumerated, Top-N heap sorts,
#:   sort-merge joins and IN-list seeks chosen, and how often the planner
#:   fell back to defaults because a table was never ANALYZEd.
_COUNTER_VIEWS = (
    ("sys_network", ("net.", "prefetch_", "pipeline_"), SqlType.FLOAT, 64,
     None),
    ("sys_result_cache", ("result_cache.",), SqlType.BIGINT, 80,
     _result_cache_census),
    ("sys_optimizer", ("optimizer.",), SqlType.BIGINT, 64, None),
)


def _counter_view(prefixes: tuple[str, ...], value_type: SqlType,
                  width: int, extra) -> Callable:
    convert = float if value_type is SqlType.FLOAT else int

    def build(engine):
        columns = [Column("metric", SqlType.VARCHAR, width),
                   Column("value", value_type)]
        counters = engine.meter.counters
        rows = [(name, convert(counters[name]))
                for name in sorted(counters) if name.startswith(prefixes)]
        if extra is not None:
            rows = sorted(rows + extra(engine))
        return columns, rows

    return build


for _name, *_spec in _COUNTER_VIEWS:
    system_view(_name)(_counter_view(*_spec))


@system_view("sys_latency")
def _sys_latency(engine):
    """Per-request-kind latency SLOs from the request latency ledger.

    Percentiles are exact (linear interpolation over retained samples,
    see :func:`repro.obs.latency.percentile`), and ``identity_ok``
    reports the ledger-wide accounting identity: 1 iff every closed
    entry's per-component attribution summed bit-exactly to its
    measured latency.  Empty while the world has no ledger
    (``REPRO_TRACE=1`` turns it on).
    """
    columns = [Column("kind", SqlType.VARCHAR, 32),
               Column("count", SqlType.BIGINT),
               Column("wasted", SqlType.BIGINT),
               Column("p50_s", SqlType.FLOAT),
               Column("p95_s", SqlType.FLOAT),
               Column("p99_s", SqlType.FLOAT),
               Column("max_s", SqlType.FLOAT),
               Column("total_s", SqlType.FLOAT),
               Column("hidden_s", SqlType.FLOAT),
               Column("identity_ok", SqlType.INTEGER)]
    ledger = engine.meter.latency
    if ledger is None:
        return columns, []
    ok = 0 if ledger.identity_violations else 1
    return columns, [(r["kind"], r["count"], r["wasted"], r["p50"],
                      r["p95"], r["p99"], r["max"], r["total"],
                      r["hidden"], ok)
                     for r in ledger.records()]


@system_view("sys_sessions")
def _sys_sessions(engine):
    """Live server-side sessions — the volatile state the paper's
    persistent-session machinery exists to reconstruct (temp tables,
    in-flight transaction, session settings, temp-table plans)."""
    columns = [Column("session_id", SqlType.INTEGER),
               Column("temp_tables", SqlType.INTEGER),
               Column("in_transaction", SqlType.INTEGER),
               Column("txn_id", SqlType.INTEGER),
               Column("settings", SqlType.INTEGER),
               Column("temp_plan_entries", SqlType.INTEGER),
               Column("temp_plan_evictions", SqlType.INTEGER)]
    rows = []
    for token in sorted(engine.sessions):
        session = engine.sessions[token]
        txn = session.current_txn
        rows.append((session.session_id, len(session.temp_tables),
                     1 if session.in_transaction else 0,
                     txn.txn_id if session.in_transaction else 0,
                     len(session.settings), len(session.plan_cache),
                     session.plan_cache.evictions))
    return columns, rows


@system_view("sys_checkpoint")
def _sys_checkpoint(engine):
    """Fuzzy-checkpoint / log-truncation observability.

    Counters (``checkpoints_taken``, ``pages_flushed_background``,
    ``log_records_truncated``, ``catalog_snapshots_written`` /
    ``_skipped``) accumulate in the world counters; the remaining rows
    are instantaneous state read straight off the buffer pool, the WAL
    and the disk's DML-version base (``dml_versions_through_lsn``: how
    far truncation has folded the log into it; ``archived_records``:
    how many records truncation has dropped, the same number, since
    LSNs run from 1 and no dropped record is kept), so a query always
    sees the live dirty-page table even between checkpoints.
    """

    columns = [Column("metric", SqlType.VARCHAR, 48),
               Column("value", SqlType.FLOAT)]
    counters = engine.meter.counters
    rows = [(name, float(counters.get(name, 0)))
            for name in ("checkpoints_taken", "pages_flushed_background",
                         "log_records_truncated",
                         "catalog_snapshots_written",
                         "catalog_snapshots_skipped")]
    dirty = engine.buffer_pool.dirty_page_table()
    rows.append(("dirty_pages", float(len(dirty))))
    rows.append(("min_reclsn", float(min(dirty.values(), default=0))))
    checkpoint = engine.wal.last_complete_checkpoint()
    rows.append(("last_checkpoint_lsn",
                 float(checkpoint.lsn if checkpoint is not None else 0)))
    rows.append(("truncated_lsn", float(engine.wal.truncated_lsn)))
    rows.append(("flushed_lsn", float(engine.wal.flushed_lsn)))
    rows.append(("last_lsn", float(engine.wal.last_lsn)))
    rows.extend((name, float(value))
                for name, value in engine.durable_log_stats().items())
    return columns, rows


@system_view("sys_plan_cache")
def _sys_plan_cache(engine):
    columns = [Column("metric", SqlType.VARCHAR, 48),
               Column("value", SqlType.BIGINT)]
    stats = engine.cache_stats
    rows = [(name, int(stats[name])) for name in sorted(stats)]
    rows += [("plan_entries", len(engine._plan_cache)),
             ("plan_evictions", engine._plan_cache.evictions),
             ("stmt_entries", len(engine._stmt_cache)),
             ("stmt_evictions", engine._stmt_cache.evictions),
             ("norm_entries", len(engine._shapes)),
             ("norm_evictions", engine._shapes.evictions)]
    session_entries = 0
    session_evictions = 0
    for token in sorted(engine.sessions):
        cache = engine.sessions[token].plan_cache
        session_entries += len(cache)
        session_evictions += cache.evictions
        if len(cache) or cache.evictions:
            rows.append((f"session_{token}_temp_plans", len(cache)))
            rows.append((f"session_{token}_temp_plan_evictions",
                         cache.evictions))
    rows += [("session_plan_entries", session_entries),
             ("session_plan_evictions", session_evictions)]
    return columns, rows
