"""Per-layer metrics: names, units, directions and how each is computed.

Counts come from public attributes of the system (``Meter.counters``,
``Meter.executor_stats``, ``Meter.seconds_on``, ``engine.cache_stats``,
``buffer_pool.hits/misses``, ``wal.forces/last_lsn/truncated_records``,
``disk.page_reads/page_writes``, ``manager.stats``, ``MixResult``), as the
difference between a snapshot before the first op and one after the last.
Host self times come from the tracer, the virtual split from the latency
ledger of the same traced repetition.

A metric a workload does not define is reported as 0 (the README lists
where each one is defined); ``*_per_op`` divides by the workload's ops.
"""

from __future__ import annotations

from collections import Counter
from statistics import median

# (name, unit, better)
PER_LAYER = (
    # Workload-specific end-to-end metrics: the benchmark contract wants
    # every bounded end-to-end metric from every workload, so these live
    # here, unbounded.
    ("phoenix_overhead_ratio", "ratio", "lower"),
    ("recovery_virt_ms_p50", "ms", "lower"),
    ("recovery_virt_ms_max", "ms", "lower"),
    ("restart_host_ms_p50", "ms", "lower"),
    ("failed_ops_share", "ratio", "lower"),
    ("workloads.host_op_p50_us", "us", "lower"),
    ("workloads.host_op_tail_us", "us", "lower"),
    ("workloads.host_self_ms_per_op", "ms", "lower"),
    ("workloads.host_ops_per_s_raw", "1/s", "higher"),
    ("workloads.setup_raw_s", "s", "lower"),
    ("workloads.calib_ms", "ms", "lower"),
    ("workloads.trace_overhead_ratio", "ratio", "lower"),
    ("phoenix.host_self_ms_per_op", "ms", "lower"),
    ("phoenix.virt_ms_per_op", "ms", "lower"),
    ("phoenix.persisted_results", "count", "lower"),
    ("phoenix.cached_results", "count", "higher"),
    ("phoenix.wrapped_updates", "count", "lower"),
    ("phoenix.recoveries", "count", "lower"),
    ("phoenix.client_cache_hit_ratio", "ratio", "higher"),
    ("phoenix.result_cache_hit_ratio", "ratio", "higher"),
    ("phoenix.result_cache_invalidations", "count", "lower"),
    ("phoenix.meta_probe_hit_ratio", "ratio", "higher"),
    ("phoenix.persist_virt_ms_per_result", "ms", "lower"),
    ("phoenix.recover_host_ms_p50", "ms", "lower"),
    ("phoenix.recovery_virt_ms.failure_detection", "ms", "lower"),
    ("phoenix.recovery_virt_ms.reconnect", "ms", "lower"),
    ("phoenix.recovery_virt_ms.option_replay", "ms", "lower"),
    ("phoenix.recovery_virt_ms.status_probe", "ms", "lower"),
    ("phoenix.recovery_virt_ms.reposition", "ms", "lower"),
    ("odbc.host_self_ms_per_op", "ms", "lower"),
    ("odbc.prefetch_hit_ratio", "ratio", "higher"),
    ("odbc.prefetch_wasted", "count", "lower"),
    ("odbc.prefetch_stall_virt_ms_per_op", "ms", "lower"),
    ("network.requests_per_op", "count", "lower"),
    ("network.bytes_up_per_op", "bytes", "lower"),
    ("network.bytes_down_per_op", "bytes", "lower"),
    ("network.virt_ms_per_op", "ms", "lower"),
    ("network.host_self_ms_per_op", "ms", "lower"),
    ("network.failed_exchanges", "count", "lower"),
    ("server.host_self_ms_per_op", "ms", "lower"),
    ("server.queue_virt_ms_per_op", "ms", "lower"),
    ("engine.host_self_ms_per_op", "ms", "lower"),
    ("engine.virt_ms_per_op", "ms", "lower"),
    ("engine.stmt_cache_hit_ratio", "ratio", "higher"),
    ("engine.checkpoints_taken", "count", "lower"),
    ("engine.checkpoint_host_ms_total", "ms", "lower"),
    ("engine.checkpoint_virt_ms_total", "ms", "lower"),
    ("engine.restart_attach_host_ms_p50", "ms", "lower"),
    ("sql.parse.host_us_per_stmt", "us", "lower"),
    ("sql.parse.calls_per_op", "count", "lower"),
    ("sql.planner.host_ms_per_plan", "ms", "lower"),
    ("sql.planner.plans_per_op", "count", "lower"),
    ("sql.planner.plan_cache_hit_ratio", "ratio", "higher"),
    ("sql.planner.join_orders_considered", "count", "lower"),
    ("sql.planner.stats_missing_fallbacks", "count", "lower"),
    ("sql.planner.parse_plan_virt_ms_per_op", "ms", "lower"),
    ("sql.executor.host_self_ms_per_op", "ms", "lower"),
    ("sql.executor.batches_per_op", "count", "lower"),
    ("sql.executor.seq_scan_batches", "count", "lower"),
    ("sql.executor.index_seeks", "count", "higher"),
    ("sql.executor.point_lookups", "count", "higher"),
    ("sql.executor.expr_cache_hit_ratio", "ratio", "higher"),
    ("txn.locks.host_self_ms_per_op", "ms", "lower"),
    ("txn.locks.row_locks_per_op", "count", "lower"),
    ("txn.locks.escalations", "count", "lower"),
    ("txn.locks.lock_waits", "count", "lower"),
    ("txn.locks.lock_wait_virt_s", "s", "lower"),
    ("txn.locks.deadlocks", "count", "lower"),
    ("txn.locks.txn_retries", "count", "lower"),
    ("txn.locks.useful_stmt_ratio", "ratio", "higher"),
    ("txn.manager.host_self_ms_per_op", "ms", "lower"),
    ("txn.manager.commits_per_op", "count", "lower"),
    ("txn.manager.commit_host_us", "us", "lower"),
    ("wal.log.forces_per_op", "count", "lower"),
    ("wal.log.records_per_op", "count", "lower"),
    ("wal.log.force_virt_ms_per_op", "ms", "lower"),
    ("wal.log.host_self_ms_per_op", "ms", "lower"),
    ("wal.log.records_truncated", "count", "higher"),
    ("wal.recovery.host_ms_p50", "ms", "lower"),
    ("wal.recovery.virt_ms_p50", "ms", "lower"),
    ("wal.recovery.redo_applied_per_restart", "count", "lower"),
    ("wal.recovery.redo_skipped_per_restart", "count", "higher"),
    ("wal.recovery.undo_applied_per_restart", "count", "lower"),
    ("storage.buffer_pool.hit_ratio", "ratio", "higher"),
    ("storage.buffer_pool.get_page_per_op", "count", "lower"),
    ("storage.buffer_pool.pages_flushed_background", "count", "lower"),
    ("storage.buffer_pool.host_self_ms_per_op", "ms", "lower"),
    ("storage.disk.reads_per_op", "count", "lower"),
    ("storage.disk.writes_per_op", "count", "lower"),
    ("storage.disk.virt_ms_per_op", "ms", "lower"),
    ("sim.client_cpu_virt_share", "ratio", "lower"),
    ("sim.network_virt_share", "ratio", "lower"),
    ("sim.server_cpu_virt_share", "ratio", "lower"),
    ("sim.server_disk_virt_share", "ratio", "lower"),
    ("sim.meter_calls_per_op", "count", "lower"),
    ("sim.meter_host_self_ms_per_op", "ms", "lower"),
    ("obs.ledger_overhead_ratio", "ratio", "lower"),
)

RESOURCES = ("client_cpu", "network", "server_cpu", "server_disk")
METER_LEAVES = ("Meter.charge", "Meter.charge_batched",
                "Meter.charge_rows", "Meter.charge_run_list")


def percentile(samples, q: float) -> float:
    """Linear-interpolation percentile, ``q`` in [0, 1]; 0.0 if empty."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_quantile(count: int) -> float:
    """The highest percentile the sample supports: at least ten samples
    beyond it."""
    if count >= 1000:
        return 0.99
    return 0.90 if count >= 100 else 0.75


def ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def snapshot(world) -> Counter:
    """Every count the per-layer metrics use, as one flat Counter."""
    meter = world.meter
    server = world.server
    raw = Counter(meter.counters)
    for key, value in meter.executor_stats.items():
        raw[f"executor.{key}"] = value
    for key, value in world.tally.totals(server.engine).items():
        raw[f"engine.{key}"] = value
    raw["wal.forces"] = server.wal.forces
    raw["wal.last_lsn"] = server.wal.last_lsn
    raw["wal.truncated_records"] = server.wal.truncated_records
    raw["disk.page_reads"] = server.disk.page_reads
    raw["disk.page_writes"] = server.disk.page_writes
    for manager in world.phoenix_managers():
        for key, value in manager.stats.items():
            raw[f"phoenix.{key}"] += value
    return raw


def layer_metrics(rep: dict, tracer, ledger: dict, seconds_on: dict,
                  page_io_virt_s: float) -> dict[str, float]:
    """Every ``PER_LAYER`` value the traced repetition can supply; the
    runner fills in those that need the untraced repetitions (they stay
    0.0 here).  ``rep`` is the repetition's record, ``ledger`` the
    latency ledger's component totals, ``seconds_on`` the clocked virtual
    seconds per resource."""
    ops = rep["ops"]
    counts = Counter(rep["counts"])
    self_ms = {layer: ns / 1e6
               for layer, ns in tracer.layer_self_ns().items()}
    leaves = tracer.leaf_counts()
    charged = sum(seconds_on.values())
    observed = rep["observed"]
    crashes = observed.get("crashes", [])
    phoenix = rep["phoenix"]
    m = dict.fromkeys((name for name, _unit, _better in PER_LAYER), 0.0)

    def per_op(value: float) -> float:
        return value / ops

    def span_ms(name: str) -> list[float]:
        return [(s.end - s.start) / 1e6 for s in tracer.named(name)]

    # -- workload-specific end-to-end ---------------------------------------
    legs = observed.get("leg_virt_s")
    if legs:
        m["phoenix_overhead_ratio"] = legs["phoenix"] / legs["native"]
    if crashes:
        pauses = [(c["restart_virt_s"] + c["recovery_virt_s"]) * 1e3
                  for c in crashes]
        m["recovery_virt_ms_p50"] = median(pauses)
        m["recovery_virt_ms_max"] = max(pauses)

    # -- workloads --------------------------------------------------------
    m["workloads.host_self_ms_per_op"] = per_op(self_ms.get("workloads", 0))

    # -- phoenix ----------------------------------------------------------
    m["phoenix.host_self_ms_per_op"] = per_op(self_ms.get("phoenix", 0))
    m["phoenix.virt_ms_per_op"] = per_op(seconds_on["client_cpu"] * 1e3)
    for key in ("persisted_results", "cached_results", "wrapped_updates",
                "recoveries"):
        m[f"phoenix.{key}"] = counts[f"phoenix.{key}"]
    m["phoenix.client_cache_hit_ratio"] = ratio(
        counts["phoenix.cached_results"],
        counts["phoenix.persisted_results"])
    m["phoenix.result_cache_hit_ratio"] = ratio(
        counts["result_cache.hits"], counts["result_cache.misses"])
    m["phoenix.result_cache_invalidations"] = \
        counts["result_cache.invalidations"]
    m["phoenix.meta_probe_hit_ratio"] = ratio(
        counts["meta_probe_hits"], counts["meta_probe_misses"])
    persists = phoenix["persist_virt_s"]
    if persists:
        m["phoenix.persist_virt_ms_per_result"] = \
            sum(persists) * 1e3 / len(persists)
    recover_ms = span_ms("SessionRecovery.recover_connection")
    if recover_ms:
        m["phoenix.recover_host_ms_p50"] = median(recover_ms)
    if phoenix["recoveries"]:
        for phase, seconds in phoenix["phase_virt_s"].items():
            m[f"phoenix.recovery_virt_ms.{phase}"] = \
                seconds * 1e3 / phoenix["recoveries"]

    # -- odbc / network / server ------------------------------------------
    m["odbc.host_self_ms_per_op"] = per_op(self_ms.get("odbc", 0))
    m["odbc.prefetch_hit_ratio"] = ratio(counts["prefetch_hits"],
                                         counts["prefetch_wasted"])
    m["odbc.prefetch_wasted"] = counts["prefetch_wasted"]
    m["odbc.prefetch_stall_virt_ms_per_op"] = per_op(
        ledger.get("prefetch_stall", 0.0) * 1e3)
    m["network.requests_per_op"] = per_op(counts["net.requests_sent"])
    m["network.bytes_up_per_op"] = per_op(counts["net.wire_bytes_up"])
    m["network.bytes_down_per_op"] = per_op(counts["net.wire_bytes_down"])
    m["network.virt_ms_per_op"] = per_op(
        (ledger.get("net_uplink", 0.0) + ledger.get("net_downlink", 0.0))
        * 1e3)
    m["network.host_self_ms_per_op"] = per_op(self_ms.get("network", 0))
    m["network.failed_exchanges"] = sum(
        1 for s in tracer.spans if s.layer == "network" and s.error)
    m["server.host_self_ms_per_op"] = per_op(self_ms.get("server", 0))
    m["server.queue_virt_ms_per_op"] = per_op(
        ledger.get("server_queue", 0.0) * 1e3)

    # -- engine -----------------------------------------------------------
    m["engine.host_self_ms_per_op"] = per_op(self_ms.get("engine", 0))
    m["engine.virt_ms_per_op"] = per_op(
        ledger.get("engine_execute", 0.0) * 1e3)
    m["engine.stmt_cache_hit_ratio"] = ratio(counts["engine.stmt_hits"],
                                             counts["engine.stmt_misses"])
    m["engine.checkpoints_taken"] = counts["checkpoints_taken"]
    m["engine.checkpoint_host_ms_total"] = sum(
        span_ms("DatabaseEngine.checkpoint")
        + span_ms("DatabaseEngine.fuzzy_checkpoint"))
    m["engine.checkpoint_virt_ms_total"] = \
        ledger.get("checkpoint", 0.0) * 1e3
    recover_ns = {s.parent: s.end - s.start
                  for s in tracer.named("RecoveryManager.recover")}
    attach_ms = [(s.end - s.start - recover_ns.get(index, 0)) / 1e6
                 for index, s in enumerate(tracer.spans)
                 if s.name == "DatabaseServer.restart"]
    if attach_ms:
        m["engine.restart_attach_host_ms_p50"] = median(attach_ms)

    # -- sql --------------------------------------------------------------
    parses = (tracer.named("parse_statement")
              + tracer.named("normalize_statement"))
    if parses:
        m["sql.parse.host_us_per_stmt"] = \
            sum(s.end - s.start for s in parses) / 1e3 / len(parses)
    m["sql.parse.calls_per_op"] = per_op(len(parses))
    plans = span_ms("Planner.plan_select") \
        + span_ms("Planner.plan_dml_source")
    if plans:
        m["sql.planner.host_ms_per_plan"] = sum(plans) / len(plans)
    m["sql.planner.plans_per_op"] = per_op(len(plans))
    m["sql.planner.plan_cache_hit_ratio"] = ratio(
        counts["engine.plan_hits"], counts["engine.plan_misses"])
    m["sql.planner.join_orders_considered"] = \
        counts["optimizer.join_orders_considered"]
    m["sql.planner.stats_missing_fallbacks"] = \
        counts["optimizer.stats_missing_fallbacks"]
    m["sql.planner.parse_plan_virt_ms_per_op"] = per_op(
        ledger.get("parse_plan", 0.0) * 1e3)
    m["sql.executor.host_self_ms_per_op"] = per_op(
        self_ms.get("sql.executor", 0))
    m["sql.executor.batches_per_op"] = per_op(sum(
        value for key, value in counts.items()
        if key.startswith("executor.batches.")))
    m["sql.executor.seq_scan_batches"] = counts["executor.batches.SeqScan"]
    m["sql.executor.index_seeks"] = counts["executor.index_seeks"]
    m["sql.executor.point_lookups"] = counts["executor.point_lookups"]
    m["sql.executor.expr_cache_hit_ratio"] = ratio(
        counts["executor.expr_cache_hits"],
        counts["executor.expr_cache_misses"])

    # -- txn --------------------------------------------------------------
    m["txn.locks.host_self_ms_per_op"] = per_op(self_ms.get("txn.locks", 0))
    m["txn.locks.row_locks_per_op"] = per_op(
        counts["locks.row_locks_acquired"])
    m["txn.locks.escalations"] = counts["locks.escalations"]
    m["txn.locks.lock_wait_virt_s"] = counts["locks.lock_wait_seconds"]
    if "executed" in observed:
        m["txn.locks.lock_waits"] = observed["lock_waits"]
        m["txn.locks.deadlocks"] = observed["deadlocks"]
        m["txn.locks.txn_retries"] = observed["txn_retries"]
        m["txn.locks.useful_stmt_ratio"] = \
            observed["useful"] / observed["executed"]
    m["txn.manager.host_self_ms_per_op"] = per_op(
        self_ms.get("txn.manager", 0))
    commits = span_ms("TransactionManager.commit")
    m["txn.manager.commits_per_op"] = per_op(len(commits))
    if commits:
        m["txn.manager.commit_host_us"] = sum(commits) * 1e3 / len(commits)

    # -- wal --------------------------------------------------------------
    m["wal.log.forces_per_op"] = per_op(counts["wal.forces"])
    m["wal.log.records_per_op"] = per_op(counts["wal.last_lsn"])
    m["wal.log.force_virt_ms_per_op"] = per_op(
        ledger.get("wal_force", 0.0) * 1e3)
    m["wal.log.host_self_ms_per_op"] = per_op(self_ms.get("wal.log", 0))
    m["wal.log.records_truncated"] = counts["wal.truncated_records"]
    recover_host = span_ms("RecoveryManager.recover")
    if recover_host:
        m["wal.recovery.host_ms_p50"] = median(recover_host)
    if crashes:
        m["wal.recovery.virt_ms_p50"] = median(
            c["restart_virt_s"] for c in crashes) * 1e3
        for key in ("redo_applied", "redo_skipped", "undo_applied"):
            m[f"wal.recovery.{key}_per_restart"] = \
                sum(c[key] for c in crashes) / len(crashes)

    # -- storage ----------------------------------------------------------
    m["storage.buffer_pool.hit_ratio"] = ratio(
        counts["engine.pool_hits"], counts["engine.pool_misses"])
    m["storage.buffer_pool.get_page_per_op"] = per_op(
        counts["engine.pool_hits"] + counts["engine.pool_misses"])
    m["storage.buffer_pool.pages_flushed_background"] = \
        counts["pages_flushed_background"]
    m["storage.buffer_pool.host_self_ms_per_op"] = per_op(
        self_ms.get("storage.buffer_pool", 0))
    m["storage.disk.reads_per_op"] = per_op(counts["disk.page_reads"])
    m["storage.disk.writes_per_op"] = per_op(counts["disk.page_writes"])
    m["storage.disk.virt_ms_per_op"] = per_op(
        page_io_virt_s * 1e3)

    # -- sim / obs --------------------------------------------------------
    if charged:
        for resource in RESOURCES:
            m[f"sim.{resource}_virt_share"] = \
                seconds_on[resource] / charged
    m["sim.meter_calls_per_op"] = per_op(
        sum(leaves.get(name, 0) for name in METER_LEAVES))
    m["sim.meter_host_self_ms_per_op"] = per_op(self_ms.get("sim", 0))
    return m
