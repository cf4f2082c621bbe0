"""One runnable experiment per table/figure of the paper.

Every experiment builds fresh simulated worlds (identical generated data,
separate servers for native and Phoenix so mutations don't cross), runs
the workload through the driver-manager surface, and returns a dataclass
whose ``format()`` prints a paper-style table.  Absolute numbers are
virtual seconds from the calibrated cost model; EXPERIMENTS.md records
paper-vs-measured shape for each.

``work_amplification`` defaults to ``target_scale / scale`` so that a
laptop-scale run reports SF-1-magnitude times (DESIGN.md §6).

Two kinds of world.  The paper reproductions (Tables 1-4, Figures 3/4/6,
the micro overheads) run the frozen ``paper()`` configuration, through
:func:`make_tpch_world` and :func:`tpcc_cost_model` and nowhere else.
Everything that measures a feature of this system — the tracked mix,
indexbench, optbench, recovery scaling, tpccbench — runs ``CostModel()``,
the system as shipped, and names the options a leg varies.

``benchmarks/test_*.py`` runs each experiment, writes its ``format()`` to
``bench_results/`` and asserts its gates; CI regenerates the directory
and fails on any difference from the committed files.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import pathlib
import random
from dataclasses import dataclass, field

from repro.engine.session import EngineSession
from repro.obs.export import trace_records
from repro.obs.report import latency_section
from repro.phoenix.config import PhoenixConfig
from repro.server.server import DatabaseServer
from repro.sim.costs import CostModel
from repro.sim.meter import Meter
from repro.text_table import format_table
from repro.workloads.app import BenchmarkApp
from repro.workloads.tpch.datagen import TpchData, generate
from repro.workloads.tpch.power import run_power_test
from repro.workloads.tpch.queries import q11, top_n_lineitem
from repro.workloads.tpch.schema import setup_tpch_server
from repro.workloads.tpch.throughput import run_throughput_test
from repro.workloads.tpcc.concurrent import (
    ConcurrentMix,
    build_concurrent_world,
    digest_database,
)
from repro.workloads.tpcc.datagen import TpccScale, generate_tpcc
from repro.workloads.tpcc.driver import (
    choose_transaction,
    collect_transaction_traces,
    run_multiuser,
)
from repro.workloads.tpcc.schema import setup_tpcc_server
from repro.workloads.tpcc.transactions import TRANSACTIONS

DEFAULT_TPCH_SCALE = 0.002
TARGET_SCALE = 1.0


def analyze_off_the_clock(server: DatabaseServer) -> None:
    """Give a loaded paper world what SQL Server 7.0 kept by itself:
    statistics on every table.  One ``ANALYZE`` with the clock paused,
    like the load before it — not part of any measurement, and not part
    of the shared loaders ``benchmarks/e2e`` times as set-up."""
    meter = server.meter
    saved = meter.advance_clock
    meter.advance_clock = False
    try:
        server.engine.execute("ANALYZE", EngineSession(session_id=0))
    finally:
        meter.advance_clock = saved


def _tpch_world(costs: CostModel, scale: float, seed: int,
                analyze: bool = True) -> tuple[DatabaseServer, TpchData]:
    """A fresh TPC-H server priced by ``costs``, its tables analysed
    unless ``analyze`` is off (optbench's first leg)."""
    server = DatabaseServer(meter=Meter(costs))
    data = generate(scale=scale, seed=seed)
    setup_tpch_server(server, data)
    if analyze:
        analyze_off_the_clock(server)
    return server, data


def make_tpch_world(scale: float = DEFAULT_TPCH_SCALE, seed: int = 7,
                    amplification: float | None = None
                    ) -> tuple[DatabaseServer, TpchData]:
    """The paper's TPC-H world: the frozen configuration with
    scale-compensated costs."""
    if amplification is None:
        amplification = TARGET_SCALE / scale
    return _tpch_world(CostModel.paper(work_amplification=amplification),
                       scale, seed)


# ---------------------------------------------------------------------------
# Table 1: TPC-H power test
# ---------------------------------------------------------------------------


@dataclass
class Table1Result:
    scale: float
    rows: list[tuple] = field(default_factory=list)  # label, n, odbc, phx
    native_query_total: float = 0.0
    phoenix_query_total: float = 0.0
    native_update_total: float = 0.0
    phoenix_update_total: float = 0.0

    def format(self) -> str:
        body = []
        for label, result_rows, native, phoenix in self.rows:
            diff = phoenix - native
            ratio = phoenix / native if native else float("inf")
            body.append([label, result_rows, native, phoenix, diff, ratio])
        footers = [
            ["Total (Query)", "", self.native_query_total,
             self.phoenix_query_total,
             self.phoenix_query_total - self.native_query_total,
             self.phoenix_query_total / self.native_query_total],
            ["Total (Updates)", "", self.native_update_total,
             self.phoenix_update_total,
             self.phoenix_update_total - self.native_update_total,
             self.phoenix_update_total / self.native_update_total],
        ]
        return format_table(
            f"Table 1: TPC-H power test (SF {self.scale}, virtual seconds)",
            ["Query/Update", "Result/Updates", "Native ODBC",
             "Phoenix/ODBC", "Difference", "Ratio"],
            body, footers)


def run_table1(scale: float = DEFAULT_TPCH_SCALE,
               seed: int = 7) -> Table1Result:
    native_server, native_data = make_tpch_world(scale, seed)
    native_app = BenchmarkApp(native_server, use_phoenix=False)
    native = run_power_test(native_app, native_data, warm=True)

    phoenix_server, phoenix_data = make_tpch_world(scale, seed)
    phoenix_app = BenchmarkApp(phoenix_server, use_phoenix=True)
    phoenix = run_power_test(phoenix_app, phoenix_data, warm=True)

    result = Table1Result(scale=scale)
    for number in sorted(native.query_seconds):
        result.rows.append((
            f"Q{number:02d}", native.query_rows[number],
            native.query_seconds[number], phoenix.query_seconds[number]))
    result.rows.append(("RF1", native.rf_rows, native.rf1_seconds,
                        phoenix.rf1_seconds))
    result.rows.append(("RF2", native.rf_rows, native.rf2_seconds,
                        phoenix.rf2_seconds))
    result.native_query_total = native.total_query_seconds
    result.phoenix_query_total = phoenix.total_query_seconds
    result.native_update_total = native.total_update_seconds
    result.phoenix_update_total = phoenix.total_update_seconds
    return result


# ---------------------------------------------------------------------------
# Table 2: TPC-H throughput test
# ---------------------------------------------------------------------------


@dataclass
class Table2Result:
    scale: float
    streams: int
    native_elapsed: float
    phoenix_elapsed: float

    @property
    def ratio(self) -> float:
        return self.phoenix_elapsed / self.native_elapsed

    def format(self) -> str:
        rows = [
            ["Elapsed Time for Native ODBC", self.native_elapsed],
            ["Elapsed Time for Phoenix/ODBC", self.phoenix_elapsed],
            ["Difference", self.phoenix_elapsed - self.native_elapsed],
            ["Ratio", self.ratio],
        ]
        return format_table(
            f"Table 2: TPC-H throughput test on {self.streams} streams "
            f"(SF {self.scale}, virtual seconds)",
            ["Metric", "Value"], rows)


def run_table2(scale: float = DEFAULT_TPCH_SCALE, streams: int = 2,
               seed: int = 7) -> Table2Result:
    native_server, native_data = make_tpch_world(scale, seed)
    native_app = BenchmarkApp(native_server, use_phoenix=False)
    native = run_throughput_test(native_app, native_data, streams=streams)

    phoenix_server, phoenix_data = make_tpch_world(scale, seed)
    phoenix_app = BenchmarkApp(phoenix_server, use_phoenix=True)
    phoenix = run_throughput_test(phoenix_app, phoenix_data,
                                  streams=streams)
    return Table2Result(scale=scale, streams=streams,
                        native_elapsed=native.elapsed_seconds,
                        phoenix_elapsed=phoenix.elapsed_seconds)


# ---------------------------------------------------------------------------
# Table 3: SELECT TOP N * FROM LINEITEM response times
# ---------------------------------------------------------------------------

TABLE3_SIZES = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096,
                8192, 16384)


@dataclass
class Table3Result:
    scale: float
    rows: list[tuple] = field(default_factory=list)  # n, native, phoenix

    def format(self) -> str:
        body = [[n, native, phoenix,
                 phoenix / native if native else float("inf")]
                for n, native, phoenix in self.rows]
        return format_table(
            f"Table 3: response time for SELECT TOP N * FROM LINEITEM "
            f"(SF {self.scale}, virtual seconds)",
            ["Result Set Size", "Native ODBC", "Phoenix/ODBC", "Ratio"],
            body)


def run_table3(scale: float = 0.01, sizes: tuple = TABLE3_SIZES,
               seed: int = 7) -> Table3Result:
    """Response time only — the application does not consume results
    ("we are measuring query response time, not client transfer rate")."""
    server, data = make_tpch_world(scale, seed)
    available = len(data.lineitem)
    sizes = tuple(n for n in sizes if n <= available)
    native_app = BenchmarkApp(server, use_phoenix=False)
    phoenix_app = BenchmarkApp(server, use_phoenix=True)
    # Warm the buffer pool so response times measure steady state.
    native_app.run_query(top_n_lineitem(min(available, 4096)),
                         label="warmup")

    result = Table3Result(scale=scale)
    for n in sizes:
        native_time = native_app.run_query(
            top_n_lineitem(n), label=f"native top{n}", fetch=False).seconds
        phoenix_time = phoenix_app.run_query(
            top_n_lineitem(n), label=f"phoenix top{n}",
            fetch=False).seconds
        result.rows.append((n, native_time, phoenix_time))
    return result


# ---------------------------------------------------------------------------
# Figures 3 and 4: session recovery time vs result size
# ---------------------------------------------------------------------------

FIG34_FRACTIONS = (0.30, 0.10, 0.05, 0.02, 0.01, 0.005, 0.002, 0.0)


@dataclass
class RecoveryResult:
    reposition_mode: str
    scale: float
    #: (result size, virtual-session seconds, sql-state seconds)
    rows: list[tuple] = field(default_factory=list)
    #: One dict per measured recovery: ``result_size`` plus the
    #: five-phase breakdown (:data:`repro.obs.RECOVERY_PHASES` keys) —
    #: exported to ``bench_results/recovery_phases.json``.
    breakdowns: list[dict] = field(default_factory=list)

    def format(self) -> str:
        title = ("Figure 3" if self.reposition_mode == "client"
                 else "Figure 4")
        body = [[size, virtual, sql_state, virtual + sql_state]
                for size, virtual, sql_state in self.rows]
        return format_table(
            f"{title}: session recovery time, repositioning at "
            f"{self.reposition_mode} (SF {self.scale}, virtual seconds)",
            ["Result Set Size", "Virtual Session", "SQL State", "Total"],
            body)


def run_recovery_experiment(reposition_mode: str,
                            scale: float = DEFAULT_TPCH_SCALE,
                            fractions: tuple = FIG34_FRACTIONS,
                            seed: int = 7,
                            unread_tuples: int = 3) -> RecoveryResult:
    """Crash the server near the end of a Q11 fetch and measure the two
    recovery phases (§3.4).

    One world serves every fraction (the paper likewise reran the
    experiment against the same database); a fresh Phoenix connection per
    fraction keeps the recovery measurements independent.
    """
    result = RecoveryResult(reposition_mode=reposition_mode, scale=scale)
    seen_sizes = set()
    server, _data = make_tpch_world(scale, seed)
    for fraction in fractions:
        server.restart()  # ensure up after the previous crash cycle
        config = PhoenixConfig(reposition_mode=reposition_mode)
        app = BenchmarkApp(server, use_phoenix=True,
                           phoenix_config=config)
        sql = q11(fraction=fraction)
        size = app.query_rows(f"SELECT count(*) FROM ({sql}) sized")[0][0]
        if size <= unread_tuples or size in seen_sizes:
            continue
        statement = app.manager.alloc_statement(app.conn)
        assert app.manager.exec_direct(statement, sql) == 0
        # Fetch until near the end, stopping at a wire-batch boundary
        # (client buffer drained) so the few unread tuples are still on
        # the server side when it dies — matching the paper, which left
        # the client "waiting for the server to respond to its fetch
        # request".
        consumed = 0
        while consumed < size - unread_tuples:
            rc, _row = app.manager.fetch(statement)
            assert rc == 0
            consumed += 1
            if not statement.result.buffered and consumed >= size * 0.7:
                break
        if statement.result.buffered or statement.result.done:
            continue  # result too small to out-run the client buffer
        seen_sizes.add(size)
        server.crash()
        server.restart()
        rc, _row = app.manager.fetch(statement)
        assert rc == 0
        phases = app.manager.recovery_phase_seconds
        result.rows.append((size, phases.get("virtual_session", 0.0),
                            phases.get("sql_state", 0.0)))
        result.breakdowns.append(
            {"result_size": size,
             **app.manager.recovery_phase_breakdown})
    result.rows.sort()
    result.breakdowns.sort(key=lambda b: b["result_size"])
    return result


def run_fig3(scale: float = DEFAULT_TPCH_SCALE,
             fractions: tuple = FIG34_FRACTIONS) -> RecoveryResult:
    return run_recovery_experiment("client", scale, fractions)


def run_fig4(scale: float = DEFAULT_TPCH_SCALE,
             fractions: tuple = FIG34_FRACTIONS) -> RecoveryResult:
    return run_recovery_experiment("server", scale, fractions)


# ---------------------------------------------------------------------------
# Figure 6: Q11 execute/load times vs result size
# ---------------------------------------------------------------------------


@dataclass
class Fig6Result:
    scale: float
    #: (result size, native execute seconds, phoenix execute+load seconds)
    rows: list[tuple] = field(default_factory=list)

    def format(self) -> str:
        body = [[size, native, phoenix,
                 phoenix / native if native else float("inf")]
                for size, native, phoenix in self.rows]
        return format_table(
            f"Figure 6: Q11 execute/load time, native vs Phoenix "
            f"(SF {self.scale}, virtual seconds)",
            ["Result Set Size", "Native ODBC", "Phoenix/ODBC", "Ratio"],
            body)


def run_fig6(scale: float = DEFAULT_TPCH_SCALE,
             fractions: tuple = FIG34_FRACTIONS,
             seed: int = 7) -> Fig6Result:
    server, _data = make_tpch_world(scale, seed)
    native_app = BenchmarkApp(server, use_phoenix=False)
    phoenix_app = BenchmarkApp(server, use_phoenix=True)
    native_app.run_query(q11(fraction=0.0), label="warmup")

    result = Fig6Result(scale=scale)
    seen = set()
    for fraction in fractions:
        sql = q11(fraction=fraction)
        size = native_app.query_rows(
            f"SELECT count(*) FROM ({sql}) sized")[0][0]
        if size in seen:
            continue
        seen.add(size)
        native_time = native_app.run_query(sql, label=f"native q11",
                                           fetch=False).seconds
        phoenix_app.run_query(sql, label="phoenix q11", fetch=False)
        steps = phoenix_app.manager.persist_step_seconds
        phoenix_time = steps.get("load", 0.0)
        result.rows.append((size, native_time, phoenix_time))
    result.rows.sort()
    return result


# ---------------------------------------------------------------------------
# Table 4: TPC-C
# ---------------------------------------------------------------------------

DEFAULT_TPCC_SCALE = TpccScale(warehouses=2, districts_per_warehouse=10,
                               customers_per_district=30, items=200,
                               initial_orders_per_district=30)


@dataclass
class Table4Result:
    users: int
    rows: list[tuple] = field(default_factory=list)
    # (label, tpmc, cpu_util, disk_util, cpu_ratio)

    def format(self) -> str:
        body = [[label, round(tpmc, 1), f"{cpu:.0%}", f"{disk:.0%}",
                 round(ratio, 2)]
                for label, tpmc, cpu, disk, ratio in self.rows]
        return format_table(
            f"Table 4: TPC-C with {self.users} users "
            f"(virtual-time measurement)",
            ["Experiment", "TPM-C", "CPU UTIL", "DISK UTIL", "CPU RATIO"],
            body)


#: The OLTP calibration of Table 4 (see :func:`tpcc_cost_model`).
TPCC_CALIBRATION = {
    "log_force_seconds": 0.035,
    "create_table_cpu_seconds": 0.0008,
    "create_table_disk_seconds": 0.0015,
    "cpu_create_procedure_seconds": 0.0008,
    "cpu_per_statement_seconds": 0.0003,
    "page_send_seconds": 0.001,
}


def tpcc_cost_model(amplification: float = 6.0) -> CostModel:
    """The OLTP-calibrated cost model for Table 4.

    Under a loaded multi-user server, per-statement and per-DDL *resource
    demand* is much smaller than the cold-case elapsed times of §3.5 (the
    0.321 s create-table figure is dominated by synchronous waiting that
    overlaps across users).  These marginal costs, plus a commit-force
    latency typical of a year-2000 disk, land the native run near the
    paper's operating point: ~350 TPM-C, disk-limited at 100 %, with
    CPU to spare.
    """
    return CostModel.paper(work_amplification=amplification,
                           **TPCC_CALIBRATION)


def _tpcc_run(use_phoenix: bool, cache_rows: int,
              scale: TpccScale, users: int, txn_samples: int,
              amplification: float, measure_seconds: float,
              seed: int):
    server = DatabaseServer(meter=Meter(tpcc_cost_model(amplification)))
    # A small buffer pool keeps TPC-C disk-limited, like the paper's
    # 3-disk server at 100% disk utilization.
    server.engine.buffer_pool.capacity_pages = 48
    data = generate_tpcc(scale, seed=seed)
    setup_tpcc_server(server, data)
    analyze_off_the_clock(server)
    config = None
    if use_phoenix:
        config = PhoenixConfig(client_cache_rows=cache_rows)
    app = BenchmarkApp(server, use_phoenix=use_phoenix,
                       phoenix_config=config)
    traces = collect_transaction_traces(app, scale, count=txn_samples,
                                        seed=seed + 1)
    return run_multiuser(traces, users=users,
                         warmup_seconds=measure_seconds / 4,
                         measure_seconds=measure_seconds, seed=seed + 2)


def run_table4(scale: TpccScale = DEFAULT_TPCC_SCALE, users: int = 32,
               txn_samples: int = 100, amplification: float = 6.0,
               measure_seconds: float = 1200.0,
               seed: int = 5) -> Table4Result:
    result = Table4Result(users=users)
    runs = [
        ("1 Native ODBC", False, 0),
        ("2 Phoenix/ODBC", True, 0),
        ("3 Phoenix/ODBC w/ client caching", True, 200),
    ]
    native_cpu_per_txn = None
    for label, use_phoenix, cache_rows in runs:
        run = _tpcc_run(use_phoenix, cache_rows, scale, users,
                        txn_samples, amplification, measure_seconds,
                        seed)
        if native_cpu_per_txn is None:
            native_cpu_per_txn = run.cpu_seconds_per_txn or 1.0
        ratio = run.cpu_seconds_per_txn / native_cpu_per_txn
        result.rows.append((label, run.tpmc, run.cpu_utilization,
                            run.disk_utilization, ratio))
    return result


# ---------------------------------------------------------------------------
# Micro overheads (§3.4 / §3.5 scalars)
# ---------------------------------------------------------------------------


@dataclass
class MicroResult:
    rows: list[tuple] = field(default_factory=list)  # (name, paper, ours)

    def format(self) -> str:
        body = [[name, paper, ours] for name, paper, ours in self.rows]
        return format_table(
            "Micro overheads: paper vs reproduction (seconds)",
            ["Step", "Paper", "Measured"], body)


def run_micro_overheads(scale: float = DEFAULT_TPCH_SCALE,
                        seed: int = 7) -> MicroResult:
    server, _data = make_tpch_world(scale, seed)
    costs = server.meter.costs
    phoenix_app = BenchmarkApp(server, use_phoenix=True)
    native_app = BenchmarkApp(server, use_phoenix=False)

    sql = q11(fraction=0.0)
    phoenix_app.run_query(sql, label="persist probe", fetch=False)
    steps = phoenix_app.manager.persist_step_seconds

    # Per-tuple fetch costs, measured over a persisted vs native result.
    native_timing = _fetch_per_tuple(native_app, sql)
    phoenix_timing = _fetch_per_tuple(phoenix_app, sql)

    # Virtual-session recovery time: crash the server and let the next
    # request drive recovery (small results are fully client-buffered, so
    # an outstanding fetch alone might never need the server — correct,
    # but not what we want to measure here).
    server.crash()
    server.restart()
    phoenix_app.run_query("SELECT count(*) FROM nation",
                          label="post-crash probe")
    phases = phoenix_app.manager.recovery_phase_seconds

    result = MicroResult()
    result.rows.append(("parse request", 0.00023,
                        costs.client_parse_seconds))
    result.rows.append(("access metadata", 0.00062, steps["metadata"]))
    result.rows.append(("create persistent table", 0.321,
                        steps["create_table"]))
    result.rows.append(("tuple fetch (native)", 0.00380, native_timing))
    result.rows.append(("tuple fetch (persisted)", 0.00397,
                        phoenix_timing))
    result.rows.append(("virtual session recovery", 0.37,
                        phases.get("virtual_session", 0.0)))
    return result


def _fetch_per_tuple(app: BenchmarkApp, sql: str) -> float:
    statement = app.manager.alloc_statement(app.conn)
    assert app.manager.exec_direct(statement, sql) == 0
    fetched = 0
    start = app.meter.now
    while True:
        rc, _row = app.manager.fetch(statement)
        if rc != 0:
            break
        fetched += 1
    elapsed = app.meter.now - start
    app.manager.free_statement(statement)
    return elapsed / max(1, fetched)


# ---------------------------------------------------------------------------
# The tracked mix: one TPC-C flavoured statement stream, default configuration
# ---------------------------------------------------------------------------

#: The repeated point reads of the tracked mix (OLTP steady state).
_MIX_POINT_QUERIES = (
    "SELECT c_balance, c_first, c_middle, c_last FROM customer "
    "WHERE c_w_id = {w} AND c_d_id = {d} AND c_id = {c}",
    "SELECT s_quantity FROM stock WHERE s_w_id = {w} AND s_i_id = {i}",
)

#: A result wider than the client cache, so Phoenix persists it on
#: every repetition.
_MIX_PERSIST_QUERY = (
    "SELECT c_id, c_balance FROM customer "
    "WHERE c_w_id = 1 AND c_d_id = 1 ORDER BY c_id")


@dataclass
class TrackedMixResult:
    virtual_seconds: float
    counters: dict
    cache_stats: dict
    #: Request latency ledger of the run (per-kind SLOs and component
    #: attribution, as ``sys_latency`` shows them).
    latency: object
    #: The run's record stream (:func:`repro.obs.export.trace_records`),
    #: what ``python -m repro.bench report`` renders.
    records: list
    #: SHA-256 over every point-select result: the value-identity
    #: witness when two configurations run the same stream.
    rows_digest: str
    #: What the run was asked for, so the report names its own
    #: configuration.
    point_reads: int
    cost_overrides: dict

    @property
    def source(self) -> str:
        """What the report calls this run."""
        configuration = ", ".join(
            f"{name}={value!r}" for name, value
            in sorted(self.cost_overrides.items())) or "default configuration"
        return (f"tracked mix ({configuration}, "
                f"point_reads={self.point_reads})")

    def format(self) -> str:
        """The report's latency section: per-kind SLO table +
        attribution table."""
        return latency_section(self.records, self.source)


def run_tracked_mix(txns: int = 120, point_reads: int = 2000,
                    persists: int = 8, seed: int = 11,
                    **cost_overrides) -> TrackedMixResult:
    """TPC-C transactions (Phoenix with the §4 client cache), a
    point-read loop and repeated persists of one over-cache result, on
    Table 4's calibration under the default configuration;
    ``cost_overrides`` let a test switch one feature off to compare."""
    costs = CostModel(work_amplification=6.0,
                      **{**TPCC_CALIBRATION, **cost_overrides})
    meter = Meter(costs)
    # The ledger never charges, so the virtual clock is unaffected
    # (tests/test_obs_equivalence.py holds this to the bit), and every
    # run doubles as an accounting-identity check.
    meter.enable_latency_ledger()
    server = DatabaseServer(meter=meter)
    server.engine.buffer_pool.capacity_pages = 48
    scale = DEFAULT_TPCC_SCALE
    setup_tpcc_server(server, generate_tpcc(scale, seed=seed))
    app = BenchmarkApp(server, use_phoenix=True,
                       phoenix_config=PhoenixConfig(client_cache_rows=200))
    # A second driver manager with the client cache off, so its queries
    # go down the full §2.1 persistence pipeline (probe-cache traffic).
    persist_app = BenchmarkApp(server, use_phoenix=True,
                               phoenix_config=PhoenixConfig(
                                   client_cache_rows=0))
    rng = random.Random(seed + 1)

    plan = [(choose_transaction(rng), rng.randint(1, scale.warehouses))
            for _ in range(txns)]
    for name, w_id in plan:
        TRANSACTIONS[name](app, rng, scale, w_id)

    digest = hashlib.sha256()
    for _ in range(point_reads):
        w = rng.randint(1, scale.warehouses)
        d = rng.randint(1, scale.districts_per_warehouse)
        c = rng.randint(1, scale.customers_per_district)
        i = rng.randint(1, scale.items)
        for template in _MIX_POINT_QUERIES:
            digest.update(repr(app.query_rows(
                template.format(w=w, d=d, c=c, i=i))).encode())

    for _ in range(persists):
        persist_app.run_query(_MIX_PERSIST_QUERY, label="persist",
                              fetch=False)

    return TrackedMixResult(
        virtual_seconds=meter.now, counters=dict(meter.counters),
        cache_stats=dict(server.engine.cache_stats),
        latency=meter.latency, records=trace_records(meter),
        rows_digest=digest.hexdigest(),
        point_reads=point_reads, cost_overrides=cost_overrides)


# ---------------------------------------------------------------------------
# Index microbench: pages read by IndexRangeScan vs a heap scan
# ---------------------------------------------------------------------------


@dataclass
class IndexBenchResult:
    """Page-read cost of the same predicates with and without an index.

    The two tables hold identical rows; only ``indexed`` carries a
    primary key on ``id`` and ``ix_indexed_grp (grp, id)``.  The buffer
    pool is kept far smaller than the table so every heap page touched
    becomes a ``disk_io`` charge — the tracked claim is that the index
    path reads strictly fewer pages.
    """

    rows_matched: int
    queries: list = field(default_factory=list)  # (label, rows, pages, s)
    plans: dict = field(default_factory=dict)
    #: The IN-list legs (the same statement on the ``scanned`` and the
    #: ``indexed`` copy): label -> (result rows, heap rows examined,
    #: pages, virtual seconds, index access lines of the plan).
    in_list: dict = field(default_factory=dict)

    def format(self) -> str:
        body = [[label, rows, pages, f"{seconds:.6f}"]
                for label, rows, pages, seconds in self.queries]
        head = format_table(
            "Range predicate: secondary index vs heap scan "
            "(pages = disk_io charges)",
            ["Access path", "Rows", "Pages read", "Virtual s"], body)
        lines = [head, ""]
        for label in sorted(self.plans):
            lines.append(f"plan[{label}]: {self.plans[label]}")
        body = [[label, len(rows), heap_rows, pages, f"{seconds:.6f}"]
                for label, (rows, heap_rows, pages, seconds, _plan)
                in self.in_list.items()]
        lines += ["", format_table(
            f"{INDEXBENCH_IN_KEYS}-key IN-list on a primary key: "
            "multi-point seek vs heap scan",
            ["Access path", "Rows", "Heap rows", "Pages read",
             "Virtual s"], body), ""]
        for label, (*_measured, plan) in self.in_list.items():
            lines += [f"plan[{label}]: {line}" for line in plan]
        return "\n".join(lines)


_INDEXBENCH_DDL = (
    "CREATE TABLE scanned (id INT NOT NULL, grp INT, val INT, "
    "pad CHAR(80))",
    "CREATE TABLE indexed (id INT NOT NULL, grp INT, val INT, "
    "pad CHAR(80), PRIMARY KEY (id))",
)

#: Two adjacent groups out of ``rows / group_size`` — a narrow range
#: whose matches are contiguous in the heap (grp increases with id).
_INDEXBENCH_FETCH = ("SELECT val FROM {name} "
                     "WHERE grp >= 10 AND grp < 12")
_INDEXBENCH_COVER = ("SELECT grp, id FROM {name} "
                     "WHERE grp >= 10 AND grp < 12")


#: Distinct keys of the IN-list leg; the lists repeat one of them.
INDEXBENCH_IN_KEYS = 10
_INDEXBENCH_IN_LIST = ", ".join(
    str(k) for k in (3907, 15, 2048, 977, 15, 3100, 402, 1555, 2600, 88,
                     3333))
_INDEXBENCH_IN_ONE = ("SELECT id, val FROM {name} "
                      f"WHERE id IN ({_INDEXBENCH_IN_LIST})")
#: A self-join, so that both sides have (or lack) the key index: the
#: list names ``a.id`` only and reaches ``b`` over the equality.
_INDEXBENCH_IN_TWO = ("SELECT a.id, a.val, b.grp FROM {name} a, {name} b "
                      f"WHERE b.id = a.id AND a.id IN ({_INDEXBENCH_IN_LIST})")


def _count_heap_rows(table, tally: list) -> None:
    """Count every row ``table``'s heap hands to an access path."""
    heap = table.heap
    read, scan_pages = heap.read, heap.scan_pages

    def counted_read(rid):
        tally[0] += 1
        return read(rid)

    def counted_pages():
        for page_no, page in scan_pages():
            tally[0] += page.live_rows
            yield page_no, page

    heap.read, heap.scan_pages = counted_read, counted_pages


def run_indexbench(rows: int = 4000, group_size: int = 100,
                   pool_pages: int = 8) -> IndexBenchResult:
    """Measure disk pages read by the same statements on an indexed
    and an unindexed copy of one table."""
    server = DatabaseServer(meter=Meter(CostModel()))
    engine = server.engine
    # Shrunk before loading: eviction pressure only applies on page
    # admission, and the measured queries must fault their pages in.
    engine.buffer_pool.capacity_pages = pool_pages
    session = EngineSession(session_id=0)
    meter = server.meter
    saved = meter.advance_clock
    meter.advance_clock = False
    try:
        for ddl in _INDEXBENCH_DDL:
            engine.execute(ddl, session)
        engine.execute(
            "CREATE INDEX ix_indexed_grp ON indexed (grp, id)", session)
        for name in ("scanned", "indexed"):
            engine.bulk_load(
                name, [(i, i // group_size, i * 7 % 997, f"pad-{i}")
                       for i in range(rows)])
        engine.checkpoint()
        engine.execute("ANALYZE", session)
    finally:
        meter.advance_clock = saved

    app = BenchmarkApp(server)
    result = IndexBenchResult(rows_matched=2 * group_size)
    for label, template, name in (
            ("SeqScan + Filter", _INDEXBENCH_FETCH, "scanned"),
            ("IndexRangeScan", _INDEXBENCH_FETCH, "indexed"),
            ("SeqScan + Filter (covering)", _INDEXBENCH_COVER, "scanned"),
            ("IndexRangeScan (index-only)", _INDEXBENCH_COVER, "indexed")):
        sql = template.format(name=name)
        plan = app.query_rows("EXPLAIN " + sql)
        io_before = meter.counters.get("disk_io", 0)
        start = meter.now
        fetched = app.query_rows(sql)
        result.queries.append(
            (label, len(fetched),
             int(meter.counters.get("disk_io", 0) - io_before),
             meter.now - start))
        scan_lines = [line for (line,) in plan if "Scan" in line]
        result.plans[label] = scan_lines[0].strip() if scan_lines \
            else plan[0][0].strip()

    # IN-list legs: scan + filter on the copy without a key index, a
    # seek per distinct key on the one with.
    heap_rows = [0]
    for name in ("scanned", "indexed"):
        _count_heap_rows(engine.table(name), heap_rows)
    for label, template, name in (
            ("SeqScan + Filter IN", _INDEXBENCH_IN_ONE, "scanned"),
            ("SeqScan + Filter IN, joined", _INDEXBENCH_IN_TWO, "scanned"),
            ("IndexSeek IN", _INDEXBENCH_IN_ONE, "indexed"),
            ("IndexSeek IN, transferred", _INDEXBENCH_IN_TWO, "indexed")):
        sql = template.format(name=name)
        plan = [line.strip() for (line,) in app.query_rows("EXPLAIN " + sql)
                if " in=" in line]
        io_before = meter.counters.get("disk_io", 0)
        heap_rows[0] = 0
        start = meter.now
        fetched = app.query_rows(sql)
        result.in_list[label] = (
            fetched, heap_rows[0],
            int(meter.counters.get("disk_io", 0) - io_before),
            meter.now - start, plan)
    return result


@dataclass
class RecoveryScalingResult:
    """Restart-recovery time vs log length under different checkpoint
    regimes.

    One row per (log length, leg): ``none`` never checkpoints (the
    paper's configuration — recovery replays the whole log), ``sharp``
    takes the seed's flush-everything checkpoint every tenth of the run,
    and the ``fuzzy-wN`` legs take non-blocking fuzzy checkpoints on a
    virtual-time cadence with log truncation on and redo charged over N
    simulated workers.  The tracked claim is the tentpole: fuzzy
    recovery time is bounded by the checkpoint interval (flat in log
    length), and redone records track dirty-page recLSNs, not the log.
    """

    #: (records, leg, recovery_s, redo_applied, redo_skipped,
    #:  checkpoints, truncated, workload_s)
    rows: list = field(default_factory=list)
    #: (records, leg) -> fingerprint of recovered table contents
    fingerprints: dict = field(default_factory=dict)

    def format(self) -> str:
        body = [[records, leg, f"{seconds:.6f}", applied, skipped,
                 int(checkpoints), int(truncated)]
                for (records, leg, seconds, applied, skipped,
                     checkpoints, truncated, _workload) in self.rows]
        return format_table(
            "Restart recovery vs log length "
            "(fuzzy checkpoints + partitioned redo)",
            ["Redo records", "Leg", "Recovery s", "Applied", "Skipped",
             "Checkpoints", "Truncated"], body)

    def leg(self, records: int, leg: str) -> tuple:
        for row in self.rows:
            if row[0] == records and row[1] == leg:
                return row
        raise KeyError((records, leg))


#: Partitioned redo parallelizes across heap files, so the workload
#: spreads its updates over this many tables.
RECOVERY_SCALING_TABLES = 4
RECOVERY_SCALING_ROWS = 100
#: Data records per round: 4 tables x UPDATE .. WHERE k < 25.
RECOVERY_SCALING_RECORDS_PER_ROUND = RECOVERY_SCALING_TABLES * 25
#: Fuzzy cadence: enough intervals that the redo tail (~2 intervals,
#: the background flusher's lag) is well under a third of the log.
RECOVERY_SCALING_CHECKPOINTS = 12


def _recovery_scaling_world(costs: CostModel):
    server = DatabaseServer(meter=Meter(costs))
    app = BenchmarkApp(server)
    for t in range(RECOVERY_SCALING_TABLES):
        app.run_statement(
            f"CREATE TABLE r{t} (k INT NOT NULL, v INT, a INT, "
            "PRIMARY KEY (k))")
        app.run_statement(f"INSERT INTO r{t} VALUES " + ", ".join(
            f"({i}, 0, {i % 7})" for i in range(RECOVERY_SCALING_ROWS)))
    return server, app


def _recovery_scaling_round(app: BenchmarkApp) -> None:
    for t in range(RECOVERY_SCALING_TABLES):
        app.run_statement(f"UPDATE r{t} SET v = v + 1 WHERE k < 25")


def _recovery_scaling_leg(rounds: int, mode: str, workers: int = 0,
                          interval: float = 0.0) -> dict:
    """One crash/restart measurement.  ``mode``: none | sharp | fuzzy;
    only a fuzzy leg has a checkpoint cadence or redo workers."""
    server, app = _recovery_scaling_world(CostModel(
        checkpoint_interval_seconds=interval, redo_workers=workers))
    start = server.meter.now
    sharp_every = max(1, rounds // 10)
    for rnd in range(rounds):
        _recovery_scaling_round(app)
        # Never checkpoint on the final round — the crash must land
        # off-cadence so the sharp leg always has a redo tail.
        if mode == "sharp" and (rnd + 1) % sharp_every == 0 \
                and rnd + 1 < rounds:
            server.checkpoint()
    workload_seconds = server.meter.now - start
    server.crash()
    crash_at = server.meter.now
    server.restart()
    elapsed = server.meter.now - crash_at
    report = server.engine.last_recovery
    counters = server.meter.counters
    survivor = BenchmarkApp(server)
    fingerprint = tuple(
        tuple(survivor.query_rows(
            f"SELECT k, v, a FROM r{t} ORDER BY k"))
        for t in range(RECOVERY_SCALING_TABLES))
    return {
        "workload_seconds": workload_seconds,
        "recovery_seconds": elapsed,
        "redo_applied": report.redo_applied,
        "redo_skipped": report.redo_skipped,
        "checkpoints": counters.get("checkpoints_taken", 0.0),
        "truncated": counters.get("log_records_truncated", 0.0),
        "fingerprint": fingerprint,
    }


def run_recovery_scaling(
        lengths: tuple = (1000, 5000, 20000)) -> RecoveryScalingResult:
    """Sweep log length x checkpoint regime; see
    :class:`RecoveryScalingResult`."""
    result = RecoveryScalingResult()
    for records in lengths:
        rounds = max(1, records // RECOVERY_SCALING_RECORDS_PER_ROUND)
        none = _recovery_scaling_leg(rounds, "none")
        # The fuzzy cadence is derived from the measured workload so
        # every length gets the same *number* of checkpoints — that is
        # what makes recovery time flat in log length.
        interval = (none["workload_seconds"]
                    / RECOVERY_SCALING_CHECKPOINTS)
        legs = [("none", none), ("sharp",
                                 _recovery_scaling_leg(rounds, "sharp"))]
        for workers in (1, 2, 4):
            legs.append((f"fuzzy-w{workers}", _recovery_scaling_leg(
                rounds, "fuzzy", workers=workers, interval=interval)))
        for leg_name, leg in legs:
            result.rows.append(
                (records, leg_name, leg["recovery_seconds"],
                 leg["redo_applied"], leg["redo_skipped"],
                 leg["checkpoints"], leg["truncated"],
                 leg["workload_seconds"]))
            result.fingerprints[(records, leg_name)] = leg["fingerprint"]
    return result


# ---------------------------------------------------------------------------
# Optbench: the one planner, before and after ANALYZE
# ---------------------------------------------------------------------------

#: The scale the optimizer gates were calibrated at — large enough that
#: statistics separate the TPC-H join orders, small enough for CI.
OPTBENCH_SCALE = 0.005

#: Top-N over lineitem *with* an ORDER BY (``top_n_lineitem`` has none):
#: the query shape the TopNHeapSort rewrite targets.  The trailing key
#: columns make the ordering total, so every plan must return exactly
#: the same rows.
OPTBENCH_TOPN_QUERY = (
    "SELECT TOP 10 l_orderkey, l_linenumber, l_extendedprice "
    "FROM lineitem "
    "ORDER BY l_extendedprice DESC, l_orderkey, l_linenumber")

#: TPC-H queries whose analysed plans optbench.txt prints, so that a plan
#: change shows as an operator-tree diff: the two widest join lists (Q08,
#: Q09) and the two disjunctions across relations (Q07, Q19).
OPTBENCH_PLANNED_QUERIES = (7, 8, 9, 19)


def tpch_reference_rows(scale: float, seed: int) -> dict[str, list[tuple]]:
    """Result rows of the 22 TPC-H queries (``"Q01"`` ...) and of
    :data:`OPTBENCH_TOPN_QUERY` (``"TOP-N"``) on the ``(scale, seed)``
    dataset, frozen from the FROM-order planner this repo started with
    (EXPERIMENTS.md, "The frozen reference", has the script and the
    commit).  Plans are judged by these rows: whatever the planner
    chooses, the values must not move beyond float-summation order."""
    path = pathlib.Path(__file__).with_name("tpch_reference_rows.json")
    frozen = json.loads(path.read_text())[f"scale={scale} seed={seed}"]

    def cell(value):
        if isinstance(value, dict):
            return datetime.date.fromisoformat(value["date"])
        return value

    return {name: [tuple(cell(v) for v in row) for row in rows]
            for name, rows in frozen.items()}


@dataclass
class OptbenchLeg:
    name: str
    query_seconds: dict[int, float] = field(default_factory=dict)
    query_rows: dict[int, list] = field(default_factory=dict)
    topn_seconds: float = 0.0
    topn_rows: list = field(default_factory=list)
    topn_plan: list[str] = field(default_factory=list)
    query_plans: dict[int, list[str]] = field(default_factory=dict)
    optimizer_counters: dict[str, float] = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        # An explicit loop: optbench.txt prints this to 9 decimals on
        # Python 3.11 and 3.12, and sum() of floats differs between them.
        total = 0.0
        for seconds in self.query_seconds.values():
            total += seconds
        return total + self.topn_seconds


@dataclass
class OptbenchResult:
    scale: float
    seed: int
    unanalyzed: OptbenchLeg = None
    analyzed: OptbenchLeg = None

    def format(self) -> str:
        def row(label, before, after):
            return [label, before, after, after - before,
                    after / before if before else float("inf")]

        before, after = self.unanalyzed, self.analyzed
        body = [row(f"Q{number:02d}", before.query_seconds[number],
                    after.query_seconds[number])
                for number in sorted(before.query_seconds)]
        body.append(row("TOP-N", before.topn_seconds, after.topn_seconds))
        table = format_table(
            f"Optbench: the same planner before and after ANALYZE "
            f"(SF {self.scale}, virtual seconds)",
            ["Query", "Unanalyzed", "Analyzed", "Difference", "Ratio"],
            body, [row("Total", before.total_seconds, after.total_seconds)])
        lines = [table, "", "top-N plan (analyzed leg):"]
        lines += [f"  {line}" for line in after.topn_plan]
        for number, plan in sorted(after.query_plans.items()):
            lines.append(f"Q{number:02d} plan (analyzed leg):")
            lines += [f"  {line}" for line in plan]
        for leg in (before, after):
            lines.append(f"total ({leg.name} leg) = {leg.total_seconds:.9f}")
            lines.append(f"optimizer counters ({leg.name} leg):")
            lines += [f"  {name} = {value:g}" for name, value
                      in sorted(leg.optimizer_counters.items())]
        return "\n".join(lines)


def _optbench_leg(name: str, scale: float, seed: int) -> OptbenchLeg:
    from repro.workloads.tpch.queries import QUERIES

    server, _data = _tpch_world(
        CostModel(work_amplification=TARGET_SCALE / scale), scale, seed,
        analyze=name == "analyzed")
    app = BenchmarkApp(server)
    leg = OptbenchLeg(name=name)
    for number in sorted(QUERIES):
        start = server.meter.now
        leg.query_rows[number] = app.query_rows(QUERIES[number])
        leg.query_seconds[number] = server.meter.now - start
    leg.topn_plan = [str(row[0]) for row in
                     app.query_rows("EXPLAIN " + OPTBENCH_TOPN_QUERY)]
    start = server.meter.now
    leg.topn_rows = app.query_rows(OPTBENCH_TOPN_QUERY)
    leg.topn_seconds = server.meter.now - start
    leg.optimizer_counters = {
        counter: value for counter, value in server.meter.counters.items()
        if counter.startswith("optimizer.")}
    if name == "analyzed":
        # After the counter snapshot: the counters describe the queries.
        for number in OPTBENCH_PLANNED_QUERIES:
            leg.query_plans[number] = [
                str(row[0])
                for row in app.query_rows("EXPLAIN " + QUERIES[number])]
    return leg


def run_optbench(scale: float = OPTBENCH_SCALE,
                 seed: int = 7) -> OptbenchResult:
    """The table-1 power queries plus the Top-N query, planned from
    default estimates and then from statistics, on separately built but
    identically generated worlds.  Virtual timings are deterministic, so
    the deltas are exactly what the statistics are worth, not noise."""
    return OptbenchResult(scale=scale, seed=seed,
                          unanalyzed=_optbench_leg("unanalyzed", scale,
                                                   seed),
                          analyzed=_optbench_leg("analyzed", scale, seed))


# ---------------------------------------------------------------------------
# Tpccbench: the concurrent TPC-C mix, interleaved against its serial reference
# ---------------------------------------------------------------------------

#: (sessions, transactions per session) legs — work per leg stays
#: roughly constant as concurrency rises, so 128 sessions fit CI time.
TPCCBENCH_LEGS = ((8, 4), (32, 2), (128, 1))

#: Shared world scale for every leg (small enough for CI, large enough
#: that sessions genuinely collide on warehouse rows and stock rows).
TPCCBENCH_SCALE = dict(items=100, customers_per_district=10,
                       initial_orders_per_district=5)

_TPCCBENCH_COUNTERS = ("row_locks_acquired", "deadlocks_detected",
                       "lock_wait_seconds", "txn_retries", "wait_episodes",
                       "requeues")


@dataclass
class TpccBenchResult:
    """Virtual-time makespan of identical transaction descriptors run
    serially (one session at a time) and interleaved (one statement per
    session per round, the lock manager arbitrating)."""

    #: (sessions, txns per session, "serial" | "interleaved", MixResult,
    #:  ``locks.*`` counters, per-table digests of the final database)
    rows: list = field(default_factory=list)

    def format(self) -> str:
        body = [[sessions, txns, leg, f"{run.makespan_seconds:.9f}",
                 run.committed,
                 *(f"{locks[name]:.9f}" if name.endswith("seconds")
                   else int(locks[name]) for name in _TPCCBENCH_COUNTERS)]
                for sessions, txns, leg, run, locks, _digests in self.rows]
        table = format_table(
            "Concurrent TPC-C mix: serial vs interleaved, identical "
            "transaction descriptors per leg (virtual seconds)",
            ["Sessions", "Txns", "Leg", "Makespan", "Committed",
             "Row locks", "Deadlocks", "Lock wait", "Retries", "Waits",
             "Requeues"], body)
        return (f"{table}\n\nwaits = episodes: statements the server held "
                "at a lock; requeues = held again after running again")

    def leg(self, sessions: int, leg: str) -> tuple:
        for row in self.rows:
            if row[0] == sessions and row[2] == leg:
                return row
        raise KeyError((sessions, leg))


def run_tpccbench(legs: tuple = TPCCBENCH_LEGS) -> TpccBenchResult:
    """Both legs of every ``(sessions, txns)`` pair, each on its own
    identically built world.  The mix raises ``RuntimeError`` the moment
    nobody can move (a lost wake-up: every live session waiting for a
    lock nobody will release)."""
    result = TpccBenchResult()
    for sessions, txns in legs:
        for leg in ("serial", "interleaved"):
            server, apps, plans, scale = build_concurrent_world(
                sessions, CostModel(), txns_per_session=txns,
                **TPCCBENCH_SCALE)
            mix = ConcurrentMix(server, apps, plans, scale)
            run = mix.run_serial() if leg == "serial" \
                else mix.run_interleaved()
            locks = {name: server.meter.counters.get(f"locks.{name}", 0)
                     for name in _TPCCBENCH_COUNTERS}
            result.rows.append((sessions, txns, leg, run, locks,
                                digest_database(server.engine)))
    return result
