"""World construction: one fresh simulated server per repetition.

Dataset seeds are pinned.  ``--seed`` drives op order, keys and crash
points only, because TPC-H Q20 alone swings between 2 ms and 129 s of
host time with the generated data (see README, "The Q20 cliff").
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from bench_profile import (
    TPCC_CALIBRATION,
    ProfileReport,
    cost_model,
    phoenix_config,
)
from repro.server.server import DatabaseServer
from repro.sim.meter import Meter
from repro.workloads.app import BenchmarkApp
from repro.workloads.tpcc.datagen import TpccScale, generate_tpcc
from repro.workloads.tpcc.schema import setup_tpcc_server
from repro.workloads.tpch.datagen import generate
from repro.workloads.tpch.schema import setup_tpch_server

TPCH_DATASET_SEED = 7
TPCC_DATASET_SEED = 11
#: 247 data pages at the full size: fits the default 4096-page pool.
TPCH_SCALE = 0.002
TPCH_SCALE_QUICK = 0.0005
TPCH_TABLES = ("region", "nation", "supplier", "part", "partsupp",
               "customer", "orders", "lineitem")

#: 83 data pages; ``SMALL_POOL_PAGES`` keeps the OLTP legs disk-limited
#: like the paper's Table 4 server.
TPCC_SCALE = TpccScale(warehouses=2, districts_per_warehouse=10,
                       customers_per_district=30, items=200,
                       initial_orders_per_district=30)
SMALL_POOL_PAGES = 48

#: ``oltp_concurrent``: 16 sessions, two per warehouse, and no lock
#: escalation.  With all 16 on two warehouses, or with escalation at its
#: default of 64 row locks, the mix degenerates into deadlock-retry
#: storms whose makespan moves +-10 % and whose latency percentiles move
#: +-25 % with the schedule alone; no regression bound holds on that
#: (README, "Lock escalation storms").
CONCURRENT_SCALE = TpccScale(warehouses=8, districts_per_warehouse=2,
                             customers_per_district=30, items=200,
                             initial_orders_per_district=30)
NO_ESCALATION = {"lock_escalation_threshold": 1_000_000}

LEDGER_ROWS = 500


class EngineTally:
    """Engine-level statistics die with each crashed engine incarnation;
    they are banked here first so counts cover the whole repetition."""

    def __init__(self) -> None:
        self.banked: Counter = Counter()

    @staticmethod
    def read(engine) -> Counter:
        tally = Counter(engine.cache_stats)
        tally["pool_hits"] = engine.buffer_pool.hits
        tally["pool_misses"] = engine.buffer_pool.misses
        return tally

    def bank(self, engine) -> None:
        self.banked.update(self.read(engine))

    def totals(self, engine) -> Counter:
        return self.banked + self.read(engine)


@dataclass
class World:
    """One server plus the sessions a workload drives."""

    server: DatabaseServer
    report: ProfileReport
    data: object
    apps: dict[str, BenchmarkApp] = field(default_factory=dict)
    tally: EngineTally = field(default_factory=EngineTally)

    @property
    def meter(self) -> Meter:
        return self.server.meter

    def connect(self, name: str,
                client_cache_rows: int | None) -> BenchmarkApp:
        """Open a session: native when ``client_cache_rows`` is None,
        else Phoenix with that §4 client-cache size."""
        if client_cache_rows is None:
            app = BenchmarkApp(self.server, use_phoenix=False, login=name)
        else:
            app = BenchmarkApp(
                self.server, use_phoenix=True,
                phoenix_config=phoenix_config(self.report,
                                              client_cache_rows),
                login=name)
        self.apps[name] = app
        return app

    def phoenix_managers(self) -> list:
        return [app.manager for app in self.apps.values()
                if app.use_phoenix]


def tpch_world(quick: bool) -> World:
    """TPC-H with costs amplified to SF 1 magnitude, statistics collected
    and the pool warmed so both legs of ``olap_power`` see the same cache
    state."""
    scale = TPCH_SCALE_QUICK if quick else TPCH_SCALE
    report = ProfileReport()
    costs = cost_model(report, {"work_amplification": 1.0 / scale})
    server = DatabaseServer(meter=Meter(costs))
    data = generate(scale=scale, seed=TPCH_DATASET_SEED)
    setup_tpch_server(server, data)
    world = World(server, report, data)
    setup = world.connect("setup", None)
    setup.run_statement("ANALYZE")
    for table in TPCH_TABLES:
        setup.query_rows(f"SELECT count(*) FROM {table}")
    return world


def tpcc_world(pool_pages: int | None, scale: TpccScale = TPCC_SCALE,
               calibration: dict = TPCC_CALIBRATION) -> World:
    """TPC-C.  ``pool_pages`` shrinks the buffer pool below the data;
    ``calibration`` defaults to the Table 4 cost calibration."""
    report = ProfileReport()
    costs = cost_model(report, calibration)
    server = DatabaseServer(meter=Meter(costs))
    if pool_pages is not None:
        server.engine.buffer_pool.capacity_pages = pool_pages
    data = generate_tpcc(scale, seed=TPCC_DATASET_SEED)
    setup_tpcc_server(server, data)
    world = World(server, report, data)
    world.connect("setup", None).run_statement("ANALYZE")
    return world


def add_ledger(world: World) -> None:
    """``bench_ledger``: the counter table ``crash_recovery`` updates."""
    setup = world.apps["setup"]
    setup.run_statement(
        "CREATE TABLE bench_ledger (k INT NOT NULL, v INT, "
        "PRIMARY KEY (k))")
    values = ", ".join(f"({k}, 0)" for k in range(1, LEDGER_ROWS + 1))
    setup.run_statement(f"INSERT INTO bench_ledger VALUES {values}")
    setup.run_statement("ANALYZE bench_ledger")
