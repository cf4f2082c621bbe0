"""Ablation: client cache capacity.

The §4 cache is "large enough to hold small result sets"; results that
do not fit fall back to server-side persistence.  Sweeping the capacity
shows the trade-off the paper's design point sits on: a larger cache
absorbs more result sets (fewer server tables, faster response), at no
benefit once it exceeds the workload's largest result.
"""

from repro.phoenix.config import PhoenixConfig
from repro.server.server import DatabaseServer
from repro.sim.costs import CostModel
from repro.sim.meter import Meter
from repro.text_table import format_table
from repro.workloads.app import BenchmarkApp
from repro.workloads.tpch.datagen import generate
from repro.workloads.tpch.schema import setup_tpch_server

CAPACITIES = (0, 4, 16, 64, 256)


def _run_sweep():
    rows = []
    for capacity in CAPACITIES:
        server = DatabaseServer(meter=Meter(CostModel.paper()))
        setup_tpch_server(server, generate(scale=0.001, seed=3))
        config = PhoenixConfig(client_cache_rows=capacity)
        app = BenchmarkApp(server, use_phoenix=True,
                           phoenix_config=config)
        start = app.meter.now
        # A mix of small and mid-sized lookups, OLTP style.
        for key in range(1, 11):
            app.run_query(
                f"SELECT n_name FROM nation WHERE n_nationkey = {key}",
                label="point")
            app.run_query(
                f"SELECT TOP 30 o_orderkey, o_totalprice FROM orders "
                f"WHERE o_custkey >= {key} ORDER BY o_orderkey",
                label="range")
        elapsed = app.meter.now - start
        stats = app.manager.stats
        rows.append([capacity, stats["cached_results"],
                     stats["cache_overflows"],
                     stats["persisted_results"], elapsed])
    return rows


def test_ablation_cache_size(benchmark, report):
    rows = benchmark.pedantic(_run_sweep, rounds=1, iterations=1)
    report("ablation_cache_size", format_table(
        "Ablation: client cache capacity (20 OLTP-style queries)",
        ["Cache rows", "Cached", "Overflows", "Server tables",
         "Elapsed (s)"], rows))

    by_capacity = {row[0]: row for row in rows}
    # No cache -> everything persists server-side.
    assert by_capacity[0][3] == 20
    # A big enough cache absorbs everything and is much faster.
    assert by_capacity[256][1] == 20
    assert by_capacity[256][3] == 0
    assert by_capacity[256][4] < by_capacity[0][4] / 2
    # Intermediate capacities split: small lookups cached, ranges spill.
    assert by_capacity[16][1] > 0
    assert by_capacity[16][2] > 0
