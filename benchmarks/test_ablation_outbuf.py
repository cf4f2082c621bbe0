"""Ablation: network output buffer capacity, and fetch-ahead depth.

Table 3's native-flat-after-512-tuples artifact is a consequence of the
~75 KB output buffer: "once the network buffer reaches capacity, the
scan for data is suspended".  Sweeping the buffer moves the saturation
point proportionally.

The second ablation sweeps the driver's fetch-ahead depth over a full
result drain: each level of depth hides more of the per-batch RTT stall
behind client consumption (virtual seconds fall, rows stay identical),
and pairing it with adaptive batching removes most of the round trips
outright.
"""

from repro.server.server import DatabaseServer
from repro.sim.costs import CostModel
from repro.sim.meter import Meter
from repro.text_table import format_table
from repro.workloads.app import BenchmarkApp
from repro.workloads.tpch.datagen import generate
from repro.workloads.tpch.queries import top_n_lineitem
from repro.workloads.tpch.schema import setup_tpch_server

BUFFERS = (16 * 1024, 75 * 1024, 256 * 1024)
SIZES = (64, 256, 1024, 4096, 16384)


def _response_times(buffer_bytes: int):
    costs = CostModel.paper(output_buffer_bytes=buffer_bytes,
                            work_amplification=100.0)
    server = DatabaseServer(meter=Meter(costs))
    setup_tpch_server(server, generate(scale=0.01, seed=3))
    app = BenchmarkApp(server, use_phoenix=False)
    app.run_query(top_n_lineitem(4096), label="warmup")
    times = {}
    for n in SIZES:
        times[n] = app.run_query(top_n_lineitem(n), label=f"top{n}",
                                 fetch=False).seconds
    return times


def _saturation_point(times: dict) -> int:
    sizes = sorted(times)
    for i in range(1, len(sizes)):
        if times[sizes[i]] < times[sizes[i - 1]] * 1.02:
            return sizes[i - 1]
    return sizes[-1]


def test_ablation_output_buffer(benchmark, report):
    results = benchmark.pedantic(
        lambda: {b: _response_times(b) for b in BUFFERS},
        rounds=1, iterations=1)
    rows = [[f"{b // 1024} KB"] + [results[b][n] for n in SIZES]
            for b in BUFFERS]
    report("ablation_outbuf", format_table(
        "Ablation: output buffer size vs TOP N response time (s)",
        ["Buffer"] + [str(n) for n in SIZES], rows))

    # A larger buffer saturates later: response time keeps growing for
    # larger N before going flat.
    small = _saturation_point(results[BUFFERS[0]])
    large = _saturation_point(results[BUFFERS[-1]])
    assert small < large

    # Below saturation, response time is buffer-independent.
    assert results[BUFFERS[0]][64] > 0
    for b in BUFFERS[1:]:
        assert abs(results[b][64] - results[BUFFERS[0]][64]) \
            / results[BUFFERS[0]][64] < 0.05


DEPTHS = (0, 1, 2, 4)


def _drain_stats(depth: int, adaptive: bool = False) -> dict:
    """Virtual cost of draining one multi-batch result at a given
    fetch-ahead depth (optionally with adaptive batching on top)."""
    costs = CostModel.paper(work_amplification=100.0,
                            fetch_ahead_depth=depth)
    if adaptive:
        costs.fetch_batch_max_bytes = 8192
        costs.output_buffer_max_bytes = 256 * 1024
    server = DatabaseServer(meter=Meter(costs))
    setup_tpch_server(server, generate(scale=0.01, seed=3))
    app = BenchmarkApp(server, use_phoenix=False)
    app.meter.reset_traces()
    start = app.meter.now
    rows = app.query_rows(top_n_lineitem(4096))
    counters = app.meter.counters
    return {"rows": len(rows),
            "virtual": app.meter.now - start,
            "fetches": int(counters.get("net.requests.FetchRequest", 0)),
            "hits": int(counters.get("prefetch_hits", 0)),
            "overlap": counters.get("prefetch_overlap_seconds", 0.0)}


def test_ablation_fetch_ahead_depth(benchmark, report):
    def sweep():
        stats = {d: _drain_stats(d) for d in DEPTHS}
        stats["adaptive"] = _drain_stats(2, adaptive=True)
        return stats

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = [[str(key), f"{r['virtual']:.6f}", r["fetches"], r["hits"],
             f"{r['overlap']:.6f}"]
            for key, r in results.items()]
    report("ablation_prefetch", format_table(
        "Ablation: fetch-ahead depth vs drain cost "
        "(virtual s / fetch RTTs / hits / overlap s)",
        ["Depth", "Virtual s", "Fetch RTTs", "Hits", "Overlap s"], rows))

    seed = results[0]
    assert seed["hits"] == 0 and seed["overlap"] == 0
    for depth in DEPTHS[1:]:
        r = results[depth]
        # Same rows, strictly less RTT stall, overlap actually banked.
        assert r["rows"] == seed["rows"]
        assert r["virtual"] < seed["virtual"]
        assert r["hits"] > 0 and r["overlap"] > 0
        # Fetch-ahead alone only *reorders* round trips.
        assert r["fetches"] == seed["fetches"]
    # Deeper pipelines never cost more virtual time than shallower ones.
    assert results[4]["virtual"] <= results[1]["virtual"]
    # Adaptive batching on top removes >=20% of the round trips.
    adaptive = results["adaptive"]
    assert adaptive["rows"] == seed["rows"]
    assert adaptive["fetches"] <= 0.8 * seed["fetches"]
    assert adaptive["virtual"] < seed["virtual"]
