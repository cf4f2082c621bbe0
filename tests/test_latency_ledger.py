"""The request latency ledger: the accounting identity, attribution,
percentiles, views, and the export round trip.

The hard contract under test: for every protocol request, the
per-component attribution sums *bit-exactly* to the measured latency
(Fractions, not tolerances), enabling the ledger never moves the
virtual clock, and the ledger is off unless asked for.
"""

from fractions import Fraction

import pytest

from repro.bench.experiments import run_tracked_mix
from repro.obs.export import (SCHEMA_VERSION, export_trace, load_records,
                              trace_records)
from repro.obs.latency import (COMPONENTS, LatencyLedger, classify,
                               percentile)
from repro.obs.report import latency_section, render
from repro.obs.validate import validate_records
from repro.odbc.constants import SQL_NO_DATA, SQL_SUCCESS
from repro.phoenix.config import PhoenixConfig
from repro.server.server import DatabaseServer
from repro.sim.costs import (CLIENT_CPU, NETWORK, SERVER_CPU, SERVER_DISK,
                             CostModel)
from repro.sim.meter import Meter
from repro.workloads.app import BenchmarkApp


def small_mix_ledger():
    return run_tracked_mix(txns=15, point_reads=40, persists=2,
                           seed=7).latency


def fetch_heavy_world(prefetch: bool):
    """A tiny-buffer world where one SELECT spans many wire batches."""
    cap = 64 if prefetch else 0
    costs = CostModel(output_buffer_bytes=16,
                      fetch_ahead_depth=2 if prefetch else 0,
                      fetch_batch_max_bytes=cap,
                      output_buffer_max_bytes=cap)
    meter = Meter(costs)
    meter.enable_latency_ledger()
    server = DatabaseServer(meter=meter)
    setup = BenchmarkApp(server)
    setup.run_statement("CREATE TABLE t (k INT NOT NULL, v INT, "
                        "PRIMARY KEY (k))")
    setup.run_statement("INSERT INTO t VALUES " + ", ".join(
        f"({i}, {i * 7})" for i in range(40)))
    app = BenchmarkApp(server, use_phoenix=True,
                       phoenix_config=PhoenixConfig())
    return server, app


def drain(app) -> list:
    statement = app.manager.alloc_statement(app.conn)
    assert app.manager.exec_direct(
        statement, "SELECT k, v FROM t ORDER BY k") == SQL_SUCCESS
    rows = []
    while True:
        rc, row = app.manager.fetch(statement)
        if rc == SQL_NO_DATA:
            break
        assert rc == SQL_SUCCESS
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# The accounting identity
# ---------------------------------------------------------------------------


def test_identity_holds_across_the_tracked_mix():
    """Every request of the tracked mix balances bit-exactly."""
    ledger = small_mix_ledger()
    assert ledger is not None
    assert ledger.opened == ledger.closed > 0
    assert ledger.identity_violations == []
    # Spot-check the exactness claim on the raw entries too: the
    # ledger-wide list must agree with per-entry recomputation.
    for entry in ledger.entries:
        assert sum(entry.components.values(), Fraction(0)) == entry.total


def test_identity_holds_with_prefetch_knobs_on():
    """Pipelined delivery (detached entries, realized stalls, hidden
    service) must balance identically."""
    _server, app = fetch_heavy_world(prefetch=True)
    rows = drain(app)
    assert len(rows) == 40
    ledger = app.meter.latency
    assert app.meter.counters.get("prefetch_issued", 0) > 0
    assert ledger.identity_violations == []
    assert "FetchRequest" in ledger.kinds
    # The in-flight tail may stay open, but nothing leaks unclosed
    # beyond the configured fetch-ahead depth.
    assert ledger.opened - ledger.closed <= 2


def test_fetch_requests_attributed_per_kind():
    _server, app = fetch_heavy_world(prefetch=False)
    drain(app)
    ledger = app.meter.latency
    stats = ledger.kinds["FetchRequest"]
    assert stats.count > 5
    assert float(stats.total) > 0.0
    components = {name for kind in ledger.kinds.values()
                  for name in kind.components}
    assert components <= set(COMPONENTS)
    assert "net_uplink" in components and "net_downlink" in components
    assert "engine_execute" in components


def test_wasted_entries_counted_when_crash_discards_prefetch():
    server, app = fetch_heavy_world(prefetch=True)
    statement = app.manager.alloc_statement(app.conn)
    assert app.manager.exec_direct(
        statement, "SELECT k, v FROM t ORDER BY k") == SQL_SUCCESS
    for _ in range(3):
        rc, _row = app.manager.fetch(statement)
        assert rc == SQL_SUCCESS
    server.crash()
    server.restart()
    while app.manager.fetch(statement)[0] == SQL_SUCCESS:
        pass
    ledger = app.meter.latency
    assert ledger.identity_violations == []
    assert sum(stats.wasted for stats in ledger.kinds.values()) > 0


# ---------------------------------------------------------------------------
# Zero clock impact, off by default
# ---------------------------------------------------------------------------


def test_ledger_off_by_default(monkeypatch):
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    meter = Meter()
    assert meter.latency is None
    meter.charge(SERVER_CPU, 0.001, "query cpu")
    assert meter.latency is None
    assert meter.enable_latency_ledger().opened == 0


def test_env_knob_enables_the_ledger(monkeypatch):
    """``REPRO_TRACE`` is the one env switch: tracing brings the ledger."""
    monkeypatch.setenv("REPRO_TRACE", "1")
    meter = Meter()
    assert meter.latency is not None


def test_virtual_clock_bit_identical_ledger_on_vs_off():
    def run(enable: bool):
        costs = CostModel(output_buffer_bytes=16)
        costs.fetch_ahead_depth = 2
        costs.fetch_batch_max_bytes = 64
        costs.output_buffer_max_bytes = 64
        meter = Meter(costs)
        if enable:
            meter.enable_latency_ledger()
        server = DatabaseServer(meter=meter)
        setup = BenchmarkApp(server)
        setup.run_statement("CREATE TABLE t (k INT NOT NULL, v INT, "
                            "PRIMARY KEY (k))")
        setup.run_statement("INSERT INTO t VALUES " + ", ".join(
            f"({i}, {i * 7})" for i in range(40)))
        app = BenchmarkApp(server, use_phoenix=True,
                           phoenix_config=PhoenixConfig())
        rows = drain(app)
        return meter.now, rows, dict(meter.counters)

    assert run(False) == run(True)


def test_ledger_rows_deterministic_across_identical_runs():
    first = small_mix_ledger()
    second = small_mix_ledger()
    assert first.records() == second.records()


# ---------------------------------------------------------------------------
# Classification and attribution hints
# ---------------------------------------------------------------------------


def test_classify_maps_resources_and_notes():
    assert classify(NETWORK, "request") == "net_uplink"
    assert classify(NETWORK, "response") == "net_downlink"
    assert classify(NETWORK, "prefetch stall") == "prefetch_stall"
    assert classify(NETWORK, "pipeline stall") == "server_queue"
    assert classify(SERVER_CPU, "statement parse/plan") == "parse_plan"
    assert classify(SERVER_CPU, "query cpu") == "engine_execute"
    assert classify(SERVER_DISK, "log force") == "wal_force"
    assert classify(SERVER_DISK, "page io") == "engine_execute"
    assert classify(CLIENT_CPU, "request timeout") == "server_queue"
    assert classify(CLIENT_CPU, "persist row") == "client_cpu"
    # An attribution hint always wins over the mechanical mapping.
    assert classify(SERVER_DISK, "page io", "checkpoint") == "checkpoint"


def test_attribute_to_routes_charges_to_the_hinted_component():
    meter = Meter()
    meter.enable_latency_ledger()
    entry = meter.latency_open("TestRequest")
    meter.charge(SERVER_DISK, 0.002, "page io")
    with meter.attribute_to("checkpoint"):
        meter.charge(SERVER_DISK, 0.005, "page io")
        meter.charge(SERVER_DISK, 0.001, "log force")
    meter.latency_close(entry)
    assert set(entry.components) == {"engine_execute", "checkpoint"}
    assert entry.components["checkpoint"] == Fraction(0.005) + Fraction(0.001)
    assert entry.identity_holds()
    assert meter.latency.identity_violations == []


def test_attribute_to_is_inert_when_ledger_disabled(monkeypatch):
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    meter = Meter()
    before = meter.now
    with meter.attribute_to("checkpoint"):
        meter.charge(SERVER_CPU, 0.001, "query cpu")
    assert meter.now == pytest.approx(before + 0.001)
    assert meter.latency is None


# ---------------------------------------------------------------------------
# Percentiles
# ---------------------------------------------------------------------------


def test_percentile_linear_interpolation():
    values = [1.0, 2.0, 3.0, 4.0]
    assert percentile(values, 0.50) == pytest.approx(2.5)
    assert percentile(values, 0.25) == pytest.approx(1.75)
    assert percentile(values, 0.0) == 1.0
    assert percentile(values, 1.0) == 4.0


def test_percentile_edge_cases():
    assert percentile([], 0.5) == 0.0
    assert percentile([7.5], 0.99) == 7.5
    values = list(range(1, 101))
    assert percentile([float(v) for v in values], 0.99) == \
        pytest.approx(99.01)
    # Clamped outside [0, 1].
    assert percentile([1.0, 2.0], -0.5) == 1.0
    assert percentile([1.0, 2.0], 1.5) == 2.0


def test_kind_percentiles_exact_over_samples():
    ledger = LatencyLedger()
    for seconds in (0.001, 0.002, 0.003, 0.004):
        entry = ledger.open("K", start=0.0, clocked=False)
        entry.add_attributed("engine_execute", seconds)
        ledger.close(entry, end=seconds)
    p50, p95, p99 = ledger.kind_percentiles("K")
    assert p50 == pytest.approx(0.0025)
    assert p95 == pytest.approx(0.00385)
    assert p99 == pytest.approx(0.00397)
    assert ledger.kind_percentiles("missing") == (0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# Views
# ---------------------------------------------------------------------------


def test_sys_latency_view_reports_slos():
    _server, app = fetch_heavy_world(prefetch=False)
    drain(app)
    rows = app.query_rows("SELECT * FROM sys_latency")
    by_kind = {row[0]: row for row in rows}
    assert "ExecuteRequest" in by_kind and "FetchRequest" in by_kind
    for kind, count, wasted, p50, p95, p99, peak, total, hidden, ok in \
            rows:
        assert count > 0 and wasted >= 0
        assert 0.0 <= p50 <= p95 <= p99 <= peak <= total
        assert ok == 1, f"identity flagged broken for {kind}"


def test_sys_sessions_view_reports_live_sessions():
    _server, app = fetch_heavy_world(prefetch=False)
    drain(app)
    rows = app.query_rows("SELECT * FROM sys_sessions")
    assert len(rows) >= 1
    for (session_id, temp_tables, in_txn, txn_id, settings,
         plan_entries, plan_evictions) in rows:
        assert session_id >= 0 and temp_tables >= 0
        assert in_txn in (0, 1)
        assert txn_id >= 0 and settings >= 0
        assert plan_entries >= 0 and plan_evictions >= 0


# ---------------------------------------------------------------------------
# Export round trip + report rendering
# ---------------------------------------------------------------------------


def test_export_roundtrip_carries_latency_records(tmp_path):
    _server, app = fetch_heavy_world(prefetch=False)
    drain(app)
    app.meter.tracer.enable()
    path = tmp_path / "trace.jsonl"
    export_trace(app.meter, path)
    records = load_records(path)
    assert records[0]["schema_version"] == SCHEMA_VERSION == 3
    assert records[0]["identity_violations"] == []
    latency = [r for r in records if r.get("type") == "latency"]
    assert {r["kind"] for r in latency} >= {"ExecuteRequest",
                                            "FetchRequest"}
    for record in latency:
        assert set(record["components"]) <= set(COMPONENTS)
        assert sum(record["components"].values()) == \
            pytest.approx(record["total"])
    assert validate_records(records) == []


def test_latency_records_absent_when_ledger_idle():
    meter = Meter()
    meter.tracer.enable()
    records = trace_records(meter)
    assert [r for r in records if r.get("type") == "latency"] == []


def test_format_latency_report_renders_attribution_table():
    result = run_tracked_mix(txns=15, point_reads=40, persists=2, seed=7)
    text = latency_section(result.records, "small mix")
    assert render(result.records, result.source).startswith(
        result.format())
    assert "Request latency by kind" in text
    assert "ExecuteRequest" in text
    assert "Where the virtual seconds went" in text
    assert "engine_execute" in text and "wal_force" in text
    assert "accounting identity: every request's components sum" \
        in text
