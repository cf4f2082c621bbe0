"""Analytics dashboard: long reports that survive server crashes.

The decision-support scenario of §3: a reporting client runs TPC-H-style
queries whose results are materialized into persistent tables on the
server.  The server dies while the dashboard is paging through a report;
Phoenix recovers the session and repositions inside the persisted result
— compare the client-side and server-side repositioning costs (the
paper's Figures 3 and 4) printed at the end.

Each run is traced: the dashboard finishes with the five-phase
recovery breakdown, a ``SELECT`` against the ``sys_recovery_phases``
system view, and the report of the world's live records (latency by
request kind, spans by layer, recoveries, counters) — the
observability tour.

    python examples/report_dashboard.py
"""

from repro.obs.export import trace_records
from repro.obs.report import render
from repro.odbc.constants import SQL_NO_DATA, SQL_SUCCESS
from repro.phoenix.config import PhoenixConfig
from repro.server.server import DatabaseServer
from repro.sim.costs import CostModel
from repro.sim.meter import Meter
from repro.workloads.app import BenchmarkApp
from repro.workloads.tpch.datagen import generate
from repro.workloads.tpch.queries import q11
from repro.workloads.tpch.schema import setup_tpch_server


def build_server() -> DatabaseServer:
    server = DatabaseServer(meter=Meter(CostModel()))
    setup_tpch_server(server, generate(scale=0.005, seed=12))
    return server


def page_through_report(server: DatabaseServer, mode: str) -> dict:
    """Run the stock report, crash mid-paging, recover, finish."""
    config = PhoenixConfig(reposition_mode=mode)
    app = BenchmarkApp(server, use_phoenix=True, phoenix_config=config)
    app.meter.tracer.enable()
    app.meter.enable_latency_ledger()
    sql = q11(fraction=0.0)  # the Important Stock Identification Query

    statement = app.manager.alloc_statement(app.conn)
    assert app.manager.exec_direct(statement, sql) == SQL_SUCCESS
    rows = 0
    crashed = False
    while True:
        # Crash once the dashboard has paged most of the way through and
        # its local buffer is drained (the next page needs the server).
        if not crashed and rows > 50 and not statement.result.buffered:
            server.crash()
            server.restart()
            crashed = True
        rc, _row = app.manager.fetch(statement)
        if rc == SQL_NO_DATA:
            break
        assert rc == SQL_SUCCESS
        rows += 1
    phases = app.manager.recovery_phase_seconds
    view_rows = app.query_rows(
        "SELECT recovery_id, phase, seconds FROM sys_recovery_phases")
    return {"mode": mode, "rows": rows, "crashed": crashed,
            "virtual_session_s": phases.get("virtual_session", 0.0),
            "sql_state_s": phases.get("sql_state", 0.0),
            "breakdown": app.manager.recovery_phase_breakdown,
            "meter": app.meter, "view_rows": view_rows}


def main() -> None:
    print("building a TPC-H database (SF 0.005) ...")
    results = []
    for mode in ("client", "server"):
        server = build_server()
        outcome = page_through_report(server, mode)
        results.append(outcome)
        print(f"\nreport with {mode}-side repositioning:")
        print(f"  rows delivered seamlessly: {outcome['rows']} "
              f"(crash mid-report: {outcome['crashed']})")
        print(f"  recovery: virtual session "
              f"{outcome['virtual_session_s']:.3f}s + SQL state "
              f"{outcome['sql_state_s']:.3f}s")
        print("  phase breakdown (virtual seconds):")
        for phase, seconds in outcome["breakdown"].items():
            print(f"    {phase:<18} {seconds:.4f}")
        print("  SELECT phase, seconds FROM sys_recovery_phases:")
        for _rid, phase, seconds in outcome["view_rows"]:
            print(f"    {phase:<18} {seconds:.4f}")
        print()
        print(render(trace_records(outcome["meter"]),
                     source=f"{mode}-side run"))
    client, server_side = results
    if server_side["sql_state_s"] > 0:
        speedup = client["sql_state_s"] / server_side["sql_state_s"]
        print(f"\nserver-side repositioning recovered SQL state "
              f"{speedup:.0f}x faster (the paper's Fig. 3 vs Fig. 4)")


if __name__ == "__main__":
    main()
