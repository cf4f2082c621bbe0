"""Quickstart: a database session that survives a server crash.

Builds a simulated database server, connects through Phoenix/ODBC, and
kills the server in the middle of fetching a result set.  The
application code below never mentions crashes — it just keeps calling
``fetch`` — yet it receives every row exactly once.  Run it, then flip
``USE_PHOENIX`` to False to watch the same application break.

    python examples/quickstart.py

With ``REPRO_TRACE=1`` the run is traced end to end and its records
are exported as JSONL (``REPRO_TRACE_OUT``, default
``quickstart_trace.jsonl``) for ``python -m repro.bench report --input``,
which validates the file and renders it.
"""

import os

from repro.odbc.constants import SQL_NO_DATA, SQL_SUCCESS
from repro.server.server import DatabaseServer
from repro.sim.costs import CostModel
from repro.sim.meter import Meter
from repro.workloads.app import BenchmarkApp

USE_PHOENIX = True


def build_server() -> DatabaseServer:
    """A server with a small inventory table."""
    # A small wire buffer makes the demo result span several round
    # trips, so the crash lands mid-delivery.
    server = DatabaseServer(meter=Meter(CostModel(output_buffer_bytes=64)))
    app = BenchmarkApp(server)  # plain native connection for setup
    app.run_statement(
        "CREATE TABLE inventory (sku INT NOT NULL, name VARCHAR(20), "
        "qty INT, PRIMARY KEY (sku))")
    values = ", ".join(f"({i}, 'widget-{i}', {i * 3})" for i in range(20))
    app.run_statement(f"INSERT INTO inventory VALUES {values}")
    return server


def main() -> None:
    server = build_server()
    app = BenchmarkApp(server, use_phoenix=USE_PHOENIX)
    kind = "Phoenix/ODBC" if USE_PHOENIX else "native ODBC"
    print(f"connected via {kind}\n")

    statement = app.manager.alloc_statement(app.conn)
    rc = app.manager.exec_direct(
        statement, "SELECT sku, name, qty FROM inventory ORDER BY sku")
    assert rc == SQL_SUCCESS

    rows_seen = 0
    while True:
        if rows_seen == 7:
            print(">>> pulling the plug on the database server ... <<<")
            server.crash()
            server.restart()
        rc, row = app.manager.fetch(statement)
        if rc == SQL_NO_DATA:
            break
        if rc != SQL_SUCCESS:
            diag = app.manager.get_diag(statement)[0]
            print(f"!! fetch failed: [{diag.sqlstate}] {diag.message}")
            print("   (this is what native ODBC applications see)")
            return
        rows_seen += 1
        print(f"  row {rows_seen:2d}: {row}")

    print(f"\nfetched all {rows_seen} rows — the application never "
          f"noticed the crash")
    if USE_PHOENIX:
        stats = app.manager.stats
        print(f"phoenix stats: {stats['persisted_results']} result set(s) "
              f"persisted, {stats['recoveries']} session recover(ies)")
    print(f"virtual time elapsed: {app.meter.now:.3f}s")

    if app.meter.tracer.enabled:
        from repro.obs.export import export_trace

        out = os.environ.get("REPRO_TRACE_OUT", "quickstart_trace.jsonl")
        count = export_trace(app.meter, out)
        print(f"trace: {len(app.meter.tracer.finished)} span(s) "
              f"recorded, {count} record(s) exported to {out}")


if __name__ == "__main__":
    main()
