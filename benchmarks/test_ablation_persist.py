"""Ablation: ``persist_pipeline`` — the persist recipe as one exchange.

A persisted ``TOP N`` result under the paper's configuration, with the
option off (§2.1's recipe: the ``WHERE 0 = 1`` probe, ``CREATE TABLE``,
the status lookup, a stored procedure created, executed inside a
status-guarded transaction and dropped, then the reopen) and on (one
script request: ``BEGIN TRANSACTION; CREATE TABLE T AS <q>; <status
row>; COMMIT; SELECT * FROM T``).  Each leg reports the exchanges and
the server statements one result costs up to its first row, and the
virtual seconds to that row.
"""

from repro.odbc.constants import SQL_SUCCESS
from repro.phoenix.config import PhoenixConfig
from repro.server.server import DatabaseServer
from repro.sim.costs import CostModel
from repro.sim.meter import Meter
from repro.text_table import format_table
from repro.workloads.app import BenchmarkApp
from repro.workloads.tpch.datagen import generate
from repro.workloads.tpch.queries import top_n_lineitem
from repro.workloads.tpch.schema import setup_tpch_server

SIZES = (16, 256, 1024, 4096)
#: Server-side charges that each stand for one statement run.
STATEMENT_NOTES = ("statement parse/plan", "proc statement")


def _first_rows(persist_pipeline: bool) -> dict:
    """Per size: exchanges, ExecuteRequests before the first fetch,
    server statements and virtual seconds up to the first row."""
    costs = CostModel.paper(work_amplification=100.0,
                            persist_pipeline=persist_pipeline)
    server = DatabaseServer(meter=Meter(costs))
    setup_tpch_server(server, generate(scale=0.01, seed=3))
    app = BenchmarkApp(server, use_phoenix=True,
                       phoenix_config=PhoenixConfig(client_cache_rows=0))
    app.query_rows(top_n_lineitem(16))  # warm-up: plans, private session
    meter, manager = app.meter, app.manager
    counters = meter.counters
    results = {}
    for n in SIZES:
        statement = manager.alloc_statement(app.conn)
        charges = meter.push_recorder()
        start, sent = meter.now, app.network.requests_sent
        executes = counters["net.requests.ExecuteRequest"]
        assert manager.exec_direct(statement,
                                   top_n_lineitem(n)) == SQL_SUCCESS
        before_fetch = counters["net.requests.ExecuteRequest"] - executes
        assert manager.fetch(statement)[0] == SQL_SUCCESS
        meter.pop_recorder(charges)
        results[n] = {
            "exchanges": app.network.requests_sent - sent,
            "executes": int(before_fetch),
            "statements": sum(charge.note in STATEMENT_NOTES
                              for charge in charges),
            "seconds": meter.now - start,
        }
        manager.free_statement(statement)
    return results


def test_ablation_persist_pipeline(benchmark, report):
    results = benchmark.pedantic(
        lambda: {on: _first_rows(on) for on in (False, True)},
        rounds=1, iterations=1)
    rows = [[str(n), "on" if on else "off", r["exchanges"],
             r["statements"], f"{r['seconds']:.6f}"]
            for n in SIZES for on in (False, True)
            for r in (results[on][n],)]
    report("ablation_persist", format_table(
        "Ablation: persist_pipeline under paper() - one persisted "
        "TOP N up to its first row",
        ["N", "Option", "Exchanges", "Statements", "Virtual s"], rows))

    for n in SIZES:
        off, on = results[False][n], results[True][n]
        assert on["exchanges"] <= off["exchanges"]
        assert on["statements"] <= off["statements"]
        assert on["seconds"] <= off["seconds"]
        # The whole persist is one script request.
        assert on["executes"] == 1
