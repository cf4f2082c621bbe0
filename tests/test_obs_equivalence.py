"""Tracing must be free on the virtual clock: bit-identical outputs.

The instrumentation contract is that enabling tracing changes *nothing*
a simulated world computes — every span timestamp is a pure clock read
(:meth:`Meter.peek_now`), never a flush or a charge.  This runs the
tracked TPC-C mix (the workload that exercises batching, plan caches,
persistence, the whole stack) twice — traced via ``REPRO_TRACE=1`` and
untraced — and requires the virtual clock and every counter to match to
the last bit.
"""

from repro.bench.experiments import run_tracked_mix
from repro.obs import trace_enabled_from_env


def run_leg():
    return run_tracked_mix(txns=15, point_reads=40, persists=2, seed=7)


def test_virtual_time_bit_identical_traced_vs_untraced(monkeypatch):
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    assert not trace_enabled_from_env()
    untraced = run_leg()

    monkeypatch.setenv("REPRO_TRACE", "1")
    assert trace_enabled_from_env()
    traced = run_leg()

    # Bit-identical, not approximately equal: observation is free.
    assert untraced.virtual_seconds == traced.virtual_seconds
    assert untraced.counters == traced.counters
    assert untraced.cache_stats == traced.cache_stats
    assert untraced.rows_digest == traced.rows_digest


def test_phoenix_crash_recovery_bit_identical(monkeypatch):
    """Same contract on the recovery path (spans bracket every phase):
    the clock, the rows and the counters, and every timing the phases
    report — the persist steps, the two- and five-phase recovery splits
    and each ``sys_recovery_phases`` row, the restart's ``wal_*`` passes
    included — on both persist chains."""
    from repro.odbc.constants import SQL_SUCCESS
    from repro.server.server import DatabaseServer
    from repro.sim.costs import CostModel
    from repro.sim.meter import Meter
    from repro.workloads.app import BenchmarkApp

    def crash_run(persist_pipeline: bool) -> tuple:
        meter = Meter(CostModel(output_buffer_bytes=16,
                                persist_pipeline=persist_pipeline))
        server = DatabaseServer(meter=meter)
        setup = BenchmarkApp(server)
        setup.run_statement("CREATE TABLE t (k INT NOT NULL, v INT, "
                            "PRIMARY KEY (k))")
        setup.run_statement("INSERT INTO t VALUES " + ", ".join(
            f"({i}, {i})" for i in range(10)))
        app = BenchmarkApp(server, use_phoenix=True)
        statement = app.manager.alloc_statement(app.conn)
        assert app.manager.exec_direct(
            statement, "SELECT k, v FROM t ORDER BY k") == SQL_SUCCESS
        persist_steps = dict(app.manager.persist_step_seconds)
        for _ in range(3):
            rc, _row = app.manager.fetch(statement)
            assert rc == SQL_SUCCESS
        server.crash()
        server.restart()
        rows = []
        while True:
            rc, row = app.manager.fetch(statement)
            if rc != SQL_SUCCESS:
                break
            rows.append(row)
        phases = app.query_rows("SELECT recovery_id, phase, seconds, "
                                "finished_at FROM sys_recovery_phases")
        assert {phase for _rid, phase, _s, _at in phases} >= {
            "wal_analysis", "wal_redo", "wal_undo", "reposition"}
        return (meter.now, rows, dict(meter.counters), persist_steps,
                app.manager.recovery_phase_seconds,
                app.manager.recovery_phase_breakdown, phases)

    for persist_pipeline in (True, False):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        untraced = crash_run(persist_pipeline)
        monkeypatch.setenv("REPRO_TRACE", "1")
        traced = crash_run(persist_pipeline)
        assert untraced == traced
