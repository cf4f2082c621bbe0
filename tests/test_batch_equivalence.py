"""Batch engine vs. row engine: bit-identical virtual outputs.

The batch-at-a-time executor is a host-time optimization; the original
row-at-a-time operators are retained behind ``REPRO_ROW_EXEC=1``.  These
tests run identical workloads in both modes and require *exact* equality
of every virtual output: row streams, the virtual clock, and the meter's
counters.  Any drift means a batch operator charges differently from the
row loop it replaced.
"""

import pytest

from repro.engine.database import DatabaseEngine
from repro.engine.session import EngineSession
from repro.sim.meter import Meter


@pytest.fixture(params=["batch", "rows"])
def exec_mode(request, monkeypatch):
    """Run the decorated test once per executor mode."""
    if request.param == "rows":
        monkeypatch.setenv("REPRO_ROW_EXEC", "1")
    else:
        monkeypatch.delenv("REPRO_ROW_EXEC", raising=False)
    return request.param


def _set_mode(monkeypatch, mode: str) -> None:
    if mode == "rows":
        monkeypatch.setenv("REPRO_ROW_EXEC", "1")
    else:
        monkeypatch.delenv("REPRO_ROW_EXEC", raising=False)


# ---------------------------------------------------------------------------
# TPC-H power run
# ---------------------------------------------------------------------------


def _tpch_power_outputs(cost_mode: bool = False):
    """(rows per query, final clock, counters) of a small power run."""
    from repro.workloads.tpch.datagen import generate
    from repro.workloads.tpch.queries import QUERIES
    from repro.workloads.tpch.schema import create_schema, load

    engine = DatabaseEngine(meter=Meter(), plan_cache_capacity=128)
    session = EngineSession(session_id=1)
    create_schema(engine, session)
    load(engine, session, generate(scale=0.0005, seed=11))
    if cost_mode:
        engine.execute("ANALYZE", session)
        engine.meter.costs.optimizer_mode = "cost"
    outputs = []
    for number in sorted(QUERIES):
        outputs.append((number,
                        engine.execute(QUERIES[number],
                                       session).fetch_all()))
    return outputs, engine.meter.now, dict(engine.meter.counters)


@pytest.mark.parametrize("cost_mode", [False, True],
                         ids=["heuristic", "cost"])
def test_tpch_power_batch_vs_row_bit_identical(monkeypatch, cost_mode):
    """Bit-identity holds under the cost-based optimizer too: the new
    operators (TopNHeapSort, SortMergeJoin) and reordered joins must
    charge the batch path exactly what the row path charges."""
    _set_mode(monkeypatch, "batch")
    batch_rows, batch_clock, batch_counters = _tpch_power_outputs(
        cost_mode)
    _set_mode(monkeypatch, "rows")
    row_rows, row_clock, row_counters = _tpch_power_outputs(cost_mode)

    for (num_b, rows_b), (num_r, rows_r) in zip(batch_rows, row_rows):
        assert num_b == num_r
        assert rows_b == rows_r, f"rows diverged on TPC-H Q{num_b}"
    assert batch_clock == row_clock
    assert batch_counters == row_counters
    if cost_mode:
        assert batch_counters.get("optimizer.plans_costed", 0) > 0


# ---------------------------------------------------------------------------
# Phoenix crash fuzzer workload
# ---------------------------------------------------------------------------


def _crash_run(crash_at: int | None, prefetch: bool = False,
               result_cache: bool = False, cost_mode: bool = False):
    """Observed app outputs + clock for one crash-injected run."""
    from tests.test_phoenix_crash_fuzz import build_world, workload

    # The shared result cache admits via the §4 client cache, so the
    # cache-on variant turns both on — hits then bypass the server in
    # both executor modes, and the equivalence must still hold to the
    # bit (including the result_cache.* counters).
    server, app = build_world(cache_rows=100 if result_cache else 0,
                              prefetch=prefetch,
                              result_cache=result_cache,
                              cost_mode=cost_mode)
    if crash_at is not None:
        fired = {"count": 0, "done": False}

        def injector(request):
            fired["count"] += 1
            if fired["count"] == crash_at and not fired["done"]:
                fired["done"] = True
                server.crash()
                server.restart()

        app.network.fault_injector = injector
    return workload(app), app.meter.now, dict(app.meter.counters)


@pytest.mark.parametrize("prefetch,result_cache,cost_mode",
                         [(False, False, False), (True, False, False),
                          (False, True, False), (False, False, True)],
                         ids=["seed", "prefetch", "shared-cache",
                              "cost"])
@pytest.mark.parametrize("crash_at", [None, 3, 7, 11])
def test_phoenix_crash_workload_batch_vs_row(monkeypatch, crash_at,
                                             prefetch, result_cache,
                                             cost_mode):
    """Bit-identity holds with pipelined result delivery on, too: the
    overlap windows charge the same seconds in both executor modes.
    Likewise with the shared result cache — a hit skips the server in
    both modes, so clock and counters must still match exactly — and
    with the cost-based optimizer, whose plans must charge identically
    in both executor modes."""
    _set_mode(monkeypatch, "batch")
    batch = _crash_run(crash_at, prefetch, result_cache, cost_mode)
    _set_mode(monkeypatch, "rows")
    rows = _crash_run(crash_at, prefetch, result_cache, cost_mode)
    assert batch[0] == rows[0], f"observed outputs diverged (crash_at="\
                                f"{crash_at})"
    assert batch[1] == rows[1], f"virtual clock diverged (crash_at="\
                                f"{crash_at})"
    assert batch[2] == rows[2], f"counters diverged (crash_at={crash_at})"


# ---------------------------------------------------------------------------
# Mixed DML + join workload on the bare engine
# ---------------------------------------------------------------------------


def _mixed_dml_outputs(cost_mode: bool = False):
    engine = DatabaseEngine(meter=Meter(), plan_cache_capacity=128)
    session = EngineSession(session_id=1)
    run = lambda sql: engine.execute(sql, session)
    run("CREATE TABLE acct (id INT NOT NULL, owner VARCHAR(10), "
        "balance INT, PRIMARY KEY (id))")
    run("CREATE TABLE movement (acct_id INT, delta INT)")
    run("CREATE INDEX ix_move ON movement (acct_id)")
    run("INSERT INTO acct VALUES " + ", ".join(
        f"({i}, 'own{i % 3}', {i * 100})" for i in range(1, 21)))
    run("INSERT INTO movement VALUES " + ", ".join(
        f"({1 + (i * 7) % 20}, {(-1) ** i * i})" for i in range(40)))
    if cost_mode:
        run("ANALYZE")
        engine.meter.costs.optimizer_mode = "cost"
    outputs = []
    for _ in range(3):  # repeat so the plan cache's hot path is exercised
        run("UPDATE acct SET balance = balance + 1 "
            "WHERE id IN (2, 4, 6, 8)")
        run("DELETE FROM movement WHERE delta = 0")
        run("INSERT INTO movement VALUES (3, 5), (9, -2)")
        outputs.append(run(
            "SELECT a.owner, count(*), sum(m.delta) "
            "FROM acct a, movement m WHERE a.id = m.acct_id "
            "GROUP BY a.owner ORDER BY a.owner").fetch_all())
        outputs.append(run(
            "SELECT id, balance FROM acct WHERE balance > 500 "
            "ORDER BY balance DESC").fetch_all())
        # In cost mode: a key-list seek on acct, its list carried over
        # the equality to ix_move, and a covering (index-only) list seek.
        outputs.append(run(
            "SELECT a.id, m.delta FROM acct a, movement m "
            "WHERE m.acct_id = a.id AND a.id IN (9, 3, 15, 3, NULL)"
        ).fetch_all())
        outputs.append(run(
            "SELECT id FROM acct WHERE id IN (20, 1, 7)").fetch_all())
    return outputs, engine.meter.now, dict(engine.meter.counters)


def test_mixed_dml_batch_vs_row_bit_identical(monkeypatch):
    _set_mode(monkeypatch, "batch")
    batch = _mixed_dml_outputs()
    _set_mode(monkeypatch, "rows")
    rows = _mixed_dml_outputs()
    assert batch[0] == rows[0]
    assert batch[1] == rows[1]
    assert batch[2] == rows[2]


def test_in_list_seeks_batch_vs_row_bit_identical(monkeypatch):
    _set_mode(monkeypatch, "batch")
    batch = _mixed_dml_outputs(cost_mode=True)
    _set_mode(monkeypatch, "rows")
    rows = _mixed_dml_outputs(cost_mode=True)
    assert batch == rows
    # 3 rounds x (UPDATE + join's two sides + covering SELECT), planned
    # once each: the later rounds reuse the cached plans.
    assert batch[2]["optimizer.in_list_seeks"] == 4
    assert batch[2]["optimizer.in_list_transfers"] == 1


# ---------------------------------------------------------------------------
# sys_executor view
# ---------------------------------------------------------------------------


def test_sys_executor_view_reports_batch_activity():
    engine = DatabaseEngine(meter=Meter(), plan_cache_capacity=128)
    session = EngineSession(session_id=1)
    engine.execute("CREATE TABLE t (a INT, b VARCHAR(4))", session)
    engine.execute("INSERT INTO t VALUES " + ", ".join(
        f"({i}, 'v{i % 5}')" for i in range(50)), session)
    for _ in range(3):
        engine.execute("SELECT b, count(*) FROM t WHERE a > 10 "
                       "GROUP BY b ORDER BY b", session).fetch_all()
    stats = dict(engine.execute(
        "SELECT metric, value FROM sys_executor", session).fetch_all())
    assert stats, "sys_executor returned no rows"
    batch_totals = [v for k, v in stats.items() if k.startswith("batches.")]
    assert batch_totals and sum(batch_totals) > 0
    assert all(isinstance(v, int) and v >= 0 for v in stats.values())


def test_sys_executor_counts_stay_out_of_meter_counters():
    """Executor diagnostics must not leak into the fidelity counters."""
    engine = DatabaseEngine(meter=Meter(), plan_cache_capacity=128)
    session = EngineSession(session_id=1)
    engine.execute("CREATE TABLE t (a INT)", session)
    engine.execute("INSERT INTO t VALUES (1), (2), (3)", session)
    engine.execute("SELECT a FROM t WHERE a > 1", session).fetch_all()
    assert engine.meter.executor_stats  # diagnostics were recorded
    assert not any(key.startswith("batches.")
                   for key in engine.meter.counters)
