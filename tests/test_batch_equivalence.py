"""The executor vs. the row-at-a-time oracle.

``batches()`` is the only way a plan runs; the row loops it replaced
live on as ``tests/row_engine_oracle.py``.  These tests run identical
workloads through both and require *exact* equality of row streams and
of the meter's counters, and the same virtual clock to the oracle's
fixed relative tolerance (``CLOCK_REL_TOL``: the executor charges a row
the sum of what it owes, the oracle tuple by tuple — one more or one
fewer charge anywhere is orders of magnitude outside it, see
``test_oracle_tolerance_is_tight``).  Any drift means a batch operator
charges differently from the row loop it replaced.  The test names say
``bit_identical`` from when the executor replayed the oracle's fold.
"""

import pytest

from repro.engine.database import DatabaseEngine
from repro.engine.session import EngineSession
from repro.sim.costs import CostModel
from repro.sim.meter import Meter
from tests import row_engine_oracle
from tests.row_engine_oracle import same_clock
from tests.schedules import Fault, ledger_run, ledger_workload


# ---------------------------------------------------------------------------
# TPC-H power run
# ---------------------------------------------------------------------------


def _tpch_power_outputs(analyze: bool = False, **cost_overrides):
    """(rows per query, final clock, counters) of a small power run,
    planned from default estimates or — ``analyze`` — from statistics."""
    from repro.workloads.tpch.datagen import generate
    from repro.workloads.tpch.queries import QUERIES
    from repro.workloads.tpch.schema import create_schema, load

    engine = DatabaseEngine(meter=Meter(CostModel(**cost_overrides)))
    session = EngineSession(session_id=1)
    create_schema(engine, session)
    load(engine, session, generate(scale=0.0005, seed=11))
    if analyze:
        engine.execute("ANALYZE", session)
    outputs = []
    for number in sorted(QUERIES):
        outputs.append((number,
                        engine.execute(QUERIES[number],
                                       session).fetch_all()))
    return outputs, engine.meter.now, dict(engine.meter.counters)


@pytest.mark.parametrize("analyze", [False, True],
                         ids=["heuristic", "cost"])
def test_tpch_power_batch_vs_row_bit_identical(analyze):
    """Whatever the planner chooses — from default estimates (the
    ``heuristic`` id, kept from when that was a planner of its own) or
    from statistics — TopNHeapSort, SortMergeJoin and reordered joins
    must charge the batch path exactly what the row path charges."""
    batch_rows, batch_clock, batch_counters = _tpch_power_outputs(analyze)
    with row_engine_oracle.installed():
        row_rows, row_clock, row_counters = _tpch_power_outputs(analyze)

    for (num_b, rows_b), (num_r, rows_r) in zip(batch_rows, row_rows):
        assert num_b == num_r
        assert rows_b == rows_r, f"rows diverged on TPC-H Q{num_b}"
    assert same_clock(batch_clock, row_clock)
    assert batch_counters == row_counters
    assert batch_counters.get("optimizer.plans_costed", 0) > 0


def test_oracle_tolerance_is_tight():
    """The clock tolerance forgives a re-associated sum and nothing
    else: one per-tuple constant off by one part in a million on one
    side only is already far outside it."""
    _rows, clock, _counters = _tpch_power_outputs()
    with row_engine_oracle.installed():
        _rows, row_clock, _counters = _tpch_power_outputs(
            cpu_per_tuple_scan=CostModel().cpu_per_tuple_scan * (1 + 1e-6))
    assert not same_clock(clock, row_clock)
    assert abs(clock - row_clock) / clock < 1e-6  # and that was all of it


# ---------------------------------------------------------------------------
# Phoenix crash fuzzer workload
# ---------------------------------------------------------------------------


def _crash_run(crash_at: int | None, prefetch: bool = False,
               result_cache: bool = False, analyze: bool = False):
    """Observed app outputs + clock for one crash-injected run."""
    # The shared result cache admits via the §4 client cache, so the
    # cache-on variant turns both on — hits then bypass the server in
    # both executor modes, and the equivalence must still hold to the
    # bit (including the result_cache.* counters).
    schedule = ledger_workload()
    if crash_at is not None:
        schedule = schedule.under(Fault(crash_at))
    run = ledger_run(schedule, cache_rows=100 if result_cache else 0,
                     analyze=analyze, prefetch=prefetch,
                     result_cache=result_cache)
    meter = run.world.meter
    return run.observed, meter.now, dict(meter.counters)


@pytest.mark.parametrize("prefetch,result_cache,analyze",
                         [(False, False, False), (True, False, False),
                          (False, True, False), (False, False, True)],
                         ids=["seed", "prefetch", "shared-cache",
                              "cost"])
@pytest.mark.parametrize("crash_at", [None, 3, 7, 11])
def test_phoenix_crash_workload_batch_vs_row(crash_at, prefetch,
                                             result_cache, analyze):
    """Bit-identity holds with pipelined result delivery on, too: the
    overlap windows charge the same seconds in both executor modes.
    Likewise with the shared result cache — a hit skips the server in
    both modes, so clock and counters must still match exactly — and
    with plans made from statistics, which must charge identically in
    both executor modes."""
    batch = _crash_run(crash_at, prefetch, result_cache, analyze)
    with row_engine_oracle.installed():
        rows = _crash_run(crash_at, prefetch, result_cache, analyze)
    assert batch[0] == rows[0], f"observed outputs diverged (crash_at="\
                                f"{crash_at})"
    assert same_clock(batch[1], rows[1]), \
        f"virtual clock diverged (crash_at={crash_at})"
    assert batch[2] == rows[2], f"counters diverged (crash_at={crash_at})"


# ---------------------------------------------------------------------------
# Mixed DML + join workload on the bare engine
# ---------------------------------------------------------------------------


def _mixed_dml_outputs(analyze: bool = False):
    # paper(): the clocks below are pinned literals of that configuration.
    engine = DatabaseEngine(meter=Meter(CostModel.paper()))
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
    if analyze:
        run("ANALYZE")
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
        # A key-list seek on acct, its list carried over the equality
        # to ix_move, and a covering (index-only) list seek.
        outputs.append(run(
            "SELECT a.id, m.delta FROM acct a, movement m "
            "WHERE m.acct_id = a.id AND a.id IN (9, 3, 15, 3, NULL)"
        ).fetch_all())
        outputs.append(run(
            "SELECT id FROM acct WHERE id IN (20, 1, 7)").fetch_all())
    return outputs, engine.meter.now, dict(engine.meter.counters)


#: Clock and counters of ``_mixed_dml_outputs()``, un-analysed and
#: analysed.  The analysed leg is as recorded at the last commit where
#: UPDATE and DELETE read their source through a scan loop of the
#: planner's own (the oracle replaces the executor under the source
#: plans they run now, not that loop).  The un-analysed leg was
#: re-recorded once, in the planner step of the ``paper()`` re-baseline
#: (0.7780861494786181 before): it used to be the FROM-order planner's
#: scan + Filter reading of the three IN-lists and is now the same
#: seeks as the other leg, short of the ANALYZE it does not run; the
#: fold step moved neither.
_MIXED_DML_AT_PARENT = {
    False: (0.7753261494786176, {
        "locks.row_locks_acquired": 32.0, "log_forces": 14.0,
        "optimizer.in_list_seeks": 4.0, "optimizer.in_list_transfers": 1.0,
        "optimizer.join_orders_considered": 4.0,
        "optimizer.plans_costed": 4.0,
        "optimizer.stats_missing_fallbacks": 9.0,
        "plan_cache_hits": 14.0, "plan_cache_misses": 9.0}),
    True: (0.7775661494786176, {
        "locks.row_locks_acquired": 32.0, "log_forces": 14.0,
        "optimizer.in_list_seeks": 4.0, "optimizer.in_list_transfers": 1.0,
        "optimizer.join_orders_considered": 4.0,
        "optimizer.plans_costed": 4.0,
        "plan_cache_hits": 14.0, "plan_cache_misses": 9.0}),
}


def test_mixed_dml_batch_vs_row_bit_identical():
    batch = _mixed_dml_outputs()
    with row_engine_oracle.installed():
        rows = _mixed_dml_outputs()
    assert batch[0] == rows[0]
    assert same_clock(batch[1], rows[1])
    assert batch[2] == rows[2]
    assert batch[1:] == _MIXED_DML_AT_PARENT[False]


def test_in_list_seeks_batch_vs_row_bit_identical():
    batch = _mixed_dml_outputs(analyze=True)
    with row_engine_oracle.installed():
        rows = _mixed_dml_outputs(analyze=True)
    assert batch[0] == rows[0]
    assert same_clock(batch[1], rows[1])
    assert batch[2] == rows[2]
    assert batch[1:] == _MIXED_DML_AT_PARENT[True]
    # 3 rounds x (UPDATE + join's two sides + covering SELECT), planned
    # once each: the later rounds reuse the cached plans.
    assert batch[2]["optimizer.in_list_seeks"] == 4
    assert batch[2]["optimizer.in_list_transfers"] == 1


# ---------------------------------------------------------------------------
# Impure expressions: a subquery charges the meter mid-evaluation
# ---------------------------------------------------------------------------
#
# Filter, Project and HashAggregate take their input one realized row at
# a time when an expression of theirs holds a subquery; everything below
# still runs in batches.  One statement per place a subquery can stand.

IMPURE_SETUP = (
    "CREATE TABLE t (a INT, b INT, c VARCHAR(2))",
    "CREATE TABLE u (x INT, y INT)",
    "CREATE TABLE p (k INT NOT NULL, v INT, PRIMARY KEY (k))",
    "INSERT INTO t VALUES " + ", ".join(
        f"({i % 7}, {'NULL' if i % 5 == 0 else i % 4}, '{'xyz'[i % 3]}')"
        for i in range(23)),
    "INSERT INTO u VALUES " + ", ".join(
        f"({(i * 3) % 8}, {i % 5})" for i in range(11)),
    "INSERT INTO p VALUES " + ", ".join(
        f"({i}, {i * 10})" for i in range(1, 10)),
)

IMPURE_STATEMENTS = (
    # select list, correlated and not; under TOP
    "SELECT a, (SELECT max(y) FROM u WHERE u.x = t.a) FROM t",
    "SELECT a, (SELECT count(*) FROM u) FROM t WHERE b > 0",
    "SELECT TOP 3 a FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.x = t.a)",
    "SELECT TOP 2 a, (SELECT min(y) FROM u WHERE u.x = t.a) FROM t "
    "ORDER BY a",
    # aggregate argument, HAVING, ORDER BY, DISTINCT, UNION ALL
    "SELECT sum((SELECT max(y) FROM u WHERE u.x = t.a)) FROM t",
    "SELECT c, count(*), sum((SELECT count(*) FROM u WHERE u.x = t.a)) "
    "FROM t GROUP BY c ORDER BY c",
    "SELECT c, sum(a) FROM t GROUP BY c "
    "HAVING sum(a) > (SELECT min(x) FROM u) ORDER BY c",
    "SELECT a FROM t ORDER BY (SELECT max(y) FROM u WHERE u.x = t.a), a",
    "SELECT DISTINCT (SELECT max(y) FROM u WHERE u.x = t.a) FROM t",
    "SELECT DISTINCT a FROM t WHERE a IN (SELECT x FROM u)",
    "SELECT a FROM t WHERE a > (SELECT min(x) FROM u) UNION ALL "
    "SELECT x FROM u WHERE EXISTS (SELECT 1 FROM t WHERE t.a = u.x)",
    # a seek inside the subquery, a subquery as range bound, above a
    # join (both spellings), IN / NOT EXISTS, under an aggregate, in a
    # derived table
    "SELECT a, (SELECT v FROM p WHERE p.k = t.a) FROM t WHERE b = 1",
    "SELECT k FROM p WHERE k >= (SELECT min(y) FROM u) AND k < 6",
    "SELECT t.a, u.y FROM t, u WHERE t.a = u.x "
    "AND u.y > (SELECT min(b) FROM t)",
    "SELECT t.a, u.y FROM t JOIN u ON t.a = u.x "
    "AND u.y > (SELECT min(b) FROM t)",
    "SELECT a FROM t WHERE b IN (SELECT y FROM u WHERE u.x > t.a)",
    "SELECT a FROM t WHERE NOT EXISTS "
    "(SELECT 1 FROM u WHERE u.x = t.a) ORDER BY a",
    "SELECT count(*) FROM t WHERE a > (SELECT avg(x) FROM u)",
    "SELECT s.a FROM (SELECT a FROM t WHERE a IN (SELECT x FROM u)) s "
    "WHERE s.a > 0",
    # UPDATE / DELETE ... WHERE, by scan and by seek key
    "UPDATE t SET b = b + 1 WHERE a > (SELECT min(x) FROM u)",
    "UPDATE p SET v = v + 1 WHERE k = (SELECT max(y) FROM u)",
    "DELETE FROM t WHERE EXISTS "
    "(SELECT 1 FROM u WHERE u.x = t.a AND u.y > 2)",
)


def _impure_world(analyze: bool):
    engine = DatabaseEngine(meter=Meter())
    session = EngineSession(session_id=1)
    for sql in IMPURE_SETUP:
        engine.execute(sql, session)
    if analyze:
        engine.execute("ANALYZE", session)
    return engine, session


def _impure_outputs(analyze: bool):
    """(rows or rowcount, clock) after each statement, then counters."""
    engine, session = _impure_world(analyze)
    outputs = []
    for _ in range(2):  # the second round runs the cached plans
        for sql in IMPURE_STATEMENTS:
            result = engine.execute(sql, session)
            outputs.append((result.fetch_all() if result.kind == "rows"
                            else result.rowcount, engine.meter.now))
    outputs.append(engine.execute("SELECT a, b, c FROM t",
                                  session).fetch_all())
    return outputs, dict(engine.meter.counters)


@pytest.mark.parametrize("analyze", [False, True],
                         ids=["heuristic", "cost"])
def test_impure_statements_batch_vs_row_bit_identical(analyze):
    batch = _impure_outputs(analyze)
    with row_engine_oracle.installed():
        rows = _impure_outputs(analyze)
    for sql, got, want in zip(IMPURE_STATEMENTS * 2, batch[0], rows[0]):
        assert got[0] == want[0] and same_clock(got[1], want[1]), sql
    assert batch[0][-1] == rows[0][-1]  # the final table
    assert batch[1] == rows[1]


def test_rows_past_a_limit_evaluate_no_subquery(monkeypatch):
    """Laziness survives below a subquery predicate: the scan hands the
    Filter whole pages, the Filter evaluates one row per pull."""
    from repro.sql.planner import Planner

    evaluated = []
    run_subquery = Planner._run_subquery
    monkeypatch.setattr(
        Planner, "_run_subquery", lambda self, plan, ctx:
        evaluated.append(ctx.row) or run_subquery(self, plan, ctx))

    def outputs():
        engine = DatabaseEngine(meter=Meter())
        session = EngineSession(session_id=1)
        engine.execute("CREATE TABLE t (a INT)", session)
        engine.execute("CREATE TABLE u (x INT)", session)
        engine.execute("INSERT INTO t VALUES " + ", ".join(
            f"({i % 7})" for i in range(23)), session)
        engine.execute("INSERT INTO u VALUES (5)", session)
        del evaluated[:]
        rows = engine.execute(
            "SELECT TOP 1 a FROM t WHERE EXISTS "
            "(SELECT 1 FROM u WHERE u.x = t.a)", session).fetch_all()
        return rows, list(evaluated), engine.meter.now

    batch = outputs()
    with row_engine_oracle.installed():
        rows = outputs()
    assert batch[:2] == rows[:2] and same_clock(batch[2], rows[2])
    assert batch[0] == [(5,)]
    assert batch[1] == [(a,) for a in range(6)]  # 17 rows never looked at


@pytest.mark.parametrize("analyze", [False, True],
                         ids=["heuristic", "cost"])
def test_no_join_evaluates_a_subquery(analyze):
    """What lets the joins have no impure path: the planner never hands
    a join a conjunct with a subquery (it goes to a Filter above)."""
    from repro.sql.executor import (HashJoin, NestedLoopJoin,
                                    SortMergeJoin)
    from repro.sql.expressions import is_impure
    from repro.sql.parser import parse_statement
    from repro.workloads.tpch.queries import QUERIES
    from repro.workloads.tpch.schema import create_schema

    tpch = DatabaseEngine(meter=Meter())
    tpch_session = EngineSession(session_id=1)
    create_schema(tpch, tpch_session)
    if analyze:
        tpch.execute("ANALYZE", tpch_session)
    directed = _impure_world(analyze)
    joins = 0
    for (engine, session), statements in (
            ((tpch, tpch_session), QUERIES.values()),
            (directed, [sql for sql in IMPURE_STATEMENTS
                        if sql.startswith("SELECT")])):
        for sql in statements:
            planner = engine._planner(session, None)
            pending = [planner.plan_select(parse_statement(sql)).root]
            pending += [sub.plan.root for sub in planner.subquery_log]
            while pending:
                op = pending.pop()
                pending.extend(op.children())
                if isinstance(op, NestedLoopJoin):
                    fns = [op.condition]
                elif isinstance(op, (HashJoin, SortMergeJoin)):
                    fns = [op.residual, *op.left_key_fns,
                           *op.right_key_fns]
                else:
                    continue
                joins += 1
                assert not any(is_impure(fn) for fn in fns), sql
    assert joins > 40


# ---------------------------------------------------------------------------
# sys_executor view
# ---------------------------------------------------------------------------


def test_sys_executor_view_reports_batch_activity():
    engine = DatabaseEngine(meter=Meter())
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
    engine = DatabaseEngine(meter=Meter())
    session = EngineSession(session_id=1)
    engine.execute("CREATE TABLE t (a INT)", session)
    engine.execute("INSERT INTO t VALUES (1), (2), (3)", session)
    engine.execute("SELECT a FROM t WHERE a > 1", session).fetch_all()
    assert engine.meter.executor_stats  # diagnostics were recorded
    assert not any(key.startswith("batches.")
                   for key in engine.meter.counters)
