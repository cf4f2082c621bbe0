"""The crash sweeps, as schedules of ``tests/schedules.py`` and oracles.

Each sweep is one schedule plus its configuration, played at every fault
index as a deterministic loop (the stride is the sweep's own), and the
claims are the harness's oracles: (i) committed state at the engine
level; at the client level (ii) exactly-once and (iii) only a pause
against the fault-free run.  Hypothesis draws further schedules on top.
"""

import itertools

import pytest
from hypothesis import HealthCheck, example, given, settings

from repro.odbc.constants import SQL_SUCCESS
from repro.sim.costs import CostModel
from repro.wal.records import BeginCheckpointRecord, EndCheckpointRecord
from tests.schedules import (
    ACCT_SETUP,
    LEDGER_SETUP,
    ONLY_A_PAUSE,
    RESTART,
    ClientRun,
    ClientWorld,
    EngineRun,
    EngineWorld,
    Fault,
    Schedule,
    Step,
    acct_workload,
    assert_indexes_match_heap,
    books_close,
    client_schedules,
    committed_state,
    engine_schedules,
    exactly_once,
    ledger_costs,
    ledger_run,
    ledger_workload,
    replay,
    same_results,
    same_status,
    session_steps,
)

# ---------------------------------------------------------------------------
# Engine level: restart recovery against the committed-state model
# ---------------------------------------------------------------------------

CHECKPOINT = Step(action="checkpoint")   # its regime is the leg's


def straddling_script(seed: int, ops: int = 24) -> list[Step]:
    """The seeded DML, every second three statements in a transaction
    that a checkpoint straddles (its End record's tables must carry
    the transaction through recovery)."""
    statements = acct_workload(seed, ops)
    script = []
    for i in range(0, len(statements), 6):
        autocommit, wrapped = statements[i:i + 3], statements[i + 3:i + 6]
        script += session_steps(0, *autocommit)
        if wrapped:
            script += session_steps(0, "BEGIN TRANSACTION", wrapped[0])
            script.append(CHECKPOINT)
            script += session_steps(0, *wrapped[1:], "COMMIT")
    return script


def regime(script, kind: str) -> list[Step]:
    """``script`` with its checkpoints taken ``kind``-wise."""
    return [step._replace(action=kind) if step == CHECKPOINT else step
            for step in script if step != CHECKPOINT or kind != "none"]


def engine_run(costs=None) -> EngineRun:
    return EngineRun(EngineWorld(costs, ACCT_SETUP), [committed_state])


@pytest.mark.parametrize("seed", [1, 2])
def test_indexes_survive_crash_at_every_statement(seed):
    """Recovery maintains the B-trees incrementally; index = f(heap) must
    hold at every crash point, unique keys reused after deletes too."""
    statements = session_steps(0, *acct_workload(seed, ops=24))
    for crash_at in range(1, len(statements) + 1, 2):
        # A sharp checkpoint first exercises the redo-from-LSN path.
        head = [Step(action="sharp")] if crash_at > 4 else []
        run = engine_run().play(head + statements[:crash_at] + [RESTART])
        assert run.restarts == 1
        assert assert_indexes_match_heap(run.world.engine) >= 3, \
            f"crash point {crash_at} checked too few indexes"


@pytest.mark.parametrize("seed", [1, 2])
def test_fuzzy_checkpoints_and_truncation_survive_crash_sweep(seed):
    """The same prefix recovered behind no checkpoint, sharp ones and
    truncating fuzzy ones, serially and with four redo workers, goes
    through the one restart pass and comes out the committed state."""
    script = straddling_script(seed)
    for crash_at in range(1, len(script) + 1, 3):
        for kind, workers in itertools.product(
                ("none", "sharp", "fuzzy"), (0, 4)):
            where = f"seed {seed} crash point {crash_at} {kind}/{workers}"
            # The script places the checkpoints; no cadence adds any.
            run = engine_run(CostModel(redo_workers=workers,
                                       checkpoint_interval_seconds=0.0))
            steps = regime(script[:crash_at], kind)
            for step in steps:
                run.step(step)
            checkpoints = sum(bool(step.action) for step in steps)
            truncated = run.world.wal.truncated_lsn
            run.step(RESTART)
            assert assert_indexes_match_heap(run.world.engine) >= 3
            report = run.world.engine.last_recovery
            assert report.redo_workers == workers
            if kind == "fuzzy":
                if checkpoints:
                    assert report.fuzzy, f"{where} ignored the checkpoint"
                    assert report.redo_start > truncated
            else:
                assert not report.fuzzy
                assert bool(report.checkpoint_lsn) == \
                    (kind == "sharp" and checkpoints > 0)
                assert report.redo_start == report.checkpoint_lsn + 1
                # Nothing reaches the disk between a sharp checkpoint
                # and the crash, so a skipped record could only be the
                # dirty-page filter's doing.
                assert report.redo_skipped == 0, where


def test_crash_mid_fuzzy_checkpoint_falls_back():
    """Begin written, some pages flushed, End lost: recovery uses the
    previous complete checkpoint and still recovers the committed
    state."""
    script = regime(straddling_script(seed=3), "fuzzy")
    for crash_at in range(4, len(script) + 1, 5):
        run = engine_run()
        for step in script[:crash_at]:
            run.step(step)
        world = run.world
        previous = world.wal.last_complete_checkpoint()
        # An in-progress checkpoint: Begin reaches the durable log, one
        # dirty page is flushed, the End record never happens.
        world.wal.append(BeginCheckpointRecord(txn_id=0))
        world.wal.force(sync=False)
        dirty = sorted(world.engine.buffer_pool.dirty_page_table())
        if dirty:
            world.engine.buffer_pool.flush_page(*dirty[0])
        run.step(RESTART)
        assert assert_indexes_match_heap(world.engine) >= 3
        resolved = world.wal.last_complete_checkpoint()
        if previous is not None:
            assert resolved is not None and resolved.lsn == previous.lsn
            if isinstance(previous, EndCheckpointRecord):
                assert world.engine.last_recovery.fuzzy


def test_worker_count_equivalence_with_straddling_txn():
    """The same crashed world recovered serially and with 1 and 4 redo
    workers, a loser that straddled a truncating checkpoint included,
    comes out the committed state every time."""
    run = engine_run()
    for step in regime(straddling_script(seed=4), "fuzzy")[:-2]:
        run.step(step)     # (stops before the final COMMIT)
    run.world.wal.force()
    run.world.crash()
    committed = replay(ACCT_SETUP, run.committed)
    for workers in (0, 1, 4):
        assert run.world.fork(CostModel(redo_workers=workers)).contents() \
            == committed


#: ROADMAP item 13: a DELETE frees a slot, another session's INSERT may
#: not take it while the deleter can still roll back.
ITEM_13 = Schedule(
    ("CREATE TABLE t (a INT NOT NULL, b INT NOT NULL, v INT, w INT, "
     "PRIMARY KEY (a, b))",),
    (Step(0, "INSERT INTO t VALUES (0, 1, 1, 1)"),
     Step(1, "BEGIN TRANSACTION"),
     Step(1, "DELETE FROM t WHERE a = 0 AND b = 1"),
     Step(0, "INSERT INTO t VALUES (0, 0, 0, 0)"),
     Step(1, "ROLLBACK")))

#: TPC-C's shape of it: delivery's DELETE FROM new_order against
#: new-order's INSERT, the delivery lost to a crash.
NEW_ORDER_SHAPE = Schedule(
    ("CREATE TABLE new_order (no_o_id INT NOT NULL, no_d_id INT NOT NULL, "
     "no_w_id INT NOT NULL, PRIMARY KEY (no_w_id, no_d_id, no_o_id))",
     "INSERT INTO new_order VALUES (1, 1, 1), (2, 1, 1), (3, 1, 1)"),
    (Step(1, "BEGIN TRANSACTION"),
     Step(1, "DELETE FROM new_order WHERE no_w_id = 1 AND no_d_id = 1 "
             "AND no_o_id = 1"),
     Step(0, "BEGIN TRANSACTION"),
     Step(0, "INSERT INTO new_order VALUES (4, 1, 1)"),
     Step(0, "COMMIT"),
     RESTART))


@settings(max_examples=40, deadline=None)
@given(schedule=engine_schedules())
@example(schedule=ITEM_13)
@example(schedule=NEW_ORDER_SHAPE)
def test_engine_schedules_keep_the_committed_state(schedule):
    EngineRun(EngineWorld(CostModel(), schedule.setup),
              [committed_state]).play(schedule.steps)


# ---------------------------------------------------------------------------
# Client level: one Phoenix session on the ledger
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "cache_rows,prefetch,result_cache,analyze,default", [
        (0, False, False, False, False),
        (100, False, False, False, False),
        (0, True, False, False, False),
        (100, True, False, False, False),
        (100, False, True, False, False),
        (100, True, True, False, False),
        (0, False, False, True, False),
        (100, True, False, True, False),
        (100, True, True, True, True),
    ], ids=["seed", "cache", "prefetch", "cache-prefetch",
            "shared-cache", "shared-cache-prefetch",
            "cost", "cost-cache-prefetch", "default"])
def test_crash_at_every_request_boundary(cache_rows, prefetch,
                                         result_cache, analyze, default):
    """Only a pause at every second request boundary: Phoenix
    repositions to the last row delivered and delivers nothing twice,
    and neither pipelining, caching nor plans from ANALYZE statistics
    may alter a single delivered value (cross-checked against the seed
    configuration).  With the shared result cache, point reads on both
    sides of the UPDATEs: a hit on the key they spare, a miss on the key
    they write (under a crash a lost piggyback may cost the hit, never
    the value).  The status table is not compared: a lost hit is a
    persisted result more."""
    schedule = ledger_workload(point_reads=result_cache)
    flags = dict(cache_rows=cache_rows, analyze=analyze, prefetch=prefetch,
                 result_cache=result_cache, default=default)
    reference = ledger_run(schedule, **flags)
    assert reference.observed == ledger_run(
        schedule, cache_rows=cache_rows).observed, (
        "pipelined/cached/cost-planned delivery changed the output")
    meter = reference.world.meter
    if analyze:
        assert reference.world.server.engine.catalog.get_table_stats(
            "ledger")
    if prefetch:
        assert meter.counters.get("prefetch_issued", 0) > 0
    if result_cache:
        assert meter.counters.get("result_cache.hits", 0) > 0
        # The UPDATEs evict the entry of the row they write and spare
        # the one they do not.
        assert reference.hits[1:3] + reference.hits[5:7] == \
            [False, False, True, False]
    total = reference.world.sent
    # Adaptive buffering collapses round trips, never this many.
    assert total > (5 if prefetch else 10)
    for crash_at in range(1, total + 1, 2):
        run = ledger_run(schedule.under(Fault(crash_at)), reference=reference,
                         **flags)
        run.check(same_results, books_close, exactly_once)
        if result_cache:
            assert not run.hits[6], \
                f"a hit on a rewritten row {run.where}"
        if analyze:
            stats = run.world.server.engine.catalog.get_table_stats("ledger")
            assert stats and stats.row_count == 8, \
                f"ANALYZE statistics lost {run.where}"


@pytest.mark.parametrize("cache_rows,pipelined,redo_workers", [
    (0, False, 0), (100, False, 0), (0, True, 0), (100, True, 0),
    (0, True, 4), (100, True, 4),
], ids=["serial", "serial-cache", "pipelined", "pipelined-cache",
        "bench-profile", "bench-profile-cache"])
def test_second_crash_at_every_boundary_of_the_recovery(cache_rows,
                                                        pipelined,
                                                        redo_workers):
    """Recovery is idempotent under a crash *during* recovery: for every
    request boundary k and every boundary inside the failure handling a
    crash at k sets off — pings, session probe, both reconnects, probe
    re-creation, verify, reopen, reposition — crash at k and again
    there.  The ``bench-profile`` legs add parallel redo, whose restart
    opens a window of its own inside the reconnect window."""
    flags = dict(cache_rows=cache_rows, prefetch=pipelined,
                 redo_workers=redo_workers)
    schedule = ledger_workload()
    reference = ledger_run(schedule, **flags)
    assert len(reference.summary()[1]) >= 2  # the two wrapped updates
    second_crashes = 0
    for k in range(1, reference.world.sent + 1):
        run = ledger_run(schedule.under(Fault(k)), reference=reference,
                         **flags)
        assert run.observed == reference.observed, run.where
        assert run.world.handled, f"a crash at request {k} went unnoticed"
        entered, returned = run.world.handled[0]
        for at in range(entered + 1, returned + 1):
            run = ledger_run(schedule.under(Fault(k), Fault(at)),
                             reference=reference, **flags)
            run.check(*ONLY_A_PAUSE)
            assert run.world.apps[0].manager.stats["recoveries"] >= 1
            second_crashes += 1
    # Failure handling is many requests long; the sweep went inside it.
    assert second_crashes > 4 * reference.world.sent


@pytest.mark.parametrize("redo_workers", [0, 4],
                         ids=["serial-redo", "parallel-redo"])
def test_crash_inside_the_reconnect_window_marks_no_handle_connected(
        redo_workers):
    """The application and the private connection re-dial in one overlap
    window.  A crash between the private connection's login and its
    status-table check fails the window after the application's
    reconnect already succeeded: neither handle may stay marked
    connected, the window must be closed, and the failure handler's
    retry loop finishes the job.  The restart itself is no part of the
    window: it is clocked, and parallel redo opens its own."""
    flags = dict(prefetch=True, redo_workers=redo_workers)
    schedule = ledger_workload()
    reference = ledger_run(schedule, **flags)
    world = ClientWorld(ledger_costs(**flags), schedule.setup)
    app, server = world.apps[0], world.server
    manager = app.manager
    seen = {"count": 0, "in_window": 0, "flags": [], "restart_seconds": []}

    def injector(request):
        seen["count"] += 1
        ensure = (seen["count"] > 4 and getattr(request, "sql", "")
                  .startswith("CREATE TABLE phoenix_status"))
        if seen["count"] == 4 or (ensure and not seen["in_window"]):
            seen["in_window"] += ensure
            window = app.meter._window
            server.crash()
            before = app.meter.now
            server.restart()
            seen["restart_seconds"].append(app.meter.now - before)
            assert app.meter._window == window  # stepped back in

    await_server = manager._detector.await_server

    def watched():
        seen["flags"].append((app.conn.connected,
                              manager._private.connected,
                              app.meter._window))
        return await_server()

    manager._detector.await_server = watched
    app.network.fault_injector = injector
    run = ClientRun(world, schedule, reference, arm=False)
    assert run.observed == reference.observed
    assert seen["in_window"] == 1
    # Both restarts reached the clock, the one inside the window too.
    outside, inside = seen["restart_seconds"]
    assert outside > 0 and inside > 0
    # First wait: the original failure.  Second wait: the one that
    # follows the failed window.
    assert seen["flags"][1] == (False, False, None)
    assert app.conn.connected and manager._private.connected
    assert manager.stats["recoveries"] == 1
    breakdown = manager.recovery_phase_breakdown
    # The abandoned attempt stays on the books, as part of noticing that
    # the server had gone again: its reconnect and the in-window restart.
    assert breakdown["failure_detection"] \
        > app.meter.costs.connect_seconds + inside
    assert breakdown["reconnect"] < 2 * app.meter.costs.connect_seconds
    assert breakdown["option_replay"] == 0.0


@pytest.mark.parametrize("cache_rows,pipelined", [
    (0, False), (100, False), (0, True), (100, True),
], ids=["serial", "serial-cache", "pipelined", "pipelined-cache"])
def test_blip_at_every_request_boundary(cache_rows, pipelined):
    """A request lost on the wire with the server (and the session) up.
    The sharp boundaries are inside Phoenix's own wrapper transactions:
    the session survives holding the half-done transaction, so the retry
    has to discard it *before* it consults the status table (inside it,
    the attempt's own uncommitted status row reads as success) and
    before it begins again."""
    flags = dict(cache_rows=cache_rows, prefetch=pipelined)
    schedule = ledger_workload()
    reference = ledger_run(schedule, **flags)
    for blip_at in range(1, reference.world.sent + 1):
        run = ledger_run(schedule.under(Fault(blip_at, kind="blip")),
                         reference=reference, **flags)
        run.check(*ONLY_A_PAUSE, exactly_once)
        stats = run.world.apps[0].manager.stats
        assert stats["blips"] == 1 and stats["recoveries"] == 0


def test_a_result_drop_lost_to_a_failure_is_still_issued():
    """Freeing a persisted result drops its table.  A failure that loses
    that DROP leaves the table owed, not on the server for good: the
    manager drops it after the recovery its next statement runs into."""
    schedule = Schedule(LEDGER_SETUP, (
        Step(0, "SELECT k, v FROM ledger ORDER BY k"),
        Step(0, "UPDATE ledger SET v = v + 1 WHERE k = 1"),
        Step(0, "SELECT sum(v) FROM ledger", fetch=1, keep=True)))
    reference = ledger_run(schedule, default=True)
    assert len(reference.world.result_tables()) == 1  # the kept one
    for point in ("pre", "after"):
        for at in range(1, reference.world.sent + 1):
            run = ledger_run(schedule.under(Fault(at, point)),
                             reference=reference, default=True)
            run.check(*ONLY_A_PAUSE, exactly_once)


def test_blip_then_crash_inside_one_wrapped_update():
    """A blip leaves the wrapper transaction half-done on a surviving
    session; a crash on the retry then takes that session away.  For
    every blip point inside one wrapped UPDATE and every crash point
    after it (until the statement is acknowledged) the update applies
    exactly once and its status row is written exactly once."""
    schedule = Schedule(LEDGER_SETUP, (
        Step(0, "UPDATE ledger SET v = v + 1 WHERE k < 3", keep=True),))
    reference = ledger_run(schedule)
    clean = reference.world.sent
    assert clean == 4  # BEGIN, statement, status INSERT, COMMIT
    assert reference.observed == [(SQL_SUCCESS, 3)]
    assert reference.summary()[1] == [("1_1", 3)]
    pairs = 0
    for blip_at in range(1, clean + 1):
        blip = Fault(blip_at, kind="blip")
        run = ledger_run(schedule.under(blip), reference=reference)
        # A blip on the COMMIT itself is the sharp case: the retry must
        # not mistake the survivor's uncommitted status row for success.
        run.check(*ONLY_A_PAUSE, exactly_once)
        assert run.world.apps[0].manager.stats["blips"] == 1
        # The retry consults the status table and rolls the survivor's
        # transaction back — exchanges the clean run never sends.
        blipped = run.world.sent
        assert blipped > clean + 2
        for crash_at in range(blip_at + 1, blipped + 1):
            run = ledger_run(schedule.under(blip, Fault(crash_at)),
                             reference=reference)
            run.check(*ONLY_A_PAUSE, exactly_once)
            # (A crash on the blip's own ping or session probe turns the
            # verdict into "session lost": no blip is counted then.)
            assert run.world.apps[0].manager.stats["recoveries"] >= 1
            pairs += 1
    assert pairs > 20


# ---------------------------------------------------------------------------
# Client level: two sessions under row locking
# ---------------------------------------------------------------------------

ACCT_ROWS = (
    "CREATE TABLE acct (k INT NOT NULL, v INT, PRIMARY KEY (k))",
    "INSERT INTO acct VALUES (0, 100), (1, 200), (2, 300), (3, 400)",
)

#: Two explicit transactions per round on disjoint rows (row locks let
#: them overlap), each open across several request boundaries, so
#: crashes land while two transactions are in flight; the second round
#: swaps the roles.
DISJOINT = Schedule(ACCT_ROWS, tuple(
    Step(who, sql, fetch=1) for who, sql in [
        (0, "BEGIN TRANSACTION"),
        (0, "UPDATE acct SET v = v + 1 WHERE k = 0"),
        (1, "BEGIN TRANSACTION"),
        (1, "UPDATE acct SET v = v + 2 WHERE k = 2"),
        (0, "SELECT v FROM acct WHERE k = 0"),
        (1, "UPDATE acct SET v = v + 3 WHERE k = 3"),
        (0, "UPDATE acct SET v = v + 4 WHERE k = 1"),
        (0, "COMMIT"),
        (1, "SELECT v FROM acct WHERE k = 2"),
        (1, "COMMIT"),
        (1, "BEGIN TRANSACTION"),
        (1, "UPDATE acct SET v = v + 5 WHERE k = 0"),
        (0, "BEGIN TRANSACTION"),
        (0, "UPDATE acct SET v = v + 6 WHERE k = 2"),
        (1, "UPDATE acct SET v = v + 7 WHERE k = 1"),
        (1, "COMMIT"),
        (0, "COMMIT"),
    ]))


def acct_run(schedule, reference=None) -> ClientRun:
    world = ClientWorld(CostModel(output_buffer_bytes=16), schedule.setup,
                        sessions=2)
    return ClientRun(world, schedule, reference)


def test_concurrent_row_sessions_survive_crash_at_every_boundary():
    """Recovery rebuilds both sessions' state; each aborted transaction
    surfaces 40001 and is replayed from its BEGIN; every increment is
    applied exactly once."""
    # The overlap is real: after both sessions updated, two
    # transactions hold locks.
    server = acct_run(DISJOINT._replace(steps=DISJOINT.steps[:4])) \
        .world.server
    assert len({txn for _t, _g, _k, _m, txn, _w
                in server.engine.locks.snapshot()}) >= 2
    reference = acct_run(DISJOINT)
    assert reference.summary()[0] == {
        "acct": [(0, 106), (1, 211), (2, 308), (3, 403)]}
    assert [reference.observed[i] for i in (4, 8)] == \
        [(SQL_SUCCESS, [(101,)]), (SQL_SUCCESS, [(302,)])]
    assert reference.world.sent > 15
    for crash_at in range(1, reference.world.sent + 1):
        acct_run(DISJOINT.under(Fault(crash_at)), reference).check(
            same_results, books_close, exactly_once)


#: Both sessions update row 1 — inside a transaction and as a wrapped
#: autocommit statement — so whoever comes second is held by the server
#: until the first commits: session 1's UPDATE inside its transaction,
#: then session 0's wrapped one.  The additions commute: the final
#: contents do not depend on who won, which a crash may change.
SAME_ROW = Schedule(ACCT_ROWS, tuple(
    Step(who, sql, fetch=0) for who, sql in [
        (0, "BEGIN TRANSACTION"),
        (1, "BEGIN TRANSACTION"),
        (0, "UPDATE acct SET v = v + 1 WHERE k = 1"),
        (1, "UPDATE acct SET v = v + 10 WHERE k = 1"),
        (0, "SELECT v FROM acct WHERE k = 0"),
        (0, "UPDATE acct SET v = v + 2 WHERE k = 2"),
        (0, "COMMIT"),
        (1, "COMMIT"),
        (1, "UPDATE acct SET v = v + 1000 WHERE k = 1"),
        (1, "BEGIN TRANSACTION"),
        (1, "UPDATE acct SET v = v + 20 WHERE k = 2"),
        (1, "UPDATE acct SET v = v + 10000 WHERE k = 1"),
        (0, "UPDATE acct SET v = v + 100 WHERE k = 1"),
        (1, "COMMIT"),
    ]))


def test_held_statement_survives_crash_at_every_boundary():
    """A statement held by the server behind the other session's lock —
    inside an application transaction and inside a Phoenix wrapper
    transaction — is lost by a crash like any request in flight: Phoenix
    recovers, an application transaction surfaces 40001, and after the
    replay the table and the status table equal the crash-free run's."""
    reference = acct_run(SAME_ROW)
    counters = reference.world.meter.counters
    # Statements were held, of both kinds, and the server resumed the
    # wrapper script at its held statement, nothing cancelled.
    assert counters["locks.wait_episodes"] == 2
    assert counters.get("locks.held_statements_cancelled", 0) == 0
    assert reference.summary()[0] == {
        "acct": [(0, 100), (1, 11311), (2, 322), (3, 400)]}
    # The three application COMMITs and the two wrapped updates.
    assert sorted(count for _key, count in reference.summary()[1]) \
        == [0, 0, 0, 1, 1]
    lost_while_held = aborted = 0
    for crash_at in range(1, reference.world.sent + 1):
        run = acct_run(SAME_ROW.under(Fault(crash_at)), reference)
        run.check(same_status, books_close, exactly_once)
        assert run.world.contents() == reference.summary()[0], run.where
        locks = run.world.server.engine.locks
        assert locks.queued() == [] and locks.snapshot() == [], run.where
        lost_while_held += run.world.faults_on_held
        aborted += run.aborts
    # Crashes did land on held statements, and transactions did abort.
    assert lost_while_held >= 3
    assert aborted >= lost_while_held


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(schedule=client_schedules())
def test_client_schedules_are_only_a_pause(schedule):
    reference = acct_run(schedule._replace(faults=()))
    acct_run(schedule, reference).check(*ONLY_A_PAUSE, exactly_once)
