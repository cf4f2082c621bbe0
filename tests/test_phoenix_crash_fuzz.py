"""Randomized crash injection: transparency holds at every request index.

A crash-and-restart is injected before the Nth protocol request, for N
swept across the whole range a workload generates.  Whatever N is, the
application must observe exactly the same results as a run with no
crashes — this is the paper's transparency claim, verified exhaustively
at every request boundary (including mid-persistence-pipeline points).

Every world here runs with tracing enabled, and after each fuzzed run
the recorded span tree must be *complete* (nothing left open — crashes
close their spans with an error status, they don't leak them) and
*well-nested* (the schema validator finds nothing) — crash timing must
never corrupt observability itself.
"""

import pytest

from repro.obs.validate import validate_spans

from repro.odbc.constants import (
    SQL_NO_DATA,
    SQL_STILL_EXECUTING,
    SQL_SUCCESS,
)
from repro.phoenix.config import PhoenixConfig
from repro.server.server import DatabaseServer
from repro.sim.costs import CostModel
from repro.sim.meter import Meter
from repro.workloads.app import BenchmarkApp


def build_world(cache_rows: int = 0, prefetch: bool = False,
                result_cache: bool = False, analyze: bool = False,
                redo_workers: int = 0, default: bool = False):
    """Each flag adds one feature to the paper's configuration, so a
    leg's name says what it fuzzes; ``default`` runs the configuration
    as shipped instead — every feature at once, checkpoint cadence and
    parallel redo included.  ``analyze`` collects statistics once the
    ledger is loaded: plans then come from them, not from defaults."""
    if default:
        costs = CostModel(output_buffer_bytes=16)
        prefetch = result_cache = False     # on already, at shipped sizes
    else:
        # ``redo_workers >= 1`` makes every restart open an overlap window
        # of its own (parallel redo), whatever window the client holds
        # open.
        costs = CostModel.paper(output_buffer_bytes=16,
                                redo_workers=redo_workers)
    if prefetch:
        # Pipelined result delivery on, with the output buffer kept tiny
        # so every result spans many wire batches: crashes land between
        # prefetch issue and consumption all over the sweep.
        costs.fetch_ahead_depth = 2
        costs.fetch_batch_max_bytes = 64
        costs.output_buffer_max_bytes = 64
        costs.persist_pipeline = True
    if result_cache:
        # The transaction-consistent shared result cache: crashes land
        # between admission, invalidation and the post-crash probe
        # revalidation; repeated statements in the workload mean hits
        # (and their survival across restarts) are actually exercised.
        costs.result_cache_entries = 64
    meter = Meter(costs)
    meter.tracer.enable()
    # The latency ledger rides along on every fuzzed world: crash timing
    # must never break the accounting identity either.
    meter.enable_latency_ledger()
    server = DatabaseServer(meter=meter)
    setup = BenchmarkApp(server)
    setup.run_statement("CREATE TABLE ledger (k INT NOT NULL, v INT, "
                        "PRIMARY KEY (k))")
    setup.run_statement(
        "INSERT INTO ledger VALUES " + ", ".join(
            f"({i}, {i * 10})" for i in range(8)))
    if analyze:
        # Crashes must neither change a single observed value nor lose
        # the statistics across recovery.
        setup.run_statement("ANALYZE")
    config = PhoenixConfig(client_cache_rows=cache_rows)
    app = BenchmarkApp(server, use_phoenix=True, phoenix_config=config)
    return server, app


def run_query(app, label: str, sql: str, observed: list) -> None:
    stmt = app.manager.alloc_statement(app.conn)
    rc = app.manager.exec_direct(stmt, sql)
    observed.append((f"{label}-exec", rc))
    rc, row = app.manager.fetch(stmt)
    observed.append((label, row))


#: Point reads around the UPDATEs (``point_reads`` legs): key 4 is one
#: neither UPDATE touches, key 1 one the first UPDATE does.
UNTOUCHED_SQL = "SELECT v FROM ledger WHERE k = 4"
TOUCHED_SQL = "SELECT v FROM ledger WHERE k = 1"


def workload(app, point_reads: bool = False) -> list:
    """A small mixed workload; returns everything the app observes.
    With ``point_reads`` two primary-key SELECTs run before the UPDATEs
    and again after them, and ``app.shared_hits`` tells which of the
    four the shared result cache answered."""
    observed = []
    app.shared_hits = {}

    def point_read(label: str, sql: str) -> None:
        before = app.manager.stats["shared_cache_hits"]
        run_query(app, label, sql, observed)
        app.shared_hits[label] = \
            app.manager.stats["shared_cache_hits"] > before

    stmt = app.manager.alloc_statement(app.conn)
    rc = app.manager.exec_direct(stmt,
                                 "SELECT k, v FROM ledger ORDER BY k")
    observed.append(("exec", rc))
    while True:
        rc, row = app.manager.fetch(stmt)
        if rc != SQL_SUCCESS:
            observed.append(("end", rc))
            break
        observed.append(("row", row))
    if point_reads:
        point_read("untouched", UNTOUCHED_SQL)
        point_read("touched", TOUCHED_SQL)
    upd = app.manager.alloc_statement(app.conn)
    rc = app.manager.exec_direct(upd,
                                 "UPDATE ledger SET v = v + 1 WHERE k < 3")
    observed.append(("update", rc, app.manager.row_count(upd)))
    # A second wrapped update: a failure-free wrapped statement is four
    # round trips (no status probe, no defensive ROLLBACK), and the
    # sweeps below need boundaries inside more than one of them.
    rc = app.manager.exec_direct(upd,
                                 "UPDATE ledger SET v = v + 2 WHERE k >= 6")
    observed.append(("update-2", rc, app.manager.row_count(upd)))
    if point_reads:
        point_read("untouched-again", UNTOUCHED_SQL)
        point_read("touched-again", TOUCHED_SQL)
    run_query(app, "sum", "SELECT sum(v) FROM ledger", observed)
    # Repeat the aggregate: with the shared result cache on this is a
    # hit — when a crash lands between the two executions the cache must
    # revalidate against the recovered server and still serve (or
    # recompute) the identical value, never a stale one.
    run_query(app, "sum-again", "SELECT sum(v) FROM ledger", observed)
    return observed


def reference_run(cache_rows: int = 0, prefetch: bool = False,
                  result_cache: bool = False, analyze: bool = False,
                  point_reads: bool = False, default: bool = False) -> list:
    server, app = build_world(cache_rows, prefetch, result_cache,
                              analyze, default=default)
    observed = workload(app, point_reads)
    if analyze:
        # The sweep must actually plan from the statistics.
        assert server.engine.catalog.get_table_stats("ledger")
    if prefetch:
        # The reference must actually exercise the pipeline, or the
        # sweep below would be fuzzing the seed path under a new name.
        assert app.meter.counters.get("prefetch_issued", 0) > 0
    if result_cache and cache_rows:
        # Likewise: the cache-on sweep must actually serve a hit.
        assert app.meter.counters.get("result_cache.hits", 0) > 0
    if result_cache and point_reads:
        # Invalidation is by key: the UPDATEs in between evict the entry
        # of the row they write and spare the one they do not.
        assert app.shared_hits == {"untouched": False, "touched": False,
                                   "untouched-again": True,
                                   "touched-again": False}
    return observed


def count_requests(cache_rows: int = 0, prefetch: bool = False,
                   result_cache: bool = False, analyze: bool = False,
                   point_reads: bool = False, default: bool = False) -> int:
    server, app = build_world(cache_rows, prefetch, result_cache,
                              analyze, default=default)
    start = app.network.requests_sent
    workload(app, point_reads)
    return app.network.requests_sent - start


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
    """Crash transparency at every 2nd request boundary.

    With ``prefetch`` the same sweep runs with fetch-ahead, adaptive
    batching and the persist pipeline enabled — so crashes land between
    prefetch issue and consumption.  With ``result_cache`` the shared
    result cache rides along: crashes land between admission,
    invalidation, promotion and the probe revalidation, and a hit served
    after recovery must deliver exactly the committed values.  The
    invariant is unchanged *and* cross-checked against the seed
    configuration: Phoenix repositions to the last row actually
    delivered, nothing is delivered twice, and neither pipelining nor
    caching may alter a single observed value.  With ``analyze`` every
    statement is planned from ANALYZE statistics — the observed values
    must still match the seed leg's exactly, and the statistics
    themselves must survive every crash/recovery point.
    The ``default`` leg is ``CostModel()`` as shipped: all of the above
    at once, under the checkpoint cadence and parallel redo.
    """
    # The shared-cache legs add point reads on both sides of the
    # UPDATEs: a hit on the key they spare, a miss on the key they write
    # (asserted on the crash-free run; under a crash a lost piggyback
    # may cost the hit, never the value).
    point_reads = result_cache
    expected = reference_run(cache_rows, prefetch, result_cache,
                             analyze, point_reads, default)
    assert expected == reference_run(cache_rows, point_reads=point_reads), (
        "pipelined/cached/cost-planned delivery changed the crash-free "
        "output")
    total = count_requests(cache_rows, prefetch, result_cache, analyze,
                           point_reads, default)
    # Adaptive buffering legitimately collapses round trips, so the
    # pipelined sweep covers fewer boundaries — but never this few.
    assert total > (5 if prefetch else 10)
    # Sweep every 2nd boundary to keep runtime sane while still covering
    # every pipeline stage (requests alternate through all steps).
    for crash_at in range(1, total + 1, 2):
        server, app = build_world(cache_rows, prefetch, result_cache,
                                  analyze, default=default)
        fired = {"count": 0, "done": False}

        def injector(request, server=server, fired=fired,
                     crash_at=crash_at):
            fired["count"] += 1
            if fired["count"] == crash_at and not fired["done"]:
                fired["done"] = True
                server.crash()
                server.restart()

        app.network.fault_injector = injector
        observed = workload(app, point_reads)
        assert observed == expected, (
            f"output diverged when crashing at request {crash_at} "
            f"(cache_rows={cache_rows}, prefetch={prefetch}, "
            f"result_cache={result_cache}, analyze={analyze})")
        if point_reads:
            assert not app.shared_hits["touched-again"], (
                f"a hit on a rewritten row when crashing at request "
                f"{crash_at}")
        if analyze:
            stats = server.engine.catalog.get_table_stats("ledger")
            assert stats and stats["row_count"] == 8, (
                f"ANALYZE statistics lost when crashing at request "
                f"{crash_at}")
        tracer = app.meter.tracer
        assert tracer.open_span_count == 0, (
            f"spans leaked open when crashing at request {crash_at}")
        errors = validate_spans(tracer.finished)
        assert errors == [], (
            f"span tree invalid when crashing at request {crash_at}: "
            f"{errors[:3]}")
        ledger = app.meter.latency
        assert ledger.closed > 0
        assert ledger.identity_violations == [], (
            f"latency accounting identity broken when crashing at "
            f"request {crash_at} (cache_rows={cache_rows}, "
            f"prefetch={prefetch}): {ledger.identity_violations[:3]}")


# ---------------------------------------------------------------------------
# Double faults: a second failure while the first is being handled
# ---------------------------------------------------------------------------

STATUS_SQL = ("SELECT op_key, rows_affected FROM phoenix_status "
              "ORDER BY op_key")


def status_rows(server) -> list:
    """The status table as a fresh native session reads it."""
    return BenchmarkApp(server).query_rows(STATUS_SQL)


def inject_crashes(server, app, crash_at: set) -> dict:
    """Crash-and-restart at each request index in ``crash_at``; the
    returned dict counts requests and records, per failure Phoenix
    handles, the request count on entry and on return."""
    seen = {"count": 0, "handled": []}

    def injector(request):
        seen["count"] += 1
        if seen["count"] in crash_at:
            server.crash()
            server.restart()

    handle_failure = app.manager._handle_failure

    def watched(vconn, original):
        entered = seen["count"]
        try:
            return handle_failure(vconn, original)
        finally:
            seen["handled"].append((entered, seen["count"]))

    app.manager._handle_failure = watched
    app.network.fault_injector = injector
    return seen


def assert_only_a_pause(server, app, observed, expected, expected_status,
                        where: str, crashed: bool = True) -> None:
    assert observed == expected, f"output diverged {where}"
    # Exactly-once: one status row per completed op key, the recorded
    # counts those of the crash-free run.
    assert status_rows(server) == expected_status, (
        f"status table diverged {where}")
    tracer = app.meter.tracer
    if crashed:
        # (Without a crash, a cursor the retry abandoned stays open on
        # the surviving session, and so does its executor stream span.)
        assert tracer.open_span_count == 0, f"spans leaked open {where}"
    errors = validate_spans(tracer.finished)
    assert errors == [], f"span tree invalid {where}: {errors[:3]}"
    ledger = app.meter.latency
    assert ledger.identity_violations == [], (
        f"latency accounting identity broken {where}: "
        f"{ledger.identity_violations[:3]}")


@pytest.mark.parametrize("cache_rows,pipelined,redo_workers", [
    (0, False, 0), (100, False, 0), (0, True, 0), (100, True, 0),
    (0, True, 4), (100, True, 4),
], ids=["serial", "serial-cache", "pipelined", "pipelined-cache",
        "bench-profile", "bench-profile-cache"])
def test_second_crash_at_every_boundary_of_the_recovery(cache_rows,
                                                        pipelined,
                                                        redo_workers):
    """Recovery is idempotent under a crash *during* recovery.

    For every request boundary k of the workload and every boundary
    k + j inside the failure handling that a crash at k sets off — the
    pings, the session probe, both reconnects (the login-carried,
    one-window chain when ``pipelined``; connect plus one round trip per
    option otherwise), the probe re-creation, verify, reopen and
    reposition — crash at k and again at k + j.  The application still
    sees only a pause, every wrapped statement took effect exactly once,
    and observability stays whole.  The ``bench-profile`` legs add
    parallel redo, the combination the benchmark ships: a restart that
    lands inside the reconnect window opens a window of its own.
    """
    def world():
        return build_world(cache_rows, pipelined, redo_workers=redo_workers)

    server, app = world()
    expected = workload(app)
    expected_status = status_rows(server)
    assert len(expected_status) >= 2  # at least the two wrapped updates
    total = count_requests(cache_rows, pipelined)
    second_crashes = 0
    for k in range(1, total + 1):
        server, app = world()
        seen = inject_crashes(server, app, {k})
        assert workload(app) == expected
        assert seen["handled"], f"crash at request {k} went unnoticed"
        entered, returned = seen["handled"][0]
        for at in range(entered + 1, returned + 1):
            server, app = world()
            seen = inject_crashes(server, app, {k, at})
            observed = workload(app)
            second_crashes += 1
            assert_only_a_pause(
                server, app, observed, expected, expected_status,
                f"crashing at requests {k} and {at} "
                f"(cache_rows={cache_rows}, pipelined={pipelined}, "
                f"redo_workers={redo_workers})")
            assert app.manager.stats["recoveries"] >= 1
    # Failure handling is many requests long; the sweep really went
    # inside it.
    assert second_crashes > 4 * total


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
    server, app = build_world(0, True, redo_workers=redo_workers)
    expected = workload(app)
    server, app = build_world(0, True, redo_workers=redo_workers)
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
    assert workload(app) == expected
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

    The sharp boundaries are inside Phoenix's own wrapper transactions —
    a wrapped UPDATE, a result load: the session survives holding the
    half-done transaction, so the retry has to discard it *before* it
    consults the status table (inside it, the attempt's own uncommitted
    status row reads as success) and before it begins again."""
    from repro.errors import RequestTimeoutError

    server, app = build_world(cache_rows, pipelined)
    expected = workload(app)
    expected_status = status_rows(server)
    for blip_at in range(1, count_requests(cache_rows, pipelined) + 1):
        server, app = build_world(cache_rows, pipelined)
        seen = {"count": 0}

        def injector(request, seen=seen, blip_at=blip_at):
            seen["count"] += 1
            if seen["count"] == blip_at:
                raise RequestTimeoutError("spurious timeout")

        app.network.fault_injector = injector
        observed = workload(app)
        app.network.fault_injector = None
        assert_only_a_pause(
            server, app, observed, expected, expected_status,
            f"with a blip at request {blip_at} (cache_rows={cache_rows}, "
            f"pipelined={pipelined})", crashed=False)
        assert app.manager.stats["blips"] == 1
        assert app.manager.stats["recoveries"] == 0


def test_blip_then_crash_inside_one_wrapped_update():
    """A blip leaves the wrapper transaction half-done on a surviving
    session; a crash on the retry then takes that session away.  For
    every blip point b inside one wrapped UPDATE and every crash point
    after it (until the statement is acknowledged) the update applies
    exactly once and its status row is written exactly once."""
    from repro.errors import RequestTimeoutError

    sql = "UPDATE ledger SET v = v + 1 WHERE k < 3"

    def run(blip_at=0, crash_at=0):
        server, app = build_world()
        seen = {"count": 0}

        def injector(request):
            seen["count"] += 1
            if seen["count"] == blip_at:
                raise RequestTimeoutError("spurious timeout")
            if seen["count"] == crash_at:
                server.crash()
                server.restart()

        app.network.fault_injector = injector
        statement = app.manager.alloc_statement(app.conn)
        rc = app.manager.exec_direct(statement, sql)
        observed = [(rc, app.manager.row_count(statement))]
        requests = seen["count"]
        app.network.fault_injector = None
        observed.append(app.query_rows("SELECT k, v FROM ledger ORDER BY k"))
        return server, app, observed, requests

    server, _app, expected, clean = run()
    assert clean == 4  # BEGIN, statement, status INSERT, COMMIT
    assert expected[0] == (SQL_SUCCESS, 3)
    expected_status = status_rows(server)
    # The update's row, and the read-back's status-guarded load.
    assert expected_status == [("1_1", 3), ("1_2", 0)]
    pairs = 0
    for blip_at in range(1, clean + 1):
        server, app, observed, blipped = run(blip_at)
        # A blip on the COMMIT itself is the sharp case: the retry must
        # not mistake the survivor's uncommitted status row for success.
        assert_only_a_pause(server, app, observed, expected,
                            expected_status, f"blip at request {blip_at}",
                            crashed=False)
        assert app.manager.stats["blips"] == 1
        # The retry consults the status table and rolls the survivor's
        # transaction back — exchanges the clean run never sends.
        assert blipped > clean + 2
        for crash_at in range(blip_at + 1, blipped + 1):
            server, app, observed, _ = run(blip_at, crash_at)
            pairs += 1
            assert_only_a_pause(
                server, app, observed, expected, expected_status,
                f"blip at request {blip_at}, crash at {crash_at}")
            # (A crash on the blip's own ping or session probe turns the
            # verdict into "session lost": no blip is counted then.)
            assert app.manager.stats["recoveries"] >= 1
    assert pairs > 20


# ---------------------------------------------------------------------------
# Concurrent sessions under row-level locking
# ---------------------------------------------------------------------------

# A fixed interleaving of two explicit transactions per round, touching
# disjoint rows (so row locks let them overlap).  Both sessions hold
# open transactions across several request boundaries, so the crash
# sweep below lands crashes while >=2 transactions are in flight.
_CONCURRENT_SCHEDULE = [
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
    # Second round with the roles swapped, so the *other* session is
    # the one mid-transaction while its peer begins and commits.
    (1, "BEGIN TRANSACTION"),
    (1, "UPDATE acct SET v = v + 5 WHERE k = 0"),
    (0, "BEGIN TRANSACTION"),
    (0, "UPDATE acct SET v = v + 6 WHERE k = 2"),
    (1, "UPDATE acct SET v = v + 7 WHERE k = 1"),
    (1, "COMMIT"),
    (0, "COMMIT"),
]


def build_concurrent_row_world():
    costs = CostModel(output_buffer_bytes=16)
    meter = Meter(costs)
    meter.tracer.enable()
    meter.enable_latency_ledger()
    server = DatabaseServer(meter=meter)
    setup = BenchmarkApp(server)
    setup.run_statement("CREATE TABLE acct (k INT NOT NULL, v INT, "
                        "PRIMARY KEY (k))")
    setup.run_statement("INSERT INTO acct VALUES (0, 100), (1, 200), "
                        "(2, 300), (3, 400)")
    apps = [BenchmarkApp(server, use_phoenix=True,
                         phoenix_config=PhoenixConfig(),
                         login=f"fuzz-{i}") for i in range(2)]
    return server, apps


def _exec_stmt(app, sql):
    """(ok, sqlstate, first_row) for one statement on one session."""
    manager = app.manager
    stmt = manager.alloc_statement(app.conn)
    rc = manager.exec_direct(stmt, sql)
    if rc != SQL_SUCCESS:
        diags = manager.get_diag(stmt)
        manager.free_statement(stmt)
        return False, (diags[-1].sqlstate if diags else "HY000"), None
    row = None
    if sql.lstrip().upper().startswith("SELECT"):
        rc, row = manager.fetch(stmt)
        if rc != SQL_SUCCESS:
            row = None
    manager.free_statement(stmt)
    return True, None, row


def _step_txn(app, prefix, sql):
    """Advance one session's open transaction by one statement.

    SQLSTATE 40001 means the transaction was aborted under the app —
    deadlock victim or server crash — so the app acknowledges with
    ROLLBACK and replays the transaction from its BEGIN (``prefix``),
    then retries ``sql``.  This is exactly the retry loop a real Phoenix
    client would run.  (The sessions of this schedule touch disjoint
    rows: nothing ever waits for a lock.  The same-row leg below has its
    own driver.)
    """
    for _attempt in range(30):
        ok, state, row = _exec_stmt(app, sql)
        if ok:
            prefix.append(sql)
            return row
        assert state == "40001", f"unexpected SQLSTATE {state} for {sql!r}"
        _exec_stmt(app, "ROLLBACK")  # tolerant: txn may already be gone
        replayed = True
        for prev in prefix:
            ok, state, _ = _exec_stmt(app, prev)
            if not ok:
                assert state == "40001", (
                    f"unexpected SQLSTATE {state} replaying {prev!r}")
                _exec_stmt(app, "ROLLBACK")
                replayed = False
                break
        if not replayed:
            continue  # aborted again mid-replay: start the txn over
    else:
        raise AssertionError(f"transaction never completed at {sql!r}")


def run_concurrent_schedule(apps) -> list:
    """Drive the fixed interleaving; returns every SELECT observation."""
    observed = []
    prefixes = [[], []]
    for who, sql in _CONCURRENT_SCHEDULE:
        row = _step_txn(apps[who], prefixes[who], sql)
        if sql.lstrip().upper().startswith("SELECT"):
            observed.append((who, sql, row))
        if sql == "COMMIT":
            prefixes[who].clear()
    return observed


def final_contents(app) -> list:
    stmt = app.manager.alloc_statement(app.conn)
    rc = app.manager.exec_direct(stmt, "SELECT k, v FROM acct ORDER BY k")
    assert rc == SQL_SUCCESS
    rows = []
    while True:
        rc, row = app.manager.fetch(stmt)
        if rc != SQL_SUCCESS:
            break
        rows.append(row)
    app.manager.free_statement(stmt)
    return rows


def test_concurrent_row_sessions_survive_crash_at_every_boundary():
    """Phoenix transparency with two concurrent row-locking sessions.

    Two Phoenix sessions interleave explicit multi-statement
    transactions on disjoint rows.  A crash is
    injected at every shared request boundary, including points where
    both transactions are in flight; recovery must rebuild *both*
    sessions' state, each aborted transaction must surface SQLSTATE
    40001 exactly as documented, and after client-side retry-from-BEGIN
    the final table contents must be bit-identical to the no-crash run
    (every increment applied exactly once — never lost, never doubled).
    """
    # Reference: no crashes.  Verify the overlap is real — right after
    # both sessions have updated, two distinct transactions hold locks.
    server, apps = build_concurrent_row_world()
    prefixes = [[], []]
    for index, (who, sql) in enumerate(_CONCURRENT_SCHEDULE):
        _step_txn(apps[who], prefixes[who], sql)
        if sql == "COMMIT":
            prefixes[who].clear()
        if index == 3:
            holders = {txn for _t, _g, _k, _m, txn, _w
                       in server.engine.locks.snapshot()}
            assert len(holders) >= 2, (
                "expected two concurrent lock-holding transactions")
    expected_rows = final_contents(apps[0])
    assert expected_rows == [(0, 106), (1, 211), (2, 308), (3, 403)]
    expected_observed = [(0, "SELECT v FROM acct WHERE k = 0", (101,)),
                         (1, "SELECT v FROM acct WHERE k = 2", (302,))]

    # Count shared request boundaries across both sessions' networks.
    # Each in-transaction SELECT persists with one script exchange, so
    # the schedule is 19 requests (29 under the paper's recipe): crash
    # at every one of them.
    server, apps = build_concurrent_row_world()
    start = sum(app.network.requests_sent for app in apps)
    run_concurrent_schedule(apps)
    total = (sum(app.network.requests_sent for app in apps) - start)
    assert total > 15

    for crash_at in range(1, total + 1):
        server, apps = build_concurrent_row_world()
        fired = {"count": 0, "done": False}

        def injector(request, server=server, fired=fired,
                     crash_at=crash_at):
            fired["count"] += 1
            if fired["count"] == crash_at and not fired["done"]:
                fired["done"] = True
                server.crash()
                server.restart()

        for app in apps:
            app.network.fault_injector = injector
        observed = run_concurrent_schedule(apps)
        assert observed == expected_observed, (
            f"in-transaction reads diverged when crashing at request "
            f"{crash_at}")
        rows = final_contents(apps[0])
        assert rows == expected_rows, (
            f"final contents diverged when crashing at request "
            f"{crash_at}: {rows}")
        tracer = apps[0].meter.tracer
        assert tracer.open_span_count == 0, (
            f"spans leaked open when crashing at request {crash_at}")
        errors = validate_spans(tracer.finished)
        assert errors == [], (
            f"span tree invalid when crashing at request {crash_at}: "
            f"{errors[:3]}")


# ---------------------------------------------------------------------------
# ... and on the same row: a crash while the server holds a statement
# ---------------------------------------------------------------------------

#: Both sessions update row 1 — inside a transaction and as a wrapped
#: autocommit statement — so whoever comes second is held by the server
#: until the first commits.  The additions commute: the final contents do
#: not depend on who won, which a crash may change.
_SAME_ROW_SCRIPTS = (
    ["BEGIN TRANSACTION",
     "UPDATE acct SET v = v + 1 WHERE k = 1",
     "SELECT v FROM acct WHERE k = 0",
     "UPDATE acct SET v = v + 2 WHERE k = 2",
     "COMMIT",
     "UPDATE acct SET v = v + 100 WHERE k = 1"],
    ["BEGIN TRANSACTION",
     "UPDATE acct SET v = v + 10 WHERE k = 1",
     "COMMIT",
     "UPDATE acct SET v = v + 1000 WHERE k = 1",
     "BEGIN TRANSACTION",
     "UPDATE acct SET v = v + 20 WHERE k = 2",
     "UPDATE acct SET v = v + 10000 WHERE k = 1",
     "COMMIT"],
)


class _Script:
    """One session working through its statements, one per turn.  A
    statement the server holds keeps its handle and is called again when
    it is no longer executing; 40001 rolls back and replays the open
    transaction from its BEGIN."""

    def __init__(self, app, statements):
        self.app = app
        self.queue = list(statements)
        self.prefix = []        # the open transaction so far
        self.statement = None   # handle of a held statement
        self.aborts = 0

    @property
    def done(self) -> bool:
        return not self.queue

    def step(self) -> bool:
        """True if a statement completed (or its transaction restarted)."""
        manager = self.app.manager
        if self.statement is not None \
                and manager.still_executing(self.statement):
            return False
        sql = self.queue[0]
        statement = self.statement or manager.alloc_statement(self.app.conn)
        rc = manager.exec_direct(statement, sql)
        if rc == SQL_STILL_EXECUTING:
            self.statement = statement
            return False
        self.statement = None
        diags = manager.get_diag(statement)
        manager.free_statement(statement)
        if rc == SQL_SUCCESS:
            self.queue.pop(0)
            if self.prefix or sql == "BEGIN TRANSACTION":
                self.prefix.append(sql)
            if sql == "COMMIT":
                self.prefix.clear()
            return True
        state = diags[-1].sqlstate if diags else "HY000"
        assert state == "40001", f"unexpected SQLSTATE {state} for {sql!r}"
        assert self.prefix, f"40001 outside a transaction for {sql!r}"
        self.aborts += 1
        _exec_stmt(self.app, "ROLLBACK")  # tolerant: txn may be gone
        self.queue[:0] = self.prefix
        self.prefix.clear()
        return True


def run_same_row_scripts(apps) -> list:
    scripts = [_Script(app, statements)
               for app, statements in zip(apps, _SAME_ROW_SCRIPTS)]
    while not all(script.done for script in scripts):
        progressed = [script.step() for script in scripts
                      if not script.done]
        assert any(progressed), "both sessions wait: a wake-up was lost"
    return scripts


def test_held_statement_survives_crash_at_every_boundary():
    """The concurrent sweep's same-row leg.  One session's statement is
    held by the server behind the other's lock — inside an application
    transaction and inside a Phoenix wrapper transaction — and a crash
    at every request boundary must stay nothing but a pause: a held
    statement is lost like any request in flight, Phoenix recovers, an
    application transaction surfaces the documented 40001, and after the
    replay the table and the status table equal the crash-free run's."""
    server, apps = build_concurrent_row_world()
    start = sum(app.network.requests_sent for app in apps)
    run_same_row_scripts(apps)
    total = sum(app.network.requests_sent for app in apps) - start
    counters = server.meter.counters
    # The leg is what it says: statements were held, of both kinds.
    # (one inside an application transaction, one inside a wrapper
    # script — which the server resumed at its held statement, nothing
    # cancelled).
    assert counters["locks.wait_episodes"] == 2
    assert counters.get("locks.held_statements_cancelled", 0) == 0
    expected_rows = final_contents(apps[0])
    assert expected_rows == [(0, 100), (1, 11311), (2, 322), (3, 400)]
    # The two wrapped updates, and the status-guarded load of the
    # read-back above.
    expected_status = sorted(count for _key, count in status_rows(server))
    assert expected_status == [0, 1, 1]

    lost_while_held = aborted = 0
    for crash_at in range(1, total + 1):
        server, apps = build_concurrent_row_world()
        fired = {"count": 0, "held": False}

        def injector(request, server=server, fired=fired,
                     crash_at=crash_at):
            fired["count"] += 1
            if fired["count"] == crash_at:
                fired["held"] = any(session.held is not None for session
                                    in server._sessions.values())
                server.crash()
                server.restart()

        for app in apps:
            app.network.fault_injector = injector
        scripts = run_same_row_scripts(apps)
        where = f"crashing at request {crash_at}"
        lost_while_held += fired["held"]
        aborted += sum(script.aborts for script in scripts)
        assert final_contents(apps[0]) == expected_rows, where
        assert sorted(count for _key, count in status_rows(server)) == \
            expected_status, where
        assert server.engine.locks.queued() == [], where
        assert server.engine.locks.snapshot() == [], where
        meter = apps[0].meter
        assert meter.latency.identity_violations == [], where
        tracer = meter.tracer
        assert tracer.open_span_count == 0, where
        assert validate_spans(tracer.finished) == [], where
    # Crashes did land on held statements, and transactions did abort.
    assert lost_while_held >= 3
    assert aborted >= lost_while_held
