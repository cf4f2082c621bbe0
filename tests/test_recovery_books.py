"""The recovery books close, and the paper's path is frozen.

* **The books close.**  For every recovery of a two-session crash run,
  the phase intervals ``SessionRecovery`` folds its breakdown from are
  contiguous from the instant ``_handle_failure`` intercepts the failure
  to the instant it returns ``'recovered'`` — consecutive intervals
  share one ``peek_now`` reading, so no virtual time of the pause is
  outside a phase — and the five ``recovery_phase_breakdown`` values are
  those intervals' lengths folded by name.  Under the one-window reconnect
  (``persist_pipeline`` on) nothing outside a recovery ever pays a
  ``connect handshake`` again.
* **The paper path is frozen.**  Under ``CostModel.paper()``, one
  crash recovery sends exactly the exchanges, and costs exactly the
  virtual seconds, recorded at the commit before Phoenix learnt to
  carry options on the login; one failure-free wrapped UPDATE sends
  that commit's exchanges minus the status-table lookup and the
  defensive ROLLBACK, each survivor at its old price.
"""

from fractions import Fraction

import pytest

from repro.obs import RECOVERY_PHASES
from repro.odbc.constants import SQL_SUCCESS
from repro.phoenix.config import PhoenixConfig
from repro.server.server import DatabaseServer
from repro.sim.costs import CostModel
from repro.sim.meter import Meter
from repro.workloads.app import BenchmarkApp


# ---------------------------------------------------------------------------
# (a) every second of the pause is in a phase
# ---------------------------------------------------------------------------


def two_session_world(pipelined: bool):
    """``pipelined``: the default configuration (login-carried chain);
    otherwise the paper's (serialized chain)."""
    costs = CostModel if pipelined else CostModel.paper
    meter = Meter(costs(output_buffer_bytes=16))
    server = DatabaseServer(meter=meter)
    setup = BenchmarkApp(server)
    setup.run_statement("CREATE TABLE ledger (k INT NOT NULL, v INT, "
                        "PRIMARY KEY (k))")
    setup.run_statement("INSERT INTO ledger VALUES " + ", ".join(
        f"({i}, 0)" for i in range(40)))
    oltp = BenchmarkApp(server, use_phoenix=True, login="oltp",
                        phoenix_config=PhoenixConfig(client_cache_rows=50))
    report = BenchmarkApp(server, use_phoenix=True, login="report",
                          phoenix_config=PhoenixConfig())
    return server, oltp, report


def run_two_sessions(pipelined: bool, period: int):
    """Updates and point selects on one session, a paged report on the
    other, the server killed mid-request every ``period`` exchanges.  Returns
    the recoveries seen — ``(intercepted, returned, timeline,
    breakdown)`` each — the number of recovery attempts a further crash
    cut short, and the positions, in the run's charge sequence, of every
    ``connect handshake`` and of those outside any recovery."""
    server, oltp, report = two_session_world(pipelined)
    meter = oltp.meter
    requests = {"count": 0}

    def injector(request):
        requests["count"] += 1
        if requests["count"] % period == 0:
            server.crash()
            server.restart()

    charges = meter.push_recorder()
    recoveries = []
    handled = []  # charge positions on entry to / return from a failure
    for app in (oltp, report):
        app.network.fault_injector = injector
        manager = app.manager

        def watched(vconn, original, manager=manager,
                    handle_failure=manager._handle_failure):
            intercepted, entered = meter.peek_now(), len(charges)
            try:
                outcome = handle_failure(vconn, original)
            finally:
                handled.append((entered, len(charges)))
            assert outcome == "recovered"
            recoveries.append((intercepted, meter.peek_now(),
                               list(manager._recovery.last_timeline),
                               manager.recovery_phase_breakdown))
            return outcome

        manager._handle_failure = watched
    statement = None
    delivered = []
    for turn in range(24):
        oltp.run_statement(
            f"UPDATE ledger SET v = v + 1 WHERE k = {turn % 40}")
        assert oltp.query_rows(
            f"SELECT v FROM ledger WHERE k = {turn % 40}") == [(1,)]
        if statement is None:
            statement = report.manager.alloc_statement(report.conn)
            assert report.manager.exec_direct(
                statement, "SELECT k FROM ledger ORDER BY k") == SQL_SUCCESS
        for _ in range(7):
            rc, row = report.manager.fetch(statement)
            if rc != SQL_SUCCESS:
                report.manager.free_statement(statement)
                statement = None
                break
            delivered.append(row[0])
    meter.pop_recorder(charges)
    assert delivered[:40] == list(range(40))  # exactly once, in order
    handshakes = [i for i, charge in enumerate(charges)
                  if charge.note == "connect handshake"]
    outside = [i for i in handshakes
               if not any(lo <= i < hi for lo, hi in handled)]
    abandoned = sum(app.manager._recovery.recoveries
                    - app.manager.stats["recoveries"]
                    for app in (oltp, report))
    return recoveries, abandoned, handshakes, outside


@pytest.mark.parametrize("pipelined,period", [(False, 29), (True, 19)],
                         ids=["serial", "pipelined"])
def test_recovery_phases_account_for_the_whole_pause(pipelined, period):
    recoveries, abandoned, handshakes, outside = run_two_sessions(
        pipelined, period)
    assert len(recoveries) >= 20
    # Some crashes landed inside a recovery, which then started over;
    # the abandoned attempt is on the books of the one that completed.
    assert abandoned > 0
    for intercepted, returned, timeline, breakdown in recoveries:
        assert list(breakdown) == list(RECOVERY_PHASES)
        # Contiguous, by equality of the clock readings themselves.
        assert timeline[0][1] == intercepted
        assert timeline[-1][2] == returned
        for (_a, _s, end), (_b, start, _e) in zip(timeline, timeline[1:]):
            assert end == start
        # The breakdown is the timeline folded by phase name ...
        folded = dict.fromkeys(RECOVERY_PHASES, 0.0)
        for name, start, end in timeline:
            folded[name] += end - start
        assert breakdown == folded
        # ... so, in exact arithmetic, the phases sum to the pause.
        assert sum(Fraction(end) - Fraction(start)
                   for _name, start, end in timeline) \
            == Fraction(returned) - Fraction(intercepted)
        assert sum(breakdown.values()) == pytest.approx(
            returned - intercepted, abs=1e-12)
        if pipelined:
            assert breakdown["option_replay"] == 0.0
        else:
            assert breakdown["option_replay"] > 0.0
    if pipelined:
        # A recovered session has both connections back; no later
        # operation re-dials anything.
        assert outside == []
        assert len(handshakes) >= 2 * len(recoveries) + abandoned
    else:
        # The paper's chain leaves the private connection to whichever
        # later operation first needs it: a pause in no phase.
        assert outside


# ---------------------------------------------------------------------------
# (b) the paper's path, exchange by exchange
# ---------------------------------------------------------------------------


def paper_world():
    """The paper's serialized chain: ``CostModel.paper()``."""
    meter = Meter(CostModel.paper(output_buffer_bytes=16))
    meter.enable_latency_ledger()
    server = DatabaseServer(meter=meter)
    setup = BenchmarkApp(server)
    setup.run_statement("CREATE TABLE t (k INT NOT NULL, v INT, "
                        "PRIMARY KEY (k))")
    setup.run_statement("INSERT INTO t VALUES " + ", ".join(
        f"({i}, {i})" for i in range(12)))
    app = BenchmarkApp(server, use_phoenix=True,
                       phoenix_config=PhoenixConfig())
    return server, app


def record_exchanges(app, operation):
    """Run ``operation``; returns its protocol exchanges in order — kind,
    the statement's leading words, the ledger's exact virtual seconds —
    and the virtual seconds the whole operation took."""
    sent = []
    app.network.fault_injector = lambda request: sent.append(
        (type(request).__name__,
         " ".join(getattr(request, "sql", "").split()[:3])))
    ledger = app.meter.latency
    before, start = ledger.closed, app.meter.now
    operation()
    seconds = app.meter.now - start
    app.network.fault_injector = None
    entries = list(ledger.entries)[len(ledger.entries)
                                   - (ledger.closed - before):]
    assert [entry.kind for entry in entries] == [kind for kind, _ in sent]
    return ([(kind, words, float(entry.total))
             for (kind, words), entry in zip(sent, entries)], seconds)


def record_crash_recovery():
    server, app = paper_world()
    statement = app.manager.alloc_statement(app.conn)
    assert app.manager.exec_direct(
        statement, "SELECT k, v FROM t ORDER BY k") == SQL_SUCCESS
    for _ in range(3):
        assert app.manager.fetch(statement)[0] == SQL_SUCCESS
    server.crash()
    server.restart()

    def fetch_through_the_crash():
        while not app.manager.stats["recoveries"]:
            assert app.manager.fetch(statement)[0] == SQL_SUCCESS

    return record_exchanges(app, fetch_through_the_crash)


def record_wrapped_update():
    _server, app = paper_world()
    return record_exchanges(app, lambda: app.run_statement(
        "UPDATE t SET v = v + 1 WHERE k < 3"))


#: Recorded with the two recorders above at the commit before this test
#: existed (re-anchor @ PR 15), ``persist_pipeline`` off.
RECOVERY_AT_PR15 = ([
    ("FetchRequest", "", 0.0007025600000000001),
    ("PingRequest", "", 0.0029032000000000003),
    ("ExecuteRequest", "SELECT count(*) FROM", 0.00070536),
    ("ConnectRequest", "", 0.0009076800000000001),
    ("SetOptionRequest", "", 0.00090384),
    ("SetOptionRequest", "", 0.00090384),
    ("SetOptionRequest", "", 0.00090384),
    ("SetOptionRequest", "", 0.00090384),
    ("SetOptionRequest", "", 0.00090384),
    ("SetOptionRequest", "", 0.00090384),
    ("SetOptionRequest", "", 0.00090384),
    ("SetOptionRequest", "", 0.00090384),
    ("ExecuteRequest", "CREATE TABLE #phoenix_probe", 0.00290824),
    ("ExecuteRequest", "SELECT count(*) FROM", 0.0029744800000000003),
    ("ExecuteRequest", "SELECT * FROM", 0.0069272000000000005),
    ("FetchRequest", "", 0.0009211200000000001),
    ("FetchRequest", "", 0.0009211200000000001),
], 0.4000416800000015)

WRAPPED_UPDATE_AT_PR15 = ([
    ("ExecuteRequest", "SELECT rows_affected FROM", 0.00291128),
    ("ExecuteRequest", "ROLLBACK", 0.0027032000000000002),
    ("ExecuteRequest", "BEGIN TRANSACTION", 0.00290648),
    ("ExecuteRequest", "UPDATE t SET", 0.00302784),
    ("ExecuteRequest", "INSERT INTO phoenix_status", 0.00293056),
    ("ExecuteRequest", "COMMIT", 0.00801135),
], 0.026520710000000003)


def test_paper_chain_recovery_is_exchange_for_exchange_the_old_one():
    assert record_crash_recovery() == RECOVERY_AT_PR15


def test_failure_free_wrapped_update_drops_the_probe_and_the_rollback():
    old_exchanges, old_seconds = WRAPPED_UPDATE_AT_PR15
    exchanges, seconds = record_wrapped_update()
    # BEGIN, the statement, the status INSERT, COMMIT — each at its old
    # price; the lookup of a key minted one line earlier and the
    # ROLLBACK for a blip that never happened are gone.
    assert exchanges == old_exchanges[2:]
    saved = sum(cost for _kind, _words, cost in old_exchanges[:2])
    # ... along with the SQLFetch that read the lookup's empty answer.
    fetch = CostModel().client_fetch_seconds
    assert seconds == pytest.approx(old_seconds - saved - fetch, abs=1e-12)
    assert seconds == 0.01710623
