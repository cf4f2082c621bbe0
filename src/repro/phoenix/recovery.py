"""Two-phase virtual-session recovery (§2.3).

Phase 1 — *virtual session*: reconnect with the saved login, re-install
the application-set connection options, re-bind the virtual connection
handle to the new server session, and recreate the session probe.  The
paper measured this phase at a constant 0.37 s; under the paper's
serialized chain it emerges from one connect plus one round trip per
option.  Under the other chain (``CostModel.persist_pipeline`` says
which runs, and why one switch decides both) the option log rides the
login exchange itself (``ConnectRequest.options``, which the server
applies in order — each name's last write, exactly where sequential
replay ends up) and Phoenix's private connection is re-dialled
concurrently with the application's, so a recovered session has *both*
connections back and no later operation pays a hidden handshake.

Phase 2 — *SQL state*: for every statement whose delivery was in
progress, verify the materialized table survived database recovery,
reopen it, and reposition to the remembered delivery location (client-
or server-side per configuration).  Fully-cached results need nothing —
that is the whole point of the client cache.

Recovery is idempotent: every step can be re-run after a crash *during*
recovery (reconnect replaces the session, reopen/reposition restart from
the recorded position); the driver manager's failure handler does
exactly that — it waits for the server and calls
:meth:`SessionRecovery.recover_connection` again.  An abandoned attempt
and the renewed wait are booked as ``failure_detection`` of the attempt
that completes, so the five phases always sum to the pause the
application observed.
"""

from __future__ import annotations

from repro.errors import PhoenixError, ReproError
from repro.obs import RECOVERY_PHASES
from repro.odbc.driver import NativeDriver
from repro.phoenix.config import PhoenixConfig
from repro.phoenix.failure import FailureDetector
from repro.phoenix.persistence import ResultPersistor
from repro.phoenix.reposition import reposition
from repro.phoenix.scratch import scratch_statement
from repro.phoenix.virtual_session import (
    StatementMode,
    VirtualConnection,
)
from repro.sim.costs import NETWORK
from repro.sim.meter import Meter


class SessionRecovery:
    """Rebuilds one virtual connection after a server restart."""

    def __init__(self, driver: NativeDriver, meter: Meter,
                 config: PhoenixConfig, persistor: ResultPersistor,
                 detector: FailureDetector, redial_private):
        self._driver = driver
        self._meter = meter
        self._config = config
        self._persistor = persistor
        self._detector = detector
        #: Re-dials the driver manager's private connection (a callable
        #: taking nothing); used by the one-window reconnect only.
        self._redial_private = redial_private
        self.recoveries = 0
        #: Phase timings of the most recent recovery (Figures 3 and 4):
        #: keys 'virtual_session' and 'sql_state', virtual seconds.
        self.last_phase_seconds: dict[str, float] = {}
        #: Finer per-phase breakdown of the most recent recovery: all
        #: five :data:`repro.obs.RECOVERY_PHASES` names, 0.0 for a phase
        #: that had nothing to do.
        self.last_phase_breakdown: dict[str, float] = {}
        #: The same recovery as ``(phase, start, end)`` intervals in the
        #: order they ran.  Consecutive intervals share their boundary
        #: reading, so the breakdown leaves no virtual time unbooked.
        self.last_timeline: list[tuple[str, float, float]] = []

    def recover_connection(self, vconn: VirtualConnection,
                           intercepted_at: float) -> None:
        """Run both recovery phases, timing each fine-grained step.

        ``intercepted_at`` is the virtual time at which the driver
        manager intercepted the failure.  Everything from there to now
        went into *noticing* the outage — pinging until the server
        answered and, when the server died again under an earlier
        attempt at this recovery, that abandoned attempt and the renewed
        wait — and is booked as ``failure_detection``, which completes
        the five-phase breakdown.  Every boundary is one reading of a
        :meth:`~repro.obs.trace.Tracer.phase` timer — a
        :meth:`~repro.sim.meter.Meter.peek_now` pure read — so the
        bookkeeping never perturbs the virtual clock, and a traced run
        books exactly what an untraced one does.
        """
        self.recoveries += 1
        tracer = self._meter.tracer
        timeline: list[tuple[str, float, float]] = []

        def phase(name: str, step) -> None:
            with tracer.phase(f"recovery.{name}", "phoenix") as span:
                step()
            timeline.append((name, span.start, span.end))

        with tracer.phase("phoenix.recover", "phoenix",
                          recovery=self.recoveries) as recover:
            timeline.append(("failure_detection", intercepted_at,
                             recover.start))
            self._recover_virtual_session(vconn, phase)
            # The virtual session is whole where its last phase ended.
            mid = timeline[-1][2]
            self._recover_sql_state(vconn, phase)
        self.last_phase_seconds = {
            "virtual_session": mid - recover.start,
            "sql_state": recover.end - mid,
        }
        breakdown = dict.fromkeys(RECOVERY_PHASES, 0.0)
        for name, t0, t1 in timeline:
            breakdown[name] += t1 - t0
        self.last_timeline = timeline
        self.last_phase_breakdown = breakdown
        self._meter.record_recovery(breakdown, finished_at=recover.end)

    # -- phase 1 ---------------------------------------------------------------

    def _recover_virtual_session(self, vconn: VirtualConnection,
                                 phase) -> None:
        """Reconnect and re-map the virtual connection handle."""
        handle = vconn.app_handle
        driver = self._driver
        meter = self._meter
        peek = meter.peek_now

        def reconnect() -> None:
            handle.connected = False
            driver.connect(handle, vconn.login)

        def replay_options() -> None:
            for name, value in vconn.option_log:
                driver.set_connection_option(handle, name, value)

        def reconnect_both() -> None:
            # The login exchange carries the whole option log, and the
            # private connection dials while the application's does: the
            # pair costs the slower of the two.
            handle.connected = False
            started = peek()
            driver.connect(handle, vconn.login,
                           options=vconn.login_options())
            elapsed = peek() - started
            # Multi-stream worlds keep elapsed time in the queueing
            # simulator; there the private dial simply runs.
            overlapped = meter.advance_clock
            if overlapped:
                meter.begin_overlap()
            try:
                self._redial_private()
            except ReproError:
                # Whatever stopped the private dial took the session
                # just opened with it; recovery starts over.
                handle.connected = False
                raise
            finally:
                if overlapped:
                    # Also on failure: what the failed dial recorded (a
                    # driver timeout, ...) is waited out, less the head
                    # start the application's dial gave it.
                    stall = meter.end_overlap() - elapsed
                    if stall > 0:
                        meter.charge(NETWORK, stall, "connect stall")

        if meter.costs.persist_pipeline:
            phase("reconnect", reconnect_both)
        else:
            phase("reconnect", reconnect)
            phase("option_replay", replay_options)
        # The new server session holds no transaction of ours.
        vconn.wrapper_txn_open = False
        phase("status_probe",
              lambda: self._detector.create_probe(handle,
                                                  vconn.probe_table))
        vconn.connected = True

    # -- phase 2 ---------------------------------------------------------------

    def _recover_sql_state(self, vconn: VirtualConnection, phase) -> None:
        for state in vconn.open_result_states():
            if state.mode is StatementMode.CACHED:
                continue  # the cache is client-resident: nothing to do
            phase("status_probe",
                  lambda s=state: self._verify_result(vconn, s))
            phase("reposition",
                  lambda s=state: self._reopen_result(s))

    def _verify_result(self, vconn: VirtualConnection, state) -> None:
        if not self._persistor.table_exists(vconn.app_handle,
                                            state.table_name):
            raise PhoenixError(
                f"materialized result {state.table_name!r} did not "
                f"survive database recovery")

    def _reopen_result(self, state) -> None:
        # Rows the driver holds block-read in client memory survived the
        # crash: the table reopens past them, on a scratch handle that
        # hands the positioned result back only once it is whole, so a
        # crash in between leaves the held rows where they were.
        handle = state.handle
        driver = self._driver
        if handle.result is not None:
            driver.discard_prefetch(handle.result)
        with scratch_statement(driver, handle.connection) as scratch:
            scratch.attrs = handle.attrs
            driver.execute(scratch, f"SELECT * FROM {state.table_name}")
            reposition(driver, scratch,
                       state.position + driver.rows_held(handle),
                       self._config.reposition_mode)
            driver.hand_back(handle, scratch)
