"""Failure detection and the ping/reconnect loop (§2.3).

Phoenix detects server failure by (i) intercepting errors raised by the
native driver and (ii) timing out application requests (the network layer
models the timeout).  Once a potential problem is detected it pings the
server on its private connection, periodically retrying; if the budget
runs out it gives up and the original error is exposed to the
application.

Crash-vs-blip: "there is no explicit test for this, so we test a proxy,
i.e. whether a special temporary table created for the database session
still exists" — temp tables die with their session.
"""

from __future__ import annotations

from repro.errors import (
    ConnectionLostError,
    ReproError,
    RequestTimeoutError,
    ServerCrashedError,
    ServerDownError,
)
from repro.odbc.driver import NativeDriver
from repro.odbc.handles import ConnectionHandle
from repro.phoenix.scratch import scratch_statement
from repro.sim.costs import CLIENT_CPU
from repro.sim.meter import Meter

#: Seconds between reconnect attempts while the server is down.
RETRY_INTERVAL_SECONDS = 1.0

#: Total budget before Phoenix gives up and exposes the failure ("after
#: a period of time, if Phoenix is unable to connect, it gives up and
#: reveals the failure to the application").
RECONNECT_BUDGET_SECONDS = 120.0

_TRANSPORT_ERRORS = (ServerDownError, ServerCrashedError,
                     ConnectionLostError, RequestTimeoutError)


def is_transport_failure(error: BaseException) -> bool:
    """Errors that may mean the server died (Phoenix intercepts these)."""
    return isinstance(error, _TRANSPORT_ERRORS)


class FailureDetector:
    """Pings and probes on behalf of the recovery machinery."""

    def __init__(self, driver: NativeDriver, meter: Meter):
        self._driver = driver
        self._meter = meter
        self.reconnect_attempts = 0

    def await_server(self) -> bool:
        """Ping until the server answers or the budget is exhausted.

        Waiting is charged to the (virtual) clock — the application
        pauses, it does not fail.  Returns False on give-up.
        """
        budget = RECONNECT_BUDGET_SECONDS
        waited = 0.0
        while True:
            self.reconnect_attempts += 1
            try:
                if self._driver.ping():
                    return True
            except ReproError:
                pass
            if waited >= budget:
                return False
            interval = min(RETRY_INTERVAL_SECONDS, budget - waited)
            self._meter.charge(CLIENT_CPU, interval, "reconnect wait")
            waited += interval

    def session_survived(self, connection: ConnectionHandle,
                         probe_table: str) -> bool:
        """Probe the session's temp table: alive → it was only a blip."""
        if not connection.connected:
            return False
        try:
            with scratch_statement(self._driver, connection) as scratch:
                self._driver.execute(scratch,
                                     f"SELECT count(*) FROM {probe_table}")
            return True
        except ReproError:
            return False

    def create_probe(self, connection: ConnectionHandle,
                     probe_table: str) -> None:
        """(Re)create the session-probe temp table after (re)connect."""
        with scratch_statement(self._driver, connection) as scratch:
            self._driver.execute(scratch,
                                 f"CREATE TABLE {probe_table} (alive INT)")
