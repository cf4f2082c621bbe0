"""The measurement application.

The paper: "we implemented an interactive application that connects to a
named database server, with an option to select either Phoenix/ODBC or
native ODBC for data access" — this is that application.  It talks only
to the driver-manager surface, so the Phoenix/native switch is exactly
one constructor argument, and it measures elapsed virtual time per
request the way the paper used the Pentium cycle counter.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ReproError
from repro.odbc.constants import (
    SQL_NO_DATA,
    SQL_STILL_EXECUTING,
    SQL_SUCCESS,
)
from repro.odbc.driver import NativeDriver
from repro.odbc.driver_manager import DriverManager
from repro.phoenix.config import PhoenixConfig
from repro.phoenix.driver_manager import PhoenixDriverManager
from repro.server.network import SimulatedNetwork
from repro.server.server import DatabaseServer
from repro.sim.meter import Meter, RequestTrace


@dataclass
class Timing:
    """One measured request: rows seen and virtual seconds spent."""

    label: str
    rows: int
    seconds: float
    rowcount: int = -1
    trace: RequestTrace | None = None


class BenchmarkApp:
    """A client application bound to one server via one driver manager."""

    def __init__(self, server: DatabaseServer, use_phoenix: bool = False,
                 phoenix_config: PhoenixConfig | None = None,
                 login: str = "bench"):
        self.server = server
        self.meter: Meter = server.meter
        self.network = SimulatedNetwork(self.meter)
        self.driver = NativeDriver(server, self.network, self.meter)
        if use_phoenix:
            self.manager: DriverManager = PhoenixDriverManager(
                self.driver, phoenix_config)
        else:
            self.manager = DriverManager(self.driver)
        self.use_phoenix = use_phoenix
        env = self.manager.alloc_env()
        self.conn = self.manager.alloc_connection(env)
        rc = self.manager.connect(self.conn, login)
        if rc != SQL_SUCCESS:
            raise ReproError(
                f"connect failed: {self.manager.get_diag(self.conn)}")

    # -- measured operations ------------------------------------------------------

    def run_query(self, sql: str, label: str = "query",
                  fetch: bool = True) -> Timing:
        """Execute a SELECT, fetch every row, close; measure it all."""
        start = self.meter.now
        with self.meter.request(label) as trace:
            statement = self.manager.alloc_statement(self.conn)
            self._check(self.manager.exec_direct(statement, sql),
                        statement, sql)
            rows = 0
            if fetch:
                while True:
                    rc, _row = self.manager.fetch(statement)
                    if rc == SQL_NO_DATA:
                        break
                    self._require(rc == SQL_SUCCESS, statement, sql)
                    rows += 1
            self.manager.close_cursor(statement)
            self.manager.free_statement(statement)
        return Timing(label=label, rows=rows,
                      seconds=self.meter.now - start, trace=trace)

    def run_statement(self, sql: str, label: str = "stmt") -> Timing:
        """Execute a non-query statement; measure it."""
        start = self.meter.now
        with self.meter.request(label) as trace:
            statement = self.manager.alloc_statement(self.conn)
            self._check(self.manager.exec_direct(statement, sql),
                        statement, sql)
            rowcount = self.manager.row_count(statement)
            self.manager.free_statement(statement)
        return Timing(label=label, rows=0, rowcount=rowcount,
                      seconds=self.meter.now - start, trace=trace)

    def query_rows(self, sql: str) -> list[tuple]:
        """Convenience: run a SELECT and return its rows (unmeasured
        bracketing, still charged to the clock)."""
        statement = self.manager.alloc_statement(self.conn)
        self._check(self.manager.exec_direct(statement, sql), statement,
                    sql)
        rows = []
        while True:
            rc, row = self.manager.fetch(statement)
            if rc == SQL_NO_DATA:
                break
            self._require(rc == SQL_SUCCESS, statement, sql)
            rows.append(row)
        self.manager.free_statement(statement)
        return rows

    def execute_measured_steps(self, label: str, steps) -> Timing:
        """Run a callable sequence as one measured request (used by the
        TPC-C transactions, which span several statements)."""
        start = self.meter.now
        with self.meter.request(label) as trace:
            steps(self)
        return Timing(label=label, rows=0,
                      seconds=self.meter.now - start, trace=trace)

    # -- helpers ---------------------------------------------------------------

    def _check(self, rc: int, statement, sql: str) -> None:
        if rc == SQL_STILL_EXECUTING:
            # One call, no scheduler behind it: nobody would ever run
            # the session whose lock the statement waits for.  Freeing
            # the handle cancels the statement.
            self.manager.free_statement(statement)
            raise ReproError(
                f"statement returned SQL_STILL_EXECUTING: the server "
                f"holds it behind another session's lock (cancelled; "
                f"to wait instead, call manager.exec_direct again with "
                f"the same handle once that session has moved) :: "
                f"{sql[:120]}")
        self._require(rc == SQL_SUCCESS, statement, sql)

    def _require(self, ok: bool, statement, sql: str) -> None:
        if not ok:
            diags = self.manager.get_diag(statement)
            raise ReproError(f"statement failed: {diags} :: {sql[:120]}")
