"""Result-set persistence: the four steps of §2.1.

1. *Metadata*: re-issue the query wrapped with ``WHERE 0 = 1`` so only
   compilation happens server-side, and read the column metadata from
   the (empty) reply.
2. *Create*: build a ``CREATE TABLE`` for a Phoenix-owned persistent
   table from the metadata (issued on Phoenix's private connection so
   the application never sees the activity).
3. *Load*: create and execute a stored procedure
   ``INSERT INTO <table> <original query>`` so rows move locally on the
   server; the execution is wrapped with a status-table record so a
   crash-interrupted load is detected and re-run without duplication.
4. *Reopen*: ``SELECT * FROM <table>`` on the application's statement
   handle; delivery position is tracked for post-crash repositioning.

Every step is idempotent (exists-errors swallowed, load guarded by the
status table), which is what makes Phoenix recovery safely re-runnable.
"""

from __future__ import annotations

from repro.errors import CatalogError, TableExistsError, TableNotFoundError
from repro.odbc.driver import NativeDriver
from repro.odbc.handles import ConnectionHandle, StatementHandle
from repro.phoenix.config import PhoenixConfig
from repro.phoenix.status_table import StatusTable
from repro.phoenix.virtual_session import (
    StatementMode,
    StatementState,
    VirtualConnection,
)
from repro.sim.costs import CLIENT_CPU
from repro.sim.meter import Meter
from repro.types import Column, SqlType


class ResultPersistor:
    """Materializes result sets into Phoenix-owned server tables."""

    def __init__(self, driver: NativeDriver, meter: Meter,
                 config: PhoenixConfig, status: StatusTable):
        self._driver = driver
        self._meter = meter
        self._config = config
        self._status = status
        #: Step timings of the most recent persist() (the §3.5 breakdown
        #: and Figure 6): keys metadata/create_table/load/reopen.
        self.last_step_seconds: dict[str, float] = {}

    # -- the pipeline ----------------------------------------------------------

    def persist(self, vconn: VirtualConnection,
                private_connection: ConnectionHandle,
                state: StatementState, sql: str, op_key: str) -> None:
        """Run steps 1-4 for ``sql`` on the app's statement handle.

        When the application holds an open transaction the load joins it
        (so the query sees the transaction's own writes) instead of
        wrapping its own status-guarded transaction — a crash aborts the
        application transaction anyway, which Phoenix surfaces as a
        normal transaction failure.
        """
        sql = sql.rstrip().rstrip(";")
        app_connection = vconn.app_handle
        in_app_txn = vconn.in_app_txn
        steps: dict[str, float] = {}
        obs = self._meter.obs
        tracer = obs.tracer if obs.enabled else None

        def step(name: str, fn):
            start = self._meter.now
            if tracer is not None:
                with tracer.span(f"persist.{name}", layer="phoenix"):
                    result = fn()
            else:
                result = fn()
            steps[name] = self._meter.now - start
            return result

        columns = step("metadata",
                       lambda: self._fetch_metadata(app_connection, sql))
        table_name = f"{self._config.table_prefix}rs_{op_key}"
        # Inside an application transaction the table is created on the
        # app connection so the DDL joins the transaction (no separate
        # commit force per result set); otherwise Phoenix's private
        # connection masks the activity, as §2.2 describes.
        create_connection = (app_connection if in_app_txn
                             else private_connection)
        step("create_table",
             lambda: self._create_result_table(create_connection,
                                               table_name, columns))
        step("load", lambda: self._load_result(vconn, table_name, sql,
                                               op_key))
        step("reopen", lambda: self.reopen(state, table_name, columns,
                                           sql, position=0))
        self.last_step_seconds = steps

    def _fetch_metadata(self, connection: ConnectionHandle,
                        sql: str) -> list[Column]:
        """Step 1: the WHERE 0=1 trick — compile-only, metadata back."""
        scratch = StatementHandle(connection)
        self._driver.execute(
            scratch, f"SELECT * FROM ({sql}) phx_md WHERE 0 = 1")
        columns = list(scratch.result.columns)
        self._driver.close_statement(scratch)
        self._meter.charge(CLIENT_CPU,
                           self._meter.costs.metadata_read_seconds,
                           "phoenix metadata")
        return columns

    def _create_result_table(self, connection: ConnectionHandle,
                             table_name: str,
                             columns: list[Column]) -> None:
        """Step 2: persistent table shaped like the result."""
        defs = ", ".join(
            f"c{i + 1} {self._render_type(col)}"
            for i, col in enumerate(columns))
        scratch = StatementHandle(connection)
        try:
            self._driver.execute(scratch,
                                 f"CREATE TABLE {table_name} ({defs})")
        except TableExistsError:
            pass  # created before a crash interrupted us — reuse it

    def _load_result(self, vconn: VirtualConnection, table_name: str,
                     sql: str, op_key: str) -> None:
        """Step 3: stored-procedure load, status-guarded for idempotence."""
        connection = vconn.app_handle
        in_app_txn = vconn.in_app_txn
        if not in_app_txn:
            if vconn.wrapper_txn_open:
                # A blip interrupted an earlier wrapper transaction on
                # this surviving session; inside it the lookup below
                # would read that attempt's own uncommitted status row.
                self._status.reset_open_transaction(connection)
                vconn.wrapper_txn_open = False
            if self._status.completed(connection, op_key) is not None:
                return  # a pre-crash incarnation already loaded the table
        proc_name = f"{self._config.table_prefix}load_{op_key}"
        scratch = StatementHandle(connection)
        execute = self._driver.execute
        if self._meter.costs.persist_pipeline and not in_app_txn:
            # Pipeline the whole chain: the expensive server-local steps
            # (procedure creation, the INSERT..SELECT move) overlap the
            # uplinks of the round trips queued behind them.  Responses
            # are still produced in issue order and errors still raise
            # at their own call site, so the idempotence guards below
            # work unchanged; only the virtual-time accounting defers.
            execute = self._driver.execute_pipelined
        try:
            execute(
                scratch,
                f"CREATE PROCEDURE {proc_name} AS "
                f"INSERT INTO {table_name} {sql}")
        except CatalogError:
            pass  # procedure survived an interrupted earlier attempt
        if in_app_txn:
            # Join the application's transaction: the load must see its
            # uncommitted writes, and it aborts with the transaction.
            self._driver.execute(scratch, f"EXEC {proc_name}")
        else:
            vconn.wrapper_txn_open = True
            execute(scratch, "BEGIN TRANSACTION")
            execute(scratch, f"EXEC {proc_name}")
            execute(scratch, self._status.record_sql(op_key, 0))
            execute(scratch, "COMMIT")
            vconn.wrapper_txn_open = False
        try:
            execute(scratch, f"DROP PROCEDURE {proc_name}")
        except CatalogError:
            pass
        # Realize any outstanding overlapped service before the step
        # timer stops, so the §3.5 load-step breakdown stays honest.
        self._driver.drain_pipeline()

    def reopen(self, state: StatementState, table_name: str,
               columns: list[Column], sql: str, position: int) -> None:
        """Step 4: open the persistent table on the app's handle."""
        self._driver.execute(state.handle, f"SELECT * FROM {table_name}")
        state.mode = StatementMode.PERSISTED
        state.original_sql = sql
        state.table_name = table_name
        state.columns = columns
        state.position = position
        state.finished = False

    def drop_result_table(self, connection: ConnectionHandle,
                          table_name: str) -> None:
        """Cleanup when the application closes/re-executes a statement."""
        if not table_name:
            return
        scratch = StatementHandle(connection)
        try:
            self._driver.execute(scratch, f"DROP TABLE {table_name}")
        except TableNotFoundError:
            pass

    def table_exists(self, connection: ConnectionHandle,
                     table_name: str) -> bool:
        """Recovery verification: did database recovery bring the
        materialized result back?  (It must have — it was committed.)"""
        scratch = StatementHandle(connection)
        try:
            self._driver.execute(scratch,
                                 f"SELECT count(*) FROM {table_name} "
                                 f"WHERE 0 = 1")
        except TableNotFoundError:
            return False
        self._driver.close_statement(scratch)
        return True

    @staticmethod
    def _render_type(column: Column) -> str:
        if column.sql_type in (SqlType.VARCHAR, SqlType.CHAR):
            length = column.length or 32
            return f"{column.sql_type.value}({length})"
        return column.sql_type.value
