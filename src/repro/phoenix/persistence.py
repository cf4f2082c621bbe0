"""Result-set persistence: one script exchange, or the four steps of §2.1.

The default chain (``CostModel.persist_pipeline``) sends the whole
persist to the server as one script request.  Outside an application
transaction it is::

    BEGIN TRANSACTION; CREATE TABLE T AS <query>;
    INSERT INTO phoenix_status VALUES ('<op_key>', 0); COMMIT;
    SELECT * FROM T

and inside one ``CREATE TABLE T AS <query>; SELECT * FROM T``, joining
it.  The rows move server-locally, the table and its status record
commit together (``StatusTable.run_once``), and the response carries
the load's outcome (the query's column metadata) and the first wire
batch of ``T``.

The paper's chain (``CostModel.paper()``) keeps §2.1's recipe:

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
A query text the server would cut into several statements takes the
paper's recipe on either chain
(:func:`repro.phoenix.parse.script_statement`).
"""

from __future__ import annotations

from repro.errors import CatalogError, TableExistsError, TableNotFoundError
from repro.odbc.driver import NativeDriver
from repro.odbc.handles import ConnectionHandle
from repro.phoenix.parse import script_statement
from repro.phoenix.scratch import scratch_statement
from repro.phoenix.status_table import StatusTable
from repro.phoenix.virtual_session import (
    StatementMode,
    StatementState,
    VirtualConnection,
)
from repro.phoenix_names import PHOENIX_PREFIX
from repro.sim.costs import CLIENT_CPU
from repro.sim.meter import Meter
from repro.types import Column, SqlType


class ResultPersistor:
    """Materializes result sets into Phoenix-owned server tables."""

    def __init__(self, driver: NativeDriver, meter: Meter,
                 status: StatusTable):
        self._driver = driver
        self._meter = meter
        self._status = status
        #: Step timings of the most recent persist() (the §3.5 breakdown
        #: and Figure 6): keys metadata/create_table/load/reopen on the
        #: paper's chain, the one key script on the default chain.
        self.last_step_seconds: dict[str, float] = {}

    # -- the pipeline ----------------------------------------------------------

    def persist(self, vconn: VirtualConnection, state: StatementState,
                sql: str, op_key: str, retry: bool,
                private_connection) -> None:
        """Materialize ``sql``'s result and open it on the app's handle.

        ``retry``: an earlier attempt of ``op_key`` was cut short by a
        transport failure.  ``private_connection``: a callable handing
        out Phoenix's private connection (the paper's chain creates the
        table there).  When the application holds an open transaction
        the load joins it (so the query sees the transaction's own
        writes) instead of committing under a status record — a crash
        aborts the application transaction anyway, which Phoenix
        surfaces as a normal transaction failure.
        """
        sql = sql.rstrip().rstrip(";")
        steps: dict[str, float] = {}
        meter = self._meter
        tracer = meter.tracer

        def step(name: str, fn):
            # Timed by flushing reads: each step ends at a flush point.
            with tracer.phase(f"persist.{name}", "phoenix",
                              lambda: meter.now) as span:
                result = fn()
            steps[name] = span.duration
            return result

        table_name = f"{PHOENIX_PREFIX}rs_{op_key}"
        if self._meter.costs.persist_pipeline \
                and script_statement(sql) is not None:
            step("script", lambda: self._persist_script(
                vconn, state, table_name, sql, op_key, retry))
            self.last_step_seconds = steps
            return
        private = private_connection()
        app_connection = vconn.app_handle
        columns = step("metadata",
                       lambda: self._fetch_metadata(app_connection, sql))
        # Inside an application transaction the table is created on the
        # app connection so the DDL joins the transaction (no separate
        # commit force per result set); otherwise Phoenix's private
        # connection masks the activity, as §2.2 describes.
        create_connection = (app_connection if vconn.in_app_txn
                             else private)
        step("create_table",
             lambda: self._create_result_table(create_connection,
                                               table_name, columns))
        step("load", lambda: self._load_result(vconn, table_name, sql,
                                               op_key))
        step("reopen", lambda: self.reopen(state, table_name, columns,
                                           sql, position=0))
        self.last_step_seconds = steps

    def _persist_script(self, vconn: VirtualConnection,
                        state: StatementState, table_name: str, sql: str,
                        op_key: str, retry: bool) -> None:
        """The default chain: the whole persist in one exchange."""
        load = f"CREATE TABLE {table_name} AS {sql}"
        reopen = f"SELECT * FROM {table_name}"
        if vconn.in_app_txn:
            # The newline ends a trailing ``--`` comment of the query.
            result = self._driver.execute(
                state.handle, f"{load}\n; {reopen}", script=True)
            loaded = result.outcomes[0]
        else:
            recorded, loaded = self._status.run_once(
                vconn, state.handle, op_key, retry, load, "0", script=True,
                then=reopen)
            if recorded is not None:
                # An earlier attempt committed the table; only its
                # response was lost, and with it the query's metadata.
                self.reopen(state, table_name,
                            self._fetch_metadata(vconn.app_handle, sql),
                            sql, position=0)
                return
        self._meter.charge(CLIENT_CPU,
                           self._meter.costs.metadata_read_seconds,
                           "phoenix metadata")
        self._opened(state, table_name, list(loaded.columns), sql, 0)

    def _fetch_metadata(self, connection: ConnectionHandle,
                        sql: str) -> list[Column]:
        """Step 1: the WHERE 0=1 trick — compile-only, metadata back.
        The newline ends a trailing ``--`` comment of ``sql`` before the
        closing parenthesis."""
        with scratch_statement(self._driver, connection) as scratch:
            self._driver.execute(
                scratch, f"SELECT * FROM ({sql}\n) phx_md WHERE 0 = 1")
            columns = list(scratch.result.columns)
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
        with scratch_statement(self._driver, connection) as scratch:
            try:
                self._driver.execute(scratch,
                                     f"CREATE TABLE {table_name} ({defs})")
            except TableExistsError:
                pass  # created before a crash interrupted us — reuse it

    def _load_result(self, vconn: VirtualConnection, table_name: str,
                     sql: str, op_key: str) -> None:
        """Step 3 of the paper's chain: stored-procedure load,
        status-guarded for idempotence.  The recipe runs again from its
        first step after a failure, so its record is always looked up."""
        proc_name = f"{PHOENIX_PREFIX}load_{op_key}"
        execute = self._driver.execute
        with scratch_statement(self._driver, vconn.app_handle) as scratch:
            def create() -> None:
                try:
                    execute(scratch, f"CREATE PROCEDURE {proc_name} AS "
                                     f"INSERT INTO {table_name} {sql}")
                except CatalogError:
                    pass  # survived an interrupted earlier attempt

            load = f"EXEC {proc_name}"
            if vconn.in_app_txn:
                # Join the application's transaction: the load must see
                # its uncommitted writes, and it aborts with the
                # transaction.
                create()
                execute(scratch, load)
            else:
                recorded, _ = self._status.run_once(
                    vconn, scratch, op_key, True, load, "0", script=False,
                    before=create)
                if recorded is not None:
                    return  # a pre-crash incarnation loaded the table
            try:
                execute(scratch, f"DROP PROCEDURE {proc_name}")
            except CatalogError:
                pass

    def reopen(self, state: StatementState, table_name: str,
               columns: list[Column], sql: str, position: int) -> None:
        """Step 4: open the persistent table on the app's handle."""
        self._driver.execute(state.handle, f"SELECT * FROM {table_name}")
        self._opened(state, table_name, columns, sql, position)

    @staticmethod
    def _opened(state: StatementState, table_name: str,
                columns: list[Column], sql: str, position: int) -> None:
        """The handle's result is the persisted table's, at ``position``."""
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
        with scratch_statement(self._driver, connection) as scratch:
            try:
                self._driver.execute(scratch, f"DROP TABLE {table_name}")
            except TableNotFoundError:
                pass

    def table_exists(self, connection: ConnectionHandle,
                     table_name: str) -> bool:
        """Recovery verification: did database recovery bring the
        materialized result back?  (It must have — it was committed.)"""
        with scratch_statement(self._driver, connection) as scratch:
            try:
                self._driver.execute(scratch,
                                     f"SELECT count(*) FROM {table_name} "
                                     f"WHERE 0 = 1")
            except TableNotFoundError:
                return False
        return True

    @staticmethod
    def _render_type(column: Column) -> str:
        if column.sql_type in (SqlType.VARCHAR, SqlType.CHAR):
            length = column.length or 32
            return f"{column.sql_type.value}({length})"
        return column.sql_type.value
