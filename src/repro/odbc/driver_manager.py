"""The (native) ODBC Driver Manager.

The application-facing surface: allocate handles, connect, execute,
fetch, read diagnostics.  Methods return ODBC return codes
(``SQL_SUCCESS`` / ``SQL_ERROR`` / ``SQL_NO_DATA``); errors raised by the
driver are converted into diagnostics on the handle, exactly the contract
ODBC applications code against.

A statement the server holds behind a lock follows ODBC's asynchronous
execution idiom: ``exec_direct`` returns ``SQL_STILL_EXECUTING`` and the
application calls it again with the same handle and text — a call that
sends nothing and costs nothing while the statement still waits
(:meth:`DriverManager.still_executing` asks without calling), and
otherwise returns what the first call would have.  Executing something
else on the connection, or freeing the handle, cancels the statement.

``PhoenixDriverManager`` (in :mod:`repro.phoenix.driver_manager`) exposes
this same surface — "the Phoenix-enhanced driver manager wraps the call
points of database vendor provided ODBC drivers in the same way as the
original driver manager" — so applications run unmodified against either.
"""

from __future__ import annotations

from repro.errors import (
    ConnectionLostError,
    ConstraintError,
    DeadlockError,
    LockWaitError,
    OdbcError,
    ReproError,
    RequestTimeoutError,
    ServerCrashedError,
    ServerDownError,
    SqlSyntaxError,
    StillExecuting,
)
from repro.odbc.constants import (
    SQL_ERROR,
    SQL_NO_DATA,
    SQL_STILL_EXECUTING,
    SQL_SUCCESS,
    SQLSTATE_COMM_LINK_FAILURE,
    SQLSTATE_CONNECTION_DEAD,
    SQLSTATE_CONSTRAINT,
    SQLSTATE_GENERAL_ERROR,
    SQLSTATE_LOCK_TIMEOUT,
    SQLSTATE_SERIALIZATION_FAILURE,
    SQLSTATE_SYNTAX_ERROR,
)
from repro.odbc.driver import NativeDriver
from repro.odbc.handles import (
    ConnectionHandle,
    Diagnostic,
    EnvironmentHandle,
    StatementHandle,
)


def sqlstate_for(error: Exception) -> str:
    """Map an internal exception to the SQLSTATE a driver would report."""
    if isinstance(error, (ServerDownError, ServerCrashedError,
                          RequestTimeoutError)):
        return SQLSTATE_COMM_LINK_FAILURE
    if isinstance(error, ConnectionLostError):
        return SQLSTATE_CONNECTION_DEAD
    if isinstance(error, LockWaitError):
        # Reaches a client from a fetch only: an execute that meets a
        # lock is held by the server (SQL_STILL_EXECUTING), a lazy pull
        # cannot be — its result is closed and must be executed again.
        return SQLSTATE_LOCK_TIMEOUT
    if isinstance(error, DeadlockError):
        return SQLSTATE_SERIALIZATION_FAILURE
    if isinstance(error, SqlSyntaxError):
        return SQLSTATE_SYNTAX_ERROR
    if isinstance(error, ConstraintError):
        return SQLSTATE_CONSTRAINT
    if isinstance(error, OdbcError):
        return error.sqlstate
    return SQLSTATE_GENERAL_ERROR


class DriverManager:
    """Routes application calls to the native driver."""

    def __init__(self, driver: NativeDriver):
        self.driver = driver

    # -- handle management ------------------------------------------------------

    def alloc_env(self) -> EnvironmentHandle:
        return EnvironmentHandle()

    def alloc_connection(self, environment: EnvironmentHandle) -> ConnectionHandle:
        return ConnectionHandle(environment)

    def alloc_statement(self, connection: ConnectionHandle) -> StatementHandle:
        return StatementHandle(connection)

    def free_statement(self, statement: StatementHandle) -> int:
        rc, _ = self._guard(statement,
                            lambda: self.driver.close_statement(statement))
        statement.free()
        return rc

    def get_diag(self, handle) -> list[Diagnostic]:
        return list(handle.diagnostics)

    # -- connections ----------------------------------------------------------

    def connect(self, connection: ConnectionHandle, login: str = "app",
                options: dict | None = None) -> int:
        rc, _ = self._guard(connection,
                            lambda: self.driver.connect(connection, login,
                                                        options))
        return rc

    def disconnect(self, connection: ConnectionHandle) -> int:
        rc, _ = self._guard(connection,
                            lambda: self.driver.disconnect(connection))
        return rc

    def set_connect_option(self, connection: ConnectionHandle, name: str,
                           value) -> int:
        rc, _ = self._guard(
            connection,
            lambda: self.driver.set_connection_option(connection, name,
                                                      value))
        return rc

    # -- statements ------------------------------------------------------------

    def exec_direct(self, statement: StatementHandle, sql: str,
                    params: dict | None = None) -> int:
        rc, _ = self._guard(statement,
                            lambda: self.driver.execute(statement, sql,
                                                        params))
        return rc

    def still_executing(self, statement: StatementHandle) -> bool:
        """True while calling ``exec_direct`` again would return
        ``SQL_STILL_EXECUTING``.  A pure read, for schedulers that step
        a session only when it can move."""
        return self.driver.still_executing(statement)

    # -- prepared execution (SQLPrepare / SQLBindParameter / SQLExecute) --------

    def prepare(self, statement: StatementHandle, sql: str) -> int:
        """Associate SQL text with the handle for later execution.

        Parameters are named ``@name`` markers in the text, bound with
        :meth:`bind_param` before :meth:`execute`.
        """
        statement.clear_diag()
        statement.prepared_sql = sql
        statement.bound_params = {}
        return SQL_SUCCESS

    def bind_param(self, statement: StatementHandle, name: str,
                   value) -> int:
        if statement.prepared_sql is None:
            statement.add_diag("HY010", "no statement prepared")
            return SQL_ERROR
        statement.bound_params[name.lstrip("@").lower()] = value
        return SQL_SUCCESS

    def execute(self, statement: StatementHandle) -> int:
        """Execute the prepared statement with the bound parameters."""
        if statement.prepared_sql is None:
            statement.clear_diag()
            statement.add_diag("HY010", "no statement prepared")
            return SQL_ERROR
        return self.exec_direct(statement, statement.prepared_sql,
                                dict(statement.bound_params))

    def fetch(self, statement: StatementHandle):
        """Returns ``(rc, row)``: SQL_SUCCESS + row, or SQL_NO_DATA."""
        rc, row = self._guard(statement,
                              lambda: self.driver.fetch_one(statement))
        if rc == SQL_SUCCESS and row is None:
            return SQL_NO_DATA, None
        return rc, row

    def fetch_block(self, statement: StatementHandle, max_rows: int):
        """Block-cursor read: ``(rc, rows)``; SQL_NO_DATA when empty."""
        rc, rows = self._guard(
            statement, lambda: self.driver.fetch_block(statement, max_rows))
        if rc == SQL_SUCCESS and not rows:
            return SQL_NO_DATA, []
        return rc, rows or []

    def set_stmt_attr(self, statement: StatementHandle, name: str,
                      value) -> int:
        statement.attrs[name] = value
        return SQL_SUCCESS

    def fetch_scroll(self, statement: StatementHandle, orientation: str,
                     offset: int = 0):
        """Scrollable fetch: ``(rc, row)``; SQL_NO_DATA past either end."""
        rc, row = self._guard(
            statement,
            lambda: self.driver.fetch_scroll(statement, orientation,
                                             offset))
        if rc == SQL_SUCCESS and row is None:
            return SQL_NO_DATA, None
        return rc, row

    def num_result_cols(self, statement: StatementHandle) -> int:
        if statement.result is None:
            return 0
        return len(statement.result.columns)

    def describe_col(self, statement: StatementHandle, position: int):
        """1-based column description (name, type, length)."""
        if statement.result is None:
            raise OdbcError("07005", "no result set")
        column = statement.result.columns[position - 1]
        return column.name, column.sql_type, column.length

    def row_count(self, statement: StatementHandle) -> int:
        if statement.result is None:
            return -1
        return statement.result.rowcount

    def close_cursor(self, statement: StatementHandle) -> int:
        rc, _ = self._guard(statement,
                            lambda: self.driver.close_statement(statement))
        return rc

    # -- internals -----------------------------------------------------------

    def _guard(self, handle, operation):
        """Run ``operation``; convert exceptions to rc + diagnostics."""
        handle.clear_diag()
        try:
            return SQL_SUCCESS, operation()
        except StillExecuting:
            return SQL_STILL_EXECUTING, None
        except ReproError as error:
            handle.add_diag(sqlstate_for(error), str(error))
            return SQL_ERROR, None
