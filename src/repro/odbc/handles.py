"""ODBC handle objects and diagnostics.

Handles are plain state holders; all behaviour lives in the driver
manager (native or Phoenix).  A handle records the diagnostics of its
last operation, readable via ``DriverManager.get_diag`` — the moral
equivalent of ``SQLGetDiagRec``.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field

from repro.types import Column

_handle_ids = itertools.count(1)


@dataclass(slots=True)
class Diagnostic:
    """One diagnostic record (SQLSTATE + message)."""

    sqlstate: str
    message: str


class _Handle:
    def __init__(self):
        self.handle_id = next(_handle_ids)
        self.diagnostics: list[Diagnostic] = []
        self.freed = False

    def clear_diag(self) -> None:
        self.diagnostics.clear()

    def add_diag(self, sqlstate: str, message: str) -> None:
        self.diagnostics.append(Diagnostic(sqlstate, message))


class EnvironmentHandle(_Handle):
    """Top-level handle: owns connections."""

    def __init__(self):
        super().__init__()
        self.connections: list[ConnectionHandle] = []


class ConnectionHandle(_Handle):
    """One database connection as the application sees it.

    ``session_token`` is the server session this connection is bound to.
    Under Phoenix this is a *virtual* handle: Phoenix re-binds
    ``session_token`` after a crash without the application noticing.
    """

    def __init__(self, environment: EnvironmentHandle):
        super().__init__()
        self.environment = environment
        self.connected = False
        self.session_token = 0
        self.login = ""
        self.options: dict[str, object] = {}
        self.statements: list[StatementHandle] = []
        #: The execute this connection has outstanding while the server
        #: holds its statement at a lock (the driver's; at most one — a
        #: connection runs one statement at a time).
        self.pending = None
        environment.connections.append(self)


@dataclass(slots=True)
class ResultState:
    """Client-side state of one open result."""

    columns: list[Column] = field(default_factory=list)
    statement_id: int = 0          # server-side handle (0 = none open)
    #: The server session the statement id belongs to (ids restart in a
    #: new session).
    session_token: int = 0
    #: A script's statements before the one this result is of.
    outcomes: list = field(default_factory=list)
    #: The client row buffer: the wire batch the last response carried.
    buffered: deque[tuple] = field(default_factory=deque)
    #: Rows at the head of ``buffered`` already block-read into client
    #: memory (batch delivery): served without a request, and kept by
    #: crash recovery.
    block_read: int = 0
    done: bool = False
    position: int = 0              # rows already delivered to the app
    rowcount: int = -1
    #: Static-cursor materialization: the whole result client-side, with
    #: a free-moving cursor (index of the row SQL_FETCH_NEXT returns).
    static_rows: list[tuple] | None = None
    cursor_index: int = 0
    #: ODBC distinguishes "on the last row" from "after the last row"
    #: (SQL_FETCH_PRIOR returns different rows from the two states).
    cursor_after_last: bool = False
    #: In-flight fetch-ahead batches (oldest first), issued speculatively
    #: by the driver when ``CostModel.fetch_ahead_depth`` > 0.  Entries
    #: are :class:`repro.odbc.driver._InFlightFetch`.  Rows here have NOT
    #: been delivered: ``position`` must not count them (crash recovery
    #: repositions to the last *delivered* row and discards these).
    prefetch: list = field(default_factory=list)


class StatementHandle(_Handle):
    """One statement as the application sees it."""

    def __init__(self, connection: ConnectionHandle):
        super().__init__()
        self.connection = connection
        self.attrs: dict[str, object] = {}
        self.result: ResultState | None = None
        self.last_sql: str = ""
        #: SQLPrepare state: the prepared text and bound parameters.
        self.prepared_sql: str | None = None
        self.bound_params: dict[str, object] = {}
        connection.statements.append(self)

    def free(self) -> None:
        """SQLFreeHandle's bookkeeping: the handle is dead and leaves its
        connection, whose ``statements`` are the live handles only."""
        if not self.freed:
            self.freed = True
            self.connection.statements.remove(self)

    @property
    def has_open_result(self) -> bool:
        return self.result is not None
