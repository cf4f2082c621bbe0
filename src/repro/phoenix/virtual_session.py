"""Virtual connections and per-statement Phoenix state.

The application holds handles to a *Phoenix/ODBC session*.  Underneath,
each virtual connection owns a real native connection (re-created after a
crash and re-bound transparently) plus everything Phoenix needs to
rebuild SQL state: the saved login, the replayable option list, and per-
statement bookkeeping (what was executed, how it was persisted, how far
delivery got).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.odbc.handles import ConnectionHandle, StatementHandle
from repro.types import Column


#: Connection options every ODBC session carries (driver defaults).
#: Under the paper's serialized chain Phoenix re-installs each with one
#: round trip during virtual-session recovery — together with the
#: reconnect these make up the paper's constant ~0.37 s phase-1 cost.
DEFAULT_CONNECTION_OPTIONS: tuple[tuple[str, object], ...] = (
    ("autocommit", True),
    ("login_timeout", 15),
    ("query_timeout", 0),
    ("ansi_nulls", True),
    ("ansi_padding", True),
    ("arithabort", True),
    ("textsize", 2147483647),
    ("isolation_level", "read_committed"),
)


class StatementMode(enum.Enum):
    """How Phoenix made a statement's outcome recoverable."""

    NONE = "none"              # nothing executed yet
    PERSISTED = "persisted"    # result materialized in a server table
    CACHED = "cached"          # result fully in the client cache (§4)
    UPDATE = "update"          # status-table-wrapped modification
    PASSTHROUGH = "passthrough"  # not recoverable (inside an app txn)


@dataclass
class StatementState:
    """Phoenix bookkeeping for one application statement handle."""

    handle: StatementHandle
    #: How the current execution was classified: a call that resumes a
    #: statement the server holds at a lock dispatches on it again
    #: without paying for a second parse.
    request_class: object = None
    mode: StatementMode = StatementMode.NONE
    original_sql: str = ""
    #: Result metadata as the application should see it (original column
    #: names, not the generated c1..cN of the materialized table).
    columns: list[Column] = field(default_factory=list)
    #: Name of the materialized result table (PERSISTED mode).
    table_name: str = ""
    #: Rows already delivered to the application.
    position: int = 0
    #: The full result (CACHED mode) and the delivery cursor into it.
    cache_rows: list[tuple] = field(default_factory=list)
    cache_position: int = 0
    #: Status-table key of the wrapped update (UPDATE mode).
    op_key: str = ""
    rowcount: int = -1
    finished: bool = False
    #: Total rows in the persisted result (filled lazily by scrolling).
    result_size: int = -1

    def reset(self) -> None:
        """Forget the previous execution (new exec on the same handle)."""
        self.mode = StatementMode.NONE
        self.original_sql = ""
        self.columns = []
        self.table_name = ""
        self.position = 0
        self.cache_rows = []
        self.cache_position = 0
        self.op_key = ""
        self.rowcount = -1
        self.finished = False
        self.result_size = -1


@dataclass
class VirtualConnection:
    """The application-facing connection and its replayable state."""

    app_handle: ConnectionHandle          # handle the application holds
    login: str = ""
    #: Options in the order the application set them — replayed during
    #: virtual-session recovery (one round trip each, or all of them on
    #: the login exchange).
    option_log: list[tuple[str, object]] = field(default_factory=list)
    #: Statement states keyed by the app's statement handle id.
    statements: dict[int, StatementState] = field(default_factory=dict)
    #: Application transaction state (BEGIN seen, not yet ended).
    in_app_txn: bool = False
    #: Name of the session-probe temp table (crash-vs-blip detection).
    probe_table: str = "#phoenix_probe"
    connected: bool = False
    #: True while a lost exchange of ``StatusTable.run_once`` could leave
    #: a transaction open on the session: Phoenix's wrapper, or the
    #: application's under its COMMIT.  Session recovery clears it: a
    #: new session holds nothing.
    wrapper_txn_open: bool = False

    def login_options(self) -> dict:
        """The option log as one dict for the login exchange to carry.

        Each name sits at the position of its *last* write, so a server
        applying the dict in order ends exactly where sequential replay
        of the whole log would — also for names the server folds onto
        one setting (it lower-cases them)."""
        options: dict = {}
        for name, value in self.option_log:
            options.pop(name, None)
            options[name] = value
        return options

    def statement_state(self, handle: StatementHandle) -> StatementState:
        state = self.statements.get(handle.handle_id)
        if state is None:
            state = StatementState(handle=handle)
            self.statements[handle.handle_id] = state
        return state

    def open_result_states(self) -> list[StatementState]:
        """Statements whose delivery is in progress (need SQL-state
        recovery)."""
        return [s for s in self.statements.values()
                if s.mode in (StatementMode.PERSISTED, StatementMode.CACHED)
                and not s.finished]
