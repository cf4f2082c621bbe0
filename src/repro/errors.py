"""Exception hierarchy for the Phoenix/ODBC reproduction.

Three families mirror the three layers of the system:

* ``EngineError`` — raised inside the database engine (SQL errors,
  constraint violations, missing objects).
* ``ServerError`` — raised by the simulated client-server substrate; in
  particular ``ServerCrashedError`` and ``ConnectionLostError`` are what a
  native ODBC driver surfaces when the server dies, and are exactly the
  errors Phoenix intercepts to trigger recovery.
* ``OdbcError`` — the driver-level error carrying a SQLSTATE, which is what
  applications see through the ODBC API when nothing masks the failure.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this package."""


# ---------------------------------------------------------------------------
# Engine errors
# ---------------------------------------------------------------------------


class EngineError(ReproError):
    """Base class for errors raised by the database engine."""


class SqlSyntaxError(EngineError):
    """The SQL text could not be tokenized or parsed."""


class PlanningError(EngineError):
    """The statement parsed but could not be planned (e.g. bad column)."""


class CatalogError(EngineError):
    """A catalog object is missing or already exists."""


class TableNotFoundError(CatalogError):
    """Referenced table does not exist."""


class TableExistsError(CatalogError):
    """CREATE TABLE target already exists."""


class ProcedureNotFoundError(CatalogError):
    """EXEC target procedure does not exist."""


class ColumnNotFoundError(PlanningError):
    """Referenced column does not exist in scope."""


class TypeMismatchError(EngineError):
    """Operand types are not compatible for the requested operation."""


class ConstraintError(EngineError):
    """A uniqueness or not-null constraint was violated."""


class TransactionError(EngineError):
    """Illegal transaction state transition (e.g. COMMIT with no BEGIN)."""


class LogTruncatedError(EngineError):
    """A log record below the truncation point was requested.

    Raised loudly instead of returning wrong state: after fuzzy-checkpoint
    log truncation, any read below the archive boundary means the
    truncation safety rule (keep everything a loser transaction or a
    dirty page's recLSN may still need) was violated, or the archive
    itself is gone.  Recovery must fail, not silently skip history.
    """


class DeadlockError(TransactionError):
    """The transaction was chosen as the victim of a deadlock."""


class LockWaitError(TransactionError):
    """A lock request was queued behind other transactions.

    Raised instead of blocking — the engine host is single-threaded, so a
    conflicting request takes its place in the resource's wait queue and
    unwinds with this error.  Whoever issued the statement keeps it (the
    server holds a blocked ``ExecuteRequest`` with its prepared form)
    and runs it again once ``LockManager.is_waiting(txn_id)`` is false.
    The transaction stays active and keeps every lock it already holds
    (strict 2PL).
    """

    def __init__(self, message: str, txn_id: int = 0):
        super().__init__(message)
        #: The queued transaction.
        self.txn_id = txn_id


# ---------------------------------------------------------------------------
# Server / network errors
# ---------------------------------------------------------------------------


class ServerError(ReproError):
    """Base class for client-server substrate errors."""


class ServerDownError(ServerError):
    """The server is not running (connect refused / ping failed)."""


class ServerCrashedError(ServerError):
    """The server crashed while servicing this request.

    This is the error a native driver raises mid-request when the process
    hosting the database dies; Phoenix intercepts it.
    """


class ConnectionLostError(ServerError):
    """The session this connection referred to no longer exists."""


class RequestTimeoutError(ServerError):
    """The request did not complete within the driver timeout."""


# ---------------------------------------------------------------------------
# ODBC-level errors
# ---------------------------------------------------------------------------


class OdbcError(ReproError):
    """Driver-level error with a SQLSTATE, surfaced via SQLGetDiagRec."""

    def __init__(self, sqlstate: str, message: str):
        super().__init__(f"[{sqlstate}] {message}")
        self.sqlstate = sqlstate
        self.message = message


class StillExecuting(ReproError):
    """Not a failure: the statement is held by the server behind a lock
    and has no response yet.  Unwinds the driver stack up to the driver
    manager, which returns ``SQL_STILL_EXECUTING``; calling the same
    function again with the same handle and text resumes the exchange.
    """


class InvalidHandleError(OdbcError):
    """Operation on a freed or wrong-type handle."""

    def __init__(self, message: str = "invalid handle"):
        super().__init__("HY000", message)


# ---------------------------------------------------------------------------
# Phoenix errors
# ---------------------------------------------------------------------------


class PhoenixError(ReproError):
    """Base class for errors raised by the Phoenix layer itself."""


class RecoveryFailedError(PhoenixError):
    """Phoenix exhausted its reconnect budget; failure is exposed to the app."""
