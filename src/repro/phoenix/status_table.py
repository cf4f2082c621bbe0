"""The Phoenix status table: testable statement completion.

"Phoenix/ODBC wraps each insert and delete statement with a transaction,
and within that transaction it records the number of tuples affected by
the update in a Phoenix-managed table; this status table provides
testable state for determining whether a statement has successfully
completed."  (§3.2)

:meth:`StatusTable.run_once` is the one guard: an autocommit update,
DDL statement or ``EXEC``, a persisted result's load and the
application's own COMMIT each commit with a record, so a lookup after a
failure tells key present → durable (use the recorded count) from
absent → died with the failure: sent again, or for a COMMIT, 40001.
"""

from __future__ import annotations

from sys import maxsize

from repro.errors import (
    DeadlockError,
    EngineError,
    TableExistsError,
    TransactionError,
)
from repro.odbc.driver import NativeDriver
from repro.odbc.handles import ConnectionHandle, StatementHandle
from repro.phoenix.scratch import scratch_statement
from repro.phoenix.virtual_session import VirtualConnection
from repro.phoenix_names import STATUS_TABLE


class StatusTable:
    """Client-side access to the server-resident status table."""

    def __init__(self, driver: NativeDriver):
        self._driver = driver

    def ensure(self, connection: ConnectionHandle) -> None:
        """Create the status table if this is the first Phoenix client."""
        with scratch_statement(self._driver, connection) as scratch:
            try:
                self._driver.execute(
                    scratch,
                    f"CREATE TABLE {STATUS_TABLE} "
                    f"(op_key VARCHAR(64) NOT NULL, rows_affected INT, "
                    f"PRIMARY KEY (op_key))")
            except TableExistsError:
                pass

    def completed(self, connection: ConnectionHandle,
                  op_key: str) -> int | None:
        """Recorded row count of ``op_key``, or None if never completed."""
        with scratch_statement(self._driver, connection) as scratch:
            self._driver.execute(scratch, f"SELECT rows_affected FROM "
                                 f"{STATUS_TABLE} WHERE op_key = '{op_key}'")
            row = self._driver.fetch_one(scratch)
        return None if row is None else row[0]

    def run_once(self, vconn: VirtualConnection, statement: StatementHandle,
                 op_key: str, retry: bool, body: str = "",
                 rows_affected: str = "@rowcount", *, script: bool,
                 then: str = "", before=None):
        """Run ``body``, one statement, at most once under ``op_key``.

        With ``script`` (the default chain) one exchange on ``statement``:
        ``BEGIN TRANSACTION; <body>; INSERT INTO <status table> VALUES
        ('<op_key>', <rows_affected>); COMMIT[; <then>]`` (``@rowcount``:
        the rows ``body`` affected).  Otherwise (the paper's chain) four
        round trips, ``body`` on ``statement``, the rest on a scratch
        handle.  Without ``body`` the record joins the application's
        transaction: ``<record>; COMMIT``.

        ``retry``: an earlier attempt was cut short by a transport failure
        and may have committed unacknowledged; only then is the record
        looked up.  Absent, ``body`` is sent again; without ``body`` the
        transaction died with the session: 40001.  ``before`` runs once
        the lookup found nothing.  Returns ``(recorded count, None)`` or
        ``(None, body's outcome)``, its result open on ``statement``.
        """
        # A blip, or a held statement given up, leaves the session up and
        # perhaps holding a transaction an attempt began: Phoenix's own
        # wrapper, or the application's under its COMMIT.
        survived = vconn.wrapper_txn_open
        if survived and body:
            # Inside the wrapper the lookup would read back that
            # attempt's own uncommitted record: discard it first.
            self.end_transaction(vconn)
        if retry:
            recorded = self.completed(vconn.app_handle, op_key)
            if not body and recorded is None and not survived:
                raise DeadlockError("transaction aborted by server "
                                    "failure; please retry")
            if not body and recorded is not None and survived:
                # The record may be in the still-open transaction, its
                # COMMIT the exchange that was lost.
                self.end_transaction(vconn, "COMMIT")
            if recorded is not None:
                return recorded, None
        if before is not None:
            before()
        # Until the answer a lost exchange can leave open the application's
        # transaction, or a wrapper begun in a request of its own; a
        # script that begins its own runs whole or not at all.
        vconn.wrapper_txn_open = not (script and body)
        execute, outcome = self._driver.execute, None
        try:
            if script:
                # The newline ends a trailing ``--`` comment of ``body``
                # before its separator.
                result = execute(statement, "; ".join(filter(None, (
                    body and f"BEGIN TRANSACTION; {body}\n",
                    self._record(op_key, rows_affected, True), "COMMIT",
                    then))), script=True)
                outcome = result.outcomes[1] if body else None
            else:
                with scratch_statement(self._driver,
                                       vconn.app_handle) as scratch:
                    if body:
                        execute(scratch, "BEGIN TRANSACTION")
                        outcome = execute(statement, body)
                        if not outcome.done:
                            # A procedure ending in a query: read its rows
                            # before the COMMIT ends their transaction.
                            rows = self._driver.fetch_block(statement,
                                                            maxsize)
                            outcome.buffered.extend(rows)
                            outcome.position -= len(rows)
                        if rows_affected == "@rowcount":
                            rows_affected = max(outcome.rowcount, 0)
                    execute(scratch,
                            self._record(op_key, rows_affected, False))
                    execute(scratch, "COMMIT")
        except EngineError:
            # Failed for SQL reasons: roll a wrapper (never the
            # application's transaction) back, surface the error as is.
            if body and not script:
                self.end_transaction(vconn)
            vconn.wrapper_txn_open = False
            raise
        vconn.wrapper_txn_open = False
        return None, outcome

    @staticmethod
    def _record(op_key: str, rows_affected, script: bool) -> str:
        """The INSERT that marks ``op_key`` complete: a script's, where
        ``@rowcount`` binds, or the paper's, its columns spelled out."""
        columns = "" if script else " (op_key, rows_affected)"
        return (f"INSERT INTO {STATUS_TABLE}{columns} "
                f"VALUES ('{op_key}', {rows_affected})")

    def end_transaction(self, vconn: VirtualConnection,
                        verb: str = "ROLLBACK") -> None:
        """End (``verb``) whatever transaction an interrupted attempt left
        open on ``vconn``'s surviving session; none open is fine."""
        with scratch_statement(self._driver, vconn.app_handle) as scratch:
            try:
                self._driver.execute(scratch, verb)
            except TransactionError:
                pass  # no transaction was open — nothing to end
        vconn.wrapper_txn_open = False
