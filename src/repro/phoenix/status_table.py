"""The Phoenix status table: testable statement completion.

"Phoenix/ODBC wraps each insert and delete statement with a transaction,
and within that transaction it records the number of tuples affected by
the update in a Phoenix-managed table; this status table provides
testable state for determining whether a statement has successfully
completed."  (§3.2)

Because the recording INSERT commits atomically with the wrapped
statement, a post-crash lookup answers exactly-once questions: key
present → the statement's effects are durable (use the recorded count);
absent → the transaction aborted with the crash and the statement can be
resubmitted safely.
"""

from __future__ import annotations

from repro.errors import TableExistsError, TransactionError
from repro.odbc.driver import NativeDriver
from repro.odbc.handles import ConnectionHandle, StatementHandle
from repro.phoenix.scratch import scratch_statement
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
            self._driver.execute(
                scratch,
                f"SELECT rows_affected FROM {STATUS_TABLE} "
                f"WHERE op_key = '{op_key}'")
            row = self._driver.fetch_one(scratch)
        return None if row is None else row[0]

    def record_sql(self, op_key: str, rows_affected: int) -> str:
        """The INSERT that marks ``op_key`` complete (run inside the
        wrapping transaction)."""
        return (f"INSERT INTO {STATUS_TABLE} (op_key, rows_affected) "
                f"VALUES ('{op_key}', {int(rows_affected)})")

    def run_once(self, statement: StatementHandle, op_key: str,
                 retry: bool, body: str, rows_affected: str,
                 then: str = "", params: dict | None = None):
        """Run ``body``, one statement, at most once under ``op_key``:
        one script exchange on ``statement``, ::

            BEGIN TRANSACTION; <body>;
            INSERT INTO <status table> VALUES ('<op_key>', <rows_affected>);
            COMMIT[; <then>]

        so the record commits with ``body``.  ``rows_affected`` is SQL: a
        literal, or ``@rowcount`` for the rows ``body`` affected.
        ``retry``: an earlier attempt was cut short by a transport
        failure and may have committed unacknowledged — only then is the
        record looked up, and if it is there nothing is sent.

        Returns ``(recorded count, None)`` when the record was found,
        else ``(None, body's outcome)`` with the script's result open on
        ``statement``.
        """
        if retry:
            recorded = self.completed(statement.connection, op_key)
            if recorded is not None:
                return recorded, None
        # The newline ends a trailing ``--`` comment of ``body`` before
        # its separator.
        script = (f"BEGIN TRANSACTION; {body}\n; INSERT INTO {STATUS_TABLE} "
                  f"VALUES ('{op_key}', {rows_affected}); COMMIT")
        if then:
            script = f"{script}; {then}"
        result = self._driver.execute(statement, script, params,
                                      script=True)
        return None, result.outcomes[1]

    def reset_open_transaction(self, connection: ConnectionHandle) -> None:
        """Roll back any transaction left open on a survived session.

        Used when a *network blip* (not a crash) interrupted a wrapped
        statement: the server session may still hold the half-done
        transaction, which must be discarded before the retry.
        """
        with scratch_statement(self._driver, connection) as scratch:
            try:
                self._driver.execute(scratch, "ROLLBACK")
            except TransactionError:
                pass  # no transaction was open — nothing to discard
