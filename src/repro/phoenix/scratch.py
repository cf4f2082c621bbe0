"""Phoenix's own statements: one scratch handle per step.

Phoenix runs lookups, DDL, wrapper statements and recovery reopens on
handles of its own, beside the application's.  Each lives for one step
and is released when the step ends, as an ODBC driver manager would
free it, so a connection's ``statements`` stay the live handles.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.odbc.driver import NativeDriver
from repro.odbc.handles import ConnectionHandle, StatementHandle


@contextmanager
def scratch_statement(driver: NativeDriver, connection: ConnectionHandle):
    """A statement handle on ``connection`` for one step.

    A step that ends normally has its result closed (with its server
    cursor, if one is still open) and its handle freed.  A step that
    raises only frees the handle: its session is suspect, and what
    talks to the server next is the caller's recovery, not cleanup.
    """
    scratch = StatementHandle(connection)
    try:
        yield scratch
        driver.close_statement(scratch)
    finally:
        scratch.free()
