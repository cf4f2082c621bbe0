"""Phoenix housekeeping: orphaned-object cleanup.

Phoenix materializes result sets as ordinary committed tables, so a
client that dies (or just forgets to close cursors) leaves
``phoenix_rs_*`` tables and ``phoenix_load_*`` procedures behind on the
server.  The paper's design implies a garbage-collection story (result
tables "are part of a special Phoenix database"); this module provides
it as a plain SQL client: enumerate Phoenix-owned objects through the
``sys_tables`` / ``sys_procedures`` system tables and drop the ones no
live manager claims.

Status-table entries are also prunable: a record only matters while some
client might still retry the operation it guards.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.odbc.driver import NativeDriver
from repro.odbc.handles import ConnectionHandle, EnvironmentHandle
from repro.phoenix.driver_manager import PhoenixDriverManager
from repro.phoenix.scratch import scratch_statement
from repro.phoenix_names import PHOENIX_PREFIX, STATUS_TABLE

_RS_PREFIX = f"{PHOENIX_PREFIX}rs_"
_LOAD_PREFIX = f"{PHOENIX_PREFIX}load_"


@dataclass
class CleanupReport:
    """What a cleanup pass removed."""

    dropped_tables: list[str] = field(default_factory=list)
    dropped_procedures: list[str] = field(default_factory=list)
    pruned_status_keys: list[str] = field(default_factory=list)

    @property
    def total(self) -> int:
        return (len(self.dropped_tables) + len(self.dropped_procedures)
                + len(self.pruned_status_keys))


def live_op_keys(managers: list[PhoenixDriverManager]) -> set[str]:
    """Result-table op keys still claimed by live managers' statements."""
    keys: set[str] = set()
    for manager in managers:
        for vconn in manager._vconns.values():
            for state in vconn.statements.values():
                if state.table_name.startswith(_RS_PREFIX):
                    keys.add(state.table_name[len(_RS_PREFIX):])
    return keys


def cleanup_orphans(driver: NativeDriver,
                    managers: list[PhoenixDriverManager] | None = None
                    ) -> CleanupReport:
    """Drop Phoenix-owned server objects no live manager claims.

    ``managers`` is the set of Phoenix driver managers still running in
    this process (their open results are preserved); an operator cleaning
    up after dead clients passes an empty list.
    """
    claimed = live_op_keys(managers or [])
    report = CleanupReport()

    env = EnvironmentHandle()
    connection = ConnectionHandle(env)
    driver.connect(connection, "phoenix-maintenance")
    try:
        for name in _query_column(driver, connection,
                                  "SELECT name FROM sys_tables "
                                  f"WHERE name LIKE '{_RS_PREFIX}%' "
                                  "ORDER BY name"):
            if name[len(_RS_PREFIX):] in claimed:
                continue
            if _execute_quietly(driver, connection, f"DROP TABLE {name}"):
                report.dropped_tables.append(name)
        for name in _query_column(driver, connection,
                                  "SELECT name FROM sys_procedures "
                                  f"WHERE name LIKE '{_LOAD_PREFIX}%' "
                                  "ORDER BY name"):
            if name[len(_LOAD_PREFIX):] in claimed:
                continue
            if _execute_quietly(driver, connection,
                                f"DROP PROCEDURE {name}"):
                report.dropped_procedures.append(name)
        report.pruned_status_keys = _prune_status(driver, connection,
                                                  claimed)
    finally:
        driver.disconnect(connection)
    return report


def _prune_status(driver: NativeDriver, connection: ConnectionHandle,
                  claimed: set[str]) -> list[str]:
    try:
        keys = _query_column(driver, connection,
                             f"SELECT op_key FROM {STATUS_TABLE}")
    except ReproError:
        return []  # no status table yet: nothing to prune
    pruned = []
    for key in keys:
        if key in claimed:
            continue
        if _execute_quietly(driver, connection,
                            f"DELETE FROM {STATUS_TABLE} "
                            f"WHERE op_key = '{key}'"):
            pruned.append(key)
    return pruned


def _query_column(driver: NativeDriver, connection: ConnectionHandle,
                  sql: str) -> list:
    values = []
    with scratch_statement(driver, connection) as scratch:
        driver.execute(scratch, sql)
        while True:
            row = driver.fetch_one(scratch)
            if row is None:
                break
            values.append(row[0])
    return values


def _execute_quietly(driver: NativeDriver, connection: ConnectionHandle,
                     sql: str) -> bool:
    try:
        with scratch_statement(driver, connection) as scratch:
            driver.execute(scratch, sql)
        return True
    except ReproError:
        return False
