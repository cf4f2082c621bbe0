"""ODBC surface details: handles, diagnostics, attrs, block cursors."""

import pytest

from repro.errors import OdbcError
from repro.odbc.constants import (
    SQL_ATTR_ROW_ARRAY_SIZE,
    SQL_ERROR,
    SQL_NO_DATA,
    SQL_SUCCESS,
)
from repro.odbc.driver import NativeDriver
from repro.odbc.driver_manager import DriverManager, sqlstate_for
from repro.odbc.handles import ConnectionHandle, EnvironmentHandle
from repro.server.network import SimulatedNetwork
from repro.server.server import DatabaseServer
from repro.sim.meter import Meter


@pytest.fixture
def manager_conn():
    meter = Meter()
    server = DatabaseServer(meter=meter)
    network = SimulatedNetwork(meter)
    manager = DriverManager(NativeDriver(server, network, meter))
    env = manager.alloc_env()
    conn = manager.alloc_connection(env)
    assert manager.connect(conn, "app") == SQL_SUCCESS
    return manager, conn


class TestHandles:
    def test_env_tracks_connections(self):
        env = EnvironmentHandle()
        a = ConnectionHandle(env)
        b = ConnectionHandle(env)
        assert env.connections == [a, b]

    def test_connection_tracks_statements(self, manager_conn):
        manager, conn = manager_conn
        s1 = manager.alloc_statement(conn)
        s2 = manager.alloc_statement(conn)
        assert conn.statements[-2:] == [s1, s2]

    def test_freed_statement_leaves_connection(self, manager_conn):
        """SQLFreeHandle: the connection keeps its live handles only —
        a freed one, its result drained or still open, is gone."""
        manager, conn = manager_conn
        s1 = manager.alloc_statement(conn)
        s2 = manager.alloc_statement(conn)
        s3 = manager.alloc_statement(conn)
        assert manager.exec_direct(s1, "SELECT 1") == SQL_SUCCESS
        assert manager.free_statement(s1) == SQL_SUCCESS
        assert manager.free_statement(s3) == SQL_SUCCESS
        assert s1.freed and s3.freed
        assert conn.statements[-1:] == [s2]
        assert s1 not in conn.statements and s3 not in conn.statements
        assert manager.free_statement(s1) == SQL_SUCCESS    # twice: no-op
        assert conn.statements[-1:] == [s2]

    def test_handle_ids_unique(self, manager_conn):
        manager, conn = manager_conn
        ids = {manager.alloc_statement(conn).handle_id for _ in range(5)}
        assert len(ids) == 5

    def test_diag_cleared_per_operation(self, manager_conn):
        manager, conn = manager_conn
        stmt = manager.alloc_statement(conn)
        assert manager.exec_direct(stmt, "SELECT * FROM ghost") == SQL_ERROR
        assert manager.get_diag(stmt)
        assert manager.exec_direct(stmt, "SELECT 1") == SQL_SUCCESS
        assert manager.get_diag(stmt) == []


class TestFetchPaths:
    def test_fetch_without_result(self, manager_conn):
        manager, conn = manager_conn
        stmt = manager.alloc_statement(conn)
        rc, row = manager.fetch(stmt)
        assert rc == SQL_ERROR
        assert manager.get_diag(stmt)[0].sqlstate == "24000"

    def test_block_fetch_partial_batches(self, manager_conn):
        manager, conn = manager_conn
        stmt = manager.alloc_statement(conn)
        manager.exec_direct(stmt, "CREATE TABLE t (a INT)")
        manager.exec_direct(stmt, "INSERT INTO t VALUES (1), (2), (3), "
                                  "(4), (5)")
        manager.exec_direct(stmt, "SELECT a FROM t ORDER BY a")
        rc, rows = manager.fetch_block(stmt, 2)
        assert rc == SQL_SUCCESS and len(rows) == 2
        rc, rows = manager.fetch_block(stmt, 10)
        assert rc == SQL_SUCCESS and len(rows) == 3
        rc, rows = manager.fetch_block(stmt, 10)
        assert rc == SQL_NO_DATA

    def test_row_array_size_attr_is_stored(self, manager_conn):
        manager, conn = manager_conn
        stmt = manager.alloc_statement(conn)
        assert manager.set_stmt_attr(stmt, SQL_ATTR_ROW_ARRAY_SIZE,
                                     64) == SQL_SUCCESS
        assert stmt.attrs[SQL_ATTR_ROW_ARRAY_SIZE] == 64

    def test_row_count_semantics(self, manager_conn):
        manager, conn = manager_conn
        stmt = manager.alloc_statement(conn)
        manager.exec_direct(stmt, "CREATE TABLE t (a INT)")
        assert manager.row_count(stmt) == -1  # DDL: no count
        manager.exec_direct(stmt, "INSERT INTO t VALUES (1), (2)")
        assert manager.row_count(stmt) == 2

    def test_free_statement_closes_cursor(self, manager_conn):
        manager, conn = manager_conn
        stmt = manager.alloc_statement(conn)
        manager.exec_direct(stmt, "CREATE TABLE t (a INT)")
        manager.exec_direct(stmt, "INSERT INTO t VALUES (1)")
        manager.exec_direct(stmt, "SELECT a FROM t")
        assert manager.free_statement(stmt) == SQL_SUCCESS
        assert stmt.freed


class TestSqlstateMapping:
    def test_transport_errors(self):
        from repro.errors import (
            ConnectionLostError,
            RequestTimeoutError,
            ServerCrashedError,
            ServerDownError,
        )

        assert sqlstate_for(ServerDownError("x")) == "08S01"
        assert sqlstate_for(ServerCrashedError("x")) == "08S01"
        assert sqlstate_for(RequestTimeoutError("x")) == "08S01"
        assert sqlstate_for(ConnectionLostError("x")) == "08003"

    def test_engine_errors(self):
        from repro.errors import (
            ConstraintError,
            DeadlockError,
            EngineError,
            SqlSyntaxError,
        )

        assert sqlstate_for(SqlSyntaxError("x")) == "42000"
        assert sqlstate_for(ConstraintError("x")) == "23000"
        assert sqlstate_for(DeadlockError("x")) == "40001"
        assert sqlstate_for(EngineError("x")) == "HY000"

    def test_odbc_error_passthrough(self):
        assert sqlstate_for(OdbcError("24000", "m")) == "24000"


class TestDisconnectSemantics:
    def test_disconnect_resets_handle(self, manager_conn):
        manager, conn = manager_conn
        assert manager.disconnect(conn) == SQL_SUCCESS
        assert not conn.connected
        assert conn.session_token == 0

    def test_operations_after_disconnect_fail(self, manager_conn):
        manager, conn = manager_conn
        manager.disconnect(conn)
        stmt = manager.alloc_statement(conn)
        assert manager.exec_direct(stmt, "SELECT 1") == SQL_ERROR
