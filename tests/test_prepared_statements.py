"""Prepared-statement (SQLPrepare/SQLExecute) tests, both managers."""

import datetime

import pytest

from repro.odbc.constants import SQL_ERROR, SQL_NO_DATA, SQL_SUCCESS
from repro.odbc.driver import NativeDriver
from repro.odbc.driver_manager import DriverManager
from repro.phoenix.driver_manager import PhoenixDriverManager
from repro.phoenix.parse import inline_parameters
from repro.server.network import SimulatedNetwork
from repro.server.server import DatabaseServer
from repro.sim.costs import CostModel
from repro.sim.meter import Meter


def build_world(kind: str, costs: CostModel | None = None):
    meter = Meter(costs)
    server = DatabaseServer(meter=meter)
    network = SimulatedNetwork(meter)
    driver = NativeDriver(server, network, meter)
    if kind == "phoenix":
        manager = PhoenixDriverManager(driver)
    else:
        manager = DriverManager(driver)
    env = manager.alloc_env()
    conn = manager.alloc_connection(env)
    assert manager.connect(conn, "app") == SQL_SUCCESS
    stmt = manager.alloc_statement(conn)
    assert manager.exec_direct(
        stmt, "CREATE TABLE t (a INT, s VARCHAR(20))") == SQL_SUCCESS
    assert manager.exec_direct(
        stmt, "INSERT INTO t VALUES (1, 'one'), (2, 'two'), (3, 'three')"
    ) == SQL_SUCCESS
    return server, manager, conn


@pytest.fixture(params=["native", "phoenix"])
def manager_conn(request):
    return build_world(request.param)


def fetch_all(manager, stmt):
    rows = []
    while True:
        rc, row = manager.fetch(stmt)
        if rc == SQL_NO_DATA:
            return rows
        assert rc == SQL_SUCCESS
        rows.append(row)


class TestPreparedStatements:
    def test_prepare_bind_execute(self, manager_conn):
        _server, manager, conn = manager_conn
        stmt = manager.alloc_statement(conn)
        assert manager.prepare(
            stmt, "SELECT s FROM t WHERE a = @key") == SQL_SUCCESS
        assert manager.bind_param(stmt, "key", 2) == SQL_SUCCESS
        assert manager.execute(stmt) == SQL_SUCCESS
        assert fetch_all(manager, stmt) == [("two",)]

    def test_rebind_and_reexecute(self, manager_conn):
        _server, manager, conn = manager_conn
        stmt = manager.alloc_statement(conn)
        manager.prepare(stmt, "SELECT s FROM t WHERE a = @key")
        for key, expected in ((1, "one"), (3, "three")):
            manager.bind_param(stmt, "key", key)
            assert manager.execute(stmt) == SQL_SUCCESS
            assert fetch_all(manager, stmt) == [(expected,)]

    def test_prepared_update(self, manager_conn):
        _server, manager, conn = manager_conn
        stmt = manager.alloc_statement(conn)
        manager.prepare(stmt, "UPDATE t SET s = @label WHERE a = @key")
        manager.bind_param(stmt, "label", "uno")
        manager.bind_param(stmt, "key", 1)
        assert manager.execute(stmt) == SQL_SUCCESS
        assert manager.row_count(stmt) == 1
        check = manager.alloc_statement(conn)
        manager.exec_direct(check, "SELECT s FROM t WHERE a = 1")
        assert fetch_all(manager, check) == [("uno",)]

    def test_execute_without_prepare_fails(self, manager_conn):
        _server, manager, conn = manager_conn
        stmt = manager.alloc_statement(conn)
        assert manager.execute(stmt) == SQL_ERROR
        assert manager.get_diag(stmt)[0].sqlstate == "HY010"

    def test_bind_without_prepare_fails(self, manager_conn):
        _server, manager, conn = manager_conn
        stmt = manager.alloc_statement(conn)
        assert manager.bind_param(stmt, "x", 1) == SQL_ERROR

    def test_prepared_survives_crash_under_phoenix(self, manager_conn):
        server, manager, conn = manager_conn
        if not isinstance(manager, PhoenixDriverManager):
            pytest.skip("crash masking is Phoenix-only")
        stmt = manager.alloc_statement(conn)
        manager.prepare(stmt, "SELECT s FROM t WHERE a = @key")
        manager.bind_param(stmt, "key", 2)
        server.crash()
        server.restart()
        assert manager.execute(stmt) == SQL_SUCCESS
        assert fetch_all(manager, stmt) == [("two",)]


class TestPlanCacheThroughManagers:
    def test_reexecution_hits_plan_cache(self, manager_conn):
        server, manager, conn = manager_conn
        stmt = manager.alloc_statement(conn)
        manager.prepare(stmt, "SELECT s FROM t WHERE a = @key")
        for key in (1, 2, 3):
            manager.bind_param(stmt, "key", key)
            assert manager.execute(stmt) == SQL_SUCCESS
            fetch_all(manager, stmt)
        assert server.engine.cache_stats["plan_hits"] >= 2

    def test_ddl_between_executions_stays_correct(self, manager_conn):
        server, manager, conn = manager_conn
        worlds = [(server, manager, conn)]
        if isinstance(manager, PhoenixDriverManager):
            # The default chain persists with ``CREATE TABLE ... AS
            # <query>``, whose query is planned afresh each time; the
            # paper's chain caches its ``WHERE 0 = 1`` probe's plan, and
            # the DDL must invalidate that.
            worlds.append(build_world("phoenix", CostModel.paper()))
        for server, manager, conn in worlds:
            stmt = manager.alloc_statement(conn)
            manager.prepare(stmt, "SELECT s FROM t WHERE a = @key")
            manager.bind_param(stmt, "key", 2)
            assert manager.execute(stmt) == SQL_SUCCESS
            assert fetch_all(manager, stmt) == [("two",)]
            ddl = manager.alloc_statement(conn)
            assert manager.exec_direct(
                ddl, "CREATE INDEX ix_a ON t (a)") == SQL_SUCCESS
            assert manager.execute(stmt) == SQL_SUCCESS
            assert fetch_all(manager, stmt) == [("two",)]
        assert server.engine.cache_stats["plan_invalidations"] >= 1

    def test_phoenix_probe_plan_hits(self, manager_conn):
        server, manager, conn = manager_conn
        if not isinstance(manager, PhoenixDriverManager):
            pytest.skip("metadata probes are Phoenix-only")
        # client_cache_rows defaults to 0, so each SELECT is persisted:
        # one script whose status record the second run plans from the
        # server's plan cache (under paper() it is the WHERE 0=1
        # metadata probe that hits).
        hits = []
        for _ in range(2):
            before = server.engine.cache_stats["plan_hits"]
            stmt = manager.alloc_statement(conn)
            assert manager.exec_direct(
                stmt, "SELECT s FROM t ORDER BY a") == SQL_SUCCESS
            fetch_all(manager, stmt)
            manager.free_statement(stmt)
            hits.append(server.engine.cache_stats["plan_hits"] - before)
        assert hits[1] > hits[0]


class TestInlineParameters:
    def test_values_rendered(self):
        sql = inline_parameters(
            "SELECT * FROM t WHERE a = @a AND s = @s AND d = @d "
            "AND n = @n",
            {"a": 5, "s": "it's", "d": datetime.date(2001, 4, 2),
             "n": None})
        assert "a = 5" in sql
        assert "s = 'it''s'" in sql
        assert "d = date '2001-04-02'" in sql
        assert "n = NULL" in sql

    def test_markers_in_strings_untouched(self):
        sql = inline_parameters("SELECT '@a' FROM t WHERE b = @a",
                                {"a": 1})
        assert sql == "SELECT '@a' FROM t WHERE b = 1"

    def test_markers_in_comments_untouched(self):
        sql = inline_parameters(
            "SELECT @a -- @a\nFROM t /* it's */ WHERE b = @a", {"a": 1})
        assert sql == "SELECT 1 -- @a\nFROM t /* it's */ WHERE b = 1"

    def test_unbound_markers_left_alone(self):
        assert inline_parameters("SELECT @other", {"a": 1}) \
            == "SELECT @other"

    def test_no_params_is_identity(self):
        assert inline_parameters("SELECT 1", {}) == "SELECT 1"
