"""Core Phoenix/ODBC behaviour: persistence, masking, exactly-once."""

import pytest

from repro.odbc.constants import SQL_ERROR, SQL_NO_DATA, SQL_SUCCESS
from repro.odbc.driver import NativeDriver
from repro.odbc.driver_manager import DriverManager
from repro.phoenix import failure
from repro.phoenix.config import PhoenixConfig
from repro.phoenix.driver_manager import PhoenixDriverManager
from repro.server.network import SimulatedNetwork
from repro.server.server import DatabaseServer
from repro.sim.meter import Meter


class PhoenixWorld:
    """One simulated world: server + network + phoenix manager.

    The network output buffer is shrunk to a few rows so that result
    delivery spans multiple wire batches — otherwise small test results
    are fully client-buffered at execute time and a crash never needs
    recovery at all (which is correct, but not what these tests probe).
    """

    def __init__(self, config: PhoenixConfig | None = None,
                 **cost_overrides):
        from repro.sim.costs import CostModel

        self.meter = Meter(CostModel(output_buffer_bytes=4,
                                     **cost_overrides))
        self.server = DatabaseServer(meter=self.meter)
        self.network = SimulatedNetwork(self.meter)
        self.driver = NativeDriver(self.server, self.network, self.meter)
        self.manager = PhoenixDriverManager(self.driver, config)
        env = self.manager.alloc_env()
        self.conn = self.manager.alloc_connection(env)
        rc = self.manager.connect(self.conn, "app")
        assert rc == SQL_SUCCESS, self.manager.get_diag(self.conn)

    def execute(self, sql):
        stmt = self.manager.alloc_statement(self.conn)
        rc = self.manager.exec_direct(stmt, sql)
        assert rc == SQL_SUCCESS, self.manager.get_diag(stmt)
        return stmt

    def execute_rc(self, sql):
        stmt = self.manager.alloc_statement(self.conn)
        return self.manager.exec_direct(stmt, sql), stmt

    def fetch_all(self, stmt):
        rows = []
        while True:
            rc, row = self.manager.fetch(stmt)
            if rc == SQL_NO_DATA:
                return rows
            assert rc == SQL_SUCCESS, self.manager.get_diag(stmt)
            rows.append(row)

    def crash_and_restart(self):
        self.server.crash()
        self.server.restart()

    def seed(self, rows=10):
        self.execute("CREATE TABLE items (id INT, name VARCHAR(16), "
                     "PRIMARY KEY (id))")
        values = ", ".join(f"({i}, 'item{i}')" for i in range(rows))
        self.execute(f"INSERT INTO items VALUES {values}")


@pytest.fixture
def world():
    return PhoenixWorld()


@pytest.fixture
def stop_and_wait_world():
    """Every fetch past the first batch is a round trip of its own: no
    fetch-ahead, no growing batches (the paper's delivery), for tests
    that aim a fault at one particular fetch."""
    return PhoenixWorld(fetch_ahead_depth=0, fetch_batch_max_bytes=0,
                        output_buffer_max_bytes=0)


@pytest.fixture
def cached_world():
    return PhoenixWorld(PhoenixConfig(client_cache_rows=100))


class TestResultPersistence:
    def test_select_served_from_persistent_table(self, world):
        world.seed(5)
        stmt = world.execute("SELECT id, name FROM items ORDER BY id")
        assert world.fetch_all(stmt) == [(i, f"item{i}") for i in range(5)]
        assert world.manager.stats["persisted_results"] == 1

    def test_result_table_created_on_server(self, world):
        world.seed(3)
        world.execute("SELECT id FROM items")
        catalog = world.server.engine.catalog
        phoenix_tables = [n for n in catalog.tables if n.startswith(
            "phoenix_rs_")]
        assert len(phoenix_tables) == 1

    def test_describe_reports_original_names(self, world):
        world.seed(3)
        stmt = world.execute("SELECT id AS item_id, name FROM items")
        assert world.manager.num_result_cols(stmt) == 2
        name, _t, _l = world.manager.describe_col(stmt, 1)
        assert name == "item_id"

    def test_close_cursor_drops_result_table(self, world):
        world.seed(3)
        stmt = world.execute("SELECT id FROM items")
        world.manager.close_cursor(stmt)
        catalog = world.server.engine.catalog
        assert not [n for n in catalog.tables if n.startswith("phoenix_rs_")]

    def test_reexecute_replaces_result_table(self, world):
        world.seed(3)
        stmt = world.execute("SELECT id FROM items")
        world.manager.exec_direct(stmt, "SELECT name FROM items")
        catalog = world.server.engine.catalog
        assert len([n for n in catalog.tables
                    if n.startswith("phoenix_rs_")]) == 1

    def test_load_procedure_cleaned_up(self, world):
        world.seed(3)
        world.execute("SELECT id FROM items")
        catalog = world.server.engine.catalog
        assert not [p for p in catalog.procedures
                    if p.startswith("phoenix_load_")]


class TestCrashMasking:
    def test_fetch_across_crash_is_seamless(self, world):
        world.seed(10)
        stmt = world.execute("SELECT id FROM items ORDER BY id")
        first = [world.manager.fetch(stmt)[1] for _ in range(4)]
        world.crash_and_restart()
        rest = world.fetch_all(stmt)
        assert first + rest == [(i,) for i in range(10)]
        assert world.manager.stats["recoveries"] == 1

    def test_crash_before_first_fetch(self, world):
        world.seed(6)
        stmt = world.execute("SELECT id FROM items ORDER BY id")
        world.crash_and_restart()
        assert world.fetch_all(stmt) == [(i,) for i in range(6)]

    def test_multiple_crashes_during_one_result(self, stop_and_wait_world):
        world = stop_and_wait_world
        world.seed(9)
        stmt = world.execute("SELECT id FROM items ORDER BY id")
        rows = []
        for i in range(9):
            if i in (2, 5, 7):
                world.crash_and_restart()
            rc, row = world.manager.fetch(stmt)
            assert rc == SQL_SUCCESS
            rows.append(row)
        assert rows == [(i,) for i in range(9)]
        assert world.manager.stats["recoveries"] == 3

    def test_execute_after_crash_reconnects(self, world):
        world.seed(3)
        world.crash_and_restart()
        stmt = world.execute("SELECT count(*) FROM items")
        assert world.fetch_all(stmt) == [(3,)]

    def test_crash_during_execute_pipeline(self, world):
        """Crash injected mid-persistence: the pipeline restarts and the
        result is still delivered exactly once."""
        world.seed(8)
        calls = {"n": 0}

        def injector(request):
            calls["n"] += 1
            if calls["n"] == 3:  # somewhere inside the persist pipeline
                world.server.crash()
                world.server.restart()

        world.network.fault_injector = injector
        stmt = world.execute("SELECT id FROM items ORDER BY id")
        world.network.fault_injector = None
        assert world.fetch_all(stmt) == [(i,) for i in range(8)]

    def test_give_up_exposes_original_error(self, monkeypatch):
        monkeypatch.setattr(failure, "RECONNECT_BUDGET_SECONDS", 3.0)
        monkeypatch.setattr(failure, "RETRY_INTERVAL_SECONDS", 1.0)
        world = PhoenixWorld(PhoenixConfig())
        world.seed(3)
        stmt = world.execute("SELECT id FROM items")
        world.server.crash()  # never restarted
        # Rows already in the client buffer still arrive; the first fetch
        # that needs the server surfaces the failure after the budget.
        rc = SQL_SUCCESS
        for _ in range(5):
            rc, _row = world.manager.fetch(stmt)
            if rc != SQL_SUCCESS:
                break
        assert rc == SQL_ERROR
        diag = world.manager.get_diag(stmt)[0]
        assert diag.sqlstate in ("08S01", "08003")

    def test_recovery_waits_for_server(self):
        """Server comes back only after a few ping rounds."""
        # On the shipped timings: a 1 s ping interval, a 120 s budget.
        assert failure.RETRY_INTERVAL_SECONDS == 1.0
        assert failure.RECONNECT_BUDGET_SECONDS == 120.0
        world = PhoenixWorld(PhoenixConfig())
        world.seed(4)
        stmt = world.execute("SELECT id FROM items ORDER BY id")
        world.server.crash()
        pings = {"n": 0}

        def injector(request):
            from repro.server.protocol import PingRequest

            if isinstance(request, PingRequest):
                pings["n"] += 1
                if pings["n"] == 3:
                    world.server.restart()

        world.network.fault_injector = injector
        # The server is down: is_running check happens before the
        # injector, so restart must come from ping attempts.
        rows = world.fetch_all(stmt)
        world.network.fault_injector = None
        assert rows == [(i,) for i in range(4)]


class TestUpdatesExactlyOnce:
    def test_update_rowcount_reported(self, world):
        world.seed(10)
        _rc, stmt = world.execute_rc("UPDATE items SET name = 'x' "
                                     "WHERE id < 4")
        assert world.manager.row_count(stmt) == 4

    def test_update_crashed_before_its_commit_is_applied_once(self, world):
        """Crash *before* the wrapper's COMMIT is sent: the statement ran
        but its transaction died with the server, so no status row
        exists and the retry applies the update — once.  (A commit whose
        acknowledgement is lost, the case the status table exists for,
        needs a fault point behind the apply: ROADMAP item 3.)"""
        world.seed(1)
        world.execute("CREATE TABLE counter (n INT)")
        world.execute("INSERT INTO counter VALUES (0)")

        fired = {"done": False}

        def injector(request):
            from repro.server.protocol import ExecuteRequest

            # Crash right when the wrapped COMMIT is about to be sent:
            # the wrapping transaction never committed, so the retry
            # applies the update exactly once.
            if (isinstance(request, ExecuteRequest)
                    and request.sql.strip().upper() == "COMMIT"
                    and not fired["done"]):
                fired["done"] = True
                world.server.crash()
                world.server.restart()

        world.network.fault_injector = injector
        rc, _stmt = world.execute_rc("UPDATE counter SET n = n + 1")
        world.network.fault_injector = None
        assert rc == SQL_SUCCESS
        check = world.execute("SELECT n FROM counter")
        assert world.fetch_all(check) == [(1,)]

    def test_completed_update_not_resubmitted(self, world):
        """Crash after the wrapped txn committed: the recorded status is
        honoured and the update is not run twice."""
        world.seed(1)
        world.execute("CREATE TABLE counter (n INT)")
        world.execute("INSERT INTO counter VALUES (0)")

        state = {"armed": False, "fired": False}

        def injector(request):
            from repro.server.protocol import ExecuteRequest

            if not isinstance(request, ExecuteRequest):
                return
            sql = request.sql.strip().upper()
            if sql == "COMMIT":
                state["armed"] = True
                return
            if state["armed"] and not state["fired"]:
                # First request after the commit went through.
                state["fired"] = True
                world.server.crash()
                world.server.restart()

        # Run one wrapped update; crash it after commit on the next
        # request, then ensure the retry sees the status record.
        world.network.fault_injector = injector
        rc, _stmt = world.execute_rc("UPDATE counter SET n = n + 1")
        world.network.fault_injector = None
        assert rc == SQL_SUCCESS
        check = world.execute("SELECT n FROM counter")
        assert world.fetch_all(check) == [(1,)]

    def test_ddl_wrapped_and_recovered(self, world):
        calls = {"n": 0}

        def injector(request):
            calls["n"] += 1
            if calls["n"] == 2:
                world.server.crash()
                world.server.restart()

        world.network.fault_injector = injector
        rc, _stmt = world.execute_rc("CREATE TABLE made_during_crash (a INT)")
        world.network.fault_injector = None
        assert rc == SQL_SUCCESS
        stmt = world.execute("SELECT count(*) FROM made_during_crash")
        assert world.fetch_all(stmt) == [(0,)]


class TestApplicationTransactions:
    def test_txn_commit_passthrough(self, world):
        world.seed(2)
        world.execute("BEGIN TRANSACTION")
        world.execute("UPDATE items SET name = 'changed' WHERE id = 0")
        world.execute("COMMIT")
        stmt = world.execute("SELECT name FROM items WHERE id = 0")
        assert world.fetch_all(stmt) == [("changed",)]

    def test_crash_in_txn_surfaces_abort(self, world):
        world.seed(2)
        world.execute("BEGIN TRANSACTION")
        world.execute("UPDATE items SET name = 'doomed' WHERE id = 0")
        world.crash_and_restart()
        rc, stmt = world.execute_rc("UPDATE items SET name = 'x' "
                                    "WHERE id = 1")
        assert rc == SQL_ERROR
        assert world.manager.get_diag(stmt)[0].sqlstate == "40001"
        # The update never happened; the session works again and the app
        # can restart its transaction.
        check = world.execute("SELECT name FROM items WHERE id = 0")
        assert world.fetch_all(check) == [("item0",)]
        world.execute("BEGIN TRANSACTION")
        world.execute("UPDATE items SET name = 'retried' WHERE id = 0")
        world.execute("COMMIT")
        check = world.execute("SELECT name FROM items WHERE id = 0")
        assert world.fetch_all(check) == [("retried",)]


class TestVirtualSession:
    def test_options_replayed_after_crash(self, world):
        world.seed(1)
        world.manager.set_connect_option(world.conn, "lock_timeout", 30)
        world.crash_and_restart()
        stmt = world.execute("SELECT id FROM items")
        world.fetch_all(stmt)
        token = world.conn.session_token
        session = world.server._sessions[token].engine_session
        assert session.get_option("lock_timeout") == 30

    def test_login_options_equal_sequential_replay(self):
        """The login-carried option dict (``persist_pipeline`` on) must
        leave the recovered session exactly where one-by-one replay
        does — also when the log rewrites a name, or writes one setting
        under two spellings (the server lower-cases names)."""
        settings = {}
        for pipelined in (False, True):
            world = PhoenixWorld()
            world.meter.costs.persist_pipeline = pipelined
            world.seed(1)
            for name, value in (("lock_timeout", 30), ("Lock_Timeout", 5),
                                ("textsize", 1024), ("lock_timeout", 60),
                                ("LOCK_TIMEOUT", 7), ("Lock_Timeout", 9)):
                world.manager.set_connect_option(world.conn, name, value)
            before = world.network.requests_sent
            world.crash_and_restart()
            # Statements both chains send alike: only the recovery the
            # first one sets off differs.  The paper's chain re-dials
            # Phoenix's private connection on first use; use it, so both
            # chains end with both connections back.
            world.execute("BEGIN TRANSACTION")
            world.execute("ROLLBACK")
            world.manager._private_connection()
            session = world.server._sessions[
                world.conn.session_token].engine_session
            settings[pipelined] = (dict(session.settings),
                                   world.network.requests_sent - before)
        assert settings[True][0] == settings[False][0]
        assert settings[True][0]["lock_timeout"] == 9
        assert settings[True][0]["textsize"] == 1024
        # 8 default options + 6 set above: one round trip each when
        # replayed, none when they ride the login.
        assert settings[False][1] - settings[True][1] == 14

    def test_connection_handle_identity_stable(self, world):
        world.seed(1)
        handle_before = world.conn
        token_before = world.conn.session_token
        world.crash_and_restart()
        stmt = world.execute("SELECT id FROM items")
        world.fetch_all(stmt)
        assert world.conn is handle_before
        assert world.conn.session_token != token_before

    def test_blip_does_not_trigger_recovery(self, stop_and_wait_world):
        """A transient transport error with the server still up: the
        session probe shows the session survived."""
        world = stop_and_wait_world
        world.seed(4)
        stmt = world.execute("SELECT id FROM items ORDER BY id")
        from repro.errors import RequestTimeoutError

        fired = {"done": False}

        def injector(request):
            from repro.server.protocol import FetchRequest

            if isinstance(request, FetchRequest) and not fired["done"]:
                fired["done"] = True
                raise RequestTimeoutError("spurious timeout")

        world.network.fault_injector = injector
        rows = world.fetch_all(stmt)
        world.network.fault_injector = None
        assert rows == [(i,) for i in range(4)]
        assert world.manager.stats["blips"] == 1
        assert world.manager.stats["recoveries"] == 0


class TestClientCache:
    def test_small_result_served_from_cache(self, cached_world):
        world = cached_world
        world.seed(5)
        stmt = world.execute("SELECT id FROM items ORDER BY id")
        assert world.fetch_all(stmt) == [(i,) for i in range(5)]
        assert world.manager.stats["cached_results"] == 1
        assert world.manager.stats["persisted_results"] == 0

    def test_no_server_table_created_when_cached(self, cached_world):
        world = cached_world
        world.seed(5)
        world.execute("SELECT id FROM items")
        catalog = world.server.engine.catalog
        assert not [n for n in catalog.tables if n.startswith("phoenix_rs_")]

    def test_cached_result_survives_crash_without_server(self, cached_world):
        world = cached_world
        world.seed(6)
        stmt = world.execute("SELECT id FROM items ORDER BY id")
        world.server.crash()  # never restarted!
        rows = []
        while True:
            rc, row = world.manager.fetch(stmt)
            if rc == SQL_NO_DATA:
                break
            assert rc == SQL_SUCCESS
            rows.append(row)
        assert rows == [(i,) for i in range(6)]

    def test_overflow_falls_back_to_persistence(self):
        world = PhoenixWorld(PhoenixConfig(client_cache_rows=3))
        world.seed(10)
        stmt = world.execute("SELECT id FROM items ORDER BY id")
        assert world.fetch_all(stmt) == [(i,) for i in range(10)]
        assert world.manager.stats["cache_overflows"] == 1
        assert world.manager.stats["persisted_results"] == 1

    def test_crash_before_cache_complete_reexecutes(self, cached_world):
        world = cached_world
        world.seed(5)
        fired = {"done": False}

        def injector(request):
            from repro.server.protocol import ExecuteRequest

            if (isinstance(request, ExecuteRequest)
                    and request.sql.startswith("SELECT id")
                    and not fired["done"]):
                fired["done"] = True
                world.server.crash()
                world.server.restart()

        world.network.fault_injector = injector
        stmt = world.execute("SELECT id FROM items ORDER BY id")
        world.network.fault_injector = None
        assert world.fetch_all(stmt) == [(i,) for i in range(5)]


class TestTransparency:
    """The headline property: an app sees the same rows with Phoenix +
    crashes as with the native manager and no crashes."""

    def _run_app(self, manager, conn, crash_points=(), world=None):
        outputs = []
        stmt = manager.alloc_statement(conn)
        assert manager.exec_direct(
            stmt, "SELECT id, name FROM items ORDER BY id") == SQL_SUCCESS
        i = 0
        while True:
            if world is not None and i in crash_points:
                world.crash_and_restart()
            rc, row = manager.fetch(stmt)
            if rc == SQL_NO_DATA:
                break
            assert rc == SQL_SUCCESS
            outputs.append(row)
            i += 1
        count_stmt = manager.alloc_statement(conn)
        assert manager.exec_direct(
            count_stmt, "SELECT count(*) FROM items") == SQL_SUCCESS
        rc, row = manager.fetch(count_stmt)
        outputs.append(row)
        return outputs

    @pytest.mark.parametrize("crash_points", [(0,), (3,), (0, 1),
                                              (2, 5, 8)])
    def test_same_rows_with_and_without_crashes(self, crash_points):
        # Native world, no crashes: the reference output.
        native = PhoenixWorld()  # connection machinery reused for setup
        native.seed(12)
        reference_manager = DriverManager(native.driver)
        env = reference_manager.alloc_env()
        ref_conn = reference_manager.alloc_connection(env)
        reference_manager.connect(ref_conn, "app")
        reference = self._run_app(reference_manager, ref_conn)

        # Phoenix world with crashes injected at fetch boundaries.
        phoenix = PhoenixWorld()
        phoenix.seed(12)
        observed = self._run_app(phoenix.manager, phoenix.conn,
                                 crash_points, phoenix)
        assert observed == reference
