"""Memory follows live state, not history.

Log truncation keeps none of the records it drops — a persisted result's
rows leave memory once its table is dropped and the log lets go of them
— and a freed statement handle leaves its connection, Phoenix's own
scratch handles included.  Checked with weak references, reference
counts and the garbage collector, never with the process's RSS.
"""

import gc
import sys
import weakref

import pytest

from repro.odbc.constants import SQL_NO_DATA, SQL_SUCCESS
from repro.odbc.handles import StatementHandle
from repro.phoenix import scratch
from repro.phoenix.config import PhoenixConfig
from repro.server.server import DatabaseServer
from repro.sim.costs import CostModel
from repro.sim.meter import Meter
from repro.wal.records import InsertRecord
from repro.workloads.app import BenchmarkApp

ROWS = 40

#: No cadence (the tests place the checkpoints) and no shared result
#: cache (every query is persisted afresh).
COSTS = {"checkpoint_interval_seconds": 0.0, "result_cache_entries": 0}


def build_world(costs: CostModel | None = None, phoenix: bool = True):
    server = DatabaseServer(meter=Meter(costs or CostModel(**COSTS)))
    setup = BenchmarkApp(server)
    setup.run_statement("CREATE TABLE src (k INT NOT NULL, v INT, "
                        "PRIMARY KEY (k))")
    setup.run_statement("INSERT INTO src VALUES " + ", ".join(
        f"({k}, {3 * k})" for k in range(ROWS)))
    app = BenchmarkApp(server, use_phoenix=phoenix,
                       phoenix_config=PhoenixConfig(client_cache_rows=0))
    return server, app


def open_result(app, shift: int):
    """A result whose rows exist nowhere else: ``v`` shifted."""
    statement = app.manager.alloc_statement(app.conn)
    assert app.manager.exec_direct(
        statement, f"SELECT k, v + {shift} FROM src ORDER BY k") \
        == SQL_SUCCESS
    return statement


def fetch_rows(app, statement, limit: int = -1) -> int:
    fetched = 0
    while fetched != limit:
        rc, _row = app.manager.fetch(statement)
        if rc == SQL_NO_DATA:
            break
        assert rc == SQL_SUCCESS
        fetched += 1
    return fetched


def persisted_drain(server, app, shift: int) -> list:
    """Persist, drain and free one result; returns the log records that
    loaded its table."""
    tables = set(server.engine.catalog.tables)
    statement = open_result(app, shift)
    [name] = set(server.engine.catalog.tables) - tables
    records = [rec for rec in server.engine.wal.all_records()
               if type(rec) is InsertRecord and rec.table_name == name]
    assert len(records) == ROWS
    assert fetch_rows(app, statement) == ROWS
    assert app.manager.free_statement(statement) == SQL_SUCCESS
    assert name not in server.engine.catalog.tables
    return records


def truncating_checkpoint(server) -> None:
    server.engine.buffer_pool.flush_all()
    server.engine.fuzzy_checkpoint(truncate=True)


def outside_references(objs: list) -> list[int]:
    """References to each of ``objs`` from anywhere but ``objs`` (an
    object only ``objs`` holds reads 0)."""
    objs.append(object())
    counts = [sys.getrefcount(obj) for obj in objs]
    objs.pop()
    return [count - counts[-1] for count in counts[:-1]]


def live_insert_records() -> int:
    gc.collect()
    return sum(1 for obj in gc.get_objects() if type(obj) is InsertRecord)


def test_dropped_result_leaves_no_record_or_row_in_memory():
    server, app = build_world()
    records = persisted_drain(server, app, 1_000_000)
    rows = [rec.row for rec in records]
    last_lsn = records[-1].lsn
    refs = [weakref.ref(rec) for rec in records]
    del records
    truncating_checkpoint(server)
    assert server.engine.wal.truncated_lsn >= last_lsn
    gc.collect()
    assert [ref for ref in refs if ref() is not None] == []
    assert outside_references(rows) == [0] * ROWS
    stats = server.engine.durable_log_stats()
    assert stats["archived_records"] == server.engine.wal.truncated_lsn


def test_live_records_do_not_grow_with_persisted_drains():
    server, app = build_world()
    live = {}
    for round_no in range(1, 7):
        persisted_drain(server, app, 1_000_000 * round_no)
        truncating_checkpoint(server)
        live[round_no] = live_insert_records()
    assert live[6] == live[3]


@pytest.mark.parametrize("phoenix", [False, True],
                         ids=["native", "phoenix"])
def test_freed_statement_is_unreachable(phoenix):
    _server, app = build_world(phoenix=phoenix)
    statement = open_result(app, 7)
    assert fetch_rows(app, statement) == ROWS
    assert app.manager.free_statement(statement) == SQL_SUCCESS
    ref = weakref.ref(statement)
    del statement
    gc.collect()
    assert ref() is None
    assert app.conn.statements == []


@pytest.fixture
def scratch_handles(monkeypatch):
    """Weak references to every handle Phoenix's scratch helper makes."""
    made = []

    class Recorded(StatementHandle):
        def __init__(self, connection):
            super().__init__(connection)
            made.append(weakref.ref(self))

    monkeypatch.setattr(scratch, "StatementHandle", Recorded)
    return made


def assert_all_freed(made: list) -> None:
    gc.collect()
    assert made
    assert [ref() for ref in made if ref() is not None] == []


@pytest.mark.parametrize("costs", [CostModel(**COSTS),
                                   CostModel.paper(**COSTS)],
                         ids=["default", "paper"])
def test_phoenix_scratch_handles_are_freed(scratch_handles, costs):
    server, app = build_world(costs)
    persisted_drain(server, app, 11)
    assert_all_freed(scratch_handles)

    # A session recovery: status probe, reopen on a scratch handle and
    # hand-back of the repositioned result.
    statement = open_result(app, 13)
    assert fetch_rows(app, statement, 5) == 5
    made = len(scratch_handles)
    server.crash()
    server.restart()
    # Another statement notices the crash; recovery reopens both.
    other = open_result(app, 17)
    assert app.manager.stats["recoveries"] == 1
    assert len(scratch_handles) > made
    assert app.conn.statements == [statement, other]
    # The reopen's scratch handles handed their cursors back: the
    # session holds the application's cursors only.
    session = server._sessions[app.conn.session_token]
    assert set(session.results) <= {statement.result.statement_id,
                                    other.result.statement_id}
    assert fetch_rows(app, statement) == ROWS - 5
    assert fetch_rows(app, other) == ROWS
    for handle in (statement, other):
        assert app.manager.free_statement(handle) == SQL_SUCCESS
    del statement, other, handle
    assert_all_freed(scratch_handles)
    assert app.conn.statements == []
