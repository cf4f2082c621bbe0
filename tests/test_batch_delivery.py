"""Results are delivered a wire batch at a time.

Under the default configuration the driver reads each wire batch with
one block-cursor read and serves every SQLFetch from client memory —
for a native result and for a Phoenix persisted one alike, so both
charge the same client CPU a row.  The paper's configuration keeps one
driver SQLFetch per row (plus Phoenix's own per-row work on a persisted
result).  Rows the driver holds in client memory survive a crash, so
recovery repositions the reopened table past them — no row is delivered
twice or skipped.
"""

from collections import Counter

import pytest

from repro.odbc.constants import (
    SQL_ATTR_CURSOR_TYPE,
    SQL_CURSOR_STATIC,
    SQL_FETCH_ABSOLUTE,
    SQL_FETCH_PRIOR,
    SQL_FETCH_RELATIVE,
    SQL_NO_DATA,
    SQL_SUCCESS,
)
from repro.phoenix.config import PhoenixConfig
from repro.server.server import DatabaseServer
from repro.sim.costs import CostModel
from repro.sim.meter import Meter
from repro.workloads.app import BenchmarkApp

ROWS = 300
SQL = "SELECT k, pad FROM big ORDER BY k"
EXPECTED = [(k, f"pad-{k:04d}") for k in range(ROWS)]


def build_world(costs: CostModel, reposition_mode: str = "client",
                cache_rows: int = 0, phoenix: bool = True):
    server = DatabaseServer(meter=Meter(costs))
    setup = BenchmarkApp(server)
    setup.run_statement("CREATE TABLE big (k INT NOT NULL, "
                        "pad VARCHAR(40), PRIMARY KEY (k))")
    setup.run_statement("INSERT INTO big VALUES " + ", ".join(
        f"({k}, 'pad-{k:04d}')" for k in range(ROWS)))
    app = BenchmarkApp(server, use_phoenix=phoenix,
                       phoenix_config=PhoenixConfig(
                           client_cache_rows=cache_rows,
                           reposition_mode=reposition_mode))
    return server, app


def rows_held(app, statement) -> int:
    """Rows the driver holds block-read in client memory."""
    return app.manager.driver.rows_held(statement)


def open_result(app, sql: str = SQL):
    statement = app.manager.alloc_statement(app.conn)
    assert app.manager.exec_direct(statement, sql) == SQL_SUCCESS
    return statement


def fetch_rows(app, statement, count: int | None = None) -> list:
    rows = []
    while count is None or len(rows) < count:
        rc, row = app.manager.fetch(statement)
        if rc == SQL_NO_DATA:
            break
        assert rc == SQL_SUCCESS, app.manager.get_diag(statement)
        rows.append(row)
    return rows


def recorded_drain(app):
    """Open and drain :data:`SQL`; returns its rows, the segments the
    drain charged and the FetchRequests the result took (the reopen
    already issues fetch-ahead)."""
    meter = app.meter
    fetches = meter.counters.get("net.requests.FetchRequest", 0)
    statement = open_result(app)
    sink = meter.push_recorder()
    rows = fetch_rows(app, statement)
    meter.pop_recorder(sink)
    sent = meter.counters.get("net.requests.FetchRequest", 0) - fetches
    return rows, sink, sent


DRAINS = pytest.mark.parametrize("phoenix", [True, False],
                                 ids=["phoenix", "native"])


@DRAINS
def test_default_delivery_reads_one_block_per_wire_batch(phoenix):
    _server, app = build_world(CostModel(), phoenix=phoenix)
    rows, segments, fetch_requests = recorded_drain(app)
    assert rows == EXPECTED
    notes = Counter(segment.note for segment in segments)
    # No driver SQLFetch per row: the first block read takes the batch
    # the execute's response carried, one more per FetchRequest, and a
    # last one finds the result consumed.  Each batch is served from
    # memory (one batched charge per batch).
    assert notes["SQLFetch"] == notes["persisted fetch extra"] == 0
    assert fetch_requests > 1
    assert notes["batch fetch"] == fetch_requests + 1
    assert notes["block cursor read"] == fetch_requests + 2
    # The same client CPU a row whether Phoenix persisted the result or
    # not: one block read per wire batch, cache_fetch_seconds a row.
    costs = app.meter.costs
    client = sum(s.seconds for s in segments
                 if s.note in ("batch fetch", "block cursor read"))
    assert client == pytest.approx(
        ROWS * (costs.cache_fetch_seconds
                + costs.cache_block_read_per_row_seconds)
        + costs.cache_block_read_per_row_seconds)


@DRAINS
def test_paper_delivery_is_one_driver_fetch_per_row(phoenix):
    _server, app = build_world(CostModel.paper(), phoenix=phoenix)
    rows, segments, _sent = recorded_drain(app)
    assert rows == EXPECTED
    notes = Counter(segment.note for segment in segments)
    assert notes["SQLFetch"] == ROWS + 1
    assert notes["persisted fetch extra"] == (ROWS + 1 if phoenix else 0)
    assert notes["block cursor read"] == notes["batch fetch"] == 0
    # §3.5: 3.80 ms a native row, 3.97 ms a persisted one.
    per_row = 0.00397 if phoenix else 0.00380
    client = sum(s.seconds for s in segments
                 if s.note in ("SQLFetch", "persisted fetch extra"))
    assert client == pytest.approx((ROWS + 1) * per_row)


def test_default_drain_is_cheaper_on_the_clock_than_per_row():
    def drain_seconds(costs):
        _server, app = build_world(costs)
        statement = open_result(app)
        start = app.meter.now
        assert fetch_rows(app, statement) == EXPECTED
        return app.meter.now - start

    per_row = drain_seconds(CostModel(fetch_batch_max_bytes=0))
    batched = drain_seconds(CostModel())
    costs = CostModel()
    saved = costs.client_fetch_seconds + costs.persisted_fetch_extra_seconds \
        - costs.cache_fetch_seconds - costs.cache_block_read_per_row_seconds
    assert batched < per_row - 0.9 * ROWS * saved


@pytest.mark.parametrize("mode", ["client", "server"])
def test_batch_in_memory_survives_a_crash_recovered_by_another_statement(
        mode):
    """A crash noticed by another statement on the connection while the
    driver still holds block-read rows in client memory: recovery
    reopens the table past them, and they keep being served from
    memory."""
    server, app = build_world(CostModel(), reposition_mode=mode)
    statement = open_result(app)
    head = fetch_rows(app, statement, 3)
    in_memory = rows_held(app, statement)
    assert in_memory > 0
    server.crash()
    server.restart()
    other = open_result(app, "SELECT count(*) FROM big")
    assert fetch_rows(app, other) == [(ROWS,)]
    assert app.manager.stats["recoveries"] == 1
    assert rows_held(app, statement) == in_memory
    sent = app.network.requests_sent
    middle = fetch_rows(app, statement, in_memory)
    assert app.network.requests_sent == sent
    tail = fetch_rows(app, statement)
    assert head + middle + tail == EXPECTED


def test_crash_between_batches_is_masked():
    server, app = build_world(CostModel())
    statement = open_result(app)
    rows = []
    while True:
        if not rows_held(app, statement) and rows:
            # The next fetch must go back to the server.
            server.crash()
            server.restart()
        rc, row = app.manager.fetch(statement)
        if rc == SQL_NO_DATA:
            break
        assert rc == SQL_SUCCESS
        rows.append(row)
    assert rows == EXPECTED
    assert app.manager.stats["recoveries"] > 1


def test_block_fetch_and_scroll_continue_from_the_batch():
    _server, app = build_world(CostModel())
    manager = app.manager
    statement = open_result(app)
    assert fetch_rows(app, statement, 2) == EXPECTED[:2]
    rc, block = manager.fetch_block(statement, 5)
    assert rc == SQL_SUCCESS and block == EXPECTED[2:7]
    assert rows_held(app, statement), \
        "the block came out of the rows held in memory"
    # Forward inside the batch: from memory (the first scroll counts
    # the result once), no request.
    assert manager.fetch_scroll(statement, SQL_FETCH_RELATIVE, 1)[1] \
        == EXPECTED[7]
    sent = app.network.requests_sent
    assert manager.fetch_scroll(statement, SQL_FETCH_RELATIVE, 1)[1] \
        == EXPECTED[8]
    assert app.network.requests_sent == sent
    # Past it (a skip through the held rows, then a server-side
    # advance) and behind it (a reopen): through the server-side cursor.
    assert rows_held(app, statement)
    assert manager.fetch_scroll(statement, SQL_FETCH_ABSOLUTE, 200)[1] \
        == EXPECTED[199]
    assert manager.fetch_scroll(statement, SQL_FETCH_PRIOR)[1] \
        == EXPECTED[198]
    assert fetch_rows(app, statement, 3) == EXPECTED[199:202]
    rc, block = manager.fetch_block(statement, 1000)
    assert rc == SQL_SUCCESS and block == EXPECTED[202:]


@pytest.mark.parametrize("mode", ["client", "server"])
def test_crash_inside_a_backward_scroll_is_masked(mode):
    """A crash at any request of a backward scroll — the reopen, its
    repositioning, the row — while the driver holds rows of the old
    position: the cursor still lands on its target, and delivery goes
    on from there."""
    crash_at = 1
    while True:
        server, app = build_world(CostModel(), reposition_mode=mode)
        statement = open_result(app)
        assert fetch_rows(app, statement, 200) == EXPECTED[:200]
        assert rows_held(app, statement)
        sent = []

        def injector(request):
            sent.append(request)
            if len(sent) == crash_at:
                server.crash()
                server.restart()

        app.network.fault_injector = injector
        rc, row = app.manager.fetch_scroll(statement, SQL_FETCH_ABSOLUTE,
                                           100)
        app.network.fault_injector = None
        assert (rc, row) == (SQL_SUCCESS, EXPECTED[99]), crash_at
        assert fetch_rows(app, statement) == EXPECTED[100:], crash_at
        if len(sent) < crash_at:
            break  # no crash fired: every request boundary was covered
        crash_at += 1


@pytest.mark.parametrize("phoenix,cache_rows", [
    (False, 0), (True, 0), (True, 1000)])
def test_static_cursor_block_read_returns_its_rows(phoenix, cache_rows):
    """A static cursor materializes its result at execute; a block read
    must serve it from there (it used to find the wire buffer drained
    and report SQL_NO_DATA — Phoenix's client cache then cached an
    empty result)."""
    server, _app = build_world(CostModel())
    app = BenchmarkApp(server, use_phoenix=phoenix,
                       phoenix_config=PhoenixConfig(
                           client_cache_rows=cache_rows))
    manager = app.manager
    statement = manager.alloc_statement(app.conn)
    manager.set_stmt_attr(statement, SQL_ATTR_CURSOR_TYPE,
                          SQL_CURSOR_STATIC)
    assert manager.exec_direct(statement, SQL) == SQL_SUCCESS
    rc, block = manager.fetch_block(statement, 10)
    assert rc == SQL_SUCCESS and block == EXPECTED[:10]
    assert fetch_rows(app, statement) == EXPECTED[10:]
