"""Pipelined result delivery: fetch-ahead, adaptive batching, overlap.

The contract under test (DESIGN.md "Result delivery pipeline"):

* with every option at 0 the wire behaviour is bit-identical to the
  stop-and-wait delivery of ``CostModel.paper()``;
* with options on — one at a time over the paper's delivery, or all of
  them as ``CostModel()`` ships them — the application observes
  *exactly* the same rows in the same order, at a lower (never higher)
  virtual clock and with fewer fetch round trips;
* prefetched-but-undelivered rows never advance ``position``, survive
  interleaved scrolling/advancing exactly once, and are discarded (not
  delivered) when the server incarnation that produced them dies.
"""

import pytest

from repro.errors import ConnectionLostError
from repro.odbc.constants import (
    SQL_ATTR_CURSOR_TYPE,
    SQL_CURSOR_STATIC,
    SQL_FETCH_PRIOR,
    SQL_SUCCESS,
)
from repro.odbc.driver import NativeDriver
from repro.odbc.handles import (
    ConnectionHandle,
    EnvironmentHandle,
    StatementHandle,
)
from repro.phoenix.config import PhoenixConfig
from repro.server.network import SimulatedNetwork
from repro.server.server import DatabaseServer
from repro.sim.costs import NETWORK, CostModel
from repro.sim.meter import Meter
from repro.workloads.app import BenchmarkApp

ROWS = 400


def build_world(costs: CostModel | None = None, **paper_overrides):
    """A populated single-table world reached through the raw driver:
    under ``costs``, or the paper's stop-and-wait delivery plus the
    options a test turns on."""
    meter = Meter(costs or CostModel.paper(**paper_overrides))
    server = DatabaseServer(meter=meter)
    network = SimulatedNetwork(meter)
    driver = NativeDriver(server, network, meter)
    env = EnvironmentHandle()
    conn = ConnectionHandle(env)
    driver.connect(conn, "app")
    setup = StatementHandle(conn)
    driver.execute(setup, "CREATE TABLE t (a INTEGER, b VARCHAR(40))")
    for i in range(ROWS):
        driver.execute(setup, f"INSERT INTO t VALUES ({i}, 'row-{i}')")
    meter.reset_traces()
    network.requests_sent = 0
    return meter, network, driver, conn


def drain(driver, conn, sql="SELECT a, b FROM t ORDER BY a"):
    statement = StatementHandle(conn)
    driver.execute(statement, sql)
    rows = []
    while True:
        row = driver.fetch_one(statement)
        if row is None:
            break
        rows.append(row)
    driver.close_statement(statement)
    return rows


# -- forward-drain equivalence -------------------------------------------------


def test_fetch_ahead_rows_identical_and_clock_lower():
    m0, n0, d0, c0 = build_world()
    t0 = m0.now
    rows0 = drain(d0, c0)
    seed_clock = m0.now - t0

    m1, n1, d1, c1 = build_world(fetch_ahead_depth=2)
    t1 = m1.now
    rows1 = drain(d1, c1)
    pf_clock = m1.now - t1

    assert rows1 == rows0
    assert len(rows0) == ROWS
    assert pf_clock < seed_clock
    assert m1.counters["prefetch_hits"] > 0
    assert m1.counters["prefetch_overlap_seconds"] > 0
    # Fetch-ahead reorders *when* round trips happen, not how many.
    assert n1.requests_sent == n0.requests_sent


def test_adaptive_batching_cuts_fetch_round_trips():
    """The drain gate: at least a fifth fewer fetch round trips than
    stop-and-wait, the same rows, a lower clock — with the three
    options added to the paper's delivery, and as ``CostModel()`` ships
    them."""
    m0, n0, d0, c0 = build_world()
    t0 = m0.now
    rows0 = drain(d0, c0)
    seed_clock = m0.now - t0
    fetches0 = m0.counters["net.requests.FetchRequest"]
    assert fetches0 > 0

    for pipelined in (
            CostModel.paper(fetch_ahead_depth=2, fetch_batch_max_bytes=8192,
                            output_buffer_max_bytes=256 * 1024),
            CostModel()):
        m1, n1, d1, c1 = build_world(pipelined)
        t1 = m1.now
        rows1 = drain(d1, c1)
        fetches1 = m1.counters["net.requests.FetchRequest"]

        assert rows1 == rows0
        assert fetches1 <= 0.8 * fetches0, (
            f"adaptive batching cut fetch round trips only "
            f"{fetches0} -> {fetches1}")
        assert n1.requests_sent < n0.requests_sent
        assert m1.now - t1 < seed_clock
        assert m1.counters["prefetch_hits"] > 0


def test_depth_zero_is_wire_identical_to_seed():
    """The delivery options at 0 are the paper's delivery: same
    requests, same virtual clock."""
    m0, n0, d0, c0 = build_world()
    t0 = m0.now
    rows0 = drain(d0, c0)
    seed_clock = m0.now - t0
    seed_counters = dict(m0.counters)

    m1, n1, d1, c1 = build_world(fetch_ahead_depth=0,
                                 fetch_batch_max_bytes=0,
                                 output_buffer_max_bytes=0,
                                 persist_pipeline=False)
    t1 = m1.now
    rows1 = drain(d1, c1)

    assert rows1 == rows0
    assert m1.now - t1 == seed_clock
    assert dict(m1.counters) == seed_counters
    assert "prefetch_issued" not in m1.counters


# -- position / advance semantics ---------------------------------------------


def test_prefetched_rows_do_not_advance_position():
    meter, network, driver, conn = build_world(fetch_ahead_depth=2)
    statement = StatementHandle(conn)
    driver.execute(statement, "SELECT a, b FROM t ORDER BY a")
    result = statement.result
    delivered = 0
    while result.prefetch == [] and delivered < ROWS:
        driver.fetch_one(statement)
        delivered += 1
    assert result.prefetch, "fetch-ahead never went in flight"
    in_flight_rows = sum(len(e.response.rows) for e in result.prefetch)
    assert in_flight_rows > 0
    assert result.position == delivered
    driver.close_statement(statement)
    assert meter.counters["prefetch_wasted"] == \
        meter.counters["prefetch_issued"] - meter.counters.get(
            "prefetch_hits", 0)


def test_advance_clamps_on_fully_buffered_result():
    """Satellite fix: a result with no server-side remainder skips only
    what the client buffer holds, and ``position`` tracks reality."""
    meter, network, driver, conn = build_world()
    statement = StatementHandle(conn)
    # Single-batch result: the stream is exhausted, everything
    # client-side — a remote AdvanceRequest would have nothing to skip.
    driver.execute(statement, "SELECT a FROM t WHERE a < 5 ORDER BY a")
    result = statement.result
    assert result.done
    before = network.requests_sent
    skipped = driver.advance(statement, 50)
    assert skipped == 5
    assert result.position == 5
    assert network.requests_sent == before  # no remote round trip
    assert driver.fetch_one(statement) is None


def test_advance_consumes_in_flight_batches_exactly_once():
    meter, network, driver, conn = build_world(fetch_ahead_depth=2)
    statement = StatementHandle(conn)
    driver.execute(statement, "SELECT a, b FROM t ORDER BY a")
    result = statement.result
    # Drain into prefetch territory, then skip across the in-flight
    # batches: the landing row must be exactly first-row + delivered +
    # skipped, proving in-flight rows were neither lost nor re-shipped.
    delivered = 0
    while not result.prefetch:
        driver.fetch_one(statement)
        delivered += 1
    skip = sum(len(e.response.rows) for e in result.prefetch) + 3
    skipped = driver.advance(statement, skip)
    assert skipped == skip
    row = driver.fetch_one(statement)
    assert row[0] == delivered + skip
    driver.close_statement(statement)


# -- crash semantics ----------------------------------------------------------


def test_crash_discards_in_flight_batches():
    meter, network, driver, conn = build_world(fetch_ahead_depth=2)
    statement = StatementHandle(conn)
    driver.execute(statement, "SELECT a, b FROM t ORDER BY a")
    result = statement.result
    seen = []
    while not result.prefetch:
        seen.append(driver.fetch_one(statement))
    in_flight = len(result.prefetch)
    assert in_flight > 0
    driver.server.crash()
    driver.server.restart()
    # Client-buffered rows are still client property and deliver fine;
    # the in-flight batches died with the old incarnation.
    while result.buffered:
        seen.append(driver.fetch_one(statement))
    with pytest.raises(ConnectionLostError):
        driver.fetch_one(statement)
    assert meter.counters["prefetch_wasted"] == in_flight
    assert result.prefetch == []
    assert seen == sorted(seen)
    assert len(seen) == len(set(seen))
    assert result.position == len(seen)


# -- cursors ------------------------------------------------------------------


def test_static_cursor_materialize_consumes_prefetch_exactly_once():
    m0, _n0, d0, c0 = build_world()
    s0 = StatementHandle(c0)
    s0.attrs[SQL_ATTR_CURSOR_TYPE] = SQL_CURSOR_STATIC
    d0.execute(s0, "SELECT a, b FROM t ORDER BY a")
    seed_rows = list(s0.result.static_rows)

    m1, _n1, d1, c1 = build_world(fetch_ahead_depth=3)
    s1 = StatementHandle(c1)
    s1.attrs[SQL_ATTR_CURSOR_TYPE] = SQL_CURSOR_STATIC
    d1.execute(s1, "SELECT a, b FROM t ORDER BY a")
    result = s1.result

    assert result.static_rows == seed_rows
    assert len(result.static_rows) == ROWS
    assert result.prefetch == [], "materialize left a batch in flight"
    assert m1.counters["prefetch_hits"] > 0
    assert m1.counters.get("prefetch_wasted", 0) == 0


def test_fetch_prior_after_prefetch_does_not_double_charge():
    meter, network, driver, conn = build_world(fetch_ahead_depth=2)
    statement = StatementHandle(conn)
    statement.attrs[SQL_ATTR_CURSOR_TYPE] = SQL_CURSOR_STATIC
    driver.execute(statement, "SELECT a, b FROM t ORDER BY a")
    first = driver.fetch_one(statement)
    second = driver.fetch_one(statement)
    assert (first[0], second[0]) == (0, 1)
    requests_before = network.requests_sent
    clock_before = meter.now
    row = driver.fetch_scroll(statement, SQL_FETCH_PRIOR)
    assert row == first
    # Scrolling a materialized cursor is pure client CPU: exactly one
    # SQLFetchScroll charge, no wire traffic, no re-realized prefetch.
    assert meter.now - clock_before == pytest.approx(
        meter.costs.client_fetch_seconds)
    assert network.requests_sent == requests_before


# -- adaptive output buffer ---------------------------------------------------


def test_adaptive_output_buffer_grows_refill():
    small = 256
    m0, _n0, d0, c0 = build_world(output_buffer_bytes=small)
    rows0 = drain(d0, c0)
    fetches0 = m0.counters["net.requests.FetchRequest"]

    m1, _n1, d1, c1 = build_world(output_buffer_bytes=small,
                                  output_buffer_max_bytes=64 * 1024)
    rows1 = drain(d1, c1)
    fetches1 = m1.counters["net.requests.FetchRequest"]

    assert rows1 == rows0
    # A grown refill target keeps the buffer ahead of the default wire
    # batch, so the count of suspensions/refills must not rise; the
    # visible round-trip win comes from pairing it with bigger wire
    # batches.
    assert fetches1 <= fetches0
    m2, _n2, d2, c2 = build_world(output_buffer_bytes=small,
                                  output_buffer_max_bytes=64 * 1024,
                                  fetch_batch_max_bytes=8192)
    rows2 = drain(d2, c2)
    assert rows2 == rows0
    assert m2.counters["net.requests.FetchRequest"] < fetches0


# -- phoenix persist pipelining ----------------------------------------------


def _phoenix_persist_world(**paper_overrides):
    costs = CostModel.paper(**paper_overrides)
    server = DatabaseServer(meter=Meter(costs))
    setup = BenchmarkApp(server)
    setup.run_statement("CREATE TABLE big (k INT NOT NULL, pad "
                        "VARCHAR(60), PRIMARY KEY (k))")
    for i in range(60):
        setup.run_statement(f"INSERT INTO big VALUES ({i}, 'p-{i}')")
    app = BenchmarkApp(server, use_phoenix=True,
                       phoenix_config=PhoenixConfig(client_cache_rows=0))
    server.meter.reset_traces()
    return server, app


def _persisted_drain(app):
    """Persist and drain one result; returns the rows, the requests and
    ExecuteRequests sent before the first fetch, and the virtual
    seconds of the whole drain."""
    manager = app.manager
    counters = app.meter.counters
    start, sent = app.meter.now, app.network.requests_sent
    executes = counters.get("net.requests.ExecuteRequest", 0)
    statement = manager.alloc_statement(app.conn)
    assert manager.exec_direct(statement, "SELECT k, pad FROM big "
                                          "ORDER BY k") == SQL_SUCCESS
    persist = (app.network.requests_sent - sent,
               counters["net.requests.ExecuteRequest"] - executes)
    rows = []
    while True:
        rc, row = manager.fetch(statement)
        if rc != SQL_SUCCESS:
            break
        rows.append(row)
    return rows, persist, app.meter.now - start


def test_persist_pipeline_same_rows_lower_clock():
    """The persist as one script exchange: the same rows as the paper's
    four-step recipe, one request before the first fetch instead of the
    recipe's ten, and a lower clock — the procedure, the probe and the
    round trips are what it saves."""
    _server0, app0 = _phoenix_persist_world()
    rows0, (sent0, executes0), seed_clock = _persisted_drain(app0)

    _server1, app1 = _phoenix_persist_world(persist_pipeline=True)
    rows1, (sent1, executes1), script_clock = _persisted_drain(app1)

    assert rows1 == rows0 and len(rows0) == 60
    assert (sent1, executes1) == (1, 1)
    assert executes0 == 10 and sent1 < sent0
    assert app1.manager.persist_step_seconds.keys() == {"script"}
    saved = seed_clock - script_clock
    assert saved > app0.meter.costs.cpu_create_procedure_seconds


def test_tracked_mix_pipelined_never_sends_more_requests():
    """The mix gate: the tracked TPC-C mix under the default delivery
    sends no more requests than under the paper's stop-and-wait chain,
    finishes at a lower clock and reads the same rows."""
    from repro.bench.experiments import run_tracked_mix

    serial = run_tracked_mix(fetch_ahead_depth=0, fetch_batch_max_bytes=0,
                             output_buffer_max_bytes=0,
                             persist_pipeline=False)
    pipelined = run_tracked_mix()
    assert pipelined.rows_digest == serial.rows_digest
    assert pipelined.counters["net.requests_sent"] \
        <= serial.counters["net.requests_sent"]
    assert pipelined.virtual_seconds < serial.virtual_seconds
    # The mix's persisted results and wrapped updates went as scripts.
    assert pipelined.counters["net.requests.ExecuteRequest"] \
        < serial.counters["net.requests.ExecuteRequest"]


# -- observability ------------------------------------------------------------


def test_sys_network_view_reports_round_trip_ledger():
    server, app = _phoenix_persist_world(persist_pipeline=True,
                                         fetch_ahead_depth=2)
    app.query_rows("SELECT k, pad FROM big ORDER BY k")
    executes = server.meter.counters["net.requests.ExecuteRequest"]
    rows = app.query_rows("SELECT metric, value FROM sys_network")
    ledger = dict(rows)
    assert ledger["net.requests_sent"] > 0
    assert ledger["net.wire_bytes_up"] > 0
    assert ledger["net.wire_bytes_down"] > 0
    # The view query is itself persisted, and the view was read inside
    # its one script exchange: the only ExecuteRequest since.
    assert ledger["net.requests.ExecuteRequest"] == executes + 1
    assert ledger["net.bytes_down.ExecuteRequest"] > 0
    assert ledger["prefetch_issued"] > 0
    assert all(name.startswith(("net.", "prefetch_", "pipeline_"))
               for name in ledger)
    # The view reads the same counters the network mirrors into the
    # metrics registry (satellite: requests_sent is now observable) —
    # modulo the requests the two view queries themselves sent.
    assert ledger["net.requests_sent"] <= app.network.requests_sent


def test_overlap_window_records_without_clocking():
    meter = Meter(CostModel())
    with meter.request("r") as trace:
        meter.charge(NETWORK, 1.0, "before")
        meter.begin_overlap()
        meter.charge(NETWORK, 5.0, "inside")
        service = meter.end_overlap()
        meter.charge(NETWORK, 0.5, "after")
    assert service == 5.0
    assert meter.clock.now == 1.5
    # Suppressed segments stay out of the request trace (the caller
    # charges the unoverlapped remainder itself); a charge is no counter.
    assert [s.note for s in trace.segments] == ["before", "after"]
    assert meter.counters == {}
    with pytest.raises(ValueError):
        meter.begin_overlap()
        try:
            meter.begin_overlap()
        finally:
            meter.end_overlap()
