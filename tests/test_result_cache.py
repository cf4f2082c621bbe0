"""The transaction-consistent shared result cache (driver-manager level).

One cache per simulated world, shared across every virtual session:
entries carry the read set of their statement, are invalidated by the
committed writes every response piggybacks, and are revalidated after a
crash with a single version probe.  The contracts under test (the
key-precise side of invalidation has its own file,
``test_result_cache_read_sets.py``):

* a hit costs **zero** protocol requests — rows are served from client
  memory and delivery never consults any server-side result position;
* a committed write invalidates the entries that read what it wrote for
  *all* sessions of the world (the multi-session torture case);
* statements inside an application transaction bypass the shared cache
  and their results stay invisible to lookups until COMMIT promotes
  them; ROLLBACK discards them;
* entries survive a server crash (revalidated against the
  WAL-recomputed version vector: every acknowledged commit is durable,
  so equal version counts name the same data);
* with ``result_cache_entries`` 0 the cache does not exist: no probes,
  no counters.
"""

import pytest

from repro.odbc.constants import (
    SQL_FETCH_NEXT,
    SQL_FETCH_PRIOR,
    SQL_NO_DATA,
    SQL_SUCCESS,
)
from repro.phoenix.config import PhoenixConfig
from repro.phoenix.result_cache import SharedResultCache, normalize_key
from repro.server.server import DatabaseServer
from repro.sim.costs import CostModel
from repro.sim.meter import Meter
from repro.workloads.app import BenchmarkApp


def build_world(capacity: int = 64):
    meter = Meter(CostModel(result_cache_entries=capacity))
    server = DatabaseServer(meter=meter)
    setup = BenchmarkApp(server)
    setup.run_statement("CREATE TABLE t (id INT NOT NULL, v INT, "
                        "PRIMARY KEY (id))")
    setup.run_statement("INSERT INTO t VALUES " + ", ".join(
        f"({i}, {i * 10})" for i in range(8)))
    return meter, server


def phoenix_app(server, cache_rows: int = 100) -> BenchmarkApp:
    return BenchmarkApp(server, use_phoenix=True,
                        phoenix_config=PhoenixConfig(
                            client_cache_rows=cache_rows))


#: The read set of a statement that read its table wholesale.
WHOLE = ((),)


def requests(meter) -> int:
    return int(meter.counters.get("net.requests_sent", 0))


def hits(meter) -> int:
    return int(meter.counters.get("result_cache.hits", 0))


# ---------------------------------------------------------------------------
# The hit path: zero requests, no server-side cursor state
# ---------------------------------------------------------------------------


def test_hit_serves_rows_with_zero_protocol_requests():
    meter, server = build_world()
    app = phoenix_app(server)
    first = app.query_rows("SELECT id, v FROM t ORDER BY id")
    before = requests(meter)
    again = app.query_rows("SELECT id, v FROM t ORDER BY id")
    assert requests(meter) == before, (
        "a shared-cache hit must not send a single protocol request")
    assert again == first
    assert hits(meter) == 1
    assert app.manager.stats["shared_cache_hits"] == 1


def test_hit_never_consults_server_side_position():
    """Cache-served delivery is pure client memory: no FetchRequest, no
    AdvanceRequest, and no open server result set exists to be moved."""
    meter, server = build_world()
    app = phoenix_app(server)
    app.query_rows("SELECT id, v FROM t ORDER BY id")

    stmt = app.manager.alloc_statement(app.conn)
    assert app.manager.exec_direct(
        stmt, "SELECT id, v FROM t ORDER BY id") == SQL_SUCCESS
    before = requests(meter)
    fetch_kinds = {k: v for k, v in meter.counters.items()
                   if k in ("net.requests.FetchRequest",
                            "net.requests.AdvanceRequest")}
    rows = []
    while True:
        rc, row = app.manager.fetch(stmt)
        if rc != SQL_SUCCESS:
            break
        rows.append(row)
    assert rows == [(i, i * 10) for i in range(8)]
    assert requests(meter) == before
    assert {k: v for k, v in meter.counters.items()
            if k in ("net.requests.FetchRequest",
                     "net.requests.AdvanceRequest")} == fetch_kinds
    # No server-side result set was ever opened for the hit, so there is
    # no position anything could have consulted.
    assert all(not s.results for s in server._sessions.values())


def test_fetch_prior_on_cache_served_cursor_charges_once():
    """FETCH_PRIOR on a cache-served static cursor is one client-memory
    charge — never a reopen/advance, never a double charge."""
    meter, server = build_world()
    app = phoenix_app(server)
    app.query_rows("SELECT id, v FROM t ORDER BY id")

    stmt = app.manager.alloc_statement(app.conn)
    assert app.manager.exec_direct(
        stmt, "SELECT id, v FROM t ORDER BY id") == SQL_SUCCESS
    assert app.manager.fetch_scroll(stmt, SQL_FETCH_NEXT)[1] == (0, 0)
    assert app.manager.fetch_scroll(stmt, SQL_FETCH_NEXT)[1] == (1, 10)
    before_clock = meter.now
    before_reqs = requests(meter)
    rc, row = app.manager.fetch_scroll(stmt, SQL_FETCH_PRIOR)
    assert (rc, row) == (SQL_SUCCESS, (0, 0))
    assert requests(meter) == before_reqs
    # rel tolerance only absorbs float-subtraction noise on the clock
    # reads — a double charge (2x) would be far outside it.
    assert meter.now - before_clock == pytest.approx(
        meter.costs.cache_fetch_seconds, rel=1e-6), (
        "FETCH_PRIOR on a cache-served cursor must cost exactly one "
        "cache_fetch charge")


# ---------------------------------------------------------------------------
# Invalidation: committed writes, all sessions
# ---------------------------------------------------------------------------


def test_committed_write_invalidates_between_two_readers_hits():
    """The torture case: reader A hits, a writer session commits an
    update to the read table, reader B must miss and see the new value."""
    meter, server = build_world()
    reader_a = phoenix_app(server)
    reader_b = phoenix_app(server)
    writer = phoenix_app(server)
    sql = "SELECT v FROM t WHERE id = 5"

    assert reader_a.query_rows(sql) == [(50,)]      # miss, admits
    assert reader_b.query_rows(sql) == [(50,)]      # hit (shared!)
    assert hits(meter) == 1

    writer.run_statement("UPDATE t SET v = 5151 WHERE id = 5")

    assert reader_b.query_rows(sql) == [(5151,)], (
        "reader served a stale cached value after a committed write")
    assert reader_a.query_rows(sql) == [(5151,)]    # re-admitted -> hit
    assert int(meter.counters.get("result_cache.invalidations", 0)) >= 1
    assert int(meter.counters.get("result_cache.invalidations.t", 0)) >= 1


def test_unrelated_table_survives_invalidation():
    meter, server = build_world()
    app = phoenix_app(server)
    setup = BenchmarkApp(server)
    setup.run_statement("CREATE TABLE other (k INT NOT NULL, "
                        "PRIMARY KEY (k))")
    setup.run_statement("INSERT INTO other VALUES (1), (2)")
    app.query_rows("SELECT k FROM other ORDER BY k")
    app.query_rows("SELECT v FROM t WHERE id = 1")
    app.run_statement("UPDATE t SET v = 0 WHERE id = 1")
    before = requests(meter)
    assert app.query_rows("SELECT k FROM other ORDER BY k") == [(1,), (2,)]
    assert requests(meter) == before, (
        "a write to t must not evict entries stamped only with other")


# ---------------------------------------------------------------------------
# Application transactions: bypass, staging, promote, rollback
# ---------------------------------------------------------------------------


def test_in_transaction_reads_bypass_cache_and_see_own_writes():
    meter, server = build_world()
    reader = phoenix_app(server)
    writer = phoenix_app(server)
    sql = "SELECT v FROM t WHERE id = 2"
    assert reader.query_rows(sql) == [(20,)]        # admits

    stmt = writer.manager.alloc_statement(writer.conn)
    writer.manager.exec_direct(stmt, "BEGIN TRANSACTION")
    writer.run_statement("UPDATE t SET v = 2222 WHERE id = 2")
    # Read-your-writes: the writer must see its own uncommitted value,
    # not the (still valid for everyone else) cached one.
    assert writer.query_rows(sql) == [(2222,)]
    # The uncommitted write invalidates nothing: the reader still hits
    # the pre-write value (it serializes before the writer's commit).
    before = requests(meter)
    assert reader.query_rows(sql) == [(20,)]
    assert requests(meter) == before

    writer.manager.exec_direct(stmt, "COMMIT")
    assert reader.query_rows(sql) == [(2222,)], (
        "reader saw a stale value after the writer committed")


def test_staged_result_promotes_at_commit():
    meter, server = build_world()
    app = phoenix_app(server)
    stmt = app.manager.alloc_statement(app.conn)
    app.manager.exec_direct(stmt, "BEGIN TRANSACTION")
    assert app.query_rows("SELECT v FROM t WHERE id = 6") == [(60,)]
    assert app.manager.stats["shared_cache_staged"] == 1
    assert hits(meter) == 0
    app.manager.exec_direct(stmt, "COMMIT")
    before = requests(meter)
    assert app.query_rows("SELECT v FROM t WHERE id = 6") == [(60,)]
    assert requests(meter) == before, (
        "the staged entry should have been promoted at COMMIT")
    assert hits(meter) == 1


def test_staged_result_dropped_when_txn_writes_its_read_table():
    """A transaction that reads then writes the same table must not
    publish the (possibly pre-write) staged read at COMMIT."""
    meter, server = build_world()
    app = phoenix_app(server)
    stmt = app.manager.alloc_statement(app.conn)
    app.manager.exec_direct(stmt, "BEGIN TRANSACTION")
    assert app.query_rows("SELECT v FROM t WHERE id = 7") == [(70,)]
    app.run_statement("UPDATE t SET v = 7777 WHERE id = 7")
    app.manager.exec_direct(stmt, "COMMIT")
    assert app.query_rows("SELECT v FROM t WHERE id = 7") == [(7777,)], (
        "COMMIT promoted a staged read the same transaction overwrote")


def test_rollback_discards_staged_results():
    meter, server = build_world()
    app = phoenix_app(server)
    stmt = app.manager.alloc_statement(app.conn)
    app.manager.exec_direct(stmt, "BEGIN TRANSACTION")
    app.query_rows("SELECT v FROM t WHERE id = 3")
    app.manager.exec_direct(stmt, "ROLLBACK")
    before = requests(meter)
    app.query_rows("SELECT v FROM t WHERE id = 3")
    assert requests(meter) > before, (
        "a rolled-back transaction's staged result must not be served")
    assert hits(meter) == 0


# ---------------------------------------------------------------------------
# Crash epochs: entries survive, staged results do not
# ---------------------------------------------------------------------------


def test_entries_survive_crash_under_synchronous_commit():
    meter, server = build_world()
    app = phoenix_app(server)
    sql = "SELECT id, v FROM t ORDER BY id"
    expected = app.query_rows(sql)
    server.crash()
    server.restart()
    before = hits(meter)
    assert app.query_rows(sql) == expected
    assert hits(meter) == before + 1, (
        "an entry must survive the crash via revalidation")
    assert int(meter.counters.get("net.requests.VersionProbeRequest",
                                  0)) >= 1


def test_crash_during_open_transaction_discards_staged():
    meter, server = build_world()
    app = phoenix_app(server)
    stmt = app.manager.alloc_statement(app.conn)
    app.manager.exec_direct(stmt, "BEGIN TRANSACTION")
    app.query_rows("SELECT v FROM t WHERE id = 1")
    assert app.manager.stats["shared_cache_staged"] == 1
    server.crash()
    server.restart()
    from repro.errors import ReproError

    with pytest.raises(ReproError):
        app.run_statement("UPDATE t SET v = 0 WHERE id = 1")
    before = hits(meter)
    app.query_rows("SELECT v FROM t WHERE id = 1")
    assert hits(meter) == before, (
        "the aborted transaction's staged result leaked into the cache")


# ---------------------------------------------------------------------------
# The tracked mix: two fifths of the round trips gone, not one row changed
# ---------------------------------------------------------------------------


def test_tracked_mix_cache_cuts_requests_with_identical_rows():
    from repro.bench.experiments import run_tracked_mix

    off = run_tracked_mix(result_cache_entries=0)
    on = run_tracked_mix()
    assert on.rows_digest == off.rows_digest
    assert on.counters["result_cache.hits"] > 0
    assert on.counters["net.requests_sent"] \
        <= 0.6 * off.counters["net.requests_sent"]
    assert on.virtual_seconds < off.virtual_seconds


# ---------------------------------------------------------------------------
# Capacity 0: nothing probes, nothing counts
# ---------------------------------------------------------------------------


def test_knob_off_means_no_cache_no_probe_no_counters():
    meter, server = build_world(capacity=0)
    app = phoenix_app(server)
    assert app.manager._shared_cache is None
    app.query_rows("SELECT id, v FROM t ORDER BY id")
    app.query_rows("SELECT id, v FROM t ORDER BY id")
    assert not any(k.startswith("result_cache.") for k in meter.counters)
    assert not hasattr(meter, "_shared_result_cache")


# ---------------------------------------------------------------------------
# Cache mechanics (unit level)
# ---------------------------------------------------------------------------


def test_lru_eviction_at_capacity():
    meter = Meter(CostModel(result_cache_entries=2))
    cache = SharedResultCache.shared(meter)
    assert SharedResultCache.shared(meter) is cache  # world singleton
    cache.insert("SELECT 1", [], [(1,)], {"t": (0, ((1,),))})
    cache.insert("SELECT 2", [], [(2,)], {"t": (0, ((2,),))})
    cache.insert("SELECT 3", [], [(3,)], {"t": (0, WHOLE)})
    assert len(cache) == 2
    assert cache.lookup("SELECT 1") is None
    assert cache.lookup("SELECT 3") is not None
    assert int(meter.counters["result_cache.evictions"]) == 1
    # LRU eviction unlinks: the evicted entry's prefix is gone from the
    # index, and a write to it finds nothing to evict.
    assert set(cache._index["t"]) == {(2,), ()}
    cache.observe_committed({"t": (0, 1, {(1,)})}, epoch=0)
    assert len(cache) == 1 and cache.lookup("SELECT 2") is not None


def test_insert_refuses_oversized_and_unshareable_results():
    meter = Meter(CostModel(result_cache_entries=4))
    cache = SharedResultCache.shared(meter)
    cache.max_rows = 2
    assert not cache.insert("SELECT a", [], [(1,), (2,), (3,)],
                            {"t": (0, WHOLE)})
    assert not cache.insert("SELECT b", [], [(1,)], None)
    assert cache.insert("SELECT c", [], [(1,)], {"t": (0, WHOLE)})
    assert len(cache) == 1


def test_insert_refuses_stamps_behind_the_mirror():
    meter = Meter(CostModel(result_cache_entries=4))
    cache = SharedResultCache.shared(meter)
    cache.observe_committed({"t": (2, 3, None)}, epoch=0)
    assert not cache.insert("SELECT a", [], [(1,)], {"t": (2, WHOLE)})
    assert cache.insert("SELECT a", [], [(1,)], {"t": (3, WHOLE)})


def test_normalize_key_collapses_whitespace():
    assert normalize_key("SELECT  a\n FROM   t") == "SELECT a FROM t"


# ---------------------------------------------------------------------------
# Observability: sys_result_cache, per-table counters, latency component
# ---------------------------------------------------------------------------


def test_sys_result_cache_view_reports_per_table_traffic():
    meter, server = build_world()
    app = phoenix_app(server)
    app.query_rows("SELECT v FROM t WHERE id = 1")
    app.query_rows("SELECT v FROM t WHERE id = 1")
    app.run_statement("UPDATE t SET v = 0 WHERE id = 1")
    rows = dict(app.query_rows(
        "SELECT metric, value FROM sys_result_cache"))
    assert rows["result_cache.hits"] == 1
    assert rows["result_cache.hits.t"] == 1
    assert rows["result_cache.misses.t"] >= 1
    assert rows["result_cache.invalidations.t"] == 1
    metrics = dict(app.query_rows(
        "SELECT name, value FROM sys_metrics WHERE name LIKE "
        "'result_cache%'"))
    assert metrics, "sys_metrics must surface the result_cache counters"


def test_latency_classifies_cache_work():
    from repro.obs.latency import COMPONENTS, classify
    from repro.sim.costs import CLIENT_CPU

    assert "cache" in COMPONENTS
    for note in ("cache fetch", "cache scroll", "cache block fetch",
                 "result cache probe"):
        assert classify(CLIENT_CPU, note) == "cache"
