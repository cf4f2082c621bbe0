"""Fuzzy checkpoints: dirty-page table, cadence, recovery, observability.

The tentpole contract: a fuzzy checkpoint is a Begin/End record pair
carrying the dirty-page table (page -> recLSN) and active-transaction
table, taken without flushing the pool or blocking anything; recovery
seeded from it starts redo at the minimum recLSN and skips records whose
effects provably reached disk.  Under ``CostModel.paper()`` there is
no cadence and no checkpoint is ever taken.
"""

from repro.odbc.constants import SQL_NO_DATA, SQL_SUCCESS
from repro.server.server import DatabaseServer
from repro.sim.costs import CostModel
from repro.sim.meter import Meter
from repro.wal.records import BeginCheckpointRecord, EndCheckpointRecord
from repro.workloads.app import BenchmarkApp
from tests.schedules import EngineWorld


def make_world(costs: CostModel | None = None) -> EngineWorld:
    # No cadence unless a test asks for one: the directed tests take
    # their checkpoints by hand and count them.
    return EngineWorld(costs or CostModel(checkpoint_interval_seconds=0.0))


def make_engine(costs: CostModel | None = None):
    world = make_world(costs)
    return world.engine, world.run


# -- dirty-page table ---------------------------------------------------------

def test_dirty_page_table_tracks_rec_lsns():
    engine, run = make_engine()
    run("CREATE TABLE t (k INT NOT NULL, v INT, PRIMARY KEY (k))")
    run("INSERT INTO t VALUES (1, 0)")
    pool = engine.buffer_pool
    dpt = pool.dirty_page_table()
    assert dpt, "insert left no dirty page"
    # recLSN is the FIRST lsn that dirtied the page: later updates to the
    # same page must not advance it.
    before = dict(dpt)
    run("UPDATE t SET v = 1 WHERE k = 1")
    after = pool.dirty_page_table()
    for key, rec_lsn in before.items():
        assert after[key] == rec_lsn
    # Flushing clears the entry; the next change re-registers the page
    # with a fresh (higher) recLSN.
    key = next(iter(before))
    pool.flush_page(*key)
    assert key not in pool.dirty_page_table()
    run("UPDATE t SET v = 2 WHERE k = 1")
    redirtied = pool.dirty_page_table()
    if key in redirtied:  # same page touched again
        assert redirtied[key] > before[key]


def test_flush_dirtied_before_is_selective():
    engine, run = make_engine()
    run("CREATE TABLE a (k INT NOT NULL, v INT, PRIMARY KEY (k))")
    run("CREATE TABLE b (k INT NOT NULL, v INT, PRIMARY KEY (k))")
    run("INSERT INTO a VALUES (1, 0)")
    run("INSERT INTO b VALUES (1, 0)")
    pool = engine.buffer_pool
    # Freshly created pages carry the conservative recLSN 0; flush so the
    # next change registers each page with its true first-dirty LSN.
    pool.flush_all()
    run("UPDATE a SET v = 1 WHERE k = 1")
    cut = engine.wal.last_lsn
    run("UPDATE b SET v = 1 WHERE k = 1")
    dirty_before = {k for k, rec in pool.dirty_page_table().items()
                    if 0 < rec < cut}
    assert dirty_before
    flushed = pool.flush_dirtied_before(cut)
    assert flushed == len(dirty_before)
    # Only pages dirtied strictly before the cut were written out.
    remaining = pool.dirty_page_table()
    assert remaining
    assert all(rec >= cut for rec in remaining.values())


# -- taking fuzzy checkpoints -------------------------------------------------

def test_fuzzy_checkpoint_does_not_flush_hot_pages():
    engine, run = make_engine()
    run("CREATE TABLE t (k INT NOT NULL, v INT, PRIMARY KEY (k))")
    run("INSERT INTO t VALUES (1, 0)")
    pool = engine.buffer_pool
    dirty = set(pool.dirty_page_table())
    begin_lsn = engine.fuzzy_checkpoint(truncate=False)
    # Non-blocking: the first fuzzy checkpoint flushes nothing (the
    # background flusher only writes pages dirty since the *previous*
    # Begin record) and every hot page stays dirty.
    assert set(pool.dirty_page_table()) == dirty
    end = engine.wal.last_complete_checkpoint()
    assert isinstance(end, EndCheckpointRecord)
    assert end.begin_lsn == begin_lsn
    assert set(end.dirty_pages) == dirty
    # The Begin record really is in the log below the End record.
    assert isinstance(engine.wal.record(begin_lsn), BeginCheckpointRecord)


def test_background_flusher_advances_min_reclsn():
    engine, run = make_engine()
    run("CREATE TABLE t (k INT NOT NULL, v INT, PRIMARY KEY (k))")
    run("INSERT INTO t VALUES (1, 0)")
    engine.fuzzy_checkpoint(truncate=False)
    first_min = engine.buffer_pool.min_rec_lsn()
    # No new dirtying between checkpoints: the second checkpoint's
    # flusher writes out everything dirtied before the first Begin.
    engine.fuzzy_checkpoint(truncate=False)
    engine.fuzzy_checkpoint(truncate=False)
    remaining = engine.buffer_pool.min_rec_lsn()
    assert remaining is None or remaining > first_min
    assert engine.meter.counters.get("pages_flushed_background", 0) > 0


def test_cadence_knob_triggers_checkpoints():
    costs = CostModel(checkpoint_interval_seconds=0.05)
    server = DatabaseServer(meter=Meter(costs))
    app = BenchmarkApp(server)
    app.run_statement("CREATE TABLE t (k INT NOT NULL, v INT, "
                      "PRIMARY KEY (k))")
    app.run_statement("INSERT INTO t VALUES (1, 0)")
    for _ in range(40):
        app.run_statement("UPDATE t SET v = v + 1 WHERE k = 1")
    taken = server.meter.counters.get("checkpoints_taken", 0)
    assert taken >= 2, f"cadence produced only {taken} checkpoints"
    assert isinstance(server.wal.last_complete_checkpoint(),
                      EndCheckpointRecord)


def test_defaults_leave_log_untouched():
    """The paper's configuration: no checkpoint records, no truncation,
    no counters."""
    server = DatabaseServer(meter=Meter(CostModel.paper()))
    app = BenchmarkApp(server)
    app.run_statement("CREATE TABLE t (k INT NOT NULL, v INT, "
                      "PRIMARY KEY (k))")
    for _ in range(20):
        app.run_statement("UPDATE t SET v = 1 WHERE k = 0")
    assert server.wal.truncated_lsn == 0
    assert server.wal.last_complete_checkpoint() is None
    counters = server.meter.counters
    assert "checkpoints_taken" not in counters
    assert "log_records_truncated" not in counters
    report = server.engine.last_recovery
    assert report is None or not report.fuzzy


# -- recovery from a fuzzy checkpoint -----------------------------------------

def _workload(run):
    run("CREATE TABLE t (k INT NOT NULL, v INT, PRIMARY KEY (k))")
    for i in range(8):
        run(f"INSERT INTO t VALUES ({i}, 0)")
    for rnd in range(6):
        run(f"UPDATE t SET v = v + {rnd + 1} WHERE k < 4")


def test_fuzzy_recovery_equals_no_crash_state():
    engine, run = make_engine()
    _workload(run)
    expected = sorted(run("SELECT k, v FROM t"))

    world = make_world()
    world.run("CREATE TABLE t (k INT NOT NULL, v INT, PRIMARY KEY (k))")
    for i in range(8):
        world.run(f"INSERT INTO t VALUES ({i}, 0)")
    for rnd in range(6):
        world.run(f"UPDATE t SET v = v + {rnd + 1} WHERE k < 4")
        if rnd % 2 == 0:
            world.engine.fuzzy_checkpoint(truncate=True)
    report = world.crash_and_restart()
    assert report.fuzzy
    assert report.redo_start >= 1
    assert sorted(world.run("SELECT k, v FROM t")) == expected


def test_ddl_behind_a_checkpoint_with_no_dirty_page_is_redone():
    """Redo starts right behind the checkpoint even when the oldest
    dirty page is younger than that: DDL records name no page."""
    world = make_world()
    world.run("CREATE TABLE t (k INT NOT NULL, v INT, PRIMARY KEY (k))")
    world.engine.checkpoint()        # clean pool ...
    world.engine.fuzzy_checkpoint()  # ... so this one logs an empty table
    world.run("CREATE TABLE u (k INT NOT NULL, PRIMARY KEY (k))")
    world.run("INSERT INTO u VALUES (7)")
    report = world.crash_and_restart()
    assert report.fuzzy
    assert report.redo_start == report.checkpoint_lsn + 1
    assert world.run("SELECT k FROM u") == [(7,)]


def test_worker_count_never_changes_recovered_contents():
    """1-worker and 4-worker redo recover bit-identical state (records
    are applied serially in LSN order either way)."""
    world = make_world(CostModel(checkpoint_interval_seconds=0.02))
    _workload(world.run)
    world.engine.fuzzy_checkpoint()
    world.run("UPDATE t SET v = v + 100 WHERE k >= 4")
    world.engine.wal.force()
    world.crash()

    recovered = {}
    for workers in (1, 4):
        restarted = world.fork(CostModel(redo_workers=workers))
        assert restarted.engine.last_recovery.redo_workers == workers
        recovered[workers] = restarted.contents()
    assert recovered[1] == recovered[4]


def test_parallel_redo_charges_at_most_serial_time():
    """More workers can only shrink the charged redo makespan."""
    world = make_world()
    # All DDL first: a CREATE in the redo stream is a serial barrier, so
    # interleaving it with the DML would leave each round one partition.
    for t in range(3):
        world.run(f"CREATE TABLE m{t} (k INT NOT NULL, v INT, "
                  f"PRIMARY KEY (k))")
    for t in range(3):
        for i in range(6):
            world.run(f"INSERT INTO m{t} VALUES ({i}, 0)")
        world.run(f"UPDATE m{t} SET v = 1 WHERE k < 6")
    world.engine.wal.force()
    world.crash()

    elapsed = {}
    for workers in (1, 4):
        # A fresh meter: its clock reads the restart alone.
        restarted = world.fork(CostModel(redo_workers=workers))
        elapsed[workers] = restarted.meter.now
        report = restarted.engine.last_recovery
        assert len(report.partition_seconds) == 3
    assert elapsed[4] < elapsed[1]



def test_phoenix_session_survives_crash_with_fuzzy_knobs_on():
    """Phoenix crash transparency is orthogonal to the checkpoint
    regime: with cadence, truncation and parallel redo all on, a
    session crashed mid-fetch still drains the same rows."""
    def run_leg(crash_mid_fetch: bool):
        costs = CostModel(checkpoint_interval_seconds=0.05,
                          redo_workers=2, output_buffer_bytes=16)
        server = DatabaseServer(meter=Meter(costs))
        setup = BenchmarkApp(server)
        setup.run_statement("CREATE TABLE t (k INT NOT NULL, v INT, "
                            "PRIMARY KEY (k))")
        setup.run_statement("INSERT INTO t VALUES " + ", ".join(
            f"({i}, {i * i})" for i in range(12)))
        for i in range(30):
            setup.run_statement(
                f"UPDATE t SET v = v + 1 WHERE k = {i % 12}")
        app = BenchmarkApp(server, use_phoenix=True)
        statement = app.manager.alloc_statement(app.conn)
        assert app.manager.exec_direct(
            statement, "SELECT k, v FROM t ORDER BY k") == SQL_SUCCESS
        rows = []
        for _ in range(3):
            rc, row = app.manager.fetch(statement)
            assert rc == SQL_SUCCESS
            rows.append(row)
        if crash_mid_fetch:
            server.crash()
            server.restart()
            assert server.engine.last_recovery.fuzzy
        while True:
            rc, row = app.manager.fetch(statement)
            if rc == SQL_NO_DATA:
                break
            assert rc == SQL_SUCCESS
            rows.append(row)
        return rows

    assert run_leg(crash_mid_fetch=True) == run_leg(crash_mid_fetch=False)

# -- observability ------------------------------------------------------------

def test_sys_checkpoint_view_is_queryable():
    costs = CostModel(checkpoint_interval_seconds=0.05)
    server = DatabaseServer(meter=Meter(costs))
    app = BenchmarkApp(server)
    app.run_statement("CREATE TABLE t (k INT NOT NULL, v INT, "
                      "PRIMARY KEY (k))")
    app.run_statement("INSERT INTO t VALUES (1, 0)")
    for _ in range(40):
        app.run_statement("UPDATE t SET v = v + 1 WHERE k = 1")
    rows = dict(app.query_rows("SELECT metric, value FROM sys_checkpoint"))
    assert rows["checkpoints_taken"] >= 2
    assert rows["last_checkpoint_lsn"] > 0
    assert rows["flushed_lsn"] >= rows["truncated_lsn"]
    assert rows["dirty_pages"] >= 0
    # What truncation left on disk: the DML-version base has folded
    # exactly the dropped prefix, and counts it as archived.
    assert rows["truncated_lsn"] > 0
    assert rows["archived_records"] == rows["log_records_truncated"] \
        == rows["dml_versions_through_lsn"] == rows["truncated_lsn"]
    # Only the CREATE TABLE changed the catalog: one snapshot written,
    # every later checkpoint skipped the rewrite.
    assert rows["catalog_snapshots_written"] == 1
    assert rows["catalog_snapshots_written"] \
        + rows["catalog_snapshots_skipped"] == rows["checkpoints_taken"]


def test_recovery_phases_recorded_for_fuzzy_restarts():
    costs = CostModel(checkpoint_interval_seconds=0.05, redo_workers=2)
    server = DatabaseServer(meter=Meter(costs))
    app = BenchmarkApp(server)
    app.run_statement("CREATE TABLE t (k INT NOT NULL, v INT, "
                      "PRIMARY KEY (k))")
    for _ in range(30):
        app.run_statement("UPDATE t SET v = 1 WHERE k = 0")
    server.crash()
    server.restart()
    survivor = BenchmarkApp(server)
    phases = dict(
        (phase, seconds) for _rid, phase, seconds, _at in
        [row for row in survivor.query_rows(
            "SELECT recovery_id, phase, seconds, finished_at "
            "FROM sys_recovery_phases")])
    assert "wal_analysis" in phases
    assert "wal_redo" in phases
    assert "wal_undo" in phases


def test_sys_checkpoint_traced_vs_untraced_bit_identical(monkeypatch):
    """Observation is free: the fuzzy-checkpoint path runs bit-identically
    with tracing on and off (sys_checkpoint reads, no charges)."""
    from repro.obs import trace_enabled_from_env

    def run_world():
        costs = CostModel(checkpoint_interval_seconds=0.05, redo_workers=4)
        server = DatabaseServer(meter=Meter(costs))
        app = BenchmarkApp(server)
        app.run_statement("CREATE TABLE t (k INT NOT NULL, v INT, "
                          "PRIMARY KEY (k))")
        app.run_statement("INSERT INTO t VALUES (1, 0)")
        for _ in range(40):
            app.run_statement("UPDATE t SET v = v + 1 WHERE k = 1")
        server.crash()
        server.restart()
        survivor = BenchmarkApp(server)
        rows = survivor.query_rows(
            "SELECT metric, value FROM sys_checkpoint")
        return server.meter.now, sorted(rows), dict(server.meter.counters)

    monkeypatch.delenv("REPRO_TRACE", raising=False)
    assert not trace_enabled_from_env()
    untraced = run_world()
    monkeypatch.setenv("REPRO_TRACE", "1")
    traced = run_world()
    assert untraced == traced
