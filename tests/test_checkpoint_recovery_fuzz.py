"""Crash fuzz: fuzzy checkpoints + truncation under straddling txns.

Extends the index-recovery fuzz (same seeded DML generator, same
harness) with the tentpole's failure modes:

* explicit transactions that *straddle* Begin/End checkpoint pairs — the
  active-transaction table in the End record (and the first-LSN table
  that pins truncation) must carry them through recovery;
* truncating fuzzy checkpoints taken mid-workload, so recovery starts
  from an archived-away log prefix boundary;
* crashes in the middle of an in-progress fuzzy checkpoint (Begin
  written, End never made it) — recovery must fall back to the previous
  complete checkpoint;
* crashes at *every* sampled prefix of all of the above, where the
  recovered heap, B-trees and (separately) Phoenix session state must
  equal a no-crash run of the committed prefix;
* the checkpoint regime itself as an input: the same prefix recovered
  behind no checkpoint, sharp checkpoints and truncating fuzzy ones,
  serially and with four redo workers, goes through the one restart
  pass and must come out the same.
"""

import copy
import itertools

import pytest

from repro.engine.database import DatabaseEngine
from repro.engine.session import EngineSession
from repro.sim.costs import CostModel
from repro.sim.meter import Meter
from repro.wal.records import BeginCheckpointRecord, EndCheckpointRecord
from tests.test_index_recovery_fuzz import (
    DDL,
    CrashHarness,
    assert_indexes_match_heap,
    build_workload,
)

CONTENTS = "SELECT id, owner, bal, tag FROM acct"


def build_script(seed: int, ops: int) -> list[tuple[str, str | None]]:
    """Interleave the seeded DML with explicit transactions and fuzzy
    checkpoints such that every checkpoint lands *inside* an open
    transaction (the straddle the End record's tables must survive)."""
    statements = build_workload(seed, ops)
    script: list[tuple[str, str | None]] = []
    for i in range(0, len(statements), 6):
        chunk = statements[i:i + 6]
        autocommit, wrapped = chunk[:3], chunk[3:]
        for sql in autocommit:
            script.append(("sql", sql))
        if wrapped:
            script.append(("sql", "BEGIN TRANSACTION"))
            script.append(("sql", wrapped[0]))
            script.append(("checkpoint", None))  # straddles the txn
            for sql in wrapped[1:]:
                script.append(("sql", sql))
            script.append(("sql", "COMMIT"))
    return script


def committed_prefix(script, upto: int) -> list[str]:
    """Statements whose effects a crash after ``script[upto-1]`` must
    preserve: autocommit DML plus explicitly committed transactions."""
    oracle: list[str] = []
    txn: list[str] | None = None
    for kind, sql in script[:upto]:
        if kind != "sql":
            continue
        if sql == "BEGIN TRANSACTION":
            txn = []
        elif sql == "COMMIT":
            oracle.extend(txn or [])
            txn = None
        elif txn is not None:
            txn.append(sql)
        else:
            oracle.append(sql)
    return oracle


def run_oracle(script, upto: int):
    harness = CrashHarness()
    for sql in DDL:
        harness.run(sql)
    for sql in committed_prefix(script, upto):
        harness.run(sql)
    return sorted(harness.run(CONTENTS))


#: What a ``("checkpoint", None)`` step of the script does, by regime.
CHECKPOINTS = {
    "none": lambda engine: None,
    "sharp": lambda engine: engine.checkpoint(),
    "fuzzy": lambda engine: engine.fuzzy_checkpoint(truncate=True),
}


@pytest.mark.parametrize("seed", [1, 2])
def test_fuzzy_checkpoints_and_truncation_survive_crash_sweep(seed):
    script = build_script(seed, ops=24)
    for crash_at in range(1, len(script) + 1, 3):
        expected = run_oracle(script, crash_at)
        for regime, workers in itertools.product(CHECKPOINTS, (0, 4)):
            where = f"seed {seed} crash point {crash_at} {regime}/{workers}"
            harness = CrashHarness()
            harness.meter.costs.redo_workers = workers
            # The script places the checkpoints; no cadence adds any.
            harness.meter.costs.checkpoint_interval_seconds = 0.0
            for sql in DDL:
                harness.run(sql)
            checkpoints = 0
            for kind, sql in script[:crash_at]:
                if kind == "checkpoint":
                    CHECKPOINTS[regime](harness.engine)
                    checkpoints += 1
                else:
                    harness.run(sql)
            truncated = harness.wal.truncated_lsn
            recoveries = len(harness.meter.recovery_log)
            harness.crash()
            report = harness.restart()
            assert len(harness.meter.recovery_log) == recoveries + 1, \
                f"{where}: restart left no entry in the recovery log"
            assert report.redo_workers == workers
            if regime == "fuzzy":
                if checkpoints:
                    assert report.fuzzy, f"{where} ignored the checkpoint"
                    assert report.redo_start > truncated
            else:
                assert not report.fuzzy
                assert bool(report.checkpoint_lsn) == \
                    (regime == "sharp" and checkpoints > 0)
                assert report.redo_start == report.checkpoint_lsn + 1
                # Nothing reaches the disk between a sharp checkpoint
                # and the crash, so a skipped record could only be the
                # dirty-page filter's doing.
                assert report.redo_skipped == 0, where
            assert sorted(harness.run(CONTENTS)) == expected, \
                f"{where} diverged from no-crash"
            assert assert_indexes_match_heap(harness.engine) >= 3


@pytest.mark.parametrize("seed", [3])
def test_crash_mid_fuzzy_checkpoint_falls_back(seed):
    """Begin written, some pages flushed, End lost: recovery must use
    the previous complete checkpoint and still match the oracle."""
    script = build_script(seed, ops=24)
    for crash_at in range(4, len(script) + 1, 5):
        harness = CrashHarness()
        for sql in DDL:
            harness.run(sql)
        for kind, sql in script[:crash_at]:
            if kind == "checkpoint":
                harness.engine.fuzzy_checkpoint(truncate=True)
            else:
                harness.run(sql)
        previous = harness.wal.last_complete_checkpoint()
        # An in-progress checkpoint: Begin reaches the durable log, one
        # dirty page is flushed, the End record never happens.
        harness.wal.append(BeginCheckpointRecord(txn_id=0))
        harness.wal.force(sync=False)
        dirty = sorted(harness.engine.buffer_pool.dirty_page_table())
        if dirty:
            harness.engine.buffer_pool.flush_page(*dirty[0])
        harness.crash()
        report = harness.restart()
        resolved = harness.wal.last_complete_checkpoint()
        if previous is not None:
            assert resolved is not None
            assert resolved.lsn == previous.lsn
            if isinstance(previous, EndCheckpointRecord):
                assert report.fuzzy
        assert sorted(harness.run(CONTENTS)) == \
            run_oracle(script, crash_at)
        assert assert_indexes_match_heap(harness.engine) >= 3


def test_worker_count_equivalence_with_straddling_txn():
    """The same crashed world recovered with 1 and 4 redo workers (and
    serially) yields identical contents — including a loser that
    straddled a truncating checkpoint."""
    script = build_script(seed=4, ops=24)
    harness = CrashHarness()
    for sql in DDL:
        harness.run(sql)
    for kind, sql in script[:-2]:  # stop before the final COMMIT
        if kind == "checkpoint":
            harness.engine.fuzzy_checkpoint(truncate=True)
        else:
            harness.run(sql)
    harness.wal.force()
    harness.crash()

    recovered = {}
    for workers in (0, 1, 4):
        disk = copy.deepcopy(harness.disk)
        wal = copy.deepcopy(harness.wal)
        meter = Meter(CostModel(redo_workers=workers))
        wal.attach_meter(meter)
        engine = DatabaseEngine.restart(disk, wal, meter=meter)
        session = EngineSession(session_id=7)
        recovered[workers] = sorted(
            engine.execute(CONTENTS, session).fetch_all())
    assert recovered[0] == recovered[1] == recovered[4]


def test_phoenix_session_survives_crash_with_fuzzy_knobs_on():
    """Phoenix crash transparency is orthogonal to the checkpoint
    regime: with cadence, truncation and parallel redo all on, a
    session crashed mid-fetch still drains the same rows."""
    from repro.odbc.constants import SQL_NO_DATA, SQL_SUCCESS
    from repro.server.server import DatabaseServer
    from repro.workloads.app import BenchmarkApp

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
