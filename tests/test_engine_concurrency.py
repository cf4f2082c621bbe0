"""Cross-session transaction and locking behaviour."""

import pytest

from repro.engine.session import EngineSession
from repro.errors import DeadlockError, LockWaitError
from tests.schedules import EngineWorld


@pytest.fixture
def engine_world():
    return EngineWorld(setup=(
        "CREATE TABLE acct (id INT NOT NULL, bal INT, PRIMARY KEY (id))",
        "INSERT INTO acct VALUES (1, 100), (2, 200)"))


@pytest.fixture
def world(engine_world):
    """The engine, alice and bob."""
    return engine_world.engine, engine_world.session(0), \
        engine_world.session(1)


def run(engine, session, sql):
    result = engine.execute(sql, session)
    if result.kind == "rows":
        return result.fetch_all()
    if result.kind == "rowcount":
        return result.rowcount
    return None


class TestWriteConflicts:
    def test_writer_blocks_writer(self, world):
        engine, alice, bob = world
        run(engine, alice, "BEGIN TRANSACTION")
        run(engine, alice, "UPDATE acct SET bal = 0 WHERE id = 1")
        # Another row of the table is free; the same row queues.
        assert run(engine, bob, "UPDATE acct SET bal = 1 WHERE id = 2") == 1
        with pytest.raises(LockWaitError) as wait:
            run(engine, bob, "UPDATE acct SET bal = 1 WHERE id = 1")
        assert engine.locks.is_waiting(wait.value.txn_id)
        run(engine, alice, "ROLLBACK")
        # The release granted the lock: the same statement now runs, in
        # the transaction that waited.
        assert not engine.locks.is_waiting(wait.value.txn_id)
        assert run(engine, bob, "UPDATE acct SET bal = 1 WHERE id = 1") == 1
        assert run(engine, bob, "SELECT bal FROM acct WHERE id = 1") == [(1,)]

    def test_writer_blocks_reader_in_txn(self, world):
        engine, alice, bob = world
        run(engine, alice, "BEGIN TRANSACTION")
        run(engine, alice, "UPDATE acct SET bal = 0 WHERE id = 1")
        run(engine, bob, "BEGIN TRANSACTION")
        with pytest.raises(LockWaitError):
            run(engine, bob, "SELECT * FROM acct")
        txn_id = bob.current_txn.txn_id
        assert engine.locks.waiting_for(txn_id) == {alice.current_txn.txn_id}
        run(engine, alice, "COMMIT")
        assert not engine.locks.is_waiting(txn_id)
        assert run(engine, bob, "SELECT * FROM acct") == [(1, 0), (2, 200)]
        run(engine, bob, "COMMIT")

    def test_readers_share(self, world):
        engine, alice, bob = world
        run(engine, alice, "BEGIN TRANSACTION")
        run(engine, alice, "SELECT * FROM acct")
        run(engine, bob, "BEGIN TRANSACTION")
        assert len(run(engine, bob, "SELECT * FROM acct")) == 2
        run(engine, alice, "COMMIT")
        run(engine, bob, "COMMIT")

    def test_autocommit_select_takes_no_lock(self, world):
        engine, alice, bob = world
        run(engine, alice, "BEGIN TRANSACTION")
        run(engine, alice, "UPDATE acct SET bal = 0 WHERE id = 1")
        # An autocommit read outside a transaction does not queue on
        # locks in this single-threaded server (read-committed-ish).
        rows = run(engine, bob, "SELECT count(*) FROM acct")
        assert rows == [(2,)]
        run(engine, alice, "ROLLBACK")

    def test_victim_transaction_is_aborted_by_lock_manager(self, world):
        engine, alice, bob = world
        run(engine, alice, "BEGIN TRANSACTION")
        run(engine, alice, "UPDATE acct SET bal = 0 WHERE id = 1")
        run(engine, bob, "BEGIN TRANSACTION")
        run(engine, bob, "UPDATE acct SET bal = 5 WHERE id = 2")
        with pytest.raises(LockWaitError):
            run(engine, bob, "UPDATE acct SET bal = 5 WHERE id = 1")
        # A wait leaves the transaction open, holding what it holds.
        assert bob.current_txn.is_active
        # Alice closes the cycle: the lock manager aborts the younger
        # transaction (bob's) and alice's statement runs again.
        with pytest.raises(LockWaitError, match="deadlock broken"):
            run(engine, alice, "UPDATE acct SET bal = 0 WHERE id = 2")
        assert not bob.current_txn.is_active
        assert run(engine, alice, "UPDATE acct SET bal = 0 WHERE id = 2") == 1
        # The session learns of it at its next statement and acknowledges.
        with pytest.raises(DeadlockError):
            run(engine, bob, "UPDATE acct SET bal = 5 WHERE id = 1")
        run(engine, bob, "ROLLBACK")
        run(engine, alice, "COMMIT")
        assert run(engine, bob, "SELECT bal FROM acct") == [(0,), (0,)]


class TestInterleavedCommits:
    """Interleaved writers on disjoint tables: strict 2PL interleaves
    their begin/commit windows."""

    @pytest.fixture
    def ledgers(self, world):
        engine, alice, bob = world
        run(engine, alice, "CREATE TABLE a_log (v INT)")
        run(engine, alice, "CREATE TABLE b_log (v INT)")
        return engine, alice, bob

    def test_interleaved_transactions_both_apply(self, ledgers):
        engine, alice, bob = ledgers
        run(engine, alice, "BEGIN TRANSACTION")
        run(engine, alice, "INSERT INTO a_log VALUES (1)")
        run(engine, bob, "BEGIN TRANSACTION")
        run(engine, bob, "INSERT INTO b_log VALUES (2)")
        run(engine, bob, "COMMIT")
        run(engine, alice, "COMMIT")
        assert run(engine, alice, "SELECT count(*) FROM a_log") == [(1,)]
        assert run(engine, alice, "SELECT count(*) FROM b_log") == [(1,)]

    def test_one_commits_one_aborts(self, ledgers):
        engine, alice, bob = ledgers
        run(engine, alice, "BEGIN TRANSACTION")
        run(engine, alice, "INSERT INTO a_log VALUES (1)")
        run(engine, bob, "BEGIN TRANSACTION")
        run(engine, bob, "INSERT INTO b_log VALUES (2)")
        run(engine, alice, "COMMIT")
        run(engine, bob, "ROLLBACK")
        assert run(engine, alice, "SELECT count(*) FROM a_log") == [(1,)]
        assert run(engine, alice, "SELECT count(*) FROM b_log") == [(0,)]

    def test_crash_with_two_open_transactions(self, ledgers, engine_world):
        engine, alice, bob = ledgers
        run(engine, alice, "BEGIN TRANSACTION")
        run(engine, alice, "INSERT INTO a_log VALUES (1)")
        run(engine, bob, "BEGIN TRANSACTION")
        run(engine, bob, "INSERT INTO b_log VALUES (2)")
        engine.wal.force()
        assert len(engine_world.crash_and_restart().losers) == 2
        for table in ("a_log", "b_log"):
            assert engine_world.run(f"SELECT count(*) FROM {table}") \
                == [(0,)]

    def test_abort_all_active(self, ledgers):
        engine, alice, bob = ledgers
        run(engine, alice, "BEGIN TRANSACTION")
        run(engine, alice, "INSERT INTO a_log VALUES (1)")
        run(engine, bob, "BEGIN TRANSACTION")
        run(engine, bob, "INSERT INTO b_log VALUES (2)")
        aborted = engine.txns.abort_all_active()
        assert len(aborted) == 2
        fresh = EngineSession(session_id=3)
        assert run(engine, fresh, "SELECT count(*) FROM a_log") == [(0,)]
        assert run(engine, fresh, "SELECT count(*) FROM b_log") == [(0,)]
