"""Hierarchical row-level locking: modes, deadlocks, TPC-C.

Covers the lock manager in isolation (compatibility matrix, conflict
reporting, wait-for-graph cycle detection), the engine integration
(two-phase row locking, deadlock-victim sessions, the ``sys_locks``
view), and the interleaved multi-session TPC-C mix (conflicts wait, and
the interleaved run commits the exact same final state as the serial
one).
"""

import pytest

from repro.engine.database import DatabaseEngine
from repro.engine.session import EngineSession
from repro.errors import DeadlockError, LockWaitError
from repro.obs.latency import COMPONENTS, classify
from repro.sim.costs import SERVER_CPU, CostModel
from repro.sim.meter import Meter
from repro.txn.locks import LockManager, LockMode

IS = LockMode.INTENT_SHARED
IX = LockMode.INTENT_EXCLUSIVE
S = LockMode.SHARED
X = LockMode.EXCLUSIVE


def row_lock_manager() -> LockManager:
    return LockManager(meter=Meter())


class TestModeAlgebra:
    def test_intent_modes_coexist_with_row_activity(self):
        locks = row_lock_manager()
        locks.acquire(1, "t", IS)
        locks.acquire(2, "t", IX)
        locks.acquire(3, "t", IS)
        # Row locks under the intent modes: disjoint rows never touch.
        locks.acquire_row(2, "t", (1,), X)
        locks.acquire_row(3, "t", (2,), S)
        assert locks.held(1, "t") is IS
        assert locks.held(2, "t") is IX

    def test_shared_table_lock_blocks_intent_exclusive(self):
        locks = row_lock_manager()
        locks.acquire(1, "t", S)
        with pytest.raises(LockWaitError):
            locks.acquire(2, "t", IX)

    def test_same_txn_upgrade_merges_to_supremum(self):
        locks = row_lock_manager()
        locks.acquire(1, "t", S)
        locks.acquire(1, "t", IX)  # {S, IX} -> X
        assert locks.held(1, "t") is X

    def test_table_exclusive_subsumes_row_requests(self):
        locks = row_lock_manager()
        locks.acquire(1, "t", X)
        locks.acquire_row(1, "t", (7,), X)
        # Subsumed by the table lock: no separate row lock recorded.
        assert locks.row_lock_count(1, "t") == 0

    def test_row_writers_on_distinct_rows_do_not_conflict(self):
        locks = row_lock_manager()
        locks.acquire(1, "t", IX)
        locks.acquire(2, "t", IX)
        locks.acquire_row(1, "t", (1,), X)
        locks.acquire_row(2, "t", (2,), X)
        assert locks.row_holders("t", (1,)) == {1: X}
        assert locks.row_holders("t", (2,)) == {2: X}


class TestConflictReporting:
    """The seed's conflict message always claimed an X blocker — wrong
    whenever the holder blocks with a *shared* lock (S vs X upgrade)."""

    def test_shared_holder_is_reported_as_shared(self):
        locks = LockManager()  # no meter: bare manager, same contract
        locks.acquire(1, "t", S)
        with pytest.raises(LockWaitError) as info:
            locks.acquire(2, "t", X)
        message = str(info.value)
        assert "S lock held by txn 1" in message
        assert "X lock held" not in message

    def test_multiple_holders_list_all_modes_and_txns(self):
        locks = row_lock_manager()
        locks.acquire(1, "t", IS)
        locks.acquire(2, "t", S)
        with pytest.raises(LockWaitError) as info:
            locks.acquire(3, "t", X)
        message = str(info.value)
        assert "IS,S locks held by" in message
        assert "txns 1, 2" in message


class TestDeadlockDetection:
    def test_two_cycle_aborts_youngest(self):
        aborted = []
        locks = row_lock_manager()
        locks.on_victim = lambda txn_id: (aborted.append(txn_id),
                                          locks.release_all(txn_id))
        locks.acquire(1, "t", IX)
        locks.acquire(2, "t", IX)
        locks.acquire_row(1, "t", ("a",), X)
        locks.acquire_row(2, "t", ("b",), X)
        with pytest.raises(LockWaitError):
            locks.acquire_row(2, "t", ("a",), X)  # 2 waits on 1
        with pytest.raises(LockWaitError) as info:
            locks.acquire_row(1, "t", ("b",), X)  # closes the cycle
        # Youngest (largest txn id) dies; the requester just retries.
        assert aborted == [2]
        assert "aborting txn 2" in str(info.value)
        locks.acquire_row(1, "t", ("b",), X)  # victim's locks are gone

    def test_requester_as_youngest_gets_deadlock_error(self):
        locks = row_lock_manager()
        locks.on_victim = lambda txn_id: locks.release_all(txn_id)
        locks.acquire(1, "t", IX)
        locks.acquire(2, "t", IX)
        locks.acquire_row(1, "t", ("a",), X)
        locks.acquire_row(2, "t", ("b",), X)
        with pytest.raises(LockWaitError):
            locks.acquire_row(1, "t", ("b",), X)  # 1 waits on 2
        with pytest.raises(DeadlockError) as info:
            locks.acquire_row(2, "t", ("a",), X)  # requester is youngest
        assert "deadlock victim" in str(info.value)
        # The victim's own wait is deregistered; txn 1 still waits.
        assert locks.waiting_for(2) is None
        assert locks.waiting_for(1) == frozenset({2})

    def test_three_cycle_detected(self):
        aborted = []
        locks = row_lock_manager()
        locks.on_victim = lambda txn_id: (aborted.append(txn_id),
                                          locks.release_all(txn_id))
        for txn, row in ((1, "a"), (2, "b"), (3, "c")):
            locks.acquire(txn, "t", IX)
            locks.acquire_row(txn, "t", (row,), X)
        with pytest.raises(LockWaitError):
            locks.acquire_row(2, "t", ("a",), X)  # 2 -> 1
        with pytest.raises(LockWaitError):
            locks.acquire_row(3, "t", ("b",), X)  # 3 -> 2
        with pytest.raises(LockWaitError):
            locks.acquire_row(1, "t", ("c",), X)  # 1 -> 3: cycle, kill 3
        assert aborted == [3]

    def test_pure_shared_load_never_detects_deadlocks(self):
        locks = row_lock_manager()
        meter = locks._meter
        for txn in (1, 2, 3):
            locks.acquire(txn, "t", IS)
            locks.acquire_row(txn, "t", ("hot",), S)
        # A writer waiting on shared holders is a plain wait, no cycle.
        locks.acquire(4, "t", IX)
        with pytest.raises(LockWaitError):
            locks.acquire_row(4, "t", ("hot",), X)
        assert meter.counters.get("locks.deadlocks_detected", 0) == 0

    def test_finished_blockers_are_dead_ends_not_cycles(self):
        locks = row_lock_manager()
        locks.acquire(1, "t", IX)
        locks.acquire(2, "t", IX)
        locks.acquire_row(1, "t", ("a",), X)
        with pytest.raises(LockWaitError):
            locks.acquire_row(2, "t", ("a",), X)  # 2 waits on 1
        locks.release_all(1)  # 1 finishes; 2's wait entry goes stale
        # A new conflict whose DFS crosses the stale edge finds no cycle.
        locks.acquire(3, "t", IX)
        locks.acquire_row(3, "t", ("b",), X)
        with pytest.raises(LockWaitError):
            locks.acquire_row(2, "t", ("b",), X)
        assert locks._meter.counters.get("locks.deadlocks_detected",
                                         0) == 0


def row_world():
    engine = DatabaseEngine(meter=Meter())
    alice = EngineSession(session_id=1)
    bob = EngineSession(session_id=2)
    engine.execute("CREATE TABLE acct (id INT NOT NULL, bal INT, "
                   "PRIMARY KEY (id))", alice)
    engine.execute("INSERT INTO acct VALUES (1, 100), (2, 200), "
                   "(3, 300)", alice)
    return engine, alice, bob


def run(engine, session, sql):
    result = engine.execute(sql, session)
    if result.kind == "rows":
        return result.fetch_all()
    if result.kind == "rowcount":
        return result.rowcount
    return None


class TestRowModeEngine:
    def test_writers_on_distinct_rows_proceed(self):
        engine, alice, bob = row_world()
        run(engine, alice, "BEGIN TRANSACTION")
        run(engine, alice, "UPDATE acct SET bal = 0 WHERE id = 1")
        run(engine, bob, "BEGIN TRANSACTION")
        # A different row of the same table: no conflict.
        assert run(engine, bob,
                   "UPDATE acct SET bal = 5 WHERE id = 2") == 1
        run(engine, alice, "COMMIT")
        run(engine, bob, "COMMIT")
        assert run(engine, alice,
                   "SELECT bal FROM acct ORDER BY id") == \
            [(0,), (5,), (300,)]

    def test_writers_on_same_row_wait(self):
        engine, alice, bob = row_world()
        run(engine, alice, "BEGIN TRANSACTION")
        run(engine, alice, "UPDATE acct SET bal = 0 WHERE id = 1")
        run(engine, bob, "BEGIN TRANSACTION")
        with pytest.raises(LockWaitError):
            run(engine, bob, "UPDATE acct SET bal = 5 WHERE id = 1")
        # The waiter keeps its transaction and retries after commit.
        run(engine, alice, "COMMIT")
        assert run(engine, bob,
                   "UPDATE acct SET bal = 5 WHERE id = 1") == 1
        run(engine, bob, "COMMIT")
        assert run(engine, alice,
                   "SELECT bal FROM acct WHERE id = 1") == [(5,)]

    def test_update_locks_all_rows_before_mutating_any(self):
        engine, alice, bob = row_world()
        run(engine, alice, "BEGIN TRANSACTION")
        run(engine, alice, "UPDATE acct SET bal = 0 WHERE id = 3")
        run(engine, bob, "BEGIN TRANSACTION")
        # Bob's multi-row update overlaps alice's locked row: it must
        # wait *without* applying the non-conflicting rows first, so the
        # eventual retry is not a double-application.
        with pytest.raises(LockWaitError):
            run(engine, bob, "UPDATE acct SET bal = bal + 7")
        run(engine, alice, "COMMIT")
        assert run(engine, bob, "UPDATE acct SET bal = bal + 7") == 3
        run(engine, bob, "COMMIT")
        assert run(engine, alice,
                   "SELECT bal FROM acct ORDER BY id") == \
            [(107,), (207,), (7,)]

    def test_victim_session_fails_until_rollback(self):
        engine, alice, bob = row_world()
        run(engine, alice, "BEGIN TRANSACTION")  # older txn
        run(engine, bob, "BEGIN TRANSACTION")    # younger: the victim
        run(engine, alice, "UPDATE acct SET bal = 1 WHERE id = 1")
        run(engine, bob, "UPDATE acct SET bal = 2 WHERE id = 2")
        with pytest.raises(LockWaitError):
            run(engine, bob, "UPDATE acct SET bal = 3 WHERE id = 1")
        # Alice closes the cycle; the detector aborts bob (younger) and
        # alice unwinds with a retryable wait.
        with pytest.raises(LockWaitError):
            run(engine, alice, "UPDATE acct SET bal = 4 WHERE id = 2")
        assert run(engine, alice,
                   "UPDATE acct SET bal = 4 WHERE id = 2") == 1
        # Bob's session is doomed until it acknowledges with ROLLBACK —
        # including for *cached* DML plans, which must not slip into a
        # fresh autocommit transaction.
        with pytest.raises(DeadlockError):
            run(engine, bob, "UPDATE acct SET bal = 9 WHERE id = 3")
        with pytest.raises(DeadlockError):
            run(engine, bob, "SELECT * FROM acct")
        run(engine, bob, "ROLLBACK")
        run(engine, alice, "COMMIT")
        # Bob's writes are gone; alice's survived.
        assert run(engine, bob,
                   "SELECT bal FROM acct ORDER BY id") == \
            [(1,), (4,), (300,)]

    def test_transactional_readers_take_row_shares(self):
        engine, alice, bob = row_world()
        run(engine, alice, "BEGIN TRANSACTION")
        rows = run(engine, alice, "SELECT * FROM acct WHERE id = 1")
        assert rows == [(1, 100)]
        txn = alice.current_txn
        assert engine.locks.row_holders("acct", (1,)) == \
            {txn.txn_id: S}
        # A shared row blocks a writer on that row but not on others.
        run(engine, bob, "BEGIN TRANSACTION")
        assert run(engine, bob,
                   "UPDATE acct SET bal = 9 WHERE id = 2") == 1
        with pytest.raises(LockWaitError):
            run(engine, bob, "UPDATE acct SET bal = 9 WHERE id = 1")
        run(engine, alice, "COMMIT")
        run(engine, bob, "ROLLBACK")

    def test_sys_locks_view_lists_table_and_row_locks(self):
        engine, alice, bob = row_world()
        run(engine, alice, "BEGIN TRANSACTION")
        run(engine, alice, "UPDATE acct SET bal = 0 WHERE id = 2")
        txn_id = alice.current_txn.txn_id
        rows = run(engine, bob, "SELECT table_name, granularity, "
                                "lock_key, mode, txn_id FROM sys_locks")
        assert ("acct", "table", "", "IX", txn_id) in rows
        assert ("acct", "row", "(2,)", "X", txn_id) in rows
        run(engine, alice, "ROLLBACK")
        assert run(engine, bob, "SELECT count(*) FROM sys_locks") == \
            [(0,)]

    def test_lock_counters_tick(self):
        engine, alice, _bob = row_world()
        run(engine, alice, "BEGIN TRANSACTION")
        run(engine, alice, "UPDATE acct SET bal = 0 WHERE id = 1")
        run(engine, alice, "COMMIT")
        assert engine.meter.counters["locks.row_locks_acquired"] >= 1


class TestReadsThroughViews:
    """Kept out of ``TestLockTraceUnchanged``'s directed scenarios, whose
    golden digest holds the decisions of the engine scenarios above."""

    def test_reads_through_a_view_lock_its_base_table(self):
        """A transactional read through a view locks the table the view
        reads, exactly as the same read on the table does; the view's
        own name takes no lock — nothing writes it."""
        engine, alice, bob = row_world()
        run(engine, alice, "CREATE TABLE h (k INT, v INT)")
        run(engine, alice, "INSERT INTO h VALUES (1, 10), (2, 20)")
        run(engine, alice, "CREATE VIEW hv AS SELECT k, v FROM h")
        run(engine, alice, "BEGIN TRANSACTION")
        assert run(engine, alice, "SELECT k, v FROM hv") == \
            [(1, 10), (2, 20)]
        txn_id = alice.current_txn.txn_id
        assert engine.locks.held(txn_id, "h") is S
        assert engine.locks.held(txn_id, "hv") is None
        run(engine, bob, "BEGIN TRANSACTION")
        with pytest.raises(LockWaitError):
            run(engine, bob, "UPDATE h SET v = 20 WHERE k = 1")
        run(engine, alice, "COMMIT")
        assert run(engine, bob, "UPDATE h SET v = 20 WHERE k = 1") == 1
        run(engine, bob, "COMMIT")


class TestKeylessInsert:
    """A table without a primary key has no row identity to lock.  Its
    writers used to take table X for everything, which serialised every
    TPC-C payment on ``INSERT INTO history``; an INSERT now takes IX."""

    @staticmethod
    def world():
        engine, alice, bob = row_world()
        carol = EngineSession(session_id=3)
        engine.execute("CREATE TABLE history (who INT, amount INT)", alice)
        for session in (alice, bob):
            run(engine, session, "BEGIN TRANSACTION")
        assert run(engine, alice, "INSERT INTO history VALUES (1, 10)") == 1
        # Under table X this waited for alice's COMMIT.
        assert run(engine, bob, "INSERT INTO history VALUES (2, 20)") == 1
        return engine, alice, bob, carol

    def test_two_open_transactions_insert_without_waiting(self):
        engine, alice, bob, _carol = self.world()
        for session in (alice, bob):
            txn_id = session.current_txn.txn_id
            assert engine.locks.held(txn_id, "history") is IX
            assert engine.locks.row_lock_count(txn_id, "history") == 0
        run(engine, alice, "COMMIT")
        run(engine, bob, "ROLLBACK")
        assert run(engine, alice, "SELECT who FROM history") == [(1,)]

    def test_transactional_select_waits_for_both(self):
        engine, alice, bob, carol = self.world()
        run(engine, carol, "BEGIN TRANSACTION")
        with pytest.raises(LockWaitError):      # table S vs IX, IX
            run(engine, carol, "SELECT count(*) FROM history")
        txn_id = carol.current_txn.txn_id
        assert engine.locks.waiting_for(txn_id) == {
            alice.current_txn.txn_id, bob.current_txn.txn_id}
        run(engine, alice, "COMMIT")
        assert engine.locks.is_waiting(txn_id)  # still behind bob
        run(engine, bob, "COMMIT")
        assert not engine.locks.is_waiting(txn_id)
        assert run(engine, carol,
                   "SELECT count(*) FROM history", ) == [(2,)]
        run(engine, carol, "COMMIT")

    def test_update_and_delete_still_exclude_inserters(self):
        engine, alice, bob, carol = self.world()
        run(engine, carol, "BEGIN TRANSACTION")
        for sql in ("UPDATE history SET amount = 0 WHERE who = 1",
                    "DELETE FROM history WHERE who = 2"):
            with pytest.raises(LockWaitError):  # table X vs IX
                run(engine, carol, sql)
        run(engine, alice, "COMMIT")
        run(engine, bob, "COMMIT")
        assert run(engine, carol,
                   "DELETE FROM history WHERE who = 2") == 1
        # ... and the other way round: X held, the inserter waits.
        run(engine, alice, "BEGIN TRANSACTION")
        with pytest.raises(LockWaitError):
            run(engine, alice, "INSERT INTO history VALUES (3, 30)")
        run(engine, carol, "COMMIT")
        assert run(engine, alice,
                   "INSERT INTO history VALUES (3, 30)") == 1
        run(engine, alice, "COMMIT")


class TestLatencyComponent:
    def test_lock_wait_is_a_ledger_component(self):
        assert "lock_wait" in COMPONENTS

    def test_scheduler_wait_charge_classifies_as_lock_wait(self):
        assert classify(SERVER_CPU, "lock wait") == "lock_wait"
        # Ordinary engine work is untouched.
        assert classify(SERVER_CPU, "row scan") == "engine_execute"


class TestConcurrentTpcc:
    @pytest.fixture(scope="class")
    def mixes(self):
        from repro.workloads.tpcc.concurrent import (
            ConcurrentMix, build_concurrent_world, digest_database)

        out = {}
        for leg in ("serial", "interleaved"):
            server, apps, plans, scale = build_concurrent_world(
                8, CostModel(), txns_per_session=2, items=60,
                customers_per_district=8, initial_orders_per_district=4)
            mix = ConcurrentMix(server, apps, plans, scale)
            result = (mix.run_serial() if leg == "serial"
                      else mix.run_interleaved())
            out[leg] = (result, digest_database(server.engine),
                        dict(server.meter.counters))
        return out

    def test_conflicts_wait_instead_of_retrying(self, mixes):
        result, _digest, counters = mixes["interleaved"]
        assert result.lock_waits > 0
        # A transaction is only ever rerun as a deadlock victim.
        assert result.txn_retries == result.deadlocks \
            == counters.get("locks.deadlocks_detected", 0)
        assert result.lock_waits > result.txn_retries

    def test_all_legs_commit_identical_final_state(self, mixes):
        assert mixes["interleaved"][1] == mixes["serial"][1]
        # And everything actually committed.
        serial = mixes["serial"][0]
        assert serial.committed + serial.rolled_back == 16
        assert mixes["interleaved"][0].committed == serial.committed

    def test_row_leg_counters_recorded(self, mixes):
        counters = mixes["interleaved"][2]
        assert counters.get("locks.row_locks_acquired", 0) > 0
        assert counters.get("locks.lock_wait_seconds", 0) > 0
        # The serial run takes the same kind of locks and never waits.
        serial_counters = mixes["serial"][2]
        assert serial_counters.get("locks.row_locks_acquired", 0) > 0
        assert serial_counters.get("locks.wait_episodes", 0) == 0

    def test_interleaved_runs_are_reproducible(self, mixes):
        from repro.workloads.tpcc.concurrent import (
            ConcurrentMix, build_concurrent_world, digest_database)

        server, apps, plans, scale = build_concurrent_world(
            8, CostModel(), txns_per_session=2, items=60,
            customers_per_district=8, initial_orders_per_district=4)
        mix = ConcurrentMix(server, apps, plans, scale)
        result = mix.run_interleaved()
        reference = mixes["interleaved"][0]
        assert result.makespan_seconds == reference.makespan_seconds
        assert digest_database(server.engine) == mixes["interleaved"][1]


# ---------------------------------------------------------------------------
# Lock what you seek: the read set of an IN-list statement
# ---------------------------------------------------------------------------


def cost_mode_tpcc(num_sessions: int = 8, **sizes):
    """The concurrent TPC-C world, default configuration, with the
    statistics it plans from."""
    from repro.workloads.tpcc.concurrent import build_concurrent_world

    sizes = {"txns_per_session": 2, "items": 60,
             "customers_per_district": 8,
             "initial_orders_per_district": 4, **sizes}
    server, apps, plans, scale = build_concurrent_world(
        num_sessions, CostModel(), **sizes)
    apps[0].run_statement("ANALYZE")
    return server, apps, plans, scale


class TestInListReadSet:
    ITEMS = (3, 17, 17, 41, 58)
    NEW_ORDER = ("SELECT i_id, i_price, s_quantity FROM item, stock "
                 "WHERE s_w_id = 1 AND s_i_id = i_id AND i_id IN ({})")

    def test_new_order_locks_the_rows_it_returns(self):
        server, _apps, _plans, _scale = cost_mode_tpcc()
        engine = server.engine
        alice, bob = EngineSession(session_id=901), \
            EngineSession(session_id=902)
        distinct = sorted(set(self.ITEMS))
        run(engine, alice, "BEGIN TRANSACTION")
        rows = run(engine, alice, self.NEW_ORDER.format(
            ", ".join(str(i) for i in self.ITEMS)))
        assert [r[0] for r in rows] == distinct
        txn_id = alice.current_txn.txn_id
        # One row S lock per distinct list item, on each table — not the
        # 60 items and 60 stock rows of the warehouse.
        assert engine.locks.row_lock_count(txn_id, "item") == len(distinct)
        assert engine.locks.row_lock_count(txn_id, "stock") == len(distinct)
        for i_id in distinct:
            assert engine.locks.row_holders("item", (i_id,)) == {txn_id: S}
            assert engine.locks.row_holders("stock", (1, i_id)) == \
                {txn_id: S}
        # Another session updates a different stock row of the same
        # warehouse without waiting; a row alice read still blocks.
        run(engine, bob, "BEGIN TRANSACTION")
        assert run(engine, bob, "UPDATE stock SET s_quantity = 9 "
                                "WHERE s_w_id = 1 AND s_i_id = 4") == 1
        with pytest.raises(LockWaitError):
            run(engine, bob, "UPDATE stock SET s_quantity = 9 "
                             "WHERE s_w_id = 1 AND s_i_id = 17")
        run(engine, bob, "ROLLBACK")
        run(engine, alice, "COMMIT")

    def test_heuristic_plan_still_locks_what_it_scans(self):
        """A list the planner must leave to the Filter (its operand is
        no bare column) is read by a scan — the plan the FROM-order
        planner this test is named after made of every list — and a
        scan locks every row it reads: the probe fires before any
        Filter."""
        server, _apps, _plans, _scale = cost_mode_tpcc()
        engine = server.engine
        alice = EngineSession(session_id=901)
        run(engine, alice, "BEGIN TRANSACTION")
        rows = run(engine, alice,
                   self.NEW_ORDER.replace("i_id IN", "i_id + 0 IN")
                   .format("3, 17"))
        assert [r[0] for r in rows] == [3, 17]
        txn_id = alice.current_txn.txn_id
        # A SeqScan of item, the s_w_id prefix of stock.
        assert engine.locks.row_lock_count(txn_id, "item") == 60
        assert engine.locks.row_lock_count(txn_id, "stock") == 60
        run(engine, alice, "ROLLBACK")

    def test_interleaved_cost_mode_matches_serial_digests(self):
        from repro.workloads.tpcc.concurrent import (ConcurrentMix,
                                                     digest_database)

        digests, results = {}, {}
        for leg in ("serial", "interleaved"):
            server, apps, plans, scale = cost_mode_tpcc()
            mix = ConcurrentMix(server, apps, plans, scale)
            results[leg] = (mix.run_serial() if leg == "serial"
                            else mix.run_interleaved())
            digests[leg] = digest_database(server.engine)
            assert server.meter.counters["optimizer.in_list_seeks"] > 0
            assert server.meter.counters["optimizer.in_list_transfers"] > 0
        assert digests["interleaved"] == digests["serial"]
        assert results["interleaved"].committed == \
            results["serial"].committed
        assert results["serial"].committed \
            + results["serial"].rolled_back == 16


# ---------------------------------------------------------------------------
# The lock manager's decisions are the parent commit's, event for event
# ---------------------------------------------------------------------------


def lock_trace(monkeypatch, scenario) -> list:
    """Every state change and every refusal of the lock manager while
    ``scenario()`` runs: grants (with the mode held afterwards),
    conflicts (with the message, which names holders, queue position
    and victims) and releases (with the transactions each one handed a
    lock to) — not the requests already covered, which change
    nothing."""
    events: list = []
    originals = {name: getattr(LockManager, name)
                 for name in ("acquire", "acquire_row", "release_all")}

    def acquire(self, txn_id, table_name, mode):
        before = self.held(txn_id, table_name)
        try:
            originals["acquire"](self, txn_id, table_name, mode)
        except (LockWaitError, DeadlockError) as exc:
            events.append(("refused", txn_id, table_name.lower(), None,
                           mode.value, type(exc).__name__, str(exc)))
            raise
        after = self.held(txn_id, table_name)
        if after is not before:
            events.append(("table", txn_id, table_name.lower(),
                           after.value))

    def acquire_row(self, txn_id, table_name, key, mode):
        before = (self.held(txn_id, table_name),
                  self.row_holders(table_name, key).get(txn_id))
        try:
            originals["acquire_row"](self, txn_id, table_name, key, mode)
        except (LockWaitError, DeadlockError) as exc:
            events.append(("refused", txn_id, table_name.lower(), key,
                           mode.value, type(exc).__name__, str(exc)))
            raise
        after = (self.held(txn_id, table_name),
                 self.row_holders(table_name, key).get(txn_id))
        if after != before:
            events.append(("row", txn_id, table_name.lower(), key,
                           after[0].value if after[0] else None,
                           after[1].value if after[1] else None))

    def release_all(self, txn_id):
        count = self.row_lock_count(txn_id)
        unblocked = originals["release_all"](self, txn_id)
        events.append(("release", txn_id, count, tuple(unblocked)))
        return unblocked

    monkeypatch.setattr(LockManager, "acquire", acquire)
    monkeypatch.setattr(LockManager, "acquire_row", acquire_row)
    monkeypatch.setattr(LockManager, "release_all", release_all)
    scenario()
    return events


def trace_digest(events: list) -> tuple[int, str]:
    """(event count, SHA-256).  A statement requests its tables' locks in
    the iteration order of a *set* of names, which moves with the
    process's string-hash seed; each run of adjacent table grants of one
    transaction is therefore sorted first."""
    import hashlib
    from itertools import groupby

    canonical: list = []
    for _key, run_ in groupby(
            events, key=lambda e: e[:2] if e[0] == "table" else id(e)):
        canonical.extend(sorted(run_))
    return len(canonical), hashlib.sha256(
        "\n".join(repr(e) for e in canonical).encode()).hexdigest()


class TestLockTraceUnchanged:
    """Golden digests of the lock manager's decisions, event for event.
    Recorded at 2739a94 and held through PRs 15-17; re-recorded once, in
    the PR that moved waiting into the lock manager, because that PR
    changed the decisions themselves — both digests moved, for these
    reasons and no others:

    * *grant on release*: a waiter gets its lock from the release that
      frees it (the ``release`` event now lists whom it unblocked), so
      the waiter's next request is already covered and records nothing —
      four ``row`` events fewer in the directed scenarios;
    * *FIFO queues*: a request also waits for incompatible requests
      ahead of it, and refusal messages say so (``queued behind txn
      N``); victims are named for every cycle the request closed
      (``deadlock broken by aborting txns 2, 3``), not just the first;
    * in the interleaved mix a blocked statement is held by the server
      and runs again once — the hundreds of ``refused`` events of a
      statement re-polling behind the same holder are gone, and the
      schedule that follows differs with them (1 359 events -> 1 142);
    * an ``INSERT`` into the primary-key-less ``history`` takes table IX
      where it took X.

    The recorder itself is unchanged but for the ``release`` event's
    new last field.

    The directed digest was re-recorded a second time when the no-wait
    table regime and lock escalation were deleted: the three escalation
    scenarios left the list (16 events) and the bare manager's refusal
    in ``TestConflictReporting`` became a queued ``LockWaitError`` —
    the other 139 events hash as before.  The interleaved mix did not
    move.

    The interleaved digest was re-recorded when ``paper()`` got the one
    planner (the planner step of the re-baseline, not the fold step):
    new-order's item list is sought key by key on ``item`` and ``stock``
    where the FROM-order plan scanned and locked all 60 rows of each, so
    the same 16 transactions record 619 events instead of 1 142.  The
    directed digest did not move.

    Both digests were re-recorded when every CREATE and DROP started
    taking X on the table its catalog record names:
    the engine scenarios' ``CREATE TABLE acct`` adds one ``table``
    grant each (seven events, 141 -> 148), and so do the interleaved
    world's nine CREATE TABLEs and two CREATE INDEXes (eleven events,
    619 -> 630).  In both, the other events are the same events in the
    same order."""

    def test_directed_scenarios(self, monkeypatch):
        """Every lock-manager and engine scenario of this file."""
        def scenario():
            for cls in (TestModeAlgebra, TestConflictReporting,
                        TestDeadlockDetection, TestRowModeEngine):
                for name in sorted(vars(cls)):
                    if name.startswith("test_"):
                        getattr(cls(), name)()

        assert trace_digest(lock_trace(monkeypatch, scenario)) == (
            148, "6cb2c911df3d2f58b2a87ca821dd9938"
                 "40dbc3d4cb173b10d6e4ed1ce6edbab5")

    def test_interleaved_tpcc(self, monkeypatch):
        from repro.workloads.tpcc.concurrent import (ConcurrentMix,
                                                     build_concurrent_world)

        def scenario():
            # paper(): the digest below is that configuration's.
            server, apps, plans, scale = build_concurrent_world(
                8, CostModel.paper(), txns_per_session=2, items=60,
                customers_per_district=8, initial_orders_per_district=4)
            ConcurrentMix(server, apps, plans, scale).run_interleaved()

        assert trace_digest(lock_trace(monkeypatch, scenario)) == (
            630, "a71c6ee79d4c73dd1ab3d0c6b57470d5"
                 "a97766132ced0a6f42907b0c1e06b379")
