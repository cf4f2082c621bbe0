"""Where waiting lives: the lock manager's FIFO queues, and the statements
the server holds behind them.

Two halves.  A hypothesis state machine drives random acquire / upgrade
/ poll / switch / withdraw / commit sequences of up to six transactions
over three rows and their table against a brute-force model of the
queue discipline, and checks after every call that the lock manager *is*
the model (same holders, same queues in the same order, same blockers),
that its wait-for graph is acyclic, and that what ``release_all``
reports is exactly who was unblocked.  The directed tests then go
through the whole stack — Phoenix sessions over the wire — and pin what
a held statement costs, how it ends, and what it leaves in the books.
"""

import itertools

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
)

from repro.errors import DeadlockError, LockWaitError, ReproError
from repro.odbc.constants import (
    SQL_ERROR,
    SQL_STILL_EXECUTING,
    SQL_SUCCESS,
)
from repro.phoenix.config import PhoenixConfig
from repro.server.server import DatabaseServer
from repro.sim.costs import CostModel
from repro.sim.meter import Meter
from repro.txn.locks import LockManager, LockMode
from repro.workloads.app import BenchmarkApp

# ---------------------------------------------------------------------------
# The model: thirty lines of queue discipline, nothing shared with the code
# ---------------------------------------------------------------------------

COMPATIBLE = {("IS", "IS"), ("IS", "IX"), ("IS", "S"), ("IX", "IS"),
              ("IX", "IX"), ("S", "IS"), ("S", "S")}
STRENGTH = {"IS": {"IS"}, "IX": {"IX", "IS"}, "S": {"S", "IS"},
            "X": {"X", "S", "IX", "IS"}}
TABLE = "t"
ROWS = [("t", (key,)) for key in range(3)]


def supremum(held, mode):
    if held is None or mode in STRENGTH[held]:
        return held or mode
    return mode if held in STRENGTH[mode] else "X"


class Model:
    def __init__(self):
        self.held = {res: {} for res in [TABLE, *ROWS]}
        self.queues = {res: [] for res in [TABLE, *ROWS]}  # (txn, mode, upgrade)

    def entry_of(self, txn):
        return next(((res, e) for res, q in self.queues.items()
                     for e in q if e[0] == txn), None)

    def blockers(self, res, entry):
        txn, mode, _ = entry
        ahead = self.queues[res][:self.queues[res].index(entry)]
        return ({o for o, m in self.held[res].items()
                 if o != txn and (m, mode) not in COMPATIBLE}
                | {o for o, m, _ in ahead if (m, mode) not in COMPATIBLE})

    def request(self, txn, res, mode):
        """'covered', 'granted' or 'waiting'."""
        held = self.held[res].get(txn)
        if held is not None and mode in STRENGTH[held]:
            return "covered"
        needed = supremum(held, mode)
        queued = self.entry_of(txn)
        if queued is not None and queued != (res, (txn, needed, queued[1][2])):
            self.withdraw(txn)
            queued = None
        if queued is None:
            queue, upgrade = self.queues[res], held is not None
            at = (sum(1 for _ in itertools.takewhile(lambda e: e[2], queue))
                  if upgrade else len(queue))
            queue.insert(at, (txn, needed, upgrade))
        return "granted" if txn in self.serve() else "waiting"

    def serve(self):
        """Grant until nothing more can be; returns who got a lock."""
        granted = []
        progress = True
        while progress:
            progress = False
            for res, queue in self.queues.items():
                for entry in list(queue):
                    if not self.blockers(res, entry):
                        queue.remove(entry)
                        self.held[res][entry[0]] = entry[1]
                        granted.append(entry[0])
                        progress = True
        return granted

    def withdraw(self, txn):
        for queue in self.queues.values():
            queue[:] = [e for e in queue if e[0] != txn]
        return self.serve()

    def release(self, txn):
        for holders in self.held.values():
            holders.pop(txn, None)
        return self.withdraw(txn)

    def edges(self):
        return {e[0]: self.blockers(res, e)
                for res, q in self.queues.items() for e in q}

    def cycles_through(self, start):
        """Every simple wait-for cycle through ``start``."""
        edges, found = self.edges(), []

        def walk(node, path):
            for nxt in edges.get(node, ()):
                if nxt == start:
                    found.append(path)
                elif nxt not in path:
                    walk(nxt, path + [nxt])

        walk(start, [start])
        return found


# ---------------------------------------------------------------------------
# The state machine
# ---------------------------------------------------------------------------

MODES = {mode.value: mode for mode in LockMode}
SLOTS = st.integers(min_value=0, max_value=5)


class QueuesFollowTheModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.locks = LockManager(meter=Meter())
        self.locks.on_victim = self.abort_victim
        self.model = Model()
        self.ids = itertools.count(1)
        self.live = []           # txn ids, oldest first
        self.requester = None    # whose request is being registered
        self.victims = []

    # -- helpers ------------------------------------------------------------

    def abort_victim(self, victim):
        """The detector's callback: check its choice against the model,
        then abort in both worlds."""
        cycles = [c for c in self.model.cycles_through(self.requester)
                  if victim in c]
        assert cycles, f"txn {victim} is on no cycle through the requester"
        assert any(max(c) == victim for c in cycles), (
            f"victim {victim} is not the youngest of any of {cycles}")
        self.victims.append(victim)
        self.model.release(victim)
        self.locks.release_all(victim)
        self.live.remove(victim)

    def txn(self, slot):
        while len(self.live) <= slot:
            self.live.append(next(self.ids))
        return self.live[slot]

    def waiting(self, txn):
        return self.model.entry_of(txn) is not None

    def ask(self, txn, res, mode):
        """One request through both worlds, outcomes compared."""
        predicted = self.model.request(txn, res, mode)
        self.requester, self.victims = txn, []
        try:
            if res == TABLE:
                self.locks.acquire(txn, TABLE, MODES[mode])
            else:
                self.locks.acquire_row(txn, res[0], res[1], MODES[mode])
            outcome = "granted"
        except LockWaitError as wait:
            assert wait.txn_id == txn
            outcome = "waiting"
        except DeadlockError:
            # The requester was the youngest of a cycle: its request is
            # withdrawn; the engine then aborts it, and so do we.
            cycles = self.model.cycles_through(txn)
            assert any(max(c) == txn for c in cycles), cycles
            self.model.release(txn)
            self.locks.release_all(txn)
            self.live.remove(txn)
            return
        if predicted == "covered":
            assert outcome == "granted" and not self.victims
        elif self.victims:
            # Always unwinds after an abort, granted or not (the
            # statement re-reads); the state check below does the rest.
            assert outcome == "waiting"
        else:
            assert outcome == predicted

    # -- rules --------------------------------------------------------------

    @rule(slot=SLOTS, mode=st.sampled_from(["IS", "IX", "S", "X"]))
    def lock_table(self, slot, mode):
        txn = self.txn(slot)
        if not self.waiting(txn):
            self.ask(txn, TABLE, mode)

    @rule(slot=SLOTS, row=st.sampled_from(ROWS),
          mode=st.sampled_from(["S", "X"]))
    def lock_row(self, slot, row, mode):
        """A row request behind its intention lock, as the engine asks."""
        txn = self.txn(slot)
        if self.waiting(txn):
            return
        intent = "IS" if mode == "S" else "IX"
        self.ask(txn, TABLE, intent)
        if txn not in self.live or self.waiting(txn):
            return
        if mode in STRENGTH[self.model.held[TABLE][txn]]:
            # A table S/X subsumes the row lock: nothing is recorded.
            before = self.locks.row_holders(*row)
            self.locks.acquire_row(txn, row[0], row[1], MODES[mode])
            assert self.locks.row_holders(*row) == before
            return
        self.ask(txn, row, mode)

    @rule(slot=SLOTS)
    def poll(self, slot):
        """The same request again keeps its place and still waits."""
        txn = self.txn(slot)
        queued = self.model.entry_of(txn)
        if queued is None:
            return
        res, (_txn, mode, _upgrade) = queued
        before = [repr(r) for r in self.locks.queued()]
        self.ask(txn, res, mode)
        if txn in self.live and not self.victims:
            assert [repr(r) for r in self.locks.queued()] == before

    @rule(slot=SLOTS, row=st.sampled_from(ROWS))
    def switch(self, slot, row):
        """A queued transaction asks for something else: the old request
        is withdrawn, those behind it are served."""
        txn = self.txn(slot)
        if self.waiting(txn) and "IX" in STRENGTH.get(
                self.model.held[TABLE].get(txn), ()):
            self.ask(txn, row, "X")

    @rule(slot=SLOTS)
    def withdraw(self, slot):
        txn = self.txn(slot)
        expected = self.model.withdraw(txn)
        assert sorted(self.locks.withdraw(txn)) == sorted(expected)

    @rule(slot=SLOTS)
    def finish(self, slot):
        """Commit or abort: everything goes, the queues are served, and
        the report names exactly the transactions that got their lock."""
        txn = self.txn(slot)
        wanted = {t: self.model.entry_of(t) for t in self.live}
        expected = self.model.release(txn)
        unblocked = self.locks.release_all(txn)
        self.live.remove(txn)
        assert sorted(unblocked) == sorted(expected)
        assert len(set(unblocked)) == len(unblocked)
        for other in unblocked:
            # No spurious wake-up: it can take what it waited for.
            res, (_txn, mode, _upgrade) = wanted[other]
            if res == TABLE:
                self.locks.acquire(other, TABLE, MODES[mode])
            else:
                self.locks.acquire_row(other, res[0], res[1], MODES[mode])
        assert not self.locks.is_waiting(txn)
        assert all(r.txn_id != txn for r in self.locks.queued())

    # -- after every call ------------------------------------------------------

    @invariant()
    def lock_manager_is_the_model(self):
        locks, model = self.locks, self.model
        assert {t: m.value for t, m in locks.holders(TABLE).items()} \
            == model.held[TABLE]
        for row in ROWS:
            assert {t: m.value for t, m
                    in locks.row_holders(*row).items()} == model.held[row]
        queues = {res: [] for res in model.queues}
        for request in locks.queued():
            queues[request.resource].append(
                (request.txn_id, request.mode.value, request.upgrade))
        # Arrival order among fresh requests, upgrades first.
        assert queues == model.queues

    @invariant()
    def nobody_waits_for_nothing(self):
        """No lost wake-up: a queued request has a blocker — and the
        blockers are the model's (holders + earlier waiters)."""
        for res, queue in self.model.queues.items():
            for entry in queue:
                blockers = self.model.blockers(res, entry)
                assert blockers, f"{entry} on {res} waits for nobody"
                assert self.locks.waiting_for(entry[0]) == blockers
        for txn in self.live:
            if not self.waiting(txn):
                assert self.locks.waiting_for(txn) is None

    @invariant()
    def wait_for_graph_is_acyclic(self):
        """Detection ran to a fixed point: no cycle is left, through
        anyone."""
        for txn in self.live:
            assert not self.model.cycles_through(txn), (
                f"cycle left through txn {txn}: "
                f"{self.model.cycles_through(txn)}")


QueuesFollowTheModel.TestCase.settings = settings(
    max_examples=120, stateful_step_count=40, deadline=None)
TestQueuesFollowTheModel = QueuesFollowTheModel.TestCase


# ---------------------------------------------------------------------------
# Directed lock-manager cases
# ---------------------------------------------------------------------------

IS, IX, S, X = (LockMode.INTENT_SHARED, LockMode.INTENT_EXCLUSIVE,
                LockMode.SHARED, LockMode.EXCLUSIVE)


def row_locks() -> LockManager:
    return LockManager(meter=Meter())


def refused(locks, txn, key, mode):
    with pytest.raises(LockWaitError):
        locks.acquire_row(txn, "t", key, mode)


class TestQueueDiscipline:
    def test_release_grants_in_arrival_order(self):
        locks = row_locks()
        for txn in (1, 2, 3, 4):
            locks.acquire(txn, "t", IX)
        locks.acquire_row(1, "t", ("k",), X)
        for txn in (2, 3, 4):
            refused(locks, txn, ("k",), X)
        assert locks.release_all(1) == [2]
        assert locks.row_holders("t", ("k",)) == {2: X}
        assert locks.release_all(2) == [3]
        assert locks.release_all(3) == [4]

    def test_fresh_reader_does_not_pass_a_queued_writer(self):
        locks = row_locks()
        for txn in (1, 2, 3):
            locks.acquire(txn, "t", IX)
        locks.acquire_row(1, "t", ("k",), S)
        refused(locks, 2, ("k",), X)
        # Compatible with the holder — but not with the waiter ahead.
        refused(locks, 3, ("k",), S)
        assert locks.waiting_for(3) == {2}
        assert locks.release_all(1) == [2]
        assert locks.release_all(2) == [3]

    def test_upgrade_is_served_before_fresh_requests(self):
        locks = row_locks()
        for txn in (1, 2, 3):
            locks.acquire(txn, "t", IX)
        locks.acquire_row(1, "t", ("k",), S)
        locks.acquire_row(2, "t", ("k",), S)
        refused(locks, 3, ("k",), X)        # fresh: waits for 1 and 2
        refused(locks, 1, ("k",), X)        # upgrade: waits for 2 only
        assert [r.txn_id for r in locks.queued()] == [1, 3]
        assert locks.waiting_for(1) == {2}
        assert locks.waiting_for(3) == {1, 2}
        assert locks.release_all(2) == [1]
        assert locks.row_holders("t", ("k",)) == {1: X}

    def test_compatible_request_passes_a_waiter(self):
        locks = row_locks()
        locks.acquire(1, "t", IX)
        with pytest.raises(LockWaitError):
            locks.acquire(2, "t", S)
        locks.acquire(3, "t", IS)  # IS || IX (held) and IS || S (queued)
        assert locks.held(3, "t") is IS

    def test_every_cycle_through_the_requester_is_broken(self):
        """One request closes two cycles; the old detector broke one per
        request and left the other to the requester's next poll."""
        aborted = []
        locks = row_locks()
        locks.on_victim = lambda t: (aborted.append(t),
                                     locks.release_all(t))
        for txn in (1, 2, 3):
            locks.acquire(txn, "t", IX)
        locks.acquire_row(1, "t", ("a",), X)
        locks.acquire_row(2, "t", ("k",), S)
        locks.acquire_row(3, "t", ("k",), S)
        refused(locks, 2, ("a",), X)       # 2 -> 1
        refused(locks, 3, ("a",), X)       # 3 -> 1 (and behind 2)
        with pytest.raises(LockWaitError) as info:
            locks.acquire_row(1, "t", ("k",), X)   # 1 -> 2, 1 -> 3
        assert aborted == [2, 3]
        assert "aborting txns 2, 3" in str(info.value)
        assert not locks.is_waiting(1)             # and holds the row
        assert locks.row_holders("t", ("k",)) == {1: X}
        assert locks._meter.counters["locks.deadlocks_detected"] == 2

    def test_withdraw_serves_those_behind(self):
        locks = row_locks()
        for txn in (1, 2, 3):
            locks.acquire(txn, "t", IX)
        locks.acquire_row(1, "t", ("k",), S)
        refused(locks, 2, ("k",), X)
        refused(locks, 3, ("k",), S)
        assert locks.withdraw(2) == [3]
        assert locks.row_holders("t", ("k",)) == {1: S, 3: S}
        assert locks.withdraw(2) == []

    def test_counters(self):
        locks = row_locks()
        counters = locks._meter.counters
        locks.acquire(1, "t", IX)
        locks.acquire(2, "t", IX)
        locks.acquire_row(1, "t", ("k",), X)
        refused(locks, 2, ("k",), X)
        refused(locks, 2, ("k",), X)       # a poll is not a new episode
        assert counters["locks.wait_episodes"] == 1
        locks.release_all(1)
        assert counters["locks.grants_on_release"] == 1


# ---------------------------------------------------------------------------
# Through the stack: Phoenix sessions, the wire, the server
# ---------------------------------------------------------------------------


def phoenix_world(sessions: int = 2, ledger: bool = False,
                  phoenix: bool = True, costs: CostModel | None = None):
    meter = Meter(costs)
    if ledger:
        meter.enable_latency_ledger()
    server = DatabaseServer(meter=meter)
    setup = BenchmarkApp(server)
    setup.run_statement("CREATE TABLE acct (k INT NOT NULL, v INT, "
                        "PRIMARY KEY (k))")
    setup.run_statement("INSERT INTO acct VALUES (0, 100), (1, 200), "
                        "(2, 300)")
    # Small results are read into the client cache (§4), so a SELECT is
    # one execute on the application's own handle.
    apps = [BenchmarkApp(server, use_phoenix=phoenix,
                         phoenix_config=PhoenixConfig(client_cache_rows=50),
                         login=f"app-{i}") for i in range(sessions)]
    return server, apps


def execute(app, sql, statement=None):
    """(rc, statement) of one ``exec_direct``."""
    if statement is None:
        statement = app.manager.alloc_statement(app.conn)
    return app.manager.exec_direct(statement, sql), statement


def done(app, sql):
    rc, statement = execute(app, sql)
    assert rc == SQL_SUCCESS, app.manager.get_diag(statement)
    app.manager.free_statement(statement)


def sqlstate(app, statement):
    return app.manager.get_diag(statement)[-1].sqlstate


def requests_sent(server_apps):
    return sum(app.network.requests_sent for app in server_apps)


def blocked_update(ledger: bool = False, phoenix: bool = True):
    """Alice holds row 1; Bob's UPDATE of it is held by the server."""
    server, (alice, bob) = phoenix_world(ledger=ledger, phoenix=phoenix)
    done(alice, "BEGIN TRANSACTION")
    done(alice, "UPDATE acct SET v = v + 1 WHERE k = 1")
    done(bob, "BEGIN TRANSACTION")
    rc, statement = execute(bob, "UPDATE acct SET v = v + 10 WHERE k = 1")
    assert rc == SQL_STILL_EXECUTING
    assert bob.manager.get_diag(statement) == []   # not an error
    return server, alice, bob, statement


UPDATE = "UPDATE acct SET v = v + 10 WHERE k = 1"


class TestHeldStatement:
    @pytest.mark.parametrize("phoenix", [True, False])
    def test_poll_of_a_blocked_statement_is_free(self, phoenix):
        server, alice, bob, statement = blocked_update(phoenix=phoenix)
        meter = server.meter
        assert bob.manager.still_executing(statement)
        sent, now = requests_sent([alice, bob]), meter.now
        counters = dict(meter.counters)
        for _ in range(3):
            rc, _ = execute(bob, UPDATE, statement)
            assert rc == SQL_STILL_EXECUTING
        assert requests_sent([alice, bob]) == sent
        assert meter.now == now
        assert dict(meter.counters) == counters

    @pytest.mark.parametrize("phoenix", [True, False])
    def test_rerun_pays_execution_only(self, phoenix):
        server, alice, bob, statement = blocked_update(phoenix=phoenix)
        meter = server.meter
        done(alice, "COMMIT")
        assert not bob.manager.still_executing(statement)
        sent = bob.network.requests_sent
        sink = meter.push_recorder()
        rc, _ = execute(bob, UPDATE, statement)
        segments = meter.pop_recorder(sink)
        assert rc == SQL_SUCCESS
        assert bob.manager.row_count(statement) == 1
        notes = [segment.note for segment in segments]
        assert "statement parse/plan" not in notes
        assert "request" not in notes          # no second uplink
        assert "phoenix parse" not in notes    # no second classification
        assert "response" in notes             # the one downlink
        assert bob.network.requests_sent == sent
        done(bob, "COMMIT")
        assert bob.query_rows("SELECT v FROM acct WHERE k = 1") == [(211,)]
        counters = meter.counters
        assert counters["locks.wait_episodes"] == 1
        assert counters["locks.grants_on_release"] == 1
        assert counters.get("locks.requeues", 0) == 0
        assert counters["locks.lock_wait_seconds"] > 0

    def test_ledger_books_the_wait_and_still_adds_up(self):
        server, alice, bob, statement = blocked_update(ledger=True)
        ledger = server.meter.latency
        done(alice, "SELECT v FROM acct WHERE k = 0")  # time passes
        done(alice, "COMMIT")
        held_since = ledger.closed
        rc, _ = execute(bob, UPDATE, statement)
        assert rc == SQL_SUCCESS
        entry = list(ledger.entries)[held_since]
        assert entry.kind == "ExecuteRequest"
        assert entry.components["lock_wait"] > 0
        assert entry.components["net_uplink"] > 0
        assert entry.components["net_downlink"] > 0
        # One parse, however often the statement ran.
        assert float(entry.components["parse_plan"]) == \
            server.meter.costs.cpu_per_statement_seconds
        assert entry.identity_holds()
        assert ledger.identity_violations == []
        assert ledger.opened == ledger.closed

    def test_requeue_is_counted_and_held_again(self):
        server, apps = phoenix_world(sessions=3)
        alice, bob, carol = apps
        done(alice, "BEGIN TRANSACTION")
        done(alice, "UPDATE acct SET v = 1 WHERE k = 1")
        done(carol, "BEGIN TRANSACTION")
        done(carol, "UPDATE acct SET v = 2 WHERE k = 2")
        done(bob, "BEGIN TRANSACTION")
        both = "UPDATE acct SET v = v + 10 WHERE k >= 1"
        rc, statement = execute(bob, both)
        assert rc == SQL_STILL_EXECUTING          # behind alice, row 1
        done(alice, "COMMIT")
        rc, _ = execute(bob, both, statement)
        assert rc == SQL_STILL_EXECUTING          # now behind carol, row 2
        assert server.meter.counters["locks.requeues"] == 1
        done(carol, "COMMIT")
        rc, _ = execute(bob, both, statement)
        assert rc == SQL_SUCCESS
        assert bob.manager.row_count(statement) == 2
        done(bob, "COMMIT")
        assert server.engine.locks.queued() == []

    def test_victim_while_held_gets_40001_at_once(self):
        server, (alice, bob) = phoenix_world()
        done(alice, "BEGIN TRANSACTION")
        done(bob, "BEGIN TRANSACTION")
        done(alice, "UPDATE acct SET v = 1 WHERE k = 1")
        done(bob, "UPDATE acct SET v = 2 WHERE k = 2")
        rc, statement = execute(bob, UPDATE)
        assert rc == SQL_STILL_EXECUTING
        # Alice closes the cycle; Bob, the younger, is the victim.  Her
        # own statement ran again inside the same request.
        done(alice, "UPDATE acct SET v = 3 WHERE k = 2")
        assert not bob.manager.still_executing(statement)
        rc, _ = execute(bob, UPDATE, statement)
        assert rc == SQL_ERROR and sqlstate(bob, statement) == "40001"
        bob.manager.free_statement(statement)
        # Every later statement fails until ROLLBACK.
        for sql in ("SELECT v FROM acct WHERE k = 0", UPDATE):
            rc, later = execute(bob, sql)
            assert rc == SQL_ERROR and sqlstate(bob, later) == "40001"
            bob.manager.free_statement(later)
        done(bob, "ROLLBACK")
        done(alice, "COMMIT")
        assert bob.query_rows("SELECT v FROM acct ORDER BY k") == \
            [(100,), (1,), (3,)]

    def test_free_statement_dequeues(self):
        server, alice, bob, statement = blocked_update()
        locks = server.engine.locks
        assert len(locks.queued()) == 1
        assert bob.manager.free_statement(statement) == SQL_SUCCESS
        assert locks.queued() == []
        assert server.meter.counters["locks.held_statements_cancelled"] == 1
        # Bob's transaction is intact and goes on.
        done(bob, "UPDATE acct SET v = v + 10 WHERE k = 2")
        done(alice, "COMMIT")
        done(bob, "COMMIT")
        assert bob.query_rows("SELECT v FROM acct ORDER BY k") == \
            [(100,), (201,), (310,)]

    def test_another_statement_on_the_connection_dequeues(self):
        server, alice, bob, statement = blocked_update()
        locks = server.engine.locks
        done(bob, "UPDATE acct SET v = v + 10 WHERE k = 2")
        assert locks.queued() == []
        assert server.meter.counters["locks.held_statements_cancelled"] == 1
        # The old handle has nothing outstanding any more: calling it
        # again is a fresh execute, which waits afresh.
        assert not bob.manager.still_executing(statement)
        rc, _ = execute(bob, UPDATE, statement)
        assert rc == SQL_STILL_EXECUTING
        assert len(locks.queued()) == 1
        done(alice, "COMMIT")
        rc, _ = execute(bob, UPDATE, statement)
        assert rc == SQL_SUCCESS
        done(bob, "COMMIT")
        assert bob.query_rows("SELECT v FROM acct ORDER BY k") == \
            [(100,), (211,), (310,)]

    def test_wrapped_autocommit_update_goes_through_rollback_once(self):
        """Outside a transaction the paper's chain wraps the UPDATE in
        four exchanges (BEGIN, statement, status row, COMMIT).  Held
        mid-wrapper, it comes back through the ``wrapper_txn_open`` path:
        one ROLLBACK, then the whole wrapper again.  (The default chain's
        one-exchange wrapper is resumed where it waited instead:
        ``tests/test_script_exchange.py``.)"""
        server, (alice, bob) = phoenix_world(costs=CostModel.paper())
        done(alice, "BEGIN TRANSACTION")
        done(alice, "UPDATE acct SET v = v + 1 WHERE k = 1")
        rc, statement = execute(bob, UPDATE)
        assert rc == SQL_STILL_EXECUTING
        sent = bob.network.requests_sent
        rc, _ = execute(bob, UPDATE, statement)   # still blocked: free
        assert rc == SQL_STILL_EXECUTING
        assert bob.network.requests_sent == sent
        done(alice, "COMMIT")
        counters = server.meter.counters
        before = counters["net.requests.ExecuteRequest"]
        rc, _ = execute(bob, UPDATE, statement)
        assert rc == SQL_SUCCESS
        assert bob.manager.row_count(statement) == 1
        # ROLLBACK + BEGIN + UPDATE + status INSERT + COMMIT.
        assert counters["net.requests.ExecuteRequest"] - before == 5
        assert counters["locks.held_statements_cancelled"] == 1
        assert bob.manager.stats["wrapped_updates"] == 1
        assert bob.query_rows("SELECT v FROM acct WHERE k = 1") == [(211,)]
        # Bob's update's record and Alice's COMMIT's.
        status = bob.query_rows("SELECT count(*) FROM phoenix_status")
        assert status == [(2,)]
        assert server.engine.locks.snapshot() == []

    def test_freeing_a_held_wrapped_update_closes_its_wrapper(self):
        server, (alice, bob) = phoenix_world()
        done(alice, "BEGIN TRANSACTION")
        done(alice, "UPDATE acct SET v = v + 1 WHERE k = 1")
        rc, statement = execute(bob, "UPDATE acct SET v = 0 WHERE k >= 0")
        assert rc == SQL_STILL_EXECUTING
        bob.manager.free_statement(statement)
        holders = {txn for *_rest, txn, _w
                   in server.engine.locks.snapshot()}
        assert len(holders) == 1     # alice only: bob's wrapper is gone
        assert server.engine.locks.queued() == []

    def test_one_call_helpers_name_the_return_code(self):
        server, alice, bob, statement = blocked_update()
        bob.manager.free_statement(statement)
        with pytest.raises(ReproError, match="SQL_STILL_EXECUTING"):
            bob.run_statement(UPDATE)
        with pytest.raises(ReproError, match="SQL_STILL_EXECUTING"):
            bob.query_rows("SELECT v FROM acct WHERE k = 1")
        assert server.engine.locks.queued() == []

    def test_native_autocommit_statement_keeps_its_place(self):
        """No Phoenix, no BEGIN: the statement's own transaction is its
        place in the queue, kept across the wait and committed by the
        re-run."""
        server = DatabaseServer(meter=Meter())
        alice, bob, carol = (BenchmarkApp(server) for _ in range(3))
        alice.run_statement("CREATE TABLE acct (k INT NOT NULL, v INT, "
                            "PRIMARY KEY (k))")
        alice.run_statement("INSERT INTO acct VALUES (1, 200)")
        done(alice, "BEGIN TRANSACTION")
        done(alice, "UPDATE acct SET v = v + 1 WHERE k = 1")
        rc, first = execute(bob, UPDATE)
        rc2, second = execute(carol, "UPDATE acct SET v = v * 2 WHERE k = 1")
        assert rc == rc2 == SQL_STILL_EXECUTING
        assert [r.txn_id for r in server.engine.locks.queued()] == \
            sorted(r.txn_id for r in server.engine.locks.queued())
        done(alice, "COMMIT")
        assert not bob.manager.still_executing(first)
        assert carol.manager.still_executing(second)   # behind bob
        rc, _ = execute(bob, UPDATE, first)
        assert rc == SQL_SUCCESS                       # committed itself
        rc, _ = execute(carol, "UPDATE acct SET v = v * 2 WHERE k = 1",
                        second)
        assert rc == SQL_SUCCESS
        assert alice.query_rows("SELECT v FROM acct") == [((201 + 10) * 2,)]
        assert server.engine.locks.snapshot() == []

    def test_sys_locks_shows_the_queue(self):
        server, alice, bob, statement = blocked_update()
        rows = alice.query_rows(
            "SELECT lock_key, mode, status, queue_position, blockers, "
            "waited_seconds FROM sys_locks WHERE status = 'waiting'")
        assert len(rows) == 1
        key, mode, status, position, blockers, waited = rows[0]
        holder = server.engine.locks.row_holders("acct", (1,))
        assert (key, mode, status, position) == ("(1,)", "X", "waiting", 1)
        assert blockers == ",".join(str(t) for t in holder)
        assert waited > 0
        granted = alice.query_rows(
            "SELECT waiters FROM sys_locks WHERE status = 'granted' "
            "AND lock_key = '(1,)'")
        assert granted == [(str(server.engine.locks.queued()[0].txn_id),)]

    def test_fetch_time_wait_is_hyt00_and_leaves_the_queue(self):
        """A lazy pull cannot be held mid-scan: the result is closed, the
        request leaves the queue, the client executes again."""
        server = DatabaseServer(meter=Meter(CostModel(
            output_buffer_bytes=2048)))
        alice, bob = BenchmarkApp(server), BenchmarkApp(server)
        alice.run_statement("CREATE TABLE wide (k INT NOT NULL, "
                            "pad VARCHAR(400), PRIMARY KEY (k))")
        # Several heap pages: the scan reads (and locks) a page per pull.
        for k in range(60):
            alice.run_statement(f"INSERT INTO wide VALUES ({k}, "
                                f"'{'x' * 400}')")
        done(alice, "BEGIN TRANSACTION")
        done(alice, "UPDATE wide SET pad = 'y' WHERE k = 59")
        done(bob, "BEGIN TRANSACTION")

        def drain():
            rc, statement = execute(bob, "SELECT k, pad FROM wide")
            assert rc == SQL_SUCCESS       # the first buffer is fine
            rows = 0
            while True:
                rc, _row = bob.manager.fetch(statement)
                if rc != SQL_SUCCESS:
                    break
                rows += 1
            state = (sqlstate(bob, statement) if rc == SQL_ERROR else None)
            bob.manager.free_statement(statement)
            return rows, state

        rows, state = drain()
        assert 0 < rows < 59 and state == "HYT00"
        assert server.engine.locks.queued() == []
        done(alice, "COMMIT")
        assert drain() == (60, None)
