"""One seeded schedule, many oracles: the crash harness of the test suite.

A :class:`Schedule` is what a run does, with nothing of how it is
checked: the statements a native session runs first (``setup``), then
its :class:`Step`\\ s, under its :class:`Fault`\\ s.

* A step is a statement one session sends — ``BEGIN TRANSACTION``,
  ``COMMIT``, ``ROLLBACK`` and ``EXEC`` are statements too — or, at the
  engine level, a ``"sharp"`` or ``"fuzzy"`` checkpoint or a
  ``"restart"``.
* A fault hits the ``at``-th request the sessions send, counted over all
  of them, at one of the network's two points: ``"pre"``, before the
  request is dispatched (``SimulatedNetwork.fault_injector``), or
  ``"after"``, once the server applied it and before its response left
  (``after_apply_injector``).  A ``"crash"`` kills and restarts the
  server; a ``"blip"`` loses the exchange with the server up.  Faults
  are addressed by request because how many requests a step sends
  depends on the configuration.

Two interpreters play a schedule:

* :class:`EngineRun` — ``EngineSession``\\ s over one disk and log
  (:class:`EngineWorld`).  A restart is ``wal.crash()`` plus
  ``buffer_pool.crash()``, then ``DatabaseEngine.restart``: the one copy
  of that code under ``tests/``.
* :class:`ClientRun` — Phoenix ``BenchmarkApp``\\ s over the simulated
  network (:class:`ClientWorld`), on either chain.  Steps run in the
  schedule's order, except that a statement the server holds at a lock
  keeps its handle until it has run and its session's later steps wait
  behind it while the others go ahead; a transaction answered with
  40001 is rolled back and replayed from its BEGIN, as an application
  would.

The oracles are plain functions of a finished run; a test passes in the
ones whose claim it checks:

* (i) :func:`committed_state` — the tables equal the committed
  transactions replayed one after another, in commit order, on a fresh
  engine; every index is compared and equals f(heap); one
  recovery-log entry per restart.  Every restart of an
  :class:`EngineWorld` also checks that the DML versions equal a replay
  of the full history.
* (ii) :func:`exactly_once` — the tables equal the writes the
  application saw acknowledged, each applied once (a transaction
  answered with 40001 is absent).
* (iii) only a pause, against the fault-free run of the same schedule:
  :func:`same_results` (delivered results and final tables),
  :func:`same_status` (the status table) and :func:`books_close`
  (spans closed and valid, the latency ledger's identity, one
  recovery-log entry per restart).

Hypothesis strategies (:func:`engine_schedules`,
:func:`client_schedules`) draw and shrink schedules; the sweeps also
play fixed schedules at every fault index, as deterministic loops.
"""

from __future__ import annotations

import copy
import random
from collections import deque
from typing import NamedTuple

from hypothesis import strategies as st

from repro.engine.database import DatabaseEngine
from repro.engine.session import EngineSession
from repro.errors import (
    DeadlockError,
    LockWaitError,
    ReproError,
    RequestTimeoutError,
)
from repro.obs.validate import validate_spans
from repro.odbc.constants import SQL_NO_DATA, SQL_STILL_EXECUTING, SQL_SUCCESS
from repro.phoenix.config import PhoenixConfig
from repro.phoenix_names import PHOENIX_PREFIX
from repro.server.server import DatabaseServer
from repro.sim.costs import CostModel
from repro.sim.meter import Meter
from repro.storage.btree import encode_key
from repro.workloads.app import BenchmarkApp
from tests.dml_version_oracle import (
    HistoryRecorder,
    assert_versions_match_full_history,
)


class Step(NamedTuple):
    """One step: session ``who`` sends ``sql``, or an engine ``action``."""

    who: int = 0
    sql: str = ""
    #: Rows a SELECT fetches; -1 fetches them all.
    fetch: int = -1
    #: Leave the statement allocated (its result open), as an
    #: application that never frees it.
    keep: bool = False
    #: ``"sharp"`` / ``"fuzzy"`` checkpoint or ``"restart"`` (engine).
    action: str = ""


class Fault(NamedTuple):
    """The ``at``-th request (from 1, over every session) fails."""

    at: int
    point: str = "pre"      # "pre": before dispatch; "after": after apply
    kind: str = "crash"     # "crash": server dies and restarts; "blip"


class Schedule(NamedTuple):
    setup: tuple = ()
    steps: tuple = ()
    faults: tuple = ()

    def under(self, *faults: Fault) -> "Schedule":
        return self._replace(faults=faults)


RESTART = Step(action="restart")


def session_steps(who: int, *texts: str, **options) -> list[Step]:
    return [Step(who, sql, **options) for sql in texts]


def _head(sql: str) -> str:
    return sql.lstrip().split(None, 1)[0].upper()


def _sorted(rows) -> list:
    return sorted(rows, key=repr)


def user_tables(engine) -> list[str]:
    return sorted(name for name in engine.catalog.tables
                  if not name.startswith((PHOENIX_PREFIX, "#")))


# ---------------------------------------------------------------------------
# The engine interpreter
# ---------------------------------------------------------------------------


class EngineWorld:
    """An engine whose disk and log outlive its incarnations, and the
    ``EngineSession`` of each session number."""

    def __init__(self, costs: CostModel | None = None, setup=()):
        self.meter = Meter(costs if costs is not None else CostModel())
        self.engine = DatabaseEngine(meter=self.meter)
        self.disk, self.wal = self.engine.disk, self.engine.wal
        # Oracle (i) replays the whole history; the engine keeps none.
        HistoryRecorder(self.wal)
        self.setup = tuple(setup)
        self._sessions: dict[int, EngineSession] = {}
        for sql in self.setup:
            self.run(sql)

    def session(self, who: int = 0) -> EngineSession:
        if who not in self._sessions:
            self._sessions[who] = EngineSession(session_id=who + 1)
        return self._sessions[who]

    def run(self, sql, who: int = 0, params=None):
        """Rows, a row count or None."""
        result = self.engine.execute(sql, self.session(who), params)
        if result.kind == "rows":
            return result.fetch_all()
        if result.kind == "rowcount":
            return result.rowcount
        return None

    def crash(self) -> int:
        """Power cut: the pool and the unforced log tail are lost (their
        record count is returned), the disk and forced log survive."""
        lost = self.wal.crash()
        self.engine.buffer_pool.crash()
        self.engine = None
        self._sessions.clear()
        return lost

    def restart(self, check_versions: bool = True):
        """Restart recovery; returns its report, once the DML versions
        equal a replay of the full history (``check_versions``)."""
        self.engine = DatabaseEngine.restart(self.disk, self.wal,
                                             meter=self.meter)
        if check_versions:
            assert_versions_match_full_history(self.engine)
        return self.engine.last_recovery

    def crash_and_restart(self):
        self.crash()
        return self.restart()

    def fork(self, costs: CostModel) -> "EngineWorld":
        """A copy of this crashed world's disk and log, restarted under
        ``costs`` (this world is left as it is)."""
        other = object.__new__(EngineWorld)
        other.meter = Meter(costs)
        other.disk = copy.deepcopy(self.disk)
        other.wal = copy.deepcopy(self.wal)
        other.wal.attach_meter(other.meter)
        other.setup, other._sessions = self.setup, {}
        other.restart()
        return other

    def contents(self) -> dict:
        """Every durable user table's rows, in a canonical order."""
        return {name: _sorted(self.run(f"SELECT * FROM {name}", who=-1))
                for name in user_tables(self.engine)}


class EngineRun:
    """Plays steps on an :class:`EngineWorld`, keeping the committed
    transactions; the oracles run after every restart and at the end."""

    def __init__(self, world: EngineWorld, oracles=()):
        self.world = world
        self.oracles = oracles
        self.committed: list[list[str]] = []
        self.restarts = 0
        self.restarted = False
        self._open: dict[int, list[str]] = {}

    def play(self, steps) -> "EngineRun":
        """Play ``steps``, roll back what is still open (a read sees
        uncommitted rows: ROADMAP item 16), then check."""
        for step in steps:
            self.step(step)
        for who, session in list(self.world._sessions.items()):
            if session.in_transaction:
                self.step(Step(who, "ROLLBACK"))
        self.check()
        return self

    def check(self) -> None:
        for oracle in self.oracles:
            oracle(self)
        self.restarted = False

    def step(self, step: Step) -> None:
        world = self.world
        if step.action == "restart":
            self.restarts += 1
            world.crash_and_restart()
            self._open.clear()
            self.restarted = True
            self.check()
        elif step.action == "sharp":
            world.engine.checkpoint()
        elif step.action == "fuzzy":
            world.engine.fuzzy_checkpoint(truncate=True)
        else:
            self._statement(step.who, step.sql)

    def _statement(self, who: int, sql: str) -> None:
        """Run ``sql``; a statement that fails has no effect to model."""
        try:
            self.world.run(sql, who)
        except (LockWaitError, DeadlockError) as exc:
            # Nothing here waits: give the transaction up, as a lock
            # timeout would (a queued autocommit statement has one too).
            self._give_up(who, exc)
            return
        except ReproError:
            return
        head = _head(sql)
        if head == "BEGIN":
            self._open[who] = []
        elif head == "COMMIT":
            self.committed.append(self._open.pop(who, []))
        elif head == "ROLLBACK":
            self._open.pop(who, None)
        elif head != "SELECT":
            if who in self._open:
                self._open[who].append(sql)
            else:
                self.committed.append([sql])

    def _give_up(self, who: int, exc) -> None:
        self._open.pop(who, None)
        txns = self.world.engine.txns
        if self.world.session(who).in_transaction \
                or isinstance(exc, DeadlockError):
            self.world.run("ROLLBACK", who)
        waiting = txns.active_transactions.get(getattr(exc, "txn_id", None))
        if waiting is not None:
            txns.abort(waiting)


def assert_indexes_match_heap(engine) -> int:
    """Every materialized B-tree holds exactly its heap's (key, rid)s;
    returns how many trees were compared."""
    checked = 0
    for runtime in engine._tables.values():
        heap_rows = dict(runtime.heap.scan())
        for info in runtime.indexes():
            positions = [runtime.info.column_index(c)
                         for c in info.column_names]
            expected = sorted(
                (encode_key(row[p] for p in positions), rid)
                for rid, row in heap_rows.items())
            actual = sorted(runtime.index_tree(info.name).items())
            assert actual == expected, (
                f"index {info.name} diverged from heap "
                f"{runtime.info.name}")
            checked += 1
    return checked


def replay(setup, transactions) -> dict:
    """The committed-state model: ``transactions`` (statement lists) run
    one after another on a fresh engine; its tables."""
    model = EngineWorld(CostModel(checkpoint_interval_seconds=0.0), setup)
    for statements in transactions:
        for sql in statements:
            model.run(sql)
    return model.contents()


def restarts_logged(meter) -> int:
    """Restart recoveries in the meter's recovery log."""
    return sum(any(phase == "wal_analysis" for phase, _s in entry["phases"])
               for entry in meter.recovery_log)


def committed_state(run: EngineRun) -> None:
    """Oracle (i).  (The DML versions are checked by every restart.)"""
    world = run.world
    contents = world.contents()     # also materializes every runtime
    assert contents == replay(world.setup, run.committed), (
        f"tables diverged from the committed transactions: {contents}")
    # Every table here has a primary key: a tree more than the indexes.
    checked = assert_indexes_match_heap(world.engine)
    assert checked > len(world.engine.catalog.indexes), \
        f"only {checked} index trees compared"
    if run.restarted:
        assert restarts_logged(world.meter) == run.restarts


# ---------------------------------------------------------------------------
# The client interpreter
# ---------------------------------------------------------------------------


class ClientWorld:
    """One server, a native setup session and ``sessions`` Phoenix
    applications, traced and with the latency ledger on."""

    def __init__(self, costs: CostModel, setup=(), sessions: int = 1,
                 cache_rows: int = 0):
        self.meter = Meter(costs)
        self.meter.tracer.enable()
        self.meter.enable_latency_ledger()
        self.server = DatabaseServer(meter=self.meter)
        self.setup = tuple(setup)
        native = BenchmarkApp(self.server)
        for sql in self.setup:
            native.run_statement(sql)
        logins = ["bench"] if sessions == 1 \
            else [f"s{who}" for who in range(sessions)]
        self.apps = [BenchmarkApp(
            self.server, use_phoenix=True, login=login,
            phoenix_config=PhoenixConfig(client_cache_rows=cache_rows))
            for login in logins]
        #: Requests sent / applied, over every session.
        self.sent = self.applied = 0
        #: Faults that found a statement held at a lock.
        self.faults_on_held = 0
        #: ``(requests sent on entry, on return)`` per failure handled.
        self.handled: list[tuple[int, int]] = []
        for app in self.apps:
            self._watch(app.manager)

    def _watch(self, manager) -> None:
        handle_failure = manager._handle_failure

        def watched(vconn, original):
            entered = self.sent
            try:
                return handle_failure(vconn, original)
            finally:
                self.handled.append((entered, self.sent))

        manager._handle_failure = watched

    def arm(self, faults) -> None:
        """Count requests at both points and fire ``faults``."""
        at = {(fault.point, fault.at): fault.kind for fault in faults}

        def fire(kind) -> None:
            if kind == "blip":
                raise RequestTimeoutError("spurious timeout")
            self.faults_on_held += any(
                session.held is not None
                for session in self.server._sessions.values())
            self.server.crash()
            self.server.restart()

        def before(request) -> None:
            self.sent += 1
            if ("pre", self.sent) in at:
                fire(at["pre", self.sent])

        def after(request) -> None:
            self.applied += 1
            if ("after", self.applied) in at:
                fire(at["after", self.applied])

        for app in self.apps:
            app.network.fault_injector = before
            app.network.after_apply_injector = after

    def native_rows(self, sql: str) -> list:
        return BenchmarkApp(self.server).query_rows(sql)

    def contents(self) -> dict:
        return {name: _sorted(self.native_rows(f"SELECT * FROM {name}"))
                for name in user_tables(self.server.engine)}

    def status(self) -> list:
        return self.native_rows("SELECT op_key, rows_affected FROM "
                                "phoenix_status ORDER BY op_key")

    def result_tables(self) -> list[str]:
        """The persisted result tables left on the server."""
        return sorted(name for name in self.server.engine.catalog.tables
                      if name.startswith(f"{PHOENIX_PREFIX}rs_"))


class ClientRun:
    """Plays a schedule on a :class:`ClientWorld` (``arm=False`` leaves
    the network's hooks as the caller set them)."""

    def __init__(self, world: ClientWorld, schedule: Schedule,
                 reference: "ClientRun | None" = None, arm: bool = True):
        self.world = world
        self.steps = list(schedule.steps)
        self.reference = reference
        self.where = f"under {list(schedule.faults)}"
        #: What the application saw, per step (its last attempt).
        self.observed: list = [None] * len(self.steps)
        #: Whether the shared result cache answered, per step.
        self.hits = [False] * len(self.steps)
        #: Writes the application saw acknowledged, one list per
        #: transaction, in acknowledgement order.
        self.acknowledged: list[list[str]] = []
        self.aborts = 0
        if arm:
            world.arm(schedule.faults)
        self._play()

    def check(self, *oracles) -> "ClientRun":
        for oracle in oracles:
            oracle(self)
        return self

    def summary(self) -> tuple:
        """Final tables, status table and persisted result tables
        (memoized: a reference's)."""
        if not hasattr(self, "_summary"):
            self._summary = (self.world.contents(), self.world.status(),
                             self.world.result_tables())
        return self._summary

    def _play(self) -> None:
        apps = self.world.apps
        self._queues = [deque() for _ in apps]
        for index, step in enumerate(self.steps):
            self._queues[step.who].append(index)
        self._prefix: list[list[int]] = [[] for _ in apps]
        self._held: list = [None] * len(apps)
        while True:
            collected = [self._collect_held(who) for who in range(len(apps))
                         if self._held[who] is not None]
            runnable = [who for who, queue in enumerate(self._queues)
                        if queue and self._held[who] is None]
            if runnable:
                who = min(runnable, key=lambda who: self._queues[who][0])
                app = apps[who]
                self._run(who, self._queues[who].popleft(),
                          app.manager.alloc_statement(app.conn))
            elif collected:
                assert any(collected), \
                    f"every session waits: a wake-up was lost {self.where}"
            else:
                return

    def _collect_held(self, who: int) -> bool:
        """Run session ``who``'s held statement again once it is no longer
        executing; False while it is."""
        statement, index = self._held[who]
        if self.world.apps[who].manager.still_executing(statement):
            return False
        self._run(who, index, statement)
        return True

    def _run(self, who: int, index: int, statement) -> None:
        """Step ``index`` of session ``who`` on ``statement``."""
        app = self.world.apps[who]
        manager = app.manager
        step = self.steps[index]
        hits = manager.stats["shared_cache_hits"]
        rc = manager.exec_direct(statement, step.sql)
        self._held[who] = None
        if rc == SQL_STILL_EXECUTING:
            self._held[who] = (statement, index)
            return
        if rc == SQL_SUCCESS:
            outcome = (rc, self._collect(manager, statement, step))
        else:
            diags = manager.get_diag(statement)
            outcome = (rc, diags[-1].sqlstate if diags else "HY000")
        if rc != SQL_SUCCESS or not step.keep:
            manager.free_statement(statement)
        prefix = self._prefix[who]
        if outcome[1] == "40001" and prefix:
            # The transaction died under the application: acknowledge
            # and replay it from its BEGIN.
            self.aborts += 1
            self._quietly(app, "ROLLBACK")
            self._queues[who].extendleft(reversed(prefix + [index]))
            self._prefix[who] = []
            return
        self.observed[index] = outcome
        self.hits[index] = manager.stats["shared_cache_hits"] > hits
        head = _head(step.sql)
        if rc != SQL_SUCCESS:
            if prefix:
                prefix.append(index)
        elif head == "BEGIN":
            self._prefix[who] = [index]
        elif prefix:
            prefix.append(index)
            if head in ("COMMIT", "ROLLBACK"):
                if head == "COMMIT":
                    self.acknowledged.append(self._writes(prefix))
                self._prefix[who] = []
        elif head != "SELECT":
            self.acknowledged.append([step.sql])

    def _writes(self, indexes) -> list[str]:
        return [self.steps[i].sql for i in indexes
                if self.observed[i][0] == SQL_SUCCESS
                and _head(self.steps[i].sql)
                not in ("SELECT", "BEGIN", "COMMIT", "ROLLBACK")]

    @staticmethod
    def _collect(manager, statement, step: Step):
        if _head(step.sql) != "SELECT":
            return manager.row_count(statement)
        rows = []
        while step.fetch < 0 or len(rows) < step.fetch:
            rc, row = manager.fetch(statement)
            if rc != SQL_SUCCESS:
                if rc != SQL_NO_DATA:
                    rows.append(("fetch", rc))
                break
            rows.append(row)
        return rows

    @staticmethod
    def _quietly(app, sql: str) -> None:
        statement = app.manager.alloc_statement(app.conn)
        app.manager.exec_direct(statement, sql)
        app.manager.free_statement(statement)


def exactly_once(run: ClientRun) -> None:
    """Oracle (ii)."""
    world = run.world
    assert world.contents() == replay(world.setup, run.acknowledged), (
        f"the tables are not the acknowledged writes applied once "
        f"{run.where}")


def same_results(run: ClientRun) -> None:
    """Oracle (iii), part 1: delivered results and final tables."""
    assert run.observed == run.reference.observed, \
        f"delivered results diverged {run.where}"
    assert run.world.contents() == run.reference.summary()[0], \
        f"final tables diverged {run.where}"
    # A result table whose drop a failure lost is still owed: dropped
    # after the next recovery, never left behind.  Sessions that replay
    # transactions may number op keys differently, so there the count.
    tables, expected = run.world.result_tables(), run.reference.summary()[2]
    if len(run.world.apps) > 1:
        tables, expected = len(tables), len(expected)
    assert tables == expected, f"result tables diverged {run.where}"


def same_status(run: ClientRun) -> None:
    """Oracle (iii), part 2: the status table.  With one session that
    replayed nothing the op keys too; a replayed transaction's COMMIT
    takes a key of its own, and sessions that replay transactions may
    number them differently, so there the recorded counts."""
    status, expected = run.world.status(), run.reference.summary()[1]
    if len(run.world.apps) > 1 or run.aborts:
        status = sorted(count for _key, count in status)
        expected = sorted(count for _key, count in expected)
    assert status == expected, f"status table diverged {run.where}"


def books_close(run: ClientRun) -> None:
    """Oracle (iii), part 3: observability stays whole.  (Without a
    crash, a cursor a retry abandoned stays open on the surviving
    session, and so does its executor span.)"""
    meter = run.world.meter
    if run.world.server.crashes:
        assert meter.tracer.open_span_count == 0, \
            f"spans leaked open {run.where}"
    errors = validate_spans(meter.tracer.finished)
    assert errors == [], f"span tree invalid {run.where}: {errors[:3]}"
    ledger = meter.latency
    assert ledger.closed > 0 and ledger.identity_violations == [], (
        f"latency accounting identity broken {run.where}: "
        f"{ledger.identity_violations[:3]}")
    assert restarts_logged(meter) == run.world.server.crashes, \
        f"a restart left no recovery-log entry {run.where}"


ONLY_A_PAUSE = (same_results, same_status, books_close)


# ---------------------------------------------------------------------------
# Seeded workloads and Hypothesis strategies
# ---------------------------------------------------------------------------

#: The engine sweeps' table: a primary key, a secondary index and a
#: unique one.
ACCT_SETUP = (
    "CREATE TABLE acct (id INT NOT NULL, owner VARCHAR(16), bal INT, "
    "tag INT, PRIMARY KEY (id))",
    "CREATE INDEX ix_acct_tag ON acct (tag, id)",
    "CREATE UNIQUE INDEX ix_acct_owner ON acct (owner)",
)


def acct_workload(seed: int, ops: int) -> list[str]:
    """A seeded DML mix that churns every index: inserts (sometimes
    reusing a unique owner freed by an earlier delete or owner change),
    non-key and key-changing updates (the unique key included), and
    deletes."""
    rng = random.Random(seed)
    alive: list[int] = []
    owners: dict[int, str] = {}   # id -> current owner value
    used: set[str] = set()        # owners of alive rows
    freed: list[str] = []         # owners released by deletes/updates
    next_id = 0
    statements: list[str] = []
    for _ in range(ops):
        kind = rng.choice(["insert", "insert", "bal", "tag", "owner",
                           "delete"])
        if kind == "insert" or not alive:
            if freed and rng.random() < 0.5:
                owner = freed.pop(rng.randrange(len(freed)))
            else:
                owner = f"own{next_id}"
            statements.append(
                f"INSERT INTO acct VALUES ({next_id}, '{owner}', "
                f"{rng.randint(0, 500)}, {rng.randint(0, 4)})")
            alive.append(next_id)
            owners[next_id] = owner
            used.add(owner)
            next_id += 1
        elif kind == "bal":
            statements.append(
                f"UPDATE acct SET bal = bal + {rng.randint(1, 9)} "
                f"WHERE id = {rng.choice(alive)}")
        elif kind == "tag":
            statements.append(
                f"UPDATE acct SET tag = {rng.randint(0, 4)} "
                f"WHERE id = {rng.choice(alive)}")
        elif kind == "owner":
            victim = rng.choice(alive)
            new_owner = f"own{victim}x"
            if new_owner in used and owners[victim] != new_owner:
                continue  # another row took it — skip, stay unique
            if owners[victim] != new_owner:
                used.discard(owners[victim])
                freed.append(owners[victim])
                owners[victim] = new_owner
                used.add(new_owner)
            statements.append(
                f"UPDATE acct SET owner = '{new_owner}' "
                f"WHERE id = {victim}")
        else:
            victim = rng.choice(alive)
            alive.remove(victim)
            used.discard(owners[victim])
            freed.append(owners.pop(victim))
            statements.append(f"DELETE FROM acct WHERE id = {victim}")
    return statements


#: The client sweeps' table (the drawn schedules give each session its
#: own rows of it).
LEDGER_SETUP = (
    "CREATE TABLE ledger (k INT NOT NULL, v INT, PRIMARY KEY (k))",
    "INSERT INTO ledger VALUES " + ", ".join(
        f"({k}, {k * 10})" for k in range(8)),
)


#: Point reads around the UPDATEs: key 4 is one neither UPDATE touches,
#: key 1 one the first UPDATE does.
UNTOUCHED_SQL = "SELECT v FROM ledger WHERE k = 4"
TOUCHED_SQL = "SELECT v FROM ledger WHERE k = 1"


def ledger_workload(point_reads: bool = False) -> Schedule:
    """A drain, two wrapped updates (a failure-free one is one exchange
    on the default chain, four on the paper's: the sweeps need
    boundaries inside more than one) and an aggregate read twice — with
    the shared result cache on, the second read is a hit, and a crash
    between the two must never make it serve a stale value.  With
    ``point_reads`` two primary-key SELECTs run before the UPDATEs and
    again after them."""
    points = [Step(0, sql, fetch=1, keep=True)
              for sql in (UNTOUCHED_SQL, TOUCHED_SQL)] if point_reads else []
    return Schedule(LEDGER_SETUP, (
        Step(0, "SELECT k, v FROM ledger ORDER BY k", keep=True),
        *points,
        Step(0, "UPDATE ledger SET v = v + 1 WHERE k < 3", keep=True),
        Step(0, "UPDATE ledger SET v = v + 2 WHERE k >= 6", keep=True),
        *points,
        Step(0, "SELECT sum(v) FROM ledger", fetch=1, keep=True),
        Step(0, "SELECT sum(v) FROM ledger", fetch=1, keep=True)))


def ledger_costs(prefetch=False, result_cache=False, redo_workers=0,
                 default=False) -> CostModel:
    """Each flag adds one feature to the paper's configuration, so a
    leg's name says what it fuzzes; ``default`` runs the configuration
    as shipped — every feature at once, checkpoint cadence and parallel
    redo included."""
    if default:
        return CostModel(output_buffer_bytes=16)
    # ``redo_workers >= 1``: every restart opens an overlap window of
    # its own (parallel redo), whatever window the client holds open.
    costs = CostModel.paper(output_buffer_bytes=16,
                            redo_workers=redo_workers)
    if prefetch:
        # Pipelined delivery with a tiny output buffer: every result
        # spans many wire batches, so crashes land between prefetch
        # issue and consumption.
        costs.fetch_ahead_depth = 2
        costs.fetch_batch_max_bytes = 64
        costs.output_buffer_max_bytes = 64
        costs.persist_pipeline = True
    if result_cache:
        costs.result_cache_entries = 64
    return costs


def ledger_run(schedule, cache_rows=0, analyze=False, reference=None,
               **flags) -> ClientRun:
    """``schedule`` on one Phoenix session over ``ledger_costs(**flags)``
    (``analyze``: statistics collected once the ledger is loaded)."""
    setup = schedule.setup + (("ANALYZE",) if analyze else ())
    world = ClientWorld(ledger_costs(**flags), setup, cache_rows=cache_rows)
    return ClientRun(world, schedule, reference)


#: The drawn schedules' table: a composite primary key and an index.
T_SETUP = (
    "CREATE TABLE t (a INT NOT NULL, b INT NOT NULL, v INT, w INT, "
    "PRIMARY KEY (a, b))",
    "CREATE INDEX t_w ON t (w)",
    "INSERT INTO t VALUES (0, 1, 1, 1), (1, 0, 10, 0), (1, 2, 12, 2)",
)


def _engine_statements(who: int):
    """Session ``who``'s statements: DML on the rows whose ``a`` is
    ``who``, and transaction control."""
    b, n, row = st.integers(0, 2), st.integers(0, 9), f"a = {who} AND b = {{}}"
    return st.one_of(
        st.builds(f"INSERT INTO t VALUES ({who}, {{}}, {{}}, {{}})".format,
                  b, n, b),
        st.builds(f"DELETE FROM t WHERE {row}".format, b),
        st.builds(f"UPDATE t SET v = v + {{}} WHERE {row}".format, n, b),
        st.builds(f"UPDATE t SET w = {{}} WHERE {row}".format, b, b),
        st.just(f"DELETE FROM t WHERE a = {who}"),
        st.just("BEGIN TRANSACTION"), st.just("COMMIT"), st.just("ROLLBACK"))


def _engine_step(who: int):
    return _engine_statements(who).map(lambda sql: Step(who, sql))


@st.composite
def engine_schedules(draw, sessions: int = 3, max_steps: int = 24):
    """Sessions interleaving DML on ``t``, transactions, checkpoints
    and restarts.  Each session writes only its own rows (``a`` is its
    number): the engine takes no next-key locks (ROADMAP item 4 (b)),
    so a write that matches no row locks nothing, and on a shared key
    another session's INSERT could commit under it — a history that no
    serial order of the committed transactions gives, which is what
    oracle (i) replays.  Slots are still shared, so item 13's case can be
    drawn; the examples on a shared key are fixed schedules."""
    statement = st.integers(0, sessions - 1).flatmap(_engine_step)
    action = st.sampled_from([Step(action="sharp"), Step(action="fuzzy"),
                              RESTART])
    # Three statements to one checkpoint or restart.
    steps = draw(st.lists(st.one_of(statement, statement, statement, action),
                          max_size=max_steps))
    return Schedule(T_SETUP, tuple(steps))


#: The drawn client schedules' ledger, and a procedure per row that
#: bumps it.
CLIENT_SETUP = LEDGER_SETUP + tuple(
    f"CREATE PROCEDURE bump_{k} AS UPDATE ledger SET v = v + 1 WHERE k = {k}"
    for k in range(8))


@st.composite
def client_schedules(draw, sessions: int = 2, max_steps: int = 10):
    """Sessions reading and writing their own ledger rows — autocommit
    and in transactions, by statement and by ``EXEC`` — under crashes
    and blips at either point.  Reads stay on the reader's rows: a read
    of another session's uncommitted write is dirty (ROADMAP item 16).
    A blip after apply inside an application transaction is not masked
    yet — the retry applies an in-transaction write twice (ROADMAP item
    7) — so a schedule with transactions draws its after-apply faults as
    crashes."""
    steps = []
    for _ in range(draw(st.integers(1, max_steps))):
        who = draw(st.integers(0, sessions - 1))
        k = who + sessions * draw(st.integers(0, 8 // sessions - 1))
        steps.append(Step(who, draw(st.sampled_from([
            f"UPDATE ledger SET v = v + 1 WHERE k = {k}",
            f"SELECT k, v FROM ledger WHERE k = {k}",
            f"DELETE FROM ledger WHERE k = {k}",
            f"INSERT INTO ledger VALUES ({k}, {k})",
            f"EXEC bump_{k}",
            "BEGIN TRANSACTION", "COMMIT", "ROLLBACK"]))))
    # Every session ends its transaction: the final tables are read
    # outside them.
    steps += [Step(who, "COMMIT") for who in range(sessions)]
    in_txn = any(_head(step.sql) == "BEGIN" for step in steps)
    faults = draw(st.lists(st.builds(
        Fault, st.integers(1, 40), st.sampled_from(["pre", "after"]),
        st.sampled_from(["crash", "blip"])).map(
            lambda fault: fault._replace(kind="crash")
            if in_txn and fault.point == "after" else fault),
        min_size=1, max_size=2,
        unique_by=lambda fault: (fault.point, fault.at)))
    return Schedule(CLIENT_SETUP, tuple(steps), tuple(faults))
