"""The five workloads: what runs, in what order, and how it is checked.

Every workload is a closed loop with one client thread (the simulator's
sessions are virtual: one process, one thread, no sockets).  ``--seed``
fixes the *schedule* — op order, keys, result sizes, crash points — while
the *mix* (how many ops of each kind) is the same for every seed, so that
end-to-end numbers of different seeds stay within the regression bounds.

Host time of a repetition is the sum of its ops' host times: output
checks, digests and counter polling run between ops and are not timed.
"""

from __future__ import annotations

import hashlib
import random
import time
from collections import deque

import worlds
from repro.odbc.constants import SQL_NO_DATA, SQL_SUCCESS
from repro.workloads.tpcc.concurrent import (
    ConcurrentMix,
    build_plans,
    digest_database,
)
from repro.workloads.tpcc.transactions import TRANSACTIONS
from repro.workloads.tpch.queries import QUERIES
from repro.workloads.tpch.refresh import run_rf1, run_rf2

RECOVERY_PHASES = ("failure_detection", "reconnect", "option_replay",
                   "status_probe", "reposition")


# ---------------------------------------------------------------------------
# Per-op bookkeeping
# ---------------------------------------------------------------------------


class PhoenixWatch:
    """Collects what a Phoenix driver manager only keeps for its *last*
    persist or recovery, by polling its public stats between ops."""

    def __init__(self, manager):
        self.manager = manager
        self.persisted = manager.stats["persisted_results"]
        self.recoveries = manager.stats["recoveries"]
        self.persist_virt_s: list[float] = []
        self.recovery_virt_s: list[float] = []
        self.phase_virt_s = dict.fromkeys(RECOVERY_PHASES, 0.0)

    def poll(self) -> float:
        """Returns the virtual seconds of a recovery seen since the last
        poll (0.0 when there was none)."""
        stats = self.manager.stats
        if stats["persisted_results"] != self.persisted:
            self.persisted = stats["persisted_results"]
            self.persist_virt_s.append(
                sum(self.manager.persist_step_seconds.values()))
        if stats["recoveries"] == self.recoveries:
            return 0.0
        self.recoveries = stats["recoveries"]
        seconds = sum(self.manager.recovery_phase_seconds.values())
        self.recovery_virt_s.append(seconds)
        for phase, spent in self.manager.recovery_phase_breakdown.items():
            if phase in self.phase_virt_s:
                self.phase_virt_s[phase] += spent
        return seconds


SLICE_ITERATIONS = 20_000
#: What a calibration slice takes on the reference machine all host
#: times are rescaled to.
REFERENCE_SLICE_NS = 1_000_000


def calibration_slice() -> int:
    """A fixed amount of pure-Python work; returns its duration in ns."""
    start = time.perf_counter_ns()
    total = 0
    for i in range(SLICE_ITERATIONS):
        total += i * i % 7
    return time.perf_counter_ns() - start


def calibrated_call(fn):
    """Run ``fn()`` between two groups of three calibration slices;
    returns (result, raw seconds, seconds on the reference machine)."""
    spent = sum(calibration_slice() for _ in range(3))
    start = time.perf_counter_ns()
    result = fn()
    raw_ns = time.perf_counter_ns() - start
    spent += sum(calibration_slice() for _ in range(3))
    factor = REFERENCE_SLICE_NS * 6 / spent
    return result, raw_ns / 1e9, raw_ns * factor / 1e9


class Calibrator:
    """Prices the host time of ops in units of the calibration slice.

    The sandbox's execution speed drifts by up to 2x over periods of
    seconds, so raw host time cannot be compared between runs.  A slice
    runs every ``INTERVAL_NS`` of wall time, between ops or
    (``maybe_slice``) inside a long one, and the op time since the
    previous slice is rescaled to the reference machine.  Slices are
    never part of an op's host time.
    """

    INTERVAL_NS = 10_000_000

    def __init__(self):
        self.calibrated_ns = 0.0
        self.slices = 0
        self.slice_total_ns = 0
        self._pending_ns = 0       # op time not yet rescaled
        self._op_since = None      # start of the running stretch of an op
        self._op_slices_ns = 0     # slice time taken inside the open op
        self._last_slice_at = time.perf_counter_ns()

    def op_started(self, now: int) -> None:
        self._op_since = now
        self._op_slices_ns = 0

    def op_ended(self, now: int) -> int:
        """Returns the ns spent in slices inside the op just ended."""
        self._pending_ns += now - self._op_since
        self._op_since = None
        if now - self._last_slice_at >= self.INTERVAL_NS:
            self._slice(now)
        return self._op_slices_ns

    def maybe_slice(self) -> None:
        """Sample the machine's speed from inside a long op."""
        now = time.perf_counter_ns()
        if now - self._last_slice_at >= self.INTERVAL_NS:
            self._slice(now)

    def finish(self) -> None:
        """Rescale what is left after the last op."""
        if self._pending_ns:
            self._slice(time.perf_counter_ns())

    def _slice(self, now: int) -> None:
        if self._op_since is not None:
            self._pending_ns += now - self._op_since
        spent = calibration_slice()
        self.slices += 1
        self.slice_total_ns += spent
        self.calibrated_ns += \
            self._pending_ns * REFERENCE_SLICE_NS / spent
        self._pending_ns = 0
        self._last_slice_at = end = time.perf_counter_ns()
        if self._op_since is not None:
            self._op_since = end
            self._op_slices_ns += end - now


class OpLog:
    """Times every op on both clocks.  An op that raises, returns a wrong
    row or rowcount, or breaks a check is a failed op."""

    def __init__(self, world, tracer=None):
        self.meter = world.meter
        self.tracer = tracer
        self.calibrator = Calibrator()
        self.watches = [PhoenixWatch(m) for m in world.phoenix_managers()]
        self.ops = 0
        self.host_total_ns = 0
        self.virt_total_s = 0.0
        #: Per-op samples (a workload may replace them, see
        #: ``OltpConcurrent``); the totals above are what throughput and
        #: ``virt_s`` are computed from.
        self.host_ns: list[int] = []
        self.virt_s: list[float] = []
        #: Virtual seconds of session recovery inside the latest op.
        self.last_recovery_s = 0.0
        self.failures: list[str] = []
        self.digest = hashlib.sha256()

    def run(self, fn, *args):
        index = self.ops
        self.ops += 1
        tracer = self.tracer
        calibrator = self.calibrator
        if tracer is not None:
            tracer.begin_op(index)
        meter = self.meter
        v0 = meter.now
        h0 = time.perf_counter_ns()
        calibrator.op_started(h0)
        try:
            out = fn(*args)
        except Exception as error:  # op boundary: count it and go on
            out = None
            self.fail(f"op {index} raised {error!r}")
        h1 = time.perf_counter_ns()
        virt_s = meter.now - v0
        if tracer is not None:
            tracer.end_op()
        host_ns = h1 - h0 - calibrator.op_ended(h1)
        self.host_total_ns += host_ns
        self.virt_total_s += virt_s
        self.host_ns.append(host_ns)
        self.virt_s.append(virt_s)
        self.last_recovery_s = sum(w.poll() for w in self.watches)
        return out

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def phoenix_summary(self) -> dict:
        """What the watches saw, as plain data (a repetition's record
        must not keep its world alive)."""
        phases = dict.fromkeys(RECOVERY_PHASES, 0.0)
        for watch in self.watches:
            for phase, seconds in watch.phase_virt_s.items():
                phases[phase] += seconds
        return {
            "persist_virt_s": [s for w in self.watches
                               for s in w.persist_virt_s],
            "recoveries": sum(len(w.recovery_virt_s)
                              for w in self.watches),
            "phase_virt_s": phases,
        }

    def observe(self, value) -> None:
        """Fold an application-visible output into the rep's digest."""
        self.digest.update(repr(value).encode())


def _shuffled_deck(rng: random.Random, shares, total: int) -> list:
    """``total`` cards split by ``shares`` (name, weight), shuffled: the
    mix is the same for every seed, the order is not."""
    weight = sum(w for _name, w in shares)
    deck = []
    for name, w in shares:
        deck.extend([name] * round(total * w / weight))
    rng.shuffle(deck)
    return deck


class Workload:
    """Interface the runner drives; see the subclasses."""

    name = ""

    def __init__(self, seed: int, quick: bool, reference: bool = False):
        self.quick = quick
        #: The reference repetition runs the same plan the slow,
        #: obviously-correct way (see ``comparable``).
        self.reference = reference
        self.plan = self.make_plan(random.Random(seed))

    def make_plan(self, rng: random.Random):
        raise NotImplementedError

    def setup(self) -> worlds.World:
        """Generate, load, ANALYZE, connect: timed as ``setup_s``."""
        raise NotImplementedError

    def prepare(self, world) -> None:
        """Untimed work the checks need before the ops run."""

    def run(self, world, log: OpLog) -> dict:
        """The ops.  Returns workload-specific observations (plain data)."""
        raise NotImplementedError

    def check(self, world, log: OpLog, observed: dict) -> None:
        """Output checks after the ops; misses go to ``log.fail``."""

    def comparable(self, world, log: OpLog) -> str:
        """What must equal the reference repetition's; empty when the
        workload's checks need no reference."""
        return ""


# ---------------------------------------------------------------------------
# oltp_phoenix
# ---------------------------------------------------------------------------

TPCC_MIX = (("new_order", 43), ("payment", 43), ("order_status", 5),
            ("delivery", 5), ("stock_level", 4))

POINT_SELECTS = (
    "SELECT c_balance, c_first, c_middle, c_last FROM customer "
    "WHERE c_w_id = {w} AND c_d_id = {d} AND c_id = {c}",
    "SELECT s_quantity FROM stock WHERE s_w_id = {w} AND s_i_id = {i}",
)


class OltpPhoenix(Workload):
    """One Phoenix session runs the five TPC-C transaction types, each
    followed by ten pairs of primary-key point selects, against a buffer
    pool smaller than the data (48 < 83 pages)."""

    name = "oltp_phoenix"
    SELECT_PAIRS = 10

    def make_plan(self, rng):
        scale = worlds.TPCC_SCALE
        plan = []
        transactions = 20 if self.quick else 300
        for kind in _shuffled_deck(rng, TPCC_MIX, transactions):
            w_id = rng.randint(1, scale.warehouses)
            txn_seed = rng.getrandbits(32)
            selects = []
            for _ in range(self.SELECT_PAIRS):
                keys = {"w": rng.randint(1, scale.warehouses),
                        "d": rng.randint(1, scale.districts_per_warehouse),
                        "c": rng.randint(1, scale.customers_per_district),
                        "i": rng.randint(1, scale.items)}
                selects.extend(t.format(**keys) for t in POINT_SELECTS)
            plan.append((kind, w_id, txn_seed, selects))
        return plan

    def setup(self):
        world = worlds.tpcc_world(worlds.SMALL_POOL_PAGES)
        world.connect("oltp", 200)
        return world

    def run(self, world, log):
        app = world.apps["oltp"]
        scale = worlds.TPCC_SCALE
        for kind, w_id, txn_seed, selects in self.plan:
            outcome = log.run(TRANSACTIONS[kind], app,
                              random.Random(txn_seed), scale, w_id)
            log.observe(outcome)
            for sql in selects:
                rows = log.run(app.query_rows, sql)
                if rows is not None and len(rows) != 1:
                    log.fail(f"point select returned {len(rows)} rows")
                log.observe(rows)
        return {}

    def check(self, world, log, observed):
        """TPC-C consistency conditions 1 and 2 on the final state."""
        probe = world.connect("check", None)
        for w_id, w_ytd in probe.query_rows(
                "SELECT w_id, w_ytd FROM warehouse"):
            d_ytd = probe.query_rows(
                f"SELECT sum(d_ytd) FROM district WHERE d_w_id = {w_id}")
            if abs(w_ytd - d_ytd[0][0]) > 1e-4:
                log.fail(f"warehouse {w_id}: w_ytd != sum(d_ytd)")
        newest = {(w, d): o for w, d, o in probe.query_rows(
            "SELECT o_w_id, o_d_id, max(o_id) FROM orders "
            "GROUP BY o_w_id, o_d_id")}
        for w, d, next_o_id in probe.query_rows(
                "SELECT d_w_id, d_id, d_next_o_id FROM district"):
            if newest.get((w, d)) != next_o_id - 1:
                log.fail(f"district {w}/{d}: d_next_o_id - 1 != max(o_id)")


# ---------------------------------------------------------------------------
# olap_power
# ---------------------------------------------------------------------------


class OlapPower(Workload):
    """The 22 TPC-H queries and both refresh functions in seeded order,
    once through native ODBC and once through Phoenix with server-side
    result persistence, on data that fits the buffer pool."""

    name = "olap_power"

    def make_plan(self, rng):
        numbers = sorted(QUERIES)
        if self.quick:
            numbers = [1, 3, 6, 11, 14, 16]
        order = list(numbers)
        rng.shuffle(order)
        rf1_at = rng.randrange(len(order) + 1)
        order.insert(rf1_at, "RF1")
        order.insert(rng.randrange(rf1_at + 1, len(order) + 1), "RF2")
        return order

    def setup(self):
        world = worlds.tpch_world(self.quick)
        world.connect("native", None)
        world.connect("phoenix", 0)
        return world

    def run(self, world, log):
        data = world.data
        first_refresh_key = data.max_orderkey
        rows = {}
        leg_virt_s = {}
        for leg in ("native", "phoenix"):
            app = world.apps[leg]
            # Both legs insert and delete the same order keys, so every
            # query sees the same database in both.
            data.max_orderkey = first_refresh_key
            leg_rows = rows[leg] = {}
            leg_start_s = log.virt_total_s
            key_range = None
            for op in self.plan:
                if op == "RF1":
                    out = log.run(run_rf1, app, data)
                    key_range = out[1] if out else None
                elif op == "RF2":
                    log.run(run_rf2, app, key_range)
                else:
                    leg_rows[op] = log.run(app.query_rows, QUERIES[op])
                    log.observe(leg_rows[op])
            leg_virt_s[leg] = log.virt_total_s - leg_start_s
        self._rows = rows
        return {"leg_virt_s": leg_virt_s}

    def check(self, world, log, observed):
        native, phoenix = (self._rows[leg]
                           for leg in ("native", "phoenix"))
        for number, rows in native.items():
            if rows is None or rows != phoenix.get(number):
                log.fail(f"Q{number:02d}: Phoenix rows differ from native")


# ---------------------------------------------------------------------------
# result_stream
# ---------------------------------------------------------------------------


class ResultStream(Workload):
    """``SELECT TOP N * FROM lineitem`` through Phoenix with the client
    cache off: every result is persisted server-side (CREATE TABLE +
    INSERT...SELECT) and drained one ``fetch`` at a time."""

    name = "result_stream"
    SIZES = (16, 256, 1024, 4096)

    def make_plan(self, rng):
        sizes = [base + rng.randrange(base // 32 + 1)
                 for base in self.SIZES
                 for _ in range(1 if self.quick else 7)]
        rng.shuffle(sizes)
        return sizes

    def setup(self):
        world = worlds.tpch_world(self.quick)
        world.connect("stream", 0)
        return world

    def prepare(self, world):
        self.available = len(world.data.lineitem)
        self._native_rows = world.apps["setup"].query_rows(
            f"SELECT TOP {max(self.plan)} * FROM lineitem")

    def run(self, world, log):
        self._app = world.apps["stream"]
        self._slice = log.calibrator.maybe_slice
        for n in self.plan:
            rows = log.run(self._drain, f"SELECT TOP {n} * FROM lineitem")
            if rows is None:
                continue
            if len(rows) != min(n, self.available):
                log.fail(f"TOP {n} delivered {len(rows)} rows")
            elif rows != self._native_rows[:n]:
                log.fail(f"TOP {n}: rows differ from the native drain")
            log.observe((n, len(rows)))
        return {}

    def _drain(self, sql):
        """``BenchmarkApp.query_rows`` with calibration slices inside:
        one drain takes up to 0.3 s of host time."""
        app = self._app
        manager = app.manager
        statement = manager.alloc_statement(app.conn)
        if manager.exec_direct(statement, sql) != SQL_SUCCESS:
            raise RuntimeError(f"drain: {manager.get_diag(statement)}")
        rows = []
        while True:
            rc, row = manager.fetch(statement)
            if rc == SQL_NO_DATA:
                break
            if rc != SQL_SUCCESS:
                raise RuntimeError(f"drain: {manager.get_diag(statement)}")
            rows.append(row)
            if not len(rows) % 128:
                self._slice()
        manager.free_statement(statement)
        return rows


# ---------------------------------------------------------------------------
# oltp_concurrent
# ---------------------------------------------------------------------------


class TransactionClock:
    """Stands in for one session's driver manager inside
    ``ConcurrentMix``: forwards every call and records, per transaction,
    the virtual time from its first BEGIN to its COMMIT (lock waits and
    deadlock retries included) and how many statements were useful."""

    def __init__(self, manager, meter, plan, latencies: list, calibrator):
        self.manager = manager
        self._meter = meter
        self._plan = plan
        self._done = 0
        self._latencies = latencies
        self._calibrator = calibrator
        self._began_at = None
        self._attempt = 0
        self._victim = False
        self.executed = 0
        self.useful = 0

    def __getattr__(self, name):
        return getattr(self.manager, name)

    def exec_direct(self, statement, sql, params=None):
        if sql == "BEGIN TRANSACTION":
            self._attempt = 0
            if self._began_at is None:
                self._began_at = self._meter.peek_now()
        self.executed += 1
        # The whole mix is one timed call; this is the only place the
        # calibrator can sample the machine's speed while it runs.
        self._calibrator.maybe_slice()
        rc = self.manager.exec_direct(statement, sql, params)
        if sql == "ROLLBACK" and self._victim:
            self._victim = False  # the mix reruns the whole transaction
            return rc
        if rc != SQL_SUCCESS:
            diags = self.manager.get_diag(statement)
            self._victim = bool(diags) and diags[-1].sqlstate == "40001"
            return rc
        self._attempt += 1
        if sql == "COMMIT":
            self.useful += self._attempt
            self._latencies.append(
                (self._plan[self._done]["kind"],
                 self._meter.peek_now() - self._began_at))
            self._began_at = None
            self._done += 1
        elif sql == "ROLLBACK":  # new-order's 1 % business rollback
            self.useful += self._attempt
            self._began_at = None
            self._done += 1
        return rc


class OltpConcurrent(Workload):
    """16 Phoenix sessions, two per warehouse, interleave pre-drawn TPC-C
    transactions at statement boundaries under row locking; data fits
    the pool.  Latency samples are the new-order transactions (TPC-C's
    measured transaction): the median over all five types sits in the
    valley between the short and the long types and moves +-13 % with the
    schedule."""

    name = "oltp_concurrent"
    SESSIONS = 16
    #: The descriptor pool is pinned; ``--seed`` deals it to sessions.
    POOL_SEED = 1009

    def make_plan(self, rng):
        per_session = 2 if self.quick else 24
        plans = build_plans(self.SESSIONS, per_session,
                            worlds.CONCURRENT_SCALE, seed=self.POOL_SEED)
        # Each pinned plan keeps its transactions; the seed decides their
        # order and which session (warehouse, district) runs the plan.
        for plan in plans:
            rng.shuffle(plan)
        rng.shuffle(plans)
        return plans

    def setup(self):
        world = worlds.tpcc_world(None, worlds.CONCURRENT_SCALE,
                                  worlds.NO_ESCALATION)
        for index in range(self.SESSIONS):
            world.connect(f"session-{index}", 200)
        return world

    def run(self, world, log):
        apps = [world.apps[f"session-{i}"] for i in range(self.SESSIONS)]
        latencies: list = []
        clocks = []
        for app, plan in zip(apps, self.plan):
            clock = TransactionClock(app.manager, world.meter, plan,
                                     latencies, log.calibrator)
            app.manager = clock
            clocks.append(clock)
        mix = ConcurrentMix(world.server, apps, self.plan,
                            worlds.CONCURRENT_SCALE)
        # The reference runs each session to completion before the next.
        result = log.run(mix.run_serial if self.reference
                         else mix.run_interleaved)
        for app, clock in zip(apps, clocks):
            app.manager = clock.manager
        # One timed call, many ops: the samples become per-transaction
        # latencies, the totals stay those of the whole mix.
        log.ops = sum(len(plan) for plan in self.plan)
        log.virt_s = [seconds for kind, seconds in latencies
                      if kind == "new_order"]
        log.host_ns = []
        if result is None:
            return {}
        log.observe((result.committed, result.rolled_back,
                     result.statements, latencies))
        if result.committed + result.rolled_back != log.ops:
            log.fail(f"{result.committed} committed + "
                     f"{result.rolled_back} rolled back != {log.ops}")
        return {"lock_waits": result.lock_waits,
                "deadlocks": result.deadlocks,
                "txn_retries": result.txn_retries,
                "executed": sum(c.executed for c in clocks),
                "useful": sum(c.useful for c in clocks)}

    def comparable(self, world, log):
        """The final TPC-C tables: interleaving must not change them."""
        digests = digest_database(world.server.engine)
        return repr([(table, digests.get(table))
                     for table in world.data.table_rows()])


# ---------------------------------------------------------------------------
# crash_recovery
# ---------------------------------------------------------------------------

REPORT_SQL = ("SELECT ol_w_id, ol_d_id, ol_o_id, ol_number, ol_i_id, "
              "ol_amount FROM order_line "
              "ORDER BY ol_w_id, ol_d_id, ol_o_id, ol_number")
REPORT_ROWS_PER_TURN = 40

CRASH_MIX = (("update", 40), ("select", 30), ("report", 30))


class CrashSchedule:
    """The fault injector: crashes and restarts the server on the j-th
    protocol request counted from the start of a seeded op.

    Crashes are scheduled by op index + request offset, not by a global
    request count: round trips per op vary with the profile, and a
    count-based plan loses crashes when they shrink.  A crash whose op
    sends fewer than j requests stays armed into the following ops.
    """

    def __init__(self, world, points):
        self.world = world
        self.pending = deque(points)
        self.armed = None
        self.seen = 0
        self.fired: list[dict] = []

    def start_op(self, index: int) -> None:
        if self.armed is None and self.pending \
                and self.pending[0][0] <= index:
            self.armed = self.pending.popleft()[1]
            self.seen = 0

    def __call__(self, request) -> None:
        if self.armed is None:
            return
        self.seen += 1
        if self.seen < self.armed:
            return
        self.armed = None
        server = self.world.server
        meter = self.world.meter
        self.world.tally.bank(server.engine)
        server.crash()
        v0 = meter.now
        h0 = time.perf_counter_ns()
        server.restart()
        host_ns = time.perf_counter_ns() - h0
        report = server.engine.last_recovery
        self.fired.append({
            "restart_host_ms": host_ns / 1e6,
            "restart_virt_s": meter.now - v0,
            "recovery_virt_s": 0.0,
            "redo_applied": report.redo_applied,
            "redo_skipped": report.redo_skipped,
            "undo_applied": report.undo_applied,
        })
        # The restarted engine comes up with the default pool size.
        server.engine.buffer_pool.capacity_pages = worlds.SMALL_POOL_PAGES


class CrashRecovery(Workload):
    """Autocommit counter updates, point selects and a paged report scan
    through two Phoenix sessions while the server is killed 10 times
    mid-request.  The application must see nothing but a pause."""

    name = "crash_recovery"

    def make_plan(self, rng):
        ops = 60 if self.quick else 750
        crashes = 1 if self.quick else 10
        plan = []
        for kind in _shuffled_deck(rng, CRASH_MIX, ops):
            key = rng.randint(1, worlds.LEDGER_ROWS)
            plan.append((kind, key))
        margin = ops // 20
        indices = sorted(rng.sample(range(margin, len(plan) - margin),
                                    crashes))
        self.crash_points = [(i, rng.randint(1, 3)) for i in indices]
        return plan

    def setup(self):
        world = worlds.tpcc_world(worlds.SMALL_POOL_PAGES)
        worlds.add_ledger(world)
        world.connect("oltp", 200)
        world.connect("report", 0)
        return world

    def run(self, world, log):
        # The reference is a fault-free run of the same plan: what the
        # application must observe under crashes.
        crash_points = () if self.reference else self.crash_points
        schedule = CrashSchedule(world, crash_points)
        for app in world.apps.values():
            app.network.fault_injector = schedule
        oltp = world.apps["oltp"]
        self._report = world.apps["report"]
        self._statement = None
        expected = dict.fromkeys(range(1, worlds.LEDGER_ROWS + 1), 0)
        acknowledged = 0
        for index, (kind, key) in enumerate(self.plan):
            schedule.start_op(index)
            if kind == "update":
                timing = log.run(
                    oltp.run_statement,
                    f"UPDATE bench_ledger SET v = v + 1 WHERE k = {key}")
                if timing is not None:
                    # Acknowledged, so it must survive every later crash.
                    expected[key] += 1
                    acknowledged += 1
                    if timing.rowcount != 1:
                        log.fail(f"UPDATE k={key}: rowcount "
                                 f"{timing.rowcount}")
                    log.observe(timing.rowcount)
            elif kind == "select":
                rows = log.run(
                    oltp.query_rows,
                    f"SELECT v FROM bench_ledger WHERE k = {key}")
                if rows is not None and rows != [(expected[key],)]:
                    log.fail(f"SELECT k={key}: {rows}, expected "
                             f"{expected[key]}")
                log.observe(rows)
            else:
                log.observe(log.run(self._report_turn))
            if log.last_recovery_s and schedule.fired:
                schedule.fired[-1]["recovery_virt_s"] += log.last_recovery_s
        return {"crashes": schedule.fired,
                "scheduled": len(crash_points),
                "acknowledged": acknowledged}

    def _report_turn(self):
        app = self._report
        manager = app.manager
        if self._statement is None:
            self._statement = manager.alloc_statement(app.conn)
            rc = manager.exec_direct(self._statement, REPORT_SQL)
            if rc != SQL_SUCCESS:
                raise RuntimeError(
                    f"report: {manager.get_diag(self._statement)}")
        rows = []
        for _ in range(REPORT_ROWS_PER_TURN):
            rc, row = manager.fetch(self._statement)
            if rc == SQL_NO_DATA:
                manager.free_statement(self._statement)
                self._statement = None
                break
            if rc != SQL_SUCCESS:
                raise RuntimeError(
                    f"report: {manager.get_diag(self._statement)}")
            rows.append(row)
        return rows

    def check(self, world, log, observed):
        if len(observed["crashes"]) != observed["scheduled"]:
            log.fail(f"{len(observed['crashes'])} crashes fired, "
                     f"{observed['scheduled']} scheduled")
        # Durability and exactly-once from flushed bytes only: power-cut
        # once more, then read through a session opened after it (the
        # set-up session died with the first crash).
        for app in world.apps.values():
            app.network.fault_injector = None
        world.server.crash()
        world.server.restart()
        total = world.connect("check", None).query_rows(
            "SELECT sum(v) FROM bench_ledger")[0][0]
        if total != observed["acknowledged"]:
            log.fail(f"sum(v) = {total} after restart, "
                     f"{observed['acknowledged']} updates acknowledged")

    def comparable(self, world, log):
        """Every row and rowcount the application saw."""
        return log.digest.hexdigest()


WORKLOADS = {w.name: w for w in (OltpPhoenix, OlapPower, ResultStream,
                                 OltpConcurrent, CrashRecovery)}
