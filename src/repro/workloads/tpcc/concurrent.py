"""Concurrent TPC-C: many virtual sessions interleaved over one server.

The multi-user run in :mod:`~repro.workloads.tpcc.driver` replays
*traces* through the queueing simulator — fine for throughput curves,
but it never actually overlaps transactions inside the engine.  This
module really does: N sessions (one ODBC connection each) submit the
TPC-C transactions round-robin at statement boundaries, so dozens of
transactions are in flight at once and the lock manager arbitrates.

Design constraints that make the mix *deterministic* (the acceptance
gate compares the final database digests of the serial and the
interleaved leg, so the final state must be schedule-independent):

* each session owns one ``(warehouse, district)`` pair — all district,
  customer, orders, new_order and order_line effects are per-session
  and therefore ordered by the session's own statement sequence;
* cross-session writes commute exactly: ``w_ytd`` only ever adds
  *integer* payment amounts (float + int is exact far beyond these
  magnitudes), ``s_ytd``/``s_order_cnt`` add integers, and
  ``s_quantity`` stays in ``[10, 100]`` — a 91-value band holding
  exactly one representative of each residue class mod 91, so its final
  value is ``q0 - Σqty (mod 91)`` regardless of schedule;
* delivery is restricted to the session's own district (the spec sweeps
  every district of the warehouse, which is schedule-dependent);
* transaction parameters are precomputed descriptors — a deadlock
  retry re-runs the same transaction, never redraws an RNG.

Conflict handling mirrors what a real client does:

* ``SQL_STILL_EXECUTING``: the statement met a lock and the *server*
  holds it — the transaction keeps its locks and its place in the lock
  manager's queue.  The session parks on the handle
  and is stepped again when the driver manager says the statement is no
  longer executing; the mix has no wake-up policy of its own.  The wait
  is booked by the network when the response is collected
  (``locks.lock_wait_seconds``, off the shared clock).
* ``40001``: the transaction was aborted as a deadlock victim.  Roll
  back, back off until some transaction ends, and rerun the whole
  transaction descriptor (counted in ``locks.txn_retries``).  The
  back-off is charged as ``lock wait`` seconds through the meter's
  overlap machinery (waiting burns no server CPU, so the global clock
  stays put).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

from repro.odbc.constants import (
    SQL_NO_DATA,
    SQL_STILL_EXECUTING,
    SQL_SUCCESS,
)
from repro.server.server import DatabaseServer
from repro.sim.costs import SERVER_CPU, CostModel
from repro.sim.meter import Meter
from repro.workloads.app import BenchmarkApp
from repro.workloads.tpcc.datagen import TpccScale, generate_tpcc, last_name
from repro.workloads.tpcc.schema import setup_tpcc_server
from repro.workloads.tpcc.transactions import DELIVERY_DATE

#: Weighted transaction mix (new-order + payment dominate, as in the
#: official mix; exact shares matter less than genuine write overlap).
_MIX = [("new_order", 0.40), ("payment", 0.40), ("order_status", 0.08),
        ("delivery", 0.06), ("stock_level", 0.06)]


# ---------------------------------------------------------------------------
# Descriptors
# ---------------------------------------------------------------------------


def session_coords(index: int, scale: TpccScale) -> tuple[int, int]:
    """The ``(w_id, d_id)`` pair owned by session ``index``."""
    per = scale.districts_per_warehouse
    return index // per + 1, index % per + 1


def warehouses_for(num_sessions: int,
                   districts_per_warehouse: int = 10) -> int:
    return (num_sessions + districts_per_warehouse - 1) \
        // districts_per_warehouse


def build_plans(num_sessions: int, txns_per_session: int,
                scale: TpccScale, seed: int = 1009) -> list[list[dict]]:
    """Precomputed transaction descriptors, one list per session."""
    plans = []
    for index in range(num_sessions):
        rng = random.Random(seed * 1_000_003 + index)
        plan = []
        for _ in range(txns_per_session):
            roll = rng.random()
            cumulative = 0.0
            kind = _MIX[-1][0]
            for name, share in _MIX:
                cumulative += share
                if roll < cumulative:
                    kind = name
                    break
            plan.append(_build_descriptor(kind, rng, scale))
        plans.append(plan)
    return plans


def _build_descriptor(kind: str, rng: random.Random,
                      scale: TpccScale) -> dict:
    if kind == "new_order":
        ol_cnt = rng.randint(5, 15)
        rollback = rng.random() < 0.01
        items = []
        for number in range(1, ol_cnt + 1):
            if rollback and number == ol_cnt:
                items.append((scale.items + 1, rng.randint(1, 10)))
            else:
                items.append((rng.randint(1, scale.items),
                              rng.randint(1, 10)))
        return {"kind": kind,
                "c_id": rng.randint(1, scale.customers_per_district),
                "items": items}
    if kind == "payment":
        by_name = rng.random() < 0.6
        return {"kind": kind,
                "c_id": rng.randint(1, scale.customers_per_district),
                "c_last": (last_name(rng.randint(
                    1, scale.customers_per_district) % 1000)
                    if by_name else None),
                "amount": rng.randint(1, 5000)}  # integer: exact commutes
    if kind == "order_status":
        return {"kind": kind,
                "c_id": rng.randint(1, scale.customers_per_district)}
    if kind == "delivery":
        return {"kind": kind, "carrier": rng.randint(1, 10)}
    return {"kind": "stock_level", "threshold": rng.randint(10, 20)}


# ---------------------------------------------------------------------------
# Transaction bodies as statement coroutines
# ---------------------------------------------------------------------------
#
# Each generator yields ("stmt" | "query", sql) and receives the fetched
# rows back for queries.  The scheduler interleaves sessions between
# yields, calls a yielded statement again while the server holds it at a
# lock, and rebuilds the whole generator after a deadlock abort.


def transaction_statements(desc: dict, w_id: int, d_id: int,
                           scale: TpccScale):
    return _BODIES[desc["kind"]](desc, w_id, d_id, scale)


def _new_order(desc, w, d, scale):
    c_id = desc["c_id"]
    yield ("stmt", "BEGIN TRANSACTION")
    yield ("query",
           f"SELECT c_discount, c_last, c_credit, w_tax "
           f"FROM customer, warehouse WHERE c_w_id = {w} "
           f"AND c_d_id = {d} AND c_id = {c_id} AND w_id = {w}")
    district = yield ("query",
                      f"SELECT d_next_o_id, d_tax FROM district "
                      f"WHERE d_w_id = {w} AND d_id = {d}")
    o_id = district[0][0]
    yield ("stmt",
           f"UPDATE district SET d_next_o_id = {o_id + 1} "
           f"WHERE d_w_id = {w} AND d_id = {d}")
    yield ("stmt",
           f"INSERT INTO orders VALUES ({w}, {d}, {o_id}, {c_id}, "
           f"{DELIVERY_DATE}, NULL, {len(desc['items'])}, 1)")
    yield ("stmt", f"INSERT INTO new_order VALUES ({w}, {d}, {o_id})")
    item_ids = [item for item, _qty in desc["items"]]
    id_list = ", ".join(str(i) for i in sorted(set(item_ids)))
    listings = yield ("query",
                      f"SELECT i_id, i_price, s_quantity "
                      f"FROM item, stock WHERE s_w_id = {w} "
                      f"AND s_i_id = i_id AND i_id IN ({id_list})")
    by_item = {row[0]: (row[1], row[2]) for row in listings}
    if any(i_id not in by_item for i_id in item_ids):
        yield ("stmt", "ROLLBACK")
        return "rolled_back"
    for ol_number, (i_id, quantity) in enumerate(desc["items"], start=1):
        price, s_quantity = by_item[i_id]
        if s_quantity - quantity >= 10:
            new_quantity = s_quantity - quantity
        else:
            new_quantity = s_quantity - quantity + 91
        by_item[i_id] = (price, new_quantity)
        yield ("stmt",
               f"UPDATE stock SET s_quantity = {new_quantity}, "
               f"s_ytd = s_ytd + {quantity}, "
               f"s_order_cnt = s_order_cnt + 1 "
               f"WHERE s_w_id = {w} AND s_i_id = {i_id}")
        amount = round(quantity * price, 2)
        yield ("stmt",
               f"INSERT INTO order_line VALUES ({w}, {d}, {o_id}, "
               f"{ol_number}, {i_id}, {w}, NULL, {quantity}, {amount}, "
               f"'dist-{d}')")
    yield ("stmt", "COMMIT")
    return "committed"


def _payment(desc, w, d, scale):
    c_id = desc["c_id"]
    amount = desc["amount"]
    yield ("stmt", "BEGIN TRANSACTION")
    yield ("stmt",
           f"UPDATE warehouse SET w_ytd = w_ytd + {amount} "
           f"WHERE w_id = {w}")
    yield ("stmt",
           f"UPDATE district SET d_ytd = d_ytd + {amount} "
           f"WHERE d_w_id = {w} AND d_id = {d}")
    yield ("query",
           f"SELECT w_name, w_street, d_name, d_street "
           f"FROM warehouse, district WHERE w_id = {w} "
           f"AND d_w_id = {w} AND d_id = {d}")
    if desc["c_last"] is not None:
        # By-name lookup for realism; the *update* target stays the
        # descriptor's c_id so retries and legs agree bit-for-bit.
        yield ("query",
               f"SELECT c_id FROM customer WHERE c_w_id = {w} "
               f"AND c_d_id = {d} AND c_last = '{desc['c_last']}' "
               f"ORDER BY c_first")
    customer = yield ("query",
                      f"SELECT c_balance, c_credit, c_ytd_payment "
                      f"FROM customer WHERE c_w_id = {w} "
                      f"AND c_d_id = {d} AND c_id = {c_id}")
    credit = customer[0][1]
    yield ("stmt",
           f"UPDATE customer SET c_balance = c_balance - {amount}, "
           f"c_ytd_payment = c_ytd_payment + {amount}, "
           f"c_payment_cnt = c_payment_cnt + 1 "
           f"WHERE c_w_id = {w} AND c_d_id = {d} AND c_id = {c_id}")
    if credit == "BC":
        yield ("stmt",
               f"UPDATE customer SET c_data = 'bc {w} {d} {c_id} "
               f"{amount}' WHERE c_w_id = {w} AND c_d_id = {d} "
               f"AND c_id = {c_id}")
    yield ("stmt",
           f"INSERT INTO history VALUES ({c_id}, {d}, {w}, {d}, {w}, "
           f"{DELIVERY_DATE}, {amount}, 'pay {w}-{d}')")
    yield ("stmt", "COMMIT")
    return "committed"


def _order_status(desc, w, d, scale):
    c_id = desc["c_id"]
    yield ("stmt", "BEGIN TRANSACTION")
    yield ("query",
           f"SELECT c_balance, c_first, c_middle, c_last FROM customer "
           f"WHERE c_w_id = {w} AND c_d_id = {d} AND c_id = {c_id}")
    order = yield ("query",
                   f"SELECT TOP 1 o_id, o_entry_d, o_carrier_id "
                   f"FROM orders WHERE o_w_id = {w} AND o_d_id = {d} "
                   f"AND o_c_id = {c_id} ORDER BY o_id DESC")
    if order:
        o_id = order[0][0]
        yield ("query",
               f"SELECT ol_i_id, ol_supply_w_id, ol_quantity, "
               f"ol_amount, ol_delivery_d FROM order_line "
               f"WHERE ol_w_id = {w} AND ol_d_id = {d} "
               f"AND ol_o_id = {o_id}")
    yield ("stmt", "COMMIT")
    return "committed"


def _delivery(desc, w, d, scale):
    # Own district only — the spec's whole-warehouse sweep would make
    # the delivered set depend on the cross-session schedule.
    yield ("stmt", "BEGIN TRANSACTION")
    oldest = yield ("query",
                    f"SELECT min(no_o_id) FROM new_order "
                    f"WHERE no_w_id = {w} AND no_d_id = {d}")
    o_id = oldest[0][0] if oldest else None
    if o_id is None:
        yield ("stmt", "COMMIT")
        return "committed"
    yield ("stmt",
           f"DELETE FROM new_order WHERE no_w_id = {w} "
           f"AND no_d_id = {d} AND no_o_id = {o_id}")
    owner = yield ("query",
                   f"SELECT o_c_id, sum(ol_amount) "
                   f"FROM orders, order_line WHERE o_w_id = {w} "
                   f"AND o_d_id = {d} AND o_id = {o_id} "
                   f"AND ol_w_id = {w} AND ol_d_id = {d} "
                   f"AND ol_o_id = {o_id} GROUP BY o_c_id")
    c_id, amount = owner[0]
    amount = amount or 0.0
    yield ("stmt",
           f"UPDATE orders SET o_carrier_id = {desc['carrier']} "
           f"WHERE o_w_id = {w} AND o_d_id = {d} AND o_id = {o_id}")
    yield ("stmt",
           f"UPDATE order_line SET ol_delivery_d = {DELIVERY_DATE} "
           f"WHERE ol_w_id = {w} AND ol_d_id = {d} AND ol_o_id = {o_id}")
    yield ("stmt",
           f"UPDATE customer SET c_balance = c_balance + {amount}, "
           f"c_delivery_cnt = c_delivery_cnt + 1 "
           f"WHERE c_w_id = {w} AND c_d_id = {d} AND c_id = {c_id}")
    yield ("stmt", "COMMIT")
    return "committed"


def _stock_level(desc, w, d, scale):
    yield ("stmt", "BEGIN TRANSACTION")
    district = yield ("query",
                      f"SELECT d_next_o_id FROM district "
                      f"WHERE d_w_id = {w} AND d_id = {d}")
    next_o_id = district[0][0]
    yield ("query",
           f"SELECT count(DISTINCT s_i_id) FROM order_line, stock "
           f"WHERE ol_w_id = {w} AND ol_d_id = {d} "
           f"AND ol_o_id >= {next_o_id - 20} AND ol_o_id < {next_o_id} "
           f"AND s_w_id = {w} AND s_i_id = ol_i_id "
           f"AND s_quantity < {desc['threshold']}")
    yield ("stmt", "COMMIT")
    return "committed"


_BODIES = {"new_order": _new_order, "payment": _payment,
           "order_status": _order_status, "delivery": _delivery,
           "stock_level": _stock_level}


# ---------------------------------------------------------------------------
# Scheduler
# ---------------------------------------------------------------------------


@dataclass
class MixResult:
    """Outcome of one serial or interleaved run of the mix."""

    makespan_seconds: float
    committed: int = 0
    rolled_back: int = 0
    txn_retries: int = 0
    #: Wait episodes: statements the server held at a lock (each counted
    #: once, however long it waited or how often it was requeued).
    lock_waits: int = 0
    deadlocks: int = 0
    statements: int = 0


class _Session:
    __slots__ = ("index", "app", "plan", "w_id", "d_id", "scale",
                 "txn_index", "gen", "pending", "next_input", "statement",
                 "backing_off", "parked_at", "done")

    def __init__(self, index: int, app: BenchmarkApp, plan: list[dict],
                 w_id: int, d_id: int, scale: TpccScale):
        self.index = index
        self.app = app
        self.plan = plan
        self.w_id = w_id
        self.d_id = d_id
        self.scale = scale
        self.txn_index = 0
        self.gen = None
        self.pending = None          # (kind, sql) awaiting execution
        self.next_input = None       # rows to send into the generator
        self.statement = None        # handle of a still-executing pending
        self.backing_off = False     # after a 40001, until a txn ends
        self.parked_at = 0.0
        self.done = not plan

    def start_transaction(self) -> None:
        desc = self.plan[self.txn_index]
        self.gen = transaction_statements(desc, self.w_id, self.d_id,
                                          self.scale)
        self.pending = None
        self.next_input = None

    @property
    def blocked(self) -> bool:
        """Would stepping the session move nothing?"""
        return self.backing_off or (
            self.statement is not None
            and self.app.manager.still_executing(self.statement))


class ConcurrentMix:
    """Drives N sessions over one server, serial or interleaved."""

    def __init__(self, server: DatabaseServer, apps: list[BenchmarkApp],
                 plans: list[list[dict]], scale: TpccScale):
        self.server = server
        self.meter = server.meter
        self.scale = scale
        self.sessions = []
        for index, (app, plan) in enumerate(zip(apps, plans)):
            w_id, d_id = session_coords(index, scale)
            self.sessions.append(
                _Session(index, app, plan, w_id, d_id, scale))
        self.result = MixResult(makespan_seconds=0.0)

    # -- public entry points --------------------------------------------------

    def run_serial(self) -> MixResult:
        """Each session runs to completion before the next starts."""
        start = self.meter.now
        for session in self.sessions:
            while not session.done:
                self._step(session)
                if session.blocked:
                    raise RuntimeError(
                        f"serial session {session.index} blocked — "
                        f"impossible without concurrency")
        self.result.makespan_seconds = self.meter.now - start
        return self.result

    def run_interleaved(self) -> MixResult:
        """Round-robin, one statement per session per round."""
        start = self.meter.now
        while any(not s.done for s in self.sessions):
            progressed = False
            for session in self.sessions:
                if session.done or session.blocked:
                    continue
                if self._step(session):
                    progressed = True
            if progressed:
                continue
            # Nothing completed this round.  Sessions backing off wait
            # for a transaction to end; when nothing else moves, they go
            # on.
            if any(s.backing_off for s in self.sessions):
                self._transaction_ended()
                continue
            # Everyone left waits for a lock, and a chain of waiters ends
            # at a transaction that runs unless it is a cycle — which the
            # detector breaks the moment it closes.  So the lock manager
            # lost a wake-up.
            raise RuntimeError(
                "lost wake-up: every live session waits for a lock: "
                + "; ".join(f"session {s.index}: {s.pending[1][:60]!r}"
                            for s in self.sessions if not s.done)
                + f" -- lock queues: {self.server.engine.locks.queued()}")
        self.result.makespan_seconds = self.meter.now - start
        return self.result

    # -- per-session stepping -------------------------------------------------

    def _step(self, session: _Session) -> bool:
        """Run (or call again) one statement for ``session``; True if
        it completed."""
        self._charge_backoff(session)
        if session.gen is None:
            session.start_transaction()
        if session.pending is None:
            try:
                if session.next_input is None:
                    session.pending = next(session.gen)
                else:
                    rows, session.next_input = session.next_input, None
                    session.pending = session.gen.send(rows)
            except StopIteration as stop:
                self._finish_transaction(session, stop.value)
                return True
        kind, sql = session.pending
        status, sqlstate, rows = self._execute(session, kind, sql)
        if status == "executing":
            return False
        self.result.statements += 1
        if status == "ok":
            session.pending = None
            session.next_input = rows if kind == "query" else ()
            if sql in ("COMMIT", "ROLLBACK"):
                self._transaction_ended()
            return True
        if sqlstate == "40001":
            # Deadlock victim: roll back, then rerun the whole
            # descriptor.
            self.result.deadlocks += 1
            self.result.txn_retries += 1
            self.meter.count("locks.txn_retries")
            self._rollback(session.app)
            session.gen = None
            session.pending = None
            session.next_input = None
            self._transaction_ended()  # the abort released its locks
            session.backing_off = True
            session.parked_at = self.meter.now
            return False
        raise RuntimeError(
            f"session {session.index}: statement failed "
            f"[{sqlstate}] :: {sql[:120]}")

    def _finish_transaction(self, session: _Session, outcome) -> None:
        if outcome == "rolled_back":
            self.result.rolled_back += 1
        else:
            self.result.committed += 1
        self._transaction_ended()
        session.gen = None
        session.txn_index += 1
        if session.txn_index >= len(session.plan):
            session.done = True

    # -- backing off after an abort -------------------------------------------

    def _transaction_ended(self) -> None:
        for session in self.sessions:
            session.backing_off = False

    def _charge_backoff(self, session: _Session) -> None:
        """Book the virtual time a session spent backing off.

        Waiting burns no server resource, so the charge goes through an
        overlap window: recorded (metrics + ``locks.lock_wait_seconds``)
        without advancing the global clock.
        """
        if session.parked_at <= 0.0:
            return
        waited = self.meter.now - session.parked_at
        session.parked_at = 0.0
        if waited <= 0.0:
            return
        meter = self.meter
        meter.begin_overlap()
        meter.charge(SERVER_CPU, waited, "lock wait")
        meter.end_overlap()
        meter.count("locks.lock_wait_seconds", waited)

    # -- raw ODBC execution ---------------------------------------------------

    def _execute(self, session: _Session, kind: str, sql: str):
        manager = session.app.manager
        statement = session.statement
        if statement is None:
            statement = manager.alloc_statement(session.app.conn)
        rc = manager.exec_direct(statement, sql)
        if rc == SQL_STILL_EXECUTING:
            if session.statement is None:
                self.result.lock_waits += 1
                session.statement = statement
            return "executing", None, None
        session.statement = None
        if rc != SQL_SUCCESS:
            state = self._diag_state(manager, statement)
            manager.free_statement(statement)
            return "error", state, None
        rows = None
        if kind == "query":
            rows = []
            while True:
                rc, row = manager.fetch(statement)
                if rc == SQL_NO_DATA:
                    break
                if rc != SQL_SUCCESS:
                    state = self._diag_state(manager, statement)
                    manager.free_statement(statement)
                    return "error", state, None
                rows.append(row)
        manager.free_statement(statement)
        return "ok", None, rows

    def _rollback(self, app: BenchmarkApp) -> None:
        manager = app.manager
        statement = manager.alloc_statement(app.conn)
        # Tolerate "no transaction": the server may have already aborted
        # and cleared the victim's transaction.
        manager.exec_direct(statement, "ROLLBACK")
        manager.free_statement(statement)

    @staticmethod
    def _diag_state(manager, statement) -> str:
        diags = manager.get_diag(statement)
        return diags[-1].sqlstate if diags else "HY000"


# ---------------------------------------------------------------------------
# World building and digests
# ---------------------------------------------------------------------------


def build_concurrent_world(num_sessions: int,
                           costs: CostModel,
                           txns_per_session: int = 4,
                           items: int = 200,
                           customers_per_district: int = 20,
                           initial_orders_per_district: int = 10,
                           seed: int = 42):
    """One server + N connected apps + deterministic plans, priced by
    ``costs``.

    Every leg of a comparison must call this with identical arguments
    so worlds and descriptors agree exactly.
    """
    scale = TpccScale(
        warehouses=warehouses_for(num_sessions),
        customers_per_district=customers_per_district,
        items=items,
        initial_orders_per_district=initial_orders_per_district)
    server = DatabaseServer(meter=Meter(costs))
    setup_tpcc_server(server, generate_tpcc(scale, seed=seed))
    apps = [BenchmarkApp(server, login=f"session-{i}")
            for i in range(num_sessions)]
    plans = build_plans(num_sessions, txns_per_session, scale,
                        seed=seed + 1)
    return server, apps, plans, scale


def digest_database(engine) -> dict[str, str]:
    """Order-independent per-table content digests (sorted row reprs).

    Runs with the clock paused: digesting is measurement, not workload.
    """
    meter = engine.meter
    saved = meter.advance_clock
    meter.advance_clock = False
    digests: dict[str, str] = {}
    try:
        for name in sorted(engine.catalog.tables):
            table = engine.table(name)
            rows = sorted(repr(row)
                          for _page_no, page in table.heap.scan_pages()
                          for row in page.live())
            payload = "\n".join(rows).encode()
            digests[name] = hashlib.sha256(payload).hexdigest()
    finally:
        meter.advance_clock = saved
    return digests
