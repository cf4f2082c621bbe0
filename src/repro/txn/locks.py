"""Hierarchical lock manager: table locks, row locks, FIFO wait queues.

Intention modes (IS/IX) at table granularity plus S/X locks at row
granularity (keyed by table + primary key), strict two-phase (everything
is released only by :meth:`release_all` at commit/abort).  Conflicts
*wait*, and waiting lives here: every lockable resource has a FIFO queue
of :class:`QueuedRequest`.

Queue discipline:

* A request is granted when it is compatible with every other holder of
  the resource *and* with every request queued ahead of it; otherwise it
  is queued and the call unwinds with
  :class:`~repro.errors.LockWaitError` (the host is single-threaded:
  whoever issued the statement holds it and runs it again once
  :meth:`is_waiting` turns false).  A fresh request therefore never
  passes an incompatible waiter; a compatible one may (IS beside a
  queued S).
* An upgrade (the transaction already holds a weaker mode on the
  resource) queues behind earlier upgrades and ahead of every fresh
  request.
* A waiter's *blockers* are derived, never stored: the incompatible
  holders plus the incompatible requests ahead of it (:meth:`waiting_for`).
  They are the edges of the wait-for graph, so the graph is current by
  construction.
* A transaction has at most one queued request.  Asking for something
  else withdraws it; whoever abandons a wait without asking for
  anything (a cancelled statement) calls :meth:`withdraw`.
* Grant on release: :meth:`release_all` (and :meth:`withdraw`) hand each
  freed resource to the queued requests that no longer have a blocker,
  in queue order, and report the transactions so unblocked.  The lock is
  *held* from that moment — nobody can barge in between the release and
  the waiter's statement running again.

Deadlocks: registering a wait is the only event that adds an edge
towards a waiting transaction, so every new cycle runs through the
transaction that just queued.  Detection therefore runs from it, and to
a fixed point — one victim per cycle until none is left — so that after
every call the wait-for graph over live transactions is acyclic.  The
victim is the youngest member of the cycle (largest txn id — ids are
assigned monotonically).  When the victim is the requester the request
raises :class:`DeadlockError`; otherwise the victim is aborted through
the :attr:`on_victim` callback and the search repeats.  The requester
unwinds with ``LockWaitError`` even when an abort left it holding the
lock it asked for: its statement may have read rows the victim's undo
has just changed, and a clean re-run re-reads them.

There is no lock escalation: a transaction keeps the row locks it
takes.  Trading them for a table S/X lock makes a wide reader conflict
with every writer of the table instead of the writers of its rows
(DESIGN.md §16).

Compatibility matrix (request column vs. held row)::

         IS    IX    S     X
    IS   yes   yes   yes   no
    IX   yes   yes   no    no
    S    yes   no    yes   no
    X    no    no    no    no

Row locks only use S and X.  Every row-lock holder also holds at least
an intention lock on the table, so table-level requests need only be
checked against table-level holders.
"""

from __future__ import annotations

import enum
from collections import defaultdict

from repro.errors import DeadlockError, LockWaitError


class LockMode(enum.Enum):
    SHARED = "S"
    EXCLUSIVE = "X"
    INTENT_SHARED = "IS"
    INTENT_EXCLUSIVE = "IX"


_IS = LockMode.INTENT_SHARED
_IX = LockMode.INTENT_EXCLUSIVE
_S = LockMode.SHARED
_X = LockMode.EXCLUSIVE

#: held mode -> requested modes another transaction may hold beside it.
_COMPATIBLE: dict[LockMode, tuple] = {
    _IS: (_IS, _IX, _S),
    _IX: (_IS, _IX),
    _S: (_IS, _S),
    _X: (),
}

#: held mode -> requested modes it subsumes for the *same* transaction.
_COVERS: dict[LockMode, tuple] = {
    _X: (_X, _S, _IX, _IS),
    _S: (_S, _IS),
    _IX: (_IX, _IS),
    _IS: (_IS,),
}

# Every request tests both tables, per row, and an Enum member hashes
# through Python-level ``Enum.__hash__`` — so each mode carries its rows
# as bit masks: ``held.covers & requested.bit``.
for _i, _mode in enumerate(LockMode):
    _mode.bit = 1 << _i
for _mode in LockMode:
    _mode.covers = sum(m.bit for m in _COVERS[_mode])
    _mode.compatible = sum(m.bit for m in _COMPATIBLE[_mode])

#: mode pair -> the weakest mode covering both (same-transaction merge).
_SUPREMUM: dict[tuple, LockMode] = {}
for _a in LockMode:
    for _b in LockMode:
        if _a.covers & _b.bit:
            _SUPREMUM[(_a, _b)] = _a
        elif _b.covers & _a.bit:
            _SUPREMUM[(_a, _b)] = _b
        else:
            _SUPREMUM[(_a, _b)] = _X  # {S, IX} (and anything with X) -> X


def _txns(ids) -> str:
    ids = sorted(ids)
    return (f"txn {ids[0]}" if len(ids) == 1
            else "txns " + ", ".join(str(i) for i in ids))


def _describe_holders(conflicts: dict) -> tuple[str, str]:
    """``("S lock", "txn 7")`` / ``("S,X locks", "txns 7, 9")`` — reports
    the modes actually held (the seed always claimed an X blocker, which
    was wrong for shared->exclusive upgrades)."""
    modes = ",".join(sorted({held.value for held in conflicts.values()}))
    noun = "lock" if len(conflicts) == 1 else "locks"
    return f"{modes} {noun}", _txns(conflicts)


def _describe_resource(resource) -> str:
    if type(resource) is str:
        return f"table {resource!r}"
    table, key = resource
    return f"row {key!r} of {table!r}"


class QueuedRequest:
    """One transaction's place in one resource's wait queue."""

    __slots__ = ("txn_id", "resource", "mode", "upgrade", "since")

    def __init__(self, txn_id: int, resource, mode: LockMode,
                 upgrade: bool, since: float):
        self.txn_id = txn_id
        #: Table name, or ``(table, primary key)`` for a row.
        self.resource = resource
        #: The mode the transaction will hold once granted (the supremum
        #: of what it holds and what it asked for).
        self.mode = mode
        self.upgrade = upgrade
        #: Virtual time the request was queued.
        self.since = since

    def __repr__(self) -> str:
        kind = "upgrade" if self.upgrade else "request"
        return (f"<txn {self.txn_id} {kind} {self.mode.value} on "
                f"{_describe_resource(self.resource)}>")


class LockManager:
    """Tracks table- and row-granularity locks per transaction."""

    def __init__(self, meter=None):
        # table -> {txn_id -> LockMode}
        self._locks: dict[str, dict[int, LockMode]] = defaultdict(dict)
        # (table, row key) -> {txn_id -> LockMode (S/X only)}
        self._row_locks: dict[tuple, dict[int, LockMode]] = {}
        # txn_id -> table -> set of row keys (release)
        self._txn_rows: dict[int, dict[str, set]] = {}
        # txn_id -> tables it holds a table-granularity lock on (release)
        self._txn_tables: dict[int, list[str]] = {}
        # resource -> its waiters in service order (no empty queues)
        self._queues: dict[object, list[QueuedRequest]] = {}
        #: txn_id -> its one queued request (read-only outside).
        self.waiting: dict[int, QueuedRequest] = {}
        #: callback(txn_id) aborting a deadlock victim that is *not* the
        #: requester (wired to the engine's transaction manager).
        self.on_victim = None
        self._meter = meter

    def _count(self, counter: str, amount: float = 1.0) -> None:
        if self._meter is not None:
            self._meter.count(counter, amount)

    # -- table-granularity requests -------------------------------------------

    def acquire(self, txn_id: int, table_name: str, mode: LockMode) -> None:
        """Grant a table-granularity lock, or queue the request and
        raise (see the module docstring)."""
        table = table_name.lower()
        holders = self._locks[table]
        current = holders.get(txn_id)
        if current is not None and current.covers & mode.bit:
            return
        needed = (mode if current is None
                  else _SUPREMUM[(current, mode)])
        self._request(txn_id, table, holders, current, needed)
        self._grant_table(txn_id, table, holders, needed)

    def _grant_table(self, txn_id: int, table: str, holders: dict,
                     mode: LockMode) -> None:
        if txn_id not in holders:
            self._txn_tables.setdefault(txn_id, []).append(table)
        holders[txn_id] = mode

    # -- row-granularity requests ---------------------------------------------

    def acquire_row(self, txn_id: int, table_name: str, key: tuple,
                    mode: LockMode) -> None:
        """Grant an S/X lock on one row (identified by its primary key).

        The caller must already hold at least an intention lock on the
        table.  A table-granularity S/X held by the same transaction
        subsumes the row lock.
        """
        table = table_name.lower()
        table_holders = self._locks.get(table)
        if table_holders:
            table_held = table_holders.get(txn_id)
            if table_held is not None and table_held.covers & mode.bit:
                return
        resource = (table, key)
        holders = self._row_locks.get(resource)
        if holders is None:
            holders = self._row_locks[resource] = {}
        current = holders.get(txn_id)
        if current is not None and current.covers & mode.bit:
            return
        needed = (mode if current is None
                  else _SUPREMUM[(current, mode)])
        try:
            self._request(txn_id, resource, holders, current, needed)
        except (LockWaitError, DeadlockError):
            if not self._row_locks.get(resource, True):
                del self._row_locks[resource]  # a row nobody holds
            raise
        self._grant_row(txn_id, resource, holders, needed)

    def _grant_row(self, txn_id: int, resource: tuple, holders: dict,
                   mode: LockMode) -> None:
        if txn_id not in holders:
            table, key = resource
            self._txn_rows.setdefault(txn_id, {}) \
                .setdefault(table, set()).add(key)
            self._count("locks.row_locks_acquired")
        holders[txn_id] = mode

    # -- the one request path -------------------------------------------------

    def _request(self, txn_id: int, resource, holders: dict,
                 current: LockMode | None, needed: LockMode) -> None:
        """Return when ``txn_id`` may hold ``needed`` on ``resource``
        (the caller records the grant); otherwise queue it, break every
        deadlock that closes, and raise."""
        request = queue = None
        if self._queues:
            request = self.waiting.get(txn_id)
            if request is not None and (request.resource != resource
                                        or request.mode is not needed):
                self.withdraw(txn_id)
                request = None
            queue = self._queues.get(resource)
        if queue is None:
            # Nobody waits for this resource: only a holder can refuse.
            bit = needed.bit
            for other, held in holders.items():
                if other != txn_id and not held.compatible & bit:
                    break
            else:
                return
        fresh = request is None
        if fresh:
            request = QueuedRequest(
                txn_id, resource, needed, upgrade=current is not None,
                since=(self._meter.peek_now()
                       if self._meter is not None else 0.0))
            self._enqueue(request)
        blockers = self._blockers(request)
        if not blockers:
            # Those queued behind it were already behind it: leaving the
            # queue as a holder changes nothing for them.
            self._dequeue(request)
            return
        aborted = self._break_deadlocks(request, blockers)
        if fresh and self.waiting.get(txn_id) is request:
            self._count("locks.wait_episodes")
        what = (f"txn {txn_id} waiting for {needed.value} lock on "
                f"{_describe_resource(resource)}")
        raise LockWaitError(
            f"{what}: deadlock broken by aborting {_txns(aborted)}"
            if aborted
            else f"{what}: {self._describe_blockers(request, blockers)}",
            txn_id)

    def _enqueue(self, request: QueuedRequest) -> None:
        queue = self._queues.setdefault(request.resource, [])
        index = len(queue)
        if request.upgrade:
            index = 0
            while index < len(queue) and queue[index].upgrade:
                index += 1
        queue.insert(index, request)
        self.waiting[request.txn_id] = request

    def _dequeue(self, request: QueuedRequest) -> None:
        queue = self._queues[request.resource]
        queue.remove(request)
        if not queue:
            del self._queues[request.resource]
        del self.waiting[request.txn_id]

    def _holders_of(self, resource) -> dict:
        if type(resource) is str:
            return self._locks.get(resource) or {}
        return self._row_locks.get(resource) or {}

    def _blockers(self, request: QueuedRequest) -> dict[int, LockMode]:
        """txn id -> the mode it holds or has queued ahead: everything
        ``request`` has to outlast.  Empty means it can be granted."""
        txn_id = request.txn_id
        bit = request.mode.bit
        blockers = {other: held for other, held
                    in self._holders_of(request.resource).items()
                    if other != txn_id and not held.compatible & bit}
        for ahead in self._queues[request.resource]:
            if ahead is request:
                break
            if not ahead.mode.compatible & bit:
                blockers.setdefault(ahead.txn_id, ahead.mode)
        return blockers

    def _describe_blockers(self, request: QueuedRequest,
                           blockers: dict) -> str:
        holders = self._holders_of(request.resource)
        held = {txn: mode for txn, mode in blockers.items()
                if txn in holders}
        parts = []
        if held:
            parts.append("{} held by {}".format(*_describe_holders(held)))
        if len(held) < len(blockers):
            parts.append("queued behind "
                         + _txns(txn for txn in blockers if txn not in held))
        return ", ".join(parts)

    # -- deadlocks ------------------------------------------------------------

    def _break_deadlocks(self, request: QueuedRequest,
                         blockers: dict) -> list[int]:
        """Abort one victim per wait-for cycle through ``request`` until
        none is left; returns the victims.  Raises ``DeadlockError``
        when the requester is the youngest of a cycle."""
        txn_id = request.txn_id
        aborted: list[int] = []
        while self.waiting.get(txn_id) is request:
            cycle = self._find_cycle(txn_id)
            if cycle is None:
                break
            self._count("locks.deadlocks_detected")
            victim = max(cycle)  # youngest: txn ids are monotonic
            if victim == txn_id or self.on_victim is None:
                # Requester is the victim (or no aborter is wired, in
                # which case aborting the requester still breaks the
                # cycle).
                self.withdraw(txn_id)
                raise DeadlockError(
                    f"txn {txn_id} chosen as deadlock victim (cycle: "
                    f"{sorted(cycle)}; wanted {request.mode.value} lock "
                    f"on {_describe_resource(request.resource)}, "
                    f"blocked by {_txns(blockers)})")
            if victim in aborted:
                raise RuntimeError(
                    f"on_victim({victim}) left txn {victim} waiting: it "
                    f"must end with release_all")
            aborted.append(victim)
            self.on_victim(victim)  # must end with release_all(victim)
        return aborted

    def _find_cycle(self, start: int) -> list | None:
        """Cycle through ``start`` in the wait-for graph, or None.

        Edges run waiter -> blocker and are derived from the queues at
        the moment of asking; only queued transactions have outgoing
        edges, so a path ends at the first transaction that is running.
        """
        path: list[int] = []
        on_path: set[int] = set()

        def visit(node: int) -> list | None:
            request = self.waiting.get(node)
            if request is None:
                return None
            path.append(node)
            on_path.add(node)
            for blocker in sorted(self._blockers(request)):
                if blocker == start:
                    return list(path)
                if blocker in on_path:
                    continue  # a cycle not through `start`
                found = visit(blocker)
                if found is not None:
                    return found
            path.pop()
            on_path.discard(node)
            return None

        return visit(start)

    # -- release / withdrawal ---------------------------------------------------

    def release_all(self, txn_id: int) -> list[int]:
        """Drop every lock and the queued request of ``txn_id``
        (commit/abort time) and hand what that frees to the queues;
        returns the transactions it unblocked, in grant order."""
        freed = []
        request = self.waiting.get(txn_id)
        if request is not None:
            self._dequeue(request)
            freed.append(request.resource)
        queues = self._queues
        for table in self._txn_tables.pop(txn_id, ()):
            holders = self._locks[table]
            holders.pop(txn_id, None)
            if not holders:
                del self._locks[table]
            if table in queues:
                freed.append(table)
        for table, keys in self._txn_rows.pop(txn_id, {}).items():
            for key in keys:
                resource = (table, key)
                holders = self._row_locks[resource]
                del holders[txn_id]
                if not holders:
                    del self._row_locks[resource]
                if resource in queues:
                    freed.append(resource)
        return self._serve_queues(freed) if freed else []

    def withdraw(self, txn_id: int) -> list[int]:
        """Take ``txn_id``'s queued request (if any) out of its queue —
        the statement that wanted it will not run again — and serve who
        was queued behind it; returns the transactions unblocked."""
        request = self.waiting.get(txn_id)
        if request is None:
            return []
        self._dequeue(request)
        return self._serve_queues([request.resource])

    def _serve_queues(self, resources: list) -> list[int]:
        """Grant, in queue order, every request on ``resources`` that no
        longer has a blocker."""
        unblocked = []
        for resource in dict.fromkeys(resources):
            for request in list(self._queues.get(resource, ())):
                if self._blockers(request):
                    continue
                self._dequeue(request)
                txn_id = request.txn_id
                if type(resource) is str:
                    self._grant_table(txn_id, resource,
                                      self._locks[resource], request.mode)
                else:
                    holders = self._row_locks.get(resource)
                    if holders is None:
                        holders = self._row_locks[resource] = {}
                    self._grant_row(txn_id, resource, holders,
                                    request.mode)
                self._count("locks.grants_on_release")
                unblocked.append(txn_id)
        return unblocked

    # -- introspection ----------------------------------------------------------

    def held(self, txn_id: int, table_name: str) -> LockMode | None:
        return self._locks.get(table_name.lower(), {}).get(txn_id)

    def holders(self, table_name: str) -> dict[int, LockMode]:
        return dict(self._locks.get(table_name.lower(), {}))

    def row_holders(self, table_name: str, key: tuple) -> dict:
        return dict(self._row_locks.get((table_name.lower(), key), {}))

    def row_lock_count(self, txn_id: int, table_name: str | None = None
                       ) -> int:
        tables = self._txn_rows.get(txn_id, {})
        if table_name is not None:
            return len(tables.get(table_name.lower(), ()))
        return sum(len(keys) for keys in tables.values())

    def is_waiting(self, txn_id: int) -> bool:
        """Does ``txn_id`` have a request in some queue?  False again as
        soon as a release has granted it (or an abort has removed it):
        the moment its statement can run again."""
        return txn_id in self.waiting

    def waiting_for(self, txn_id: int) -> frozenset | None:
        """Blocker txn ids of a queued transaction (None if not queued)."""
        request = self.waiting.get(txn_id)
        return (frozenset(self._blockers(request))
                if request is not None else None)

    def queued(self) -> list[QueuedRequest]:
        """Every queued request, resource by resource in service order."""
        return [request for resource in sorted(self._queues, key=repr)
                for request in self._queues[resource]]

    def snapshot(self) -> list[tuple]:
        """Held-lock rows for the ``sys_locks`` view: (table, granularity,
        lock_key, mode, txn_id, waiters) — waiters lists the transactions
        queued with that holder among their blockers."""
        waiting_on: dict[int, list[int]] = defaultdict(list)
        for waiter, request in sorted(self.waiting.items()):
            for blocker in self._blockers(request):
                waiting_on[blocker].append(waiter)
        rows = []
        for table in sorted(self._locks):
            for txn_id, mode in sorted(self._locks[table].items()):
                rows.append((table, "table", "", mode.value, txn_id,
                             ",".join(str(w)
                                      for w in waiting_on.get(txn_id, ()))))
        for (table, key), holders in sorted(self._row_locks.items(),
                                            key=lambda kv: (kv[0][0],
                                                            repr(kv[0][1]))):
            for txn_id, mode in sorted(holders.items()):
                rows.append((table, "row", repr(key), mode.value, txn_id,
                             ",".join(str(w)
                                      for w in waiting_on.get(txn_id, ()))))
        return rows

    def queue_snapshot(self) -> list[tuple]:
        """Queued-request rows for the ``sys_locks`` view: (table,
        granularity, lock_key, requested mode, txn_id, queue position
        from 1, blocker txn ids, virtual seconds waited so far)."""
        now = self._meter.peek_now() if self._meter is not None else 0.0
        rows = []
        for resource in sorted(self._queues, key=repr):
            if type(resource) is str:
                table, granularity, key = resource, "table", ""
            else:
                table, granularity, key = (resource[0], "row",
                                           repr(resource[1]))
            for position, request in enumerate(self._queues[resource], 1):
                blockers = ",".join(
                    str(b) for b in sorted(self._blockers(request)))
                rows.append((table, granularity, key, request.mode.value,
                             request.txn_id, position, blockers,
                             now - request.since))
        return rows
