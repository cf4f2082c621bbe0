"""Hierarchical lock manager: table locks, row locks, deadlock detection.

Two regimes, selected by ``CostModel.lock_granularity``:

* ``"table"`` (the default) preserves the seed behaviour exactly: shared
  (S) and exclusive (X) locks at table granularity, strict two-phase,
  with a *no-wait* policy — a conflicting request raises
  :class:`~repro.errors.DeadlockError` immediately and the requester is
  expected to abort and retry, matching the paper's stance that
  applications already handle transaction aborts.

* ``"row"`` enables the hierarchy: intention modes (IS/IX) at table
  granularity plus S/X locks at row granularity (keyed by table +
  primary key), still strict two-phase (everything is released only by
  :meth:`release_all` at commit/abort).  Conflicts *wait* instead of
  aborting: the requester is registered in the wait-for graph and the
  request unwinds with :class:`~repro.errors.LockWaitError` so the
  single-threaded host can park the session and retry the statement once
  a blocker finishes.  A wait that closes a cycle triggers deadlock
  detection; the youngest transaction in the cycle (largest txn id —
  ids are assigned monotonically) is the victim.  When the victim is the
  requester the request raises :class:`DeadlockError`; otherwise the
  victim is aborted through the :attr:`on_victim` callback and the
  request is re-evaluated.

Lock escalation: once a transaction holds more than
``CostModel.lock_escalation_threshold`` row locks on one table, the
manager trades them for a single table-granularity S/X lock (when no
other transaction conflicts at table level; otherwise escalation is
retried on the next acquisition).

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

# Every request tests both tables, per row under row granularity, and an
# Enum member hashes through Python-level ``Enum.__hash__`` — so each
# mode carries its rows as bit masks: ``held.covers & requested.bit``.
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


def _describe_holders(conflicts: dict) -> str:
    """``"S lock ... held by txn 7"`` / ``"S,X locks ... held by txns 7, 9"``
    — reports the modes actually held (the seed always claimed an X
    blocker, which was wrong for shared->exclusive upgrades)."""
    modes = ",".join(sorted({held.value for held in conflicts.values()}))
    ids = sorted(conflicts)
    noun = "lock" if len(conflicts) == 1 else "locks"
    txns = (f"txn {ids[0]}" if len(ids) == 1
            else "txns " + ", ".join(str(i) for i in ids))
    return f"{modes} {noun}", txns


class LockManager:
    """Tracks table- and row-granularity locks per transaction."""

    def __init__(self, meter=None):
        # table -> {txn_id -> LockMode}
        self._locks: dict[str, dict[int, LockMode]] = defaultdict(dict)
        # (table, row key) -> {txn_id -> LockMode (S/X only)}
        self._row_locks: dict[tuple, dict[int, LockMode]] = {}
        # txn_id -> table -> set of row keys (release + escalation count)
        self._txn_rows: dict[int, dict[str, set]] = {}
        # txn_id -> tables it holds a table-granularity lock on (release)
        self._txn_tables: dict[int, list[str]] = {}
        # (txn_id, table) pairs whose row locks were escalated away
        self._escalated: set[tuple] = set()
        # txn_id -> (frozenset of blocker txn ids, resource description)
        self._waits: dict[int, tuple] = {}
        #: most recent conflict, for schedulers: (txn_id, blocker ids,
        #: resource description) — host-side bookkeeping only.
        self.last_conflict: tuple | None = None
        #: callback(txn_id) aborting a deadlock victim that is *not* the
        #: requester (wired to the engine's transaction manager).
        self.on_victim = None
        self._meter = meter

    # -- configuration helpers ------------------------------------------------

    @property
    def granularity(self) -> str:
        if self._meter is None:
            return "table"
        return self._meter.costs.lock_granularity

    def _count(self, counter: str, amount: float = 1.0) -> None:
        if self._meter is not None:
            self._meter.count(counter, amount)

    # -- table-granularity requests -------------------------------------------

    def acquire(self, txn_id: int, table_name: str, mode: LockMode) -> None:
        """Grant a table-granularity lock or raise on conflict.

        Under ``"table"`` granularity a conflict raises
        :class:`DeadlockError` immediately (seed no-wait policy); under
        ``"row"`` it waits — see the module docstring.
        """
        table = table_name.lower()
        holders = self._locks[table]
        current = holders.get(txn_id)
        if current is not None and current.covers & mode.bit:
            return
        needed = (mode if current is None
                  else _SUPREMUM[(current, mode)])
        conflicts = {other: held for other, held in holders.items()
                     if other != txn_id
                     and not held.compatible & needed.bit}
        if not conflicts:
            self._grant_table(txn_id, table, holders, needed)
            self._waits.pop(txn_id, None)
            return
        self._on_conflict(txn_id, conflicts, f"table {table!r}", needed)

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
        (e.g. after escalation) subsumes the row lock.
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
        conflicts = {other: held for other, held in holders.items()
                     if other != txn_id
                     and not held.compatible & needed.bit}
        if not conflicts:
            holders[txn_id] = needed
            self._waits.pop(txn_id, None)
            if current is None:
                self._txn_rows.setdefault(txn_id, {}) \
                    .setdefault(table, set()).add(key)
                self._count("locks.row_locks_acquired")
            self._maybe_escalate(txn_id, table)
            return
        self._on_conflict(txn_id, conflicts,
                          f"row {key!r} of {table!r}", needed)

    # -- escalation -----------------------------------------------------------

    def _maybe_escalate(self, txn_id: int, table: str) -> None:
        threshold = (self._meter.costs.lock_escalation_threshold
                     if self._meter is not None else 0)
        if threshold <= 0 or (txn_id, table) in self._escalated:
            return
        keys = self._txn_rows.get(txn_id, {}).get(table)
        if keys is None or len(keys) <= threshold:
            return
        target = _S
        for key in keys:
            if self._row_locks.get((table, key), {}).get(txn_id) is _X:
                target = _X
                break
        holders = self._locks[table]
        current = holders.get(txn_id)
        needed = target if current is None else _SUPREMUM[(current, target)]
        for other, held in holders.items():
            if other != txn_id and not held.compatible & needed.bit:
                return  # somebody conflicts at table level; retry later
        # Other transactions' *row* locks on this table would also
        # conflict with the escalated lock — but any such holder holds an
        # intention lock on the table, which the loop above just checked.
        self._grant_table(txn_id, table, holders, needed)
        self._drop_txn_rows(txn_id, table)
        self._escalated.add((txn_id, table))
        self._count("locks.escalations")

    def _drop_txn_rows(self, txn_id: int, table: str) -> None:
        keys = self._txn_rows.get(txn_id, {}).pop(table, set())
        for key in keys:
            holders = self._row_locks.get((table, key))
            if holders is not None:
                holders.pop(txn_id, None)
                if not holders:
                    del self._row_locks[(table, key)]

    # -- conflict handling ----------------------------------------------------

    def _on_conflict(self, txn_id: int, conflicts: dict, resource: str,
                     mode: LockMode) -> None:
        """No-wait abort (table granularity) or wait/deadlock-check (row).

        Never returns.  Row mode always unwinds with ``LockWaitError``
        (the statement retries from scratch) or ``DeadlockError`` (the
        requester is the victim) — even when a *different* victim was
        just aborted, because the requester's statement may hold row
        matches the abort's undo invalidated; a clean retry re-reads.
        """
        blockers = frozenset(conflicts)
        self.last_conflict = (txn_id, sorted(blockers), resource)
        modes, txns = _describe_holders(conflicts)
        if self.granularity != "row":
            raise DeadlockError(
                f"txn {txn_id} blocked on {modes} of {resource} "
                f"held by {txns}")
        self._waits[txn_id] = (blockers, resource)
        cycle = self._find_cycle(txn_id)
        if cycle is None:
            raise LockWaitError(
                f"txn {txn_id} waiting for {mode.value} lock on "
                f"{resource}: {modes} held by {txns}")
        self._count("locks.deadlocks_detected")
        victim = max(cycle)  # youngest: txn ids are monotonic
        if victim == txn_id or self.on_victim is None:
            # Requester is the victim (or no aborter is wired, in which
            # case aborting the requester still breaks the cycle).
            self._waits.pop(txn_id, None)
            raise DeadlockError(
                f"txn {txn_id} chosen as deadlock victim (cycle: "
                f"{sorted(cycle)}; wanted {mode.value} lock on "
                f"{resource} held by {txns})")
        self.on_victim(victim)  # must end with release_all(victim)
        raise LockWaitError(
            f"txn {txn_id} waiting for {mode.value} lock on {resource}: "
            f"deadlock broken by aborting txn {victim}")

    def _find_cycle(self, start: int) -> list | None:
        """Cycle through ``start`` in the wait-for graph, or None.

        Edges run waiter -> blocker; only transactions with a registered
        wait have outgoing edges, and finished transactions have none
        (release_all deregisters them), so stale blocker references are
        dead ends, never false positives.
        """
        path: list[int] = []
        on_path: set[int] = set()

        def visit(node: int) -> list | None:
            wait = self._waits.get(node)
            if wait is None:
                return None
            path.append(node)
            on_path.add(node)
            for blocker in sorted(wait[0]):
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

    # -- release / introspection ----------------------------------------------

    def release_all(self, txn_id: int) -> None:
        """Drop every lock and wait of ``txn_id`` (commit/abort time)."""
        for table in self._txn_tables.pop(txn_id, ()):
            holders = self._locks[table]
            holders.pop(txn_id, None)
            if not holders:
                del self._locks[table]
        for table in list(self._txn_rows.get(txn_id, {})):
            self._drop_txn_rows(txn_id, table)
        self._txn_rows.pop(txn_id, None)
        if self._escalated:
            self._escalated = {pair for pair in self._escalated
                               if pair[0] != txn_id}
        self._waits.pop(txn_id, None)

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

    def waiting_for(self, txn_id: int) -> frozenset | None:
        """Blocker txn ids of a registered waiter (None if not waiting)."""
        wait = self._waits.get(txn_id)
        return wait[0] if wait is not None else None

    def waiters(self) -> dict[int, tuple]:
        """txn_id -> (blockers, resource) for every registered waiter."""
        return dict(self._waits)

    def snapshot(self) -> list[tuple]:
        """Rows for the ``sys_locks`` view: (table, granularity, lock_key,
        mode, txn_id, waiters) — waiters lists transactions currently
        registered as waiting on one of the row's holders."""
        waiting_on: dict[int, list[int]] = defaultdict(list)
        for waiter, (blockers, _resource) in sorted(self._waits.items()):
            for blocker in blockers:
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

    def clear(self) -> None:
        self._locks.clear()
        self._row_locks.clear()
        self._txn_rows.clear()
        self._txn_tables.clear()
        self._escalated.clear()
        self._waits.clear()
        self.last_conflict = None
