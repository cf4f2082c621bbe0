"""Table runtime: heap + indexes + logged, index-maintained mutations.

One :class:`Table` object per open table.  All mutations flow through
:meth:`insert_many`, :meth:`delete` and :meth:`update`, which follow the
WAL rule (log first via the transaction manager, then touch pages, then
fix indexes) and charge CPU/log costs scaled by the table's
amplification factor.  Inserts are set-oriented: a statement hands over
all its rows and they are placed a page at a time.

A tree filled from many rows is built, not grown
(:meth:`BTree.build <repro.storage.btree.BTree.build>`): attaching an
index to a heap (:meth:`add_index` — restart, first touch, CREATE
INDEX) and an insert into a table whose trees are all empty
(:meth:`insert_many` — a bulk load, a fresh table's first INSERT) sort
the rows' keys once instead of inserting them one by one.

Volatile (temp) tables skip logging entirely: they die with the server
session, which is exactly the property Phoenix exploits to detect whether
a post-reconnect server session is the same one it had before.
"""

from __future__ import annotations

from operator import itemgetter

from repro.errors import ConstraintError
from repro.sim.costs import SERVER_CPU
from repro.storage.btree import NULL_KEY, BTree, encode_key
from repro.storage.catalog import IndexInfo, TableInfo
from repro.storage.heap import HeapFile, RowId
from repro.txn.manager import Transaction, TransactionManager
from repro.types import ROW_STATS, RowShape


class Table:
    """Runtime handle for one table."""

    def __init__(self, info: TableInfo, heap: HeapFile, meter=None):
        self.info = info
        self.heap = heap
        self._meter = meter
        #: Row building and sizing compiled for this table's columns.
        self.shape = RowShape(info.columns)
        self._indexes: dict[str, tuple[IndexInfo, BTree]] = {}
        #: index name -> ``row -> key``, memoized off the DML hot path
        self._key_fns: dict[str, object] = {}
        #: ``row -> primary-key tuple`` identifying a row for the row
        #: lock manager and for a transaction's write set (None without
        #: a primary key).  Row locks are logical (keyed by primary key,
        #: not rid) so a lock survives physical movement and a retried
        #: statement re-locks the same resource.
        self.row_lock_key = None
        if info.primary_key:
            positions = [info.column_index(c) for c in info.primary_key]
            if len(positions) == 1:
                # itemgetter with one index returns the bare value
                self.row_lock_key = (
                    lambda row, p=positions[0]: (row[p],))
            else:
                self.row_lock_key = itemgetter(*positions)
            # Built from the heap, not created empty: a runtime attached
            # to a non-empty heap (restart recovery, re-materialization
            # after cache eviction) must start with a complete PK tree —
            # incremental index maintenance during redo/undo relies on
            # every tree reflecting the heap it was attached to.
            self.add_index(IndexInfo(name=f"__pk_{info.name}",
                                     table_name=info.name,
                                     column_names=info.primary_key,
                                     unique=True),
                           enforce_unique=False)

    # -- planner interface ------------------------------------------------------

    @property
    def cost_factor(self) -> float:
        """Work amplification for base tables; 1.0 for Phoenix/temp tables."""
        if self._meter is None or not self.info.amplified:
            return 1.0
        return self._meter.costs.work_amplification

    def indexes(self) -> list[IndexInfo]:
        return [info for info, _tree in self._indexes.values()]

    def index_info(self, name: str) -> IndexInfo:
        return self._indexes[name.lower()][0]

    def index_tree(self, name: str) -> BTree:
        return self._indexes[name.lower()][1]

    def has_index(self, name: str) -> bool:
        return name.lower() in self._indexes

    def scan_pages(self):
        """``(page_no, page)`` per resident heap page, for the batch
        executor and ANALYZE (see HeapFile.scan_pages)."""
        return self.heap.scan_pages()

    # -- index management ----------------------------------------------------

    def add_index(self, info: IndexInfo,
                  enforce_unique: bool = True) -> None:
        """Register an index and build it from the current heap contents
        in one :meth:`BTree.build` over the heap scan's rows.

        ``enforce_unique=False`` is the attach-time mode: a heap read
        mid-recovery can transiently hold two rows with one unique key
        (a stale pre-delete page plus a flushed re-insert), and redo
        resolves that — so the build admits duplicates there (the
        tree's ``admitted`` keys, which recovery re-checks), while user
        ``CREATE UNIQUE INDEX`` keeps raising on real ones.
        """
        self._key_fns.pop(info.name, None)
        key_of = self._key_fn(info)
        tree = BTree.build([(key_of(row), rid)
                            for rid, row in self.heap.scan()],
                           info.unique, enforce_unique)
        self._indexes[info.name.lower()] = (info, tree)

    def remove_index(self, name: str) -> None:
        self._indexes.pop(name.lower(), None)
        self._key_fns.pop(name, None)

    def _key_fn(self, info: IndexInfo):
        """``row -> key`` of index ``info`` (:func:`encode_key` of its
        columns)."""
        key_of = self._key_fns.get(info.name)
        if key_of is None:
            key_of = _key_function([self.info.column_index(c)
                                    for c in info.column_names])
            self._key_fns[info.name] = key_of
        return key_of

    def _index_key(self, row: tuple, info: IndexInfo) -> tuple:
        return self._key_fn(info)(row)

    # -- mutations ----------------------------------------------------------

    def insert_many(self, rows: list[tuple], txn: Transaction | None,
                    txns: TransactionManager | None) -> None:
        """Insert ``rows`` in order, a page at a time.

        The unique checks run first, over the whole statement
        (:meth:`_clean_run`), and cut it at the first offender.  Then
        per page: one pool access handing out the page's open slots and,
        for the run of rows the page took, one log append (one record
        per row, payload from the row's width), one placement, one
        page-LSN / dirty-table / free-space update and one CPU charge.
        Charging per page keeps every ``page io`` charge — which only a
        page acquisition can make — at its position among the per-row
        CPU charges.  A page passed over because another live
        transaction holds its empty slots is not asked for again while
        the statement runs.  Last, the placed rows enter the index
        trees (:meth:`_index_rows`: an empty tree is built from them).

        Raises ConstraintError on a unique violation, leaving the rows
        before the offender inserted (the statement scope undoes them).
        """
        heap, name = self.heap, self.info.name
        file_id = heap.file_id
        logged = not self.info.volatile and txn is not None \
            and txns is not None
        factor = self.cost_factor
        width = self.shape.width
        # Slots that a live transaction's DELETE emptied are its own.
        owner = txn.txn_id if txn is not None else 0
        live = txns.live if txns is not None else ()
        passed: set[int] = set()
        # Checked before the pool is asked for a page: a violation must
        # not fault, allocate or evict anything.
        end, error = self._clean_run(rows)
        indexed = bool(self._indexes)
        rids: list[RowId] = []
        start = pages = 0
        try:
            while start < end:
                page_no, page, slots = heap.page_for_insert(owner, live,
                                                            passed)
                run = rows[start:min(start + len(slots), end)]
                slots = slots[:len(run)]
                first_lsn = last_lsn = 0
                if logged:
                    last_lsn = txns.log_inserts(
                        txn, name, file_id, page_no, slots, run,
                        map(width, run), factor, self.row_lock_key)
                    first_lsn = last_lsn - len(run) + 1
                page.fill(slots, run)
                heap.stamp_filled(page_no, page, first_lsn, last_lsn)
                self._charge_dml("cpu_per_tuple_insert", len(run))
                if indexed:
                    rids.extend(RowId(file_id, page_no, slot)
                                for slot in slots)
                pages += 1
                start += len(run)
        finally:
            if indexed:
                self._index_rows(rows, rids)
        if error is not None:
            raise error
        ROW_STATS["rows_inserted_bulk"] += len(rows)
        ROW_STATS["pages_filled_bulk"] += pages

    def delete(self, rid: RowId, txn: Transaction | None,
               txns: TransactionManager | None) -> tuple:
        row = self.heap.read(rid)
        if row is None:
            raise ValueError(f"no row at {rid}")
        lsn = 0
        if not self.info.volatile and txn is not None and txns is not None:
            lsn = txns.log_delete(txn, self.info.name, rid, row,
                                  self.shape.width(row), self.cost_factor,
                                  self.row_lock_key)
        # A logged delete reserves the slot until its transaction ends.
        self.heap.apply_delete(rid, lsn, txn.txn_id if lsn else 0)
        for info, tree in self._indexes.values():
            tree.delete(self._index_key(row, info), rid)
        self._charge_dml("cpu_per_tuple_delete")
        return row

    def update(self, rid: RowId, new_row: tuple, txn: Transaction | None,
               txns: TransactionManager | None) -> tuple:
        old_row = self.heap.read(rid)
        if old_row is None:
            raise ValueError(f"no row at {rid}")
        new_keys = self._checked_keys(new_row, ignore_rid=rid)
        lsn = 0
        if not self.info.volatile and txn is not None and txns is not None:
            width = self.shape.width
            lsn = txns.log_update(txn, self.info.name, rid, old_row,
                                  new_row, width(old_row) + width(new_row),
                                  self.cost_factor, self.row_lock_key)
        self.heap.apply_update(rid, new_row, lsn)
        for (info, tree), new_key in zip(self._indexes.values(), new_keys):
            old_key = self._index_key(old_row, info)
            if old_key != new_key:
                tree.delete(old_key, rid)
                tree.insert(new_key, rid)
        self._charge_dml("cpu_per_tuple_update")
        return old_row

    # -- recovery-side (already-logged) mutations ---------------------------
    #
    # Index inserts here never enforce uniqueness: repeating history can
    # transiently duplicate a unique key (e.g. redo replays an insert of
    # a key the attach-time tree build already picked up from a flushed
    # re-insert; the delete between them replays later).  The tree
    # remembers such keys, and recovery re-checks them once undo
    # completes.

    def apply_insert_with_indexes(self, rid: RowId, row: tuple,
                                  lsn: int) -> None:
        self.heap.apply_insert(rid, row, lsn)
        for info, tree in self._indexes.values():
            tree.insert(self._index_key(row, info), rid,
                        enforce_unique=False)

    def apply_delete_with_indexes(self, rid: RowId, lsn: int) -> None:
        row = self.heap.read(rid)
        if row is None:
            return
        self.heap.apply_delete(rid, lsn)
        for info, tree in self._indexes.values():
            tree.delete(self._index_key(row, info), rid)

    def apply_update_with_indexes(self, rid: RowId, new_row: tuple,
                                  lsn: int) -> None:
        old_row = self.heap.read(rid)
        if old_row is None:
            return
        self.heap.apply_update(rid, new_row, lsn)
        for info, tree in self._indexes.values():
            old_key = self._index_key(old_row, info)
            new_key = self._index_key(new_row, info)
            if old_key != new_key:
                tree.delete(old_key, rid)
                tree.insert(new_key, rid, enforce_unique=False)

    def validate_unique_indexes(self) -> None:
        """Assert every unique tree holds exactly one rid per key.

        Called by restart recovery after undo: transient duplicates
        admitted while repeating history must all have resolved.  Only
        a tree's ``admitted`` keys can hold more than one rid, so only
        they are read.
        """
        for info, tree in self._indexes.values():
            for key in sorted(tree.admitted):
                rids = tree.search(key)
                if len(rids) > 1:
                    raise ConstraintError(
                        f"unique index {info.name!r} of {self.info.name!r} "
                        f"holds {len(rids)} rows for key {key!r} after "
                        f"recovery")
            tree.admitted.clear()

    # -- internals ----------------------------------------------------------

    def _checked_keys(self, row: tuple,
                      ignore_rid: RowId | None = None) -> list[tuple]:
        """``row``'s key in every index (in index order), having checked
        that it collides with no other row in the unique ones."""
        keys = []
        for info, tree in self._indexes.values():
            key = self._index_key(row, info)
            if info.unique:
                self._require_unique(info, tree, key, ignore_rid)
            keys.append(key)
        return keys

    def _require_unique(self, info: IndexInfo, tree: BTree, key: tuple,
                        ignore_rid: RowId | None = None,
                        seen: set[tuple] | tuple = ()) -> None:
        """Raise unless ``key`` may enter unique index ``info``: no NULL
        in it, and no other row has it — in ``tree`` (but the row at
        ``ignore_rid``) or among the statement's ``seen`` keys."""
        if NULL_KEY in key:
            raise ConstraintError(
                f"NULL in unique key {info.name!r} of {self.info.name!r}")
        hits = tree.search(key)
        if key in seen or hits and (ignore_rid is None
                                    or hits != [ignore_rid]):
            raise ConstraintError(
                f"duplicate key {key!r} in {self.info.name!r}")

    def _clean_run(self, rows: list[tuple]):
        """``(n, error)``: inserted in order, the first ``n`` rows pass
        the unique checks — against the trees and against the rows
        before them — and row ``n`` fails them with ``error`` (None
        when all pass)."""
        checks = [(info, tree, self._key_fn(info), set())
                  for info, tree in self._indexes.values() if info.unique]
        if checks:
            for n, row in enumerate(rows):
                try:
                    for info, tree, key_of, seen in checks:
                        key = key_of(row)
                        self._require_unique(info, tree, key, seen=seen)
                        seen.add(key)
                except ConstraintError as error:
                    return n, error
        return len(rows), None

    def _index_rows(self, rows: list[tuple], rids: list[RowId]) -> None:
        """Enter the first ``len(rids)`` of ``rows``, placed at
        ``rids``, into every index tree.  An empty tree (a bulk load, a
        fresh table's first INSERT) is built from them — one tree at a
        time, its pairs dropped before the next —; any other takes them
        one by one."""
        for name, (info, tree) in self._indexes.items():
            pairs = zip(map(self._key_fn(info), rows), rids)
            if len(tree):
                for key, rid in pairs:
                    tree.insert(key, rid)
            else:
                self._indexes[name] = (info, BTree.build(list(pairs),
                                                         info.unique))

    def _charge_dml(self, cost_attr: str, rows: int = 1) -> None:
        if self._meter is None:
            return
        seconds = getattr(self._meter.costs, cost_attr) * self.cost_factor
        self._meter.charge_rows(SERVER_CPU, seconds, rows, cost_attr)


def _key_function(positions: list[int]):
    """``row -> encode_key(row[p] for p in positions)``, as one closure
    (an index's key function, made once per index)."""
    if len(positions) == 1:
        position = positions[0]
        return lambda row: (
            NULL_KEY if row[position] is None else row[position],)
    get = itemgetter(*positions)
    return lambda row: (key if None not in (key := get(row))
                        else encode_key(key))
