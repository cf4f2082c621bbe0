"""Test-only oracle: the per-row insert path the engine retired.

Until the page-at-a-time write path, ``INSERT`` built and placed one row
at a time: every value through ``coerce``, three pool accesses and a
``sorted()`` of the free-space set per row, the record's payload summed
value by value, one ``charge_batched`` per row.  This file keeps that
loop — ``_build_row``, ``find_insert_target``/``_page_with_space`` and
``Table.insert`` as they stood — as the judge of ``RowShape.build`` and
``Table.insert_many``: same rows, same addresses, same log, same page
and pool state, same virtual charges.  Four rules came after it and
are written out here row by row: a slot another live transaction's
DELETE emptied is that transaction's (ARIES space reservation), a page
a row fills leaves the free-space set at once, a row goes to the page
the statement's previous row went to while that page has a slot for
it, and a page held by another deleter is looked at once per
statement, not once per page filled (no transaction ends while the
statement runs, so none of its slots can open).  Each row builds,
chains and appends its own
``InsertRecord``.  It reaches into the runtime's private parts on
purpose (that is what the old code did); it shares no helper with the
new path beyond the storage primitives both sit on.
"""

from repro.errors import ConstraintError, EngineError
from repro.sim.costs import SERVER_CPU
from repro.storage.btree import NullKey
from repro.storage.heap import RowId
from repro.types import coerce_column, value_width_bytes
from repro.wal.records import InsertRecord


def build_row(columns, positions, source) -> tuple:
    """``DatabaseEngine._build_row`` with ``_run_insert``'s arity check."""
    if len(source) != len(positions):
        raise EngineError(f"INSERT has {len(source)} values for "
                          f"{len(positions)} columns")
    values: list = [None] * len(columns)
    for position, value in zip(positions, source):
        values[position] = coerce_column(value, columns[position])
    for i, column in enumerate(columns):
        if values[i] is None and not column.nullable:
            raise EngineError(f"column {column.name!r} is NOT NULL")
    return tuple(values)


def _open_slot(page, owner, live):
    """The slot a row of transaction ``owner`` takes in ``page``: the
    most recently emptied one whose deleter is ``owner`` or no longer
    live (``live``: the active transactions' ids), else the next unused
    one; None when there is neither."""
    reserved = page.reserved or {}
    for slot in reversed(page.free_slots):
        holder = reserved.get(slot)
        if holder is None or holder == owner or holder not in live:
            return slot
    return len(page.slots) if len(page.slots) < page.capacity else None


def _page_with_space(heap, owner, live, previous=None, passed=None) -> int:
    """The page the statement's previous row went to while it has a
    slot ``owner`` may take, else the lowest such page, else a new one.
    A page whose empty slots are all held by another live deleter stays
    a candidate but joins the statement's ``passed`` pages, which are
    not looked at again; a page without an empty slot leaves the set."""
    passed = set() if passed is None else passed
    candidates = sorted(heap._pages_with_space - passed)
    if previous in heap._pages_with_space:
        candidates.insert(0, previous)
    for page_no in candidates:
        page = heap._page(page_no, create=False)
        if page is not None and _open_slot(page, owner, live) is not None:
            return page_no
        if page is None or not page.has_empty_slot():
            heap._pages_with_space.discard(page_no)
        else:
            passed.add(page_no)
    return heap.page_count


def _insert_target(heap, owner, live, previous=None, passed=None):
    page_no = _page_with_space(heap, owner, live, previous, passed)
    page = heap._page(page_no, create=True)
    return RowId(heap.file_id, page_no, _open_slot(page, owner, live)), page


def find_insert_target(heap, owner=0, live=()) -> RowId:
    return _insert_target(heap, owner, live)[0]


def _check_unique(table, row) -> None:
    for info, tree in table._indexes.values():
        if not info.unique:
            continue
        key = table._index_key(row, info)
        if any(isinstance(v, NullKey) for v in key):
            raise ConstraintError(
                f"NULL in unique key {info.name!r} of {table.info.name!r}")
        if tree.search(key):
            raise ConstraintError(
                f"duplicate key {key!r} in {table.info.name!r}")


def insert(table, row, txn, txns, previous=None, passed=None) -> RowId:
    """``Table.insert``: one row, logged, placed, indexed, charged
    (``previous``: the page the statement's previous row went to;
    ``passed``: the held pages the statement has looked at)."""
    _check_unique(table, row)
    owner = txn.txn_id if txn is not None else 0
    heap = table.heap
    rid, page = _insert_target(heap, owner, txns.live if txns else (),
                               previous, passed)
    lsn = 0
    if not table.info.volatile and txn is not None and txns is not None:
        # One record per row, chained and appended on its own.
        txns._note_write(txn, table.info.name, table.row_lock_key, (row,))
        lsn = txns._chain(txn, InsertRecord(
            txn_id=txn.txn_id, table_name=table.info.name,
            file_id=rid.file_id, page_no=rid.page_no, slot=rid.slot,
            row=row, row_bytes=sum(map(value_width_bytes, row))),
            table.cost_factor)
    heap.apply_insert(rid, row, lsn)
    # A page the row filled leaves the candidates at once: a later
    # row's search must not touch it again.
    if not page.has_empty_slot():
        heap._pages_with_space.discard(rid.page_no)
    for info, tree in table._indexes.values():
        tree.insert(table._index_key(row, info), rid)
    meter = table._meter
    if meter is not None:
        seconds = meter.costs.cpu_per_tuple_insert * table.cost_factor
        meter.charge_batched(SERVER_CPU, seconds, "cpu_per_tuple_insert")
    return rid


def insert_each(table, rows, txn, txns) -> list[RowId]:
    """The statement loop: stops at the first row that raises, leaving
    the rows before it inserted."""
    rids, passed = [], set()
    for row in rows:
        rids.append(insert(table, row, txn, txns,
                           rids[-1].page_no if rids else None, passed))
    return rids
