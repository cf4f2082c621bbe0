"""Test-only oracle: the per-row insert path the engine retired.

Until the page-at-a-time write path, ``INSERT`` built and placed one row
at a time: every value through ``coerce``, three pool accesses and a
``sorted()`` of the free-space set per row, the record's payload summed
value by value, one ``charge_batched`` per row.  This file keeps that
loop — ``_build_row``, ``find_insert_target``/``_page_with_space`` and
``Table.insert`` as they stood — as the judge of ``RowShape.build`` and
``Table.insert_many``: same rows, same addresses, same log, same page
and pool state, same virtual charges.  It reaches into the runtime's
private parts on purpose (that is what the old code did); it shares no
helper with the new path beyond the storage primitives both sit on.
"""

from repro.errors import ConstraintError, EngineError
from repro.sim.costs import SERVER_CPU
from repro.storage.btree import NullKey
from repro.storage.heap import RowId
from repro.types import coerce_column, value_width_bytes


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


def _page_with_space(heap) -> int:
    for page_no in sorted(heap._pages_with_space):
        page = heap._page(page_no, create=False)
        if page is not None and page.has_empty_slot():
            return page_no
        heap._pages_with_space.discard(page_no)
    return heap.page_count


def find_insert_target(heap) -> RowId:
    page_no = _page_with_space(heap)
    page = heap._page(page_no, create=True)
    if page.free_slots:
        slot = page.free_slots[-1]
    else:
        slot = len(page.slots)
    return RowId(heap.file_id, page_no, slot)


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


def insert(table, row, txn, txns) -> RowId:
    """``Table.insert``: one row, logged, placed, indexed, charged."""
    _check_unique(table, row)
    rid = find_insert_target(table.heap)
    lsn = 0
    if not table.info.volatile and txn is not None and txns is not None:
        lsn = txns.log_insert(txn, table.info.name, rid, row,
                              sum(map(value_width_bytes, row)),
                              table.cost_factor, table.row_lock_key)
    table.heap.apply_insert(rid, row, lsn)
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
    return [insert(table, row, txn, txns) for row in rows]
