"""The page-at-a-time write path against the per-row loop it replaced,
and the statement-atomicity rules that ride on it.

``Table.insert_many`` must be indistinguishable from inserting the rows
one at a time (``tests/insert_oracle.py``, the retired code): same row
addresses, same page images and free-space bookkeeping, same log, same
dirty-page table, same virtual charges — whatever state the table, the
pool and the meter are in, and wherever in the batch a unique violation
stops it.  What it may differ in is how often it asks: one pool access
and one charge per page, not three and one per row — a page's rows are
charged as one product where the loop added row by row, so the clock
agrees to the oracles' fixed relative tolerance
(``row_engine_oracle.CLOCK_REL_TOL``), everything else exactly.
"""

import datetime
from itertools import groupby

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.session import EngineSession
from repro.errors import ConstraintError, EngineError, TypeMismatchError
from repro.odbc.constants import SQL_ERROR
from repro.phoenix_names import STATUS_TABLE
from repro.sim.costs import CostModel
from repro.types import ROW_STATS
from tests import insert_oracle
from tests.row_engine_oracle import same_clock
from tests.schedules import EngineWorld
from tests.test_phoenix_core import PhoenixWorld

# ---------------------------------------------------------------------------
# (a) insert_many == the per-row loop
# ---------------------------------------------------------------------------

EXTRA_TYPES = {"INT": st.one_of(st.none(), st.integers(-3, 3)),
               "FLOAT": st.one_of(st.none(), st.floats(-2, 2),
                                  st.integers(-2, 2)),
               "VARCHAR(8)": st.one_of(st.none(), st.text("ab", max_size=8)),
               "DATE": st.one_of(st.none(), st.dates(
                   datetime.date(2000, 1, 1), datetime.date(2000, 3, 1)),
                   st.just("2000-02-29"))}


@st.composite
def scenarios(draw):
    """A table, its prior history, one batch and how the world stands."""
    volatile = draw(st.booleans())
    extras = draw(st.lists(st.sampled_from(sorted(EXTRA_TYPES)),
                           max_size=3))
    spec = {
        "name": "#t" if volatile else draw(
            st.sampled_from(["t", "phoenix_t"])),  # amplified / not
        "extras": extras,
        "pk": draw(st.booleans()),
        # Catalog indexes are for durable tables only.
        "unique_u": not volatile and draw(st.booleans()),
        "index_tag": not volatile and draw(st.booleans()),
        "page_bytes": draw(st.sampled_from([24, 48, 96])),
        "pool_pages": draw(st.sampled_from([2, 3, 64])),
        "checkpoint": draw(st.booleans()),
        "mode": draw(st.sampled_from(["clocked", "window", "streams"])),
        "ending": draw(st.sampled_from(
            ["commit", "abort", "crash", "force+crash", "commit+crash"])),
    }

    def rows(ids):
        return [(i, 100 + i,
                 draw(st.one_of(st.none(), st.booleans(),
                                st.integers(0, 2))),
                 *[draw(EXTRA_TYPES[t]) for t in extras]) for i in ids]

    seeded = draw(st.integers(0, 9))
    spec["seed_rows"] = rows(range(seeded))
    spec["deleted"] = sorted(draw(st.sets(st.integers(0, max(0, seeded - 1)),
                                          max_size=seeded)))
    # Rows a second transaction deletes and leaves uncommitted: their
    # slots are held while the batch runs.
    spec["held"] = sorted(draw(st.sets(st.sampled_from(
        [i for i in range(seeded) if i not in spec["deleted"]] or [None]),
        max_size=3)) - {None})
    batch = rows(range(20, 20 + draw(st.integers(0, 40))))
    # A unique violation anywhere in the batch: against a live row, a
    # deleted (free) key, or an earlier row of the same batch.  (Not a
    # held row's key: the deleter's row lock would keep the batch out.)
    if batch and draw(st.booleans()):
        at = draw(st.integers(0, len(batch) - 1))
        taken = [row for i, row in enumerate(spec["seed_rows"])
                 if i not in spec["held"]] + batch[:at]
        if taken:
            victim = draw(st.sampled_from(taken))
            row = list(batch[at])
            column = draw(st.sampled_from([0, 1]))
            row[column] = victim[column]
            batch[at] = tuple(row)
    if batch and draw(st.booleans()):
        # NULL in the unique key is a violation too.
        at = draw(st.integers(0, len(batch) - 1))
        batch[at] = (batch[at][0], None, *batch[at][2:])
    spec["batch"] = batch
    return spec


class World(EngineWorld):
    def __init__(self, spec):
        self.spec = spec
        super().__init__(CostModel(page_size_bytes=spec["page_bytes"]))
        self.engine.buffer_pool.capacity_pages = spec["pool_pages"]
        name = spec["name"]
        extras = "".join(f", x{i} {t}" for i, t in enumerate(spec["extras"]))
        pk = ", PRIMARY KEY (id)" if spec["pk"] else ""
        self.run(f"CREATE TABLE {name} (id INT NOT NULL, u INT, tag INT"
                 f"{extras}{pk})")
        if spec["unique_u"]:
            self.run(f"CREATE UNIQUE INDEX ux_u ON {name} (u)")
        if spec["index_tag"]:
            self.run(f"CREATE INDEX ix_tag ON {name} (tag, id)")
        self.table = self.engine.table(name, self.session())
        # Prior history through the oracle in *both* worlds, so the
        # statement under test starts from bit-equal state: rows, then
        # deletes that leave holes (LIFO free slots, pages with space
        # below the last page).
        txns = self.engine.txns
        txn = txns.begin()
        build = self.table.shape.build
        rids = insert_oracle.insert_each(
            self.table, [build(r) for r in spec["seed_rows"]], txn, txns)
        for i in spec["deleted"]:
            self.table.delete(rids[i], txn, txns)
        txns.commit(txn)
        self.deleter = txns.begin()
        for i in spec["held"]:
            self.table.delete(rids[i], self.deleter, txns)
        if spec["checkpoint"]:
            self.engine.checkpoint()     # clean pages: evictable, re-read

    def statement(self, insert):
        """Run one batch insert under the scenario's meter mode."""
        spec, meter, txns = self.spec, self.meter, self.engine.txns
        rows = [self.table.shape.build(r) for r in spec["batch"]]
        observed = {}
        if spec["mode"] == "streams":
            meter.advance_clock = False
        with meter.request("statement") as trace:
            if spec["mode"] == "window":
                meter.begin_overlap()
            self.txn = txn = txns.begin()
            try:
                insert(self.table, rows, txn, txns)
            except ConstraintError as exc:
                observed["error"] = str(exc)
            if spec["mode"] == "window":
                observed["window"] = meter.end_overlap()
        meter.advance_clock = True
        # Adjacent charges of one kind as one: where the loop charged a
        # page's rows one by one, the batch path charges their product.
        observed["segments"] = [
            (kind, sum(s.seconds for s in run))
            for kind, run in groupby(trace.segments,
                                     key=lambda s: (s.resource, s.note))]
        return observed

    def end(self):
        ending, txns = self.spec["ending"], self.engine.txns
        if ending.startswith("commit"):
            txns.commit(self.txn)
        elif ending == "abort":
            txns.abort(self.txn)
        elif ending == "force+crash":
            self.engine.wal.force()
        if ending in ("commit", "abort"):
            # The deleter's undo puts its rows back into their slots.
            txns.abort(self.deleter)
        if "crash" in ending:
            self.crash_and_restart()
            if self.spec["name"].startswith("#"):
                self.table = None        # temp tables die with the server
                return
            self.table = self.engine.table(self.spec["name"])

    def state(self):
        """Everything the two paths must agree on."""
        engine, table = self.engine, self.table
        pool, wal = engine.buffer_pool, engine.wal
        state = {
            "clock": self.meter.now,
            "counters": dict(self.meter.counters),
            "log": [(type(r).__name__, r.lsn, r.prev_lsn, r.payload_bytes(),
                     r) for r in wal.all_records()],
            "log_pending": wal._pending_write_seconds,
            "flushed_lsn": wal.flushed_lsn,
            "dirty_pages": pool.dirty_page_table(),
            "lru": list(pool._frames),
            "misses": pool.misses,
            "disk": (engine.disk.page_reads, engine.disk.page_writes),
        }
        if engine.last_recovery is not None:
            report = engine.last_recovery
            state["recovery"] = (report.redo_applied, report.redo_skipped,
                                 report.undo_applied, sorted(report.losers))
        if table is None:
            return state
        heap = table.heap
        frames = {**pool._frames, **pool._volatile_frames}
        on_disk = engine.disk._files.get(heap.file_id, {})
        pages = []
        for page_no in range(heap.page_count):
            page = frames.get((heap.file_id, page_no),
                              on_disk.get(page_no))
            pages.append(page and (list(page.slots), list(page.free_slots),
                                   page.page_lsn))
        state["pages"] = pages
        state["pages_with_space"] = set(heap._pages_with_space)
        state["indexes"] = {name: list(tree.items())
                            for name, (_i, tree) in table._indexes.items()}
        return state


def via_insert_many(table, rows, txn, txns):
    table.insert_many(rows, txn, txns)


def same_state(a: dict, b: dict) -> bool:
    """Two ``World.state()``: equal, the clock to the tolerance."""
    return same_clock(a.pop("clock"), b.pop("clock")) and a == b


def same_observed(a: dict, b: dict) -> bool:
    """Two ``World.statement()``: equal, seconds to the tolerance."""
    a_seconds = [a.pop("window", 0.0)] + [s for _k, s in a["segments"]]
    b_seconds = [b.pop("window", 0.0)] + [s for _k, s in b["segments"]]
    kinds = [k for k, _s in a.pop("segments")] \
        == [k for k, _s in b.pop("segments")]
    return kinds and a == b and all(map(same_clock, a_seconds, b_seconds))


@settings(max_examples=300, deadline=None)
@given(spec=scenarios())
def test_insert_many_equals_the_per_row_loop(spec):
    bulk, oracle = World(spec), World(spec)
    assert bulk.state() == oracle.state()
    observed = bulk.statement(via_insert_many)
    # Page faults and evictions fall between the same charges.
    assert same_observed(observed,
                         oracle.statement(insert_oracle.insert_each))
    assert same_state(bulk.state(), oracle.state())
    # Row addresses: the heap scan yields (RowId, row) in page order.
    assert list(bulk.table.heap.scan()) == list(oracle.table.heap.scan())
    bulk.end()
    oracle.end()
    assert same_state(bulk.state(), oracle.state())
    if bulk.table is not None:
        assert list(bulk.table.heap.scan()) \
            == list(oracle.table.heap.scan())


# ---------------------------------------------------------------------------
# (c) O(pages), not O(rows)
# ---------------------------------------------------------------------------


def test_insert_select_asks_the_pool_and_the_meter_once_per_page(
        engine, run, monkeypatch):
    n = 3000
    run("CREATE TABLE src (id INT NOT NULL, name VARCHAR(16), v FLOAT, "
        "PRIMARY KEY (id))")
    engine.bulk_load("src", [(i, f"row{i}", i / 2) for i in range(n)])
    run("CREATE TABLE dst (id INT, name VARCHAR(16), v FLOAT)")
    calls = {"get_page": 0, "meter": 0, "append": 0, "append_run": 0}

    def count_pool_access(*args, _get_page=engine.buffer_pool.get_page):
        calls["get_page"] += 1
        return _get_page(*args)

    monkeypatch.setattr(engine.buffer_pool, "get_page", count_pool_access)
    for name in ("append", "append_run"):
        def count_append(*args, _name=name,
                         _append=getattr(engine.wal, name)):
            calls[_name] += 1
            return _append(*args)

        monkeypatch.setattr(engine.wal, name, count_append)
    for name in ("charge", "charge_batched", "charge_rows"):
        def count_charge(resource, amount, note, *rest,
                         _charge=getattr(engine.meter, name)):
            # The source scan's per-row "query cpu" is the read path's.
            calls["meter"] += note != "query cpu"
            return _charge(resource, amount, note, *rest)

        monkeypatch.setattr(engine.meter, name, count_charge)
    before = dict(ROW_STATS)
    assert run("INSERT INTO dst SELECT id, name, v FROM src") == n
    pages = engine.table("src").heap.page_count \
        + engine.table("dst").heap.page_count
    assert pages < n / 50
    # The parent commit made 3 pool accesses and 1 charge per row.
    assert calls["get_page"] <= 2 * pages
    assert calls["meter"] <= 4 * pages
    # One log append per page filled, and no insert record on its own:
    # the single appends are the statement transaction's begin, commit
    # and end.
    assert calls["append_run"] == engine.table("dst").heap.page_count
    assert calls["append"] == 3
    assert ROW_STATS["rows_inserted_bulk"] - before["rows_inserted_bulk"] == n
    assert ROW_STATS["pages_filled_bulk"] - before["pages_filled_bulk"] \
        == engine.table("dst").heap.page_count
    # The scan's rows already conform to dst's columns.
    assert ROW_STATS["rows_built_fast"] - before["rows_built_fast"] == n
    assert ROW_STATS["rows_built_coerced"] == before["rows_built_coerced"]
    # (Materializing the view is itself a bulk insert: snapshot first.)
    inserted = ROW_STATS["rows_inserted_bulk"]
    assert dict(run("SELECT metric, value FROM sys_executor"))[
        "rows_inserted_bulk"] == inserted


# ---------------------------------------------------------------------------
# (d) a failed statement leaves no effects
# ---------------------------------------------------------------------------


@pytest.fixture
def tables(run):
    run("CREATE TABLE t (id INT NOT NULL, name VARCHAR(8), v FLOAT)")
    run("CREATE TABLE u (id INT NOT NULL, name VARCHAR(8), "
        "PRIMARY KEY (id))")
    run("CREATE TABLE phoenix_status (op_key VARCHAR(64) NOT NULL, "
        "rows_affected INT, PRIMARY KEY (op_key))")


def test_malformed_row_fails_the_insert_before_it_mutates(run, tables):
    run("BEGIN TRANSACTION")
    with pytest.raises(EngineError, match="2 values for 3 columns"):
        run("INSERT INTO t VALUES (1, 'a', 1.0), (2, 'b')")
    with pytest.raises(TypeMismatchError):
        run("INSERT INTO t VALUES (3, 'c', 1.0), (4, 'd', 'x')")
    with pytest.raises(EngineError, match="'id' is NOT NULL"):
        run("INSERT INTO t VALUES (5, 'e', 1.0), (NULL, 'f', 2.0)")
    run("COMMIT")
    assert run("SELECT id FROM t") == []


def test_unique_violation_mid_batch_is_rolled_back_in_a_transaction(
        run, tables, engine):
    run("BEGIN TRANSACTION")
    run("INSERT INTO u VALUES (7, 'kept')")
    with pytest.raises(ConstraintError):
        run("INSERT INTO u VALUES (1, 'a'), (2, 'b'), (1, 'c')")
    # The transaction goes on, keeps its earlier work and its locks.
    run("INSERT INTO u VALUES (2, 'again')")
    run("COMMIT")
    assert run("SELECT id, name FROM u ORDER BY id") \
        == [(2, "again"), (7, "kept")]
    # Autocommit: the statement's own transaction aborts, as before.
    with pytest.raises(ConstraintError):
        run("INSERT INTO u VALUES (8, 'x'), (9, 'y'), (8, 'z')")
    assert run("SELECT count(*) FROM u") == [(2,)]


def test_update_failing_mid_batch_is_rolled_back_in_a_transaction(
        run, tables):
    run("INSERT INTO u VALUES (1, 'a'), (2, 'b'), (3, 'c')")
    run("BEGIN TRANSACTION")
    run("UPDATE u SET name = 'seen' WHERE id = 3")
    with pytest.raises(ConstraintError):
        run("UPDATE u SET id = id + 1")      # 1 -> 2 collides with 2
    with pytest.raises(EngineError, match="NOT NULL"):
        run("UPDATE u SET id = NULL")
    run("COMMIT")
    assert run("SELECT id, name FROM u ORDER BY id") \
        == [(1, "a"), (2, "b"), (3, "seen")]


def test_statement_rollback_is_durable_and_undone_once():
    """The CLRs of a statement rollback make a later abort — online or at
    restart — skip what was already undone."""
    world = EngineWorld()
    run = world.run
    run("CREATE TABLE u (id INT NOT NULL, name VARCHAR(8), "
        "PRIMARY KEY (id))")
    run("BEGIN TRANSACTION")
    run("INSERT INTO u VALUES (1, 'a')")
    with pytest.raises(ConstraintError):
        run("INSERT INTO u VALUES (2, 'b'), (1, 'c')")
    run("INSERT INTO u VALUES (2, 'b2')")
    run("ROLLBACK")
    assert run("SELECT count(*) FROM u") == [(0,)]
    run("BEGIN TRANSACTION")
    run("INSERT INTO u VALUES (1, 'a')")
    with pytest.raises(ConstraintError):
        run("INSERT INTO u VALUES (2, 'b'), (1, 'c')")
    world.engine.wal.force()
    assert world.crash_and_restart().undo_applied == 1    # only (1, 'a')
    assert run("SELECT count(*) FROM u") == [(0,)]


def test_wrapped_update_status_row_survives_a_statement_rollback(
        run, tables):
    """Phoenix's recipe — BEGIN; the update; the status row; COMMIT —
    with a statement failing in between: only that statement is undone."""
    run("INSERT INTO u VALUES (1, 'a'), (2, 'b')")
    run("BEGIN TRANSACTION")
    assert run("UPDATE u SET name = 'new' WHERE id = 1") == 1
    run("INSERT INTO phoenix_status (op_key, rows_affected) "
        "VALUES ('op1', 1)")
    with pytest.raises(ConstraintError):
        run("INSERT INTO u VALUES (3, 'c'), (2, 'dup')")
    run("COMMIT")
    assert run("SELECT rows_affected FROM phoenix_status "
               "WHERE op_key = 'op1'") == [(1,)]
    assert run("SELECT id, name FROM u ORDER BY id") \
        == [(1, "new"), (2, "b")]


def test_phoenix_wrapped_update_failing_mid_batch_leaves_nothing():
    world = PhoenixWorld()
    world.seed(3)
    rc, stmt = world.execute_rc(
        "INSERT INTO items VALUES (10, 'x'), (11, 'y'), (1, 'dup')")
    assert rc == SQL_ERROR
    engine = world.server.engine
    session = EngineSession(session_id=99)
    assert engine.execute("SELECT count(*) FROM items",
                          session).fetch_all() == [(3,)]
    recorded = engine.execute(f"SELECT count(*) FROM {STATUS_TABLE}",
                              session).fetch_all()
    world.execute("INSERT INTO items VALUES (10, 'x')")
    assert engine.execute("SELECT count(*) FROM items",
                          session).fetch_all() == [(4,)]
    assert engine.execute(f"SELECT count(*) FROM {STATUS_TABLE}",
                          session).fetch_all() == [(recorded[0][0] + 1,)]


def test_duplicate_target_column_is_rejected(run, tables):
    with pytest.raises(EngineError, match="'name' specified more than once"):
        run("INSERT INTO t (id, name, name) VALUES (1, 'a', 'b')")
    with pytest.raises(EngineError, match="'id' specified more than once"):
        run("INSERT INTO t (id, ID) SELECT id, id FROM u")
    assert run("SELECT count(*) FROM t") == [(0,)]


def test_column_subset_and_order(run, tables):
    assert run("INSERT INTO t (v, id) VALUES (2, 1), (3.5, '4')") == 2
    assert run("SELECT id, name, v FROM t ORDER BY id") \
        == [(1, None, 2.0), (4, None, 3.5)]
    with pytest.raises(EngineError, match="'id' is NOT NULL"):
        run("INSERT INTO t (name) VALUES ('x')")
