"""Crash sweep: secondary indexes equal the heap after restart recovery.

Recovery maintains the B-trees *incrementally* — every redone or undone
heap change routes through the table runtime's ``apply_*_with_indexes``
methods instead of a wholesale post-recovery rebuild.  That only works
if index = f(heap) holds at every crash point, so this fuzz runs a
seeded DML workload (inserts, key-changing updates, deletes, *unique
keys reused after deletes*, some of it in a transaction that never
commits), crashes after every prefix of the workload, restarts, and
checks each B-tree's entries against what a fresh scan of its heap
would produce.

Key reuse matters: repeating history can transiently duplicate a unique
key mid-recovery (the attach-time tree build may already hold a
re-inserted key that redo then inserts again before replaying the
delete between them), so apply-mode inserts must tolerate duplicates
and recovery must re-validate uniqueness afterwards — see
``test_unique_key_reuse_survives_partial_flush`` for the directed case.
"""

import random

import pytest

from repro.engine.database import DatabaseEngine
from repro.engine.session import EngineSession
from repro.sim.meter import Meter
from repro.storage.btree import encode_key
from tests.dml_version_oracle import assert_versions_match_full_history


class CrashHarness:
    """Owns the durable parts (disk + log) across engine incarnations."""

    def __init__(self):
        self.meter = Meter()
        self.engine = DatabaseEngine(meter=self.meter)
        self.disk = self.engine.disk
        self.wal = self.engine.wal
        self.session = EngineSession(session_id=1)

    def run(self, sql):
        result = self.engine.execute(sql, self.session)
        if result.kind == "rows":
            return result.fetch_all()
        if result.kind == "rowcount":
            return result.rowcount
        return None

    def crash(self):
        self.wal.crash()
        self.engine.buffer_pool.crash()
        self.engine = None
        self.session = EngineSession(session_id=self.session.session_id + 1)

    def restart(self):
        self.engine = DatabaseEngine.restart(self.disk, self.wal,
                                             meter=self.meter)
        # Every crash point of every sweep built on this harness: the
        # versions restart derived from the durable base + the live log
        # equal a replay of the full history.
        assert_versions_match_full_history(self.engine)
        return self.engine.last_recovery


DDL = (
    "CREATE TABLE acct (id INT NOT NULL, owner VARCHAR(16), bal INT, "
    "tag INT, PRIMARY KEY (id))",
    "CREATE INDEX ix_acct_tag ON acct (tag, id)",
    "CREATE UNIQUE INDEX ix_acct_owner ON acct (owner)",
)


def build_workload(seed: int, ops: int) -> list[str]:
    """A seeded DML mix that churns every index: inserts (sometimes
    reusing a unique owner freed by an earlier delete or owner change),
    non-key and key-changing updates (including the unique key), and
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


def assert_indexes_match_heap(engine) -> int:
    """Every materialized B-tree holds exactly the heap's (key, rid)s."""
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


@pytest.mark.parametrize("seed", [1, 2])
def test_indexes_survive_crash_at_every_statement(seed):
    statements = build_workload(seed, ops=24)
    for crash_at in range(1, len(statements) + 1, 2):
        harness = CrashHarness()
        for sql in DDL:
            harness.run(sql)
        if crash_at > 4:
            harness.engine.checkpoint()  # exercise the redo-from-LSN path
        for sql in statements[:crash_at]:
            harness.run(sql)
        harness.crash()
        harness.restart()
        harness.run("SELECT id FROM acct WHERE tag >= 0")  # touch runtime
        assert assert_indexes_match_heap(harness.engine) >= 3, \
            f"crash point {crash_at} checked too few indexes"


@pytest.mark.parametrize("flush_pages", [False, True])
def test_loser_undo_restores_indexes(flush_pages):
    """A transaction that dies mid-flight must leave no index trace —
    its redone changes are compensated, B-trees included."""
    harness = CrashHarness()
    for sql in DDL:
        harness.run(sql)
    for sql in build_workload(seed=3, ops=12):
        harness.run(sql)
    committed = sorted(harness.run("SELECT id, owner, bal, tag FROM acct"))

    harness.run("BEGIN TRANSACTION")
    harness.run("INSERT INTO acct VALUES (900, 'own900', 1, 0)")
    harness.run("UPDATE acct SET tag = 4, owner = 'ownx' WHERE id = 0")
    harness.run("DELETE FROM acct WHERE id = 1")
    # Durable loser: force the log (and optionally the stolen pages) so
    # recovery must first redo the loser's work, then undo it — both
    # legs routed through the index-maintaining apply path.
    harness.engine.wal.force()
    if flush_pages:
        harness.engine.buffer_pool.flush_all()
    harness.crash()
    report = harness.restart()
    assert len(report.losers) == 1

    assert sorted(harness.run("SELECT id, owner, bal, tag FROM acct")) \
        == committed
    assert assert_indexes_match_heap(harness.engine) >= 3
    # The unique index must also still *work*: reinserting the undone
    # key succeeds, duplicating a committed one fails.
    assert harness.run("INSERT INTO acct VALUES (901, 'own900', 1, 0)") == 1
    from repro.errors import ConstraintError

    with pytest.raises(ConstraintError):
        harness.run("INSERT INTO acct VALUES (902, 'own900', 2, 1)")


def test_unique_key_reuse_survives_partial_flush():
    """Committed insert/delete/re-insert of one unique key, crashed with
    only the re-insert's page flushed.

    At restart the attach-time tree build (from the flushed page)
    already holds the key, and redo then replays the *first* insert of
    it — page-LSN can't skip it, the first page never reached disk —
    before replaying the delete that resolves the duplicate.  Restart
    used to abort with ConstraintError here; apply-mode inserts now
    tolerate the transient duplicate and recovery re-validates
    uniqueness once undo completes.
    """
    harness = CrashHarness()
    harness.run("CREATE TABLE t (id INT NOT NULL, k VARCHAR(8), "
                "PRIMARY KEY (id))")
    harness.run("CREATE UNIQUE INDEX ux_k ON t (k)")
    runtime = harness.engine._tables["t"]
    heap = runtime.heap
    per_page = heap.rows_per_page
    # First incarnation of the reused key plus fillers fill page 0.
    harness.run("INSERT INTO t VALUES (0, 'dup')")
    for i in range(1, per_page):
        harness.run(f"INSERT INTO t VALUES ({i}, 'f{i}')")
    # Free page 0's slot, plug it, then re-insert the key: it must land
    # on a fresh page so the two incarnations flush independently.
    harness.run("DELETE FROM t WHERE id = 0")
    harness.run(f"INSERT INTO t VALUES ({per_page}, 'plug')")
    harness.run(f"INSERT INTO t VALUES ({per_page + 1}, 'dup')")
    rids = runtime.index_tree("ux_k").search(("dup",))
    assert len(rids) == 1 and rids[0].page_no > 0, \
        "re-insert was expected to land on a new page"
    # Everything is committed and log-durable; flush ONLY the
    # re-insert's page, then crash.
    harness.engine.wal.force()
    harness.engine.buffer_pool.flush_page(heap.file_id, rids[0].page_no)
    harness.crash()
    report = harness.restart()
    assert not report.losers
    rows = dict(harness.run("SELECT k, id FROM t"))
    assert rows["dup"] == per_page + 1
    assert len(rows) == per_page + 1  # fillers + plug + dup, minus id 0
    assert assert_indexes_match_heap(harness.engine) >= 2


def test_null_indexed_rows_survive_restart():
    """NULL in a non-unique indexed column must not break attach-time
    tree builds or index-aware redo (keys store the NULL sentinel)."""
    harness = CrashHarness()
    harness.run("CREATE TABLE n (id INT NOT NULL, grp INT, "
                "PRIMARY KEY (id))")
    harness.run("CREATE INDEX ix_grp ON n (grp)")
    harness.run("INSERT INTO n VALUES (1, 10), (2, NULL), (3, 10), "
                "(4, NULL)")
    harness.run("UPDATE n SET grp = NULL WHERE id = 3")
    harness.run("UPDATE n SET grp = 7 WHERE id = 4")
    harness.engine.wal.force()
    harness.crash()
    harness.restart()
    assert sorted(harness.run("SELECT id, grp FROM n")) == \
        [(1, 10), (2, None), (3, None), (4, 7)]
    # The seek itself never matches NULL (three-valued logic)…
    assert harness.run("SELECT id FROM n WHERE grp = 10") == [(1,)]
    # …but IS NULL over the full table still sees the rows.
    assert sorted(harness.run("SELECT id FROM n WHERE grp IS NULL")) == \
        [(2,), (3,)]
    assert assert_indexes_match_heap(harness.engine) >= 2
