"""Key-precise read sets for the shared result cache.

The rule under test: a committed write evicts exactly the cached results
whose read set — ``(table, primary-key prefix)`` pairs, the empty prefix
standing for the whole table — it overlaps.  Examples cannot show that
"exactly" errs on neither side, so the main check is a differential
oracle: the same random schedule of reads, writes, transactions and
server crashes runs against a world with the cache on and a world with
it off, and every statement must return the same rows in both.  The
directed cases below it pin the boundaries one by one, and say *why* an
entry must die or may live.
"""

import random
import re

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, precondition, rule

from repro.engine.database import DatabaseEngine
from repro.engine.session import EngineSession
from repro.errors import ReproError
from repro.phoenix.config import PhoenixConfig
from repro.phoenix.result_cache import SharedResultCache
from repro.server.server import DatabaseServer
from repro.sim.costs import CostModel
from repro.sim.meter import Meter
from repro.txn.manager import WRITE_KEY_CAP
from repro.workloads.app import BenchmarkApp

A_VALUES = range(3)
B_VALUES = range(5)

SCHEMA = (
    "CREATE TABLE t (a INT NOT NULL, b INT NOT NULL, v INT, w INT, "
    "PRIMARY KEY (a, b))",
    "CREATE INDEX t_w ON t (w)",
    "CREATE TABLE u (k INT NOT NULL, a INT, PRIMARY KEY (k))",
    "CREATE TABLE h (x INT, y INT)",
    "INSERT INTO t VALUES " + ", ".join(
        f"({a}, {b}, {a * 10 + b}, {(a + b) % 3})"
        for a in A_VALUES for b in B_VALUES if (a + b) % 4),
    "INSERT INTO u VALUES (0, 0), (1, 1), (2, 2), (3, 0)",
    "INSERT INTO h VALUES (0, 0), (1, 10)",
    "ANALYZE",
)


def cost_model(capacity: int, **knobs) -> CostModel:
    """The default configuration with a cache of ``capacity`` entries
    (0 = off)."""
    costs = CostModel(result_cache_entries=capacity)
    for name, value in knobs.items():
        setattr(costs, name, value)
    return costs


def phoenix_app(server) -> BenchmarkApp:
    return BenchmarkApp(server, use_phoenix=True,
                        phoenix_config=PhoenixConfig(client_cache_rows=100))


def counter(meter, name: str) -> int:
    return int(meter.counters.get(name, 0))


def assert_index_matches_entries(cache: SharedResultCache) -> None:
    """Every entry the cache holds (visible or staged) is linked under
    each prefix it read and nothing else is: LRU eviction, replacement,
    invalidation and discard all unlink."""
    held = set(cache._entries.values())
    for staged in cache._staged.values():
        held.update(staged.values())
    linked = set()
    for table, buckets in cache._index.items():
        assert buckets, f"empty table bucket left behind for {table}"
        readers = set()
        for prefix, entries in buckets.items():
            assert entries, f"empty bucket left behind at {table}{prefix}"
            for entry in entries:
                assert prefix in entry.reads[table]
            readers |= entries
        assert cache._readers[table] == len(readers)
        linked |= readers
    assert linked == {entry for entry in held if entry.reads}
    assert all(entry.owner is None for entry in cache._entries.values())


# ---------------------------------------------------------------------------
# The differential oracle
# ---------------------------------------------------------------------------


class World:
    """One server, two Phoenix sessions and a native writer."""

    def __init__(self, capacity: int):
        self.meter = Meter(cost_model(capacity))
        self.server = DatabaseServer(meter=self.meter)
        setup = BenchmarkApp(self.server)
        for sql in SCHEMA:
            setup.run_statement(sql)
        self.sessions = [phoenix_app(self.server), phoenix_app(self.server)]
        self.native = BenchmarkApp(self.server)

    def crash(self) -> None:
        self.server.crash()
        self.server.restart()
        # Phoenix masks the crash; a native application reconnects.
        self.native = BenchmarkApp(self.server)

    def run(self, who, sql: str):
        """What the application sees: rows, a row count, or an error."""
        app = self.native if who == "native" else self.sessions[who]
        try:
            if sql.startswith("SELECT"):
                return app.query_rows(sql)
            return app.run_statement(sql).rowcount
        except ReproError:
            return "error"

    def contents(self) -> list:
        reader = BenchmarkApp(self.server)
        return [reader.query_rows(f"SELECT * FROM {table}")
                for table in ("t", "u", "h")]


#: The schedules play on a corner of the data, so that reads and writes
#: meet all the time; two of its six keys start out free, for rows to be
#: inserted at and moved to.
A_FEW = (0, 1)
B_FEW = (0, 1, 3)
FEW = range(4)
MANY = range(100)

#: Statement shapes with the domain of each hole.  Every access path the
#: server stamps differently is here: point, IN-list, prefix, prefix +
#: range, secondary index, scan, join, subquery, and a table without
#: primary key.
SELECT_SHAPES = (
    ("SELECT v, w FROM t WHERE a = {} AND b = {}", A_FEW, B_FEW),
    ("SELECT b, v FROM t WHERE a = {} AND b IN ({}, {}, {}) ORDER BY b",
     A_FEW, B_FEW, B_FEW, B_FEW),
    ("SELECT b, v FROM t WHERE a = {} ORDER BY b", A_FEW),
    ("SELECT b, v FROM t WHERE a = {} AND b >= {} AND b < {} ORDER BY b",
     A_FEW, B_FEW, B_FEW),
    ("SELECT a, b, v FROM t WHERE w = {} ORDER BY a, b", FEW),
    ("SELECT count(*), sum(v) FROM t WHERE v >= {}", MANY),
    ("SELECT t.b, t.v, u.k FROM t, u WHERE t.a = u.a AND u.k = {} "
     "ORDER BY t.b", FEW),
    ("SELECT k, a FROM u WHERE k = {}", FEW),
    # The subquery reads all of the table the outer seek reads one key of.
    ("SELECT v, (SELECT sum(v) FROM t) FROM t WHERE a = {} AND b = {}",
     A_FEW, B_FEW),
    ("SELECT x, y FROM h WHERE x = {} ORDER BY y", FEW),
)

#: INSERT, DELETE, UPDATE of a value, of an indexed column, of either
#: primary-key column (the row changes its key), of many rows at once.
WRITE_SHAPES = (
    ("INSERT INTO t VALUES ({}, {}, {}, {})", A_FEW, B_FEW, MANY,
     FEW),
    ("UPDATE t SET v = {} WHERE a = {} AND b = {}", MANY, A_FEW,
     B_FEW),
    ("UPDATE t SET w = {} WHERE a = {} AND b = {}", FEW, A_FEW,
     B_FEW),
    ("UPDATE t SET b = {} WHERE a = {} AND b = {}", B_FEW, A_FEW,
     B_FEW),
    ("UPDATE t SET a = {} WHERE a = {} AND b = {}", A_FEW, A_FEW,
     B_FEW),
    ("UPDATE t SET v = v + 1 WHERE a = {}", A_FEW),
    ("DELETE FROM t WHERE a = {} AND b = {}", A_FEW, B_FEW),
    ("UPDATE u SET a = {} WHERE k = {}", A_FEW, FEW),
    ("INSERT INTO h VALUES ({}, {})", FEW, MANY),
    ("DELETE FROM h WHERE x = {}", FEW),
)


def statements(shapes):
    """Hypothesis strategy over the texts ``shapes`` can make."""
    return st.one_of(*(
        st.builds(shape.format, *map(st.sampled_from, domains))
        for shape, *domains in shapes))


def draw(rng: random.Random, shapes) -> str:
    shape, *domains = rng.choice(shapes)
    return shape.format(*(rng.choice(domain) for domain in domains))


class Differential:
    """The schedule interpreter both drivers (hypothesis and the seeded
    soak) share: each step runs in the cache-on and the cache-off world
    and must look the same from the application."""

    def __init__(self):
        # Six entries: the schedule overflows the LRU all the time.
        self.on = World(capacity=6)
        self.off = World(capacity=0)
        self.in_txn = [False, False]
        #: Sessions whose open transaction has written.  A statement
        #: outside a transaction takes no locks, so in the cache-off
        #: world it would see another session's uncommitted rows where
        #: the cache-on world may answer from a committed entry: both
        #: are legal, they differ, and the schedule steers clear.
        self.wrote = [False, False]

    def both(self, who, sql: str):
        got, expected = self.on.run(who, sql), self.off.run(who, sql)
        assert got == expected, (
            f"{sql!r} by {who}: cache on -> {got!r}, off -> {expected!r}")
        assert_index_matches_entries(self.on.meter._shared_result_cache)
        return got

    def statement(self, who, sql: str) -> None:
        outcome = self.both(who, sql)
        if who != "native" and self.in_txn[who]:
            if outcome == "error":
                # Whatever it was (a lock conflict, a duplicate key, the
                # transaction lost to a crash): give the transaction up.
                self.end(who, "ROLLBACK")
            elif not sql.startswith("SELECT"):
                self.wrote[who] = True

    def may_read(self, who) -> bool:
        return self.in_txn[who] or not self.wrote[1 - who]

    def begin(self, who) -> None:
        if self.both(who, "BEGIN TRANSACTION") != "error":
            self.in_txn[who] = True

    def end(self, who, verb: str) -> None:
        self.both(who, verb)
        self.in_txn[who] = self.wrote[who] = False

    def crash(self) -> None:
        self.on.crash()
        self.off.crash()
        # The server undid every open transaction; its session learns of
        # it from its next statement's error.
        self.wrote = [False, False]

    def finish(self) -> None:
        for who in (0, 1):
            if self.in_txn[who]:
                self.end(who, "ROLLBACK")
        assert self.on.contents() == self.off.contents()


SESSIONS = st.sampled_from((0, 1))
WRITERS = st.sampled_from((0, 1, "native"))


class CacheOnEqualsCacheOff(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.d = Differential()
        self.asked = []

    def can_read(self) -> bool:
        return self.d.may_read(0) or self.d.may_read(1)

    def reader(self, who):
        return who if self.d.may_read(who) else 1 - who

    @precondition(can_read)
    @rule(who=SESSIONS, sql=statements(SELECT_SHAPES))
    def select(self, who, sql):
        self.d.statement(self.reader(who), sql)
        self.asked.append(sql)

    @precondition(lambda self: self.asked and self.can_read())
    @rule(who=SESSIONS, back=st.integers(1, 4))
    def select_again(self, who, back):
        """Applications repeat themselves — and only a repeated text can
        be answered from the cache."""
        self.d.statement(self.reader(who), self.asked[-back:][0])

    @rule(who=WRITERS, sql=statements(WRITE_SHAPES))
    def write(self, who, sql):
        self.d.statement(who, sql)

    @precondition(lambda self: self.asked)
    @rule(who=WRITERS, sql=statements(WRITE_SHAPES), back=st.integers(1, 4))
    def write_where_it_was_read(self, who, sql, back):
        """The interesting writes are the ones next to a cached read:
        aim the WHERE clause at the row or prefix a recent SELECT
        named."""
        read = self.asked[-back:][0]
        for column in "ab":
            named = re.search(rf"\b{column} = (\d+)", read)
            if named:
                sql = re.sub(rf"(WHERE|AND) {column} = \d+",
                             rf"\1 {column} = {named[1]}", sql)
        self.d.statement(who, sql)

    @rule(who=SESSIONS, verb=st.sampled_from(("COMMIT", "ROLLBACK")),
          begins=st.booleans())
    def transaction(self, who, verb, begins):
        if self.d.in_txn[who]:
            self.d.end(who, verb)
        elif begins:
            self.d.begin(who)

    @rule(happens=st.integers(0, 3))
    def crash(self, happens):
        if not happens:
            self.d.crash()

    def teardown(self):
        self.d.finish()


CacheOnEqualsCacheOff.TestCase.settings = settings(
    max_examples=80, stateful_step_count=80, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
TestCacheOnEqualsCacheOff = CacheOnEqualsCacheOff.TestCase


def test_seeded_soak_hits_spares_and_evicts():
    """The same interpreter over one long seeded schedule, to show the
    oracle is not vacuous: the cache-on world really hit, really spared
    entries of written tables, and really evicted by key, wholesale and
    by LRU, and revalidated after crashes — and still never answered
    differently."""
    rng = random.Random(17)
    d = Differential()
    # Applications repeat themselves: reads come from a fixed pool.
    pool = [draw(rng, SELECT_SHAPES) for _ in range(30)]
    for _step in range(2000):
        who = rng.choice((0, 1))
        roll = rng.random()
        if roll < 0.60:
            if d.may_read(who):
                d.statement(who, rng.choice(pool))
        elif roll < 0.85:
            d.statement(rng.choice((0, 1, "native")),
                        draw(rng, WRITE_SHAPES))
        elif roll < 0.97:
            if d.in_txn[who]:
                d.end(who, rng.choice(("COMMIT", "COMMIT", "ROLLBACK")))
            else:
                d.begin(who)
        else:
            d.crash()
    d.finish()
    meter = d.on.meter
    assert counter(meter, "result_cache.hits") > 50
    assert counter(meter, "result_cache.spared") > 50
    assert counter(meter, "result_cache.invalidations_by_key") > 20
    assert counter(meter, "result_cache.invalidations") \
        > counter(meter, "result_cache.invalidations_by_key")
    assert counter(meter, "result_cache.evictions") > 20
    assert counter(meter, "net.requests.VersionProbeRequest") > 0
    assert counter(d.off.meter, "result_cache.hits") == 0


# ---------------------------------------------------------------------------
# What the server stamps, access path by access path
# ---------------------------------------------------------------------------


def stamped_reads(engine, session, sql: str, params=None) -> dict:
    """``table -> set of prefixes`` off one executed SELECT."""
    result = engine.execute(sql, session, params)
    result.fetch_all()
    return {table: set(prefixes)
            for table, (_version, prefixes) in result.read_versions.items()}


@pytest.fixture
def stamping_engine():
    engine = DatabaseEngine(meter=Meter(cost_model(capacity=8)))
    session = EngineSession(session_id=1)
    for sql in SCHEMA + ("CREATE VIEW tv AS SELECT b, v FROM t "
                         "WHERE a = 2",
                         "CREATE VIEW tvv AS SELECT b, v FROM tv "
                         "WHERE b = 1",
                         "CREATE TABLE a (k INT NOT NULL, PRIMARY KEY (k))"):
        engine.execute(sql, session)
    return engine, session


WHOLE = {()}


@pytest.mark.parametrize("sql,expected", [
    ("SELECT v FROM t WHERE a = 1 AND b = 2", {"t": {(1, 2)}}),
    ("SELECT b FROM t WHERE a = 1 AND b IN (1, 3, 3, NULL)",
     {"t": {(1, 1), (1, 3)}}),
    ("SELECT b FROM t WHERE a = 1 ORDER BY b", {"t": {(1,)}}),
    # A range bound narrows within the equality prefix in front of it.
    ("SELECT b FROM t WHERE a = 1 AND b >= 1 AND b < 3", {"t": {(1,)}}),
    ("SELECT b FROM t WHERE b = 2", {"t": WHOLE}),
    ("SELECT a, b FROM t WHERE w = 1", {"t": WHOLE}),
    ("SELECT count(*) FROM t", {"t": WHOLE}),
    # A value the tree would match by coercion, or not at all.
    ("SELECT v FROM t WHERE a = 1.0 AND b = 2", {"t": WHOLE}),
    ("SELECT v FROM t WHERE a = NULL AND b = 2", {"t": WHOLE}),
    ("SELECT x FROM h WHERE x = 1", {"h": WHOLE}),
    ("SELECT t.b FROM t, u WHERE t.a = u.a AND u.k = 2",
     {"u": {(2,)}, "t": WHOLE}),
    # Self-join: one leaf seeks, the other scans.
    ("SELECT y.v FROM t x, t y WHERE x.a = 1 AND x.b = 2 AND y.v = x.v",
     {"t": {(1, 2), ()}}),
    # Subqueries: their plans hang off expressions, and are read too —
    # a correlated seek wholesale, a constant one by its key, whatever
    # the main plan seeks in the same table.
    ("SELECT k FROM u WHERE k = 1 AND EXISTS "
     "(SELECT 1 FROM t WHERE t.a = u.a AND t.b = 0)",
     {"u": {(1,)}, "t": WHOLE}),
    ("SELECT k FROM u WHERE k = 1 AND EXISTS "
     "(SELECT 1 FROM t WHERE a = 0 AND b = 1)",
     {"u": {(1,)}, "t": {(0, 1)}}),
    ("SELECT v FROM t WHERE a = 1 AND b = 2 AND v > "
     "(SELECT min(v) FROM t)", {"t": {(1, 2), ()}}),
    ("SELECT v, (SELECT max(x.v) FROM t x WHERE x.a = t.a) FROM t "
     "WHERE a = 1 AND b = 2", {"t": {(1, 2), ()}}),
    ("SELECT v FROM t WHERE a = 1 AND b = (SELECT min(k) FROM u)",
     {"t": {(1,)}, "u": WHOLE}),
    # A view: its own name (DDL on it) and what its body seeks.
    ("SELECT v FROM tv WHERE b = 1", {"tv": WHOLE, "t": {(2,)}}),
    ("SELECT 1", {}),
    # A view over a view: both names, and what the innermost body seeks.
    ("SELECT v FROM tvv", {"tvv": WHOLE, "tv": WHOLE, "t": {(2,)}}),
    # An alias naming another table is no read of that table.
    ("SELECT a.v, u.k FROM t a, u WHERE a.a = 1 AND a.b = 2 AND u.k = 1",
     {"t": {(1, 2)}, "u": {(1,)}}),
    # Each UNION branch seeks its own key.
    ("SELECT v FROM t WHERE a = 1 AND b = 2 UNION "
     "SELECT v FROM t WHERE a = 3 AND b = 1", {"t": {(1, 2), (3, 1)}}),
])
def test_read_set_stamped_per_access_path(stamping_engine, sql, expected):
    engine, session = stamping_engine
    assert stamped_reads(engine, session, sql) == expected


def test_read_set_follows_the_parameters_of_each_execution(stamping_engine):
    """The seek's key is evaluated per execution, also when the plan is
    a cached one rebound to new literals or parameters."""
    engine, session = stamping_engine
    before = engine.cache_stats["plan_hits"]
    for a, b in ((0, 2), (2, 3), (1, 4)):
        assert stamped_reads(
            engine, session,
            f"SELECT v FROM t WHERE a = {a} AND b = {b}") == {"t": {(a, b)}}
        assert stamped_reads(
            engine, session, "SELECT v FROM t WHERE a = @a AND b = @b",
            {"a": a, "b": b}) == {"t": {(a, b)}}
    assert engine.cache_stats["plan_hits"] >= before + 4


def test_nothing_is_collected_stamped_or_shipped_with_the_cache_off():
    meter = Meter(cost_model(capacity=0))
    server = DatabaseServer(meter=meter)
    app = BenchmarkApp(server)
    for sql in SCHEMA:
        app.run_statement(sql)
    seen = []
    handle = server.handle

    def spy(request):
        response = handle(request)
        seen.append(response)
        return response

    server.handle = spy
    app.run_statement("BEGIN TRANSACTION")
    app.run_statement("UPDATE t SET v = 0 WHERE a = 1 AND b = 2")
    (txn,) = server.engine.txns.active_transactions.values()
    assert txn.modified_tables is None
    app.run_statement("COMMIT")
    app.query_rows("SELECT v FROM t WHERE a = 1 AND b = 2")
    assert all(not getattr(r, "table_versions", None)
               and getattr(r, "read_versions", None) is None for r in seen)
    assert server.engine.pending_version_updates == {}
    assert not any(k.startswith("result_cache.") for k in meter.counters)


# ---------------------------------------------------------------------------
# Directed cases: why an entry dies, why it lives
# ---------------------------------------------------------------------------


class CacheWorld:
    """A cache-on server with a reader and a writer Phoenix session."""

    def __init__(self, extra_schema=(), **knobs):
        self.meter = Meter(cost_model(64, **knobs))
        self.server = DatabaseServer(meter=self.meter)
        setup = BenchmarkApp(self.server)
        for sql in SCHEMA[:-1] + tuple(extra_schema) + ("ANALYZE",):
            setup.run_statement(sql)
        self.reader = phoenix_app(self.server)
        self.writer = phoenix_app(self.server)
        self.cache = self.meter._shared_result_cache

    def read(self, sql: str):
        """``(rows, was it a shared-cache hit)``."""
        before = self.reader.manager.stats["shared_cache_hits"]
        rows = self.reader.query_rows(sql)
        hit = self.reader.manager.stats["shared_cache_hits"] - before
        assert_index_matches_entries(self.cache)
        return rows, bool(hit)

    def count(self, name: str) -> int:
        return counter(self.meter, "result_cache." + name)


POINT = "SELECT v FROM t WHERE a = {} AND b = {}"
PREFIX = "SELECT b, v FROM t WHERE a = {} ORDER BY b"


def test_cached_empty_point_result_dies_with_the_insert_of_its_key():
    world = CacheWorld()
    missing = POINT.format(0, 0)     # (a + b) % 4 == 0: not loaded
    assert world.read(missing) == ([], False)
    assert world.read(missing) == ([], True)
    world.writer.run_statement("INSERT INTO t VALUES (0, 4, 4, 0)")
    assert world.read(missing) == ([], True), (
        "the insert of another key evicted a point entry")
    world.writer.run_statement("INSERT INTO t VALUES (0, 0, 77, 0)")
    assert world.read(missing) == ([(77,)], False), (
        "a cached empty result outlived the insert of the row it missed")


def test_prefix_read_dies_with_an_insert_inside_it_only():
    world = CacheWorld()
    inside = [(b, 10 + b) for b in (0, 1, 2, 4)]
    assert world.read(PREFIX.format(1)) == (inside, False)
    world.writer.run_statement("INSERT INTO t VALUES (2, 2, 5, 0)")
    world.writer.run_statement("DELETE FROM t WHERE a = 0 AND b = 1")
    assert world.read(PREFIX.format(1)) == (inside, True), (
        "writes outside the prefix evicted it")
    assert world.count("spared") >= 2
    world.writer.run_statement("INSERT INTO t VALUES (1, 3, 99, 0)")
    assert world.read(PREFIX.format(1)) == (
        sorted(inside + [(3, 99)]), False)
    assert world.count("invalidations_by_key") == 1


def test_update_that_moves_a_row_touches_the_prefix_it_leaves_and_enters():
    world = CacheWorld()
    zero, one, two = (PREFIX.format(a) for a in (0, 1, 2))
    for sql in (zero, one, two):
        world.read(sql)
    # (1, 2) becomes (2, 2): out of prefix 1, into prefix 2.
    world.writer.run_statement("UPDATE t SET a = 2 WHERE a = 1 AND b = 2")
    assert world.read(zero)[1], "prefix 0 was neither left nor entered"
    rows, hit = world.read(one)
    assert not hit and (2, 12) not in rows
    rows, hit = world.read(two)
    assert not hit and (2, 12) in rows
    # ... and back.
    world.writer.run_statement("UPDATE t SET a = 1 WHERE a = 2 AND b = 2")
    assert world.read(zero)[1]
    rows, hit = world.read(one)
    assert not hit and (2, 12) in rows
    rows, hit = world.read(two)
    assert not hit and (2, 12) not in rows


BIG = ("CREATE TABLE big (k INT NOT NULL, v INT, PRIMARY KEY (k))",
       "INSERT INTO big VALUES " + ", ".join(
           f"({k}, 0)" for k in range(WRITE_KEY_CAP + 40)))


def test_write_past_the_cap_counts_as_the_whole_table():
    world = CacheWorld(extra_schema=BIG)
    far = f"SELECT v FROM big WHERE k = {WRITE_KEY_CAP + 30}"
    world.read(far)
    capped = world.count("wholesale_writes.cap")     # the load itself
    world.writer.run_statement(
        f"UPDATE big SET v = 1 WHERE k < {WRITE_KEY_CAP}")
    assert world.read(far) == ([(0,)], True), (
        "a write of exactly the cap must still name its keys")
    assert world.count("wholesale_writes.cap") == capped
    world.writer.run_statement(
        f"UPDATE big SET v = 2 WHERE k <= {WRITE_KEY_CAP}")
    assert world.read(far) == ([(0,)], False), (
        "past the cap nothing says which keys were written")
    assert world.count("wholesale_writes.cap") == capped + 1


def test_ddl_and_tables_without_primary_key_are_written_wholesale():
    world = CacheWorld()
    world.read(POINT.format(1, 1))
    world.read("SELECT y FROM h WHERE x = 1")
    ddl, no_pk = (world.count("wholesale_writes.ddl"),
                  world.count("wholesale_writes.no_pk"))
    world.writer.run_statement("INSERT INTO h VALUES (3, 3)")
    assert world.count("wholesale_writes.no_pk") == no_pk + 1
    assert world.read("SELECT y FROM h WHERE x = 1") == ([(10,)], False)
    assert world.read(POINT.format(1, 1))[1]
    world.writer.run_statement("CREATE INDEX t_v ON t (v)")
    assert world.count("wholesale_writes.ddl") == ddl + 1
    assert not world.read(POINT.format(1, 1))[1]


def test_version_gap_in_the_piggyback_counts_as_the_whole_table():
    """Unit level: a bump that does not start at the mirror's version
    says some write went unreported, so every reader of the table goes,
    not only the reader of the key the bump names."""
    meter = Meter(cost_model(capacity=8))
    cache = SharedResultCache.shared(meter)
    cache.observe_committed({"t": (0, 3, None), "u": (0, 1, None)}, epoch=0)
    for a in (1, 2):
        cache.insert(POINT.format(a, 0), [], [(a,)], {"t": (3, ((a, 0),))})
    cache.insert("SELECT k FROM u WHERE k = 1", [], [(1,)],
                 {"u": (1, ((1,),))})
    cache.observe_committed({"t": (3, 4, {(1, 0)})}, epoch=0)
    assert cache.lookup(POINT.format(1, 0)) is None
    assert cache.lookup(POINT.format(2, 0)) is not None    # spared
    cache.observe_committed({"t": (5, 6, {(1, 0)})}, epoch=0)  # 4 -> 5 lost
    assert cache.lookup(POINT.format(2, 0)) is None
    assert cache.lookup("SELECT k FROM u WHERE k = 1") is not None
    assert counter(meter, "result_cache.wholesale_writes.gap") == 1
    assert cache.versions == {"t": 6, "u": 1}
    assert_index_matches_entries(cache)


def test_lost_piggyback_cannot_leave_a_stale_entry(monkeypatch):
    """End to end: the piggyback of one commit never reaches the cache.
    The next bump of the table exposes the gap."""
    world = CacheWorld()
    one, two = POINT.format(1, 1), POINT.format(1, 2)
    assert world.read(one) == ([(11,)], False)
    assert world.read(two) == ([(12,)], False)
    with monkeypatch.context() as patch:
        patch.setattr(world.cache, "observe_committed",
                      lambda updates, epoch: None)
        world.writer.run_statement("UPDATE t SET v = 111 WHERE a = 1 "
                                   "AND b = 1")
    world.writer.run_statement("UPDATE t SET v = 122 WHERE a = 1 AND b = 2")
    assert world.count("wholesale_writes.gap") >= 1
    assert world.read(one) == ([(111,)], False)
    assert world.read(two) == ([(122,)], False)


def test_commit_whose_response_dies_with_the_server_evicts_its_table_only():
    """The wrapped update's COMMIT is applied and durable, the server
    dies before it answers (the network's after-apply fault point): no
    piggyback ever names the keys.  One version probe after the restart
    finds ``t`` moved and ``u`` not."""
    world = CacheWorld()
    t_entry, u_entry = POINT.format(1, 1), "SELECT a FROM u WHERE k = 1"
    world.read(t_entry)
    world.read(POINT.format(2, 1))
    world.read(u_entry)
    fired = []

    def dies_answering_commit(request):
        if "COMMIT" in getattr(request, "sql", "") and not fired:
            fired.append(request)
            world.server.crash()
            world.server.restart()

    network = world.writer.network
    network.after_apply_injector = dies_answering_commit
    world.writer.run_statement("UPDATE t SET v = 111 WHERE a = 1 AND b = 1")
    network.after_apply_injector = None
    assert fired and world.writer.manager.stats["recoveries"] == 1
    probes = counter(world.meter, "net.requests.VersionProbeRequest")
    assert world.read(u_entry) == ([(1,)], True), (
        "revalidation evicted a table the lost commit never wrote")
    # (The reader's session died too: its first probe is what told it.)
    assert counter(world.meter,
                   "net.requests.VersionProbeRequest") > probes
    assert world.read(t_entry) == ([(111,)], False)
    assert world.read(POINT.format(2, 1)) == ([(21,)], False), (
        "without the keys, all of t had to go")


def test_staged_results_promote_unless_the_transaction_wrote_their_keys():
    world = CacheWorld()
    kept, overwritten, seen_dirty = (POINT.format(1, b) for b in (0, 1, 2))
    writer = world.writer
    writer.run_statement("BEGIN TRANSACTION")
    writer.query_rows(kept)
    writer.query_rows(overwritten)
    writer.run_statement("UPDATE t SET v = 0 WHERE a = 1 AND b = 1")
    writer.run_statement("UPDATE t SET v = 0 WHERE a = 1 AND b = 2")
    assert writer.query_rows(seen_dirty) == [(0,)]   # its own write
    assert len(world.cache) == 0 and world.read(kept) == ([(10,)], False)
    writer.run_statement("COMMIT")
    assert_index_matches_entries(world.cache)
    assert world.read(kept) == ([(10,)], True)
    assert world.read(overwritten) == ([(0,)], False)
    assert world.read(seen_dirty) == ([(0,)], False)


def test_another_sessions_commit_evicts_a_staged_result():
    """A staged result is judged by every commit folded while its
    transaction is open, not only by its own.  Row locks on the rows a
    prefix read returned do not stop an INSERT into the prefix (the
    engine has no next-key locks), so this can really happen."""
    world = CacheWorld()
    staged, bystander = PREFIX.format(1), PREFIX.format(2)
    reader = world.reader
    reader.run_statement("BEGIN TRANSACTION")
    before = reader.query_rows(staged)
    reader.query_rows(bystander)
    world.writer.run_statement("INSERT INTO t VALUES (1, 3, 99, 0)")
    reader.run_statement("COMMIT")
    assert world.read(staged) == (sorted(before + [(3, 99)]), False), (
        "COMMIT promoted a result another session's commit had outdated")
    assert world.read(bystander)[1]


def test_uncommitted_rows_read_outside_a_transaction_are_not_cached():
    """A statement outside a transaction takes no locks and can return
    another session's uncommitted row.  Were that result cached, a
    ROLLBACK — which bumps nothing — would leave it there for good."""
    world = CacheWorld()
    sql = POINT.format(1, 1)
    writer = world.writer
    writer.run_statement("BEGIN TRANSACTION")
    writer.run_statement("UPDATE t SET v = 666 WHERE a = 1 AND b = 1")
    assert world.read(sql) == ([(666,)], False)      # the engine's dirty read
    assert len(world.cache) == 0
    writer.run_statement("ROLLBACK")
    assert world.read(sql) == ([(11,)], False)
    assert world.read(sql) == ([(11,)], True)


def test_uncommitted_delete_seen_inside_a_transaction_is_not_published():
    """No lock stands in for a deleted row: a reader inside a
    transaction walks past another transaction's uncommitted DELETE
    (the engine has no next-key locks).  Its COMMIT must not publish
    what it saw — the deleter can still roll back."""
    world = CacheWorld()
    sql = PREFIX.format(1)
    writer, reader = world.writer, world.reader
    writer.run_statement("BEGIN TRANSACTION")
    writer.run_statement("DELETE FROM t WHERE a = 1 AND b = 2")
    reader.run_statement("BEGIN TRANSACTION")
    assert (2, 12) not in reader.query_rows(sql)     # the engine's gap
    reader.run_statement("COMMIT")
    writer.run_statement("ROLLBACK")
    rows, hit = world.read(sql)
    assert (2, 12) in rows and not hit
    assert world.read(sql) == (rows, True)


def test_result_still_being_produced_when_its_response_leaves_is_not_shared():
    """A result wider than the server's output buffer is read in
    instalments, one per fetch; a read set stamped with the first says
    nothing about what the later ones saw — here another transaction's
    uncommitted DELETE, rolled back afterwards."""
    # 90 rows metered at 1 KB (half a VARCHAR's declared length): past
    # the 75 KB buffer, within the rows the client cache takes.
    rows = 90
    wide = ("CREATE TABLE wide (k INT NOT NULL, pad VARCHAR(2000), "
            "PRIMARY KEY (k))",
            "INSERT INTO wide VALUES " + ", ".join(
                f"({k}, '{'x' * 1000}')" for k in range(rows)))
    world = CacheWorld(extra_schema=wide)
    sql = "SELECT k, pad FROM wide"
    handle = world.server.handle

    def deletes_behind_the_first_instalment(request):
        if type(request).__name__ == "FetchRequest":
            world.server.handle = handle
            world.writer.run_statement("BEGIN TRANSACTION")
            world.writer.run_statement(
                f"DELETE FROM wide WHERE k = {rows - 1}")
        return handle(request)

    world.server.handle = deletes_behind_the_first_instalment
    seen, hit = world.read(sql)
    assert world.server.handle is handle, "the result fit one buffer"
    assert len(seen) == rows - 1 and not hit         # the engine's dirty read
    world.writer.run_statement("ROLLBACK")
    seen, hit = world.read(sql)
    assert len(seen) == rows and not hit


def test_sys_result_cache_says_why_entries_died_or_lived():
    world = CacheWorld()
    world.read(POINT.format(1, 1))
    world.read(POINT.format(1, 2))
    world.read("SELECT count(*) FROM t")
    world.writer.run_statement("UPDATE t SET v = 0 WHERE a = 1 AND b = 1")
    rows = dict(world.reader.query_rows(
        "SELECT metric, value FROM sys_result_cache"))
    assert rows["result_cache.invalidations"] == 2
    assert rows["result_cache.invalidations_by_key"] == 2
    assert rows["result_cache.spared"] == 1
    assert rows["result_cache.entries.key_stamped"] == 1
    assert rows["result_cache.entries.table_stamped"] == 0
    assert rows["result_cache.wholesale_writes.gap"] >= 1   # first sight
    world.read("SELECT count(*) FROM t")
    rows = dict(world.reader.query_rows(
        "SELECT metric, value FROM sys_result_cache"))
    assert rows["result_cache.entries.table_stamped"] == 1
