"""A stored row is handed on, not rebuilt.

Two host-side shortcuts, each judged against the path it shortcuts:

* an identity ``Project`` (the bare columns ``0..n-1`` of an ``n``-wide
  input: ``SELECT *``) hands its child's batches on instead of copying
  every tuple — its rows, owed costs, counters and EXPLAIN text are the
  copying projection's;
* ``CREATE TABLE … AS`` and ``INSERT … SELECT`` over a plan that hands
  on one durable table's stored tuples store them as they are, without
  ``RowShape.build``, when the column types match and no NOT NULL
  target column takes a nullable source column — and then store exactly
  the rows and log exactly the records (``payload_bytes`` included)
  that building every row stores and logs, crash and redo included.

The row-at-a-time oracle (``exec_mode`` "rows") copies in its own
``Project``: it agrees on the values, and only the executor hands on
the tuple objects themselves.
"""

import datetime
import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import database
from repro.errors import EngineError, TypeMismatchError
from repro.sim.meter import Meter
from repro.sql.executor import ExecContext, PlanOperator, Project
from repro.sql.parser import parse_statement
from repro.types import ROW_STATS
from tests.schedules import EngineWorld

ROWS = [(1, "a", 1.5), (2, None, None), (3, "c", -2.0), (4, "d", 0.25)]


@pytest.fixture
def table(engine, run):
    run("CREATE TABLE t (a INT NOT NULL, b VARCHAR(8), c FLOAT)")
    run("CREATE TABLE u (a INT NOT NULL, d VARCHAR(8))")
    engine.bulk_load("t", ROWS)
    engine.bulk_load("u", [(1, "x"), (3, "y")])
    return engine.table("t")


def stored(table) -> list:
    return [row for _rid, row in table.heap.scan()]


def plan_of(engine, session, sql):
    return engine._planner(session, None).plan_select(parse_statement(sql))


# ---------------------------------------------------------------------------
# The identity projection
# ---------------------------------------------------------------------------


def test_select_star_hands_on_the_stored_tuples(engine, session, run, table,
                                               exec_mode):
    assert plan_of(engine, session, "SELECT * FROM t").root.identity
    rows, kept = run("SELECT * FROM t"), stored(table)
    assert rows == kept == ROWS
    if exec_mode == "batch":
        assert all(map(operator.is_, rows, kept))
    # Spelled out in table order it is the same projection.
    assert plan_of(engine, session, "SELECT a, b, c FROM t").root.identity


class _Recorded(PlanOperator):
    """``child``'s batches, remembered on the way up."""

    def __init__(self, child):
        self.child, self.seen = child, []

    def batches(self, exec_ctx):
        for batch in self.child.batches(exec_ctx):
            self.seen.append(batch)
            yield batch


def test_select_star_over_a_join_hands_on_the_joined_tuples(
        engine, session, run, table, exec_mode):
    sql = "SELECT * FROM t, u WHERE t.a = u.a"
    assert run(sql) == [(1, "a", 1.5, 1, "x"), (3, "c", -2.0, 3, "y")]
    root = plan_of(engine, session, sql).root
    assert isinstance(root, Project) and root.identity
    root.child = recorded = _Recorded(root.child)
    out = list(root.batches(ExecContext(meter=engine.meter)))
    assert len(out) == len(recorded.seen)
    for (rows, costs), (seen_rows, seen_costs) in zip(out, recorded.seen):
        assert rows is seen_rows and costs is seen_costs


@pytest.mark.parametrize("sql, expected", [
    ("SELECT c, b, a FROM t", [row[::-1] for row in ROWS]),
    ("SELECT a, b FROM t", [row[:2] for row in ROWS]),
    ("SELECT a, b, c, a FROM t", [row + row[:1] for row in ROWS]),
    ("SELECT a, b, c + 0 FROM t",
     [(a, b, None if c is None else c + 0) for a, b, c in ROWS]),
], ids=["reordered", "subset", "duplicated", "computed"])
def test_any_other_projection_copies(engine, session, run, table, exec_mode,
                                     sql, expected):
    assert not plan_of(engine, session, sql).root.identity
    rows, kept = run(sql), stored(table)
    assert rows == expected
    assert not any(map(operator.is_, rows, kept))


def test_an_empty_table_and_top_0(engine, session, run, table, exec_mode):
    run("CREATE TABLE e (a INT, b VARCHAR(8))")
    assert run("SELECT * FROM e") == []
    assert run("SELECT TOP 0 * FROM t") == []
    assert run("SELECT TOP 2 * FROM t") == ROWS[:2]


def _column(slot):
    """A compiled bare column reference, as ``slot_of`` sees one."""

    def fn(ctx):
        return ctx.row[slot]

    fn._slot = slot
    return fn


class _Batches(PlanOperator):
    def __init__(self, batches):
        self.given = batches

    def batches(self, exec_ctx):
        yield from self.given


@settings(max_examples=120, deadline=None)
@given(width=st.integers(1, 4), data=st.data())
def test_the_identity_is_exactly_the_columns_in_order(width, data):
    """Hand-built batches — an empty one and every costs shape among
    them: the projection is the identity for slots ``0..width-1`` only,
    hands those batches on as they are, and otherwise yields what the
    copying projection yields.  Both count one batch per batch."""
    slots = data.draw(st.lists(st.integers(0, width - 1), min_size=1,
                               max_size=6))
    row = st.tuples(*[st.integers(-3, 3)] * width)
    batches = data.draw(st.lists(st.tuples(
        st.lists(row, max_size=3),
        st.one_of(st.none(), st.just(0.25))), max_size=4))
    batches = [(rows, [0.5] * len(rows) if costs is None and rows
                and data.draw(st.booleans()) else costs)
               for rows, costs in batches]
    exprs = [_column(slot) for slot in slots]
    identity = Project(_Batches(batches), exprs, input_width=width)
    copying = Project(_Batches(batches), exprs)
    assert identity.identity == (slots == list(range(width)))
    assert not copying.identity
    meters = Meter(), Meter()
    out = list(identity.batches(ExecContext(meter=meters[0])))
    assert out == list(copying.batches(ExecContext(meter=meters[1])))
    assert out == [([tuple(r[s] for s in slots) for r in rows], costs)
                   for rows, costs in batches]
    if identity.identity:
        assert all(a is b for a, b in zip(out, batches))
    assert meters[0].executor_stats == meters[1].executor_stats \
        == ({"batches.Project": len(batches)} if batches else {})


def test_explain_and_counters_are_unchanged(engine, session, run, table,
                                            exec_mode):
    assert run("EXPLAIN SELECT TOP 3 * FROM t") == [
        ("Limit(3)  [est_rows=3 est_cost=0.058000]",),
        ("  Project(3 cols)  [est_rows=1000 est_cost=0.058000]",),
        ("    SeqScan(t)  [est_rows=1000 est_cost=0.058000]",)]
    stats = engine.meter.executor_stats

    def ticks(sql):
        before = dict(stats)
        run(sql)
        return {key: stats[key] - before.get(key, 0) for key in stats
                if key.startswith("batches.")}

    # The identity and a copying projection of the same rows count the
    # same batches.
    assert ticks("SELECT * FROM t") == ticks("SELECT c, b, a FROM t")
    assert ticks("SELECT TOP 2 * FROM t") == ticks("SELECT TOP 2 c, b, a "
                                                   "FROM t")
    if exec_mode == "batch":
        assert ticks("SELECT * FROM t")["batches.Project"] \
            == table.heap.page_count


# ---------------------------------------------------------------------------
# CREATE TABLE … AS and INSERT … SELECT without the build
# ---------------------------------------------------------------------------


def _outcome(world, sql):
    try:
        return world.run(sql)
    except (EngineError, TypeMismatchError) as exc:
        return type(exc).__name__, str(exc)


def _play(setup, rows, statements, build_every_row: bool,
          crash: bool = False):
    """A world after ``setup``, ``src``'s ``rows`` and ``statements``
    (with ``build_every_row``: no plan hands on its stored rows), and
    each statement's outcome."""
    with pytest.MonkeyPatch.context() as patch:
        if build_every_row:
            patch.setattr(database, "stored_rows_source", lambda root: None)
        world = EngineWorld(setup=setup)
        world.engine.bulk_load("src", rows)
        outcomes = [_outcome(world, sql) for sql in statements]
        if crash:
            world.crash_and_restart()
    return world, outcomes


def _log(world) -> list:
    return [(type(r).__name__, r.lsn, r.prev_lsn, r.payload_bytes(),
             getattr(r, "undo_next_lsn", None), r)
            for r in world.wal.all_records()]


def _stored_rows(world) -> dict:
    """Each table's (row address, row) pairs in page order."""
    return {name: list(world.engine.table(name).heap.scan())
            for name in sorted(world.engine.catalog.tables)}


def handed_on(world, target: str = "dst") -> bool:
    """Whether every row of ``target`` is one of ``src``'s tuples."""
    kept = {id(row) for row in stored(world.engine.table("src"))}
    rows = stored(world.engine.table(target))
    return bool(rows) and all(id(row) in kept for row in rows)


def same_as_building_every_row(setup, rows, statements, crash=False):
    """Play the statements both ways; both must store the same rows and
    log the same records.  Returns the shipped world and its outcomes."""
    shipped, outcomes = _play(setup, rows, statements, False, crash)
    built, built_outcomes = _play(setup, rows, statements, True, crash)
    assert outcomes == built_outcomes
    assert _stored_rows(shipped) == _stored_rows(built)
    assert _log(shipped) == _log(built)
    return shipped, outcomes


SRC = "CREATE TABLE src (a INT NOT NULL, b VARCHAR(8), c FLOAT, d DATE)"
DAY = datetime.date(2001, 2, 3)
SRC_ROWS = [(1, "a", 1.5, DAY), (2, None, None, None), (3, "c", -2.0, DAY),
            (4, None, 0.5, None)]


def test_ctas_with_nulls_hands_the_rows_on():
    statements = ["CREATE TABLE dst AS SELECT * FROM src",
                  "CREATE TABLE top2 AS SELECT TOP 2 * FROM src"]
    world, outcomes = same_as_building_every_row([SRC], SRC_ROWS, statements)
    assert outcomes == [4, 2]
    assert handed_on(world) and handed_on(world, "top2")
    assert world.run("SELECT * FROM dst") == SRC_ROWS
    # Rows handed on count as conforming; only bulk_load's two rows with
    # NULLs went through the coerce ladder.
    before = dict(ROW_STATS)
    _play([SRC], SRC_ROWS, statements, build_every_row=False)
    assert ROW_STATS["rows_built_coerced"] - before["rows_built_coerced"] \
        == 2
    assert ROW_STATS["rows_built_fast"] - before["rows_built_fast"] \
        == 2 + 4 + 2


def test_insert_select_with_nulls_hands_the_rows_on():
    world, outcomes = same_as_building_every_row(
        [SRC, "CREATE TABLE dst (a INT NOT NULL, b VARCHAR(4), c FLOAT, "
              "d DATE)"],
        SRC_ROWS, ["INSERT INTO dst SELECT * FROM src",
                   "INSERT INTO dst SELECT TOP 1 * FROM src"])
    assert outcomes == [4, 1]
    assert handed_on(world)


def test_not_null_target_from_a_nullable_source_still_raises():
    world, outcomes = same_as_building_every_row(
        [SRC, "CREATE TABLE dst (a INT, b VARCHAR(8) NOT NULL, c FLOAT, "
              "d DATE)"],
        SRC_ROWS, ["INSERT INTO dst SELECT * FROM src",
                   "SELECT count(*) FROM dst"])
    assert outcomes == [("EngineError", "column 'b' is NOT NULL"), [(0,)]]


def test_insert_with_a_column_list_builds():
    world, outcomes = same_as_building_every_row(
        [SRC, "CREATE TABLE dst (a INT, b VARCHAR(8), c FLOAT, d DATE)",
         "CREATE TABLE rev (d DATE, c FLOAT, b VARCHAR(8), a INT)"],
        SRC_ROWS, ["INSERT INTO dst (a, b, c, d) SELECT * FROM src",
                   "INSERT INTO rev (a, b, c, d) SELECT * FROM src"])
    assert outcomes == [4, 4]
    # Naming every column in table order is no column list at all.
    assert handed_on(world)
    assert not handed_on(world, "rev")
    assert world.run("SELECT * FROM rev") == [row[::-1] for row in SRC_ROWS]
    # A column list that reorders columns of one type.
    world, outcomes = same_as_building_every_row(
        ["CREATE TABLE src (a INT, b INT)", "CREATE TABLE dst (a INT, b INT)"],
        [(1, 2), (3, None)], ["INSERT INTO dst (b, a) SELECT * FROM src"])
    assert world.run("SELECT * FROM dst") == [(2, 1), (None, 3)]


def test_int_source_into_a_float_target_still_coerces():
    world, outcomes = same_as_building_every_row(
        [SRC, "CREATE TABLE dst (a FLOAT, b VARCHAR(8), c FLOAT, d DATE)"],
        SRC_ROWS, ["INSERT INTO dst SELECT * FROM src"])
    assert outcomes == [4]
    assert not handed_on(world)
    assert [type(row[0]) for row in stored(world.engine.table("dst"))] \
        == [float] * 4


def test_a_where_under_the_scan_builds():
    world, outcomes = same_as_building_every_row(
        [SRC], SRC_ROWS,
        ["CREATE TABLE dst AS SELECT * FROM src WHERE c IS NOT NULL",
         "INSERT INTO dst SELECT * FROM src WHERE b IS NULL"])
    assert outcomes == [3, 2]
    assert world.run("SELECT c1 FROM dst") == [(1,), (3,), (4,), (2,), (4,)]


def test_redo_after_a_committed_ctas_restores_identical_rows():
    world, outcomes = same_as_building_every_row(
        [SRC], SRC_ROWS, ["CREATE TABLE dst AS SELECT * FROM src"],
        crash=True)
    assert outcomes == [4]
    assert world.run("SELECT * FROM dst") == SRC_ROWS


_TYPES = {"INT": st.integers(-5, 5), "BIGINT": st.integers(-5, 5),
          "FLOAT": st.floats(-4, 4, allow_nan=False),
          "DECIMAL": st.floats(-4, 4, allow_nan=False),
          "VARCHAR(8)": st.text("ab", max_size=4),
          "CHAR(4)": st.text("ab", max_size=4),
          "DATE": st.dates(datetime.date(2000, 1, 1),
                           datetime.date(2000, 3, 1))}


@st.composite
def copies(draw):
    """A source table and its rows, a target shaped like it or not, and
    statements that copy one into the other."""
    types = draw(st.lists(st.sampled_from(sorted(_TYPES)), min_size=1,
                          max_size=4))
    not_null = [draw(st.booleans()) for _ in types]
    rows = draw(st.lists(st.tuples(*[
        _TYPES[t] if required else st.one_of(st.none(), _TYPES[t])
        for t, required in zip(types, not_null)]), max_size=12))
    targets = [draw(st.sampled_from([t, t, "FLOAT", "VARCHAR(8)"]))
               for t in types]
    target_not_null = [draw(st.booleans()) for _ in types]

    def columns(prefix, kinds, required):
        return ", ".join(f"{prefix}{i} {kind}" + (" NOT NULL" if flag
                                                  else "")
                         for i, (kind, flag) in enumerate(zip(kinds,
                                                              required)))

    setup = [f"CREATE TABLE src ({columns('s', types, not_null)})",
             f"CREATE TABLE dst ({columns('c', targets, target_not_null)})"]
    names = ", ".join(f"c{i}" for i in range(len(types)))
    top = draw(st.integers(0, 13))
    statements = draw(st.lists(st.sampled_from([
        "CREATE TABLE made AS SELECT * FROM src",
        f"CREATE TABLE made AS SELECT TOP {top} * FROM src",
        "INSERT INTO dst SELECT * FROM src",
        f"INSERT INTO dst SELECT TOP {top} * FROM src",
        f"INSERT INTO dst ({names}) SELECT * FROM src",
        f"INSERT INTO dst ({', '.join(reversed(names.split(', ')))}) "
        "SELECT * FROM src",
        "INSERT INTO dst SELECT * FROM src WHERE s0 IS NOT NULL",
        "DROP TABLE made",
    ]), min_size=1, max_size=3))
    return setup, rows, statements, draw(st.booleans())


@settings(max_examples=60, deadline=None)
@given(case=copies())
def test_handing_on_stores_what_building_stores(case):
    setup, rows, statements, crash = case
    same_as_building_every_row(setup, rows, statements, crash)
