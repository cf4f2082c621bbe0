"""The hash operators against the row-at-a-time oracle
(``tests/row_engine_oracle.py``), on random small tables.

``HashJoin`` (one and two key columns, inner and left, with and without
a residual) and ``HashAggregate`` (zero, one and two group columns,
every aggregate kind with and without DISTINCT) take their keys from
one function per execution and their aggregate arguments from one
generated function per row.  Their output must be the oracle's — the
same rows, the same values of the same types, in the same order — and
their clock the oracle's to ``CLOCK_REL_TOL``.  Key columns mix NULL,
``1`` and ``1.0``, bools, dates and strings, so dict equality decides
what matches and which arrival names a group.  The input reaches the
operator in each of the three batch-cost shapes: a float (a scan), a
list (a filter) and None (a blocking sort).
"""

import datetime
import struct

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine.database import DatabaseEngine
from repro.engine.session import EngineSession
from repro.sim.meter import Meter
from repro.sql import ast, executor
from repro.sql.executor import (
    AggregateSpec,
    Filter,
    HashAggregate,
    HashJoin,
    SeqScan,
    Sort,
    SortKey,
)
from repro.sql.expressions import ExprCompiler, Scope
from tests import row_engine_oracle
from tests.row_engine_oracle import same_clock

KEYS = st.sampled_from([None, 1, 1.0, True, False, 0, 2, 2.5, "1", "a",
                        "b", datetime.date(1995, 3, 1),
                        datetime.date(1995, 3, 2)])
NUMBERS = st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
                    st.sampled_from([0.1, 0.2, 1.0, -0.0, 2.5, 1e16]))
TEXTS = st.one_of(st.none(), st.sampled_from(["x", "y", "z", ""]))
#: Rows ``(k1, k2, number, text)``, split into pages of random length.
PAGES = st.lists(st.lists(st.tuples(KEYS, KEYS, NUMBERS, TEXTS),
                          max_size=6), max_size=5)
COLUMNS = ("k1", "k2", "n", "s")


class _Page:
    def __init__(self, rows):
        self._rows = rows

    def live(self):
        return list(self._rows)


class _Heap:
    file_id = 0

    def __init__(self, pages):
        self.pages = pages

    def scan(self):
        for page_no, rows in enumerate(self.pages):
            for slot, row in enumerate(rows):
                yield (page_no, slot), row


class _Table:
    """A heap's pages and nothing else: what ``SeqScan`` and the
    oracle's scan read.  Unlike a stored table it keeps any mix of
    values in a column."""

    def __init__(self, pages):
        self.heap = _Heap(pages)

    def scan_pages(self):
        return [(page_no, _Page(rows))
                for page_no, rows in enumerate(self.heap.pages)]


def _compiler(*bindings):
    return ExprCompiler(Scope([(binding, column) for binding in bindings
                               for column in COLUMNS]))


def _input(pages, shape: str, binding: str):
    """A scan of ``pages`` whose batches owe a float, a list or None."""
    op = SeqScan(_Table(pages), cost_factor=1.5)
    if shape == "list":
        keep = _compiler(binding).compile(ast.IsNull(
            ast.ColumnRef(binding, "s"), negated=True))
        op = Filter(op, keep)
    elif shape == "none":
        op = Sort(op, [SortKey(lambda ctx: 0)])   # stable: order kept
    return op


def _key_fns(compiler, binding: str, width: int, evaluated: bool):
    """Compiled bare columns (direct indexing), or functions of the
    context that the executor cannot index through."""
    fns = [compiler.compile(ast.ColumnRef(binding, name))
           for name in ("k1", "k2")[:width]]
    if evaluated:
        fns = [lambda ctx, fn=fn: fn(ctx) for fn in fns]
    return fns


def typed(rows):
    """Rows with every value's type and, for a float, its bits."""
    return [tuple((float, struct.pack("<d", v)) if type(v) is float
                  else (type(v), v) for v in row) for row in rows]


def _run_both(plan):
    """(rows, clock) from the executor and from the oracle."""
    meter = Meter()
    rows = executor.run_plan(plan, meter)
    oracle_meter = Meter()
    oracle_rows = row_engine_oracle.run_plan(plan, oracle_meter)
    return (rows, meter.now, meter.counters), \
        (oracle_rows, oracle_meter.now, oracle_meter.counters)


def _assert_same(plan):
    (rows, clock, counters), (oracle_rows, oracle_clock,
                              oracle_counters) = _run_both(plan)
    assert typed(rows) == typed(oracle_rows)
    assert same_clock(clock, oracle_clock), (clock, oracle_clock)
    assert counters == oracle_counters
    return rows


SHAPES = st.sampled_from(["float", "list", "none"])


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(left=PAGES, right=PAGES, left_shape=SHAPES, right_shape=SHAPES,
       width=st.integers(1, 2), kind=st.sampled_from(["inner", "left"]),
       residual=st.booleans(), evaluated=st.booleans())
def test_hash_join_matches_the_oracle(left, right, left_shape, right_shape,
                                      width, kind, residual, evaluated):
    both = _compiler("l", "r")
    residual_fn = None
    if residual:
        # NULL numbers make it unknown: a LEFT join keeps the row.
        residual_fn = both.compile(ast.Binary(
            "<=", ast.ColumnRef("l", "n"), ast.ColumnRef("r", "n")))
    plan = HashJoin(
        _input(left, left_shape, "l"), _input(right, right_shape, "r"),
        _key_fns(_compiler("l"), "l", width, evaluated),
        _key_fns(_compiler("r"), "r", width, evaluated),
        kind=kind, residual=residual_fn, left_width=len(COLUMNS),
        right_width=len(COLUMNS), cost_factor=2.0)
    _assert_same(plan)


AGGREGATES = st.lists(
    st.tuples(st.sampled_from(["count", "sum", "avg", "min", "max",
                               "count*"]),
              st.booleans(), st.sampled_from(["n", "s"])),
    max_size=6)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(pages=PAGES, shape=SHAPES, groups=st.integers(0, 2),
       aggregates=AGGREGATES, evaluated=st.booleans())
def test_hash_aggregate_matches_the_oracle(pages, shape, groups, aggregates,
                                           evaluated):
    compiler = _compiler("t")
    specs, args = [], []
    for func, distinct, column in aggregates:
        if func == "count*":
            specs.append(AggregateSpec("count"))
            args.append(None)
            continue
        if func in ("sum", "avg"):
            column = "n"          # numbers only: a str does not add
        arg = ast.ColumnRef("t", column)
        if func == "sum" and distinct:
            # An expression argument: generated code, not a bare slot.
            arg = ast.Binary("*", arg, ast.Literal(2))
        specs.append(AggregateSpec(func, compiler.compile(arg), distinct))
        args.append(arg)
    args_fn = compiler.compile_values(args, [s.arg_fn for s in specs])
    plan = HashAggregate(_input(pages, shape, "t"),
                         _key_fns(compiler, "t", groups, evaluated),
                         specs, args_fn, cost_factor=3.0)
    rows = _assert_same(plan)
    if not groups:
        assert len(rows) == 1


# ---------------------------------------------------------------------------
# Directed cases, through the engine
# ---------------------------------------------------------------------------

T = [(i % 3, i % 4) for i in range(9)]
U = [(i % 3, i % 5) for i in range(10)]
P = [(i % 5, i) for i in range(8)]
SETUP = (
    "CREATE TABLE t (a INT, b INT)",
    "CREATE TABLE u (x INT, y INT)",
    "CREATE TABLE p (k INT, v INT)",
    *(f"INSERT INTO {name} VALUES " + ", ".join(map(str, rows))
      for name, rows in (("t", T), ("u", U), ("p", P))),
)


def _engine_outputs(statements):
    engine = DatabaseEngine(meter=Meter())
    session = EngineSession(session_id=1)
    for sql in SETUP:
        engine.execute(sql, session)
    rows = [engine.execute(sql, session).fetch_all() for sql in statements]
    return rows, engine.meter.now, dict(engine.meter.counters)


def _engine_vs_oracle(statements):
    ours = _engine_outputs(statements)
    with row_engine_oracle.installed():
        oracle = _engine_outputs(statements)
    assert ours[0] == oracle[0]
    assert same_clock(ours[1], oracle[1])
    assert ours[2] == oracle[2]
    return ours[0]


def test_memo_key_spanning_two_outer_levels():
    """The innermost subquery reads ``u.y`` (one level up) and ``t.b``
    (two levels up): its memo key holds both, so a memo hit on ``u.y``
    alone would answer for the wrong ``t`` row."""
    [rows] = _engine_vs_oracle([
        "SELECT a, b, (SELECT count(*) FROM u WHERE u.x = t.a AND EXISTS "
        "(SELECT 1 FROM p WHERE p.k = u.y AND p.v > t.b)) FROM t"])
    assert rows == [
        (a, b, sum(1 for x, y in U if x == a
                   and any(k == y and v > b for k, v in P)))
        for a, b in T]


def test_single_row_group_by():
    """GROUP BY one column (the key is a 1-tuple) yielding one row:
    three input rows in the group, then one input row."""
    rows = _engine_vs_oracle([
        "SELECT a, count(*), sum(b), min(b) FROM t WHERE a = 1 GROUP BY a",
        "SELECT x, count(*), avg(y) FROM u WHERE x = 1 AND y = 4 GROUP BY x",
        "SELECT k, max(v) FROM p WHERE v = 7 GROUP BY k"])
    assert rows == [[(1, 3, 1 + 0 + 3, 0)], [(1, 1, 4.0)], [(2, 7)]]
