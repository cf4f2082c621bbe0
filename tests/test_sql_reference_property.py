"""Property-based test: the engine agrees with a naive reference evaluator.

Hypothesis generates random small tables and random simple queries
(filters, projections, aggregates, order, joins); the engine's answer is
compared against a straightforward in-Python evaluation of the same
semantics.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine.database import DatabaseEngine
from repro.engine.session import EngineSession
from repro.sim.meter import Meter
from tests import row_engine_oracle

COLUMNS = ("a", "b", "c")


@st.composite
def table_rows(draw):
    n = draw(st.integers(0, 25))
    return [
        (draw(st.integers(-5, 5)),
         draw(st.one_of(st.none(), st.integers(-3, 3))),
         draw(st.sampled_from(["x", "y", "z"])))
        for _ in range(n)
    ]


def make_engine(rows):
    engine = DatabaseEngine(meter=Meter())
    session = EngineSession(session_id=1)
    engine.execute("CREATE TABLE t (a INT, b INT, c VARCHAR(2))", session)
    if rows:
        values = ", ".join(
            f"({a}, {'NULL' if b is None else b}, '{c}')"
            for a, b, c in rows)
        engine.execute(f"INSERT INTO t VALUES {values}", session)
    return engine, session


def run(engine, session, sql):
    return engine.execute(sql, session).fetch_all()


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(rows=table_rows(), threshold=st.integers(-5, 5))
def test_filter_matches_reference(rows, threshold):
    engine, session = make_engine(rows)
    got = run(engine, session,
              f"SELECT a FROM t WHERE a > {threshold} ORDER BY a")
    expected = sorted(a for a, _b, _c in rows if a > threshold)
    assert [r[0] for r in got] == expected


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(rows=table_rows())
def test_null_aware_filter_matches_reference(rows):
    engine, session = make_engine(rows)
    got = run(engine, session, "SELECT b FROM t WHERE b <> 1 ORDER BY b")
    # SQL: NULLs never satisfy <>.
    expected = sorted(b for _a, b, _c in rows
                      if b is not None and b != 1)
    assert [r[0] for r in got] == expected


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(rows=table_rows())
def test_aggregates_match_reference(rows):
    engine, session = make_engine(rows)
    got = run(engine, session,
              "SELECT count(*), count(b), sum(a), min(a), max(a) FROM t")
    count_star, count_b, total, lo, hi = got[0]
    assert count_star == len(rows)
    assert count_b == sum(1 for _a, b, _c in rows if b is not None)
    if rows:
        assert total == sum(a for a, _b, _c in rows)
        assert lo == min(a for a, _b, _c in rows)
        assert hi == max(a for a, _b, _c in rows)
    else:
        assert total is None and lo is None and hi is None


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(rows=table_rows())
def test_group_by_matches_reference(rows):
    engine, session = make_engine(rows)
    got = run(engine, session,
              "SELECT c, count(*), sum(a) FROM t GROUP BY c ORDER BY c")
    expected = {}
    for a, _b, c in rows:
        count, total = expected.get(c, (0, 0))
        expected[c] = (count + 1, total + a)
    assert [(c, n, s) for c, n, s in got] == [
        (c, expected[c][0], expected[c][1]) for c in sorted(expected)]


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(rows=table_rows(), other=table_rows())
def test_join_matches_reference(rows, other):
    engine, session = make_engine(rows)
    engine.execute("CREATE TABLE u (x INT, y INT, z VARCHAR(2))", session)
    if other:
        values = ", ".join(
            f"({x}, {'NULL' if y is None else y}, '{z}')"
            for x, y, z in other)
        engine.execute(f"INSERT INTO u VALUES {values}", session)
    got = run(engine, session,
              "SELECT a, x FROM t, u WHERE a = x ORDER BY a, x")
    expected = sorted((a, x) for a, _b, _c in rows
                      for x, _y, _z in other if a == x)
    assert got == expected


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(rows=table_rows(), n=st.integers(0, 10))
def test_top_and_distinct_match_reference(rows, n):
    engine, session = make_engine(rows)
    got = run(engine, session,
              f"SELECT TOP {n} DISTINCT a FROM t ORDER BY a")
    expected = sorted(set(a for a, _b, _c in rows))[:n]
    assert [r[0] for r in got] == expected


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(rows=table_rows())
def test_update_matches_reference(rows):
    engine, session = make_engine(rows)
    engine.execute("UPDATE t SET a = a * 2 WHERE c = 'x'", session)
    got = run(engine, session, "SELECT a FROM t ORDER BY a")
    expected = sorted(a * 2 if c == "x" else a for a, _b, c in rows)
    assert [r[0] for r in got] == expected


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(rows=table_rows())
def test_delete_matches_reference(rows):
    engine, session = make_engine(rows)
    engine.execute("DELETE FROM t WHERE b IS NULL", session)
    got = run(engine, session, "SELECT count(*) FROM t")
    assert got[0][0] == sum(1 for _a, b, _c in rows if b is not None)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(rows=table_rows(), threshold=st.integers(-5, 5))
def test_batch_and_row_engines_bit_identical(rows, threshold):
    """The executor must match the row-at-a-time oracle — same rows and
    counters exactly, the virtual clock to its fixed tolerance — on
    randomized inputs."""
    queries = [
        f"SELECT a, c FROM t WHERE a > {threshold} ORDER BY a, c",
        "SELECT c, count(*), sum(a) FROM t GROUP BY c ORDER BY c",
        f"SELECT TOP 3 DISTINCT a FROM t WHERE b <> {threshold} "
        "ORDER BY a",
    ]

    def outputs():
        engine, session = make_engine(rows)
        got = [run(engine, session, sql) for sql in queries]
        return got, engine.meter.now, dict(engine.meter.counters)

    batch = outputs()
    with row_engine_oracle.installed():
        row = outputs()
    assert batch[0] == row[0]
    assert row_engine_oracle.same_clock(batch[1], row[1])
    assert batch[2] == row[2]


# ---------------------------------------------------------------------------
# IN-lists on key and non-key columns, judged by sqlite3
# ---------------------------------------------------------------------------
#
# The planner seeks an index by key list and carries a list across a
# join equality; the oracle is another engine altogether.  Every
# generated query is planned twice — from default estimates (the leg
# still called ``heuristic``, from when that was a planner of its own)
# and from ANALYZE statistics (``cost``) — and run on the executor and
# on the row-at-a-time oracle: each must return sqlite's rows, and the
# two runs of one leg must agree on rows *in order* and the counters
# exactly, and on the virtual clock to the oracle's tolerance.

import sqlite3  # noqa: E402

IN_DDL = (
    "CREATE TABLE t (k1 INT NOT NULL, k2 INT NOT NULL, v INT, "
    "PRIMARY KEY (k1, k2))",
    "CREATE INDEX t_v ON t (v)",
    "CREATE TABLE u (x INT NOT NULL, y INT, PRIMARY KEY (x))",
)

#: ``{L}`` is the generated list, ``{c}`` a generated constant.
IN_QUERIES = (
    # one table: full-width pk, pk prefix, leading column, secondary
    # index, a key column no index leads with, a non-key pair, negation
    "SELECT k1, k2, v FROM t WHERE k1 = {c} AND k2 IN ({L})",
    "SELECT k1, k2 FROM t WHERE k1 IN ({L})",
    "SELECT k1, k2, v FROM t WHERE v IN ({L})",
    "SELECT k1, k2 FROM t WHERE k2 IN ({L})",
    "SELECT k2 FROM t WHERE k1 = {c} AND k2 IN ({L}) AND k2 > 1",
    "SELECT k1, k2 FROM t WHERE k1 = {c} AND k2 NOT IN ({L})",
    "SELECT count(*) FROM t WHERE k1 IN ({L}) AND v IN ({L})",
    "SELECT x, y FROM u WHERE y IN ({L})",
    # two tables: the list on either side of the equality, on nullable
    # columns, in ON clauses, around outer joins
    "SELECT k1, k2, y FROM t, u WHERE k2 = x AND k2 IN ({L})",
    "SELECT k1, k2, y FROM t, u WHERE k1 = {c} AND x = k2 AND x IN ({L})",
    "SELECT k1, k2, x FROM t, u WHERE v = y AND y IN ({L})",
    "SELECT k1, k2, x FROM t, u WHERE v = x AND v IN ({L})",
    "SELECT k1, k2, y FROM t JOIN u ON k2 = x AND x IN ({L})",
    "SELECT k1, k2, y FROM t LEFT JOIN u ON k2 = x AND k2 IN ({L})",
    "SELECT k1, k2, y FROM t LEFT JOIN u ON k2 = x AND x IN ({L})",
    "SELECT x, k1, k2 FROM u LEFT JOIN t ON k2 = x AND x IN ({L})",
    "SELECT x, k1, k2 FROM u LEFT JOIN t ON k2 = x AND k2 IN ({L})",
    "SELECT k1, k2, y FROM t LEFT JOIN u ON k2 = x WHERE k2 IN ({L})",
    # a subquery in the ON of an inner join: it runs in a Filter above
    "SELECT k1, k2, y FROM t JOIN u ON k2 = x "
    "AND y > (SELECT min(v) FROM t WHERE k1 <> {c})",
    "SELECT k1, k2, y FROM t JOIN u ON k2 = x "
    "AND y IN (SELECT v FROM t WHERE k2 IN ({L}))",
)


@st.composite
def in_list_case(draw):
    t_rows = draw(st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 5),
                  st.one_of(st.none(), st.integers(0, 5))),
        max_size=14, unique_by=lambda r: (r[0], r[1])))
    u_rows = draw(st.lists(
        st.tuples(st.integers(0, 6),
                  st.one_of(st.none(), st.integers(0, 5))),
        max_size=7, unique_by=lambda r: r[0]))
    items = draw(st.lists(st.one_of(st.none(), st.integers(-1, 6)),
                          min_size=1, max_size=5))
    rendered = ", ".join("NULL" if i is None else str(i) for i in items)
    query = draw(st.sampled_from(IN_QUERIES)).format(
        L=rendered, c=draw(st.integers(0, 2)))
    return t_rows, u_rows, query


def _in_list_inserts(t_rows, u_rows):
    def values(rows):
        return ", ".join(
            "(" + ", ".join("NULL" if v is None else str(v) for v in row)
            + ")" for row in rows)

    return ([f"INSERT INTO t VALUES {values(t_rows)}"] if t_rows else []) \
        + ([f"INSERT INTO u VALUES {values(u_rows)}"] if u_rows else [])


def _null_low(row):
    return tuple((value is not None, value) for value in row)


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=in_list_case())
def test_in_lists_match_sqlite_in_both_modes_and_engines(case):
    t_rows, u_rows, query = case
    setup = list(IN_DDL) + _in_list_inserts(t_rows, u_rows)
    oracle = sqlite3.connect(":memory:")
    try:
        for statement in setup:
            oracle.execute(statement)
        expected = sorted(oracle.execute(query).fetchall(), key=_null_low)
    finally:
        oracle.close()

    def outputs(mode):
        engine = DatabaseEngine(meter=Meter())
        session = EngineSession(session_id=1)
        for statement in setup:
            engine.execute(statement, session)
        if mode == "cost":
            engine.execute("ANALYZE", session)
        got = run(engine, session, query)
        return got, engine.meter.now, dict(engine.meter.counters)

    for mode in ("heuristic", "cost"):
        batch = outputs(mode)
        with row_engine_oracle.installed():
            row = outputs(mode)
        assert batch[0] == row[0] and batch[2] == row[2], (mode, query)
        assert row_engine_oracle.same_clock(batch[1], row[1]), (mode, query)
        assert sorted(batch[0], key=_null_low) == expected, (mode, query)


# ---------------------------------------------------------------------------
# Restrictions derived from a disjunction, judged by sqlite3
# ---------------------------------------------------------------------------
#
# For ``D1 OR ... OR Dn`` across t and u, the planner filters t by the OR
# of the t-only conjuncts of each Di (likewise u) below the join and keeps
# the disjunction as the residual.  Over NULL-bearing columns the rows
# must be sqlite's, and the derivation count must follow the rule: one
# per relation every Di restricts, none from a LEFT JOIN's ON clause.

OR_DDL = ("CREATE TABLE t (a INT, b INT)", "CREATE TABLE u (x INT, y INT)")

#: ``{D}`` is the generated disjunction.
OR_QUERIES = {
    "where": "SELECT a, b, x, y FROM t, u WHERE t.a = u.x AND ({D})",
    "inner": "SELECT a, b, x, y FROM t JOIN u ON t.a = u.x AND ({D})",
    "left": "SELECT a, b, x, y FROM t LEFT JOIN u ON t.a = u.x AND ({D})",
}

#: (relations the atom reads, template over a generated constant ``k``)
OR_ATOMS = (
    ({"t"}, "t.b = {k}"), ({"t"}, "t.b IS NULL"), ({"t"}, "t.b > {k}"),
    ({"t"}, "t.a <> {k}"), ({"u"}, "u.y = {k}"), ({"u"}, "u.y IS NULL"),
    ({"u"}, "u.y > {k}"), ({"u"}, "u.x < {k}"),
    ({"t", "u"}, "t.b = u.y"), ({"t", "u"}, "t.b < u.y"),
)


@st.composite
def or_restriction_case(draw):
    nullable = st.one_of(st.none(), st.integers(0, 3))
    t_rows = draw(st.lists(st.tuples(nullable, nullable), max_size=8))
    u_rows = draw(st.lists(st.tuples(nullable, nullable), max_size=8))
    disjuncts = draw(st.lists(
        st.lists(st.tuples(st.sampled_from(OR_ATOMS), st.integers(0, 3)),
                 min_size=1, max_size=3),
        min_size=2, max_size=3))
    text = " OR ".join(
        "(" + " AND ".join(atom.format(k=k) for (_r, atom), k in d) + ")"
        for d in disjuncts)
    kind = draw(st.sampled_from(sorted(OR_QUERIES)))
    spans = set().union(*(r for d in disjuncts for (r, _a), _k in d))
    derived = 0
    if kind != "left" and spans == {"t", "u"}:
        derived = sum(all(any(r == {rel} for (r, _a), _k in d)
                          for d in disjuncts) for rel in ("t", "u"))
    return t_rows, u_rows, OR_QUERIES[kind].format(D=text), derived


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=or_restriction_case())
def test_derived_or_restrictions_match_sqlite_in_both_modes_and_engines(
        case):
    t_rows, u_rows, query, derived = case
    setup = list(OR_DDL) + _in_list_inserts(t_rows, u_rows)
    oracle = sqlite3.connect(":memory:")
    try:
        for statement in setup:
            oracle.execute(statement)
        expected = sorted(oracle.execute(query).fetchall(), key=_null_low)
    finally:
        oracle.close()

    def outputs(mode):
        engine = DatabaseEngine(meter=Meter())
        session = EngineSession(session_id=1)
        for statement in setup:
            engine.execute(statement, session)
        if mode == "cost":
            engine.execute("ANALYZE", session)
        got = run(engine, session, query)
        return got, engine.meter.now, dict(engine.meter.counters)

    for mode in ("heuristic", "cost"):
        batch = outputs(mode)
        with row_engine_oracle.installed():
            row = outputs(mode)
        assert batch[0] == row[0] and batch[2] == row[2], (mode, query)
        assert row_engine_oracle.same_clock(batch[1], row[1]), (mode, query)
        assert sorted(batch[0], key=_null_low) == expected, (mode, query)
        assert batch[2].get("optimizer.or_restrictions_derived", 0) \
            == derived, (mode, query)


# ---------------------------------------------------------------------------
# Generated expressions vs an independent three-valued evaluator
# ---------------------------------------------------------------------------
#
# ``ExprCompiler`` turns an AST into Python source.  The judge below is a
# second, deliberately naive reading of the same SQL semantics — written
# here, sharing nothing with ``repro.sql.expressions`` but the AST node
# classes and the error type — evaluated over NULL-heavy rows of mixed
# int / float / str / date / bool values.  Values, value *types* and
# errors must agree: both sides raise the same exception type or neither
# does.

import calendar  # noqa: E402
import datetime  # noqa: E402

from repro.errors import TypeMismatchError  # noqa: E402
from repro.sql import ast  # noqa: E402
from repro.sql.expressions import (  # noqa: E402
    EvalContext,
    ExprCompiler,
    Scope,
)

WIDTH = 4
PY_OPS = {"=": lambda a, b: a == b, "<>": lambda a, b: a != b,
          "<": lambda a, b: a < b, "<=": lambda a, b: a <= b,
          ">": lambda a, b: a > b, ">=": lambda a, b: a >= b}


def ref_compare(op, a, b):
    if a is None or b is None:
        return None
    number = (int, float)
    for kind in (number, str, datetime.date):
        if isinstance(a, kind) and isinstance(b, kind):
            return PY_OPS[op](a, b)
    if (isinstance(a, str) and isinstance(b, number)) \
            or (isinstance(a, number) and isinstance(b, str)):
        try:
            return PY_OPS[op](float(a), float(b))
        except ValueError:
            pass
    raise TypeMismatchError("incomparable")


def ref_shift(day, amount, unit):
    if unit == "day":
        return day + datetime.timedelta(days=amount)
    months = day.year * 12 + day.month - 1 + amount * (
        12 if unit == "year" else 1)
    year, month = months // 12, months % 12 + 1
    return datetime.date(
        year, month, min(day.day, calendar.monthrange(year, month)[1]))


def ref_like(text, pattern):
    if not pattern:
        return not text
    if pattern[0] == "%":
        return any(ref_like(text[i:], pattern[1:])
                   for i in range(len(text) + 1))
    return bool(text) and pattern[0] in ("_", text[0]) \
        and ref_like(text[1:], pattern[1:])


def ref_and(a, b):
    if a is False or b is False:
        return False
    return None if a is None or b is None else True


def ref_not(a):
    return None if a is None else not a


def ref_arith(op, a, b):
    if a is None or b is None:
        return None
    is_date = lambda v: isinstance(v, datetime.date)  # noqa: E731
    is_interval = lambda v: isinstance(v, tuple)  # noqa: E731
    if op == "||":
        return str(a) + str(b)
    if op == "+" and is_date(a) and is_interval(b):
        return ref_shift(a, b[0], b[1])
    if op == "+" and is_interval(a) and is_date(b):
        return ref_shift(b, a[0], a[1])
    if op == "-" and is_date(a) and is_interval(b):
        return ref_shift(a, -b[0], b[1])
    if op == "-" and is_date(a) and is_date(b):
        return (a - b).days
    if op == "/":
        return None if b == 0 else a / b
    return {"+": lambda: a + b, "-": lambda: a - b, "*": lambda: a * b}[op]()


def ref_eval(node, row):
    """Both operands of every binary node are evaluated, left first."""
    if isinstance(node, ast.Literal):
        return node.value
    if isinstance(node, ast.Interval):
        return (node.amount, node.unit)
    if isinstance(node, ast.ColumnRef):
        return row[int(node.name[1:])]
    if isinstance(node, ast.Unary):
        value = ref_eval(node.operand, row)
        if node.op == "NOT":
            return ref_not(value)
        return None if value is None else -value
    if isinstance(node, ast.Binary):
        a, b = ref_eval(node.left, row), ref_eval(node.right, row)
        if node.op == "AND":
            return ref_and(a, b)
        if node.op == "OR":
            return ref_not(ref_and(ref_not_strict(a), ref_not_strict(b)))
        if node.op in PY_OPS:
            return ref_compare(node.op, a, b)
        return ref_arith(node.op, a, b)
    if isinstance(node, ast.IsNull):
        return (ref_eval(node.operand, row) is None) != node.negated
    if isinstance(node, ast.Between):
        value = ref_eval(node.operand, row)
        above = ref_compare(">=", value, ref_eval(node.low, row))
        below = ref_compare("<=", value, ref_eval(node.high, row))
        result = ref_and(above, below)
        return ref_not(result) if node.negated else result
    if isinstance(node, ast.InList):
        value = ref_eval(node.operand, row)
        if value is None:
            return None
        unknown = False
        for item in node.items:
            candidate = ref_eval(item, row)
            if candidate is None:
                unknown = True
            elif ref_compare("=", value, candidate) is True:
                return not node.negated
        return None if unknown else node.negated
    if isinstance(node, ast.Like):
        value = ref_eval(node.operand, row)
        pattern = ref_eval(node.pattern, row)
        if value is None or pattern is None:
            return None
        return ref_like(str(value), pattern) != node.negated
    if isinstance(node, ast.CaseWhen):
        for cond, then in node.whens:
            if ref_eval(cond, row) is True:
                return ref_eval(then, row)
        return (None if node.else_result is None
                else ref_eval(node.else_result, row))
    raise AssertionError(f"judge does not know {type(node).__name__}")


def ref_not_strict(a):
    """Kleene NOT over the truthiness sql_or sees: only ``True`` is
    true, only ``None`` is unknown, everything else counts as false."""
    return False if a is True else (None if a is None else True)


VALUES = st.one_of(
    st.none(), st.none(),
    st.sampled_from([0, 1, 2, -3, 7]),
    st.sampled_from([0.0, 0.5, 2.0, -1.25, 7.0]),
    st.sampled_from(["", "a", "ab", "2", "7.0", "x%"]),
    st.sampled_from([datetime.date(1994, 1, 31), datetime.date(1995, 3, 1),
                     datetime.date(1996, 2, 29)]),
    st.booleans())
LEAVES = st.one_of(
    st.builds(ast.Literal, VALUES),
    st.builds(lambda i: ast.ColumnRef(None, f"c{i}"),
              st.integers(0, WIDTH - 1)))
INTERVALS = st.builds(ast.Interval, st.integers(-14, 14),
                      st.sampled_from(["day", "month", "year"]))


def _grow(children):
    compare = st.sampled_from(sorted(PY_OPS))
    return st.one_of(
        st.builds(ast.Binary, compare, children, children),
        st.builds(ast.Binary, st.sampled_from(["+", "-", "*", "/", "||"]),
                  children, children),
        st.builds(ast.Binary, st.sampled_from(["+", "-"]), children,
                  INTERVALS),
        st.builds(ast.Binary, st.sampled_from(["AND", "OR"]),
                  children, children),
        st.builds(ast.Unary, st.sampled_from(["NOT", "-"]), children),
        st.builds(ast.IsNull, children, st.booleans()),
        st.builds(ast.Between, children, children, children, st.booleans()),
        st.builds(ast.InList, children,
                  st.lists(children, min_size=1, max_size=4), st.booleans()),
        st.builds(ast.Like, children,
                  st.builds(ast.Literal, st.sampled_from(
                      [None, "%", "a%", "_b", "%2%", "x\\%", "7.0"])),
                  st.booleans()),
        st.builds(ast.CaseWhen,
                  st.lists(st.tuples(children, children), min_size=1,
                           max_size=2),
                  st.one_of(st.none(), children)))


EXPRESSIONS = st.recursive(LEAVES, _grow, max_leaves=12)
ROWS = st.lists(st.tuples(*[VALUES] * WIDTH), min_size=1, max_size=6)


def outcome(thunk):
    try:
        value = thunk()
    except Exception as exc:  # noqa: BLE001 - parity over *any* error
        return ("raised", type(exc))
    return ("value", type(value), value)


@settings(max_examples=600, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(expr=EXPRESSIONS, rows=ROWS)
def test_generated_expressions_match_independent_judge(expr, rows):
    scope = Scope([("t", f"c{i}") for i in range(WIDTH)])
    fn = ExprCompiler(scope).compile(expr)
    for row in rows:
        got = outcome(lambda: fn(EvalContext(row=row)))
        want = outcome(lambda: ref_eval(expr, row))
        assert got == want, (expr, row)


def test_false_and_type_error_still_raises():
    """No short circuit: ``FALSE AND <type error>`` evaluates the right
    operand, so its TypeMismatchError is not swallowed — not when the
    left side is a folded constant, not when it is a column."""
    scope = Scope([("t", "flag"), ("t", "d")])
    bad = ast.Binary("<", ast.ColumnRef(None, "d"), ast.Literal(5))
    row = (False, datetime.date(1994, 1, 1))
    for left in (ast.Binary("=", ast.Literal(1), ast.Literal(0)),
                 ast.ColumnRef(None, "flag")):
        fn = ExprCompiler(scope).compile(ast.Binary("AND", left, bad))
        with pytest.raises(TypeMismatchError):
            fn(EvalContext(row=row))
        assert ref_and(False, None) is False   # the judge would say FALSE
    # ... while a NULL date compares to NULL and the AND is plain FALSE.
    assert fn(EvalContext(row=(False, None))) is False
