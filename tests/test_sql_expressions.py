"""Unit tests for expression semantics: 3VL, LIKE, dates, comparisons."""

import datetime

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import TypeMismatchError
from repro.sql import ast, expressions
from repro.sql.expressions import (
    EXPR_STATS,
    EvalContext,
    ExprCompiler,
    Scope,
    _IntervalValue,
    _shift_date,
    is_impure,
    is_true,
    like_match,
    reset_memos,
    slot_of,
    sql_and,
    sql_compare,
    sql_not,
    sql_or,
)


class TestThreeValuedLogic:
    @pytest.mark.parametrize("a,b,expected", [
        (True, True, True), (True, False, False), (False, False, False),
        (True, None, None), (None, None, None), (False, None, False),
    ])
    def test_and(self, a, b, expected):
        assert sql_and(a, b) is expected
        assert sql_and(b, a) is expected

    @pytest.mark.parametrize("a,b,expected", [
        (True, True, True), (True, False, True), (False, False, False),
        (True, None, True), (None, None, None), (False, None, None),
    ])
    def test_or(self, a, b, expected):
        assert sql_or(a, b) is expected
        assert sql_or(b, a) is expected

    def test_not(self):
        assert sql_not(True) is False
        assert sql_not(False) is True
        assert sql_not(None) is None

    def test_is_true(self):
        assert is_true(True)
        assert not is_true(False)
        assert not is_true(None)


class TestCompare:
    def test_null_propagates(self):
        assert sql_compare("=", None, 1) is None
        assert sql_compare("<", 1, None) is None

    def test_numbers_and_strings(self):
        assert sql_compare("<", 1, 2) is True
        assert sql_compare(">=", 2.5, 2.5) is True
        assert sql_compare("=", "abc", "abc") is True
        assert sql_compare("<>", "a", "b") is True

    def test_dates(self):
        a = datetime.date(1995, 1, 1)
        b = datetime.date(1996, 1, 1)
        assert sql_compare("<", a, b) is True

    def test_numeric_string_coercion(self):
        assert sql_compare("=", "2", 2) is True
        assert sql_compare("<", 1, "10") is True

    def test_incompatible_types_raise(self):
        with pytest.raises(TypeMismatchError):
            sql_compare("<", datetime.date(2000, 1, 1), 5)


class TestLike:
    @pytest.mark.parametrize("value,pattern,expected", [
        ("hello", "hello", True),
        ("hello", "h%", True),
        ("hello", "%llo", True),
        ("hello", "h_llo", True),
        ("hello", "H%", False),       # LIKE is case-sensitive
        ("hello", "%z%", False),
        ("a.b", "a.b", True),          # dots are literal, not regex
        ("axb", "a.b", False),
        ("", "%", True),
        ("special%requests", "%special%requests%", True),
    ])
    def test_patterns(self, value, pattern, expected):
        assert like_match(value, pattern) is expected

    def test_null(self):
        assert like_match(None, "%") is None
        assert like_match("x", None) is None


class TestDateArithmetic:
    def test_add_days(self):
        d = datetime.date(1998, 12, 1)
        assert _IntervalValue(90, "day").subtract_from(d) == \
            datetime.date(1998, 9, 2)

    def test_add_months_clamps_day(self):
        d = datetime.date(1999, 1, 31)
        assert _shift_date(d, 1, "month") == datetime.date(1999, 2, 28)

    def test_add_years(self):
        d = datetime.date(1994, 1, 1)
        assert _IntervalValue(1, "year").add_to(d) == \
            datetime.date(1995, 1, 1)

    def test_month_wraparound(self):
        d = datetime.date(1994, 11, 15)
        assert _shift_date(d, 3, "month") == datetime.date(1995, 2, 15)
        assert _shift_date(d, -12, "month") == datetime.date(1993, 11, 15)


class TestCompilationMemos:
    """The two process-wide memos (LIKE regexes by pattern text, code
    objects by generated source) are bounded LRUs."""

    def compiler(self, params=None):
        return ExprCompiler(Scope([("t", "a"), ("t", "b")]), params=params)

    def test_parameterised_like_does_not_leak_regexes(self, monkeypatch):
        monkeypatch.setattr(expressions._LIKE_CACHE, "capacity", 8)
        params = {"p": "x%"}
        fn = self.compiler(params).compile(
            ast.Like(ast.ColumnRef(None, "a"), ast.Param("p")))
        before = expressions._LIKE_CACHE.evictions
        for i in range(50):
            params["p"] = f"row-{i}%"     # rebound, read at evaluation
            assert fn(EvalContext(row=(f"row-{i}-tail", None))) is True
            assert fn(EvalContext(row=("other", None))) is False
        assert len(expressions._LIKE_CACHE) <= 8
        assert expressions._LIKE_CACHE.evictions - before >= 42
        assert "row-49%" in expressions._LIKE_CACHE      # most recent kept
        assert "row-0%" not in expressions._LIKE_CACHE   # oldest evicted

    def test_constant_like_pattern_binds_its_regex(self):
        fn = self.compiler().compile(
            ast.Like(ast.ColumnRef(None, "a"), ast.Literal("ab_d%"),
                     negated=True))
        expressions._LIKE_CACHE.clear()
        assert fn(EvalContext(row=("abcdef", None))) is False
        assert fn(EvalContext(row=("abdef", None))) is True
        assert fn(EvalContext(row=(None, None))) is None
        assert len(expressions._LIKE_CACHE) == 0   # no probe per row

    def test_code_memo_is_bounded_and_evicts(self, monkeypatch):
        monkeypatch.setattr(expressions._CODE_MEMO, "capacity", 4)
        before = expressions._CODE_MEMO.evictions
        for width in range(1, 12):
            # ``width`` chained additions: a new source shape each time.
            node = ast.ColumnRef(None, "a")
            for _ in range(width):
                node = ast.Binary("+", node, ast.ColumnRef(None, "b"))
            assert self.compiler().compile(node)(
                EvalContext(row=(1, 2))) == 1 + 2 * width
        assert len(expressions._CODE_MEMO) <= 4
        assert expressions._CODE_MEMO.evictions > before

    def test_same_shape_compiles_once(self):
        def predicate(low):
            return ast.Binary(">", ast.ColumnRef(None, "a"),
                              ast.Literal(low))

        first = self.compiler().compile(predicate(10))
        stats = dict(EXPR_STATS)
        second = self.compiler().compile(predicate(99))
        assert EXPR_STATS["exprs_generated"] == stats["exprs_generated"] + 1
        assert EXPR_STATS["code_memo_hits"] == stats["code_memo_hits"] + 1
        assert EXPR_STATS["code_memo_misses"] == stats["code_memo_misses"]
        # One code object, two functions with their own constants.
        assert first.__code__ is second.__code__
        row = EvalContext(row=(50, None))
        assert first(row) is True and second(row) is False
        # Parameter names are bound too: the auto-parameterizer numbers
        # its markers, and @__lit0 / @__lit1 must not be two sources.
        params = {"__lit0": 1, "__lit1": 2}
        by_name = [self.compiler(params).compile(ast.Param(name))
                   for name in params]
        assert by_name[0].__code__ is by_name[1].__code__
        assert [fn(row) for fn in by_name] == [1, 2]

    def test_sys_executor_shows_generation_and_memo_counters(self):
        from repro.engine.database import DatabaseEngine
        from repro.engine.session import EngineSession
        from repro.sim.meter import Meter

        engine = DatabaseEngine(meter=Meter())
        session = EngineSession(session_id=1)
        engine.execute("CREATE TABLE t (a INT, b INT)", session)

        def view():
            return dict(engine.execute(
                "SELECT metric, value FROM sys_executor",
                session).fetch_all())

        before = view()
        engine.execute("SELECT a + b FROM t WHERE a > 1 AND b IS NOT NULL",
                       session).fetch_all()
        after = view()
        for name in ("exprs_generated", "code_memo_hits",
                     "code_memo_misses", "exprs_compiled"):
            assert name in after
        assert after["exprs_generated"] > before["exprs_generated"]
        assert (after["code_memo_hits"] + after["code_memo_misses"]
                == after["exprs_generated"])

    def test_sys_executor_counts_hoisted_parameter_subtrees(self):
        from repro.engine.database import DatabaseEngine
        from repro.engine.session import EngineSession
        from repro.sim.meter import Meter

        engine = DatabaseEngine(meter=Meter())
        session = EngineSession(session_id=1)
        engine.execute("CREATE TABLE t (a INT, d DATE)", session)

        def hoisted():
            return dict(engine.execute(
                "SELECT metric, value FROM sys_executor",
                session).fetch_all())["params_hoisted"]

        before = hoisted()
        engine.execute("SELECT a FROM t WHERE d < date '1994-01-01' "
                       "+ interval '1' year", session).fetch_all()
        assert hoisted() == before + 1


class TestGeneratedFunctions:
    def compile(self, node, **kwargs):
        scope = Scope([("t", "a"), ("t", "b"), ("t", "c")])
        return ExprCompiler(scope, **kwargs).compile(node)

    def test_bare_column_keeps_its_slot(self):
        fn = self.compile(ast.ColumnRef(None, "b"))
        assert slot_of(fn) == 1 and not is_impure(fn)
        assert fn(EvalContext(row=(1, 2, 3))) == 2

    def test_replacement_slot_wins_over_the_node(self):
        node = ast.Binary("+", ast.ColumnRef(None, "a"), ast.Literal(1))
        fn = self.compile(node, replacements={id(node): 2})
        assert slot_of(fn) == 2

    def test_constant_fold_that_raises_falls_back_to_runtime(self):
        node = ast.Binary("<", ast.Literal(datetime.date(1994, 1, 1)),
                          ast.Literal(5))
        fn = self.compile(node)          # planning does not raise ...
        with pytest.raises(TypeMismatchError):
            fn(EvalContext(row=(0, 0, 0)))   # ... execution does

    def test_params_are_read_at_evaluation_time(self):
        params = {"lo": 1}
        fn = self.compile(ast.Binary(">", ast.ColumnRef(None, "a"),
                                     ast.Param("lo")), params=params)
        assert fn(EvalContext(row=(5, 0, 0))) is True
        params["lo"] = 9
        assert fn(EvalContext(row=(5, 0, 0))) is False

    def test_case_and_in_list_evaluate_lazily(self):
        """A branch not taken / an item after the match is never
        evaluated, so its type error never surfaces."""
        bad = ast.Binary("<", ast.ColumnRef(None, "c"), ast.Literal(5))
        case = ast.CaseWhen([(ast.Binary("=", ast.ColumnRef(None, "a"),
                                         ast.Literal(1)),
                              ast.Literal("one"))], else_result=bad)
        in_list = ast.InList(ast.ColumnRef(None, "a"),
                             [ast.ColumnRef(None, "b"), bad])
        row = EvalContext(row=(1, 1, datetime.date(1994, 1, 1)))
        assert self.compile(case)(row) == "one"
        assert self.compile(in_list)(row) is True
        miss = EvalContext(row=(2, 1, datetime.date(1994, 1, 1)))
        for node in (case, in_list):
            with pytest.raises(TypeMismatchError):
                self.compile(node)(miss)

    def test_extract_rejects_non_dates(self):
        fn = self.compile(ast.Extract("year", ast.ColumnRef(None, "a")))
        assert fn(EvalContext(row=(datetime.date(1994, 5, 6), 0, 0))) == 1994
        assert fn(EvalContext(row=(None, 0, 0))) is None
        with pytest.raises(TypeMismatchError):
            fn(EvalContext(row=(1994, 0, 0)))


class TestPerExecutionConstants:
    """A subtree of parameters and constants is evaluated once per
    execution, the first time the row loop reaches it."""

    SCOPE = Scope([("t", "d"), ("t", "q")])

    def compile(self, node, params, memos):
        return ExprCompiler(self.SCOPE, params=params,
                            memo_log=memos).compile(node)

    @staticmethod
    def counted_add(monkeypatch) -> list:
        calls = []
        add = expressions._GEN_GLOBALS["_add"]

        def counting(a, b):
            calls.append((a, b))
            return add(a, b)

        monkeypatch.setitem(expressions._GEN_GLOBALS, "_add", counting)
        return calls

    def test_evaluated_once_per_execution_and_again_after_reset(
            self, monkeypatch):
        calls = self.counted_add(monkeypatch)
        params, memos = {"d": datetime.date(1994, 1, 1)}, []
        node = ast.Binary("<", ast.ColumnRef(None, "d"),
                          ast.Binary("+", ast.Param("d"),
                                     ast.Interval(1, "year")))
        fn = self.compile(node, params, memos)
        assert len(memos) == 1
        days = [datetime.date(1994, 6, 1), datetime.date(1995, 6, 1)]
        assert [fn(EvalContext(row=(day, 0))) for day in days * 3] \
            == [True, False] * 3
        assert len(calls) == 1
        params["d"] = datetime.date(1995, 1, 1)     # a rebind ...
        reset_memos(memos)                          # ... resets the memo
        assert [fn(EvalContext(row=(day, 0))) for day in days] \
            == [True, True]
        assert len(calls) == 2

    def test_without_a_memo_log_nothing_is_hoisted(self, monkeypatch):
        calls = self.counted_add(monkeypatch)
        params = {"d": datetime.date(1994, 1, 1)}
        fn = ExprCompiler(self.SCOPE, params=params).compile(
            ast.Binary("+", ast.Param("d"), ast.Interval(1, "day")))
        for _ in range(3):
            assert fn(EvalContext(row=(None, 0))) \
                == datetime.date(1994, 1, 2)
        assert len(calls) == 3

    def test_column_and_lone_parameter_are_not_hoisted(self):
        memos = []
        params = {"p": 1}
        for node in (ast.Param("p"),
                     ast.Binary("+", ast.ColumnRef(None, "q"),
                                ast.Param("p")),
                     ast.Binary("+", ast.Literal(1), ast.Literal(2))):
            self.compile(node, params, memos)
        assert memos == []

    def test_a_raising_subtree_memoizes_nothing(self):
        params, memos = {"p": datetime.date(1994, 1, 1)}, []
        node = ast.Binary("=", ast.ColumnRef(None, "q"),
                          ast.Binary("<", ast.Param("p"), ast.Literal(5)))
        fn = self.compile(node, params, memos)
        for _ in range(2):   # raises on every row, not just the first
            with pytest.raises(TypeMismatchError):
                fn(EvalContext(row=(None, 1)))
        params["p"] = 3      # rebound without a reset: nothing was kept
        assert fn(EvalContext(row=(None, True))) is True

    def test_hoisted_subtree_in_a_branch_stays_lazy(self):
        params, memos = {"p": datetime.date(1994, 1, 1)}, []
        bad = ast.Binary("<", ast.Param("p"), ast.Literal(5))
        case = ast.CaseWhen([(ast.Binary("=", ast.ColumnRef(None, "q"),
                                         ast.Literal(1)),
                              ast.Literal("one"))], else_result=bad)
        fn = self.compile(case, params, memos)
        assert fn(EvalContext(row=(None, 1))) == "one"
        with pytest.raises(TypeMismatchError):
            fn(EvalContext(row=(None, 2)))


#: Values sql_compare meets: numbers (bool among them), NULL, text (some
#: of it numeric) and dates.
COMPARABLE = st.one_of(
    st.integers(-3, 3), st.floats(allow_nan=False, width=16),
    st.booleans(), st.none(),
    st.sampled_from(["", "a", "b", "2", "1.5", "-3"]),
    st.dates(datetime.date(1994, 1, 1), datetime.date(1994, 1, 4)))


def _outcome(thunk):
    try:
        value = thunk()
    except Exception as exc:  # noqa: BLE001 - parity over any error
        return ("raised", type(exc))
    return ("value", type(value), value)


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(a=COMPARABLE, b=COMPARABLE)
def test_generated_comparison_agrees_with_sql_compare(a, b):
    """Every shape the compiler specializes a comparison for — two
    columns, a column against a literal either way round, a column
    against a parameter — returns what sql_compare returns, or raises
    the same exception type."""
    scope = Scope([("t", "a"), ("t", "b")])
    col_a, col_b = ast.ColumnRef(None, "a"), ast.ColumnRef(None, "b")
    params = {"b": b}
    for op in ("=", "<>", "<", "<=", ">", ">="):
        want = _outcome(lambda: sql_compare(op, a, b))
        for left, right in ((col_a, col_b), (col_a, ast.Literal(b)),
                            (ast.Literal(a), col_b),
                            (col_a, ast.Param("b"))):
            fn = ExprCompiler(scope, params=params).compile(
                ast.Binary(op, left, right))
            got = _outcome(lambda: fn(EvalContext(row=(a, b))))
            assert got == want, (op, a, b, left, right)
