"""Planner tests: access-path selection, join strategy, plan shapes."""

import pytest

from repro.engine.database import DatabaseEngine
from repro.engine.session import EngineSession
from repro.errors import PlanningError
from repro.sim.costs import CostModel
from repro.sim.meter import Meter
from repro.sql.executor import (
    EmptyScan,
    Filter,
    HashAggregate,
    HashJoin,
    IndexSeek,
    Limit,
    NestedLoopJoin,
    Project,
    SeqScan,
    Sort,
    is_streamable_plan,
)
from repro.sql.parser import parse_statement
from repro.sql.planner import Planner


@pytest.fixture
def world():
    engine = DatabaseEngine(meter=Meter())
    session = EngineSession(session_id=1)
    engine.execute("CREATE TABLE t (a INT, b INT, c VARCHAR(10), "
                   "PRIMARY KEY (a))", session)
    engine.execute("CREATE TABLE u (x INT, y INT, PRIMARY KEY (x))",
                   session)
    engine.execute("CREATE INDEX ix_t_b ON t (b)", session)
    planner = Planner(engine.table_provider(session), engine.meter,
                      engine.catalog)
    return engine, session, planner


def plan_of(planner, sql):
    return planner.plan_select(parse_statement(sql))


def operators(root):
    found = []
    stack = [root]
    while stack:
        op = stack.pop()
        found.append(op)
        stack.extend(op.children())
    return found


def has_op(root, kind) -> bool:
    return any(isinstance(op, kind) for op in operators(root))


class TestAccessPaths:
    def test_pk_equality_uses_index(self, world):
        _e, _s, planner = world
        plan = plan_of(planner, "SELECT * FROM t WHERE a = 5")
        assert has_op(plan.root, IndexSeek)
        assert not has_op(plan.root, SeqScan)

    def test_secondary_index_used(self, world):
        _e, _s, planner = world
        plan = plan_of(planner, "SELECT * FROM t WHERE b = 5")
        seek = next(op for op in operators(plan.root)
                    if isinstance(op, IndexSeek))
        assert seek.index_name == "ix_t_b"

    def test_range_on_pk(self, world):
        _e, _s, planner = world
        plan = plan_of(planner,
                       "SELECT * FROM t WHERE a >= 2 AND a < 9")
        seek = next(op for op in operators(plan.root)
                    if isinstance(op, IndexSeek))
        assert seek.lo_fn is not None
        assert seek.hi_fn is not None
        assert seek.lo_inclusive and not seek.hi_inclusive

    def test_no_index_falls_back_to_scan(self, world):
        _e, _s, planner = world
        plan = plan_of(planner, "SELECT * FROM t WHERE c = 'x'")
        assert has_op(plan.root, SeqScan)
        assert has_op(plan.root, Filter)

    def test_residual_kept_with_index(self, world):
        _e, _s, planner = world
        plan = plan_of(planner,
                       "SELECT * FROM t WHERE a = 5 AND c = 'x'")
        assert has_op(plan.root, IndexSeek)
        assert has_op(plan.root, Filter)


class TestPricing:
    """Operators over a FROM item are priced by the tables its bindings
    resolved to, whatever the aliases are called.  ``phoenix_*`` tables
    are the un-amplified ones."""

    @pytest.fixture
    def planner(self):
        engine = DatabaseEngine(meter=Meter(CostModel(
            work_amplification=50.0)))
        session = EngineSession(session_id=1)
        engine.execute("CREATE TABLE t (k INT)", session)
        engine.execute("CREATE TABLE phoenix_a (k INT)", session)
        return Planner(engine.table_provider(session), engine.meter,
                       engine.catalog)

    @pytest.mark.parametrize("sql,factor", [
        ("SELECT k FROM t ORDER BY k", 50.0),
        ("SELECT k FROM t phoenix_a ORDER BY k", 50.0),
        ("SELECT k FROM phoenix_a t ORDER BY k", 1.0),
        ("SELECT k FROM (SELECT k FROM phoenix_a) t ORDER BY k", 1.0),
        ("SELECT x.k FROM phoenix_a t, t x WHERE t.k = x.k ORDER BY x.k",
         50.0),
    ])
    def test_sort_is_priced_by_the_resolved_table(self, planner, sql,
                                                   factor):
        root = plan_of(planner, sql).root
        [sort] = [op for op in operators(root) if isinstance(op, Sort)]
        assert sort.cost_factor == factor
        for join in (op for op in operators(root)
                     if isinstance(op, HashJoin)):
            assert join.cost_factor == factor


class TestJoins:
    def test_equi_becomes_hash_join(self, world):
        _e, _s, planner = world
        plan = plan_of(planner,
                       "SELECT * FROM t, u WHERE a = x")
        assert has_op(plan.root, HashJoin)

    def test_non_equi_uses_nested_loop(self, world):
        _e, _s, planner = world
        plan = plan_of(planner,
                       "SELECT * FROM t, u WHERE a < x")
        assert has_op(plan.root, NestedLoopJoin)

    def test_left_join_kind(self, world):
        _e, _s, planner = world
        plan = plan_of(planner,
                       "SELECT * FROM t LEFT JOIN u ON a = x")
        join = next(op for op in operators(plan.root)
                    if isinstance(op, HashJoin))
        assert join.kind == "left"

    def test_pushdown_below_join(self, world):
        _e, _s, planner = world
        plan = plan_of(planner,
                       "SELECT * FROM t, u WHERE a = x AND b = 7")
        seek = [op for op in operators(plan.root)
                if isinstance(op, IndexSeek)]
        assert seek, "single-table predicate should reach the index"

    def test_subquery_in_on_runs_above_an_inner_join(self, world):
        _e, _s, planner = world
        sql = ("SELECT * FROM t {kind} u ON a = x "
               "AND y > (SELECT min(b) FROM t)")
        plan = plan_of(planner, sql.format(kind="JOIN"))
        above = next(op for op in operators(plan.root)
                     if isinstance(op, Filter))
        assert isinstance(above.child, HashJoin)
        assert above.child.residual is None
        with pytest.raises(PlanningError, match="subquery in the ON "
                           "condition of a LEFT JOIN is not supported"):
            plan_of(planner, sql.format(kind="LEFT JOIN"))


class TestShapes:
    def test_aggregate_and_sort(self, world):
        _e, _s, planner = world
        plan = plan_of(planner,
                       "SELECT b, count(*) AS n FROM t GROUP BY b "
                       "ORDER BY n DESC")
        assert has_op(plan.root, HashAggregate)
        assert has_op(plan.root, Sort)

    def test_top_limit(self, world):
        _e, _s, planner = world
        plan = plan_of(planner, "SELECT TOP 3 * FROM t")
        assert isinstance(plan.root, Limit)

    def test_contradiction_detected(self, world):
        _e, _s, planner = world
        plan = plan_of(planner, "SELECT * FROM t WHERE 0 = 1")
        assert has_op(plan.root, EmptyScan)
        assert not has_op(plan.root, SeqScan)

    def test_contradiction_on_wrapped_query(self, world):
        _e, _s, planner = world
        plan = plan_of(planner,
                       "SELECT * FROM (SELECT a, b FROM t) q WHERE 0 = 1")
        assert has_op(plan.root, EmptyScan)

    def test_streamable_detection(self, world):
        _e, _s, planner = world
        bare = plan_of(planner, "SELECT * FROM t")
        assert is_streamable_plan(bare.root)
        filtered = plan_of(planner, "SELECT * FROM t WHERE a = 1")
        assert not is_streamable_plan(filtered.root)
        limited = plan_of(planner, "SELECT TOP 5 * FROM t")
        assert not is_streamable_plan(limited.root)

    def test_output_schema_types(self, world):
        _e, _s, planner = world
        plan = plan_of(planner,
                       "SELECT a, c, count(*) AS n, sum(b) AS s "
                       "FROM t GROUP BY a, c")
        types = [col.sql_type.value for col in plan.output_columns]
        assert types == ["INTEGER", "VARCHAR", "INTEGER", "FLOAT"]
        names = [col.name for col in plan.output_columns]
        assert names == ["a", "c", "n", "s"]
