"""Index-aware planning: range scans, index-only scans, sort elimination,
and the WAL asynchronous-commit window those query savings pair with.

The planner rules under test (see planner.py):

* equality + range conjuncts on a key prefix become ``IndexRangeScan``
  (full-width pure equality stays ``IndexSeek``/``PointLookup``);
* a query that touches only indexed columns runs *index-only* — rows are
  synthesized from B-tree keys and the heap is never read;
* ``ORDER BY`` matching the scan's key order (after any equality-pinned
  prefix) drops the ``Sort`` operator outright.

Asynchronous commit lives in ``wal/log.py``: a commit force arriving
inside the open window is acked without flushing (bounded durability
loss, documented in ``TransactionManager.commit``); the window is
virtual time, so everything here is deterministic.
"""

import pytest

from repro.engine.database import DatabaseEngine
from repro.engine.session import EngineSession
from repro.sim.costs import CostModel
from repro.sim.meter import Meter
from tests.conftest import verbatim


@pytest.fixture
def world():
    engine = verbatim(DatabaseEngine(meter=Meter()))
    session = EngineSession(session_id=1)

    def run(sql):
        result = engine.execute(sql, session)
        if result.kind == "rows":
            return result.fetch_all()
        if result.kind == "rowcount":
            return result.rowcount
        return None

    run("CREATE TABLE ev (w INT NOT NULL, d INT NOT NULL, "
        "id INT NOT NULL, v INT, note VARCHAR(12), "
        "PRIMARY KEY (w, d, id))")
    # Shuffled insert order so heap order differs from key order.
    rows = [(w, d, i) for w in (2, 1) for d in (2, 1) for i in (3, 1, 2)]
    run("INSERT INTO ev VALUES " + ", ".join(
        f"({w}, {d}, {i}, {w * 100 + d * 10 + i}, 'n{i}')"
        for w, d, i in rows))
    return engine, run


def plan_of(run, sql):
    return [line for (line,) in run("EXPLAIN " + sql)]


# ---------------------------------------------------------------------------
# Access-path selection
# ---------------------------------------------------------------------------


class TestAccessPaths:
    def test_range_on_key_suffix_is_index_range_scan(self, world):
        _engine, run = world
        plan = plan_of(run, "SELECT v FROM ev WHERE w = 1 AND d = 2 "
                            "AND id >= 2")
        assert any("IndexRangeScan" in line and "prefix=2" in line
                   and "lo>=" in line for line in plan)

    def test_partial_equality_prefix_is_range_scan(self, world):
        _engine, run = world
        plan = plan_of(run, "SELECT v FROM ev WHERE w = 1 AND d = 2")
        assert any("IndexRangeScan" in line for line in plan)

    def test_full_width_equality_stays_point_lookup(self, world):
        _engine, run = world
        plan = plan_of(run, "SELECT v FROM ev WHERE w = 1 AND d = 2 "
                            "AND id = 3")
        assert plan[0].startswith("PointLookup")

    def test_range_scan_rows_match_seq_scan(self, world, exec_mode):
        _engine, run = world
        indexed = run("SELECT w, d, id, v FROM ev "
                      "WHERE w = 1 AND d = 2 AND id >= 2")
        # Same predicate forced through a full scan (OR defeats the
        # index-sargable conjunct analysis).
        scanned = run("SELECT w, d, id, v FROM ev "
                      "WHERE (w = 1 OR w = -1) AND d = 2 AND id >= 2")
        assert sorted(indexed) == sorted(scanned)
        assert len(indexed) == 2

    def test_exclusive_bounds(self, world, exec_mode):
        _engine, run = world
        assert run("SELECT id FROM ev WHERE w = 1 AND d = 1 "
                   "AND id > 1 AND id < 3") == [(2,)]


# ---------------------------------------------------------------------------
# Index-only scans
# ---------------------------------------------------------------------------


class TestIndexOnly:
    def test_covering_projection_marks_index_only(self, world):
        _engine, run = world
        plan = plan_of(run, "SELECT id, d FROM ev WHERE w = 1 AND d = 2")
        assert any("index-only" in line for line in plan)

    def test_non_covering_reads_heap(self, world):
        _engine, run = world
        plan = plan_of(run, "SELECT v FROM ev WHERE w = 1 AND d = 2")
        assert not any("index-only" in line for line in plan)

    def test_index_only_rows_and_counter(self, world, exec_mode):
        engine, run = world
        before = engine.meter.executor_stats.get("index_only_scans", 0)
        assert run("SELECT id FROM ev WHERE w = 2 AND d = 1 "
                   "ORDER BY id") == [(1,), (2,), (3,)]
        after = engine.meter.executor_stats.get("index_only_scans", 0)
        assert after == before + 1

    def test_covering_aggregate_is_index_only(self, world, exec_mode):
        _engine, run = world
        plan = plan_of(run, "SELECT count(*) FROM ev WHERE w = 1")
        assert any("index-only" in line for line in plan)
        assert run("SELECT count(*) FROM ev WHERE w = 1") == [(6,)]


# ---------------------------------------------------------------------------
# Sort elimination
# ---------------------------------------------------------------------------


class TestSortElimination:
    def test_order_by_key_suffix_drops_sort(self, world, exec_mode):
        engine, run = world
        sql = "SELECT v FROM ev WHERE w = 1 AND d = 2 ORDER BY id"
        plan = plan_of(run, sql)
        assert not any("Sort" in line for line in plan)
        # The stat is execution-time (EXPLAIN alone must not tick it).
        before = engine.meter.executor_stats.get("sort_eliminations", 0)
        assert run(sql) == [(121,), (122,), (123,)]
        assert engine.meter.executor_stats["sort_eliminations"] == before + 1

    def test_sort_elimination_counts_per_execution_from_plan_cache(self):
        # Unlike the shared fixture, this engine caches plans — the
        # counter must tick on cache hits too, in step with the
        # executor's other per-execution scan counters.
        engine = DatabaseEngine(meter=Meter())
        session = EngineSession(session_id=1)
        engine.execute("CREATE TABLE pc (a INT NOT NULL, b INT NOT NULL, "
                       "PRIMARY KEY (a, b))", session)
        engine.execute("INSERT INTO pc VALUES (1, 2), (1, 1)", session)
        sql = "SELECT b FROM pc WHERE a = 1 ORDER BY b"
        for expected in (1, 2, 3):
            rows = engine.execute(sql, session).fetch_all()
            assert rows == [(1,), (2,)]
            assert engine.meter.executor_stats["sort_eliminations"] \
                == expected
        assert engine.meter.counters.get("plan_cache_hits", 0) >= 2

    def test_equality_pinned_columns_may_appear_anywhere(self, world):
        _engine, run = world
        # d and w are single-valued under the equality prefix, so
        # ORDER BY d, id, w is still satisfied by the scan.
        plan = plan_of(run, "SELECT v FROM ev WHERE w = 1 AND d = 2 "
                            "ORDER BY d, id, w")
        assert not any("Sort" in line for line in plan)

    def test_descending_keeps_sort(self, world):
        _engine, run = world
        plan = plan_of(run, "SELECT v FROM ev WHERE w = 1 AND d = 2 "
                            "ORDER BY id DESC")
        assert any("Sort" in line for line in plan)

    def test_order_mismatch_keeps_sort(self, world):
        _engine, run = world
        plan = plan_of(run, "SELECT v FROM ev WHERE w = 1 ORDER BY id")
        assert any("Sort" in line for line in plan)

    def test_eliminated_sort_rows_are_ordered(self, world, exec_mode):
        _engine, run = world
        assert run("SELECT id, v FROM ev WHERE w = 2 AND d = 2 "
                   "ORDER BY id") == [(1, 221), (2, 222), (3, 223)]

    def test_alias_shadowing_keeps_sort(self, world):
        _engine, run = world
        # ``id`` in ORDER BY resolves to the output alias (v AS id), so
        # the scan's key order does NOT satisfy it.
        sql = ("SELECT v AS id FROM ev WHERE w = 1 AND d = 2 "
               "ORDER BY id")
        plan = plan_of(run, sql)
        assert any("Sort" in line for line in plan)
        assert run(sql) == [(121,), (122,), (123,)]


# ---------------------------------------------------------------------------
# NULL in indexed columns (non-unique indexes store a NULL sentinel)
# ---------------------------------------------------------------------------


class TestNullIndexKeys:
    @pytest.fixture
    def nworld(self):
        engine = verbatim(DatabaseEngine(meter=Meter()))
        session = EngineSession(session_id=1)

        def run(sql):
            result = engine.execute(sql, session)
            if result.kind == "rows":
                return result.fetch_all()
            if result.kind == "rowcount":
                return result.rowcount
            return None

        run("CREATE TABLE nx (id INT NOT NULL, grp INT, "
            "PRIMARY KEY (id))")
        run("INSERT INTO nx VALUES (1, 5), (2, NULL), (3, 5)")
        return engine, run

    def test_create_index_over_null_rows(self, nworld, exec_mode):
        _engine, run = nworld
        run("CREATE INDEX ix_nx ON nx (grp)")  # used to TypeError
        assert sorted(run("SELECT id FROM nx WHERE grp = 5")) \
            == [(1,), (3,)]

    def test_insert_null_into_indexed_column(self, nworld, exec_mode):
        _engine, run = nworld
        run("CREATE INDEX ix_nx ON nx (grp)")
        assert run("INSERT INTO nx VALUES (4, NULL)") == 1
        assert sorted(run("SELECT id FROM nx WHERE grp IS NULL")) \
            == [(2,), (4,)]

    def test_upper_bounded_range_excludes_null(self, nworld, exec_mode):
        # `grp <= 10` is consumed by the range scan (no residual
        # filter), so the scan itself must not leak the NULL-sentinel
        # keys that sort below every value.
        engine, run = nworld
        run("CREATE INDEX ix_nx ON nx (grp)")
        assert sorted(run("SELECT id FROM nx WHERE grp <= 10")) \
            == [(1,), (3,)]
        assert run("SELECT id FROM nx WHERE grp >= 0 AND grp <= 10 "
                   "ORDER BY grp") == [(1,), (3,)]
        # Same property asserted on the operator directly, independent
        # of whether the planner picks the index for a bare upper bound.
        from repro.sql.executor import IndexSeek, run_plan

        table = engine._tables["nx"]
        hi_only = IndexSeek(table, "ix_nx", prefix_fns=[],
                            hi_fn=lambda ctx: 10)
        assert sorted(row[0] for row in run_plan(hi_only, engine.meter)) \
            == [1, 3]

    def test_seek_binding_null_matches_nothing(self, nworld):
        # SQL three-valued logic: a seek whose prefix or bound value
        # evaluates to NULL short-circuits to zero matches.
        from repro.sql.executor import IndexSeek, run_plan

        engine, run = nworld
        run("CREATE INDEX ix_nx ON nx (grp)")
        table = engine._tables["nx"]
        eq_null = IndexSeek(table, "ix_nx", prefix_fns=[lambda ctx: None])
        assert run_plan(eq_null, engine.meter) == []
        lt_null = IndexSeek(table, "ix_nx", prefix_fns=[],
                            hi_fn=lambda ctx: None)
        assert run_plan(lt_null, engine.meter) == []

    def test_unique_index_still_rejects_null(self, nworld):
        from repro.errors import ConstraintError

        _engine, run = nworld
        run("CREATE TABLE ux (id INT NOT NULL, tag INT, "
            "PRIMARY KEY (id))")
        run("CREATE UNIQUE INDEX ux_tag ON ux (tag)")
        with pytest.raises(ConstraintError):
            run("INSERT INTO ux VALUES (1, NULL)")


# ---------------------------------------------------------------------------
# IN-list multi-point seeks
# ---------------------------------------------------------------------------


@pytest.fixture
def cost_world(world):
    """``world`` plus two secondary indexes, ANALYZEd.  Every IN-seek
    must return what a scan + Filter reading of the same predicate
    returns; the expected rows are spelled out."""
    engine, run = world
    run("CREATE INDEX ev_note ON ev (note)")
    run("CREATE INDEX ev_dv ON ev (d, v)")
    run("ANALYZE")
    return engine, run


def seek_line(plan):
    """The plan's index access line ('' when it scans the heap)."""
    return next((line.strip() for line in plan if "index=" in line), "")


class TestInListSeek:
    def test_full_width_pk_in_list_is_an_index_seek(self, cost_world,
                                                    exec_mode):
        _engine, run = cost_world
        sql = ("SELECT w, d, id, v FROM ev "
               "WHERE w = 1 AND d = 2 AND id IN (3, 1)")
        line = seek_line(plan_of(run, sql))
        assert line.startswith("IndexSeek(ev index=__pk_ev prefix=2 in=2")
        assert "est_rows=2 " in line
        # Key order, not list order — and no Filter left above the seek.
        assert run(sql) == [(1, 2, 1, 121), (1, 2, 3, 123)]
        assert not any("Filter" in ln for ln in plan_of(run, sql))

    def test_prefix_plus_in_list_walks_ranges_in_key_order(self, cost_world,
                                                           exec_mode):
        _engine, run = cost_world
        sql = "SELECT d, id FROM ev WHERE w = 2 AND d IN (2, 1)"
        line = seek_line(plan_of(run, sql))
        assert line.startswith(
            "IndexRangeScan(ev index=__pk_ev prefix=1 in=2")
        assert "est_rows=6 " in line  # 2 keys x 12 rows / (2 w x 2 d)
        assert run(sql) == [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3)]

    def test_in_list_on_leading_column_needs_no_prefix(self, cost_world):
        _engine, run = cost_world
        sql = "SELECT count(*) FROM ev WHERE w IN (2, 7)"
        assert "prefix=0 in=2" in seek_line(plan_of(run, sql))
        assert run(sql) == [(6,)]

    def test_secondary_indexes(self, cost_world, exec_mode):
        _engine, run = cost_world
        by_note = "SELECT w, d, id FROM ev WHERE note IN ('n3', 'n1')"
        assert "index=ev_note prefix=0 in=2" in seek_line(
            plan_of(run, by_note))
        assert sorted(run(by_note)) == [
            (w, d, i) for w in (1, 2) for d in (1, 2) for i in (1, 3)]
        by_dv = "SELECT id FROM ev WHERE d = 2 AND v IN (223, 121, 5)"
        assert "index=ev_dv prefix=1 in=3" in seek_line(plan_of(run, by_dv))
        assert run(by_dv) == [(1,), (3,)]  # v order: 121, 223

    #: predicate -> the ids (of w = 1, d = 2) it keeps
    LEFT_ALONE = {
        "id NOT IN (1, 3)": (2,),                # negated
        "id IN (v - 120, 3)": (1, 2, 3),         # column-valued item
        "id IN (SELECT id FROM ev WHERE v = 113)": (3,),     # subquery
        "id + 0 IN (1, 3)": (1, 3),              # operand not a column
    }

    @pytest.mark.parametrize("predicate", LEFT_ALONE)
    def test_left_alone(self, cost_world, predicate):
        _engine, run = cost_world
        ids = self.LEFT_ALONE[predicate]
        sql = f"SELECT id, v FROM ev WHERE w = 1 AND d = 2 AND {predicate}"
        plan = plan_of(run, sql)
        assert "in=" not in seek_line(plan)
        assert any("Filter" in line for line in plan)
        assert run(sql) == [(i, 120 + i) for i in ids]

    @pytest.mark.parametrize("items,expected", [
        ("3, 1, 3, 1", [(1,), (3,)]),            # duplicates: no extra rows
        ("NULL, 2", [(2,)]),                     # NULL items match nothing
        ("NULL", []),                            # empty after NULLs
        ("NULL, NULL", []),
        ("9, 0", []),
        ("1 + 1, 4 - 1", [(2,), (3,)]),          # constant arithmetic
    ])
    def test_list_contents(self, cost_world, exec_mode, items, expected):
        _engine, run = cost_world
        sql = f"SELECT id FROM ev WHERE w = 1 AND d = 1 AND id IN ({items})"
        assert "in=" in seek_line(plan_of(run, sql))
        assert run(sql) == expected

    def test_null_prefix_value_matches_nothing(self, cost_world, exec_mode):
        _engine, run = cost_world
        sql = "SELECT id FROM ev WHERE w = NULL AND d IN (1, 2)"
        assert "prefix=1 in=2" in seek_line(plan_of(run, sql))
        assert run(sql) == []

    #: list -> the ids (of w = 1, d = 1) the Filter keeps
    MIXED_LISTS = {
        "1, 2.0": (1, 2),    # float item against an INT key
        "'3', 1": (1, 3),    # numeric string: '=' coerces it
        "2.5, 3": (3,),
        "1.0": (1,),
    }

    @pytest.mark.parametrize("items", MIXED_LISTS)
    def test_mixed_type_lists_keep_filter_semantics(self, cost_world,
                                                    exec_mode, items):
        """Items that are not of the key column's stored type compare by
        coercion, which a key probe cannot reproduce: the list stays a
        residual predicate and the rows are the Filter's."""
        _engine, run = cost_world
        sql = f"SELECT id FROM ev WHERE w = 1 AND d = 1 AND id IN ({items})"
        plan = plan_of(run, sql)
        assert "in=" not in seek_line(plan)
        assert any("Filter" in line for line in plan)
        assert run(sql) == [(i,) for i in self.MIXED_LISTS[items]]

    def test_uncomparable_item_raises_like_the_filter(self, cost_world):
        from repro.errors import TypeMismatchError

        _engine, run = cost_world
        sql = "SELECT id FROM ev WHERE w = 1 AND d = 1 AND id IN (1, 'x')"
        with pytest.raises(TypeMismatchError):
            run(sql)

    def test_range_on_the_list_column_stays_residual(self, cost_world):
        _engine, run = cost_world
        sql = ("SELECT id FROM ev WHERE w = 1 AND d = 1 "
               "AND id IN (1, 2, 3) AND id > 1")
        plan = plan_of(run, sql)
        assert "prefix=2 in=3" in seek_line(plan)
        assert "lo" not in seek_line(plan)
        assert run(sql) == [(2,), (3,)]

    def test_longer_equality_prefix_still_wins(self, cost_world):
        _engine, run = cost_world
        sql = ("SELECT v FROM ev WHERE w IN (1, 2) AND d = 2 AND v = 221")
        # ev_dv answers both equalities; the pk could only seek w by list.
        assert "index=ev_dv prefix=2" in seek_line(plan_of(run, sql))
        assert run(sql) == [(221,)]

    def test_covering_in_list_is_index_only(self, cost_world, exec_mode):
        engine, run = cost_world
        sql = "SELECT id FROM ev WHERE w = 2 AND d = 1 AND id IN (3, 2)"
        assert "in=2 index-only" in seek_line(plan_of(run, sql))
        reads = engine.meter.executor_stats.get("index_only_scans", 0)
        assert run(sql) == [(2,), (3,)]
        assert engine.meter.executor_stats["index_only_scans"] == reads + 1

    def test_list_order_keeps_sort_elimination(self, cost_world, exec_mode):
        _engine, run = cost_world
        sql = ("SELECT d, id FROM ev WHERE w = 1 AND d IN (2, 1) "
               "ORDER BY d, id")
        assert not any(line.strip().startswith("Sort")
                       for line in plan_of(run, sql))
        assert run(sql) == [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3)]

    def test_not_a_point_lookup(self, cost_world):
        _engine, run = cost_world
        plan = plan_of(run, "SELECT v FROM ev WHERE w = 1 AND d = 2 "
                            "AND id IN (3)")
        assert not plan[0].startswith("PointLookup")
        assert "in=1" in seek_line(plan)

    def test_update_and_delete_seek_by_list(self, cost_world):
        engine, run = cost_world
        seeks = engine.meter.counters.get("optimizer.in_list_seeks", 0)
        assert run("UPDATE ev SET v = 0 WHERE w = 1 AND d = 1 "
                   "AND id IN (1, 3, 9)") == 2
        assert run("DELETE FROM ev WHERE w = 2 AND d IN (1, 2) "
                   "AND id = 2") == 2
        assert engine.meter.counters["optimizer.in_list_seeks"] == seeks + 2
        assert run("SELECT id FROM ev WHERE v = 0 ORDER BY id") == \
            [(1,), (3,)]
        assert run("SELECT count(*) FROM ev") == [(10,)]

    def test_counter_and_sys_optimizer(self, cost_world):
        engine, run = cost_world
        run("SELECT v FROM ev WHERE w = 1 AND d = 2 AND id IN (3, 1)")
        run("SELECT v FROM ev WHERE w = 1 AND d = 2 AND id = 3")
        assert engine.meter.counters["optimizer.in_list_seeks"] == 1
        assert ("optimizer.in_list_seeks", 1) in run(
            "SELECT metric, value FROM sys_optimizer")

    def test_unanalyzed_table_still_seeks(self, world):
        _engine, run = world
        sql = "SELECT id FROM ev WHERE w = 1 AND d = 2 AND id IN (3, 1)"
        assert "prefix=2 in=2" in seek_line(plan_of(run, sql))
        assert run(sql) == [(1,), (3,)]


def test_in_list_plans_are_reused_per_list_length():
    """Auto-parameterization keys the template on the list's length and
    duplicate pattern; the seek reads its values at run time, so one
    cached plan serves every list of that shape."""
    engine = DatabaseEngine(meter=Meter())
    session = EngineSession(session_id=1)

    def run(sql):
        return engine.execute(sql, session).fetch_all()

    engine.execute("CREATE TABLE p (k INT NOT NULL, v INT, "
                   "PRIMARY KEY (k))", session)
    engine.execute("INSERT INTO p VALUES " + ", ".join(
        f"({k}, {k * k})" for k in range(10)), session)
    select = "SELECT k, v FROM p WHERE k IN ({})"
    assert run(select.format("2, 5, 7")) == [(2, 4), (5, 25), (7, 49)]
    stats = dict(engine.cache_stats)
    assert run(select.format("9, 1, 4")) == [(1, 1), (4, 16), (9, 81)]
    assert run(select.format("8, 3, 11")) == [(3, 9), (8, 64)]
    assert engine.cache_stats["plan_hits"] == stats["plan_hits"] + 2
    assert engine.cache_stats["plan_misses"] == stats["plan_misses"]
    # Another length (or a repeated literal) is another template.
    assert run(select.format("6, 0")) == [(0, 0), (6, 36)]
    assert run(select.format("6, 6, 0")) == [(0, 0), (6, 36)]
    assert engine.cache_stats["plan_misses"] == stats["plan_misses"] + 2
    assert engine.meter.counters["optimizer.in_list_seeks"] == 3
    # Bound parameters work the same way.
    assert engine.execute(
        "SELECT v FROM p WHERE k IN (@a, @b)", session,
        {"a": 3, "b": 2}).fetch_all() == [(4,), (9,)]


# ---------------------------------------------------------------------------
# Synchronous commit (asynchronous commit is retired)
# ---------------------------------------------------------------------------


class TestAsyncCommit:
    """What is left of the asynchronous-commit suite now that the
    feature is gone: an acknowledged commit is always durable."""

    def test_window_zero_forces_every_commit(self):
        with pytest.raises(TypeError):
            CostModel(async_commit_window_seconds=10.0)
        engine = DatabaseEngine(meter=Meter())
        session = EngineSession(session_id=1)
        engine.execute("CREATE TABLE gc (a INT)", session)
        forces = engine.meter.counters["log_forces"]
        for i in range(10):
            engine.execute(f"INSERT INTO gc VALUES ({i})", session)
            # Acknowledged means durable: nothing a crash could lose.
            assert engine.wal.flushed_lsn >= engine.wal.last_lsn - 1
        assert engine.meter.counters["log_forces"] - forces >= 10
        assert not any(name.startswith("async_commit")
                       for name in engine.meter.counters)


# ---------------------------------------------------------------------------
# sys_indexes entries column
# ---------------------------------------------------------------------------


def test_sys_indexes_reports_entry_counts(world):
    _engine, run = world
    rows = {name: (cols, entries)
            for name, _t, cols, _u, entries in run(
                "SELECT name, table_name, column_names, is_unique, "
                "entries FROM sys_indexes")}
    assert rows["__pk_ev"][1] == 12
