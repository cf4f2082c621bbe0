"""Tests for views and UNION support."""

import pytest

from repro.errors import EngineError, PlanningError
from tests.schedules import EngineWorld


@pytest.fixture
def numbers(run):
    run("CREATE TABLE odds (n INT)")
    run("CREATE TABLE evens (n INT)")
    run("INSERT INTO odds VALUES (1), (3), (5)")
    run("INSERT INTO evens VALUES (2), (4), (4)")


class TestUnion:
    def test_union_dedups(self, run, numbers):
        rows = run("SELECT n FROM odds UNION SELECT n FROM evens "
                   "ORDER BY n")
        assert rows == [(1,), (2,), (3,), (4,), (5,)]

    def test_union_all_keeps_duplicates(self, run, numbers):
        rows = run("SELECT n FROM evens UNION ALL SELECT n FROM evens")
        assert len(rows) == 6

    def test_union_dedups_across_inputs(self, run, numbers):
        rows = run("SELECT n FROM evens UNION SELECT n FROM evens")
        assert sorted(rows) == [(2,), (4,)]

    def test_three_way_chain(self, run, numbers):
        rows = run("SELECT n FROM odds UNION SELECT n FROM evens "
                   "UNION ALL SELECT 99 ORDER BY 1")
        assert rows[-1] == (99,)
        # Mixed chain with a plain UNION dedups the whole result.
        assert len(rows) == 6

    def test_order_by_position_and_name(self, run, numbers):
        by_name = run("SELECT n FROM odds UNION SELECT n FROM evens "
                      "ORDER BY n DESC")
        assert by_name[0] == (5,)
        by_pos = run("SELECT n FROM odds UNION SELECT n FROM evens "
                     "ORDER BY 1 DESC")
        assert by_pos == by_name

    def test_limit_applies_to_union(self, run, numbers):
        rows = run("SELECT n FROM odds UNION SELECT n FROM evens "
                   "ORDER BY n LIMIT 2")
        assert rows == [(1,), (2,)]

    def test_arity_mismatch_rejected(self, run, numbers):
        with pytest.raises(PlanningError):
            run("SELECT n FROM odds UNION SELECT n, n FROM evens")

    def test_union_in_derived_table(self, run, numbers):
        rows = run("SELECT count(*) FROM "
                   "(SELECT n FROM odds UNION ALL SELECT n FROM evens) u")
        assert rows == [(6,)]

    def test_union_in_subquery(self, run, numbers):
        rows = run("SELECT n FROM odds WHERE n IN "
                   "(SELECT n FROM evens UNION SELECT 3)")
        assert rows == [(3,)]

    def test_insert_from_union(self, run, numbers):
        run("CREATE TABLE all_n (n INT)")
        count = run("INSERT INTO all_n SELECT n FROM odds "
                    "UNION SELECT n FROM evens")
        assert count == 5


class TestViews:
    def test_create_and_query(self, run, numbers):
        run("CREATE VIEW big_odds AS SELECT n FROM odds WHERE n > 1")
        assert sorted(run("SELECT * FROM big_odds")) == [(3,), (5,)]

    def test_view_with_alias_and_join(self, run, numbers):
        run("CREATE VIEW v AS SELECT n FROM odds")
        rows = run("SELECT a.n, b.n FROM v a, v b WHERE a.n = b.n")
        assert len(rows) == 3

    def test_view_reflects_base_changes(self, run, numbers):
        run("CREATE VIEW v AS SELECT n FROM odds")
        run("INSERT INTO odds VALUES (7)")
        assert (7,) in run("SELECT * FROM v")

    def test_view_over_union(self, run, numbers):
        run("CREATE VIEW both_v AS SELECT n FROM odds "
            "UNION SELECT n FROM evens")
        assert len(run("SELECT * FROM both_v")) == 5

    def test_view_of_view(self, run, numbers):
        run("CREATE VIEW v1 AS SELECT n FROM odds")
        run("CREATE VIEW v2 AS SELECT n FROM v1 WHERE n >= 3")
        assert sorted(run("SELECT * FROM v2")) == [(3,), (5,)]

    def test_view_with_aggregation(self, run, numbers):
        run("CREATE VIEW totals AS SELECT count(*) AS c, sum(n) AS s "
            "FROM odds")
        assert run("SELECT c, s FROM totals") == [(3, 9)]

    def test_predicates_push_into_view(self, run, numbers):
        run("CREATE VIEW v AS SELECT n FROM odds")
        assert run("SELECT n FROM v WHERE n = 3") == [(3,)]

    def test_drop_view(self, run, numbers):
        run("CREATE VIEW v AS SELECT n FROM odds")
        run("DROP VIEW v")
        from repro.errors import TableNotFoundError

        with pytest.raises(TableNotFoundError):
            run("SELECT * FROM v")

    def test_drop_missing_view_fails(self, run):
        with pytest.raises(EngineError):
            run("DROP VIEW ghost")

    def test_invalid_definition_rejected(self, run, numbers):
        with pytest.raises(PlanningError):
            run("CREATE VIEW v AS DELETE FROM odds")
        from repro.errors import ColumnNotFoundError

        with pytest.raises(ColumnNotFoundError):
            run("CREATE VIEW v AS SELECT ghost FROM odds")

    def test_duplicate_view_rejected(self, run, numbers):
        run("CREATE VIEW v AS SELECT n FROM odds")
        with pytest.raises(EngineError):
            run("CREATE VIEW v AS SELECT n FROM evens")

    def test_view_name_cannot_shadow_table(self, run, numbers):
        with pytest.raises(EngineError):
            run("CREATE VIEW odds AS SELECT n FROM evens")


class TestViewRecovery:
    def test_views_survive_crash(self):
        harness = EngineWorld()
        harness.run("CREATE TABLE t (a INT)")
        harness.run("INSERT INTO t VALUES (1), (2)")
        harness.run("CREATE VIEW v AS SELECT a FROM t WHERE a > 1")
        harness.crash()
        harness.restart()
        assert harness.run("SELECT * FROM v") == [(2,)]

    def test_uncommitted_view_rolled_back(self):
        harness = EngineWorld()
        harness.run("CREATE TABLE t (a INT)")
        harness.run("BEGIN TRANSACTION")
        harness.run("CREATE VIEW doomed AS SELECT a FROM t")
        harness.engine.wal.force()
        harness.crash()
        harness.restart()
        assert harness.engine.catalog.get_view("doomed") is None

    def test_dropped_view_stays_dropped(self):
        harness = EngineWorld()
        harness.run("CREATE TABLE t (a INT)")
        harness.run("CREATE VIEW v AS SELECT a FROM t")
        harness.engine.checkpoint()
        harness.run("DROP VIEW v")
        harness.crash()
        harness.restart()
        assert harness.engine.catalog.get_view("v") is None

    def test_view_rollback_online(self):
        harness = EngineWorld()
        harness.run("CREATE TABLE t (a INT)")
        harness.run("BEGIN TRANSACTION")
        harness.run("CREATE VIEW v AS SELECT a FROM t")
        harness.run("ROLLBACK")
        assert harness.engine.catalog.get_view("v") is None


class TestQ15WithView:
    """Q15 can now be written with the official CREATE VIEW form."""

    def test_official_q15_formulation(self, engine, session):
        from repro.workloads.tpch.datagen import generate
        from repro.workloads.tpch.schema import create_schema, load

        create_schema(engine, session)
        load(engine, session, generate(scale=0.0005, seed=11))
        engine.execute(
            "CREATE VIEW revenue0 AS "
            "SELECT l_suppkey AS supplier_no, "
            "sum(l_extendedprice * (1 - l_discount)) AS total_revenue "
            "FROM lineitem WHERE l_shipdate >= date '1996-01-01' "
            "AND l_shipdate < date '1996-01-01' + interval '3' month "
            "GROUP BY l_suppkey", session)
        rows = engine.execute(
            "SELECT s_suppkey, s_name, s_address, s_phone, total_revenue "
            "FROM supplier, revenue0 WHERE s_suppkey = supplier_no "
            "AND total_revenue = (SELECT max(total_revenue) FROM revenue0) "
            "ORDER BY s_suppkey", session).fetch_all()
        # Compare against the inlined formulation used by the harness.
        from repro.workloads.tpch.queries import Q15

        expected = engine.execute(Q15, session).fetch_all()
        assert rows == expected
