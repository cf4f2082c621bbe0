"""The optimizer: ANALYZE, estimation, plan shape, invalidation.

There is one planner and statistics decide what it does.  Plan-shape
tests doctor statistics directly through ``Catalog.set_table_stats`` so
a flip in join order, join algorithm or hash build side is forced by
numbers we control, then read the choice back out of EXPLAIN.  Values
are judged by literal rows, or — on TPC-H — by the rows frozen from the
FROM-order planner this repo started with
(``repro.bench.experiments.tpch_reference_rows``).
"""

import math

import pytest

from repro.engine.database import DatabaseEngine
from repro.engine.session import EngineSession
from repro.sim.meter import Meter
from repro.sql.stats import ColumnStats, TableStats


def _explain(run, sql: str) -> list[str]:
    return [str(row[0]) for row in run("EXPLAIN " + sql)]


def _stats(row_count: int, page_count: int = 1, **ndvs) -> TableStats:
    """Doctored statistics in the ANALYZE format."""
    return TableStats(row_count, page_count,
                      tuple(ColumnStats(name, ndv, 0.0)
                            for name, ndv in ndvs.items()))


@pytest.fixture
def joined(run):
    """Three comma-joinable tables with real rows (stats get doctored)."""
    run("CREATE TABLE fact (k INT, g INT, v INT)")
    run("CREATE TABLE dim_a (k INT, name VARCHAR(8))")
    run("CREATE TABLE dim_b (g INT, name VARCHAR(8))")
    run("INSERT INTO fact VALUES " + ", ".join(
        f"({i % 5}, {i % 3}, {i})" for i in range(30)))
    run("INSERT INTO dim_a VALUES " + ", ".join(
        f"({i}, 'a{i}')" for i in range(5)))
    run("INSERT INTO dim_b VALUES " + ", ".join(
        f"({i}, 'b{i}')" for i in range(3)))


# ---------------------------------------------------------------------------
# ANALYZE collection + sys_table_stats
# ---------------------------------------------------------------------------


class TestAnalyze:
    def test_analyze_one_table(self, run, engine):
        run("CREATE TABLE t (a INT, s VARCHAR(8))")
        run("INSERT INTO t VALUES " + ", ".join(
            f"({i % 7}, 's{i % 4}')" for i in range(20)))
        run("ANALYZE t")
        stats = engine.catalog.get_table_stats("t")
        assert stats.row_count == 20
        assert stats.column("a").ndv == 7
        assert stats.column("a").min == 0
        assert stats.column("a").max == 6
        assert stats.column("s").ndv == 4
        assert stats.column("a").histogram is not None
        assert engine.catalog.stats_version_of("t") == 1

    def test_analyze_all_tables_and_view(self, run, engine):
        run("CREATE TABLE t1 (a INT)")
        run("CREATE TABLE t2 (b INT)")
        run("INSERT INTO t1 VALUES (1), (2)")
        run("INSERT INTO t2 VALUES (3)")
        run("ANALYZE")
        rows = run("SELECT table_name, row_count, stats_version "
                   "FROM sys_table_stats ORDER BY table_name")
        tables = {r[0]: (r[1], r[2]) for r in rows}
        assert tables["t1"] == (2, 1)
        assert tables["t2"] == (1, 1)

    def test_null_fraction_recorded(self, run, engine):
        run("CREATE TABLE t (a INT)")
        run("INSERT INTO t VALUES (1), (NULL), (NULL), (4)")
        run("ANALYZE t")
        col = engine.catalog.get_table_stats("t").column("a")
        assert col.null_frac == pytest.approx(0.5)
        assert col.ndv == 2

    def test_analyze_charges_virtual_time(self, run, engine):
        run("CREATE TABLE t (a INT)")
        run("INSERT INTO t VALUES " + ", ".join(
            f"({i})" for i in range(50)))
        before = engine.meter.now
        run("ANALYZE t")
        assert engine.meter.now > before


# ---------------------------------------------------------------------------
# EXPLAIN annotations
# ---------------------------------------------------------------------------


class TestExplainAnnotations:
    SQL = "SELECT a, count(*) FROM t WHERE a > 2 GROUP BY a"

    @pytest.fixture(autouse=True)
    def table(self, run):
        run("CREATE TABLE t (a INT)")
        run("INSERT INTO t VALUES " + ", ".join(
            f"({i % 10})" for i in range(40)))

    def test_cost_plans_annotate_every_operator(self, run, engine):
        run("ANALYZE t")
        lines = _explain(run, self.SQL)
        assert lines and all("est_rows=" in line and "est_cost=" in line
                             for line in lines)

    def test_estimates_track_statistics(self, run, engine):
        run("ANALYZE t")
        # a > 2 keeps 7 of 10 distinct values: the scan estimate must be
        # statistics-driven (~28 of 40 rows), not the fixed default.
        line = next(line for line in
                    _explain(run, "SELECT a FROM t WHERE a > 2")
                    if "Filter" in line or "SeqScan" in line)
        assert "est_rows=" in line


# ---------------------------------------------------------------------------
# Plan shape under doctored statistics
# ---------------------------------------------------------------------------


def _scan_order(lines: list[str], *tables: str) -> list[str]:
    """Tables in the order their scans appear in the EXPLAIN output."""
    order = []
    for line in lines:
        for table in tables:
            if f"({table}" in line and table not in order:
                order.append(table)
    return order


class TestPlanShape:
    SQL2 = ("SELECT count(*) FROM fact, dim_a "
            "WHERE fact.k = dim_a.k")
    SQL3 = ("SELECT count(*) FROM fact, dim_a, dim_b "
            "WHERE fact.k = dim_a.k AND fact.g = dim_b.g")

    def test_build_side_follows_estimates(self, run, engine, joined):
        # dim_a tiny, fact huge: the hash join must build on dim_a, so
        # the probe (left child, printed first) is fact.
        engine.catalog.set_table_stats("fact", _stats(100000, 100, k=5))
        engine.catalog.set_table_stats("dim_a", _stats(5, 1, k=5))
        assert _scan_order(_explain(run, self.SQL2),
                           "fact", "dim_a") == ["fact", "dim_a"]
        # Flip the numbers and the build side must flip with them.
        engine.catalog.set_table_stats("fact", _stats(5, 1, k=5))
        engine.catalog.set_table_stats("dim_a", _stats(100000, 100, k=5))
        assert _scan_order(_explain(run, self.SQL2),
                           "fact", "dim_a") == ["dim_a", "fact"]

    def test_doctored_stats_flip_join_order(self, run, engine, joined):
        engine.catalog.set_table_stats("fact", _stats(100000, 100,
                                                      k=5, g=3))
        engine.catalog.set_table_stats("dim_a", _stats(5, 1, k=5))
        engine.catalog.set_table_stats("dim_b", _stats(40000, 40, g=3))
        small_a = _scan_order(_explain(run, self.SQL3),
                              "fact", "dim_a", "dim_b")
        engine.catalog.set_table_stats("dim_a", _stats(40000, 40, k=5))
        engine.catalog.set_table_stats("dim_b", _stats(5, 1, g=3))
        small_b = _scan_order(_explain(run, self.SQL3),
                              "fact", "dim_a", "dim_b")
        # The cheap dimension is joined first; swapping which dimension
        # is cheap must reorder the join tree.
        assert small_a != small_b
        assert small_a.index("dim_a") < small_a.index("dim_b")
        assert small_b.index("dim_b") < small_b.index("dim_a")

    def test_results_identical_across_flips(self, run, engine, joined):
        # Every fact row finds its one dim_a and its one dim_b row.
        expected = [(30,)]
        assert run(self.SQL3) == expected
        engine.catalog.set_table_stats("fact", _stats(100000, 100,
                                                      k=5, g=3))
        engine.catalog.set_table_stats("dim_a", _stats(5, 1, k=5))
        engine.catalog.set_table_stats("dim_b", _stats(40000, 40, g=3))
        assert run(self.SQL3) == expected
        engine.catalog.set_table_stats("dim_a", _stats(40000, 40, k=5))
        engine.catalog.set_table_stats("dim_b", _stats(5, 1, g=3))
        assert run(self.SQL3) == expected


class TestSortMergeJoin:
    SQL = ("SELECT a.k, b.v FROM ordered_a a, ordered_b b "
           "WHERE a.k = b.k AND a.k > 0 AND b.k > 0")

    @pytest.fixture(autouse=True)
    def tables(self, run):
        run("CREATE TABLE ordered_a (k INT NOT NULL, PRIMARY KEY (k))")
        run("CREATE TABLE ordered_b (k INT NOT NULL, v INT, "
            "PRIMARY KEY (k))")
        run("INSERT INTO ordered_a VALUES " + ", ".join(
            f"({i})" for i in range(1, 12)))
        run("INSERT INTO ordered_b VALUES " + ", ".join(
            f"({i}, {i * 10})" for i in range(1, 20, 2)))
        run("ANALYZE")

    def test_sort_merge_chosen_when_both_sides_ordered(self, run,
                                                       engine):
        lines = _explain(run, self.SQL)
        assert any("SortMergeJoin" in line for line in lines), lines
        assert engine.meter.counters.get(
            "optimizer.sortmerge_chosen", 0) >= 1

    def test_sort_merge_results_match_heuristic(self, run, engine):
        """The rows the FROM-order hash join returned: the odd keys both
        tables hold."""
        assert sorted(run(self.SQL)) == [(k, k * 10)
                                         for k in range(1, 12, 2)]


class TestTopNHeapSort:
    SQL = "SELECT TOP 3 v, k FROM pile ORDER BY v DESC, k"
    #: (v, k) of every row of ``pile``
    PILE = [((i * 37) % 50, i) for i in range(60)]

    @pytest.fixture(autouse=True)
    def table(self, run):
        run("CREATE TABLE pile (k INT, v INT)")
        run("INSERT INTO pile VALUES " + ", ".join(
            f"({k}, {v})" for v, k in self.PILE))
        run("ANALYZE pile")

    def test_cost_mode_uses_heap(self, run, engine):
        lines = _explain(run, self.SQL)
        assert any("TopNHeapSort(n=3" in line for line in lines), lines
        assert not any("Limit" in line for line in lines)
        assert engine.meter.counters.get("optimizer.topn_heap_used",
                                         0) >= 1

    def test_heap_rows_identical_to_sort_limit(self, run, engine):
        assert run(self.SQL) == sorted(
            self.PILE, key=lambda r: (-r[0], r[1]))[:3]

    def test_heap_handles_nulls_and_ties(self, run, engine):
        run("INSERT INTO pile VALUES (100, NULL), (101, NULL), (102, 49)")
        # NULLs sort first ascending; ties on v come out by k descending.
        pile = self.PILE + [(49, 102)]
        assert run("SELECT TOP 5 v, k FROM pile ORDER BY v, k DESC") \
            == [(None, 101), (None, 100)] + sorted(
                pile, key=lambda r: (r[0], -r[1]))[:3]


# ---------------------------------------------------------------------------
# Join estimates and join order: unique-key floor, DP width, greedy rule
# ---------------------------------------------------------------------------


def _est_rows(line: str) -> int:
    return int(line.split("est_rows=")[1].split()[0])


def _join_depth(lines: list[str], needle: str) -> int:
    """Indentation of the join that takes in the first EXPLAIN line
    containing ``needle``: its nearest ancestor that is a join."""
    at = next(i for i, line in enumerate(lines) if needle in line)
    depth = len(lines[at]) - len(lines[at].lstrip())
    for line in reversed(lines[:at]):
        indent = len(line) - len(line.lstrip())
        if indent < depth:
            if "Join" in line:
                return indent
            depth = indent
    raise AssertionError(f"no join above {needle}")


class TestJoinEstimates:
    """A TPC-H-shaped key graph with doctored statistics: lineitem-like
    ``li`` (6 000 rows) references partsupp-like ``ps`` (1 600 rows,
    primary key ``(pk, sk)``) whose columns reference ``pa`` (400 rows)
    and ``su`` (20 rows)."""

    @pytest.fixture(autouse=True)
    def tables(self, run, engine):
        run("CREATE TABLE li (pk INT, sk INT, qty INT)")
        run("CREATE TABLE ps (pk INT NOT NULL, sk INT NOT NULL, cost INT, "
            "PRIMARY KEY (pk, sk))")
        run("CREATE TABLE pa (pk INT NOT NULL, PRIMARY KEY (pk))")
        run("CREATE TABLE su (sk INT NOT NULL, PRIMARY KEY (sk))")
        engine.catalog.set_table_stats("li", _stats(6000, 60, pk=400,
                                                    sk=20))
        engine.catalog.set_table_stats("ps", _stats(1600, 16, pk=400,
                                                    sk=20))
        engine.catalog.set_table_stats("pa", _stats(400, 4, pk=400))
        engine.catalog.set_table_stats("su", _stats(20, 1, sk=20))

    def test_composite_primary_key_join_estimates_the_fact_side(
            self, run, engine):
        # 1/NDV per column would say 6000·1600/(400·20) = 1200 rows.
        lines = _explain(run, "SELECT count(*) FROM li, ps "
                              "WHERE li.pk = ps.pk AND li.sk = ps.sk")
        join = next(line for line in lines if "HashJoin" in line)
        assert _est_rows(join) == 6000
        assert engine.meter.counters["optimizer.unique_key_join_floors"] \
            >= 1

    def test_floor_is_per_binding_pair(self, engine, session):
        from repro.sql import ast
        from repro.sql.planner import _Relation

        def relation(rows, *names):
            return _Relation(op=None, schema=[], bindings=set(names),
                             est_rows=rows,
                             binding_tables={n: n for n in names})

        planner = engine._planner(session, None)
        both_keys = [(ast.ColumnRef(table="pa", name="pk"),
                      ast.ColumnRef(table="ps", name="pk")),
                     (ast.ColumnRef(table="su", name="sk"),
                      ast.ColumnRef(table="ps", name="sk"))]
        # part x supplier against partsupp, both keys joined: each
        # binding pair keeps its own key, 1/(400·20) — not partsupp's
        # 1/1600 for the side as a whole.
        assert planner._estimate_join_output(
            relation(8000.0, "pa", "su"), relation(1600.0, "ps"),
            both_keys) == 1600.0

    def test_greedy_order_never_pairs_across_while_a_connected_one_remains(
            self, run, engine):
        # Nine relations: above the DP limit.  A chain c0 - c1 - ... -
        # c8 whose two smallest relations sit at its ends: a greedy that
        # ranks by step cost joins c8 to c0 first, a cross pairing.
        names = [f"c{i}" for i in range(9)]
        for i, name in enumerate(names):
            run(f"CREATE TABLE {name} (k INT, n INT)")
            rows = {0: 1, 8: 2}.get(i, 1000)
            engine.catalog.set_table_stats(name, _stats(rows, 1, k=rows,
                                                        n=rows))
        sql = ("SELECT count(*) FROM " + ", ".join(names) + " WHERE "
               + " AND ".join(f"{a}.n = {b}.k"
                              for a, b in zip(names, names[1:])))
        lines = _explain(run, sql)
        assert not any("NestedLoopJoin" in line for line in lines), lines
        assert sum("HashJoin" in line for line in lines) == 8
        assert engine.meter.counters["optimizer.join_lists_greedy"] == 1


def test_q08_joins_lineitem_below_orders():
    """Eight relations are ordered exhaustively: Q08 reaches orders
    through the filtered lineitem join, not through a cross product of
    the small dimensions with lineitem joined last."""
    from repro.workloads.tpch.datagen import generate
    from repro.workloads.tpch.queries import QUERIES
    from repro.workloads.tpch.schema import create_schema, load

    engine = DatabaseEngine(meter=Meter())
    session = EngineSession(session_id=1)
    create_schema(engine, session)
    load(engine, session, generate(scale=0.0005, seed=11))
    engine.execute("ANALYZE", session)
    lines = [str(row[0]) for row in engine.execute(
        "EXPLAIN " + QUERIES[8], session).fetch_all()]
    assert _join_depth(lines, "SeqScan(lineitem") \
        > _join_depth(lines, "SeqScan(orders"), lines
    assert "optimizer.join_lists_greedy" not in engine.meter.counters


def test_disjunction_across_relations_restricts_each_relation(run, engine):
    """Q19's shape: every disjunct restricts both tables, so each table
    gets the OR of its own parts as a filter below the join; the
    disjunction itself stays as the join's residual."""
    run("CREATE TABLE part_t (pk INT, brand INT)")
    run("CREATE TABLE line_t (pk INT, qty INT)")
    run("INSERT INTO part_t VALUES (1, 12), (2, 23), (3, 34)")
    run("INSERT INTO line_t VALUES (1, 5), (1, 15), (2, 15), (3, 25), "
        "(3, 5)")
    sql = ("SELECT line_t.pk, qty FROM line_t, part_t "
           "WHERE part_t.pk = line_t.pk AND "
           "((brand = 12 AND qty <= 10) OR (brand = 23 AND qty > 10))")
    lines = _explain(run, sql)
    assert sum(line.strip().startswith("Filter")
               for line in lines) == 2, lines
    assert any("residual" in line for line in lines), lines
    assert engine.meter.counters["optimizer.or_restrictions_derived"] == 2
    assert sorted(run(sql)) == [(1, 5), (2, 15)]


# ---------------------------------------------------------------------------
# ANALYZE invalidates cached plans (stats-version fix)
# ---------------------------------------------------------------------------


class TestStatsInvalidation:
    def test_analyze_invalidates_cached_plan(self, run, engine):
        run("CREATE TABLE t (a INT)")
        run("INSERT INTO t VALUES (1), (2), (3)")
        assert run("SELECT a FROM t WHERE a > 1") == [(2,), (3,)]
        before = engine.cache_stats["plan_invalidations"]
        run("ANALYZE t")
        assert run("SELECT a FROM t WHERE a > 1") == [(2,), (3,)]
        assert engine.cache_stats["plan_invalidations"] == before + 1

    def test_replanned_plan_sees_new_stats(self, run, engine):
        """The replan after ANALYZE must pick up the fresh statistics —
        the cost-mode EXPLAIN shows statistics-driven estimates only
        after the stats exist."""
        run("CREATE TABLE t (a INT)")
        run("INSERT INTO t VALUES " + ", ".join(
            f"({i})" for i in range(20)))
        fallback_before = engine.meter.counters.get(
            "optimizer.stats_missing_fallbacks", 0)
        run("SELECT a FROM t WHERE a = 5")
        assert engine.meter.counters.get(
            "optimizer.stats_missing_fallbacks", 0) > fallback_before
        run("ANALYZE t")
        after_analyze = engine.meter.counters.get(
            "optimizer.stats_missing_fallbacks", 0)
        run("SELECT a FROM t WHERE a = 5")
        assert engine.meter.counters.get(
            "optimizer.stats_missing_fallbacks", 0) == after_analyze

    def test_unanalyzed_tables_unaffected(self, run, engine):
        run("CREATE TABLE t (a INT)")
        run("CREATE TABLE u (b INT)")
        run("INSERT INTO t VALUES (1)")
        run("INSERT INTO u VALUES (2)")
        run("SELECT b FROM u")
        before = engine.cache_stats["plan_invalidations"]
        run("ANALYZE t")
        run("SELECT b FROM u")
        assert engine.cache_stats["plan_invalidations"] == before


# ---------------------------------------------------------------------------
# IN-list transfer across join equalities
# ---------------------------------------------------------------------------


class TestInListTransfer:
    """``A.x = B.y AND A.x IN (constants)`` implies ``B.y IN (constants)``;
    the planner derives it so B's index can seek by the same key list,
    and keeps it only when B's access path consumes it."""

    LIST = "4, 1, 7, 4"

    @pytest.fixture(autouse=True)
    def tables(self, run, engine):
        # The new-order shape: item(i), stock(w, i) — plus a heap-only
        # copy of stock and a text-keyed table.
        run("CREATE TABLE item (i INT NOT NULL, price INT, "
            "PRIMARY KEY (i))")
        run("CREATE TABLE stock (w INT NOT NULL, i INT NOT NULL, "
            "qty INT, PRIMARY KEY (w, i))")
        run("CREATE TABLE bare (w INT, i INT, qty INT)")
        run("CREATE TABLE tag (name VARCHAR(4) NOT NULL, n INT, "
            "PRIMARY KEY (name))")
        run("INSERT INTO item VALUES " + ", ".join(
            f"({i}, {i * 10})" for i in range(1, 9)))
        stock = ", ".join(f"({w}, {i}, {w * 100 + i})"
                          for w in (1, 2) for i in range(1, 9) if i != 7)
        run(f"INSERT INTO stock VALUES {stock}")
        run(f"INSERT INTO bare VALUES {stock}")
        run("INSERT INTO tag VALUES ('1', 1), ('4', 4), ('x', 0)")
        run("ANALYZE")

    def _transfers(self, engine) -> int:
        return int(engine.meter.counters.get(
            "optimizer.in_list_transfers", 0))

    def test_comma_join_seeks_both_sides_by_the_list(self, run, engine):
        sql = (f"SELECT item.i, price, qty FROM item, stock "
               f"WHERE w = 2 AND stock.i = item.i "
               f"AND item.i IN ({self.LIST})")
        plan = _explain(run, sql)
        assert any("IndexSeek(stock index=__pk_stock prefix=1 in=4" in line
                   and "est_rows=3 " in line for line in plan)
        assert any("IndexSeek(item index=__pk_item prefix=0 in=4" in line
                   and "est_rows=3 " in line for line in plan)
        assert not any("Filter" in line or "SeqScan" in line
                       for line in plan)
        assert self._transfers(engine) == 1
        # Ascending key order on both sides: the order the scans had.
        assert run(sql) == [(1, 10, 201), (4, 40, 204)]

    def test_list_on_either_side_of_the_equality(self, run, engine):
        sql = (f"SELECT price, qty FROM stock, item "
               f"WHERE item.i = stock.i AND w = 1 "
               f"AND stock.i IN ({self.LIST})")
        plan = _explain(run, sql)
        assert any("IndexSeek(item index=__pk_item prefix=0 in=4" in line
                   for line in plan)
        assert run(sql) == [(10, 101), (40, 104)]

    def test_inner_join_on_clause(self, run, engine):
        sql = (f"SELECT item.i, qty FROM item JOIN stock "
               f"ON stock.i = item.i AND w = 2 "
               f"AND item.i IN ({self.LIST})")
        plan = _explain(run, sql)
        assert any("IndexSeek(stock index=__pk_stock prefix=1 in=4" in line
                   for line in plan)
        assert self._transfers(engine) == 1
        assert run(sql) == [(1, 201), (4, 204)]

    @pytest.mark.parametrize("sql", [
        # The list names the preserved side: pushing it to item would
        # drop rows the outer join must keep.
        "SELECT item.i, qty FROM item LEFT JOIN stock "
        "ON stock.i = item.i AND w = 2 AND stock.i IN (4, 1, 7)",
        # The list names the preserved side itself: stays in ON.
        "SELECT item.i, qty FROM item LEFT JOIN stock "
        "ON stock.i = item.i AND w = 2 AND item.i IN (4, 1, 7)",
    ])
    def test_never_through_a_left_join(self, run, engine, sql):
        plan = _explain(run, sql)
        assert not any("item index=" in line and "in=" in line
                       for line in plan)
        assert self._transfers(engine) == 0
        # Every item survives; only 1 and 4 have stock in warehouse 2.
        assert sorted(run(sql)) == [
            (i, {1: 201, 4: 204}.get(i)) for i in range(1, 9)]

    def test_dropped_when_no_access_path_consumes_it(self, run, engine):
        sql = (f"SELECT item.i, qty FROM item, bare "
               f"WHERE w = 2 AND bare.i = item.i "
               f"AND item.i IN ({self.LIST})")
        plan = _explain(run, sql)
        # bare has no index: its scan keeps exactly the one filter
        # (w = 2) it had — no redundant IN predicate is evaluated — and
        # item's list is answered by its seek.
        assert sum("Filter" in line for line in plan) == 1
        assert self._transfers(engine) == 0
        assert sorted(run(sql)) == [(1, 201), (4, 204)]

    def test_not_across_comparison_families(self, run, engine):
        # '=' between INT and VARCHAR coerces; coercion is not
        # transitive, so nothing is derived for tag.name.
        sql = ("SELECT item.i, n FROM item, tag "
               "WHERE tag.name = item.i AND item.i IN (4, 1)")
        plan = _explain(run, sql)
        assert not any("tag index=" in line for line in plan)
        assert self._transfers(engine) == 0
        assert run(sql) == []  # a text '1' is not the number 1

    def test_not_from_not_in_ranges_or_constants(self, run, engine):
        for predicate, items in (("item.i NOT IN (4, 1)", (2, 3, 5, 6, 8)),
                                 ("item.i > 6", (8,)),
                                 ("item.i = 4", (4,))):
            sql = (f"SELECT item.i, qty FROM item, stock WHERE w = 2 "
                   f"AND stock.i = item.i AND {predicate}")
            assert not any("stock index=" in line and "in=" in line
                           for line in _explain(run, sql))
            assert sorted(run(sql)) == [(i, 200 + i) for i in items]
        assert self._transfers(engine) == 0

    def test_three_relations(self, run, engine):
        sql = (f"SELECT item.i, a.qty, b.qty FROM item, stock a, stock b "
               f"WHERE a.w = 1 AND b.w = 2 AND a.i = item.i "
               f"AND b.i = item.i AND item.i IN ({self.LIST})")
        plan = _explain(run, sql)
        assert sum("index=__pk_stock prefix=1 in=4" in line
                   for line in plan) == 2
        assert self._transfers(engine) == 2
        assert sorted(run(sql)) == [(1, 101, 201), (4, 104, 204)]


# ---------------------------------------------------------------------------
# optimizer.* counters + sys_optimizer
# ---------------------------------------------------------------------------


class TestOptimizerCounters:
    def test_cost_mode_populates_counters(self, run, engine, joined):
        run("ANALYZE")
        run(TestPlanShape.SQL3)
        run("SELECT TOP 2 v FROM fact ORDER BY v DESC")
        counters = dict(run("SELECT metric, value FROM sys_optimizer"))
        assert counters["optimizer.plans_costed"] >= 2
        assert counters["optimizer.join_orders_considered"] >= 1
        assert counters["optimizer.topn_heap_used"] >= 1
        metrics = dict(
            run("SELECT name, value FROM sys_metrics "
                "WHERE kind = 'counter' AND name = "
                "'optimizer.plans_costed'"))
        assert metrics["optimizer.plans_costed"] >= 2


# ---------------------------------------------------------------------------
# Statistics survive crash recovery
# ---------------------------------------------------------------------------


class TestStatsPersistence:
    def _world(self):
        from repro.server.server import DatabaseServer
        from repro.workloads.app import BenchmarkApp

        server = DatabaseServer(meter=Meter())
        app = BenchmarkApp(server)
        app.run_statement("CREATE TABLE t (a INT)")
        app.run_statement("INSERT INTO t VALUES " + ", ".join(
            f"({i % 6})" for i in range(24)))
        app.run_statement("ANALYZE t")
        return server, app

    def test_stats_survive_restart(self):
        server, app = self._world()
        expected = server.engine.catalog.get_table_stats("t")
        assert expected.row_count == 24
        server.crash()
        server.restart()
        assert server.engine.catalog.get_table_stats("t") == expected
        assert server.engine.catalog.stats_version_of("t") == 1

    def test_stats_survive_checkpointed_restart(self):
        server, app = self._world()
        server.engine.checkpoint()
        expected = server.engine.catalog.get_table_stats("t")
        server.crash()
        server.restart()
        assert server.engine.catalog.get_table_stats("t") == expected

    def test_view_reflects_recovered_stats(self):
        server, app = self._world()
        server.crash()
        server.restart()
        app2 = __import__("repro.workloads.app",
                          fromlist=["BenchmarkApp"]).BenchmarkApp(server)
        rows = app2.query_rows("SELECT table_name, row_count "
                               "FROM sys_table_stats")
        assert ("t", 24) in rows


# ---------------------------------------------------------------------------
# Plans vs the frozen reference: value equivalence on TPC-H
# ---------------------------------------------------------------------------


def _cells_close(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)
    return a == b


def _rows_close(got, want) -> bool:
    if len(got) != len(want):
        return False
    got = sorted(got, key=repr)
    want = sorted(want, key=repr)
    return all(len(x) == len(y)
               and all(_cells_close(c, d) for c, d in zip(x, y))
               for x, y in zip(got, want))


def test_tpch_cost_mode_matches_heuristic_values():
    """Every TPC-H query returns the values the FROM-order planner
    returned, with statistics and without (modulo float-summation order:
    a reordered join feeds SUM in a different row order, so aggregates
    may differ in the last ulp — compared with 1e-9 relative tolerance).
    The reference rows were frozen before that planner was deleted."""
    from repro.bench.experiments import (OPTBENCH_TOPN_QUERY,
                                         tpch_reference_rows)
    from repro.workloads.tpch.datagen import generate
    from repro.workloads.tpch.queries import QUERIES
    from repro.workloads.tpch.schema import create_schema, load

    reference = tpch_reference_rows(scale=0.0005, seed=11)
    for analyze in (False, True):
        engine = DatabaseEngine(meter=Meter())
        session = EngineSession(session_id=1)
        create_schema(engine, session)
        load(engine, session, generate(scale=0.0005, seed=11))
        if analyze:
            engine.execute("ANALYZE", session)
        for number in sorted(QUERIES):
            rows = engine.execute(QUERIES[number], session).fetch_all()
            assert _rows_close(rows, reference[f"Q{number:02d}"]), (
                f"values diverged on TPC-H Q{number} (analyze={analyze})")
        assert engine.execute(OPTBENCH_TOPN_QUERY, session).fetch_all() \
            == reference["TOP-N"]
