"""Statement/plan cache tests: normalization, reuse, invalidation.

The cache layer is a host-time optimization only — every test here that
touches the meter asserts the cached path charges *exactly* what the
cold path charges.  The cold path is the verbatim route
(:func:`tests.conftest.verbatim`): statements parsed as written and
planned afresh, as a pre-parsed AST always is.
"""

import datetime
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.database import DatabaseEngine
from repro.engine.session import EngineSession
from repro.errors import SqlSyntaxError, TypeMismatchError
from repro.server.protocol import ExecuteRequest
from repro.server.server import DatabaseServer
from repro.sim.meter import Meter
from repro.sql.plan_cache import ShapeMemo, normalize_statement
from repro.workloads.app import BenchmarkApp
from tests.conftest import verbatim


# ---------------------------------------------------------------------------
# Auto-parameterization (normalize_statement)
# ---------------------------------------------------------------------------


class TestNormalization:
    def test_literals_collapse_to_one_template(self):
        a = normalize_statement("SELECT a FROM t WHERE b = 7")
        b = normalize_statement("SELECT a FROM t WHERE b = 99")
        assert a is not None and b is not None
        assert a.text == b.text
        assert a.params != b.params

    def test_values_and_signature_recorded(self):
        norm = normalize_statement(
            "SELECT a FROM t WHERE b = 7 AND s = 'x'")
        assert sorted(norm.params.values(), key=str) == [7, "x"]
        assert len(norm.signature) == 2

    def test_top_limit_literals_are_grammar(self):
        norm = normalize_statement("SELECT TOP 5 a FROM t WHERE b = 1")
        assert "TOP 5" in norm.text
        assert 5 not in norm.params.values()

    def test_order_by_position_kept(self):
        norm = normalize_statement(
            "SELECT a, b FROM t WHERE a = 3 ORDER BY 2")
        assert norm.text.rstrip().endswith("ORDER BY 2")

    def test_where_zero_equals_one_kept(self):
        # The Phoenix metadata probe relies on WHERE 0 = 1 pruning the
        # plan to nothing; parameterizing it would change plan shape.
        norm = normalize_statement("SELECT a FROM t WHERE 0 = 1")
        assert norm is None or "0 = 1" in norm.text

    def test_date_literal_becomes_one_date_param(self):
        import datetime

        norm = normalize_statement(
            "SELECT a FROM t WHERE d < date '2001-04-02'")
        assert datetime.date(2001, 4, 2) in norm.params.values()

    def test_ddl_not_normalized(self):
        assert normalize_statement("CREATE TABLE t (a INT)") is None
        assert normalize_statement("DROP TABLE t") is None

    def test_no_literals_means_none(self):
        assert normalize_statement("SELECT a FROM t") is None

    def test_memo_corpus_equals_the_token_path(self):
        """Texts that share a shape but not a decision: the memo must
        key every one of them apart, in the order given."""
        memo = ShapeMemo(64)
        corpus = [
            # The kept TOP count is part of the template.
            "SELECT TOP 5 a FROM t WHERE b = 1",
            "SELECT TOP 10 a FROM t WHERE b = 1",
            # One slot, a string then a float: each its own converter.
            "SELECT a FROM t WHERE s = 'x''y'",
            "SELECT a FROM t WHERE s = 1.5e3",
            # The lexer reads `.5` as a number behind the word, and the
            # digits glued to a word, `#` or `@` as part of it.
            "SELECT x.5 FROM t WHERE b = 2",
            "SELECT x.5 FROM t WHERE b = 3",
            "SELECT x1.5 FROM t WHERE b = 3",
            "SELECT #.5 FROM t WHERE b = 3",
            "SELECT #1.5 FROM t WHERE b = 3",
            "SELECT @1.5 FROM t WHERE b = 3",
            # An integer is an output position, a decimal is not.
            "SELECT a, b FROM t WHERE a = 3 ORDER BY 1",
            "SELECT a, b FROM t WHERE a = 3 ORDER BY 1.5",
            # Constant folding sees its literals.
            "SELECT a FROM t WHERE 0 = 1",
            "SELECT a FROM t WHERE 7 = 7 AND b = 2",
            "SELECT a FROM t WHERE 5",
            "SELECT a FROM t WHERE 5 AND b = 1",
            # A comment's literals are no literals.
            "SELECT a FROM t -- b = 'c' 5\n WHERE b = 1",
            "SELECT a FROM t /* 5 */ WHERE b = 1",
            # DATE absorbs its string; a bad date is taken verbatim.
            "SELECT a FROM t WHERE d < date '2001-04-02'",
            "SELECT a FROM t WHERE d < date '2001-13-02'",
            "SELECT a FROM t WHERE d < date '1998-12-01' - interval '90' day",
            # The parameter namespace is the application's to use.
            "SELECT a FROM t WHERE b = @__lit0 AND c = 1",
            "SELECT a FROM t WHERE b = @x AND c = 1",
            # Equal literals share one name.
            "SELECT a FROM t WHERE b IN (1, 2, 1)",
            "SELECT a FROM t WHERE b IN (1, 2, 3)",
        ]
        for sql in corpus:
            assert normalize_statement(sql, memo) == normalize_statement(
                sql), sql
        top10 = normalize_statement("SELECT TOP 10 a FROM t WHERE b = 1",
                                    memo)
        assert "TOP 10" in top10.text and top10.params == {"__lit0": 1}
        assert normalize_statement("SELECT a FROM t WHERE s = 1.5e3",
                                   memo).params == {"__lit0": 1500.0}
        assert normalize_statement(
            "SELECT a, b FROM t WHERE a = 3 ORDER BY 1.5",
            memo).params == {"__lit0": 3, "__lit1": 1.5}

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_memo_equals_the_token_path(self, data):
        """Texts of one drawn skeleton with drawn literals, through one
        memo: every result equals the token path's on that text."""
        skeleton = data.draw(st.lists(_SKELETON_PIECES, min_size=1,
                                      max_size=12))
        head = data.draw(st.sampled_from(_HEADS))
        slots = sum(piece == "?" for piece in skeleton)
        memo = ShapeMemo(16)
        for _ in range(4):
            literals = iter(data.draw(st.lists(
                st.sampled_from(_LITERALS), min_size=slots,
                max_size=slots)))
            sql = head + "".join(
                next(literals) if piece == "?" else piece
                for piece in skeleton)
            assert normalize_statement(sql, memo) == normalize_statement(
                sql), sql


_HEADS = ["SELECT ", "select a FROM t WHERE ", "INSERT INTO t VALUES (",
          "UPDATE t SET a = ", "DELETE FROM t WHERE ", " /* c */ SELECT ",
          "-- 1\nSELECT ", "EXEC p ", ""]
_SKELETON_PIECES = st.sampled_from(
    ["?", "?", "?", " ", "", "\n", "a", "x", "#", "#t", "@p", "@__lit0", "@",
     "WHERE", "AND", "OR", "NOT", "ORDER BY", "TOP", "LIMIT", "DATE",
     "INTERVAL", "DAY", "ASC", "IN", "FROM", "=", "<>", "<", ">=", "(",
     ")", ",", "+", "-", ".", "*", ";", "'", "-- c\n", "/* 5 'q' */",
     "--", "e"])
_LITERALS = ["0", "1", "5", "10", "007", "٣", "1.5", "1.5e3", ".5", "5.",
             "2E-1", "'x'", "'x''y'", "''", "'2001-04-02'", "'2001-13-40'",
             "'5'", "'--'", "'@__lit1'"]


# ---------------------------------------------------------------------------
# Plan reuse and invalidation (engine level)
# ---------------------------------------------------------------------------


@pytest.fixture
def cached_run(run, engine):
    """Like ``run``, returning (rows, hits-delta) per call."""

    def _go(sql):
        before = engine.cache_stats["plan_hits"]
        rows = run(sql)
        return rows, engine.cache_stats["plan_hits"] - before

    return _go


@pytest.fixture
def people(run):
    run("CREATE TABLE people (id INT NOT NULL, name VARCHAR(20), "
        "age INT, PRIMARY KEY (id))")
    run("INSERT INTO people (id, name, age) VALUES "
        "(1, 'alice', 30), (2, 'bob', 25), (3, 'carol', 35)")


class TestPlanReuse:
    def test_second_execution_hits(self, cached_run, people):
        _, hits = cached_run("SELECT name FROM people WHERE age > 20")
        assert hits == 0
        rows, hits = cached_run("SELECT name FROM people WHERE age > 20")
        assert hits == 1
        assert sorted(rows) == [("alice",), ("bob",), ("carol",)]

    def test_different_literals_share_plan(self, cached_run, people):
        rows, _ = cached_run("SELECT name FROM people WHERE id = 1")
        assert rows == [("alice",)]
        rows, hits = cached_run("SELECT name FROM people WHERE id = 3")
        assert hits == 1
        assert rows == [("carol",)]

    def test_template_the_parser_rejects_is_taken_verbatim(self, engine,
                                                           run, people):
        """A template that hid a literal the grammar needed is
        remembered as verbatim for every text of its shape."""
        sql = "SELECT CAST(age AS VARCHAR(10)) FROM people WHERE id = {}"
        with pytest.raises(SqlSyntaxError):
            run(sql.format(1))
        assert normalize_statement(sql.format(1)) is not None
        assert normalize_statement(sql.format(2), engine._shapes) is None

    def test_cached_rows_match_cold_engine(self, people, run):
        cold = verbatim(DatabaseEngine(meter=Meter()))
        cold_session = EngineSession(session_id=9)
        cold.execute("CREATE TABLE people (id INT NOT NULL, "
                     "name VARCHAR(20), age INT, PRIMARY KEY (id))",
                     cold_session)
        cold.execute("INSERT INTO people (id, name, age) VALUES "
                     "(1, 'alice', 30), (2, 'bob', 25), (3, 'carol', 35)",
                     cold_session)
        for key in (1, 2, 3, 2, 1):
            sql = f"SELECT name, age FROM people WHERE id = {key}"
            assert run(sql) == cold.execute(sql,
                                            cold_session).fetch_all()

    def test_param_type_change_replans(self, engine, session, people):
        # A VARCHAR(5) vs VARCHAR(6) literal is a different signature —
        # both must execute correctly, as separate plan entries.
        sql = "SELECT id FROM people WHERE name = {0!r}"
        assert engine.execute(sql.format("bob"), session).fetch_all() \
            == [(2,)]
        assert engine.execute(sql.format("carol"), session).fetch_all() \
            == [(3,)]

    def test_script_member_reuses_the_plan_it_compiled_alone(self):
        """A script request prepares each statement as if it had arrived
        alone, so a member hits the plan its template compiled."""
        server = DatabaseServer(meter=Meter())
        token = BenchmarkApp(server).conn.session_token
        engine = server.engine
        for sql in ("CREATE TABLE t (a INT NOT NULL, PRIMARY KEY (a))",
                    "INSERT INTO t VALUES (1), (2)",
                    "SELECT a FROM t WHERE a = 1"):
            server.handle(ExecuteRequest(session_token=token, sql=sql))
        hits = engine.cache_stats["plan_hits"]
        response = server.handle(ExecuteRequest(
            session_token=token, script=True,
            sql="BEGIN TRANSACTION; SELECT a FROM t WHERE a = 2"))
        assert response.rows == [(2,)]
        assert engine.cache_stats["plan_hits"] == hits + 1

    def test_sys_plan_cache_view(self, run, people):
        run("SELECT * FROM people WHERE id = 1")
        run("SELECT * FROM people WHERE id = 2")
        stats = dict(run("SELECT metric, value FROM sys_plan_cache"))
        assert stats["plan_hits"] >= 1
        assert stats["plan_entries"] >= 1


class TestInvalidation:
    def test_create_table_bumps_version(self, run, engine):
        before = engine.catalog.schema_version
        run("CREATE TABLE t (a INT)")
        assert engine.catalog.version_of("t") == 1
        assert engine.catalog.schema_version > before

    def test_drop_table_evicts_plan(self, run, engine, people):
        run("SELECT name FROM people WHERE id = 1")
        # Two entries: the fixture INSERT (DML plans are cached too) and
        # this SELECT.
        assert len(engine._plan_cache) == 2
        run("DROP TABLE people")
        run("CREATE TABLE people (id INT, name VARCHAR(20), age INT)")
        run("INSERT INTO people VALUES (7, 'dora', 40)")
        before = engine.cache_stats["plan_invalidations"]
        assert run("SELECT name FROM people WHERE id = 7") == [("dora",)]
        assert engine.cache_stats["plan_invalidations"] == before + 1

    def test_create_index_invalidates_and_is_used(self, run, engine,
                                                  people):
        run("SELECT name FROM people WHERE age = 25")
        run("CREATE INDEX ix_age ON people (age)")
        before = engine.cache_stats["plan_invalidations"]
        assert run("SELECT name FROM people WHERE age = 25") == [("bob",)]
        assert engine.cache_stats["plan_invalidations"] == before + 1
        plan = run("EXPLAIN SELECT name FROM people WHERE age = 25")
        assert any("ix_age" in str(row) for row in plan)

    def test_create_index_replans_range_to_index_scan(self, run, engine,
                                                      people):
        # Cache the pre-index range plan, create the index, and check
        # the stale SeqScan plan is not served: the replan must pick
        # the ordered IndexRangeScan access path.
        run("SELECT name FROM people WHERE age > 20")
        run("CREATE INDEX ix_age ON people (age)")
        before = engine.cache_stats["plan_invalidations"]
        # No ORDER BY: the index path returns age order, not heap order.
        assert sorted(run("SELECT name FROM people WHERE age > 20")) == \
            [("alice",), ("bob",), ("carol",)]
        assert engine.cache_stats["plan_invalidations"] == before + 1
        plan = run("EXPLAIN SELECT name FROM people WHERE age > 20")
        assert any("IndexRangeScan" in str(row) for row in plan)

    def test_drop_index_invalidates_back_to_seq_scan(self, run, engine,
                                                     people):
        run("CREATE INDEX ix_age ON people (age)")
        plan = run("EXPLAIN SELECT name FROM people WHERE age = 25")
        assert any("ix_age" in str(row) for row in plan)
        run("SELECT name FROM people WHERE age = 25")
        run("DROP INDEX ix_age")
        before = engine.cache_stats["plan_invalidations"]
        assert run("SELECT name FROM people WHERE age = 25") == [("bob",)]
        assert engine.cache_stats["plan_invalidations"] == before + 1
        plan = run("EXPLAIN SELECT name FROM people WHERE age = 25")
        assert not any("ix_age" in str(row) for row in plan)
        assert any("SeqScan" in str(row) for row in plan)

    def test_unrelated_ddl_keeps_plan(self, run, engine, people):
        run("SELECT name FROM people WHERE id = 1")
        run("CREATE TABLE other (x INT)")
        before = engine.cache_stats["plan_hits"]
        run("SELECT name FROM people WHERE id = 1")
        assert engine.cache_stats["plan_hits"] == before + 1


class TestTempTablePlans:
    def test_temp_plan_is_session_scoped(self, engine, session, run):
        run("CREATE TABLE #scratch (a INT)")
        run("INSERT INTO #scratch VALUES (1), (2)")
        assert run("SELECT a FROM #scratch WHERE a = 1") == [(1,)]
        # INSERT and SELECT plans both live on the session, not the engine.
        assert len(session.plan_cache) == 2
        assert len(engine._plan_cache) == 0
        other = EngineSession(session_id=2)
        with pytest.raises(Exception):
            engine.execute("SELECT a FROM #scratch WHERE a = 1", other)

    def test_temp_plan_dies_with_session(self, engine, run, session):
        run("CREATE TABLE #scratch (a INT)")
        run("INSERT INTO #scratch VALUES (1)")
        run("SELECT a FROM #scratch WHERE a = 1")
        # A crash kills the session; the replacement session re-creates
        # the temp table and must not see the old session's plan.
        fresh = EngineSession(session_id=3)
        engine.execute("CREATE TABLE #scratch (a VARCHAR(5))", fresh)
        engine.execute("INSERT INTO #scratch VALUES ('x')", fresh)
        assert engine.execute("SELECT a FROM #scratch WHERE a = 'x'",
                              fresh).fetch_all() == [("x",)]
        assert len(fresh.plan_cache) == 2  # its INSERT and its SELECT

    def test_recreated_temp_table_invalidates(self, run, session):
        run("CREATE TABLE #scratch (a INT)")
        run("INSERT INTO #scratch VALUES (1)")
        assert run("SELECT a FROM #scratch WHERE a = 1") == [(1,)]
        run("DROP TABLE #scratch")
        run("CREATE TABLE #scratch (a INT)")
        run("INSERT INTO #scratch VALUES (5)")
        # Same text, same session — but the runtime object changed, so
        # the cached plan must not resurrect the dropped heap.
        assert run("SELECT a FROM #scratch WHERE a = 5") == [(5,)]


# ---------------------------------------------------------------------------
# Per-execution constants: parameter subtrees evaluated once per execution
# ---------------------------------------------------------------------------


def _shipped_on(i: int) -> datetime.date:
    return datetime.date(1990 + i % 9 // 2, 1 + i % 12, 15)


@pytest.fixture
def shipments(run):
    run("CREATE TABLE shipments (id INT NOT NULL, shipped DATE, "
        "PRIMARY KEY (id))")
    run("INSERT INTO shipments (id, shipped) VALUES " + ", ".join(
        f"({i}, date '{_shipped_on(i).isoformat()}')" for i in range(40)))


def _q06_shaped(year: int) -> str:
    return (f"SELECT id FROM shipments WHERE shipped >= date '{year}-01-01' "
            f"AND shipped < date '{year}-01-01' + interval '1' year "
            f"ORDER BY id")


def _shipped_in(year: int) -> list[tuple]:
    return [(i,) for i in range(40) if _shipped_on(i).year == year]


class TestPerExecutionConstants:
    """``date 'd' + interval '1' year`` becomes ``@__litN + interval`` in
    the cached template: evaluated once per execution, and again after
    every rebind."""

    def test_rebound_date_moves_the_window(self, cached_run, shipments):
        first, _ = cached_run(_q06_shaped(1991))
        second, hits = cached_run(_q06_shaped(1994))
        assert hits == 1
        assert first == _shipped_in(1991) and second == _shipped_in(1994)
        assert len(first) != len(second)

    def test_suspended_stream_and_a_second_execution_keep_their_rows(
            self, engine, session, shipments):
        engine.execute(_q06_shaped(1990), session).fetch_all()
        # The one entry with a hoisted subtree: the SELECT's.
        (entry,) = [e for e in engine._plan_cache.values()
                    if e.param_memos]
        suspended = engine.execute(_q06_shaped(1991), session).rows
        head = next(suspended)
        assert entry.active > 0
        hits = engine.cache_stats["plan_hits"]
        other = engine.execute(_q06_shaped(1993), session).fetch_all()
        assert engine.cache_stats["plan_hits"] == hits  # planned afresh
        assert other == _shipped_in(1993)
        assert [head, *suspended] == _shipped_in(1991)
        assert entry.active == 0
        again = engine.execute(_q06_shaped(1994), session).fetch_all()
        assert engine.cache_stats["plan_hits"] == hits + 1
        assert again == _shipped_in(1994)

    @pytest.mark.parametrize("predicate, params, error", [
        ("a < @p + 'x'", {"p": 1}, TypeError),
        ("a = 1 OR @p < 5", {"p": datetime.date(1994, 1, 1)},
         TypeMismatchError),
    ])
    def test_raising_subtree_raises_only_over_rows(self, run, predicate,
                                                   params, error):
        run("CREATE TABLE t (a INT)")
        sql = f"SELECT a FROM t WHERE {predicate}"
        assert run(sql, params) == []
        run("INSERT INTO t VALUES (1), (2)")
        for _ in range(2):   # planned, then from the cache
            with pytest.raises(error):
                run(sql, params)


# ---------------------------------------------------------------------------
# Read-version stamps from the cached footprint
# ---------------------------------------------------------------------------


class TestCachedDependencies:
    """With the shared result cache on, every SELECT result is stamped
    with the DML versions of the tables its plan reads (and the key
    prefixes it sought in them).  A cached plan keeps the footprint its
    planner declared; the verbatim route plans every time.  The stamps
    must be equal, key for key, whatever DDL happens in between."""

    SCRIPT = (
        "CREATE TABLE a (k INT NOT NULL, v INT, PRIMARY KEY (k))",
        "CREATE TABLE b (k INT NOT NULL, v INT, PRIMARY KEY (k))",
        "INSERT INTO a VALUES (1, 10), (2, 20)",
        "INSERT INTO b VALUES (1, 11), (3, 31)",
        "CREATE VIEW vw AS SELECT k, v FROM a",
        "SELECT v FROM vw WHERE k = 1",
        "SELECT v FROM vw WHERE k = 2",            # plan-cache hit
        "UPDATE a SET v = v + 1 WHERE k = 1",      # bumps a's DML version
        "SELECT v FROM vw WHERE k = 1",
        # View redefinition: the same text now depends on b, not a.
        "DROP VIEW vw",
        "CREATE VIEW vw AS SELECT k, v FROM b",
        "SELECT v FROM vw WHERE k = 1",
        "SELECT v FROM vw WHERE k = 3",
        "SELECT a.v, b.v FROM a, b WHERE a.k = b.k AND a.k = 1",
        "SELECT v FROM a WHERE k IN (SELECT k FROM vw)",
        "DELETE FROM b WHERE k = 3",
        "SELECT a.v, b.v FROM a, b WHERE a.k = b.k AND a.k = 1",
        "SELECT v FROM a WHERE k IN (SELECT k FROM vw)",
        # Temp tables are never stamped — before and after a recreate.
        "CREATE TABLE #s (k INT)",
        "INSERT INTO #s VALUES (1)",
        "SELECT a.v FROM a, #s WHERE a.k = #s.k",
        "DROP TABLE #s",
        "CREATE TABLE #s (k INT)",
        "INSERT INTO #s VALUES (2)",
        "SELECT a.v FROM a, #s WHERE a.k = #s.k",
        "SELECT metric FROM sys_plan_cache",       # sys_* views neither
        "SELECT v FROM a WHERE k = 2",
        "CREATE VIEW vv AS SELECT k, v FROM vw WHERE k > 0",
        "SELECT v FROM vv WHERE k = 1",            # a view over a view
        "SELECT v FROM vv WHERE k = 3",
    )

    @staticmethod
    def _stamps(cached):
        """``(sql, rows, stamp, (plans, parses))`` per SELECT of the
        script: the plan-cache misses it caused and the
        ``parse_statement`` calls it made, the engine's (statement text)
        and the planner's (view bodies) together."""
        import repro.engine.database
        import repro.sql.parser
        from repro.sim.costs import CostModel

        engine = DatabaseEngine(
            meter=Meter(CostModel(result_cache_entries=8)))
        if not cached:
            verbatim(engine)
        session = EngineSession(session_id=1)
        parses = [0]
        parse = repro.sql.parser.parse_statement

        def counted(sql):
            parses[0] += 1
            return parse(sql)

        stamps = []
        with pytest.MonkeyPatch.context() as patch:
            for module in (repro.sql.parser, repro.engine.database):
                patch.setattr(module, "parse_statement", counted)
            for sql in TestCachedDependencies.SCRIPT:
                before = (engine.cache_stats["plan_misses"], parses[0])
                result = engine.execute(sql, session)
                if result.kind == "rows":
                    rows = result.fetch_all()
                    stamps.append((sql, rows, result.read_versions, (
                        engine.cache_stats["plan_misses"] - before[0],
                        parses[0] - before[1])))
        return stamps, engine

    def test_cached_stamps_equal_walked_stamps(self):
        cached, engine = self._stamps(cached=True)
        walked, _ = self._stamps(cached=False)
        assert [s[:3] for s in cached] == [s[:3] for s in walked]
        by_sql = [(sql, versions) for sql, _rows, versions, _w in cached]
        # The redefined view reads b; the first definition read a.
        assert set(by_sql[0][1]) == {"vw", "a"}
        assert set(by_sql[3][1]) == {"vw", "b"}
        # A stamp is (DML version, prefixes sought): the UPDATE moved
        # the version.
        assert by_sql[2][1]["a"][0] == by_sql[0][1]["a"][0] + 1
        assert [v for sql, v in by_sql if "#s" in sql] == [None, None]
        # A view over a view: both view names and the base table.
        assert set(by_sql[-1][1]) == {"vv", "vw", "b"}
        assert engine.cache_stats["plan_hits"] >= 4

    def test_plan_cache_hits_do_not_walk_the_statement(self):
        cached, _engine = self._stamps(cached=True)
        plans, parses = {}, {}
        for sql, _rows, _versions, (planned, parsed) in cached:
            key = sql.replace("= 2", "= 1").replace("= 3", "= 1")
            plans.setdefault(key, []).append(planned)
            parses.setdefault(key, []).append(parsed)
        # A miss plans (and stores the plan), a hit does not.
        assert plans["SELECT v FROM vw WHERE k = 1"] == [1, 0, 0, 1, 0]
        assert plans["SELECT a.v, b.v FROM a, b WHERE a.k = b.k "
                     "AND a.k = 1"] == [1, 0]
        # Each text and each view body is parsed once, by the planner
        # that expands it: the miss on a view over a view parses its
        # text, vv's body and vw's body; a hit parses nothing.  The
        # replan after vw is redefined parses only the new body — the
        # statement's template is cached.
        assert parses["SELECT v FROM vv WHERE k = 1"] == [3, 0]
        assert parses["SELECT v FROM vw WHERE k = 1"] == [2, 0, 0, 1, 0]

    def test_procedure_select_is_stamped_like_the_same_select_alone(self):
        """A SELECT in a procedure body has no text of its own, so it is
        planned afresh and never cached — and its result carries the
        read set the same SELECT carries when it is sent alone."""
        from repro.sim.costs import CostModel

        engine = DatabaseEngine(
            meter=Meter(CostModel(result_cache_entries=8)))
        session = EngineSession(session_id=1)
        for sql in ("CREATE TABLE a (k INT NOT NULL, v INT, "
                    "PRIMARY KEY (k))",
                    "INSERT INTO a VALUES (1, 10), (2, 20)",
                    "CREATE VIEW vw AS SELECT k, v FROM a",
                    "CREATE PROCEDURE p AS SELECT v FROM vw WHERE k = 1"):
            engine.execute(sql, session)
        alone = engine.execute("SELECT v FROM vw WHERE k = 1", session)
        in_body = engine.execute("EXEC p", session)
        assert in_body.fetch_all() == alone.fetch_all() == [(10,)]
        assert set(alone.read_versions) == {"vw", "a"}
        assert in_body.read_versions == alone.read_versions

    def test_knob_off_stamps_nothing(self, engine, session):
        engine.meter.costs.result_cache_entries = 0
        engine.execute("CREATE TABLE a (k INT)", session)
        for _ in range(2):  # compile, then reuse
            result = engine.execute("SELECT k FROM a WHERE k = 1", session)
            assert result.fetch_all() == []
            assert result.read_versions is None


# ---------------------------------------------------------------------------
# Virtual-time fidelity
# ---------------------------------------------------------------------------


def _fresh_world(cached=True):
    engine = DatabaseEngine(meter=Meter())
    if not cached:
        verbatim(engine)
    session = EngineSession(session_id=1)
    return engine, session


class TestVirtualFidelity:
    def _load_tpch(self, engine, session):
        from repro.workloads.tpch.datagen import generate
        from repro.workloads.tpch.schema import create_schema, load

        create_schema(engine, session)
        load(engine, session, generate(scale=0.0005, seed=11))

    def test_tpch_query_cold_vs_cached_meter_totals(self):
        """Acceptance regression: one TPC-H query, cold vs. cached."""
        from repro.workloads.tpch.queries import QUERIES

        totals = {}
        for cached in (False, True):
            engine, session = _fresh_world(cached)
            self._load_tpch(engine, session)
            marks = []
            rows = []
            for _ in range(3):  # cold, then (maybe) cached twice
                start = engine.meter.now
                rows.append(engine.execute(QUERIES[6],
                                           session).fetch_all())
                marks.append(engine.meter.now - start)
            totals[cached] = marks
            assert rows[0] == rows[1] == rows[2]
        assert totals[False] == totals[True]

    def test_phoenix_stream_caches_off_vs_on_same_clock(self):
        """The plan cache is a host-time optimization: the same stream of
        persisted results and wrapped updates costs the same virtual
        seconds on the verbatim route."""
        runs = {}
        for cached in (False, True):
            server = DatabaseServer(meter=Meter())
            if not cached:
                verbatim(server.engine)
            app = BenchmarkApp(server, use_phoenix=True)
            app.run_statement("CREATE TABLE t (k INT NOT NULL, v INT, "
                              "PRIMARY KEY (k))")
            app.run_statement("INSERT INTO t VALUES " + ", ".join(
                f"({i}, 0)" for i in range(30)))
            rows = []
            for turn in range(4):
                rows.append(app.query_rows("SELECT k, v FROM t ORDER BY k"))
                app.run_statement(
                    f"UPDATE t SET v = v + 1 WHERE k = {turn}")
            runs[cached] = (rows, server.meter.now)
            if cached:
                assert server.meter.counters["plan_cache_hits"] > 0
        assert runs[False] == runs[True]

    def test_execute_script_charges_like_execute(self):
        """A script request levies one per-statement parse/plan charge
        for each of its statements: the same virtual seconds, and the
        same charges, as sending the statements one by one."""
        script = ("INSERT INTO t VALUES (1); "
                  "INSERT INTO t VALUES (2); "
                  "SELECT a FROM t WHERE a = 1")
        runs = []
        for texts in ([script], script.split("; ")):
            server = DatabaseServer(meter=Meter())
            token = BenchmarkApp(server).conn.session_token
            server.handle(ExecuteRequest(session_token=token,
                                         sql="CREATE TABLE t (a INT)"))
            meter = server.meter
            start = meter.now
            sink = meter.push_recorder()
            for sql in texts:
                response = server.handle(ExecuteRequest(
                    session_token=token, sql=sql, script=len(texts) == 1))
            meter.pop_recorder(sink)
            notes = Counter(segment.note for segment in sink)
            runs.append((response.rows, meter.now - start,
                         notes["statement parse/plan"]))
        assert runs[0] == runs[1]
        assert runs[0][0] == [(1,)] and runs[0][2] == 3
