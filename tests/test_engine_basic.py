"""End-to-end engine tests: DDL, DML, SELECT through SQL text."""

import datetime

import pytest

from repro.errors import (
    CatalogError,
    ConstraintError,
    EngineError,
    SqlSyntaxError,
    TableExistsError,
    TableNotFoundError,
    TransactionError,
)


@pytest.fixture
def people(run):
    run("CREATE TABLE people (id INT NOT NULL, name VARCHAR(20), "
        "age INT, PRIMARY KEY (id))")
    run("INSERT INTO people (id, name, age) VALUES "
        "(1, 'alice', 30), (2, 'bob', 25), (3, 'carol', 35)")


class TestDdl:
    def test_create_and_select_empty(self, run):
        run("CREATE TABLE t (a INT, b VARCHAR(10))")
        assert run("SELECT * FROM t") == []

    def test_create_duplicate_fails(self, run):
        run("CREATE TABLE t (a INT)")
        with pytest.raises(EngineError):
            run("CREATE TABLE t (a INT)")

    def test_ddl_names_fold_to_lowercase(self, run, engine):
        """Object, column and primary-key names are stored lowercased,
        so a second CREATE in another case clashes with the first."""
        run("CREATE TABLE T (ID INT NOT NULL, PRIMARY KEY (ID))")
        info = engine.catalog.tables["t"]
        assert (info.name, info.primary_key) == ("t", ("id",))
        assert [c.name for c in info.columns] == ["id"]
        with pytest.raises(TableExistsError):
            run("CREATE TABLE t (a INT)")
        run("CREATE INDEX IX ON T (ID)")
        index = engine.catalog.indexes["ix"]
        assert (index.table_name, index.column_names) == ("t", ("id",))
        with pytest.raises(CatalogError):
            run("CREATE INDEX ix ON t (id)")
        run("DROP INDEX IX")
        run("DROP TABLE T")
        assert engine.catalog.tables == {}

    def test_drop_table(self, run):
        run("CREATE TABLE t (a INT)")
        run("DROP TABLE t")
        with pytest.raises(TableNotFoundError):
            run("SELECT * FROM t")

    def test_create_index(self, run, people):
        run("CREATE INDEX ix_age ON people (age)")
        assert run("SELECT name FROM people WHERE age = 25") == [("bob",)]

    def test_unique_index_enforced(self, run, people):
        run("CREATE UNIQUE INDEX ix_name ON people (name)")
        with pytest.raises(ConstraintError):
            run("INSERT INTO people (id, name, age) VALUES (4, 'alice', 1)")


class TestDml:
    def test_insert_returns_rowcount(self, run):
        run("CREATE TABLE t (a INT)")
        assert run("INSERT INTO t VALUES (1), (2), (3)") == 3

    def test_insert_partial_columns_null_fill(self, run):
        run("CREATE TABLE t (a INT, b VARCHAR(5))")
        run("INSERT INTO t (a) VALUES (1)")
        assert run("SELECT * FROM t") == [(1, None)]

    def test_insert_not_null_enforced(self, run):
        run("CREATE TABLE t (a INT NOT NULL, b INT)")
        with pytest.raises(EngineError):
            run("INSERT INTO t (b) VALUES (1)")

    def test_primary_key_duplicate_rejected(self, run, people):
        with pytest.raises(ConstraintError):
            run("INSERT INTO people (id, name, age) VALUES (1, 'dup', 1)")

    def test_update(self, run, people):
        assert run("UPDATE people SET age = age + 1 WHERE name = 'bob'") == 1
        assert run("SELECT age FROM people WHERE name = 'bob'") == [(26,)]

    def test_update_all_rows(self, run, people):
        assert run("UPDATE people SET age = 0") == 3

    def test_delete(self, run, people):
        assert run("DELETE FROM people WHERE age > 28") == 2
        assert run("SELECT name FROM people") == [("bob",)]

    def test_insert_select(self, run, people):
        run("CREATE TABLE names (n VARCHAR(20))")
        assert run("INSERT INTO names SELECT name FROM people "
                   "WHERE age >= 30") == 2
        assert sorted(run("SELECT * FROM names")) == [("alice",), ("carol",)]

    def test_insert_coerces_types(self, run):
        run("CREATE TABLE t (a FLOAT, d DATE)")
        run("INSERT INTO t VALUES (1, '2001-04-01')")
        rows = run("SELECT * FROM t")
        assert rows == [(1.0, datetime.date(2001, 4, 1))]


class TestSelect:
    def test_projection_and_aliases(self, run, people):
        rows = run("SELECT name AS who, age * 2 AS dbl FROM people "
                   "WHERE id = 1")
        assert rows == [("alice", 60)]

    def test_where_comparisons(self, run, people):
        assert len(run("SELECT * FROM people WHERE age BETWEEN 25 AND 30")) == 2
        assert len(run("SELECT * FROM people WHERE name LIKE 'a%'")) == 1
        assert len(run("SELECT * FROM people WHERE id IN (1, 3)")) == 2
        assert len(run("SELECT * FROM people WHERE NOT (age = 25)")) == 2

    def test_order_by(self, run, people):
        rows = run("SELECT name FROM people ORDER BY age DESC")
        assert rows == [("carol",), ("alice",), ("bob",)]

    def test_order_by_position(self, run, people):
        rows = run("SELECT name, age FROM people ORDER BY 2")
        assert [r[1] for r in rows] == [25, 30, 35]

    def test_top(self, run, people):
        rows = run("SELECT TOP 2 name FROM people ORDER BY age")
        assert rows == [("bob",), ("alice",)]

    def test_distinct(self, run):
        run("CREATE TABLE t (a INT)")
        run("INSERT INTO t VALUES (1), (1), (2)")
        assert sorted(run("SELECT DISTINCT a FROM t")) == [(1,), (2,)]

    def test_aggregates(self, run, people):
        rows = run("SELECT count(*), sum(age), min(age), max(age), avg(age) "
                   "FROM people")
        assert rows == [(3, 90, 25, 35, 30.0)]

    def test_aggregate_empty_input(self, run):
        run("CREATE TABLE t (a INT)")
        assert run("SELECT count(*), sum(a) FROM t") == [(0, None)]

    def test_group_by_having(self, run):
        run("CREATE TABLE sales (region VARCHAR(5), amount INT)")
        run("INSERT INTO sales VALUES ('e', 10), ('e', 20), ('w', 5)")
        rows = run("SELECT region, sum(amount) AS total FROM sales "
                   "GROUP BY region HAVING sum(amount) > 10 "
                   "ORDER BY total DESC")
        assert rows == [("e", 30)]

    def test_count_distinct(self, run):
        run("CREATE TABLE t (a INT)")
        run("INSERT INTO t VALUES (1), (1), (2), (NULL)")
        assert run("SELECT count(DISTINCT a) FROM t") == [(2,)]

    def test_join_implicit(self, run, people):
        run("CREATE TABLE pets (owner_id INT, pet VARCHAR(10))")
        run("INSERT INTO pets VALUES (1, 'cat'), (3, 'dog'), (3, 'fish')")
        rows = run("SELECT name, pet FROM people, pets "
                   "WHERE id = owner_id ORDER BY pet")
        assert rows == [("alice", "cat"), ("carol", "dog"),
                        ("carol", "fish")]

    def test_join_explicit_inner(self, run, people):
        run("CREATE TABLE pets (owner_id INT, pet VARCHAR(10))")
        run("INSERT INTO pets VALUES (1, 'cat')")
        rows = run("SELECT p.name, x.pet FROM people p "
                   "JOIN pets x ON p.id = x.owner_id")
        assert rows == [("alice", "cat")]

    def test_left_join_pads_nulls(self, run, people):
        run("CREATE TABLE pets (owner_id INT, pet VARCHAR(10))")
        run("INSERT INTO pets VALUES (1, 'cat')")
        rows = run("SELECT name, pet FROM people LEFT JOIN pets "
                   "ON id = owner_id ORDER BY name")
        assert rows == [("alice", "cat"), ("bob", None), ("carol", None)]

    def test_scalar_subquery(self, run, people):
        rows = run("SELECT name FROM people "
                   "WHERE age = (SELECT max(age) FROM people)")
        assert rows == [("carol",)]

    def test_in_subquery(self, run, people):
        run("CREATE TABLE vip (vid INT)")
        run("INSERT INTO vip VALUES (1), (3)")
        rows = run("SELECT name FROM people WHERE id IN "
                   "(SELECT vid FROM vip) ORDER BY name")
        assert rows == [("alice",), ("carol",)]

    def test_correlated_exists(self, run, people):
        run("CREATE TABLE pets (owner_id INT, pet VARCHAR(10))")
        run("INSERT INTO pets VALUES (1, 'cat'), (3, 'dog')")
        rows = run("SELECT name FROM people p WHERE EXISTS "
                   "(SELECT * FROM pets WHERE owner_id = p.id) "
                   "ORDER BY name")
        assert rows == [("alice",), ("carol",)]

    def test_derived_table(self, run, people):
        rows = run("SELECT avg(a) FROM "
                   "(SELECT age AS a FROM people WHERE age > 25) AS olds")
        assert rows == [(32.5,)]

    def test_case_when(self, run, people):
        rows = run("SELECT name, CASE WHEN age >= 30 THEN 'old' "
                   "ELSE 'young' END FROM people ORDER BY name")
        assert rows == [("alice", "old"), ("bob", "young"),
                        ("carol", "old")]

    def test_select_without_from(self, run):
        assert run("SELECT 1") == [(1,)]
        assert run("SELECT 1 + 2 AS three") == [(3,)]

    def test_where_0_eq_1_returns_nothing(self, run, people):
        assert run("SELECT * FROM people WHERE 0 = 1") == []

    def test_star_qualified(self, run, people):
        rows = run("SELECT p.* FROM people p WHERE p.id = 2")
        assert rows == [(2, "bob", 25)]

    def test_null_comparisons_are_unknown(self, run):
        run("CREATE TABLE t (a INT)")
        run("INSERT INTO t VALUES (1), (NULL)")
        assert run("SELECT * FROM t WHERE a = 1") == [(1,)]
        assert run("SELECT * FROM t WHERE a <> 1") == []
        assert run("SELECT * FROM t WHERE a IS NULL") == [(None,)]
        assert run("SELECT * FROM t WHERE a IS NOT NULL") == [(1,)]

    def test_string_functions(self, run):
        assert run("SELECT substring('phoenix', 1, 4)") == [("phoe",)]
        assert run("SELECT upper('abc') || lower('DEF')") == [("ABCdef",)]

    def test_date_arithmetic(self, run):
        rows = run("SELECT date '1998-12-01' - interval '90' day")
        assert rows == [(datetime.date(1998, 9, 2),)]
        rows = run("SELECT extract(year FROM date '1995-03-15')")
        assert rows == [(1995,)]


class TestTransactions:
    def test_commit_persists(self, run):
        run("CREATE TABLE t (a INT)")
        run("BEGIN TRANSACTION")
        run("INSERT INTO t VALUES (1)")
        run("COMMIT")
        assert run("SELECT * FROM t") == [(1,)]

    def test_rollback_undoes(self, run):
        run("CREATE TABLE t (a INT)")
        run("INSERT INTO t VALUES (0)")
        run("BEGIN TRANSACTION")
        run("INSERT INTO t VALUES (1)")
        run("UPDATE t SET a = 99 WHERE a = 0")
        run("ROLLBACK")
        assert run("SELECT * FROM t") == [(0,)]

    def test_rollback_undoes_delete(self, run):
        run("CREATE TABLE t (a INT)")
        run("INSERT INTO t VALUES (1), (2)")
        run("BEGIN TRANSACTION")
        run("DELETE FROM t")
        run("ROLLBACK")
        assert sorted(run("SELECT * FROM t")) == [(1,), (2,)]

    def test_commit_without_begin_fails(self, run):
        with pytest.raises(TransactionError):
            run("COMMIT")

    def test_rollback_restores_indexes(self, run, people):
        run("BEGIN TRANSACTION")
        run("DELETE FROM people WHERE id = 1")
        run("ROLLBACK")
        # Point lookup goes through the PK index.
        assert run("SELECT name FROM people WHERE id = 1") == [("alice",)]


class TestProcedures:
    def test_create_and_exec(self, run):
        run("CREATE TABLE t (a INT)")
        run("CREATE PROCEDURE fill (@v INT) AS INSERT INTO t VALUES (@v)")
        run("EXEC fill 7")
        assert run("SELECT * FROM t") == [(7,)]

    def test_proc_returns_last_result(self, run, people):
        run("CREATE PROCEDURE who (@age INT) AS "
            "SELECT name FROM people WHERE age > @age")
        assert run("EXEC who 28") == [("alice",), ("carol",)]

    def test_wrong_arity_fails(self, run):
        run("CREATE PROCEDURE p (@a INT) AS SELECT 1")
        with pytest.raises(EngineError):
            run("EXEC p 1, 2")


class TestTempTables:
    def test_temp_table_lifecycle(self, run):
        run("CREATE TABLE #probe (a INT)")
        run("INSERT INTO #probe VALUES (1)")
        assert run("SELECT * FROM #probe") == [(1,)]
        run("DROP TABLE #probe")
        with pytest.raises(TableNotFoundError):
            run("SELECT * FROM #probe")

    def test_temp_tables_are_per_session(self, engine, session):
        from repro.engine.session import EngineSession

        engine.execute("CREATE TABLE #t (a INT)", session)
        other = EngineSession(session_id=2)
        with pytest.raises(TableNotFoundError):
            engine.execute("SELECT * FROM #t", other)


class TestErrors:
    def test_syntax_error(self, run):
        with pytest.raises(SqlSyntaxError):
            run("SELEKT * FROM t")

    def test_unknown_column(self, run, people):
        from repro.errors import ColumnNotFoundError

        with pytest.raises(ColumnNotFoundError):
            run("SELECT ghost FROM people")
