"""Unit tests for the SQL lexer and parser."""

import datetime

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ReproError, SqlSyntaxError
from repro.sql import ast
from repro.sql.lexer import tokenize
from repro.sql.parser import parse_script, parse_statement
from repro.sql.plan_cache import _number_value
from repro.sql.tokens import TokenType


class TestLexer:
    def test_keywords_and_identifiers(self):
        tokens = tokenize("SELECT foo FROM Bar_9")
        kinds = [(t.type, t.value) for t in tokens[:-1]]
        assert kinds == [(TokenType.KEYWORD, "SELECT"),
                         (TokenType.IDENTIFIER, "foo"),
                         (TokenType.KEYWORD, "FROM"),
                         (TokenType.IDENTIFIER, "Bar_9")]

    def test_end_token(self):
        assert tokenize("")[-1].type is TokenType.END

    def test_string_escape(self):
        tokens = tokenize("'it''s'")
        assert tokens[0].value == "it's"

    def test_unterminated_string(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("'oops")

    def test_numbers(self):
        values = [t.value for t in tokenize("1 2.5 .5 1e3 1.5E-2")[:-1]]
        assert values == ["1", "2.5", ".5", "1e3", "1.5E-2"]

    def test_operators(self):
        values = [t.value for t in tokenize("<= >= <> != || = < >")[:-1]]
        assert values == ["<=", ">=", "<>", "<>", "||", "=", "<", ">"]

    def test_comments_skipped(self):
        tokens = tokenize("SELECT 1 -- trailing\n/* block */ + 2")
        values = [t.value for t in tokens[:-1]]
        assert values == ["SELECT", "1", "+", "2"]

    def test_unterminated_block_comment(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("/* forever")

    def test_parameters_and_temp_names(self):
        tokens = tokenize("@Param #temp")
        assert tokens[0].type is TokenType.PARAMETER
        assert tokens[0].value == "param"
        assert tokens[1].type is TokenType.IDENTIFIER
        assert tokens[1].value == "#temp"

    def test_unexpected_character(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("SELECT ?")

    @pytest.mark.parametrize("text, kind, value", [
        ("café", TokenType.IDENTIFIER, "café"),
        ("'é'", TokenType.STRING, "é"),
        ("@é", TokenType.PARAMETER, "é"),
        ("#é", TokenType.IDENTIFIER, "#é"),
        ("١٢", TokenType.NUMBER, "١٢"),      # Arabic-Indic decimal digits
        ("²", TokenType.IDENTIFIER, "²"),    # a digit, but not a decimal one
    ])
    def test_unicode_text(self, text, kind, value):
        (token, end) = tokenize(text)
        assert (token.type, token.value) == (kind, value)
        assert end.type is TokenType.END

    def test_superscript_digit_is_a_sql_error(self):
        from repro.server.server import DatabaseServer
        from repro.sim.meter import Meter
        from repro.workloads.app import BenchmarkApp

        app = BenchmarkApp(DatabaseServer(meter=Meter()))
        app.run_statement("CREATE TABLE t (k INT NOT NULL, PRIMARY KEY (k))")
        with pytest.raises(ReproError, match="unknown column"):
            app.query_rows("SELECT ² FROM t")
        assert app.query_rows("SELECT k FROM t WHERE k = ١٢") == []

    @given(st.text())
    def test_any_text_tokens_or_syntax_error(self, text):
        try:
            tokens = tokenize(text)
        except SqlSyntaxError:
            return
        assert tokens[-1].type is TokenType.END
        for token in tokens:
            if token.type is TokenType.NUMBER:
                _number_value(token.value)


class TestParserSelect:
    def test_simple(self):
        stmt = parse_statement("SELECT a, b FROM t")
        assert isinstance(stmt, ast.SelectStatement)
        assert len(stmt.select_items) == 2
        assert isinstance(stmt.from_items[0], ast.TableName)

    def test_top_distinct(self):
        stmt = parse_statement("SELECT TOP 5 DISTINCT a FROM t")
        assert stmt.top == 5
        assert stmt.distinct

    def test_limit_maps_to_top(self):
        stmt = parse_statement("SELECT a FROM t LIMIT 3")
        assert stmt.top == 3

    def test_aliases(self):
        stmt = parse_statement("SELECT a AS x, b y FROM t u")
        assert stmt.select_items[0].alias == "x"
        assert stmt.select_items[1].alias == "y"
        assert stmt.from_items[0].alias == "u"

    def test_group_having_order(self):
        stmt = parse_statement(
            "SELECT a, count(*) FROM t GROUP BY a HAVING count(*) > 1 "
            "ORDER BY 2 DESC, a")
        assert len(stmt.group_by) == 1
        assert stmt.having is not None
        assert stmt.order_by[0].descending
        assert not stmt.order_by[1].descending

    def test_joins(self):
        stmt = parse_statement(
            "SELECT * FROM a JOIN b ON a.x = b.x "
            "LEFT OUTER JOIN c ON b.y = c.y")
        join = stmt.from_items[0]
        assert isinstance(join, ast.Join)
        assert join.kind == "left"
        assert isinstance(join.left, ast.Join)
        assert join.left.kind == "inner"

    def test_right_join_rejected(self):
        with pytest.raises(SqlSyntaxError):
            parse_statement("SELECT * FROM a RIGHT JOIN b ON a.x = b.x")

    def test_derived_table(self):
        stmt = parse_statement("SELECT * FROM (SELECT 1 AS one) AS d")
        derived = stmt.from_items[0]
        assert isinstance(derived, ast.DerivedTable)
        assert derived.alias == "d"

    def test_subqueries(self):
        stmt = parse_statement(
            "SELECT a FROM t WHERE a IN (SELECT b FROM u) "
            "AND EXISTS (SELECT * FROM v) "
            "AND a > (SELECT max(b) FROM u)")
        conj = stmt.where
        assert isinstance(conj, ast.Binary) and conj.op == "AND"

    def test_case_expression(self):
        stmt = parse_statement(
            "SELECT CASE WHEN a > 0 THEN 'pos' WHEN a < 0 THEN 'neg' "
            "ELSE 'zero' END FROM t")
        case = stmt.select_items[0].expr
        assert isinstance(case, ast.CaseWhen)
        assert len(case.whens) == 2
        assert case.else_result is not None

    def test_date_and_interval(self):
        stmt = parse_statement(
            "SELECT date '1998-12-01' - interval '90' day")
        expr = stmt.select_items[0].expr
        assert isinstance(expr, ast.Binary)
        assert expr.left.value == datetime.date(1998, 12, 1)
        assert isinstance(expr.right, ast.Interval)
        assert expr.right.amount == 90

    def test_bad_date(self):
        with pytest.raises(SqlSyntaxError):
            parse_statement("SELECT date 'not-a-date'")

    def test_extract_and_substring(self):
        stmt = parse_statement(
            "SELECT extract(year FROM d), substring(s, 1, 2), "
            "substring(s FROM 3) FROM t")
        assert isinstance(stmt.select_items[0].expr, ast.Extract)
        sub = stmt.select_items[1].expr
        assert isinstance(sub, ast.FuncCall) and len(sub.args) == 3

    def test_count_star_and_distinct(self):
        stmt = parse_statement("SELECT count(*), count(DISTINCT a) FROM t")
        star = stmt.select_items[0].expr
        distinct = stmt.select_items[1].expr
        assert star.star
        assert distinct.distinct

    def test_between_not_in_like(self):
        stmt = parse_statement(
            "SELECT * FROM t WHERE a BETWEEN 1 AND 2 "
            "AND b NOT IN (1, 2) AND c LIKE 'x%' AND d IS NOT NULL")
        assert stmt.where is not None

    def test_operator_precedence(self):
        stmt = parse_statement("SELECT 1 + 2 * 3")
        expr = stmt.select_items[0].expr
        assert expr.op == "+"
        assert expr.right.op == "*"

    def test_trailing_garbage_rejected(self):
        with pytest.raises(SqlSyntaxError):
            parse_statement("SELECT 1 SELECT 2")


class TestParserOther:
    def test_insert_values(self):
        stmt = parse_statement(
            "INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')")
        assert stmt.columns == ["a", "b"]
        assert len(stmt.rows) == 2

    def test_insert_select(self):
        stmt = parse_statement("INSERT INTO t SELECT a FROM u")
        assert stmt.select is not None

    def test_update(self):
        stmt = parse_statement("UPDATE t SET a = 1, b = b + 1 WHERE c = 2")
        assert len(stmt.assignments) == 2
        assert stmt.where is not None

    def test_delete(self):
        stmt = parse_statement("DELETE FROM t WHERE a = 1")
        assert stmt.table == "t"

    def test_create_table(self):
        stmt = parse_statement(
            "CREATE TABLE t (a INT NOT NULL, b VARCHAR(10), "
            "c DECIMAL(12, 2), PRIMARY KEY (a))")
        assert [c.name for c in stmt.columns] == ["a", "b", "c"]
        assert not stmt.columns[0].nullable
        assert stmt.columns[1].length == 10
        assert stmt.primary_key == ["a"]

    def test_inline_primary_key(self):
        stmt = parse_statement("CREATE TABLE t (a INT PRIMARY KEY)")
        assert stmt.primary_key == ["a"]

    def test_create_index(self):
        stmt = parse_statement("CREATE UNIQUE INDEX ix ON t (a, b)")
        assert stmt.unique
        assert stmt.columns == ["a", "b"]

    def test_create_procedure_captures_body(self):
        stmt = parse_statement(
            "CREATE PROCEDURE p (@x INT) AS INSERT INTO t VALUES (@x)")
        assert stmt.params == [("x", "INT")]
        assert stmt.body_sql == "INSERT INTO t VALUES (@x)"

    def test_exec(self):
        stmt = parse_statement("EXEC p 1, 'two'")
        assert stmt.name == "p"
        assert len(stmt.args) == 2

    def test_transactions(self):
        assert isinstance(parse_statement("BEGIN TRANSACTION"),
                          ast.BeginTransactionStatement)
        assert isinstance(parse_statement("COMMIT"), ast.CommitStatement)
        assert isinstance(parse_statement("ROLLBACK TRAN"),
                          ast.RollbackStatement)

    def test_script(self):
        stmts = parse_script("SELECT 1; SELECT 2;")
        assert len(stmts) == 2

    def test_unknown_statement(self):
        with pytest.raises(SqlSyntaxError):
            parse_statement("GRANT stuff")
