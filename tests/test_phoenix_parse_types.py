"""Unit tests for request classification and the types module."""

import datetime

import pytest

from repro.errors import TypeMismatchError
from repro.phoenix.parse import RequestClass, classify_request
from repro.sim.meter import Meter
from repro.types import (
    Column,
    SqlType,
    coerce,
    infer_sql_type,
    row_width_bytes,
    value_width_bytes,
)


class TestClassifyRequest:
    @pytest.mark.parametrize("sql,expected", [
        ("SELECT * FROM t", RequestClass.RESULT_QUERY),
        ("  select 1", RequestClass.RESULT_QUERY),
        ("INSERT INTO t VALUES (1)", RequestClass.UPDATE),
        ("update t set a = 1", RequestClass.UPDATE),
        ("DELETE FROM t", RequestClass.UPDATE),
        ("CREATE TABLE t (a INT)", RequestClass.DDL),
        ("DROP TABLE t", RequestClass.DDL),
        ("EXEC p 1", RequestClass.EXEC),
        ("execute p", RequestClass.EXEC),
        ("BEGIN TRANSACTION", RequestClass.BEGIN),
        ("COMMIT", RequestClass.COMMIT),
        ("ROLLBACK", RequestClass.ROLLBACK),
        ("WHATEVER", RequestClass.OTHER),
        ("", RequestClass.OTHER),
        # The first word as the server's lexer reads it.
        ("SELECT'a'", RequestClass.RESULT_QUERY),
        ("SELECT1 FROM t", RequestClass.OTHER),
        ("/* unterminated SELECT 1", RequestClass.OTHER),
        ("-- SELECT 1", RequestClass.OTHER),
    ])
    def test_classification(self, sql, expected):
        assert classify_request(sql) is expected

    def test_leading_comments_skipped(self):
        sql = "-- a comment\n/* another */ SELECT 1"
        assert classify_request(sql) is RequestClass.RESULT_QUERY

    def test_charges_parse_cost(self):
        meter = Meter()
        classify_request("SELECT 1", meter)
        assert meter.now == pytest.approx(
            meter.costs.client_parse_seconds)


class TestCoerce:
    def test_none_passes_through(self):
        assert coerce(None, SqlType.INTEGER) is None

    def test_int_conversions(self):
        assert coerce("42", SqlType.INTEGER) == 42
        assert coerce(3.9, SqlType.INTEGER) == 3
        assert coerce(True, SqlType.BIGINT) == 1

    def test_float_conversions(self):
        assert coerce("2.5", SqlType.FLOAT) == 2.5
        assert coerce(2, SqlType.DECIMAL) == 2.0

    def test_text_conversions(self):
        assert coerce(5, SqlType.VARCHAR) == "5"
        assert coerce(datetime.date(2001, 4, 2), SqlType.CHAR) \
            == "2001-04-02"

    def test_date_conversions(self):
        assert coerce("1999-12-31", SqlType.DATE) \
            == datetime.date(1999, 12, 31)
        today = datetime.date(2000, 1, 1)
        assert coerce(today, SqlType.DATE) is today

    def test_bad_coercions_raise(self):
        with pytest.raises(TypeMismatchError):
            coerce("not a number", SqlType.INTEGER)
        with pytest.raises(TypeMismatchError):
            coerce("never", SqlType.DATE)
        with pytest.raises(TypeMismatchError):
            coerce(object(), SqlType.VARCHAR)


class TestWidths:
    def test_fixed_widths(self):
        assert Column("a", SqlType.INTEGER).width_bytes == 4
        assert Column("a", SqlType.FLOAT).width_bytes == 8
        assert Column("a", SqlType.DATE).width_bytes == 4

    def test_char_uses_declared_length(self):
        assert Column("a", SqlType.CHAR, length=25).width_bytes == 25

    def test_varchar_estimates_half(self):
        assert Column("a", SqlType.VARCHAR, length=40).width_bytes == 20

    def test_row_width(self):
        columns = [Column("a", SqlType.INTEGER),
                   Column("b", SqlType.CHAR, length=10)]
        assert row_width_bytes(columns) == 14
        assert row_width_bytes([]) == 1

    def test_value_widths(self):
        assert value_width_bytes(None) == 1
        assert value_width_bytes(5) == 4
        assert value_width_bytes(2 ** 40) == 8
        assert value_width_bytes(1.5) == 8
        assert value_width_bytes("hello") == 5
        assert value_width_bytes(datetime.date(2000, 1, 1)) == 4

    def test_infer_sql_type(self):
        assert infer_sql_type(1) is SqlType.INTEGER
        assert infer_sql_type(1.5) is SqlType.FLOAT
        assert infer_sql_type("s") is SqlType.VARCHAR
        assert infer_sql_type(datetime.date(2000, 1, 1)) is SqlType.DATE
