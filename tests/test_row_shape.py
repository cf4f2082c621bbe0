"""``RowShape``: the compiled row width and row builder against their
value-by-value definitions.

``width`` is generated source (one function per column-type vector), so
CI also runs this file with ``-W error::SyntaxWarning``.
"""

import datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EngineError
from repro.types import (
    ROW_STATS,
    Column,
    RowShape,
    SqlType,
    value_width_bytes,
)
from tests import insert_oracle


class Tally(int):
    """An int subclass: never the declared runtime type."""


INT_EDGES = [-2 ** 31 - 1, -2 ** 31, -1, 0, 1, 2 ** 31 - 1, 2 ** 31, 2 ** 40]
values = st.one_of(
    st.none(), st.booleans(), st.sampled_from(INT_EDGES), st.integers(),
    st.sampled_from(INT_EDGES).map(Tally),
    st.floats(allow_nan=False), st.text(max_size=12), st.just(""),
    st.dates(), st.datetimes(), st.binary(max_size=4))
sql_types = st.lists(st.sampled_from(list(SqlType)), max_size=9)


def columns_of(types, nullable=None):
    return [Column(f"c{i}", t, length=10,
                   nullable=True if nullable is None else nullable[i])
            for i, t in enumerate(types)]


@settings(max_examples=400, deadline=None)
@given(types=sql_types, data=st.data())
def test_width_equals_the_value_by_value_sum(types, data):
    """For *every* input: any value in any column, any arity."""
    shape = RowShape(columns_of(types))
    arity = data.draw(st.one_of(st.just(len(types)), st.integers(0, 11)))
    row = tuple(data.draw(st.lists(values, min_size=arity, max_size=arity)))
    assert shape.width(row) == sum(map(value_width_bytes, row))


def test_width_of_conforming_rows_hits_every_declared_type():
    types = list(SqlType)
    shape = RowShape(columns_of(types))
    row = (5, 2 ** 40, 1.5, 2.5, "hello", "", datetime.date(2000, 1, 1))
    assert [type(v) for v in row] == list(shape.types)
    assert shape.width(row) == 4 + 8 + 8 + 8 + 5 + 1 + 4
    assert RowShape([]).width(()) == 0


# Source values a client can hand INSERT: conforming ones and the ones
# the coerce ladder exists for (and the ones it rejects).
sources = st.one_of(
    st.none(), st.booleans(), st.integers(-10, 10), st.floats(-4, 4),
    st.sampled_from(["7", " 3 ", "1.5", "2001-02-03", "x", ""]),
    st.dates(datetime.date(1999, 1, 1), datetime.date(2002, 1, 1)))


def outcome(fn):
    try:
        return fn()
    except EngineError as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(types=sql_types, data=st.data())
def test_build_equals_the_retired_row_builder(types, data):
    """Same row or same error (type and text) as ``_build_row``: full
    rows, column subsets and permutations, wrong arity, NOT NULL."""
    nullable = data.draw(st.lists(st.booleans(), min_size=len(types),
                                  max_size=len(types)))
    columns = columns_of(types, nullable)
    shape = RowShape(columns)
    identity = list(range(len(columns)))
    positions = data.draw(st.one_of(
        st.none(), st.lists(st.sampled_from(identity), unique=True)
        if identity else st.none()))
    targets = identity if positions is None else positions
    arity = data.draw(st.one_of(st.just(len(targets)), st.integers(0, 10)))
    conforming = {int: st.integers(-5, 5), float: st.floats(-4, 4),
                  str: st.text(max_size=3), datetime.date: st.dates()}
    source = tuple(data.draw(st.one_of(
        sources, conforming[shape.types[targets[i]]]
        if i < len(targets) else sources)) for i in range(arity))
    expected = outcome(
        lambda: insert_oracle.build_row(columns, targets, source))
    assert outcome(lambda: shape.build(source, positions)) == expected


def test_conforming_row_is_returned_untouched():
    shape = RowShape(columns_of([SqlType.INTEGER, SqlType.VARCHAR,
                                 SqlType.DECIMAL, SqlType.DATE]))
    before = dict(ROW_STATS)
    row = (1, "a", 2.0, datetime.date(2000, 1, 1))
    assert shape.build(row) is row
    assert ROW_STATS["rows_built_fast"] == before["rows_built_fast"] + 1
    # One NULL, one bool, one int for DECIMAL, one string for DATE: each
    # sends the row through the ladder.
    for source, built in [
            ((None, "a", 2.0, row[3]), (None, "a", 2.0, row[3])),
            ((True, "a", 2.0, row[3]), (1, "a", 2.0, row[3])),
            ((1, "a", 2, row[3]), (1, "a", 2.0, row[3])),
            ((1, "a", 2.0, "2000-01-01"), row)]:
        assert shape.build(source) == built
        assert [type(v) for v in shape.build(source) if v is not None] \
            == [t for t, v in zip(shape.types, built) if v is not None]
    assert ROW_STATS["rows_built_coerced"] \
        == before["rows_built_coerced"] + 8
    # A list is never stored as a row, conforming or not.
    assert shape.build(list(row)) == row
    assert type(shape.build(list(row))) is tuple


def test_shapes_of_one_type_vector_share_the_generated_width():
    types = [SqlType.BIGINT, SqlType.CHAR, SqlType.FLOAT, SqlType.DATE,
             SqlType.BIGINT]
    first = RowShape(columns_of(types))
    before = ROW_STATS["row_shapes_generated"]
    other = RowShape([Column(f"other{i}", t, length=3, nullable=False)
                      for i, t in enumerate(types)])
    assert other.width is first.width
    assert ROW_STATS["row_shapes_generated"] == before
    with pytest.raises(EngineError, match="'other0' is NOT NULL"):
        other.build((None, "a", 1.0, datetime.date(2000, 1, 1), 2))
