"""SQL value types shared by the catalog, the SQL frontend and the drivers.

Values are plain Python objects at runtime (int, float, str,
``datetime.date``, ``None``); this module defines the *declared* types,
coercion into them, and per-row byte-width estimation used by the page
layout and the network cost model.

:class:`RowShape` is the per-row work of the write path compiled once
per column vector: building a stored row out of source values and
sizing it for the log and the wire.
"""

from __future__ import annotations

import datetime
import enum
import functools
import operator
from dataclasses import dataclass

from repro.errors import EngineError, TypeMismatchError

#: Process-wide write-path diagnostics, surfaced through ``sys_executor``
#: next to the expression compiler's ``EXPR_STATS``.  Host bookkeeping
#: only — never in ``Meter.counters``, which equivalence gates compare.
ROW_STATS: dict[str, int] = {
    "row_shapes_generated": 0,  # width functions compiled from source
    "rows_built_fast": 0,       # source row already conformed: untouched
    "rows_built_coerced": 0,    # ... went through the coerce ladder
    "rows_inserted_bulk": 0,    # rows placed by Table.insert_many
    "pages_filled_bulk": 0,     # ... and the pages they were placed on
}


class SqlType(enum.Enum):
    """Declared SQL column types supported by the engine."""

    INTEGER = "INTEGER"
    BIGINT = "BIGINT"
    FLOAT = "FLOAT"
    DECIMAL = "DECIMAL"
    VARCHAR = "VARCHAR"
    CHAR = "CHAR"
    DATE = "DATE"

    @property
    def is_numeric(self) -> bool:
        return self in (SqlType.INTEGER, SqlType.BIGINT,
                        SqlType.FLOAT, SqlType.DECIMAL)

    @property
    def is_text(self) -> bool:
        return self in (SqlType.VARCHAR, SqlType.CHAR)


_FIXED_WIDTHS = {
    SqlType.INTEGER: 4,
    SqlType.BIGINT: 8,
    SqlType.FLOAT: 8,
    SqlType.DECIMAL: 8,
    SqlType.DATE: 4,
}


@dataclass(frozen=True)
class Column:
    """One column of a table or result set."""

    name: str
    sql_type: SqlType
    length: int = 0  # declared length for CHAR/VARCHAR
    nullable: bool = True

    # cached_property writes straight into the instance __dict__, which
    # sidesteps the frozen-dataclass setattr guard — the width of an
    # immutable column never changes, so computing it once is safe.
    @functools.cached_property
    def width_bytes(self) -> int:
        """Estimated stored width of one value of this column."""
        if self.sql_type in _FIXED_WIDTHS:
            return _FIXED_WIDTHS[self.sql_type]
        # Text: assume declared length for CHAR, half for VARCHAR.
        if self.sql_type is SqlType.CHAR:
            return max(1, self.length)
        return max(1, self.length // 2 or 1)

    def describe(self) -> str:
        if self.sql_type.is_text:
            return f"{self.name} {self.sql_type.value}({self.length})"
        return f"{self.name} {self.sql_type.value}"


def row_width_bytes(columns: list[Column]) -> int:
    """Estimated byte width of one row with the given columns."""
    return sum(c.width_bytes for c in columns) or 1


def coerce(value, sql_type: SqlType):
    """Coerce a Python value to the runtime representation of ``sql_type``.

    ``None`` passes through (SQL NULL).  Raises
    :class:`~repro.errors.TypeMismatchError` on impossible coercions.
    """
    if value is None:
        return None
    # Exact-type fast paths for values already in runtime form (the
    # overwhelmingly common case on the insert path).  ``type(True) is
    # int`` is False, so bools still take the ladder below.
    t = type(value)
    if t is int:
        if sql_type is SqlType.INTEGER or sql_type is SqlType.BIGINT:
            return value
    elif t is str:
        if sql_type is SqlType.VARCHAR or sql_type is SqlType.CHAR:
            return value
    elif t is float:
        if sql_type is SqlType.FLOAT or sql_type is SqlType.DECIMAL:
            return value
    try:
        if sql_type in (SqlType.INTEGER, SqlType.BIGINT):
            if isinstance(value, bool):
                return int(value)
            if isinstance(value, (int, float)):
                return int(value)
            if isinstance(value, str):
                return int(value.strip())
        elif sql_type in (SqlType.FLOAT, SqlType.DECIMAL):
            if isinstance(value, bool):
                return float(value)
            if isinstance(value, (int, float)):
                return float(value)
            if isinstance(value, str):
                return float(value.strip())
        elif sql_type.is_text:
            if isinstance(value, str):
                return value
            if isinstance(value, (int, float)):
                return str(value)
            if isinstance(value, datetime.date):
                return value.isoformat()
        elif sql_type is SqlType.DATE:
            if isinstance(value, datetime.date):
                return value
            if isinstance(value, str):
                return datetime.date.fromisoformat(value.strip())
    except (ValueError, TypeError) as exc:
        raise TypeMismatchError(
            f"cannot coerce {value!r} to {sql_type.value}") from exc
    raise TypeMismatchError(f"cannot coerce {value!r} to {sql_type.value}")


def coerce_column(value, column: Column):
    """Coerce a value to a column's declared type.

    CHAR values are stored as given (no blank padding): padding would
    break equality and LIKE against unpadded literals, and the *storage*
    width of a CHAR column is accounted from its declared length by the
    page layout and result-buffer math, not from the value.
    """
    return coerce(value, column.sql_type)


def value_width_bytes(value) -> int:
    """Estimated wire width of one runtime value (for transfer costs)."""
    # Exact-type fast paths first: this runs per value on every row
    # transfer and WAL record.  ``type(True) is int`` is False, so the
    # int fast path cannot misclassify bools; subclasses fall through to
    # the original isinstance ladder.
    t = type(value)
    if t is int:
        return 4 if -(2 ** 31) <= value < 2 ** 31 else 8
    if t is str:
        return max(1, len(value))
    if value is None:
        return 1
    if isinstance(value, bool):
        return 1
    if isinstance(value, int):
        return 4 if -(2 ** 31) <= value < 2 ** 31 else 8
    if isinstance(value, float):
        return 8
    if isinstance(value, datetime.date):
        return 4
    if isinstance(value, str):
        return max(1, len(value))
    return 8


_INT_WIDTH = "(4 if -2147483648 <= {v} < 2147483648 else 8)"
_TEXT_WIDTH = "(len({v}) or 1)"
#: Runtime type of a conforming value and the source of its width: what
#: ``value_width_bytes`` returns for a value of exactly that type.
_RUNTIME = {
    SqlType.INTEGER: (int, _INT_WIDTH),
    SqlType.BIGINT: (int, _INT_WIDTH),
    SqlType.FLOAT: (float, "8"),
    SqlType.DECIMAL: (float, "8"),
    SqlType.VARCHAR: (str, _TEXT_WIDTH),
    SqlType.CHAR: (str, _TEXT_WIDTH),
    SqlType.DATE: (datetime.date, "4"),
}
_SQL_TYPE_OF = operator.attrgetter("sql_type")


def stored_type(sql_type: SqlType) -> type:
    """The exact Python type stored (non-NULL) values of ``sql_type``
    have: what ``coerce`` produces and index keys are made of."""
    return _RUNTIME[sql_type][0]


_WIDTH_GLOBALS = {"_vw": value_width_bytes, "_sum": sum, "_map": map,
                  "date": datetime.date}


@functools.lru_cache(maxsize=1024)
def _compile_shape(sql_types: tuple[SqlType, ...]):
    """``(runtime types, width function)`` of one column-type vector.

    The width function is generated source: one exact-type test per
    value picks the declared type's width expression, any other value
    (NULL, bool, a subclass, a foreign type) falls back to
    ``value_width_bytes`` on its own, and a row of the wrong arity is
    summed value by value — so the result equals
    ``sum(map(value_width_bytes, row))`` for every input.
    """
    ROW_STATS["row_shapes_generated"] += 1
    names = [f"v{i}" for i in range(len(sql_types))]
    terms = []
    for name, sql_type in zip(names, sql_types):
        runtime, width = _RUNTIME[sql_type]
        terms.append(f"({width.format(v=name)} if type({name}) is "
                     f"{runtime.__name__} else _vw({name}))")
    lines = ["def _width(row):",
             f"    if len(row) != {len(names)}:",
             "        return _sum(_map(_vw, row))"]
    if names:
        lines.append(f"    {', '.join(names)}, = row")
    lines += [f"    return {' + '.join(terms) or 0}", ""]
    exec(compile("\n".join(lines), "<row-shape>", "exec"), _WIDTH_GLOBALS)
    return (tuple(_RUNTIME[t][0] for t in sql_types),
            _WIDTH_GLOBALS.pop("_width"))


class RowShape:
    """What the write path does per row, compiled once per column vector.

    ``width(row)`` sizes a row for the log payload and the wire;
    ``build`` turns source values into a stored row.  The compiled part
    is memoised per column-*type* vector (bounded), so every table and
    result set of one shape shares it.
    """

    __slots__ = ("columns", "types", "width")

    def __init__(self, columns):
        self.columns = tuple(columns)
        self.types, self.width = _compile_shape(
            tuple(map(_SQL_TYPE_OF, self.columns)))

    def build(self, source, positions=None) -> tuple:
        """The row storing ``source``; ``positions`` names the column
        each value goes to (None: one value per column, in order).

        A source tuple whose values already have exactly the declared
        runtime types is the row.  Anything else — NULLs, bools, ints
        for FLOAT, strings for DATE, a column subset, the wrong arity —
        is coerced value by value, unnamed columns are NULL, and NOT
        NULL is enforced.
        """
        if positions is None and type(source) is tuple \
                and tuple(map(type, source)) == self.types:
            ROW_STATS["rows_built_fast"] += 1
            return source
        ROW_STATS["rows_built_coerced"] += 1
        columns = self.columns
        if positions is None:
            positions = range(len(columns))
        if len(source) != len(positions):
            raise EngineError(f"INSERT has {len(source)} values for "
                              f"{len(positions)} columns")
        values: list = [None] * len(columns)
        for position, value in zip(positions, source):
            values[position] = coerce(value, columns[position].sql_type)
        for value, column in zip(values, columns):
            if value is None and not column.nullable:
                raise EngineError(f"column {column.name!r} is NOT NULL")
        return tuple(values)


def infer_sql_type(value) -> SqlType:
    """Best-effort declared type for a literal runtime value."""
    if isinstance(value, bool):
        return SqlType.INTEGER
    if isinstance(value, int):
        return SqlType.INTEGER
    if isinstance(value, float):
        return SqlType.FLOAT
    if isinstance(value, datetime.date):
        return SqlType.DATE
    return SqlType.VARCHAR
