"""ODBC return codes, attributes and SQLSTATEs (the subset we model)."""

from repro.errors import OdbcError

SQL_SUCCESS = 0
SQL_SUCCESS_WITH_INFO = 1
#: The statement is held by the server behind a lock; call the same
#: function again with the same handle and text to collect its outcome.
SQL_STILL_EXECUTING = 2
SQL_NO_DATA = 100
SQL_ERROR = -1
SQL_INVALID_HANDLE = -2

# Statement attributes
SQL_ATTR_ROW_ARRAY_SIZE = "row_array_size"
SQL_ATTR_QUERY_TIMEOUT = "query_timeout"
SQL_ATTR_CURSOR_TYPE = "cursor_type"

# Cursor types
SQL_CURSOR_FORWARD_ONLY = "forward_only"
SQL_CURSOR_STATIC = "static"

# SQLFetchScroll orientations
SQL_FETCH_NEXT = "next"
SQL_FETCH_PRIOR = "prior"
SQL_FETCH_FIRST = "first"
SQL_FETCH_LAST = "last"
SQL_FETCH_ABSOLUTE = "absolute"   # 1-based position
SQL_FETCH_RELATIVE = "relative"

#: Orientation -> the 0-based row a SQLFetchScroll targets, from the row
#: the cursor stands on (-1 before the first, ``size`` after the last),
#: the result's size and the call's offset.
_SCROLL_TARGETS = {
    SQL_FETCH_NEXT: lambda current, size, offset: current + 1,
    SQL_FETCH_PRIOR: lambda current, size, offset: current - 1,
    SQL_FETCH_FIRST: lambda current, size, offset: 0,
    SQL_FETCH_LAST: lambda current, size, offset: size - 1,
    SQL_FETCH_ABSOLUTE: lambda current, size, offset: offset - 1,
    SQL_FETCH_RELATIVE: lambda current, size, offset: current + offset,
}


def scroll_target(orientation: str, offset: int, current: int,
                  size: int) -> int:
    """The row ``orientation`` moves a scrollable cursor to; outside
    ``range(size)`` it parks before the first / after the last row.
    An unknown orientation is SQLSTATE HY106 (fetch type out of range).
    """
    move = _SCROLL_TARGETS.get(orientation)
    if move is None:
        raise OdbcError("HY106", f"unknown orientation {orientation!r}")
    return move(current, size, offset)

# Connection options
SQL_ATTR_AUTOCOMMIT = "autocommit"
SQL_ATTR_LOGIN_TIMEOUT = "login_timeout"

# SQLSTATEs
SQLSTATE_COMM_LINK_FAILURE = "08S01"   # communication link failure
SQLSTATE_CONNECTION_DEAD = "08003"     # connection does not exist
SQLSTATE_GENERAL_ERROR = "HY000"
SQLSTATE_SYNTAX_ERROR = "42000"
SQLSTATE_CONSTRAINT = "23000"
SQLSTATE_SERIALIZATION_FAILURE = "40001"  # deadlock victim
#: A *fetch* met a lock: the cursor cannot be held mid-scan, so the
#: result is closed and the statement must be executed again (that
#: execute waits in the lock queue like any other — SQL_STILL_EXECUTING).
SQLSTATE_LOCK_TIMEOUT = "HYT00"
