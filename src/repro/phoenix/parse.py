"""One-pass request classification.

Phoenix "performs a one-pass parse to determine request type" before
passing the request to the native driver.  We classify from the first
token (plus a little lookahead) without building an AST, and charge the
paper's measured parse cost (0.00023 s).
"""

from __future__ import annotations

import datetime
import enum
import re

from repro.errors import SqlSyntaxError
from repro.sim.costs import CLIENT_CPU
from repro.sim.meter import Meter
from repro.sql.lexer import (
    BLOCK_COMMENT_PATTERN,
    LINE_COMMENT_PATTERN,
    STRING_PATTERN,
    WORD_PATTERN,
    split_script,
)


class RequestClass(enum.Enum):
    RESULT_QUERY = "result_query"    # SELECT: generates a result set
    UPDATE = "update"                # INSERT / UPDATE / DELETE
    DDL = "ddl"                      # CREATE / DROP
    EXEC = "exec"                    # stored procedure invocation
    BEGIN = "begin"
    COMMIT = "commit"
    ROLLBACK = "rollback"
    #: What else the server accepts, passed through and sent again after
    #: a failure: ``EXPLAIN`` plans a query and writes nothing, and
    #: ``ANALYZE`` recomputes each table's statistics from its rows — a
    #: second run writes what the first wrote.  Neither is wrapped.
    OTHER = "other"


_FIRST_WORD = {
    "SELECT": RequestClass.RESULT_QUERY,
    "INSERT": RequestClass.UPDATE,
    "UPDATE": RequestClass.UPDATE,
    "DELETE": RequestClass.UPDATE,
    "CREATE": RequestClass.DDL,
    "DROP": RequestClass.DDL,
    "EXEC": RequestClass.EXEC,
    "EXECUTE": RequestClass.EXEC,
    "BEGIN": RequestClass.BEGIN,
    "COMMIT": RequestClass.COMMIT,
    "ROLLBACK": RequestClass.ROLLBACK,
}

#: The first word of a request as the server's lexer reads it, behind
#: blanks and comments (an unterminated comment hides it).
_FIRST_WORD_RE = re.compile(
    rf"(?:\s|{LINE_COMMENT_PATTERN}|{BLOCK_COMMENT_PATTERN})*"
    rf"({WORD_PATTERN})?")
#: An ``@name`` marker, or a string literal or comment to step over.
_MARKER_RE = re.compile(rf"{STRING_PATTERN}|{LINE_COMMENT_PATTERN}"
                        rf"|{BLOCK_COMMENT_PATTERN}|@(\w*)")


def classify_request(sql: str, meter: Meter | None = None) -> RequestClass:
    """Classify ``sql``; charges the one-pass parse cost if metered."""
    if meter is not None:
        meter.charge(CLIENT_CPU, meter.costs.client_parse_seconds,
                     "phoenix parse")
    word = _FIRST_WORD_RE.match(sql).group(1)
    return _FIRST_WORD.get(word.upper() if word else "", RequestClass.OTHER)


def script_statement(sql: str) -> str | None:
    """``sql`` as one statement of a server script, or None when the
    server would cut it into several (a batch, a multi-statement
    procedure body) or cannot tell where it ends (an unterminated
    literal or comment): such a text goes the paper's way.  Embedded in
    a script, the statement is followed by a newline before its
    separator, so a trailing ``--`` comment ends there."""
    try:
        parts = split_script(sql)
    except SqlSyntaxError:
        return None
    return parts[0] if len(parts) == 1 else None


def inline_parameters(sql: str, params: dict) -> str:
    """Replace ``@name`` markers with rendered literal values.

    Phoenix re-embeds the application's SQL inside generated statements
    (the WHERE 0=1 probe, the load script), where parameter
    bindings would not travel — so prepared statements are inlined before
    entering the pipeline, the way classic drivers expanded parameters.
    A marker inside a string literal or a comment is text, not a marker.
    """
    if not params:
        return sql

    def substitute(match) -> str:
        name = match.group(1)
        if name is None or name.lower() not in params:
            return match.group()
        return _render(params[name.lower()])

    return _MARKER_RE.sub(substitute, sql)


def _render(value) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, datetime.date):
        return f"date '{value.isoformat()}'"
    escaped = str(value).replace("'", "''")
    return f"'{escaped}'"
