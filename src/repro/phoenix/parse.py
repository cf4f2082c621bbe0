"""One-pass request classification.

Phoenix "performs a one-pass parse to determine request type" before
passing the request to the native driver.  We classify from the first
token (plus a little lookahead) without building an AST, and charge the
paper's measured parse cost (0.00023 s).
"""

from __future__ import annotations

import enum

from repro.errors import SqlSyntaxError
from repro.sim.costs import CLIENT_CPU
from repro.sim.meter import Meter
from repro.sql.lexer import split_script


class RequestClass(enum.Enum):
    RESULT_QUERY = "result_query"    # SELECT: generates a result set
    UPDATE = "update"                # INSERT / UPDATE / DELETE
    DDL = "ddl"                      # CREATE / DROP
    EXEC = "exec"                    # stored procedure invocation
    BEGIN = "begin"
    COMMIT = "commit"
    ROLLBACK = "rollback"
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


def classify_request(sql: str, meter: Meter | None = None) -> RequestClass:
    """Classify ``sql``; charges the one-pass parse cost if metered."""
    if meter is not None:
        meter.charge(CLIENT_CPU, meter.costs.client_parse_seconds,
                     "phoenix parse")
    word = _first_word(sql)
    return _FIRST_WORD.get(word, RequestClass.OTHER)


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
    """
    if not params:
        return sql
    import datetime

    def render(value) -> str:
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

    out = []
    i = 0
    n = len(sql)
    while i < n:
        ch = sql[i]
        if ch == "'":  # skip string literals (may contain @)
            out.append(ch)
            i += 1
            while i < n:
                out.append(sql[i])
                if sql[i] == "'":
                    if i + 1 < n and sql[i + 1] == "'":
                        out.append("'")
                        i += 2
                        continue
                    i += 1
                    break
                i += 1
            continue
        if ch == "@":
            start = i + 1
            j = start
            while j < n and (sql[j].isalnum() or sql[j] == "_"):
                j += 1
            name = sql[start:j].lower()
            if name in params:
                out.append(render(params[name]))
                i = j
                continue
        out.append(ch)
        i += 1
    return "".join(out)


def _first_word(sql: str) -> str:
    i = 0
    n = len(sql)
    while i < n:
        if sql[i].isspace():
            i += 1
            continue
        if sql.startswith("--", i):
            end = sql.find("\n", i)
            if end == -1:
                return ""
            i = end + 1
            continue
        if sql.startswith("/*", i):
            end = sql.find("*/", i + 2)
            if end == -1:
                return ""
            i = end + 2
            continue
        break
    start = i
    while i < n and (sql[i].isalpha() or sql[i] == "_"):
        i += 1
    return sql[start:i].upper()
