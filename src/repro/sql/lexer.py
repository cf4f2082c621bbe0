"""SQL lexer: a regex scanner with a character-loop fallback.

Produces a flat token list the recursive-descent parser consumes.  Details
worth knowing:

* string literals use single quotes with ``''`` as the escape;
* ``--`` starts a line comment, ``/* */`` a block comment;
* identifiers may start with ``#`` (temp tables) or contain ``_``;
* ``@name`` is a procedure parameter token;
* multi-character operators: ``<=`` ``>=`` ``<>`` ``!=`` ``||``.

The scanner is on the statement-cache hot path (auto-parameterization
re-lexes every distinct statement text), so ASCII input — all of it, in
practice — goes through one compiled master regex.  Non-ASCII input falls
back to the original character loop, whose ``str.isalpha``/``isalnum``
classes are Unicode-aware in ways ``[A-Za-z0-9]`` is not; both paths
produce identical tokens for ASCII text.
"""

from __future__ import annotations

import re

from repro.errors import SqlSyntaxError
from repro.sql.tokens import KEYWORDS, Token, TokenType

_OPERATOR_PAIRS = ("<=", ">=", "<>", "!=", "||")
_OPERATOR_SINGLES = "=<>+-*/.,();"

# One master pattern, leading whitespace folded in so blank runs never
# cost a loop iteration.  Alternation order matters: WORD cannot start
# with a digit so it safely precedes NUMBER; NUMBER must precede OP so
# ``.5`` lexes as a number while a bare ``.`` falls through to OP; the
# comment branches must precede OP or ``--``/``/*`` would lex as minus
# and divide.  STRING's trailing ``(?!')`` forbids a closing quote that
# is immediately followed by another quote — that pair is always the
# ``''`` escape — so an unterminated literal fails to match outright
# instead of backtracking to a shorter string plus garbage.
_STRING = r"'[^']*(?:''[^']*)*'(?!')"
_LINE_COMMENT = r"--[^\n]*(?:\n|$)"
_BLOCK_COMMENT = r"/\*(?:[^*]|\*(?!/))*\*/"
_TOKEN_RE = re.compile(
    rf"""\s*(?:
      (?P<WORD>[A-Za-z_\#][A-Za-z0-9_]*)
    | (?P<NUMBER>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)
    | (?P<STRING>{_STRING})
    | (?P<PARAM>@\#?[A-Za-z0-9_]*)
    | (?P<LINEC>{_LINE_COMMENT})
    | (?P<BLOCKC>{_BLOCK_COMMENT})
    | (?P<OP>(?:<=|>=|<>|!=|\|\|)|[=<>+\-*/.,();])
    )?""",
    re.VERBOSE)
#: What can hide a ``;`` from :func:`split_script`, or be one; a quote
#: or ``/*`` left over is an unterminated literal or comment.
_SEPARATOR_RE = re.compile(
    f"{_STRING}|{_LINE_COMMENT}|{_BLOCK_COMMENT}|;|'|/\\*")

# Group numbers of the master pattern, for int dispatch on m.lastindex.
_G_WORD, _G_NUMBER, _G_STRING, _G_PARAM, _G_LINEC, _G_BLOCKC, _G_OP = \
    range(1, 8)


def tokenize(sql: str) -> list[Token]:
    """Tokenize ``sql``; raises :class:`SqlSyntaxError` on bad input."""
    if not sql.isascii():
        return _tokenize_slow(sql)
    tokens: list[Token] = []
    append = tokens.append
    match = _TOKEN_RE.match
    kw = TokenType.KEYWORD
    ident = TokenType.IDENTIFIER
    i = 0
    n = len(sql)
    while i < n:
        m = match(sql, i)  # never None: the \s* prefix can match empty
        idx = m.lastindex
        if idx is None:
            i = m.end()
            if i >= n:
                break  # trailing whitespace
            if sql[i] == "'":
                raise SqlSyntaxError(f"unterminated string literal at {i}")
            raise SqlSyntaxError(
                f"unexpected character {sql[i]!r} at position {i}")
        i = m.end()
        if idx == _G_WORD:
            value = m.group(idx)
            upper = value.upper()
            if upper in KEYWORDS:
                append(Token(kw, upper, m.start(idx)))
            else:
                append(Token(ident, value, m.start(idx)))
        elif idx == _G_OP:
            value = m.group(idx)
            start = m.start(idx)
            if value == "/" and sql.startswith("/*", start):
                # "/*" with no terminator: BLOCKC failed to match, so the
                # bare "/" fell through to the operator branch.
                raise SqlSyntaxError(
                    f"unterminated block comment at {start}")
            append(Token(TokenType.OPERATOR,
                         "<>" if value == "!=" else value, start))
        elif idx == _G_NUMBER:
            append(Token(TokenType.NUMBER, m.group(idx), m.start(idx)))
        elif idx == _G_STRING:
            append(Token(TokenType.STRING,
                         m.group(idx)[1:-1].replace("''", "'"),
                         m.start(idx)))
        elif idx == _G_PARAM:
            value = m.group(idx)
            if len(value) == 1:
                raise SqlSyntaxError(f"lone '@' at position {m.start(idx)}")
            append(Token(TokenType.PARAMETER, value[1:].lower(),
                         m.start(idx)))
        # LINEC / BLOCKC produce no token.
    append(Token(TokenType.END, "", n))
    return tokens


def split_script(sql: str) -> list[str]:
    """The statement texts of a ``;``-separated batch, in order, each
    without its separator.

    A ``;`` inside a string literal or a comment separates nothing.  The
    server's script request is cut here, once per request, so this
    scans for separators only and leaves tokens to each statement's own
    preparation.  A ``CREATE PROCEDURE`` body is the rest of its batch
    and cannot share one.  An unterminated string literal or block
    comment raises :class:`SqlSyntaxError`: where it ends is not known,
    so neither is where the statement does.
    """
    texts: list[str] = []
    start = 0
    for match in _SEPARATOR_RE.finditer(sql):
        token = match.group()
        if token == ";":
            texts.append(sql[start:match.start()])
            start = match.end()
        elif token == "'":
            raise SqlSyntaxError(
                f"unterminated string literal at {match.start()}")
        elif token == "/*":
            raise SqlSyntaxError(
                f"unterminated block comment at {match.start()}")
    texts.append(sql[start:])
    return [text.strip() for text in texts if text.strip()]


def _tokenize_slow(sql: str) -> list[Token]:
    """Character-loop scanner (Unicode-aware identifier/digit classes)."""
    tokens: list[Token] = []
    i = 0
    n = len(sql)
    while i < n:
        ch = sql[i]
        if ch.isspace():
            i += 1
            continue
        if sql.startswith("--", i):
            end = sql.find("\n", i)
            i = n if end == -1 else end + 1
            continue
        if sql.startswith("/*", i):
            end = sql.find("*/", i + 2)
            if end == -1:
                raise SqlSyntaxError(f"unterminated block comment at {i}")
            i = end + 2
            continue
        if ch == "'":
            start = i
            value, i = _read_string(sql, i)
            tokens.append(Token(TokenType.STRING, value, start))
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and sql[i + 1].isdigit()):
            start = i
            value, i = _read_number(sql, i)
            tokens.append(Token(TokenType.NUMBER, value, start))
            continue
        if ch == "@":
            start = i
            value, i = _read_word(sql, i + 1)
            if not value:
                raise SqlSyntaxError(f"lone '@' at position {start}")
            tokens.append(Token(TokenType.PARAMETER, value.lower(), start))
            continue
        if ch.isalpha() or ch in "#_":
            start = i
            value, i = _read_word(sql, i)
            upper = value.upper()
            if upper in KEYWORDS:
                tokens.append(Token(TokenType.KEYWORD, upper, start))
            else:
                tokens.append(Token(TokenType.IDENTIFIER, value, start))
            continue
        pair = sql[i:i + 2]
        if pair in _OPERATOR_PAIRS:
            tokens.append(Token(TokenType.OPERATOR,
                                "<>" if pair == "!=" else pair, i))
            i += 2
            continue
        if ch in _OPERATOR_SINGLES:
            tokens.append(Token(TokenType.OPERATOR, ch, i))
            i += 1
            continue
        raise SqlSyntaxError(f"unexpected character {ch!r} at position {i}")
    tokens.append(Token(TokenType.END, "", n))
    return tokens


def _read_string(sql: str, start: int) -> tuple[str, int]:
    parts: list[str] = []
    i = start + 1
    n = len(sql)
    while i < n:
        ch = sql[i]
        if ch == "'":
            if i + 1 < n and sql[i + 1] == "'":
                parts.append("'")
                i += 2
                continue
            return "".join(parts), i + 1
        parts.append(ch)
        i += 1
    raise SqlSyntaxError(f"unterminated string literal at {start}")


def _read_number(sql: str, start: int) -> tuple[str, int]:
    i = start
    n = len(sql)
    seen_dot = False
    seen_exp = False
    while i < n:
        ch = sql[i]
        if ch.isdigit():
            i += 1
        elif ch == "." and not seen_dot and not seen_exp:
            seen_dot = True
            i += 1
        elif ch in "eE" and not seen_exp and i > start:
            nxt = sql[i + 1] if i + 1 < n else ""
            if nxt.isdigit() or (nxt in "+-" and i + 2 < n
                                 and sql[i + 2].isdigit()):
                seen_exp = True
                i += 2 if nxt in "+-" else 1
            else:
                break
        else:
            break
    return sql[start:i], i


def _read_word(sql: str, start: int) -> tuple[str, int]:
    i = start
    n = len(sql)
    if i < n and sql[i] == "#":
        i += 1
    while i < n and (sql[i].isalnum() or sql[i] == "_"):
        i += 1
    return sql[start:i], i
