"""SQL lexer: one regex scanner.

Produces a flat token list the recursive-descent parser consumes.  Details
worth knowing:

* string literals use single quotes with ``''`` as the escape;
* ``--`` starts a line comment, ``/* */`` a block comment;
* identifiers are Unicode words that do not start with a decimal digit,
  optionally behind a ``#`` (temp tables);
* ``@name`` is a procedure parameter token;
* numbers are decimal digits of any script (``²`` is no decimal digit:
  it lexes as a word);
* multi-character operators: ``<=`` ``>=`` ``<>`` ``!=`` ``||``.

The scanner is on the statement-cache path (auto-parameterization lexes
the first text of every statement shape, the parser every new
template), so all text goes through one compiled master regex.
"""

from __future__ import annotations

import re

from repro.errors import SqlSyntaxError
from repro.sql.tokens import KEYWORDS, Token, TokenType

# One master pattern, leading whitespace folded in so blank runs never
# cost a loop iteration.  ``\w`` and ``\d`` are Unicode-aware; on ASCII
# text they are ``[A-Za-z0-9_]`` and ``[0-9]``.  Alternation order
# matters: WORD cannot start with a decimal digit so it safely precedes
# NUMBER; NUMBER must precede OP so ``.5`` lexes as a number while a bare
# ``.`` falls through to OP; the comment branches must precede OP or
# ``--``/``/*`` would lex as minus and divide.  STRING's trailing
# ``(?!')`` forbids a closing quote that is immediately followed by
# another quote — that pair is always the ``''`` escape — so an
# unterminated literal fails to match outright instead of backtracking
# to a shorter string plus garbage.  The token patterns are public: the
# other scanners of SQL text (the normalizer's literal split, Phoenix's
# request classifier) are built from them, so they read text alike.
WORD_PATTERN = r"(?:\#|[^\W\d])\w*"
STRING_PATTERN = r"'[^']*(?:''[^']*)*'(?!')"
NUMBER_PATTERN = r"\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
LINE_COMMENT_PATTERN = r"--[^\n]*(?:\n|$)"
BLOCK_COMMENT_PATTERN = r"/\*(?:[^*]|\*(?!/))*\*/"
_TOKEN_RE = re.compile(
    rf"""\s*(?:
      (?P<WORD>{WORD_PATTERN})
    | (?P<NUMBER>{NUMBER_PATTERN})
    | (?P<STRING>{STRING_PATTERN})
    | (?P<PARAM>@\#?\w*)
    | (?P<LINEC>{LINE_COMMENT_PATTERN})
    | (?P<BLOCKC>{BLOCK_COMMENT_PATTERN})
    | (?P<OP>(?:<=|>=|<>|!=|\|\|)|[=<>+\-*/.,();])
    )?""",
    re.VERBOSE)
#: What can hide a ``;`` from :func:`split_script`, or be one; a quote
#: or ``/*`` left over is an unterminated literal or comment.
_SEPARATOR_RE = re.compile(
    f"{STRING_PATTERN}|{LINE_COMMENT_PATTERN}|{BLOCK_COMMENT_PATTERN}"
    "|;|'|/\\*")

# Group numbers of the master pattern, for int dispatch on m.lastindex.
_G_WORD, _G_NUMBER, _G_STRING, _G_PARAM, _G_LINEC, _G_BLOCKC, _G_OP = \
    range(1, 8)


def tokenize(sql: str) -> list[Token]:
    """Tokenize ``sql``; raises :class:`SqlSyntaxError` on bad input."""
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

