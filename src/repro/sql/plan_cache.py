"""Statement normalization and multi-level statement/plan caching.

Everything here trades *host* time for memory without moving a single
virtual second: the engine still levies ``cpu_per_statement_seconds`` per
executed statement, so paper-calibrated timings are untouched whether a
statement hits or misses these caches.

Three levels, all LRU-bounded:

1. **Shape memo** (:class:`ShapeMemo`) — auto-parameterization
   (:func:`normalize_statement`): literals are replaced by ``@__litN``
   markers so the thousands of distinct TPC-C texts that differ only in
   inlined values collapse onto a handful of templates.  The token rules
   run once per statement *shape* (the text between its literals, and
   each literal's class); every later text of that shape is cut at its
   literals by one regex and takes its template from the memo.  Pure
   text transform, schema independent, never invalidated.
2. **Template cache** — normalized (or raw, when not normalizable) text to
   its parsed AST.  Parsing is schema independent too; cached ASTs are
   treated as read-only and shared.
3. **Plan cache** — ``(normalized text, parameter type signature)`` to a
   compiled SELECT plan or DML statement.  Plans bake in schema facts
   (column layouts, chosen indexes, inferred output types), so each
   entry records the catalog version of every table/view it touched and
   is revalidated on lookup; any DDL on a referenced object makes the
   entry stale.  Entries whose statements touch temp tables are held on
   the session (they die with it); everything else is engine-wide and
   dies with the engine on a crash.

Why literals become parameters *selectively*: the planner folds provably
constant predicates (``WHERE 0 = 1`` becomes an empty scan), treats bare
integers in ORDER BY as output positions, and requires literal integers
after TOP/LIMIT — parameterizing those would change plan shapes and
therefore virtual time.  The normalizer keeps exactly those literal
positions verbatim; see :func:`_literals_to_keep`.
"""

from __future__ import annotations

import datetime
import re
from collections import OrderedDict
from dataclasses import dataclass, field
from itertools import accumulate

from repro.errors import SqlSyntaxError
from repro.sql.lexer import NUMBER_PATTERN, STRING_PATTERN, tokenize
from repro.sql.tokens import Token, TokenType

#: Namespace for auto-generated parameters; statements that already use it
#: are left alone so explicit binds can never collide.
PARAM_PREFIX = "__lit"

_NORMALIZABLE_STARTERS = frozenset({"SELECT", "INSERT", "UPDATE", "DELETE"})
_COMPARISON_OPS = frozenset({"=", "<>", "<", "<=", ">", ">="})
_LITERAL_TYPES = (TokenType.NUMBER, TokenType.STRING)
#: Keywords that can directly precede a bare-constant conjunct
#: (``WHERE 0``): such literals stay verbatim so constant folding in
#: the planner sees exactly what the raw text said.
_CONJUNCT_HEADS = frozenset({"WHERE", "AND", "OR", "HAVING", "NOT"})


#: Entries of an engine's plan cache (its template cache holds twice as
#: many, its shape memo four times as many).
PLAN_CACHE_ENTRIES = 128


class LRUCache:
    """A size-bounded mapping with least-recently-used eviction."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity
        #: Lifetime count of entries pushed out by the size bound
        #: (explicit ``pop``/``clear`` are not evictions); surfaced by
        #: the ``sys_plan_cache`` view.
        self.evictions = 0
        self._items: OrderedDict = OrderedDict()

    def get(self, key):
        value = self._items.get(key)
        if value is not None:
            self._items.move_to_end(key)
        return value

    def put(self, key, value) -> None:
        self._items[key] = value
        self._items.move_to_end(key)
        while len(self._items) > self.capacity:
            self._items.popitem(last=False)
            self.evictions += 1

    def pop(self, key) -> None:
        self._items.pop(key, None)

    def clear(self) -> None:
        self._items.clear()

    def values(self):
        return self._items.values()

    def items(self):
        return self._items.items()

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, key) -> bool:
        return key in self._items


@dataclass(frozen=True)
class NormalizedStatement:
    """Outcome of auto-parameterizing one statement text."""

    text: str                     # template with @__litN markers
    values: tuple                 # (name, value) pairs, in marker order
    signature: tuple              # per-marker type signature (cache key part)
    #: The shape memo's key of this text's template (None off the memo),
    #: for :meth:`ShapeMemo.refuse`.
    memo_key: tuple | None = field(default=None, compare=False, repr=False)

    @property
    def params(self) -> dict:
        return dict(self.values)


#: A text cut at its literals: the lexer's own STRING and NUMBER
#: patterns, captured, so the pieces alternate skeleton, literal,
#: skeleton.  A number glued behind a word character, ``#`` or ``@`` is
#: part of that word or parameter, so it is not cut out; any other
#: disagreement with the lexer (a literal inside a comment, ``x.5``) is
#: caught when the shape is learnt, and that shape takes the exact path.
#: (The leading lookahead only rejects most positions early.)
_LITERAL_SPLIT = re.compile(
    rf"(?=['.\d])({STRING_PATTERN}|(?<![\w#@])(?:{NUMBER_PATTERN}))").split

#: Shape memo value: the split does not find the lexer's literals.
_EXACT = "exact"
#: Template memo value: texts of this key are taken verbatim.
_VERBATIM = False


class ShapeMemo(LRUCache):
    """The token rules' decisions, remembered per statement shape.

    A text's *shape* is its skeleton (what lies between its literals)
    and the class of each literal: string, integer or other number.  The
    token rules (:func:`_literal_roles`) decide each literal of a text from
    the tokens around it and from its class alone, so one run of them
    decides every text of the shape.  Two kinds of entry share the LRU:

    * shape -> the role of each literal slot (``"num"``, ``"str"`` or
      ``"date"`` parameter, None for verbatim), or ``_EXACT`` when the
      split's literals are not the lexer's;
    * (shape, which parameter literals repeat, the verbatim literals) ->
      the exact path's template text, or ``_VERBATIM`` (also what
      :meth:`refuse` records for a template the parser rejects).

    A hit tokenizes nothing: values and signature come from the
    literals, and the template from the memo.
    """

    def normalize(self, sql: str) -> NormalizedStatement | None:
        parts = _LITERAL_SPLIT(sql)
        literals = parts[1::2]
        shape = ("".join(["s" if literal[0] == "'"
                          else "i" if literal.isdecimal() else "f"
                          for literal in literals]), *parts[0::2])
        roles = self.get(shape)
        tokens = None
        if roles is None:
            tokens, roles = self._learn(sql, parts, shape)
        if roles is _EXACT:
            return _normalize_exact(sql)
        bound = _bind(roles, literals)
        if bound is None:
            return None
        pattern, kept, values, signature = bound
        key = (shape, pattern, tuple(kept))
        template = self.get(key)
        if template is None:
            exact = (_normalize_exact(sql) if tokens is None
                     else _normalize_tokens(tokens, roles))
            template = _VERBATIM if exact is None else exact.text
            self.put(key, template)
        if template is _VERBATIM:
            return None
        return NormalizedStatement(text=template, values=values,
                                   signature=signature, memo_key=key)

    def refuse(self, norm: NormalizedStatement) -> None:
        """Take every text of ``norm``'s template verbatim from now on:
        the template hid a literal the grammar needed."""
        self.put(norm.memo_key, _VERBATIM)

    def _learn(self, sql: str, parts: list, shape: tuple) -> tuple:
        """The text's tokens (None when it does not lex) and the shape's
        roles, stored."""
        try:
            tokens = tokenize(sql)
        except SqlSyntaxError:
            tokens, roles = None, _EXACT
        else:
            starts = [tok.position for tok in tokens
                      if tok.type in _LITERAL_TYPES]
            if starts != list(accumulate(map(len, parts)))[0:-1:2]:
                roles = _EXACT
            else:
                roles = tuple(_literal_roles(tokens) or [None] * len(starts))
        self.put(shape, roles)
        return tokens, roles


def normalize_statement(sql: str, memo: ShapeMemo | None = None
                        ) -> NormalizedStatement | None:
    """Auto-parameterize ``sql``; None when it must be taken verbatim.

    Only plain DML/queries are normalized — DDL carries literals that are
    grammar (VARCHAR lengths), and control statements have none worth
    extracting.  With a ``memo`` the token rules run once per statement
    shape; without one they run on this text (the exact path).  Both
    give the same result.
    """
    # Cheap starter screen: anything that is not plain DML/query (DDL,
    # EXEC, BEGIN, ...) is verbatim.  Only trusted when the text starts
    # with a word — a leading comment hides the real starter.
    head = sql.lstrip()[:6].upper()
    if head[:1].isalpha() and head not in _NORMALIZABLE_STARTERS:
        return None
    if memo is not None:
        return memo.normalize(sql)
    return _normalize_exact(sql)


def _normalize_exact(sql: str) -> NormalizedStatement | None:
    """The token path: the template is the statement's tokens joined by
    single spaces, each parameter literal replaced by its marker."""
    try:
        tokens = tokenize(sql)
    except SqlSyntaxError:
        return None
    roles = _literal_roles(tokens)
    return None if roles is None else _normalize_tokens(tokens, roles)


def _normalize_tokens(tokens: list[Token],
                      roles) -> NormalizedStatement | None:
    """The token path's result from a text's tokens and the role of
    each of its literal tokens (:func:`_literal_roles`)."""
    bound = _bind(roles, [_render(tok) for tok in tokens
                          if tok.type in _LITERAL_TYPES])
    if bound is None:
        return None
    pattern, _, values, signature = bound
    slot_roles = iter(roles)
    names = iter(pattern)
    out: list[str] = []
    for tok in tokens[:-1]:
        role = next(slot_roles) if tok.type in _LITERAL_TYPES else None
        if role is None:
            out.append(_render(tok))
        elif role == "date":
            # DATE 'yyyy-mm-dd' collapses into one date-valued parameter.
            out[-1] = f"@{PARAM_PREFIX}{next(names)}"
        else:
            out.append(f"@{PARAM_PREFIX}{next(names)}")
    return NormalizedStatement(text=" ".join(out), values=values,
                               signature=signature)


def _literal_roles(tokens: list[Token]) -> list | None:
    """The role of each literal token, in order: ``"num"``, ``"str"`` or
    ``"date"`` when it becomes a parameter, None when it stays verbatim.
    None instead of a list when the statement is never normalized: not
    plain DML/query, or it already uses the parameter namespace."""
    first = tokens[0]
    if (first.type is not TokenType.KEYWORD
            or first.value not in _NORMALIZABLE_STARTERS):
        return None
    keep = _literals_to_keep(tokens)
    roles: list = []
    for i, tok in enumerate(tokens):
        ttype = tok.type
        if ttype is TokenType.NUMBER or ttype is TokenType.STRING:
            # After DATE a string is the date's text (the parser accepts
            # only a STRING there); any other literal after DATE or
            # INTERVAL stays where the grammar put it.
            prev = tokens[i - 1]
            after = prev.value if prev.type is TokenType.KEYWORD else None
            if i in keep or after == "INTERVAL":
                roles.append(None)
            elif after == "DATE":
                roles.append("date" if ttype is TokenType.STRING else None)
            else:
                roles.append("num" if ttype is TokenType.NUMBER else "str")
        elif (ttype is TokenType.PARAMETER
              and tok.value.startswith(PARAM_PREFIX)):
            return None
    return roles


def _bind(roles, literals) -> tuple | None:
    """Name the parameter literals among ``literals`` (raw texts, in text
    order, with their roles): equal literals share one name.  Returns the
    name index of each parameter literal, the verbatim literals, and the
    ``(name, value)`` pairs and type signature in name order; None when
    no literal is a parameter, or a DATE literal is no date (the parser
    would reject it anyway)."""
    names: dict[tuple, int] = {}
    pattern: list[int] = []
    kept: list[str] = []
    values: list[tuple[str, object]] = []
    signature: list[tuple] = []
    for role, literal in zip(roles, literals):
        if role is None:
            kept.append(literal)
            continue
        key = (role, literal)
        index = names.get(key)
        if index is None:
            if role == "num":
                value = _number_value(literal)
            else:
                value = literal[1:-1].replace("''", "'")
                if role == "date":
                    try:
                        value = datetime.date.fromisoformat(value)
                    except ValueError:
                        return None
            index = names[key] = len(names)
            values.append((f"{PARAM_PREFIX}{index}", value))
            signature.append(_type_signature(value))
        pattern.append(index)
    if not names:
        return None
    return tuple(pattern), tuple(kept), tuple(values), tuple(signature)


def _number_value(text: str):
    if "." in text or "e" in text or "E" in text:
        return float(text)
    return int(text)


def _type_signature(value) -> tuple:
    # String lengths are part of the signature because the planner's output
    # type inference reports VARCHAR(len(value)) for string parameters —
    # a cached plan must reproduce the exact column metadata of a cold one.
    if isinstance(value, str):
        return ("str", len(value))
    if isinstance(value, bool):
        return ("bool",)
    if isinstance(value, int):
        return ("int",)
    if isinstance(value, float):
        return ("float",)
    if isinstance(value, datetime.date):
        return ("date",)
    return (type(value).__name__,)


def _render(tok: Token) -> str:
    if tok.type is TokenType.STRING:
        return "'" + tok.value.replace("'", "''") + "'"
    if tok.type is TokenType.PARAMETER:
        return "@" + tok.value
    return tok.value


def _literals_to_keep(tokens: list[Token]) -> set[int]:
    """Indices of literal tokens that must stay verbatim in the template.

    Kept positions are exactly the ones where the planner's behavior
    depends on *seeing* a literal:

    * integers after TOP / LIMIT (grammar requires them);
    * literals after DATE / INTERVAL (grammar; DATE is absorbed separately);
    * bare integers in an ORDER BY list (1-based output positions);
    * literal-compared-to-literal predicates (constant folding —
      ``WHERE 0 = 1`` must still plan as an empty scan);
    * a literal standing alone as a conjunct (``WHERE 0``).
    """
    keep: set[int] = set()
    n = len(tokens)
    depth = 0
    order_depth: int | None = None

    def literal_unit(start: int) -> tuple[int, ...]:
        """Literal token indices of a constant operand at ``start``
        (empty when that side of the comparison is not a constant).
        ``DATE 'x'`` counts as a constant whose literal is the string."""
        if not 0 <= start < n:
            return ()
        if tokens[start].type in _LITERAL_TYPES:
            return (start,)
        if (tokens[start].type is TokenType.KEYWORD
                and tokens[start].value == "DATE" and start + 1 < n
                and tokens[start + 1].type is TokenType.STRING):
            return (start + 1,)
        return ()

    for i, tok in enumerate(tokens):
        ttype = tok.type
        if ttype is TokenType.OPERATOR:
            if tok.value == "(":
                depth += 1
            elif tok.value == ")":
                depth -= 1
                if order_depth is not None and depth < order_depth:
                    order_depth = None
            elif tok.value in _COMPARISON_OPS:
                left = literal_unit(i - 1)
                right = literal_unit(i + 1)
                if left and right:
                    keep.update(left)
                    keep.update(right)
            continue

        if ttype is TokenType.KEYWORD:
            if (tok.value == "BY" and i > 0
                    and tokens[i - 1].type is TokenType.KEYWORD
                    and tokens[i - 1].value == "ORDER"):
                order_depth = depth
            elif tok.value == "LIMIT" and order_depth == depth:
                order_depth = None
            continue

        if ttype is not TokenType.NUMBER and ttype is not TokenType.STRING:
            continue

        # Neighbors matter only for literal tokens; fetch them lazily.
        prev = tokens[i - 1] if i > 0 else None
        nxt = tokens[i + 1] if i + 1 < n else None

        if (prev is not None and prev.type is TokenType.KEYWORD
                and prev.value in ("TOP", "LIMIT", "INTERVAL")):
            keep.add(i)
            continue
        # Bare-constant conjunct: WHERE 0 / ... AND 1 — the planner folds
        # these, so hide nothing from it.
        if (prev is not None and prev.type is TokenType.KEYWORD
                and prev.value in _CONJUNCT_HEADS
                and (nxt is None or nxt.type is TokenType.END
                     or nxt.type is TokenType.KEYWORD
                     or (nxt.type is TokenType.OPERATOR
                         and nxt.value == ")"))):
            keep.add(i)
            continue
        # ORDER BY positional: integer list element at the list's depth.
        if (tok.type is TokenType.NUMBER and order_depth == depth
                and "." not in tok.value
                and "e" not in tok.value and "E" not in tok.value
                and prev is not None
                and ((prev.type is TokenType.KEYWORD and prev.value == "BY")
                     or (prev.type is TokenType.OPERATOR
                         and prev.value == ","))
                and nxt is not None
                and ((nxt.type is TokenType.OPERATOR
                      and nxt.value in (",", ")"))
                     or (nxt.type is TokenType.KEYWORD
                         and nxt.value in ("ASC", "DESC", "LIMIT"))
                     or nxt.type is TokenType.END)):
            keep.add(i)
    return keep


# ---------------------------------------------------------------------------
# Cached objects
# ---------------------------------------------------------------------------


@dataclass
class CachedStatement:
    """Level-2 entry: one parsed statement, shared across every raw text
    that normalizes to the same template.  Holds nothing text-specific —
    per-call literal values travel in the :class:`NormalizedStatement`
    of the *current* raw text, never in this shared object."""

    statement: object                         # parsed AST (read-only)
    #: Template text the statement was parsed from; None when the
    #: statement arrived pre-parsed (no text to key a plan on).
    text: str | None = None


@dataclass
class PlanCacheEntry:
    """Level-3 entry: one compiled SELECT plan (or DML statement) plus
    revalidation facts.  A statement without text gets one too, planned
    afresh and never stored."""

    plan: object                 # repro.sql.planner.Plan, or compiled DML
    params: dict                 # mutable dict the plan's closures captured
    subqueries: list             # CompiledSubquery objects (memos cleared
                                 # before each reuse)
    table_versions: dict[str, int]   # referenced name -> catalog version
    #: Referenced temp tables, name -> the Table runtime the plan baked
    #: in.  Validated by object identity: a dropped/recreated temp table
    #: gets a fresh runtime, which makes the entry unusable.
    temp_tables: dict
    streamable: bool = False
    #: Number of row streams of this plan currently being consumed.  A
    #: suspended stream still reads the shared params dict, so a new
    #: execution must not rebind it; lookups bypass active entries.
    active: int = 0
    #: What the statement reads, declared by its planner
    #: (``repro.sql.planner.Footprint``): its names key
    #: ``table_versions`` and ``temp_tables`` once the entry is stored,
    #: stamp each result and give the in-transaction read locks.  As
    #: current as the entry: redefining any name fails the revalidation
    #: above.
    footprint: object = None
    #: Referenced name -> catalog *statistics* version at compile time.
    #: ANALYZE bumps the counter, so plans costed under stale statistics
    #: are invalidated and replanned exactly like post-DDL plans.
    stats_versions: dict[str, int] = field(default_factory=dict)
    #: Memo cells of the plan's per-execution parameter subtrees
    #: (``Planner.param_memos``), reset before each reuse.
    param_memos: list = field(default_factory=list)

    def is_valid(self, catalog) -> bool:
        return (all(catalog.version_of(name) == version
                    for name, version in self.table_versions.items())
                and all(catalog.stats_version_of(name) == version
                        for name, version in self.stats_versions.items()))
