"""Statement normalization and multi-level statement/plan caching.

Everything here trades *host* time for memory without moving a single
virtual second: the engine still levies ``cpu_per_statement_seconds`` per
executed statement, so paper-calibrated timings are untouched whether a
statement hits or misses these caches.

Three levels, all LRU-bounded:

1. **Normalization cache** — raw statement text to its auto-parameterized
   form (:func:`normalize_statement`): literals are replaced by ``@__litN``
   markers so the thousands of distinct TPC-C texts that differ only in
   inlined values collapse onto a handful of templates.  Pure text
   transform, schema independent, never invalidated.
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

from repro.errors import SqlSyntaxError
from repro.sql.lexer import tokenize
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
#: many, its normalization cache 32 times as many).
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

    @property
    def params(self) -> dict:
        return dict(self.values)


#: Fast-path eligibility: plain DML/query starter ...
_FAST_STARTER = re.compile(r"\s*(?:SELECT|INSERT|UPDATE|DELETE)\b",
                           re.IGNORECASE).match
#: ... and none of the features whose literal-keeping rules need real
#: token context: explicit parameters, comments, doubled-quote escapes,
#: double-quoted identifiers, and the keywords after which literals stay
#: verbatim (TOP/LIMIT/INTERVAL/DATE) or become positional (ORDER BY).
_FAST_BLOCKER = re.compile(
    r"[@?\";]|--|/\*|''|\b(?:TOP|LIMIT|ORDER|INTERVAL|DATE)\b",
    re.IGNORECASE).search
#: Simple string literals and stand-alone numbers (no exponent forms,
#: nothing glued to identifiers or dots).
_FAST_LITERAL = re.compile(r"'([^']*)'|(?<![\w.])\d+(?:\.\d+)?(?![\w.])")
#: A literal is parameterized on the fast path only when the previous
#: non-space character proves it is a comparison/arithmetic operand or a
#: list element.  Every other context (bare conjuncts, select-list
#: constants, keyword-adjacent literals) falls back to the tokenizer.
_FAST_PREV_OK = frozenset("=<>(,+-*/")
#: Characters that, adjacent to a comparison operator, may mean the other
#: operand is a constant too (literal-vs-literal predicates are kept
#: verbatim so the planner can fold them) — over-triggering is fine, it
#: only costs a fallback to the exact path.
_FAST_CONST_CHARS = frozenset("0123456789'.+-")


def _fast_compared_to_constant(sql: str, start: int, end: int) -> bool:
    """Might the literal at ``sql[start:end]`` sit in a literal-vs-literal
    comparison?  Conservative: True on any doubt."""
    n = len(sql)
    j = end
    while j < n and sql[j].isspace():
        j += 1
    if j < n and sql[j] in "=<>":
        while j < n and sql[j] in "=<>":
            j += 1
        while j < n and sql[j].isspace():
            j += 1
        if j < n and sql[j] in _FAST_CONST_CHARS:
            return True
    j = start - 1
    while j >= 0 and sql[j].isspace():
        j -= 1
    if j >= 0 and sql[j] in "=<>":
        while j >= 0 and sql[j] in "=<>":
            j -= 1
        while j >= 0 and sql[j].isspace():
            j -= 1
        if j >= 0 and sql[j] in _FAST_CONST_CHARS:
            return True
    return False


def _fast_normalize(sql: str) -> NormalizedStatement | None:
    """Regex-only normalization for simple literal shapes.

    Host-only shortcut: produces a usable template without tokenizing
    when every literal is provably an operand position the keep-rules
    never protect.  Returns None on *any* doubt — the caller then runs
    the exact tokenizer path.  Fast templates keep the raw text's
    spacing (the tokenizer path re-joins tokens), so the two paths can
    yield different-but-equivalent templates; each is self-consistent,
    which is all the statement/plan caches need.
    """
    if _FAST_BLOCKER(sql) or not _FAST_STARTER(sql):
        return None
    matches = list(_FAST_LITERAL.finditer(sql))
    if not matches:
        return None
    names: dict[tuple, str] = {}
    values: list[tuple[str, object]] = []
    signature: list[tuple] = []
    out: list[str] = []
    last = 0
    for m in matches:
        start = m.start()
        j = start - 1
        while j >= 0 and sql[j].isspace():
            j -= 1
        if j < 0 or sql[j] not in _FAST_PREV_OK:
            return None
        if _fast_compared_to_constant(sql, start, m.end()):
            return None
        content = m.group(1)
        if content is not None:
            key = ("str", content)
            value: object = content
        else:
            text = m.group(0)
            key = ("num", text)
            value = _number_value(text)
        name = names.get(key)
        if name is None:
            name = f"{PARAM_PREFIX}{len(names)}"
            names[key] = name
            values.append((name, value))
            signature.append(_type_signature(value))
        out.append(sql[last:start])
        out.append("@")
        out.append(name)
        last = m.end()
    out.append(sql[last:])
    template = "".join(out)
    if "'" in template:
        # An unpaired quote survived the literal scan — string syntax is
        # richer than the fast regex assumed; let the lexer decide.
        return None
    return NormalizedStatement(text=template, values=tuple(values),
                               signature=tuple(signature))


def normalize_statement(sql: str) -> NormalizedStatement | None:
    """Auto-parameterize ``sql``; None when it must be taken verbatim.

    Only plain DML/queries are normalized — DDL carries literals that are
    grammar (VARCHAR lengths), and control statements have none worth
    extracting.  Returns None rather than guessing whenever any rule is
    unsure, in which case the caller caches on the raw text instead.
    """
    # Cheap starter screen before paying for a full tokenize: anything
    # that is not plain DML/query (DDL, EXEC, BEGIN, ...) is verbatim.
    # Only trusted when the text starts with a word — a leading comment
    # hides the real starter, so fall through to the tokenizer then.
    head = sql.lstrip()[:6].upper()
    if head[:1].isalpha() and head not in _NORMALIZABLE_STARTERS:
        return None
    fast = _fast_normalize(sql)
    if fast is not None:
        return fast
    try:
        tokens = tokenize(sql)
    except SqlSyntaxError:
        return None
    if not tokens or tokens[0].type is not TokenType.KEYWORD:
        return None
    if tokens[0].value not in _NORMALIZABLE_STARTERS:
        return None
    if "@" in sql:  # parameter tokens cannot exist without an '@'
        for tok in tokens:
            if (tok.type is TokenType.PARAMETER
                    and tok.value.startswith(PARAM_PREFIX)):
                return None

    keep = _literals_to_keep(tokens)
    out: list[str] = []
    names: dict[tuple, str] = {}       # (kind, key) -> param name
    values: list[tuple[str, object]] = []
    signature: list[tuple] = []

    def intern(kind: str, key, value) -> str:
        name = names.get((kind, key))
        if name is None:
            name = f"{PARAM_PREFIX}{len(names)}"
            names[(kind, key)] = name
            values.append((name, value))
            signature.append(_type_signature(value))
        return name

    i = 0
    n = len(tokens)
    changed = False
    append = out.append
    while i < n:
        tok = tokens[i]
        ttype = tok.type
        # Identifiers and operators — the bulk of any statement — render
        # as their raw value; branch for them first.
        if ttype is TokenType.IDENTIFIER or ttype is TokenType.OPERATOR:
            append(tok.value)
            i += 1
            continue
        if ttype is TokenType.KEYWORD:
            # DATE 'yyyy-mm-dd' collapses into one date-valued parameter
            # (the parser only accepts a STRING after DATE, so the pair
            # must be absorbed together or left together).
            if (tok.value == "DATE"
                    and i + 1 < n
                    and tokens[i + 1].type is TokenType.STRING
                    and (i + 1) not in keep):
                try:
                    date_value = datetime.date.fromisoformat(
                        tokens[i + 1].value)
                except ValueError:
                    return None  # the parser would reject it anyway
                append("@" + intern("date", tokens[i + 1].value,
                                    date_value))
                changed = True
                i += 2
                continue
            append(tok.value)
            i += 1
            continue
        if ttype is TokenType.END:
            break
        if (ttype is TokenType.NUMBER or ttype is TokenType.STRING) \
                and i not in keep:
            prev = tokens[i - 1] if i > 0 else None
            if (prev is not None and prev.type is TokenType.KEYWORD
                    and prev.value in ("DATE", "INTERVAL")):
                append(_render(tok))
                i += 1
                continue
            if ttype is TokenType.NUMBER:
                append("@" + intern("num", tok.value,
                                    _number_value(tok.value)))
            else:
                append("@" + intern("str", tok.value, tok.value))
            changed = True
            i += 1
            continue
        append(_render(tok))
        i += 1

    if not changed:
        return None
    return NormalizedStatement(text=" ".join(out), values=tuple(values),
                               signature=tuple(signature))


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
