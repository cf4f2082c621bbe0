"""Expression compilation and evaluation.

Expressions are compiled once per plan into one generated Python
function each: :class:`ExprCompiler` emits source for every pure node
kind, compiles it (memoized by source text) and hands back a
``fn(ctx)`` that evaluates against an :class:`EvalContext` (the current
row plus the chain of outer rows for correlated subqueries).  Subquery
nodes stay closures, called from the generated code.  SQL semantics
implemented here:

* three-valued logic — comparisons with NULL yield unknown (``None``);
  AND/OR/NOT follow Kleene logic; WHERE/HAVING treat unknown as false;
* aggregates (SUM/AVG/COUNT/MIN/MAX, with DISTINCT) skip NULLs; SUM/AVG
  over an empty input are NULL, COUNT is 0;
* ``LIKE`` with ``%``/``_`` wildcards (compiled to cached regexes);
* date arithmetic with ``INTERVAL`` literals and ``EXTRACT``;
* scalar subqueries / IN / EXISTS evaluated through a planner-supplied
  callback, memoized on the outer values they actually reference.
"""

from __future__ import annotations

import datetime
import operator
import re
from dataclasses import dataclass, field

from repro.errors import ColumnNotFoundError, PlanningError, TypeMismatchError
from repro.sql import ast
from repro.sql.plan_cache import LRUCache

#: Process-wide compiler diagnostics, surfaced through the ``sys_executor``
#: system view.  Counts compilations, not evaluations, so steady-state
#: workloads running from the plan cache leave these flat.
EXPR_STATS: dict[str, int] = {
    "exprs_compiled": 0,       # AST nodes emitted
    "exprs_generated": 0,      # functions built from generated source
    "code_memo_hits": 0,       # ... whose code object was already compiled
    "code_memo_misses": 0,
    "consts_folded": 0,
    "params_hoisted": 0,       # parameter subtrees, one value an execution
    "slot_refs": 0,
}

#: Bound on the two process-wide compilation memos: LIKE regexes by
#: pattern text, code objects by generated source.
MEMO_CAPACITY = 1024


def slot_of(fn) -> int | None:
    """The level-0 row index a compiled closure reads, if it is a bare
    column (or replacement-slot) reference — the batch executor uses this
    to index tuples directly instead of allocating an :class:`EvalContext`
    per row."""
    return getattr(fn, "_slot", None)


def is_impure(fn) -> bool:
    """True when evaluating ``fn`` can have side effects on the meter
    (the expression contains a subquery, whose execution charges virtual
    time).  An operator evaluating one takes its input one realized row
    at a time (``executor._input_batches``), so those charges fall where
    they would if the plan were read row by row."""
    return getattr(fn, "_impure", False)


@dataclass
class EvalContext:
    """Runtime context: the current row and the outer-row chain."""

    row: tuple
    outer: "EvalContext | None" = None

    def at_level(self, level: int) -> "EvalContext":
        ctx = self
        for _ in range(level):
            if ctx.outer is None:
                raise PlanningError("correlation level out of range")
            ctx = ctx.outer
        return ctx


class Scope:
    """Name resolution scope: column bindings of one query level.

    ``bindings`` is an ordered list of ``(table_binding, column_name)``
    pairs, matching the executor's row layout at that level.
    """

    def __init__(self, bindings: list[tuple[str, str]],
                 outer: "Scope | None" = None):
        self.bindings = bindings
        self.outer = outer
        #: (level, index) pairs for outer columns referenced from within
        #: this scope's subqueries — used for correlation memo keys.
        self.outer_refs: list[tuple[int, int]] = []

    def resolve(self, table: str | None, name: str,
                record: bool = True) -> tuple[int, int]:
        """Return (level, index); level 0 is this scope.

        Outer references are recorded on *every* scope they cross (with
        the level re-based to that scope) so a query boundary can ask
        "which outer values does anything inside me read?" — the planner
        uses this for correlated-subquery memoization keys.  Pass
        ``record=False`` for metadata-only resolution (type inference,
        structural keys), which must not count as a runtime correlation.
        """
        scope: Scope | None = self
        level = 0
        crossed: list[Scope] = []
        while scope is not None:
            index = scope._lookup(table, name)
            if index is not None:
                if record:
                    for distance, inner in enumerate(crossed):
                        inner._record_outer_ref(level - distance, index)
                return level, index
            crossed.append(scope)
            scope = scope.outer
            level += 1
        qualified = f"{table}.{name}" if table else name
        raise ColumnNotFoundError(f"unknown column {qualified!r}")

    def _lookup(self, table: str | None, name: str) -> int | None:
        name = name.lower()
        matches = []
        for i, (binding, column) in enumerate(self.bindings):
            if column.lower() != name:
                continue
            if table is not None and binding.lower() != table.lower():
                continue
            matches.append(i)
        if not matches:
            return None
        if len(matches) > 1:
            qualified = f"{table}.{name}" if table else name
            raise ColumnNotFoundError(f"ambiguous column {qualified!r}")
        return matches[0]

    def _record_outer_ref(self, level: int, index: int) -> None:
        ref = (level, index)
        if ref not in self.outer_refs:
            self.outer_refs.append(ref)


# ---------------------------------------------------------------------------
# Three-valued logic helpers
# ---------------------------------------------------------------------------


def sql_and(a, b):
    if a is False or b is False:
        return False
    if a is None or b is None:
        return None
    return True


def sql_or(a, b):
    if a is True or b is True:
        return True
    if a is None or b is None:
        return None
    return False


def sql_not(a):
    if a is None:
        return None
    return not a


def is_true(value) -> bool:
    """WHERE semantics: unknown is not true."""
    return value is True


_COMPARES = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def sql_compare(op: str, a, b):
    if a is None or b is None:
        return None
    # Branches ordered by frequency (numbers dominate key comparisons);
    # the guards are mutually exclusive so order never changes the result.
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return _COMPARES[op](a, b)
    if isinstance(a, str) and isinstance(b, str):
        return _COMPARES[op](a, b)
    if isinstance(a, datetime.date) and isinstance(b, datetime.date):
        return _COMPARES[op](a, b)
    # Mixed string/number comparisons: coerce string to number if possible.
    if isinstance(a, str) and isinstance(b, (int, float)):
        try:
            return _COMPARES[op](float(a), float(b))
        except ValueError:
            pass
    if isinstance(b, str) and isinstance(a, (int, float)):
        try:
            return _COMPARES[op](float(a), float(b))
        except ValueError:
            pass
    raise TypeMismatchError(
        f"cannot compare {type(a).__name__} with {type(b).__name__}")


def _add(a, b):
    if a is None or b is None:
        return None
    if isinstance(a, datetime.date) and isinstance(b, _IntervalValue):
        return b.add_to(a)
    if isinstance(b, datetime.date) and isinstance(a, _IntervalValue):
        return a.add_to(b)
    return a + b


def _sub(a, b):
    if a is None or b is None:
        return None
    if isinstance(a, datetime.date) and isinstance(b, _IntervalValue):
        return b.subtract_from(a)
    if isinstance(a, datetime.date) and isinstance(b, datetime.date):
        return (a - b).days
    return a - b


def _concat(a, b):
    if a is None or b is None:
        return None
    return str(a) + str(b)


@dataclass(frozen=True)
class _IntervalValue:
    """Runtime value of an INTERVAL literal."""

    amount: int
    unit: str  # 'year' | 'month' | 'day'

    def add_to(self, date: datetime.date) -> datetime.date:
        return _shift_date(date, self.amount, self.unit)

    def subtract_from(self, date: datetime.date) -> datetime.date:
        return _shift_date(date, -self.amount, self.unit)


def _shift_date(date: datetime.date, amount: int, unit: str) -> datetime.date:
    if unit == "day":
        return date + datetime.timedelta(days=amount)
    months = amount * (12 if unit == "year" else 1)
    total = date.year * 12 + (date.month - 1) + months
    year, month = divmod(total, 12)
    month += 1
    day = min(date.day, _days_in_month(year, month))
    return datetime.date(year, month, day)


def _days_in_month(year: int, month: int) -> int:
    if month == 12:
        return 31
    first_next = datetime.date(year, month + 1, 1)
    return (first_next - datetime.timedelta(days=1)).day


_LIKE_CACHE = LRUCache(MEMO_CAPACITY)


def _like_regex(pattern: str) -> re.Pattern:
    regex = _LIKE_CACHE.get(pattern)
    if regex is None:
        parts = []
        for ch in pattern:
            if ch == "%":
                parts.append(".*")
            elif ch == "_":
                parts.append(".")
            else:
                parts.append(re.escape(ch))
        regex = re.compile("^" + "".join(parts) + "$", re.DOTALL)
        _LIKE_CACHE.put(pattern, regex)
    return regex


def like_match(value, pattern) -> bool | None:
    if value is None or pattern is None:
        return None
    return _like_regex(pattern).match(str(value)) is not None


def _extract_error(value):
    raise TypeMismatchError(
        f"EXTRACT expects a date, got {type(value).__name__}")


# ---------------------------------------------------------------------------
# Scalar functions
# ---------------------------------------------------------------------------


def _fn_substring(args):
    text, start = args[0], args[1]
    if text is None or start is None:
        return None
    start_index = max(0, int(start) - 1)
    if len(args) > 2 and args[2] is not None:
        return str(text)[start_index:start_index + int(args[2])]
    return str(text)[start_index:]


def _fn_coalesce(args):
    for value in args:
        if value is not None:
            return value
    return None


_SCALAR_FUNCS = {
    "substring": _fn_substring,
    "coalesce": _fn_coalesce,
    "upper": lambda a: None if a[0] is None else str(a[0]).upper(),
    "lower": lambda a: None if a[0] is None else str(a[0]).lower(),
    "abs": lambda a: None if a[0] is None else abs(a[0]),
    "round": lambda a: None if a[0] is None else round(
        a[0], int(a[1]) if len(a) > 1 and a[1] is not None else 0),
    "length": lambda a: None if a[0] is None else len(str(a[0])),
    "mod": lambda a: None if (a[0] is None or a[1] is None) else a[0] % a[1],
}

AGGREGATE_NAMES = frozenset({"sum", "avg", "count", "min", "max"})


def is_aggregate_call(node: ast.Expr) -> bool:
    return isinstance(node, ast.FuncCall) and node.name in AGGREGATE_NAMES


def find_aggregates(node: ast.Expr | None) -> list[ast.FuncCall]:
    """Collect aggregate calls in ``node`` (not descending into subqueries)."""
    found: list[ast.FuncCall] = []
    _walk_for_aggregates(node, found)
    return found


def _walk_for_aggregates(node, found: list) -> None:
    if node is None or not isinstance(node, ast.Expr):
        return
    if is_aggregate_call(node):
        found.append(node)
        return  # nested aggregates are invalid; args handled by the agg
    for child in _children(node):
        _walk_for_aggregates(child, found)


def expr_has_subquery(node) -> bool:
    """True when ``node``'s subtree contains any subquery expression."""
    if node is None or not isinstance(node, ast.Expr):
        return False
    if isinstance(node, (ast.ScalarSubquery, ast.Exists, ast.InSubquery)):
        return True
    return any(expr_has_subquery(child) for child in _children(node))


#: Leaves of a subtree fixed for a whole plan (folded at plan time) ...
_CONST_LEAVES = (ast.Literal, ast.Interval)
#: ... and of one fixed for one execution (parameters are rebound only
#: between executions).
_EXECUTION_LEAVES = _CONST_LEAVES + (ast.Param,)
#: What makes a subtree vary from row to row.
_PER_ROW_NODES = (ast.ColumnRef, ast.ScalarSubquery, ast.Exists,
                  ast.InSubquery)
#: Context handed to constant subtrees when folding; they never read it.
_CONST_CTX = EvalContext(row=())


def _is_fixed(node: ast.Expr, leaves: tuple, replaced=()) -> bool:
    """True when ``node`` has one value while its ``leaves`` keep theirs:
    such leaves combined by deterministic operators/functions, with no
    column ref, subquery, aggregate or node in ``replaced`` (a
    replacement slot of the aggregated row) anywhere in the subtree."""
    if isinstance(node, _PER_ROW_NODES) or id(node) in replaced:
        return False
    if isinstance(node, ast.FuncCall) and node.name in AGGREGATE_NAMES:
        return False
    children = _children(node)
    if not children:
        # Unknown childless node types are conservatively not fixed.
        return isinstance(node, leaves)
    return all(_is_fixed(child, leaves, replaced) for child in children)


def _children(node: ast.Expr):
    if isinstance(node, ast.Unary):
        return [node.operand]
    if isinstance(node, ast.Binary):
        return [node.left, node.right]
    if isinstance(node, ast.IsNull):
        return [node.operand]
    if isinstance(node, ast.Between):
        return [node.operand, node.low, node.high]
    if isinstance(node, ast.InList):
        return [node.operand] + list(node.items)
    if isinstance(node, ast.InSubquery):
        return [node.operand]
    if isinstance(node, ast.Like):
        return [node.operand, node.pattern]
    if isinstance(node, ast.CaseWhen):
        children = []
        for cond, result in node.whens:
            children.extend([cond, result])
        if node.else_result is not None:
            children.append(node.else_result)
        return children
    if isinstance(node, ast.FuncCall):
        return list(node.args)
    if isinstance(node, ast.Extract):
        return [node.operand]
    return []


# ---------------------------------------------------------------------------
# The compiler
# ---------------------------------------------------------------------------


def reset_memos(cells: list) -> None:
    """Forget the per-execution values of hoisted parameter subtrees
    (their plan is about to run with other parameters)."""
    for cell in cells:
        cell[0] = _UNSET


@dataclass
class CompiledSubquery:
    """A planned subquery plus its correlation bookkeeping."""

    plan: object  # repro.sql.planner.Plan (kept loose to avoid a cycle)
    outer_refs: list[tuple[int, int]] = field(default_factory=list)
    memo: dict = field(default_factory=dict)

    def __post_init__(self):
        #: ``ctx -> memo key``: the outer values the subquery reads.
        self.memo_key = _memo_key(self.outer_refs)


def _memo_key(outer_refs: list[tuple[int, int]]):
    """The memo key function of a subquery reading ``outer_refs``
    (level 1 is the row the subquery is evaluated for): an itemgetter
    over that row when every reference is to it."""
    if outer_refs and all(level == 1 for level, _index in outer_refs):
        get = operator.itemgetter(*[index for _level, index in outer_refs])
        return lambda ctx: get(ctx.row)
    refs = [(level - 1, index) for level, index in outer_refs]
    return lambda ctx: tuple([ctx.at_level(up).row[index] if up >= 0
                              else None for up, index in refs])


#: Exact operand types whose comparison is the bare Python operator when
#: both sides share one (or both are in ``_NUMERIC``); bool and everything
#: else go through sql_compare.
_INLINE_COMPARE = frozenset({int, float, str, datetime.date})
_NUMERIC = frozenset({int, float})
_TYPE_NAMES = {str: "str", datetime.date: "date"}
_PY_COMPARES = {"=": "==", "<>": "!=", "<": "<", "<=": "<=", ">": ">",
                ">=": ">="}

#: Value of a per-execution memo cell before its first evaluation.
_UNSET = object()

_NULL_IN = "None if {a} is None or {b} is None else "
_NOT = "None if {a} is None else not {a}"
_AND = ("False if {a} is False or {b} is False else "
        "(None if {a} is None or {b} is None else True)")
#: Source of ``t = a <op> b`` for the non-comparison binary operators.
#: Both operands are already evaluated (they are atoms) — there is no
#: short circuit, so an operand's TypeMismatchError always surfaces.
_BINARY_SOURCE = {
    "AND": _AND,
    "OR": ("True if {a} is True or {b} is True else "
           "(None if {a} is None or {b} is None else False)"),
    "+": _NULL_IN + ("({a} + {b} if type({a}) in _NUMERIC "
                     "and type({b}) in _NUMERIC else _add({a}, {b}))"),
    "-": _NULL_IN + ("({a} - {b} if type({a}) in _NUMERIC "
                     "and type({b}) in _NUMERIC else _sub({a}, {b}))"),
    "*": _NULL_IN + "{a} * {b}",
    # SQL engines raise on x / 0; returning NULL keeps queries total.
    "/": "None if {a} is None or {b} is None or {b} == 0 else {a} / {b}",
    "||": "_concat({a}, {b})",
}

#: Globals of every generated function (shared, so nothing per function).
_GEN_GLOBALS = {
    "sql_compare": sql_compare, "like_match": like_match,
    "_add": _add, "_sub": _sub, "_concat": _concat,
    "_extract_error": _extract_error, "date": datetime.date,
    "_INLINE_COMPARE": _INLINE_COMPARE, "_NUMERIC": _NUMERIC,
    "_UNSET": _UNSET,
}
_CODE_MEMO = LRUCache(MEMO_CAPACITY)


class _Source:
    """The statements of one generated function, in evaluation order.

    Every emitted node leaves its value in an *atom* — a local temp or a
    bound constant name — that later statements may read any number of
    times.  ``known`` maps the atoms of compile-time constants to their
    values (comparison against a typed literal specializes on it).
    ``fold`` is off only in the throwaway function that evaluates a
    constant subtree at plan time; ``hoist`` is off there and in the
    function of a hoisted parameter subtree itself.
    """

    def __init__(self, fold: bool = True, hoist: bool = True):
        self.fold = fold
        self.hoist = hoist
        self.lines: list[str] = []
        self.bound: list = []           # values of k0, k1, ... in order
        self.known: dict[str, object] = {}
        self.slots: dict[str, int] = {}  # atom -> level-0 row index
        self._slot_atoms: dict[int, str] = {}
        self.depth = 2
        self._temps = 0
        self.params_atom: str | None = None

    def bind(self, value) -> str:
        self.bound.append(value)
        return f"k{len(self.bound) - 1}"

    def const(self, value) -> str:
        atom = self.bind(value)
        self.known[atom] = value
        return atom

    def temp(self) -> str:
        self._temps += 1
        return f"t{self._temps}"

    def line(self, text: str) -> None:
        self.lines.append("    " * self.depth + text)

    def let(self, expr: str) -> str:
        atom = self.temp()
        self.line(f"{atom} = {expr}")
        return atom

    def slot(self, index: int) -> str:
        EXPR_STATS["slot_refs"] += 1
        atom = self._slot_atoms.get(index)
        if atom is None:
            atom = self.let(f"row[{index}]")
            self.slots[atom] = index
            if self.depth == 2:
                # Read unconditionally: every later statement may reuse
                # it (a read inside a lazy branch is not always made).
                self._slot_atoms[index] = atom
        return atom

    def build(self, result: str):
        """Compile (or fetch) the code and bind the constants."""
        names = ", ".join(f"k{i}" for i in range(len(self.bound)))
        text = "\n".join(
            [f"def _make({names}):", "    def _expr(ctx):",
             *(["        row = ctx.row"] if self.slots else []),
             *self.lines, f"        return {result}", "    return _expr",
             ""])
        EXPR_STATS["exprs_generated"] += 1
        code = _CODE_MEMO.get(text)
        if code is None:
            EXPR_STATS["code_memo_misses"] += 1
            code = compile(text, "<sql-expr>", "exec")
            _CODE_MEMO.put(text, code)
        else:
            EXPR_STATS["code_memo_hits"] += 1
        exec(code, _GEN_GLOBALS)
        return _GEN_GLOBALS.pop("_make")(*self.bound)


def _compare_source(op: str, a: str, b: str, out: _Source) -> str:
    """Source of the three-valued comparison of atoms ``a <op> b``.

    The bare Python operator runs only where sql_compare would run it:
    both values of one exact type in ``_INLINE_COMPARE``, or both exactly
    int or float (never bool).  Against a typed literal that is one
    exact-type test (a numeric family test for a number).
    """
    inline = f"{a} {_PY_COMPARES[op]} {b}"
    general = f"sql_compare({op!r}, {a}, {b})"
    for other, literal in ((a, b), (b, a)):
        kind = type(out.known.get(literal))
        if kind in _NUMERIC:
            return (f"None if {other} is None else ({inline} "
                    f"if type({other}) in _NUMERIC else {general})")
        name = _TYPE_NAMES.get(kind)
        if name is not None:
            return (f"None if {other} is None else ({inline} "
                    f"if type({other}) is {name} else {general})")
    return (f"None if {a} is None or {b} is None else ({inline} "
            f"if type({a}) is type({b}) and type({a}) in _INLINE_COMPARE "
            f"or type({a}) in _NUMERIC and type({b}) in _NUMERIC "
            f"else {general})")


class ExprCompiler:
    """Compiles AST expressions into generated evaluator functions.

    ``subquery_planner(select, scope)`` is provided by the planner and
    returns a plan object; ``subquery_runner(plan, ctx)`` is provided by
    the executor at run time through the context — here we receive it at
    construction to keep the subquery closures self-contained.

    ``replacements`` maps ``id(ast_node)`` to an output slot index — the
    planner uses it to make post-aggregation expressions read aggregate
    results (and GROUP BY keys) from the aggregated row.

    ``memo_log`` collects the per-execution memo cells of hoisted
    parameter subtrees (see :meth:`_emit_hoisted`); whoever rebinds
    ``params`` must reset them (:func:`reset_memos`).  Without one
    nothing is hoisted.
    """

    def __init__(self, scope: Scope, subquery_planner=None,
                 subquery_runner=None, params: dict | None = None,
                 replacements: dict[int, int] | None = None,
                 subquery_log: list | None = None,
                 memo_log: list | None = None):
        self._scope = scope
        self._plan_subquery = subquery_planner
        self._run_subquery = subquery_runner
        self._params = params or {}
        self._replacements = replacements or {}
        self._subquery_log = subquery_log
        self._memo_log = memo_log

    def compile(self, node: ast.Expr):
        """Return ``fn(ctx: EvalContext) -> value``.

        The whole tree becomes one function; only subquery nodes remain
        closures inside it.  Compiled functions carry two advisory
        attributes read through :func:`slot_of` / :func:`is_impure`:
        ``_slot`` (a bare level-0 column read of that tuple index —
        eligible for the batch executor's direct-indexing fast paths) and
        ``_impure`` (the tree contains a subquery, so evaluation charges
        the meter and the operator takes its input row by row).  Constant
        subtrees are folded to their value at compile time; a fold that
        raises stays in the generated code so the error still surfaces
        during execution.  A subtree of parameters and constants is
        evaluated once per execution (:meth:`_emit_hoisted`).
        """
        out = _Source()
        result = self._emit(node, out)
        fn = out.build(result)
        if result in out.slots:
            fn._slot = out.slots[result]
        elif expr_has_subquery(node):
            fn._impure = True
        return fn

    def compile_values(self, nodes: list, alone: list):
        """Return ``fn(ctx) -> tuple``: the values of ``nodes``, in
        order, from one generated function (a None node gives None).
        ``alone[i]`` is ``nodes[i]`` compiled by :meth:`compile`; a node
        holding a subquery is evaluated by calling it, so that subquery
        is planned once."""
        out = _Source()
        atoms = []
        for node, fn in zip(nodes, alone):
            if node is None:
                atoms.append("None")
            elif is_impure(fn):
                atoms.append(out.let(f"{out.bind(fn)}(ctx)"))
            else:
                atoms.append(self._emit(node, out))
        fn = out.build("(" + "".join(f"{atom}, " for atom in atoms) + ")")
        if any(is_impure(one) for one in alone):
            fn._impure = True
        return fn

    def _emit(self, node: ast.Expr, out: _Source) -> str:
        """Emit the statements evaluating ``node``; returns its atom."""
        slot = self._replacements.get(id(node))
        if slot is not None:
            return out.slot(slot)
        method = getattr(self, "_emit_" + type(node).__name__.lower(), None)
        if method is None:
            raise PlanningError(
                f"cannot compile expression node {type(node).__name__}")
        if out.fold and not isinstance(node, _CONST_LEAVES) \
                and _is_fixed(node, _CONST_LEAVES):
            probe = _Source(fold=False, hoist=False)
            try:
                value = probe.build(method(node, probe))(_CONST_CTX)
            except Exception:
                pass  # evaluated (and raised) at run time instead
            else:
                EXPR_STATS["consts_folded"] += 1
                return out.const(value)
        EXPR_STATS["exprs_compiled"] += 1
        if out.hoist and self._memo_log is not None \
                and not isinstance(node, _EXECUTION_LEAVES) \
                and _is_fixed(node, _EXECUTION_LEAVES, self._replacements):
            return self._emit_hoisted(node, method, out)
        return method(node, out)

    def _emit_hoisted(self, node: ast.Expr, method, out: _Source) -> str:
        """Evaluate a parameter subtree (``@d + INTERVAL '1' YEAR``) once
        per execution: it becomes its own function, called where the
        subtree would be evaluated, the first time that point is reached
        in an execution; its value is kept in a memo cell the plan cache
        resets on every rebind.  A call that raises keeps nothing, so the
        error surfaces on exactly the rows it always did (never on an
        empty input)."""
        inner = _Source(hoist=False)
        fn = inner.build(method(node, inner))
        cell = [_UNSET]
        self._memo_log.append(cell)
        EXPR_STATS["params_hoisted"] += 1
        memo, call = out.bind(cell), out.bind(fn)
        atom = out.let(f"{memo}[0]")
        out.line(f"if {atom} is _UNSET:")
        out.line(f"    {atom} = {memo}[0] = {call}(ctx)")
        return atom

    # -- leaves ---------------------------------------------------------------

    def _emit_literal(self, node: ast.Literal, out):
        return out.const(node.value)

    def _emit_interval(self, node: ast.Interval, out):
        return out.const(_IntervalValue(node.amount, node.unit))

    def _emit_param(self, node: ast.Param, out):
        if node.name not in self._params:
            raise PlanningError(f"unbound parameter @{node.name}")
        # Looked up at eval time (cached plans rebind the same dict) by
        # a *bound* name: auto-parameterized statements number their
        # markers, and one shape must stay one source.
        if out.params_atom is None:
            out.params_atom = out.bind(self._params)
        return out.let(f"{out.params_atom}[{out.bind(node.name)}]")

    def _emit_columnref(self, node: ast.ColumnRef, out):
        level, index = self._scope.resolve(node.table, node.name)
        if level == 0:
            return out.slot(index)
        return out.let(f"ctx.at_level({level}).row[{index}]")

    # -- operators ---------------------------------------------------------

    def _emit_unary(self, node: ast.Unary, out):
        a = self._emit(node.operand, out)
        if node.op == "NOT":
            return out.let(_NOT.format(a=a))
        if node.op == "-":
            return out.let(f"None if {a} is None else -{a}")
        return a

    def _emit_binary(self, node: ast.Binary, out):
        a = self._emit(node.left, out)
        b = self._emit(node.right, out)
        if node.op in _PY_COMPARES:
            return out.let(_compare_source(node.op, a, b, out))
        source = _BINARY_SOURCE.get(node.op)
        if source is None:
            raise PlanningError(f"unknown binary operator {node.op!r}")
        return out.let(source.format(a=a, b=b))

    def _emit_isnull(self, node: ast.IsNull, out):
        a = self._emit(node.operand, out)
        return out.let(f"{a} is not None" if node.negated
                       else f"{a} is None")

    def _emit_between(self, node: ast.Between, out):
        value = self._emit(node.operand, out)
        low = self._emit(node.low, out)
        above = out.let(_compare_source(">=", value, low, out))
        high = self._emit(node.high, out)
        below = out.let(_compare_source("<=", value, high, out))
        result = out.let(_AND.format(a=above, b=below))
        return out.let(_NOT.format(a=result)) if node.negated else result

    def _emit_inlist(self, node: ast.InList, out):
        value = self._emit(node.operand, out)
        hit, miss = ("False", "True") if node.negated else ("True", "False")
        result, depth = out.temp(), out.depth
        out.line(f"{result} = None")
        out.line(f"if {value} is not None:")
        out.depth += 1
        # Fast path: every item is a literal of one comparison family.
        # A frozenset probe matches sql_compare's ``=`` exactly there
        # (int/float hash equality; str equality) and no candidate is
        # NULL.  Any other operand type takes the general scan, so
        # coercion and error behaviour stay identical.
        kinds = {type(item.value) if isinstance(item, ast.Literal)
                 else None for item in node.items}
        guard = None
        if kinds and kinds <= _NUMERIC:
            guard = f"type({value}) is int or type({value}) is float"
        elif kinds == {str}:
            guard = f"type({value}) is str"
        if guard is not None:
            candidates = out.bind(frozenset(i.value for i in node.items))
            out.line(f"if {guard}:")
            out.line(f"    {result} = {value} "
                     f"{'not in' if node.negated else 'in'} {candidates}")
            out.line("else:")
            out.depth += 1
        # General scan: items are evaluated lazily, in order, up to the
        # first match (a one-pass ``while`` keeps the source flat).
        saw_null = out.temp()
        out.line(f"{saw_null} = False")
        out.line("while True:")
        out.depth += 1
        for item in node.items:
            candidate = self._emit(item, out)
            out.line(f"if {candidate} is None:")
            out.line(f"    {saw_null} = True")
            out.line("elif ("
                     + _compare_source("=", value, candidate, out)
                     + ") is True:")
            out.line(f"    {result} = {hit}")
            out.line("    break")
        out.line(f"{result} = None if {saw_null} else {miss}")
        out.line("break")
        out.depth = depth
        return result

    def _emit_like(self, node: ast.Like, out):
        value = self._emit(node.operand, out)
        pattern = self._emit(node.pattern, out)
        if type(out.known.get(pattern)) is str:
            # Constant pattern: bind its regex, no cache probe per row.
            match = out.bind(_like_regex(out.known[pattern]).match)
            result = out.let(f"None if {value} is None "
                             f"else {match}(str({value})) is not None")
        else:
            result = out.let(f"like_match({value}, {pattern})")
        return out.let(_NOT.format(a=result)) if node.negated else result

    def _emit_casewhen(self, node: ast.CaseWhen, out):
        result = out.temp()
        out.line("while True:")  # one pass; ``break`` = branch taken
        out.depth += 1
        for cond, then in node.whens:
            test = self._emit(cond, out)
            out.line(f"if {test} is True:")
            out.depth += 1
            out.line(f"{result} = {self._emit(then, out)}")
            out.line("break")
            out.depth -= 1
        otherwise = (self._emit(node.else_result, out)
                     if node.else_result is not None else "None")
        out.line(f"{result} = {otherwise}")
        out.line("break")
        out.depth -= 1
        return result

    def _emit_extract(self, node: ast.Extract, out):
        if node.field_name not in ("year", "month", "day"):
            raise PlanningError(f"unknown EXTRACT field {node.field_name!r}")
        a = self._emit(node.operand, out)
        return out.let(
            f"None if {a} is None else ({a}.{node.field_name} "
            f"if isinstance({a}, date) else _extract_error({a}))")

    def _emit_funccall(self, node: ast.FuncCall, out):
        if node.name in AGGREGATE_NAMES:
            raise PlanningError(
                f"aggregate {node.name.upper()} used outside an "
                f"aggregating context")
        fn = _SCALAR_FUNCS.get(node.name)
        if fn is None:
            raise PlanningError(f"unknown function {node.name!r}")
        args = [self._emit(arg, out) for arg in node.args]
        return out.let(f"{out.bind(fn)}([{', '.join(args)}])")

    # -- subqueries ----------------------------------------------------------

    # Subqueries charge the meter and memoize per correlation key; they
    # stay closures, called from the generated code as ``kN(ctx)``.

    def _emit_scalarsubquery(self, node: ast.ScalarSubquery, out):
        compiled = self._prepare_subquery(node.subquery)

        def evaluate(ctx):
            rows = self._execute_subquery(compiled, ctx)
            if not rows:
                return None
            if len(rows) > 1:
                raise PlanningError("scalar subquery returned multiple rows")
            if len(rows[0]) != 1:
                raise PlanningError(
                    "scalar subquery must return one column")
            return rows[0][0]

        return out.let(f"{out.bind(evaluate)}(ctx)")

    def _emit_exists(self, node: ast.Exists, out):
        compiled = self._prepare_subquery(node.subquery, limit_one=True)

        def evaluate(ctx):
            rows = self._execute_subquery(compiled, ctx)
            result = bool(rows)
            return (not result) if node.negated else result

        return out.let(f"{out.bind(evaluate)}(ctx)")

    def _emit_insubquery(self, node: ast.InSubquery, out):
        operand = self.compile(node.operand)
        compiled = self._prepare_subquery(node.subquery)

        def evaluate(ctx):
            value = operand(ctx)
            if value is None:
                return None
            rows = self._execute_subquery(compiled, ctx)
            saw_null = False
            for row in rows:
                candidate = row[0]
                if candidate is None:
                    saw_null = True
                    continue
                if sql_compare("=", value, candidate) is True:
                    return False if node.negated else True
            if saw_null:
                return None
            return True if node.negated else False

        return out.let(f"{out.bind(evaluate)}(ctx)")

    def _prepare_subquery(self, select: ast.SelectStatement,
                          limit_one: bool = False) -> CompiledSubquery:
        if self._plan_subquery is None:
            raise PlanningError("subqueries are not allowed in this context")
        plan, outer_refs = self._plan_subquery(select, self._scope,
                                               limit_one)
        compiled = CompiledSubquery(plan=plan, outer_refs=outer_refs)
        if self._subquery_log is not None:
            self._subquery_log.append(compiled)
        return compiled

    def _execute_subquery(self, compiled: CompiledSubquery,
                          ctx: EvalContext) -> list[tuple]:
        key = compiled.memo_key(ctx)
        cached = compiled.memo.get(key)
        if cached is not None:
            return cached
        rows = self._run_subquery(compiled.plan, ctx)
        compiled.memo[key] = rows
        return rows
