"""Physical operators: one batch-at-a-time protocol.

Every operator is a ``batches(exec_ctx)`` generator: each step yields
``(rows, costs)`` where ``rows`` is a list of tuples and ``costs``
describes the per-row virtual-time charges still *owed* for them.

Laziness matters for fidelity: the server pulls rows into its network
output buffer and *suspends* the scan when the buffer fills (the Table 3
artifact), and abandoned result sets must never charge for rows the
consumer did not pull.  Operators therefore defer per-tuple CPU
charges: a batch says how many seconds each of its rows still owes —
one float per row, the sum of what examining it cost on the way up —
and the root adapter charges a row's seconds only at the moment that
row is handed to the consumer (:func:`_batch_row_stream`).  Charges for
rows examined but not emitted (filtered out, duplicate, unmatched
probes) ride along as a *carry* added to the next emitted row, or are
realized when the consumer pulls past the end — exactly when reading
the plan one row per pull would examine them.  The row-at-a-time
reading (``tests/row_engine_oracle.py``) adds the same seconds in
another order, so it agrees on rows and counters exactly and on the
clock to a relative 1e-9.

An operator whose expressions are impure (a subquery charges the meter
mid-evaluation; only Filter, Project and HashAggregate can hold one)
takes its input one realized row at a time with nothing owed (Filter
straight from :func:`_batch_row_stream`, the others through
:func:`_input_batches`); everything below it still runs in batches.  Scan batches
are page-granular and index lookups single-row so that buffer-pool
faults (disk charges) land on the pull that consumes the row.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter

from repro.errors import PlanningError
from repro.sim.costs import SERVER_CPU
from repro.sql.expressions import EvalContext, is_impure, slot_of
from repro.storage.btree import NULL_KEY, decode_key_value
from repro.storage.heap import RowId
from repro.types import stored_type


@dataclass
class ExecContext:
    """Everything an operator needs at run time."""

    meter: object            # repro.sim.meter.Meter
    outer: EvalContext | None = None

    def charge_cpu(self, seconds: float) -> None:
        # Batched: per-tuple charges accumulate and flush as one segment
        # with the identical total (see Meter.charge_batched).
        if seconds > 0:
            self.meter.charge_batched(SERVER_CPU, seconds, "query cpu")

    @property
    def costs(self):
        return self.meter.costs


class PlanOperator:
    """Base class: an operator is its ``batches`` generator."""

    cost_factor: float = 1.0

    def batches(self, exec_ctx: ExecContext):
        raise NotImplementedError

    def children(self) -> list["PlanOperator"]:
        return []


# ---------------------------------------------------------------------------
# Batch-protocol helpers
# ---------------------------------------------------------------------------
#
# ``costs`` in a ``(rows, costs)`` batch is one of:
#   None     — nothing owed (a blocking operator already charged);
#   a float  — uniform: every row owes this many seconds;
#   a list   — per row: ``costs[i]`` seconds (0.0: nothing).
#
# A streaming operator that drops rows keeps what they owed in a *carry*
# and adds it to the next row it emits.  What is left when a batch ends
# is charged exactly when the consumer pulls *past* those rows — the
# pull that examines them, read one row at a time — and always *before*
# the next child batch is requested, so a page fault in that request
# flushes the accumulator after them, not before.


def _owed(costs):
    """Iterate what each row of one batch owes, any costs shape."""
    if type(costs) is list:
        return costs
    return repeat(costs or 0.0)


def _pairs(rows: list, costs):
    """Iterate ``(row, owed seconds)`` for one batch, any costs shape."""
    return zip(rows, _owed(costs))


def _input_batches(child: PlanOperator, exec_ctx: ExecContext,
                   impure: bool):
    """``child``'s batches, for an operator about to evaluate its
    expressions over them.  Impure expressions get single-row batches
    with nothing owed — realize what is owed below, then evaluate, then
    hand one row up — so a subquery's charges fall between the same two
    rows' as when the plan is read one row at a time."""
    if not impure:
        return child.batches(exec_ctx)
    return (([row], None) for row in _batch_row_stream(child, exec_ctx))


def _charge_deferred(exec_ctx: ExecContext, n_rows: int, costs,
                     extra: float) -> None:
    """Realize a consumed batch's owed charges immediately.

    Blocking operators (sort, aggregate, join build) drain their input
    during the consumer's first pull, so input charges are due the
    moment a batch is consumed: what its rows owe, plus the ``extra``
    per-tuple cost of consuming them.
    """
    if type(costs) is list:
        # An explicit loop: the built-in sum() of floats is compensated
        # from Python 3.12 on, and the clock must not depend on that.
        owed = extra * n_rows
        for seconds in costs:
            owed += seconds
    else:
        owed = ((costs or 0.0) + extra) * n_rows
    exec_ctx.charge_cpu(owed)


def _all_slots(fns) -> list[int] | None:
    """Tuple indexes read by ``fns`` when every one is a bare level-0
    column reference (see ``slot_of``); None if any is not."""
    slots = []
    for fn in fns:
        slot = slot_of(fn)
        if slot is None:
            return None
        slots.append(slot)
    return slots


def _row_key(fns, ctx: EvalContext, bare_single: bool = False):
    """``row -> fns' values`` as a tuple, built once per execution:
    ``operator.itemgetter`` when every function is a bare column, else
    evaluated through ``ctx``.  ``bare_single`` returns one function's
    value itself, not a 1-tuple (a join key: build and probe take theirs
    from the same kind of function, so they agree)."""
    slots = _all_slots(fns)
    if slots is not None:
        # itemgetter(s) returns the bare value; itemgetter() raises.
        if len(slots) > 1 or bare_single:
            return itemgetter(*slots)
        if slots:
            slot = slots[0]
            return lambda row: (row[slot],)
        return lambda row: ()
    if bare_single and len(fns) == 1:
        fn = fns[0]

        def value(row):
            ctx.row = row
            return fn(ctx)
        return value

    def values(row):
        ctx.row = row
        return tuple([fn(ctx) for fn in fns])
    return values


def _count_batch(stats: dict, key: str) -> None:
    stats[key] = stats.get(key, 0) + 1


# ---------------------------------------------------------------------------
# Leaf operators
# ---------------------------------------------------------------------------


class SingleRowScan(PlanOperator):
    """Produces exactly one empty row (SELECT without FROM)."""

    def batches(self, exec_ctx: ExecContext):
        yield [()], None


class EmptyScan(PlanOperator):
    """Produces no rows — used when the WHERE clause is provably false.

    This is what makes Phoenix's ``WHERE 0=1`` metadata trick compile-only
    on our engine, matching the paper: "the query will not be executed and
    no result data is returned; only query compilation is performed".
    """

    def batches(self, exec_ctx: ExecContext):
        return iter(())


class SeqScan(PlanOperator):
    """Full scan of a table's heap.

    ``with_rid=True`` appends each row's address as a hidden trailing
    column: how UPDATE and DELETE read the rows they are about to
    change (:meth:`Planner.plan_dml_source`) through the same operators
    as any SELECT.
    """

    def __init__(self, table, cost_factor: float = 1.0):
        self.table = table
        self.cost_factor = cost_factor
        self.with_rid = False

    def batches(self, exec_ctx: ExecContext):
        owed = exec_ctx.costs.cpu_per_tuple_scan * self.cost_factor
        stats = exec_ctx.meter.executor_stats
        probe = exec_ctx.meter.lock_probe
        addressed = probe is not None or self.with_rid
        file_id = self.table.heap.file_id
        # One batch per heap page: the pool's fault (disk charge) happens
        # while producing the batch — the same pull that first needs it.
        # Addresses are built only for a lock probe or a DML source.
        for page_no, page in self.table.scan_pages():
            if not addressed:
                rows = page.live()
                if rows:
                    _count_batch(stats, "batches.SeqScan")
                    yield rows, owed
                continue
            block = [(RowId(file_id, page_no, slot), row)
                     for slot, row in page.rows()]
            if not block:
                continue
            _count_batch(stats, "batches.SeqScan")
            if probe is not None:
                for rid, row in block:
                    probe(self.table, rid, row)
            if self.with_rid:
                yield [row + (rid,) for rid, row in block], owed
            else:
                yield [row for _rid, row in block], owed


class IndexSeek(PlanOperator):
    """Point or range access through a B-tree index.

    ``prefix_fns`` produce the equality-prefix key values; ``lo_fn`` /
    ``hi_fn`` optionally bound the next key column.  Values are computed
    at run time so parameters and correlated values work.

    ``in_fns`` (an IN-list on the key column right after the prefix)
    turns the seek into one seek per distinct non-NULL list value, in
    ascending key order — the order a scan of the same rows has, so
    duplicates and NULLs in the list add no rows and change no order.

    ``index_only=True`` (covering scans) synthesizes output rows from the
    index keys alone — key columns carry their values, every other slot
    is None — and never touches the heap, so no page faults are paid.
    The planner only sets it when the statement provably reads key
    columns exclusively.
    """

    def __init__(self, table, index_name: str, prefix_fns: list,
                 lo_fn=None, hi_fn=None, lo_inclusive: bool = True,
                 hi_inclusive: bool = True, cost_factor: float = 1.0,
                 index_only: bool = False, in_fns: list | None = None):
        self.table = table
        self.index_name = index_name
        self.prefix_fns = prefix_fns
        self.in_fns = in_fns
        self.lo_fn = lo_fn
        self.hi_fn = hi_fn
        self.lo_inclusive = lo_inclusive
        self.hi_inclusive = hi_inclusive
        self.cost_factor = cost_factor
        self.index_only = index_only
        #: set by the planner when this scan's key order made a Sort
        #: unnecessary; counted per *execution* (plan-cache hits too).
        self.eliminates_sort = False
        #: set by the planner when a Limit above needs at
        #: most this many rows and nothing in between drops rows.  A
        #: host-side early stop only: the downstream Limit stops pulling
        #: at the same row, so virtual charges are unchanged.
        self.limit_hint: int | None = None
        #: set by the planner when the equality prefix (and IN-list) is
        #: made of literals and statement parameters alone: only then can
        #: the keys sought be named before the plan runs.
        self.constant_key = False
        #: see :class:`SeqScan`; never together with ``index_only``
        self.with_rid = False
        self._key_slots: list[int] | None = None
        self._key_types: tuple | None = None

    def read_prefixes(self) -> list[tuple]:
        """The primary-key prefixes this execution of a primary-key seek
        with a ``constant_key`` seeks — the leaf's read set for the
        shared result cache (the planner's ``Footprint`` asks no other
        seek); ``[()]`` (the whole table) when a value is not exactly
        of its column's stored type (NULL included), which the tree
        matches by coercion or not at all."""
        info = self.table.info
        types = self._key_types
        if types is None:
            types = self._key_types = tuple(
                stored_type(info.columns[info.column_index(c)].sql_type)
                for c in info.primary_key)
        ctx = EvalContext(row=())
        prefixes = self._seek_prefixes(
            tuple(fn(ctx) for fn in self.prefix_fns), ctx)
        if not prefixes or any(type(value) is not wanted
                               for prefix in prefixes
                               for value, wanted in zip(prefix, types)):
            return [()]
        return prefixes

    def _null_bounded(self, prefix: tuple, ctx) -> bool:
        """SQL three-valued logic: an equality or range comparison
        against NULL is *unknown*, so a seek binding NULL matches no
        rows (stored keys hold the NULL sentinel, which never equals a
        bound value anyway — this just skips the tree walk)."""
        if any(v is None for v in prefix):
            return True
        if self.lo_fn is not None and self.lo_fn(ctx) is None:
            return True
        if self.hi_fn is not None and self.hi_fn(ctx) is None:
            return True
        return False

    def _seek_prefixes(self, prefix: tuple, ctx) -> list[tuple]:
        """The equality prefixes this execution seeks: the bound prefix,
        or one per distinct non-NULL IN-list value, ascending."""
        if self.in_fns is None:
            return [prefix]
        values = {fn(ctx) for fn in self.in_fns}
        values.discard(None)
        return [prefix + (value,) for value in sorted(values)]

    def _matching_entries(self, exec_ctx: ExecContext) -> list:
        """``(index key, rid)`` of every matching entry, in key order."""
        ctx = EvalContext(row=(), outer=exec_ctx.outer)
        prefix = tuple(fn(ctx) for fn in self.prefix_fns)
        if self._null_bounded(prefix, ctx):
            return []
        tree = self.table.index_tree(self.index_name)
        index_width = len(self.table.index_info(self.index_name).column_names)
        ranged = self.lo_fn is not None or self.hi_fn is not None
        entries: list = []
        for eq in self._seek_prefixes(prefix, ctx):
            if len(eq) == index_width and not ranged:
                entries.extend((eq, rid) for rid in tree.search(eq))
                continue
            lo_key, lo_inc = self._lower_key(eq, ctx, index_width)
            hi_key, hi_inc = self._upper_key(eq, ctx, index_width)
            entries.extend(tree.range(lo_key, hi_key, lo_inclusive=lo_inc,
                                      hi_inclusive=hi_inc))
        return entries

    def _matching_rids(self, exec_ctx: ExecContext) -> list:
        return [rid for _key, rid in self._matching_entries(exec_ctx)]

    def _synth_row(self, key: tuple) -> tuple:
        slots = self._key_slots
        if slots is None:
            info = self.table.index_info(self.index_name)
            slots = [self.table.info.column_index(c)
                     for c in info.column_names]
            self._key_slots = slots
        row = [None] * len(self.table.info.columns)
        for slot, value in zip(slots, key):
            row[slot] = decode_key_value(value)
        return tuple(row)

    def _count_scan(self, exec_ctx: ExecContext) -> None:
        stats = exec_ctx.meter.executor_stats
        kind = type(self).__name__
        key = ("index_only_scans" if self.index_only
               else "index_range_scans" if kind == "IndexRangeScan"
               else "index_seeks")
        stats[key] = stats.get(key, 0) + 1
        if self.eliminates_sort:
            stats["sort_eliminations"] = \
                stats.get("sort_eliminations", 0) + 1

    def batches(self, exec_ctx: ExecContext):
        owed = (exec_ctx.costs.cpu_per_tuple_index_lookup
                * self.cost_factor)
        stats = exec_ctx.meter.executor_stats
        batch_key = "batches." + type(self).__name__
        self._count_scan(exec_ctx)
        probe = exec_ctx.meter.lock_probe
        hint = self.limit_hint
        emitted = 0
        if self.index_only:
            for key, rid in self._matching_entries(exec_ctx):
                if probe is not None:
                    probe(self.table, rid, None)
                _count_batch(stats, batch_key)
                yield [self._synth_row(key)], owed
                emitted += 1
                if hint is not None and emitted >= hint:
                    return
            return
        rids = self._matching_rids(exec_ctx)
        read = self.table.heap.read
        with_rid = self.with_rid
        # Single-row batches: each heap read can fault a page, and that
        # fault must land on the pull that consumes the row.
        for rid in rids:
            row = read(rid)
            if row is None:
                continue
            if probe is not None:
                probe(self.table, rid, row)
            _count_batch(stats, batch_key)
            yield [row + (rid,) if with_rid else row], owed
            emitted += 1
            if hint is not None and emitted >= hint:
                return

    def _lower_key(self, prefix: tuple, ctx, index_width: int):
        if self.lo_fn is not None:
            base = prefix + (self.lo_fn(ctx),)
            if self.lo_inclusive:
                # (p, lo) <= (p, lo, anything) — inclusive base works.
                return base, True
            # Exclusive: skip every key whose next column equals lo by
            # padding the bound above all of lo's tails.
            return base + (_Infinity(),) * (index_width - len(base)), False
        if self.hi_fn is not None:
            # Upper bound only: the consumed range conjunct still
            # excludes NULL in the bound column (three-valued logic),
            # and NULL sentinels sort below every value — start just
            # above them so they cannot leak past the dropped filter.
            base = prefix + (NULL_KEY,)
            return base + (_Infinity(),) * (index_width - len(base)), False
        if prefix:
            return prefix, True
        return None, True

    def _upper_key(self, prefix: tuple, ctx, index_width: int):
        if self.hi_fn is not None:
            base = prefix + (self.hi_fn(ctx),)
            if self.hi_inclusive:
                # Include keys with trailing columns beyond (p, hi).
                return base + (_Infinity(),) * (index_width - len(base)), True
            return base, False
        if prefix:
            return prefix + (_Infinity(),) * (index_width - len(prefix)), True
        return None, True


class IndexRangeScan(IndexSeek):
    """Ordered walk of a contiguous index key range.

    Same machinery as :class:`IndexSeek`, used by the planner whenever
    the predicate does *not* pin the full key width — a partial equality
    prefix and/or a range bound on the next key column.  Rows are
    produced in index-key order (the B-tree range walk is ordered),
    which is what lets the planner drop a ``Sort`` whose keys match the
    remaining key columns.
    """


class _Infinity:
    """Sorts above every SQL value (range-scan upper sentinel)."""

    def __lt__(self, other):
        return False

    def __gt__(self, other):
        return True

    def __le__(self, other):
        return isinstance(other, _Infinity)

    def __ge__(self, other):
        return True

    def __eq__(self, other):
        return isinstance(other, _Infinity)

    def __hash__(self):
        return 0


# ---------------------------------------------------------------------------
# Streaming operators
# ---------------------------------------------------------------------------


class Filter(PlanOperator):
    def __init__(self, child: PlanOperator, predicate):
        self.child = child
        self.predicate = predicate

    def children(self):
        return [self.child]

    def batches(self, exec_ctx: ExecContext):
        predicate = self.predicate
        stats = exec_ctx.meter.executor_stats
        ctx = EvalContext(row=(), outer=exec_ctx.outer)
        if is_impure(predicate):
            # See _input_batches: each row is realized, then evaluated;
            # nothing is owed, so there is no carry.
            for row in _batch_row_stream(self.child, exec_ctx):
                ctx.row = row
                if predicate(ctx) is True:
                    _count_batch(stats, "batches.Filter")
                    yield [row], None
            return
        child_it = self.child.batches(exec_ctx)
        carry = 0.0
        while True:
            exec_ctx.charge_cpu(carry)
            carry = 0.0
            batch = next(child_it, None)
            if batch is None:
                return
            rows, costs = batch
            out: list = []
            out_costs: list = []
            for row, owed in _pairs(rows, costs):
                carry += owed
                ctx.row = row
                if predicate(ctx) is True:
                    out.append(row)
                    out_costs.append(carry)
                    carry = 0.0
            if out:
                _count_batch(stats, "batches.Filter")
                yield out, out_costs


class Project(PlanOperator):
    """One output tuple per input row, of ``exprs``' values.

    ``input_width`` is how wide the child's rows are, when the planner
    knows it.  Expressions that are the bare columns ``0..n-1`` of an
    ``n``-wide input make the projection the identity (``SELECT *`` over
    one table or a join, and Phoenix's ``SELECT * FROM phoenix_rs_…``):
    ``identity`` is set once, at plan time, and the operator hands its
    child's batches on — the same list, the same tuples, the same owed
    costs.  It stays in the plan, so EXPLAIN, the ``batches.Project``
    count and the row-at-a-time oracle see the projection as before.
    """

    def __init__(self, child: PlanOperator, exprs: list,
                 input_width: int | None = None):
        self.child = child
        self.exprs = exprs
        self.identity = (input_width is not None
                         and _all_slots(exprs) == list(range(input_width)))

    def children(self):
        return [self.child]

    def batches(self, exec_ctx: ExecContext):
        exprs = self.exprs
        stats = exec_ctx.meter.executor_stats
        if self.identity:
            for batch in self.child.batches(exec_ctx):
                _count_batch(stats, "batches.Project")
                yield batch
            return
        slots = _all_slots(exprs)
        if slots is not None and slots:
            # Pure column projection: index tuples directly, no contexts.
            if len(slots) == 1:
                s0 = slots[0]
                for rows, costs in self.child.batches(exec_ctx):
                    _count_batch(stats, "batches.Project")
                    yield [(row[s0],) for row in rows], costs
            else:
                getter = itemgetter(*slots)
                for rows, costs in self.child.batches(exec_ctx):
                    _count_batch(stats, "batches.Project")
                    yield [getter(row) for row in rows], costs
            return
        ctx = EvalContext(row=(), outer=exec_ctx.outer)
        impure = any(is_impure(expr) for expr in exprs)
        for rows, costs in _input_batches(self.child, exec_ctx, impure):
            out = []
            for row in rows:
                ctx.row = row
                out.append(tuple(expr(ctx) for expr in exprs))
            _count_batch(stats, "batches.Project")
            yield out, costs


class Limit(PlanOperator):
    def __init__(self, child: PlanOperator, count: int):
        self.child = child
        self.count = count

    def children(self):
        return [self.child]

    def batches(self, exec_ctx: ExecContext):
        if self.count <= 0:
            return
        stats = exec_ctx.meter.executor_stats
        remaining = self.count
        for rows, costs in self.child.batches(exec_ctx):
            if len(rows) >= remaining:
                # Rows past the limit are never handed over: drop them
                # *and* their owed charges.
                rows = rows[:remaining]
                if type(costs) is list:
                    costs = costs[:remaining]
                _count_batch(stats, "batches.Limit")
                yield rows, costs
                return
            remaining -= len(rows)
            _count_batch(stats, "batches.Limit")
            yield rows, costs


class Distinct(PlanOperator):
    def __init__(self, child: PlanOperator, cost_factor: float = 1.0):
        self.child = child
        self.cost_factor = cost_factor

    def children(self):
        return [self.child]

    def batches(self, exec_ctx: ExecContext):
        per_tuple = exec_ctx.costs.cpu_per_tuple_agg * self.cost_factor
        stats = exec_ctx.meter.executor_stats
        seen: set = set()
        child_it = self.child.batches(exec_ctx)
        carry = 0.0
        while True:
            exec_ctx.charge_cpu(carry)
            carry = 0.0
            batch = next(child_it, None)
            if batch is None:
                return
            rows, costs_in = batch
            out: list = []
            out_costs: list = []
            for row, owed in _pairs(rows, costs_in):
                carry += owed + per_tuple
                if row not in seen:
                    seen.add(row)
                    out.append(row)
                    out_costs.append(carry)
                    carry = 0.0
            if out:
                _count_batch(stats, "batches.Distinct")
                yield out, out_costs


class Concat(PlanOperator):
    """Sequential concatenation of same-arity inputs (UNION ALL)."""

    def __init__(self, inputs: list[PlanOperator]):
        self.inputs = inputs

    def children(self):
        return list(self.inputs)

    def batches(self, exec_ctx: ExecContext):
        for child in self.inputs:
            yield from child.batches(exec_ctx)


# ---------------------------------------------------------------------------
# Joins
# ---------------------------------------------------------------------------


class HashJoin(PlanOperator):
    """Equi hash join; ``kind`` is 'inner' or 'left'.

    The *right* input is built into the hash table; residual predicates
    (non-equi parts of the ON clause) are applied per candidate pair, so
    LEFT join semantics remain correct.
    """

    def __init__(self, left: PlanOperator, right: PlanOperator,
                 left_key_fns: list, right_key_fns: list,
                 kind: str = "inner", residual=None,
                 left_width: int = 0, right_width: int = 0,
                 cost_factor: float = 1.0):
        self.left = left
        self.right = right
        self.left_key_fns = left_key_fns
        self.right_key_fns = right_key_fns
        self.kind = kind
        self.residual = residual
        self.left_width = left_width
        self.right_width = right_width
        self.cost_factor = cost_factor

    def children(self):
        return [self.left, self.right]

    def batches(self, exec_ctx: ExecContext):
        per_tuple = exec_ctx.costs.cpu_per_tuple_join * self.cost_factor
        stats = exec_ctx.meter.executor_stats
        # Build: the right side is drained during the consumer's first
        # pull, so input charges are due as each batch is consumed —
        # realized before the next batch is requested (fault ordering).
        ctx = EvalContext(row=(), outer=exec_ctx.outer)
        right_key = _row_key(self.right_key_fns, ctx, bare_single=True)
        single = len(self.right_key_fns) == 1
        table: dict = {}
        for rows, costs in self.right.batches(exec_ctx):
            _charge_deferred(exec_ctx, len(rows), costs, per_tuple)
            for key, row in zip(map(right_key, rows), rows):
                if (key is None) if single else (None in key):
                    continue  # NULL never equi-joins
                bucket = table.get(key)
                if bucket is None:
                    table[key] = [row]
                else:
                    bucket.append(row)
        # Probe: streaming with a carry, like Filter.  No bucket holds a
        # NULL key, so a probe key with a NULL finds none.
        left_key = _row_key(self.left_key_fns, ctx, bare_single=True)
        get = table.get
        residual = self.residual
        plain = self.kind == "inner" and residual is None
        is_left_join = self.kind == "left"
        null_right = (None,) * self.right_width
        left_it = self.left.batches(exec_ctx)
        carry = 0.0
        while True:
            exec_ctx.charge_cpu(carry)
            carry = 0.0
            batch = next(left_it, None)
            if batch is None:
                return
            rows, costs = batch
            out: list = []
            out_costs: list = []
            probes = zip(rows, _owed(costs), map(get, map(left_key, rows)))
            if plain:
                # Every match is emitted: no flag, no residual test.
                for left_row, owed, matches in probes:
                    carry += owed + per_tuple
                    if matches is not None:
                        for right_row in matches:
                            out.append(left_row + right_row)
                            out_costs.append(carry)
                            carry = 0.0
            else:
                for left_row, owed, matches in probes:
                    carry += owed + per_tuple
                    matched = False
                    for right_row in matches or ():
                        combined = left_row + right_row
                        if residual is not None:
                            ctx.row = combined
                            if residual(ctx) is not True:
                                continue
                        matched = True
                        out.append(combined)
                        out_costs.append(carry)
                        carry = 0.0
                    if not matched and is_left_join:
                        out.append(left_row + null_right)
                        out_costs.append(carry)
                        carry = 0.0
            if out:
                _count_batch(stats, "batches.HashJoin")
                yield out, out_costs


class SortMergeJoin(PlanOperator):
    """Sort-merge equi join (inner only), chosen by the planner when
    both inputs already arrive in join-key order (or one is cheap enough
    to sort).

    Each input row is consumed exactly once at scan rate
    (``cpu_per_tuple_scan``) instead of the hash join's build/probe rate
    (``cpu_per_tuple_join``); any input *not* key-ordered additionally
    pays ``sort_seconds``.  NULL keys are dropped before the merge — an
    inner equi join can never match them.
    """

    def __init__(self, left: PlanOperator, right: PlanOperator,
                 left_key_fns: list, right_key_fns: list, residual=None,
                 left_width: int = 0, right_width: int = 0,
                 left_sorted: bool = False, right_sorted: bool = False,
                 cost_factor: float = 1.0):
        self.left = left
        self.right = right
        self.left_key_fns = left_key_fns
        self.right_key_fns = right_key_fns
        self.residual = residual
        self.left_width = left_width
        self.right_width = right_width
        self.left_sorted = left_sorted
        self.right_sorted = right_sorted
        self.cost_factor = cost_factor

    def children(self):
        return [self.left, self.right]

    def _keyed(self, rows: list, key_fns: list, outer) -> list:
        key_of = _row_key(key_fns, EvalContext(row=(), outer=outer))
        keyed = [(key, row) for key, row in zip(map(key_of, rows), rows)
                 if None not in key]
        # Stable sort: equal keys keep input order, so the merge emits
        # the same left-major order a hash probe of ordered inputs
        # would.  Presorted inputs are charged nothing for this (the
        # host-side sort of an ordered list is linear and free in
        # virtual time); unsorted inputs were charged sort_seconds by
        # the caller.
        keyed.sort(key=itemgetter(0))
        return keyed

    def _merge(self, left_keyed: list, right_keyed: list, outer):
        residual = self.residual
        ctx = EvalContext(row=(), outer=outer)
        i, j = 0, 0
        nl, nr = len(left_keyed), len(right_keyed)
        while i < nl and j < nr:
            lkey = left_keyed[i][0]
            rkey = right_keyed[j][0]
            if lkey < rkey:
                i += 1
                continue
            if rkey < lkey:
                j += 1
                continue
            i2 = i
            while i2 < nl and left_keyed[i2][0] == lkey:
                i2 += 1
            j2 = j
            while j2 < nr and right_keyed[j2][0] == lkey:
                j2 += 1
            for li in range(i, i2):
                left_row = left_keyed[li][1]
                for rj in range(j, j2):
                    combined = left_row + right_keyed[rj][1]
                    if residual is not None:
                        ctx.row = combined
                        if residual(ctx) is not True:
                            continue
                    yield combined
            i, j = i2, j2

    def batches(self, exec_ctx: ExecContext):
        costs_model = exec_ctx.costs
        per_tuple = costs_model.cpu_per_tuple_scan * self.cost_factor
        stats = exec_ctx.meter.executor_stats
        left_rows: list = []
        for rows, costs in self.left.batches(exec_ctx):
            _charge_deferred(exec_ctx, len(rows), costs, per_tuple)
            left_rows.extend(rows)
        right_rows: list = []
        for rows, costs in self.right.batches(exec_ctx):
            _charge_deferred(exec_ctx, len(rows), costs, per_tuple)
            right_rows.extend(rows)
        if not self.left_sorted:
            exec_ctx.charge_cpu(costs_model.sort_seconds(len(left_rows))
                                * self.cost_factor)
        if not self.right_sorted:
            exec_ctx.charge_cpu(costs_model.sort_seconds(len(right_rows))
                                * self.cost_factor)
        outer = exec_ctx.outer
        left_keyed = self._keyed(left_rows, self.left_key_fns, outer)
        right_keyed = self._keyed(right_rows, self.right_key_fns, outer)
        _count_batch(stats, "batches.SortMergeJoin")
        yield list(self._merge(left_keyed, right_keyed, outer)), None


class NestedLoopJoin(PlanOperator):
    """Fallback join for non-equi conditions; kinds: inner/left/cross."""

    def __init__(self, left: PlanOperator, right: PlanOperator,
                 condition=None, kind: str = "inner",
                 right_width: int = 0, cost_factor: float = 1.0):
        self.left = left
        self.right = right
        self.condition = condition
        self.kind = kind
        self.right_width = right_width
        self.cost_factor = cost_factor

    def children(self):
        return [self.left, self.right]

    def batches(self, exec_ctx: ExecContext):
        per_tuple = exec_ctx.costs.cpu_per_tuple_join * self.cost_factor
        stats = exec_ctx.meter.executor_stats
        right_rows: list = []
        for rows, costs in self.right.batches(exec_ctx):
            _charge_deferred(exec_ctx, len(rows), costs, 0.0)
            right_rows.extend(rows)
        condition = self.condition
        is_left_join = self.kind == "left"
        null_right = (None,) * self.right_width
        ctx = EvalContext(row=(), outer=exec_ctx.outer)
        left_it = self.left.batches(exec_ctx)
        carry = 0.0
        while True:
            exec_ctx.charge_cpu(carry)
            carry = 0.0
            batch = next(left_it, None)
            if batch is None:
                return
            rows, costs = batch
            out: list = []
            out_costs: list = []
            for left_row, owed in _pairs(rows, costs):
                carry += owed + per_tuple
                matched = False
                for right_row in right_rows:
                    carry += per_tuple
                    combined = left_row + right_row
                    if condition is not None:
                        ctx.row = combined
                        if condition(ctx) is not True:
                            continue
                    matched = True
                    out.append(combined)
                    out_costs.append(carry)
                    carry = 0.0
                if not matched and is_left_join:
                    out.append(left_row + null_right)
                    out_costs.append(carry)
                    carry = 0.0
            if out:
                _count_batch(stats, "batches.NestedLoopJoin")
                yield out, out_costs


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


@dataclass
class AggregateSpec:
    """One aggregate to compute: function, argument evaluator, DISTINCT."""

    func: str                 # sum | avg | count | min | max
    arg_fn: object = None     # None for COUNT(*)
    distinct: bool = False


# One accumulator class per aggregate kind, chosen once per spec
# (:func:`accumulator_factory`): ``add`` does only its kind's work.  NULLs
# are skipped before a DISTINCT set sees them; SUM/AVG add in arrival
# order (``total + value``), so a float sum is the same to the bit.


class _CountRows:
    """COUNT(*): every row."""

    __slots__ = ("count",)

    def __init__(self):
        self.count = 0

    def add(self, value) -> None:
        self.count += 1

    def result(self):
        return self.count


class _Count(_CountRows):
    """COUNT(x): every non-NULL value."""

    __slots__ = ()

    def add(self, value) -> None:
        if value is not None:
            self.count += 1


class _Sum:
    __slots__ = ("total",)

    def __init__(self):
        self.total = None

    def add(self, value) -> None:
        if value is not None:
            total = self.total
            self.total = value if total is None else total + value

    def result(self):
        return self.total


class _Avg:
    __slots__ = ("total", "count")

    def __init__(self):
        self.total = None
        self.count = 0

    def add(self, value) -> None:
        if value is not None:
            total = self.total
            self.total = value if total is None else total + value
            self.count += 1

    def result(self):
        return None if self.count == 0 else self.total / self.count


class _Min:
    __slots__ = ("best",)

    def __init__(self):
        self.best = None

    def add(self, value) -> None:
        if value is not None and (self.best is None or value < self.best):
            self.best = value

    def result(self):
        return self.best


class _Max(_Min):
    __slots__ = ()

    def add(self, value) -> None:
        if value is not None and (self.best is None or value > self.best):
            self.best = value


class _Distinct:
    """DISTINCT: the first arrival of each non-NULL value goes on to the
    kind's accumulator."""

    __slots__ = ("inner", "seen")

    def __init__(self, inner):
        self.inner = inner
        self.seen: set = set()

    def add(self, value) -> None:
        if value is not None and value not in self.seen:
            self.seen.add(value)
            self.inner.add(value)

    def result(self):
        return self.inner.result()


_ACCUMULATORS = {"count": _Count, "sum": _Sum, "avg": _Avg, "min": _Min,
                 "max": _Max}


def accumulator_factory(spec: AggregateSpec):
    """A zero-argument constructor of ``spec``'s accumulator."""
    if spec.arg_fn is None:
        return _CountRows
    kind = _ACCUMULATORS[spec.func]
    if spec.distinct:
        return lambda: _Distinct(kind())
    return kind


class HashAggregate(PlanOperator):
    """Hash aggregation: output rows are group keys then aggregate values.

    With no GROUP BY (``group_fns == []``) exactly one row is produced,
    even over empty input (SQL scalar-aggregate semantics).
    ``args_fn(ctx)`` is one generated function returning every
    aggregate's argument for a row, in ``agg_specs`` order (None for
    COUNT(*)); ``spec.arg_fn`` is the same argument compiled alone.
    """

    def __init__(self, child: PlanOperator, group_fns: list,
                 agg_specs: list[AggregateSpec], args_fn,
                 cost_factor: float = 1.0):
        self.child = child
        self.group_fns = group_fns
        self.agg_specs = agg_specs
        self.args_fn = args_fn
        self.cost_factor = cost_factor

    def children(self):
        return [self.child]

    def batches(self, exec_ctx: ExecContext):
        per_tuple = exec_ctx.costs.cpu_per_tuple_agg * self.cost_factor
        stats = exec_ctx.meter.executor_stats
        fresh = [accumulator_factory(spec) for spec in self.agg_specs]
        ctx = EvalContext(row=(), outer=exec_ctx.outer)
        group_key = _row_key(self.group_fns, ctx)
        args_fn = self.args_fn
        # Group key -> its accumulators' bound ``add`` methods (results
        # are read through each method's ``__self__``); the dict keeps
        # first-arrival order, which is the output order.
        groups: dict[tuple, list] = {}
        get = groups.get
        impure = is_impure(args_fn) or any(is_impure(fn)
                                           for fn in self.group_fns)
        for rows, costs in _input_batches(self.child, exec_ctx, impure):
            _charge_deferred(exec_ctx, len(rows), costs, per_tuple)
            for row in rows:
                key = group_key(row)
                adds = get(key)
                if adds is None:
                    adds = groups[key] = [make().add for make in fresh]
                ctx.row = row
                for add, value in zip(adds, args_fn(ctx)):
                    add(value)
        _count_batch(stats, "batches.HashAggregate")
        if not groups and not self.group_fns:
            yield [tuple(make().result() for make in fresh)], None
            return
        yield [key + tuple([add.__self__.result() for add in adds])
               for key, adds in groups.items()], None


# ---------------------------------------------------------------------------
# Sorting
# ---------------------------------------------------------------------------


@dataclass
class SortKey:
    key_fn: object
    descending: bool = False


class Sort(PlanOperator):
    """Full sort.  NULLs sort first ascending (SQL-92 leaves it to the
    implementation; we pick a deterministic rule and keep it)."""

    def __init__(self, child: PlanOperator, keys: list[SortKey],
                 cost_factor: float = 1.0):
        self.child = child
        self.keys = keys
        self.cost_factor = cost_factor

    def children(self):
        return [self.child]

    def batches(self, exec_ctx: ExecContext):
        stats = exec_ctx.meter.executor_stats
        rows: list = []
        for batch_rows, costs in self.child.batches(exec_ctx):
            _charge_deferred(exec_ctx, len(batch_rows), costs, 0.0)
            rows.extend(batch_rows)
        exec_ctx.charge_cpu(exec_ctx.costs.sort_seconds(len(rows))
                            * self.cost_factor)
        # Decorate-sort-undecorate, one stable pass per key (innermost
        # last, like the multi-pass list.sort).  ``list.sort(key=...)``
        # evaluates keys once per row in list order, and so does this
        # (an impure key charges the meter as it is evaluated).
        ctx = EvalContext(row=(), outer=exec_ctx.outer)
        for key in reversed(self.keys):
            key_fn = key.key_fn
            slot = slot_of(key_fn)
            if slot is not None:
                values = map(itemgetter(slot), rows)
            else:
                values = []
                for row in rows:
                    ctx.row = row
                    values.append(key_fn(ctx))
            # _null_safe_key's keys (NULL first), without a call per row.
            decorated = [(0, 0) if value is None else (1, value)
                         for value in values]
            index = sorted(range(len(rows)), key=decorated.__getitem__,
                           reverse=key.descending)
            rows = [rows[i] for i in index]
        _count_batch(stats, "batches.Sort")
        yield rows, None


def _null_safe_key(value):
    # (0, None-marker) sorts before any real value.
    if value is None:
        return (0, 0)
    return (1, value)


class _Descending:
    """Inverts comparisons for one component of a composite sort key,
    so mixed ASC/DESC orderings collapse into a single stable sort."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __lt__(self, other):
        return other.value < self.value

    def __eq__(self, other):
        return other.value == self.value


class TopNHeapSort(PlanOperator):
    """Bounded-heap ORDER BY + TOP N.

    Replaces ``Limit(Sort(child))``: only the top ``count`` rows are
    retained, so the charged CPU is ``n log k`` (:meth:`CostModel.
    topn_seconds`) instead of the full sort's ``n log n``.  The output
    is exactly what Sort+Limit would produce: ``heapq.nsmallest`` is
    documented equivalent to ``sorted(...)[:n]`` (stable), and the
    composite key reproduces the multi-pass stable sort's ordering,
    NULL placement included.
    """

    def __init__(self, child: PlanOperator, keys: list[SortKey],
                 count: int, cost_factor: float = 1.0):
        self.child = child
        self.keys = keys
        self.count = count
        self.cost_factor = cost_factor

    def children(self):
        return [self.child]

    def _key_of(self, exec_ctx: ExecContext):
        keys = self.keys
        outer = exec_ctx.outer

        def composite(row):
            ctx = EvalContext(row=row, outer=outer)
            return tuple(
                _Descending(_null_safe_key(k.key_fn(ctx)))
                if k.descending else _null_safe_key(k.key_fn(ctx))
                for k in keys)

        return composite

    def _select_top(self, rows: list, exec_ctx: ExecContext) -> list:
        if self.count <= 0:
            return []
        return heapq.nsmallest(self.count, rows, key=self._key_of(exec_ctx))

    def batches(self, exec_ctx: ExecContext):
        stats = exec_ctx.meter.executor_stats
        rows: list = []
        for batch_rows, costs in self.child.batches(exec_ctx):
            _charge_deferred(exec_ctx, len(batch_rows), costs, 0.0)
            rows.extend(batch_rows)
        exec_ctx.charge_cpu(
            exec_ctx.costs.topn_seconds(len(rows), self.count)
            * self.cost_factor)
        _count_batch(stats, "batches.TopNHeapSort")
        yield self._select_top(rows, exec_ctx), None


# ---------------------------------------------------------------------------
# Point lookups
# ---------------------------------------------------------------------------


class PointLookup(PlanOperator):
    """A projected full-prefix B-tree equality lookup, fused.

    The planner rewrites ``Project(IndexSeek)`` into this when the seek
    is a pure equality over the index's full width — the point-select
    shape that dominates the cached wall-clock mix.  It goes straight
    from tree search to heap read to projected tuple with no
    intermediate operator machinery, owing what ``Project(IndexSeek)``
    would.
    """

    def __init__(self, project: "Project"):
        seek = project.child
        if not isinstance(seek, IndexSeek):
            raise PlanningError("PointLookup requires Project over IndexSeek")
        self.project = project
        self.seek = seek
        self.cost_factor = seek.cost_factor

    def children(self):
        return [self.project]

    def batches(self, exec_ctx: ExecContext):
        seek = self.seek
        owed = (exec_ctx.costs.cpu_per_tuple_index_lookup
                * seek.cost_factor)
        stats = exec_ctx.meter.executor_stats
        stats["point_lookups"] = stats.get("point_lookups", 0) + 1
        if seek.eliminates_sort:
            stats["sort_eliminations"] = \
                stats.get("sort_eliminations", 0) + 1
        ctx = EvalContext(row=(), outer=exec_ctx.outer)
        prefix = tuple(fn(ctx) for fn in seek.prefix_fns)
        if any(v is None for v in prefix):
            return  # comparison against NULL matches nothing
        tree = seek.table.index_tree(seek.index_name)
        read = seek.table.heap.read
        project = _row_key(self.project.exprs, ctx)
        probe = exec_ctx.meter.lock_probe
        for rid in tree.search(prefix):
            row = read(rid)
            if row is None:
                continue
            if probe is not None:
                probe(seek.table, rid, row)
            yield [project(row)], owed


# ---------------------------------------------------------------------------
# Running plans
# ---------------------------------------------------------------------------


def is_streamable_plan(root: PlanOperator) -> bool:
    """True when a plan just forwards a stored table's pages.

    A bare ``SELECT * FROM t`` (optionally projected) can be delivered
    page-at-a-time without per-row query evaluation — Phoenix's reopened
    result tables hit this path.  Any filter, limit, join or aggregation
    makes the result pipelined.
    """
    op = root
    while isinstance(op, Project):
        op = op.child
    return isinstance(op, SeqScan)


def stored_rows_source(root: PlanOperator):
    """The table whose stored tuples a plan hands on as they are: a
    chain of Limits and identity Projects over a plain SeqScan (no
    hidden row address) of a durable table; None for any other plan.

    Every value of such a table was coerced to its column's type on its
    way in (``RowShape.build`` on insert, ``coerce_column`` on update;
    redo replays those rows), so it has the column's runtime type or is
    NULL.  (A system view's snapshot is volatile and filled without
    either; a temp table is volatile too and is left out with it.)
    """
    op = root
    while isinstance(op, Limit) \
            or (isinstance(op, Project) and op.identity):
        op = op.child
    if isinstance(op, SeqScan) and not op.with_rid \
            and not op.table.info.volatile:
        return op.table
    return None


def _batch_row_stream(root: PlanOperator, exec_ctx: ExecContext):
    """Flatten a batch stream into rows, charging what each row owes
    at the moment it is handed over."""
    charge = exec_ctx.meter.charge_batched
    for rows, costs in root.batches(exec_ctx):
        if not costs:
            yield from rows
        else:
            for row, owed in _pairs(rows, costs):
                if owed:
                    charge(SERVER_CPU, owed, "query cpu")
                yield row


def iterate_plan(root: PlanOperator, meter,
                 outer: EvalContext | None = None):
    """Lazily iterate a plan's output rows.

    Under tracing, the iteration is bracketed by a detached ``stream``
    span (the rows are pulled lazily, possibly interleaved with other
    spans, so strict nesting does not apply) that records the operator
    and how many rows it ultimately produced.
    """
    rows = _batch_row_stream(root, ExecContext(meter=meter, outer=outer))
    tracer = meter.tracer
    if not tracer.enabled:
        return rows
    return _traced_rows(rows, tracer, type(root).__name__)


def _traced_rows(rows, tracer, op: str):
    span = tracer.start_stream("executor.plan", layer="executor", op=op)
    produced = 0
    status = "error"
    try:
        for row in rows:
            produced += 1
            yield row
        status = "ok"
    finally:
        span.set_attr("rows", produced)
        tracer.end_stream(span, status=status)


def run_plan(root: PlanOperator, meter,
             outer: EvalContext | None = None) -> list[tuple]:
    """Eagerly materialize a plan's output."""
    return list(iterate_plan(root, meter, outer))
