"""Test-only oracle: the row-at-a-time executor the engine retired.

Until the batch protocol became the only way a plan runs, every operator
also carried a ``rows()`` loop: pull one row, charge it at once with
``charge_batched``, probe its lock, evaluate, hand it up.  This file
keeps those loops — one function per operator type, a naive tree walk
over the operators' fields — as the judge of ``batches()``: same rows in
the same order and same counters, exactly, and the same virtual clock to
:data:`CLOCK_REL_TOL` (the executor adds up what a row owes before it
charges it; these loops charge tuple by tuple — the same seconds in
another IEEE fold).  ``src/`` knows
nothing of it; :func:`installed` rebinds ``iterate_plan`` / ``run_plan``
where the engine and the planner imported them, so subqueries and the
UPDATE/DELETE source plans run through it too.
"""

import math
from contextlib import contextmanager
from itertools import islice

import pytest

from repro.engine import database
from repro.sql import planner
from repro.sql.executor import ExecContext, _null_safe_key
from repro.sql.expressions import EvalContext, is_true


#: How far the executor's clock may be from this oracle's, relative.
#: Fixed when the executor's charge-replay run-lists went (they existed
#: to reproduce these loops' fold to the bit) — a bound on re-associated
#: float sums, ~1e7 ulps, far below any per-tuple constant's share of a
#: run: a row charged twice, or not at all, moves the clock by more.
#: ``tests/test_batch_equivalence.py`` holds that it is that tight.
CLOCK_REL_TOL = 1e-9


def same_clock(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=CLOCK_REL_TOL, abs_tol=0.0)


class _Accumulator:
    """The one generic accumulator the executor had before its per-kind
    ones (``executor.accumulator_factory``): it branches on the function
    and DISTINCT for every value, and is their reference."""

    __slots__ = ("func", "distinct", "count", "total", "best", "seen")

    def __init__(self, func: str, distinct: bool):
        self.func = func
        self.distinct = distinct
        self.count = 0
        self.total = None
        self.best = None
        self.seen = set() if distinct else None

    def add(self, value) -> None:
        if self.func == "count" and value is _COUNT_STAR:
            self.count += 1
            return
        if value is None:
            return
        if self.seen is not None:
            if value in self.seen:
                return
            self.seen.add(value)
        self.count += 1
        if self.func in ("sum", "avg"):
            self.total = value if self.total is None else self.total + value
        elif self.func == "min":
            if self.best is None or value < self.best:
                self.best = value
        elif self.func == "max":
            if self.best is None or value > self.best:
                self.best = value

    def result(self):
        if self.func == "count":
            return self.count
        if self.func == "sum":
            return self.total
        if self.func == "avg":
            return None if self.count == 0 else self.total / self.count
        return self.best


#: What COUNT(*) adds for every row.
_COUNT_STAR = object()


def _per_tuple(ctx, field, op):
    return getattr(ctx.costs, field) * op.cost_factor


def _seq_scan(op, ctx):
    per_tuple = _per_tuple(ctx, "cpu_per_tuple_scan", op)
    probe = ctx.meter.lock_probe
    for rid, row in op.table.heap.scan():
        if probe is not None:
            probe(op.table, rid, row)
        ctx.charge_cpu(per_tuple)
        yield row + (rid,) if op.with_rid else row


def _index_seek(op, ctx):
    per_tuple = _per_tuple(ctx, "cpu_per_tuple_index_lookup", op)
    op._count_scan(ctx)
    probe = ctx.meter.lock_probe
    emitted = 0
    for key, rid in op._matching_entries(ctx):
        if op.index_only:
            # Covering scans never read the heap; the probe gets the rid
            # only and fetches the row itself.
            row, out = None, op._synth_row(key)
        else:
            row = op.table.heap.read(rid)
            if row is None:
                continue
            out = row + (rid,) if op.with_rid else row
        if probe is not None:
            probe(op.table, rid, row)
        ctx.charge_cpu(per_tuple)
        yield out
        emitted += 1
        if op.limit_hint is not None and emitted >= op.limit_hint:
            return


def _filter(op, ctx):
    for row in rows(op.child, ctx):
        if is_true(op.predicate(EvalContext(row=row, outer=ctx.outer))):
            yield row


def _project(op, ctx):
    for row in rows(op.child, ctx):
        ectx = EvalContext(row=row, outer=ctx.outer)
        yield tuple(expr(ectx) for expr in op.exprs)


def _distinct(op, ctx):
    per_tuple = _per_tuple(ctx, "cpu_per_tuple_agg", op)
    seen = set()
    for row in rows(op.child, ctx):
        ctx.charge_cpu(per_tuple)
        if row not in seen:
            seen.add(row)
            yield row


def _key(row, fns, outer):
    ectx = EvalContext(row=row, outer=outer)
    return tuple(fn(ectx) for fn in fns)


def _passes(condition, combined, outer):
    return condition is None or is_true(
        condition(EvalContext(row=combined, outer=outer)))


def _hash_join(op, ctx):
    per_tuple = _per_tuple(ctx, "cpu_per_tuple_join", op)
    table = {}
    for row in rows(op.right, ctx):
        ctx.charge_cpu(per_tuple)
        key = _key(row, op.right_key_fns, ctx.outer)
        if not any(v is None for v in key):  # NULL never equi-joins
            table.setdefault(key, []).append(row)
    for left_row in rows(op.left, ctx):
        ctx.charge_cpu(per_tuple)
        key = _key(left_row, op.left_key_fns, ctx.outer)
        matched = False
        if not any(v is None for v in key):
            for right_row in table.get(key, ()):
                if _passes(op.residual, left_row + right_row, ctx.outer):
                    matched = True
                    yield left_row + right_row
        if not matched and op.kind == "left":
            yield left_row + (None,) * op.right_width


def _sort_merge_join(op, ctx):
    per_tuple = _per_tuple(ctx, "cpu_per_tuple_scan", op)
    sides = []
    for child in (op.left, op.right):
        side = []
        for row in rows(child, ctx):
            ctx.charge_cpu(per_tuple)
            side.append(row)
        sides.append(side)
    for side, presorted in zip(sides, (op.left_sorted, op.right_sorted)):
        if not presorted:
            ctx.charge_cpu(ctx.costs.sort_seconds(len(side))
                           * op.cost_factor)
    yield from op._merge(op._keyed(sides[0], op.left_key_fns, ctx.outer),
                         op._keyed(sides[1], op.right_key_fns, ctx.outer),
                         ctx.outer)


def _nested_loop_join(op, ctx):
    per_tuple = _per_tuple(ctx, "cpu_per_tuple_join", op)
    right_rows = list(rows(op.right, ctx))
    for left_row in rows(op.left, ctx):
        # The probe row itself is charged, matching HashJoin — an empty
        # right side still examines every left row.
        ctx.charge_cpu(per_tuple)
        matched = False
        for right_row in right_rows:
            ctx.charge_cpu(per_tuple)
            if _passes(op.condition, left_row + right_row, ctx.outer):
                matched = True
                yield left_row + right_row
        if not matched and op.kind == "left":
            yield left_row + (None,) * op.right_width


def _hash_aggregate(op, ctx):
    per_tuple = _per_tuple(ctx, "cpu_per_tuple_agg", op)
    fresh = lambda: [_Accumulator(s.func, s.distinct) for s in op.agg_specs]
    groups = {}
    for row in rows(op.child, ctx):
        ctx.charge_cpu(per_tuple)
        ectx = EvalContext(row=row, outer=ctx.outer)
        key = tuple(fn(ectx) for fn in op.group_fns)
        accs = groups.get(key)
        if accs is None:
            accs = groups[key] = fresh()
        for spec, acc in zip(op.agg_specs, accs):
            acc.add(_COUNT_STAR if spec.arg_fn is None else spec.arg_fn(ectx))
    if not groups and not op.group_fns:
        groups[()] = fresh()
    for key, accs in groups.items():
        yield key + tuple(acc.result() for acc in accs)


def _sort(op, ctx):
    out = list(rows(op.child, ctx))
    ctx.charge_cpu(ctx.costs.sort_seconds(len(out)) * op.cost_factor)
    for key in reversed(op.keys):
        out.sort(key=lambda row, k=key: _null_safe_key(
            k.key_fn(EvalContext(row=row, outer=ctx.outer))),
            reverse=key.descending)
    yield from out


def _top_n_heap_sort(op, ctx):
    out = list(rows(op.child, ctx))
    ctx.charge_cpu(ctx.costs.topn_seconds(len(out), op.count)
                   * op.cost_factor)
    yield from op._select_top(out, ctx)


_WALKERS = {
    "SingleRowScan": lambda op, ctx: iter([()]),
    "EmptyScan": lambda op, ctx: iter(()),
    "SeqScan": _seq_scan, "IndexSeek": _index_seek,
    "IndexRangeScan": _index_seek, "Filter": _filter, "Project": _project,
    "Limit": lambda op, ctx: islice(rows(op.child, ctx), max(op.count, 0)),
    "Distinct": _distinct,
    "Concat": lambda op, ctx: (row for child in op.inputs
                               for row in rows(child, ctx)),
    "HashJoin": _hash_join, "SortMergeJoin": _sort_merge_join,
    "NestedLoopJoin": _nested_loop_join, "HashAggregate": _hash_aggregate,
    "Sort": _sort, "TopNHeapSort": _top_n_heap_sort,
    "PointLookup": lambda op, ctx: rows(op.project, ctx),
}


def rows(op, ctx):
    """``op``'s output, one row per pull."""
    return _WALKERS[type(op).__name__](op, ctx)


def iterate_plan(root, meter, outer=None):
    return rows(root, ExecContext(meter=meter, outer=outer))


def run_plan(root, meter, outer=None):
    return list(iterate_plan(root, meter, outer))


@contextmanager
def installed():
    """Every plan the engine runs inside the block runs through here."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(database, "iterate_plan", iterate_plan)
        patch.setattr(planner, "iterate_plan", iterate_plan)
        patch.setattr(planner, "run_plan", run_plan)
        yield
