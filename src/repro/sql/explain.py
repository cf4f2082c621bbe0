"""EXPLAIN: render a physical plan as an indented operator tree.

``EXPLAIN <select>`` plans the statement without executing it and
returns one row per plan line — the tool we (and tests) use to see which
access paths and join strategies the planner picked.
"""

from __future__ import annotations

from repro.sql.executor import (
    Concat,
    Distinct,
    EmptyScan,
    Filter,
    HashAggregate,
    HashJoin,
    IndexSeek,
    Limit,
    NestedLoopJoin,
    PlanOperator,
    PointLookup,
    Project,
    SeqScan,
    SingleRowScan,
    Sort,
    SortMergeJoin,
    TopNHeapSort,
)


def explain_plan(root: PlanOperator) -> list[str]:
    """One line per operator, depth-first, two-space indentation."""
    lines: list[str] = []
    _walk(root, 0, lines)
    return lines


def _walk(op: PlanOperator, depth: int, lines: list[str]) -> None:
    line = _describe(op)
    # The planner's estimates (set on every operator of a planned
    # SELECT; a hand-built tree has none).
    est_rows = getattr(op, "est_rows", None)
    if est_rows is not None:
        est_cost = getattr(op, "est_cost", 0.0)
        line += f"  [est_rows={est_rows:.0f} est_cost={est_cost:.6f}]"
    lines.append("  " * depth + line)
    for child in op.children():
        _walk(child, depth + 1, lines)


def _describe(op: PlanOperator) -> str:
    if isinstance(op, SeqScan):
        return (f"SeqScan({op.table.info.name}"
                f"{_factor_suffix(op.cost_factor)})")
    if isinstance(op, IndexSeek):
        parts = [f"index={op.index_name}",
                 f"prefix={len(op.prefix_fns)}"]
        if op.in_fns is not None:
            parts.append(f"in={len(op.in_fns)}")
        if op.lo_fn is not None:
            parts.append("lo" + (">=" if op.lo_inclusive else ">"))
        if op.hi_fn is not None:
            parts.append("hi" + ("<=" if op.hi_inclusive else "<"))
        if op.index_only:
            parts.append("index-only")
        return (f"{type(op).__name__}({op.table.info.name} "
                + " ".join(parts)
                + _factor_suffix(op.cost_factor) + ")")
    if isinstance(op, PointLookup):
        return (f"PointLookup({op.seek.table.info.name} "
                f"index={op.seek.index_name})")
    if isinstance(op, Filter):
        return "Filter"
    if isinstance(op, Project):
        return f"Project({len(op.exprs)} cols)"
    if isinstance(op, HashJoin):
        residual = " residual" if op.residual is not None else ""
        return (f"HashJoin({op.kind} keys={len(op.left_key_fns)}"
                f"{residual})")
    if isinstance(op, NestedLoopJoin):
        cond = " cond" if op.condition is not None else ""
        return f"NestedLoopJoin({op.kind}{cond})"
    if isinstance(op, SortMergeJoin):
        residual = " residual" if op.residual is not None else ""
        presorted = []
        if op.left_sorted:
            presorted.append("left-sorted")
        if op.right_sorted:
            presorted.append("right-sorted")
        note = (" " + " ".join(presorted)) if presorted else ""
        return (f"SortMergeJoin(keys={len(op.left_key_fns)}"
                f"{note}{residual})")
    if isinstance(op, TopNHeapSort):
        return f"TopNHeapSort(n={op.count} keys={len(op.keys)})"
    if isinstance(op, HashAggregate):
        return (f"HashAggregate(groups={len(op.group_fns)} "
                f"aggs={len(op.agg_specs)})")
    if isinstance(op, Sort):
        return f"Sort({len(op.keys)} keys)"
    if isinstance(op, Limit):
        return f"Limit({op.count})"
    if isinstance(op, Distinct):
        return "Distinct"
    if isinstance(op, Concat):
        return f"Concat({len(op.inputs)} inputs)"
    if isinstance(op, EmptyScan):
        return "EmptyScan (WHERE clause is provably false)"
    if isinstance(op, SingleRowScan):
        return "SingleRowScan"
    return type(op).__name__


def _factor_suffix(cost_factor: float) -> str:
    if cost_factor == 1.0:
        return ""
    return f" x{cost_factor:g}"
