"""Optbench: the one planner before and after ``ANALYZE``, over the 22
TPC-H queries plus a Top-N query, on the default configuration.

Both legs' rows are judged by ``tpch_reference_rows.json`` (the frozen
output of the FROM-order planner this repo started with): whatever the
planner chooses, the values must not move.  And statistics must never
make a query slower: per query, the analysed leg may not exceed the
unanalysed one.
"""

import math

from repro.bench.experiments import (
    OPTBENCH_SCALE,
    run_optbench,
    tpch_reference_rows,
)


def _cells_close(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        # Reordered joins feed SUM in a different row order, so float
        # aggregates may differ in the last ulp; everything else must
        # match exactly.
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)
    return a == b


def _rows_close(got: list, want: list) -> bool:
    return len(got) == len(want) and all(
        len(x) == len(y) and all(map(_cells_close, x, y))
        for x, y in zip(sorted(got, key=repr), sorted(want, key=repr)))


def test_optbench(benchmark, report):
    result = benchmark.pedantic(lambda: run_optbench(scale=OPTBENCH_SCALE),
                                rounds=1, iterations=1)
    report("optbench", result.format())

    before, after = result.unanalyzed, result.analyzed
    assert after.total_seconds < before.total_seconds, \
        "statistics did not lower the total"
    for number in sorted(before.query_seconds):
        assert (after.query_seconds[number]
                <= before.query_seconds[number] * (1 + 1e-9)), \
            f"statistics made Q{number:02d} slower"
    assert after.topn_seconds <= before.topn_seconds * (1 + 1e-9)
    reference = tpch_reference_rows(result.scale, result.seed)
    for leg in (before, after):
        assert any("TopNHeapSort" in line for line in leg.topn_plan), \
            (leg.name, leg.topn_plan)
        # The ordering is total, so the rows must match exactly.
        assert leg.topn_rows == reference["TOP-N"], leg.name
        for number in sorted(leg.query_rows):
            assert _rows_close(leg.query_rows[number],
                               reference[f"Q{number:02d}"]), \
                f"{leg.name} leg diverged from the reference on Q{number:02d}"
