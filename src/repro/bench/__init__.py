"""Experiment implementations.

One function per table/figure of the paper's evaluation section and per
feature bench; see DESIGN.md §4 for the experiment index and
``benchmarks/`` for the pytest-benchmark entry points that run them,
write ``bench_results/`` and assert their gates.
"""

from repro.bench.experiments import (
    run_fig3,
    run_fig4,
    run_fig6,
    run_micro_overheads,
    run_table1,
    run_table2,
    run_table3,
    run_table4,
)

__all__ = [
    "run_table1",
    "run_table2",
    "run_table3",
    "run_table4",
    "run_fig3",
    "run_fig4",
    "run_fig6",
    "run_micro_overheads",
]
