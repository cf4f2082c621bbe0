"""Command-line experiment runner.

Print any of the tables without pytest:

    python -m repro.bench table1
    python -m repro.bench table3 --scale 0.02
    python -m repro.bench all

It only prints.  ``bench_results/`` has one writer and one gate,
``pytest benchmarks``: ``benchmarks/test_<name>.py`` runs the same
experiment, writes the artifact and asserts its conditions.

``report`` renders a record stream (:mod:`repro.obs.report`): with
``--input trace.jsonl`` an exported file, which it validates first (an
invalid file prints its ``INVALID:`` lines and exits 1); without, the
records of the tracked mix — spans included under ``REPRO_TRACE=1``.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.bench import experiments
from repro.obs.report import render
from repro.obs.validate import read_trace

EXPERIMENTS = {
    "table1": lambda args: experiments.run_table1(scale=args.scale or 0.002),
    "table2": lambda args: experiments.run_table2(scale=args.scale or 0.002),
    "table3": lambda args: experiments.run_table3(scale=args.scale or 0.01),
    "table4": lambda args: experiments.run_table4(
        measure_seconds=args.measure_seconds),
    "fig3": lambda args: experiments.run_fig3(scale=args.scale or 0.02),
    "fig4": lambda args: experiments.run_fig4(scale=args.scale or 0.02),
    "fig6": lambda args: experiments.run_fig6(scale=args.scale or 0.02),
    "micro": lambda args: experiments.run_micro_overheads(
        scale=args.scale or 0.002),
    "indexbench": lambda args: experiments.run_indexbench(),
    "optbench": lambda args: experiments.run_optbench(
        scale=args.scale or experiments.OPTBENCH_SCALE),
    "recoveryscaling": lambda args: experiments.run_recovery_scaling(),
    "tpccbench": lambda args: experiments.run_tpccbench(),
}


def report(path: str | None) -> int:
    """Print the report of ``path``'s records (validated first), or of
    the tracked mix's when ``path`` is None; returns the exit code."""
    if path is None:
        result = experiments.run_tracked_mix()
        print(render(result.records, result.source))
        return 0
    warnings: list[str] = []
    records, errors = read_trace(path, warnings)
    for warning in warnings:
        print(f"WARNING: {warning}", file=sys.stderr)
    if errors:
        for error in errors:
            print(f"INVALID: {error}", file=sys.stderr)
        return 1
    print(f"{path}: trace is valid\n")
    print(render(records, source=path))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Print the paper's tables and figures, the feature "
                    "benches, and the report of a record stream.")
    parser.add_argument("experiment",
                        choices=sorted(EXPERIMENTS) + ["report", "all"],
                        help="which table to print")
    parser.add_argument("--scale", type=float, default=None,
                        help="TPC-H scale factor override")
    parser.add_argument("--measure-seconds", type=float, default=900.0,
                        help="TPC-C measurement window (virtual seconds)")
    parser.add_argument("--input", default=None,
                        help="exported JSONL trace (report only)")
    args = parser.parse_args(argv)

    if args.experiment == "report":
        return report(args.input)
    names = sorted(EXPERIMENTS) if args.experiment == "all" \
        else [args.experiment]
    for name in names:
        started = time.time()
        print(EXPERIMENTS[name](args).format())
        print(f"[{name}: {time.time() - started:.1f}s wall]\n")
    if args.experiment == "all":
        return report(None)
    return 0


if __name__ == "__main__":
    sys.exit(main())
