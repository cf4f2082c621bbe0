"""Command-line experiment runner.

Print any of the tables without pytest:

    python -m repro.bench table1
    python -m repro.bench table3 --scale 0.02
    python -m repro.bench all

It only prints.  ``bench_results/`` has one writer and one gate,
``pytest benchmarks``: ``benchmarks/test_<name>.py`` runs the same
experiment, writes the artifact and asserts its conditions.

``trace-report`` is the odd one out: instead of running a simulation it
summarizes an exported JSONL trace (``--input trace.jsonl``) per layer —
see :mod:`repro.obs.export` for producing one.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.bench import experiments


def _trace_report(args):
    from repro.obs.report import build_trace_report

    if not args.input:
        raise SystemExit("trace-report needs --input <trace.jsonl>")
    return build_trace_report(args.input)


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
    "latency-report": lambda args: experiments.run_tracked_mix(),
    "trace-report": _trace_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Print the paper's tables and figures and the "
                    "feature benches.")
    parser.add_argument("experiment", choices=sorted(EXPERIMENTS) + ["all"],
                        help="which table to print")
    parser.add_argument("--scale", type=float, default=None,
                        help="TPC-H scale factor override")
    parser.add_argument("--measure-seconds", type=float, default=900.0,
                        help="TPC-C measurement window (virtual seconds)")
    parser.add_argument("--input", default=None,
                        help="exported JSONL trace (trace-report only)")
    args = parser.parse_args(argv)

    names = [args.experiment]
    if args.experiment == "all":
        names = sorted(set(EXPERIMENTS) - {"trace-report"})
    for name in names:
        started = time.time()
        print(EXPERIMENTS[name](args).format())
        print(f"[{name}: {time.time() - started:.1f}s wall]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
