#!/usr/bin/env python3
"""The repo's benchmark: five workloads, two clocks, per-layer attribution.

Ways to call it (README.md has the details):

``run.py --workload W --seed N --seconds S --trace 0|1``
    One workload.  Prints every metric by name with its unit; the last
    line of stdout is one JSON object with the keys ``correct``,
    ``attempted``, ``failed`` and ``metrics`` — the end-to-end metrics of
    ``BENCHMARK.json`` with ``--trace 0``, the per-layer metrics with
    ``--trace 1``.

``run.py [--seed N] [--workload W] [--quick] [--out FILE]``
    Every workload, untraced then traced; writes FILE (default
    ``out/run.json``) and exits non-zero on a failed check.

``run.py compare A.json B.json``
    Verdict per (end-to-end metric, workload) between two such files.

Every repetition runs in a fresh interpreter (``--rep``, internal): in
one process, later repetitions ran up to 10 % slower than the first.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import subprocess
import sys
from pathlib import Path
from statistics import median

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
DEFAULT_SECONDS = 12
#: Host seconds one repetition's ops take on the reference machine.  The
#: number of repetitions follows from ``--seconds`` and this, not from
#: measured time, so a slow spell of the machine does not change which
#: repetitions the median is taken over.
NOMINAL_REP_SECONDS = {"oltp_phoenix": 2.6, "olap_power": 3.0,
                       "result_stream": 2.6, "oltp_concurrent": 3.4,
                       "crash_recovery": 3.0}
WORKLOADS = tuple(NOMINAL_REP_SECONDS)
MIN_REPS = 3
REP_MODES = ("plain", "reference", "trace", "ledger")


# ---------------------------------------------------------------------------
# One repetition (child process)
# ---------------------------------------------------------------------------


def run_rep(name: str, seed: int, quick: bool, mode: str) -> dict:
    """A fresh world, the ops, the checks; returns plain data.

    ``mode``: "plain" = untraced, "reference" = the workload's reference
    run, "trace" = tracer + latency ledger, "ledger" = ledger only.
    """
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    from trace import Tracer
    from workloads import WORKLOADS, OpLog, calibrated_call

    workload = WORKLOADS[name](seed, quick, reference=mode == "reference")
    world, setup_raw_s, setup_s = calibrated_call(workload.setup)
    workload.prepare(world)
    meter = world.meter
    ledger = meter.enable_latency_ledger() \
        if mode in ("trace", "ledger") else None
    tracer = Tracer() if mode == "trace" else None
    log = OpLog(world, tracer)
    before = layers.snapshot(world)
    gc.collect()
    if tracer is not None:
        tracer.install()
    try:
        with meter.request(name) as trace:
            observed = workload.run(world, log)
    finally:
        if tracer is not None:
            tracer.uninstall()
    calibrator = log.calibrator
    calibrator.finish()
    counts = layers.snapshot(world) - before
    tail = layers.tail_quantile(len(log.virt_s))
    host_s = log.host_total_ns / 1e9
    # Raw per-op host time; a workload without per-op samples
    # (``oltp_concurrent``: one timed call) reports its mean per op.
    host_us = [ns / 1e3 for ns in log.host_ns] \
        or [host_s * 1e6 / log.ops]
    rep = {
        "setup_s": setup_s, "setup_raw_s": setup_raw_s,
        "ops": log.ops, "host_s": host_s,
        "calibrated_host_s": calibrator.calibrated_ns / 1e9,
        "calib_ms": calibrator.slice_total_ns / calibrator.slices / 1e6,
        "virt_s": log.virt_total_s,
        "virt_op_samples": len(log.virt_s), "tail_quantile": tail,
        "virt_op_p50_ms": layers.percentile(log.virt_s, 0.5) * 1e3,
        "virt_op_tail_ms": layers.percentile(log.virt_s, tail) * 1e3,
        "host_op_p50_us": layers.percentile(host_us, 0.5),
        "host_op_tail_us": layers.percentile(
            host_us, layers.tail_quantile(len(host_us))),
        "observed": observed, "phoenix": log.phoenix_summary(),
        "counts": dict(counts),
        "profile_effective": world.report.effective,
        "profile_skipped": world.report.skipped,
    }
    if tracer is not None:
        seconds_on = {r: trace.seconds_on(r) for r in layers.RESOURCES}
        page_io_virt_s = sum(s.seconds for s in trace.segments
                             if s.note == "page io")
        rep["layer_metrics"] = layers.layer_metrics(
            rep, tracer, ledger.component_totals(), seconds_on,
            page_io_virt_s)
        self_ns = tracer.layer_self_ns()
        rep["trace_summary"] = {
            "spans": len(tracer.spans),
            "skipped_entry_points": tracer.skipped,
            "root_ns": tracer.root_ns(),
            "attributed_ns": sum(self_ns.values()),
            "layer_self_ns": self_ns,
        }
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"{name}.trace.jsonl")
    workload.check(world, log, observed)
    rep["failures"] = log.failures[:20]
    rep["failed"] = len(log.failures)
    rep["op_digest"] = log.digest.hexdigest()
    rep["comparable"] = workload.comparable(world, log)
    # ru_maxrss is in KiB on Linux.
    rep["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    return rep


def spawn_rep(name: str, seed: int, quick: bool, mode: str) -> dict:
    """``run_rep`` in a fresh interpreter — except at ``--quick`` sizes,
    where steadiness does not matter and 25 interpreter starts would."""
    if quick:
        rep = json.loads(json.dumps(run_rep(name, seed, quick, mode)))
    else:
        command = [sys.executable, str(HERE / "run.py"), "--rep", mode,
                   "--workload", name, "--seed", str(seed)]
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=170)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            sys.exit(f"run.py: repetition ({mode}) of {name} exited "
                     f"{done.returncode}")
        rep = json.loads(done.stdout.splitlines()[-1])
    rep["mode"] = mode
    return rep


# ---------------------------------------------------------------------------
# One run = one workload, one seed
# ---------------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 quick: bool) -> dict:
    """Returns the detail record, whose ``result`` entry is the line the
    pipeline reads."""
    wanted = round(seconds / NOMINAL_REP_SECONDS[name])
    count = max(MIN_REPS, wanted)
    if trace:
        # Untraced repetitions are only the baseline of the tracing
        # overhead here; fewer leave room for the traced one.
        count = max(2, wanted // 2)
    if quick:
        count = 1
    reps = [spawn_rep(name, seed, quick, "plain") for _ in range(count)]
    first = reps[0]
    extra = []
    if first["comparable"]:
        extra.append(spawn_rep(name, seed, quick, "reference"))
    if trace:
        extra.append(spawn_rep(name, seed, quick, "trace"))
        if name == "oltp_phoenix":
            extra.append(spawn_rep(name, seed, quick, "ledger"))
    problems = [f for rep in reps + extra for f in rep["failures"]]
    failed = sum(rep["failed"] for rep in reps + extra)
    # Every repetition runs the same plan on an identical fresh world:
    # anything virtual that differs between them is a determinism bug,
    # and neither the tracer nor the ledger may move the virtual clock.
    for rep in reps[1:] + [e for e in extra if e["mode"] != "reference"]:
        if any(rep[key] != first[key]
               for key in ("virt_s", "op_digest", "counts")):
            problems.append("repetitions of one seed disagree on virtual "
                            "time, outputs or counts")
            failed += 1
    if first["comparable"] and any(
            rep["comparable"] != extra[0]["comparable"] for rep in reps):
        problems.append("outputs differ from the reference run")
        failed += 1
    attempted = sum(rep["ops"] for rep in reps + extra)
    samples = {
        "setup_s": [rep["setup_s"] for rep in reps],
        "host_ops_per_s": [rep["ops"] / rep["calibrated_host_s"]
                           for rep in reps],
        "host_ops_per_s_raw": [rep["ops"] / rep["host_s"] for rep in reps],
        "setup_raw_s": [rep["setup_raw_s"] for rep in reps],
        "calib_ms": [rep["calib_ms"] for rep in reps],
        "peak_rss_mb": [rep["peak_rss_mb"] for rep in reps],
    }
    detail = {
        "workload": name, "seed": seed, "quick": quick, "traced": trace,
        "ops": first["ops"], "repetitions": len(reps),
        "profile_effective": first["profile_effective"],
        "profile_skipped": first["profile_skipped"],
        "op_digest": first["op_digest"],
        "virt_op_samples": first["virt_op_samples"],
        "tail_quantile": first["tail_quantile"],
        "samples": samples,
    }
    if not trace:
        metrics = {
            "setup_s": (median(samples["setup_s"]), "s"),
            "host_ops_per_s": (median(samples["host_ops_per_s"]), "1/s"),
            "virt_s": (first["virt_s"], "s"),
            "virt_op_p50_ms": (first["virt_op_p50_ms"], "ms"),
            "virt_op_tail_ms": (first["virt_op_tail_ms"], "ms"),
            "peak_rss_mb": (max(samples["peak_rss_mb"]), "MB"),
        }
    else:
        traced = next(e for e in extra if e["mode"] == "trace")
        values = traced["layer_metrics"]
        calibrated_host_s = median(r["calibrated_host_s"] for r in reps)
        restarts = [c["restart_host_ms"] for rep in reps
                    for c in rep["observed"].get("crashes", [])]
        values.update({
            "restart_host_ms_p50": median(restarts) if restarts else 0.0,
            "failed_ops_share": min(failed, attempted) / attempted,
            "workloads.host_op_p50_us":
                median(r["host_op_p50_us"] for r in reps),
            "workloads.host_op_tail_us":
                median(r["host_op_tail_us"] for r in reps),
            "workloads.host_ops_per_s_raw":
                median(samples["host_ops_per_s_raw"]),
            "workloads.setup_raw_s": median(samples["setup_raw_s"]),
            "workloads.calib_ms": median(samples["calib_ms"]),
            "workloads.trace_overhead_ratio":
                traced["calibrated_host_s"] / calibrated_host_s,
            "obs.ledger_overhead_ratio":
                extra[-1]["calibrated_host_s"] / calibrated_host_s
                if name == "oltp_phoenix" else 0.0,
        })
        metrics = {n: (values[n], unit)
                   for n, unit, _better in layers.PER_LAYER}
        detail["trace_summary"] = traced["trace_summary"]
    detail["problems"] = problems[:20]
    detail["result"] = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": min(failed, attempted),
        "metrics": {n: {"value": value, "unit": unit}
                    for n, (value, unit) in metrics.items()},
    }
    return detail


def print_detail(detail: dict) -> None:
    print(f"workload {detail['workload']} seed {detail['seed']} "
          f"ops {detail['ops']} repetitions {detail['repetitions']}")
    print(f"profile_effective {json.dumps(detail['profile_effective'])}")
    print(f"profile_skipped {json.dumps(detail['profile_skipped'])}")
    print(f"op_digest {detail['op_digest']}")
    print(f"virt_op_samples {detail['virt_op_samples']} "
          f"tail_quantile {detail['tail_quantile']}")
    if "trace_summary" in detail:
        summary = detail["trace_summary"]
        share = summary["attributed_ns"] / summary["root_ns"]
        print(f"trace spans {summary['spans']} "
              f"attributed_share {share:.4f} "
              f"skipped_entry_points {summary['skipped_entry_points']}")
    for name, metric in detail["result"]["metrics"].items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    for problem in detail["problems"]:
        print(f"FAILED {problem}")


def driver_main(args) -> int:
    detail = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), args.quick)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}.trace{args.trace}.json"
    path.write_text(json.dumps(detail, indent=1) + "\n")
    print_detail(detail)
    print(json.dumps(detail["result"]))
    return 0


def full_main(args) -> int:
    """Every workload, untraced then traced."""
    runs = {}
    for name in [args.workload] if args.workload else WORKLOADS:
        for trace in (False, True):
            detail = run_workload(name, args.seed, args.seconds, trace,
                                  args.quick)
            print_detail(detail)
            runs[f"{name}.trace{int(trace)}"] = detail
    ok = all(detail["result"]["correct"] for detail in runs.values())
    out = Path(args.out) if args.out else OUT / "run.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"seed": args.seed, "quick": args.quick,
                               "seconds": args.seconds, "runs": runs},
                              indent=1) + "\n")
    print(f"wrote {out}; {'all checks passed' if ok else 'CHECKS FAILED'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        from compare import compare_main
        return compare_main(argv[1:], ROOT / "BENCHMARK.json")
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--quick", action="store_true",
                        help="small sizes (smoke test)")
    parser.add_argument("--out", help="full mode: where to write the run")
    parser.add_argument("--rep", choices=REP_MODES, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # The system under test is ``src/repro`` of the checkout this file
    # sits in; without it there is nothing to measure.
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"run.py: no system under test at {ROOT / 'src' / 'repro'}")
    if args.seconds is None:
        args.seconds = 0 if args.quick else DEFAULT_SECONDS
    if args.rep:
        print(json.dumps(run_rep(args.workload, args.seed, args.quick,
                                 args.rep)))
        return 0
    if args.trace is None:
        return full_main(args)
    if args.workload is None:
        parser.error("--trace needs --workload")
    return driver_main(args)


if __name__ == "__main__":
    sys.exit(main())
