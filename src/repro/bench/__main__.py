"""Command-line experiment runner.

Regenerate any of the paper's tables/figures without pytest:

    python -m repro.bench table1
    python -m repro.bench table3 --scale 0.02
    python -m repro.bench all

Results print as paper-style tables and are also written under
``bench_results/``.

``trace-report`` is the odd one out: instead of running a simulation it
summarizes an exported JSONL trace (``--input trace.jsonl``) per layer —
see :mod:`repro.obs.export` for producing one.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

from repro.bench import experiments

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
}


def _trace_report(args):
    from repro.obs.report import build_trace_report

    if not args.input:
        raise SystemExit("trace-report needs --input <trace.jsonl>")
    return build_trace_report(args.input)


def _append_history(out_dir: pathlib.Path, name: str,
                    entries: list[dict]) -> None:
    """Append ``entries`` to ``<name>_history.jsonl``, each stamped with
    today's date and the checked-out commit (the sentinel's input)."""
    import datetime
    import json
    import subprocess

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except Exception:
        commit = "unknown"
    stamp = {"date": datetime.date.today().isoformat(), "commit": commit}
    with (out_dir / f"{name}_history.jsonl").open("a") as handle:
        for entry in entries:
            handle.write(json.dumps({**stamp, **entry}) + "\n")


def _optbench_cells_close(a, b) -> bool:
    import math

    if isinstance(a, float) and isinstance(b, float):
        # Reordered joins feed SUM in a different row order, so float
        # aggregates may differ in the last ulp; everything else must
        # match exactly.
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)
    return a == b


def _optbench_rows_close(got: list, want: list) -> bool:
    if len(got) != len(want):
        return False
    got = sorted(got, key=repr)
    want = sorted(want, key=repr)
    return all(len(x) == len(y)
               and all(_optbench_cells_close(c, d)
                       for c, d in zip(x, y))
               for x, y in zip(got, want))


def _run_optbench(args) -> int:
    """The one planner before and after ``ANALYZE``, over the table-1
    power queries plus the Top-N query.

    Writes ``optbench.txt`` and appends one ``{date, commit, planner,
    leg, virtual_seconds, optimizer.*}`` line per leg to
    ``optbench_history.jsonl``; every line carries the identity field
    ``"planner": "one"`` (legs ``unanalyzed`` / ``analyzed``), so the
    sentinel never judges it against the legs recorded while there were
    two planners.  Fails (exit 1) if either leg's
    results differ from the frozen reference rows beyond
    float-summation-order tolerance, if either Top-N plan does not use
    TopNHeapSort, or if statistics do not lower the total.
    """
    scale = args.scale or experiments.OPTBENCH_SCALE
    result = experiments.run_optbench(scale=scale)
    text = result.format()
    print(text)
    out_dir = pathlib.Path(args.out)
    out_dir.mkdir(exist_ok=True)
    (out_dir / "optbench.txt").write_text(text + "\n")

    legs = (result.unanalyzed, result.analyzed)
    entries = []
    for leg in legs:
        entry = {"planner": "one", "leg": leg.name,
                 "virtual_seconds": leg.total_seconds}
        for name in ("optimizer.plans_costed",
                     "optimizer.join_orders_considered",
                     "optimizer.topn_heap_used",
                     "optimizer.sortmerge_chosen",
                     "optimizer.stats_missing_fallbacks"):
            entry[name] = int(leg.optimizer_counters.get(name, 0))
        entries.append(entry)
        print(f"[optbench history: {entry}]")
    _append_history(out_dir, "optbench", entries)

    failed = False
    print(f"[optbench: total {result.unanalyzed.total_seconds:.4f}s "
          f"unanalyzed -> {result.analyzed.total_seconds:.4f}s analyzed]")
    if result.analyzed.total_seconds >= result.unanalyzed.total_seconds:
        print("FAIL: statistics did not lower the total")
        failed = True
    reference = experiments.tpch_reference_rows(scale, result.seed)
    for leg in legs:
        if not any("TopNHeapSort" in line for line in leg.topn_plan):
            print(f"FAIL: {leg.name} leg's Top-N plan does not use "
                  "TopNHeapSort: " + " | ".join(leg.topn_plan))
            failed = True
        if leg.topn_rows != reference["TOP-N"]:
            print(f"FAIL: {leg.name} leg's Top-N rows differ from the "
                  "reference (the ordering is total, so they must match "
                  "exactly)")
            failed = True
        for number in sorted(leg.query_rows):
            if not _optbench_rows_close(leg.query_rows[number],
                                        reference[f"Q{number:02d}"]):
                print(f"FAIL: {leg.name} leg's values diverged from the "
                      f"reference on Q{number:02d}")
                failed = True
    return 1 if failed else 0


#: (sessions, transactions per session) legs for ``tpccbench`` — work
#: per leg stays roughly constant as concurrency rises so the bench
#: finishes in CI time at 128 sessions.
TPCCBENCH_LEGS = ((8, 4), (32, 2), (128, 1))

#: Shared world scale for every tpccbench leg (small enough for CI,
#: large enough that sessions genuinely collide on warehouse rows and
#: stock rows).
TPCCBENCH_SCALE = dict(items=100, customers_per_district=10,
                       initial_orders_per_district=5)


def _run_tpccbench(args) -> int:
    """Interleaved multi-session TPC-C against its serial reference.

    For each ``(sessions, txns)`` leg runs the identical descriptor set
    twice — serial (one session at a time) and interleaved (one
    statement per session per round, the lock manager arbitrating) — and
    compares virtual-time makespans and final database digests.

    Writes ``tpccbench.txt`` and appends one ``{date, commit, leg,
    sessions, virtual_seconds, locks.*}`` line per run to
    ``tpccbench_history.jsonl``; every line carries the identity fields
    ``"escalation": "none"`` and ``"planner": "one"``, so the sentinel
    judges it only against lines recorded since lock escalation was
    deleted and new-order's item list is sought key by key (the plan
    decides which rows a transaction locks, and so the whole schedule).
    Fails (exit 1) if the interleaved leg's final database digest
    differs from the serial reference (concurrency must never change
    committed state), if the two legs commit different numbers of
    transactions, or if the interleaved leg loses a wake-up (every live
    session waiting for a lock nobody will release).  Deadlocks, wait
    episodes (statements the server held) and requeues per episode (a
    statement that was unblocked, ran again and blocked again) are
    printed, not gated.
    """
    from repro.sim.costs import CostModel
    from repro.workloads.tpcc.concurrent import (
        ConcurrentMix, build_concurrent_world, digest_database)

    lock_counters = ("locks.row_locks_acquired",
                     "locks.deadlocks_detected", "locks.lock_wait_seconds",
                     "locks.txn_retries", "locks.wait_episodes",
                     "locks.requeues")
    lines = ["Concurrent TPC-C mix: virtual-time makespan, serial vs "
             "interleaved",
             "(identical transaction descriptors per leg; digests must "
             "match; waits = episodes: statements the server held at a "
             "lock; requeues = held again after running again)",
             "",
             f"{'sessions':>8}  {'txns':>4}  {'serial':>10}  "
             f"{'interleaved':>11}  {'deadlocks':>9}  {'waits':>7}  "
             f"{'requeues/wait':>13}"]
    failed = False
    entries = []
    for sessions, txns in TPCCBENCH_LEGS:
        runs = {}
        digests = {}
        for leg in ("serial", "interleaved"):
            server, apps, plans, scale = build_concurrent_world(
                sessions, CostModel.paper(), txns_per_session=txns,
                **TPCCBENCH_SCALE)
            mix = ConcurrentMix(server, apps, plans, scale)
            try:
                result = (mix.run_serial() if leg == "serial"
                          else mix.run_interleaved())
            except RuntimeError as error:
                # The mix raises the moment nobody can move.
                print(f"FAIL: at {sessions} sessions the {leg} leg "
                      f"stopped: {error}")
                return 1
            runs[leg] = result
            digests[leg] = digest_database(server.engine)
            entry = {"leg": leg, "sessions": sessions,
                     "escalation": "none", "planner": "one",
                     "virtual_seconds": result.makespan_seconds}
            counters = server.meter.counters
            for name in lock_counters:
                value = counters.get(name, 0)
                entry[name] = (round(value, 9) if name.endswith("seconds")
                               else int(value))
            entries.append(entry)
        serial, mixed = runs["serial"], runs["interleaved"]
        requeues = entries[-1]["locks.requeues"]
        lines.append(
            f"{sessions:>8}  {txns:>4}  {serial.makespan_seconds:>10.4f}  "
            f"{mixed.makespan_seconds:>11.4f}  {mixed.deadlocks:>9}  "
            f"{mixed.lock_waits:>7}  "
            f"{requeues / max(1, mixed.lock_waits):>13.3f}")
        if digests["interleaved"] != digests["serial"]:
            mismatched = sorted(
                name for name in digests["serial"]
                if digests["interleaved"].get(name)
                != digests["serial"][name])
            print(f"FAIL: at {sessions} sessions the interleaved leg's "
                  f"final database state differs from the serial "
                  f"reference (tables: {', '.join(mismatched)})")
            failed = True
        if serial.committed != mixed.committed:
            print(f"FAIL: committed-transaction counts diverged at "
                  f"{sessions} sessions: serial {serial.committed}, "
                  f"interleaved {mixed.committed}")
            failed = True
        print(f"[tpccbench n={sessions}: serial "
              f"{serial.makespan_seconds:.4f}s, interleaved "
              f"{mixed.makespan_seconds:.4f}s, {mixed.committed} "
              f"committed, deadlocks {mixed.deadlocks}, wait episodes "
              f"{mixed.lock_waits} ({requeues} requeues), lost wake-ups "
              f"0]")

    text = "\n".join(lines)
    print(text)
    out_dir = pathlib.Path(args.out)
    out_dir.mkdir(exist_ok=True)
    (out_dir / "tpccbench.txt").write_text(text + "\n")
    _append_history(out_dir, "tpccbench", entries)
    return 1 if failed else 0


def _run_latency_report(args) -> int:
    """Run the tracked mix (default configuration) with the latency
    ledger on and render the per-request-kind SLO table plus the
    per-component attribution table.

    Writes ``latency_report.txt``.  Fails (exit 1) if the ledger saw no
    requests or if any request's component attribution did not sum
    bit-exactly to its measured latency (the accounting identity).
    """
    from repro.obs.latency import format_latency_report

    ledger = experiments.run_tracked_mix().latency
    text = format_latency_report(
        ledger, source="tracked mix (default configuration, "
                       "point_reads=2000)")
    print(text)
    out_dir = pathlib.Path(args.out)
    out_dir.mkdir(exist_ok=True)
    (out_dir / "latency_report.txt").write_text(text + "\n")

    failed = False
    if ledger is None or ledger.closed == 0:
        print("FAIL: latency ledger recorded no requests")
        failed = True
    elif ledger.identity_violations:
        for violation in ledger.identity_violations[:10]:
            print(f"FAIL: accounting identity broken: {violation}")
        failed = True
    return 1 if failed else 0


def _run_sentinel(args) -> int:
    """Compare the latest entry of every ``*_history.jsonl`` group
    against its trailing-window median; exit 1 on any regression beyond
    the per-metric tolerance (see :mod:`repro.obs.sentinel`).
    """
    from repro.obs.sentinel import run_sentinel

    report = run_sentinel(args.out)
    print(report.format())
    return 0 if report.ok else 1


def _run_recovery_scaling(args) -> int:
    """Sweep restart-recovery time vs log length and gate the tentpole.

    Writes ``recovery_scaling.txt`` and appends one ``{date, commit,
    records, leg, recovery_seconds, redo_applied}`` line per leg to
    ``recovery_scaling_history.jsonl``; every line carries the identity
    field ``"redo_from": "checkpoint"`` (redo scans everything behind
    the checkpoint even when the oldest dirty page is younger; lines
    without the field started a fuzzy leg's redo at that page), so the
    sentinel judges it against lines recorded under that rule only.
    Fails (exit 1) if at the longest log the fuzzy+4-worker leg is not
    at least 3x faster in virtual time than the never-checkpoint leg,
    if its redone-record count is not bounded well below the log
    (dirty-page recLSNs, not log length), if more workers make recovery
    slower, or if any leg recovers different table contents (worker
    count and checkpoint regime must never change recovered state), or
    if restart scans more log records for the DML versions behind a 10x
    longer archived history (restart cost must be bounded by the live
    log, not by history).
    """
    result = experiments.run_recovery_scaling()
    text = result.format()
    print(text)
    out_dir = pathlib.Path(args.out)
    out_dir.mkdir(exist_ok=True)
    (out_dir / "recovery_scaling.txt").write_text(text + "\n")

    _append_history(out_dir, "recovery_scaling", [
        {"records": records, "leg": leg, "redo_from": "checkpoint",
         "recovery_seconds": round(seconds, 6), "redo_applied": applied}
        for records, leg, seconds, applied, *_rest in result.rows])

    failed = False
    longest = max(records for records, *_ in result.rows)
    none_row = result.leg(longest, "none")
    w1_row = result.leg(longest, "fuzzy-w1")
    w4_row = result.leg(longest, "fuzzy-w4")
    print(f"[recovery scaling at {longest} records: none "
          f"{none_row[2]:.4f}s / {none_row[3]} applied, fuzzy-w4 "
          f"{w4_row[2]:.4f}s / {w4_row[3]} applied]")
    if w4_row[2] * 3.0 > none_row[2]:
        print(f"FAIL: fuzzy+4-worker recovery took {w4_row[2]:.4f}s at "
              f"{longest} records — not 3x faster than the "
              f"never-checkpoint leg's {none_row[2]:.4f}s")
        failed = True
    if w4_row[3] * 3 > none_row[3]:
        print(f"FAIL: fuzzy redo applied {w4_row[3]} records at "
              f"{longest} records — not bounded by dirty-page recLSNs "
              f"(never-checkpoint leg applied {none_row[3]})")
        failed = True
    if w4_row[2] > w1_row[2]:
        print(f"FAIL: 4-worker redo ({w4_row[2]:.4f}s) slower than "
              f"1-worker ({w1_row[2]:.4f}s)")
        failed = True
    for records in sorted({r for r, *_ in result.rows}):
        prints = {leg: result.fingerprints[(records, leg)]
                  for _r, leg, *_ in result.rows if _r == records}
        reference = prints["none"]
        for leg, fingerprint in prints.items():
            if fingerprint != reference:
                print(f"FAIL: leg {leg} at {records} records recovered "
                      "different table contents than the "
                      "never-checkpoint leg")
                failed = True
    short, long = (experiments.restart_scan_after_history(rounds)
                   for rounds in experiments.RECOVERY_HISTORY_ROUNDS)
    print(f"[restart version scan: {short['version_records_scanned']} "
          f"records behind {short['archived_records']} archived, "
          f"{long['version_records_scanned']} behind "
          f"{long['archived_records']} archived]")
    if long["archived_records"] < 5 * short["archived_records"]:
        print("FAIL: the long-history leg archived only "
              f"{long['archived_records']} records against "
              f"{short['archived_records']} — the gate compares nothing")
        failed = True
    for leg in (short, long):
        if leg["version_records_scanned"] != leg["live_records"]:
            print(f"FAIL: restart scanned {leg['version_records_scanned']} "
                  f"records for DML versions, live log holds "
                  f"{leg['live_records']}")
            failed = True
    if long["version_records_scanned"] > short["version_records_scanned"]:
        print("FAIL: restart's version scan grew with archived history: "
              f"{short['version_records_scanned']} -> "
              f"{long['version_records_scanned']} records")
        failed = True
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's tables and figures.")
    parser.add_argument("experiment",
                        choices=sorted(EXPERIMENTS) + ["all", "trace-report",
                                                       "recoveryscaling",
                                                       "latency-report",
                                                       "optbench",
                                                       "tpccbench",
                                                       "sentinel"],
                        help="which artifact to regenerate")
    parser.add_argument("--scale", type=float, default=None,
                        help="TPC-H scale factor override")
    parser.add_argument("--measure-seconds", type=float, default=900.0,
                        help="TPC-C measurement window (virtual seconds)")
    parser.add_argument("--out", default="bench_results",
                        help="directory for the result tables")
    parser.add_argument("--input", default=None,
                        help="exported JSONL trace (trace-report only)")
    args = parser.parse_args(argv)

    if args.experiment == "trace-report":
        print(_trace_report(args).format())
        return 0
    if args.experiment == "recoveryscaling":
        return _run_recovery_scaling(args)
    if args.experiment == "latency-report":
        return _run_latency_report(args)
    if args.experiment == "optbench":
        return _run_optbench(args)
    if args.experiment == "tpccbench":
        return _run_tpccbench(args)
    if args.experiment == "sentinel":
        return _run_sentinel(args)
    names = sorted(EXPERIMENTS) if args.experiment == "all" \
        else [args.experiment]
    out_dir = pathlib.Path(args.out)
    out_dir.mkdir(exist_ok=True)
    failed = False
    for name in names:
        started = time.time()
        result = EXPERIMENTS[name](args)
        text = result.format()
        print(text)
        print(f"[{name}: {time.time() - started:.1f}s wall]\n")
        (out_dir / f"{name}.txt").write_text(text + "\n")
        # indexbench carries an exit-1 gate (its IN-list leg).
        for failure in getattr(result, "failures", list)():
            print(f"FAIL: {name}: {failure}")
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
