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


#: ``log_forces`` of the tracked mix before asynchronous commit existed
#: — the regression ceiling: no future change may force the log more
#: often than the synchronous-commit seed did.
SEED_LOG_FORCES = 183


def _wallclock_payload(result, leg: str) -> dict:
    mixes = {
        "base": "TPC-C transactions + point selects + phoenix persists",
        "indexed": ("TPC-C transactions + secondary-index point selects "
                    "+ phoenix persists"),
        "prefetch": ("TPC-C transactions + point selects + phoenix "
                     "persists, pipelined result delivery on"),
        "cached-shared": ("TPC-C transactions + point selects + phoenix "
                          "persists, transaction-consistent shared "
                          "result cache on"),
    }
    return {
        "mix": mixes[leg],
        "leg": leg,
        "async_commit_window":
            experiments.WALLCLOCK_ASYNC_COMMIT_WINDOW,
        "baseline_host_seconds": round(result.baseline_host_seconds, 3),
        "cached_host_seconds": round(result.cached_host_seconds, 3),
        "speedup_percent": round(result.speedup_percent, 1),
        "baseline_segments": {k: round(v, 3)
                              for k, v in result.baseline_segments.items()},
        "cached_segments": {k: round(v, 3)
                            for k, v in result.cached_segments.items()},
        "virtual_seconds": result.cached_virtual_seconds,
        "counters": result.counters,
        "cache_stats": result.cache_stats,
        "executor_stats": {k: result.executor_stats[k]
                           for k in sorted(result.executor_stats)},
    }


def _run_wallclock(args) -> int:
    """Run the host wall-clock mix (plus its secondary-index variant)
    and track both over time.

    Writes ``wallclock.json``/``wallclock.txt``,
    ``wallclock_indexed.json``, ``wallclock_prefetch.json`` and
    ``wallclock_cached_shared.json`` (the current snapshots) and appends
    one ``{date, commit, leg, host_seconds, log_forces}`` line per leg
    to ``wallclock_history.jsonl`` so CI can spot host-time regressions.
    Fails if any leg forces the log more often than the
    synchronous-commit seed mix did (``log_forces`` > 183: async commit
    stopped deferring), if the prefetch leg sends *more* requests than
    the base leg, if it cuts fetch round trips on the tracked mix by
    less than 20%, or if the cached-shared leg cuts total round trips by
    less than 40%, records no shared-cache hits, or returns different
    point-select rows than the base leg.
    """
    import datetime
    import json
    import subprocess

    window = experiments.WALLCLOCK_ASYNC_COMMIT_WINDOW
    # point_reads matches benchmarks/test_wallclock_speedup.py so the
    # CLI and the benchmark harness track the same mix.
    legs = {
        "base": experiments.run_wallclock(
            point_reads=2000, async_commit_window=window),
        "indexed": experiments.run_wallclock(
            point_reads=2000, async_commit_window=window, indexed=True),
        "prefetch": experiments.run_wallclock(
            point_reads=2000, async_commit_window=window, prefetch=True),
        "cached-shared": experiments.run_wallclock(
            point_reads=2000, async_commit_window=window,
            result_cache=True),
    }
    out_dir = pathlib.Path(args.out)
    out_dir.mkdir(exist_ok=True)

    history = out_dir / "wallclock_history.jsonl"
    previous = None
    if history.exists():
        lines = [line for line in history.read_text().splitlines()
                 if line.strip()]
        entries = [json.loads(line) for line in lines]
        base_entries = [e for e in entries if e.get("leg", "base") == "base"]
        if base_entries:
            previous = base_entries[-1]
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except Exception:
        commit = "unknown"

    failed = False
    for leg, result in legs.items():
        text = result.format()
        print(f"[leg: {leg}]")
        print(text)
        if result.baseline_virtual_seconds != result.cached_virtual_seconds:
            if leg == "cached-shared":
                # Expected: the shared result cache removes entire
                # execute round trips, so it is a virtual-time
                # optimization (the digest gate below proves the
                # answers stayed identical).
                print(f"[cached-shared: virtual clock "
                      f"{result.baseline_virtual_seconds:.8f} -> "
                      f"{result.cached_virtual_seconds:.8f}]")
            else:
                print("WARNING: virtual clocks diverged between the "
                      "caches-off and caches-on legs — caching changed "
                      "simulated behavior")

        suffix = "" if leg == "base" else "_" + leg.replace("-", "_")
        (out_dir / f"wallclock{suffix}.json").write_text(
            json.dumps(_wallclock_payload(result, leg), indent=2) + "\n")
        if leg == "base":
            (out_dir / "wallclock.txt").write_text(text + "\n")

        log_forces = int(result.counters.get("log_forces", 0))
        _p50, p95_execute, _p99 = \
            result.latency.kind_percentiles("ExecuteRequest")
        entry = {"date": datetime.date.today().isoformat(),
                 "commit": commit, "leg": leg,
                 "host_seconds": round(result.cached_host_seconds, 3),
                 "log_forces": log_forces,
                 "requests_sent":
                     int(result.counters.get("net.requests_sent", 0)),
                 "fetch_requests":
                     int(result.counters.get("net.requests.FetchRequest",
                                             0)),
                 "result_cache_hits":
                     int(result.counters.get("result_cache.hits", 0)),
                 # Deterministic virtual metrics: the sentinel flags any
                 # drift of these against the trailing window.
                 "virtual_seconds": result.cached_virtual_seconds,
                 "p95_execute_seconds": p95_execute}
        if leg == "cached-shared":
            # An identity field, not a metric: the sentinel judges the
            # leg against lines recorded under the same invalidation
            # rule only (its wire bytes, and so its virtual clock, moved
            # when table-granular invalidation became key-precise).
            entry["invalidation"] = "read-set"
        with history.open("a") as handle:
            handle.write(json.dumps(entry) + "\n")
        print(f"[wallclock history: {entry}]")

        if log_forces > SEED_LOG_FORCES:
            print(f"FAIL: {leg} leg forced the log {log_forces} times — "
                  f"above the synchronous-commit seed's {SEED_LOG_FORCES}")
            failed = True

    # Pipelined-delivery regression gates.  The prefetch leg runs the
    # identical statement stream as the base leg, so it must never send
    # more requests and must finish at a lower virtual clock (less RTT
    # stall).  The ≥20% fetch-round-trip cut is tracked on the drain
    # companion mix — the point-read mix itself never leaves the first
    # wire batch.
    base_reqs = int(legs["base"].counters.get("net.requests_sent", 0))
    pf_reqs = int(legs["prefetch"].counters.get("net.requests_sent", 0))
    base_clock = legs["base"].cached_virtual_seconds
    pf_clock = legs["prefetch"].cached_virtual_seconds
    drain_seed = experiments.run_result_drain(prefetch=False)
    drain_pf = experiments.run_result_drain(prefetch=True)
    print(f"[prefetch leg: requests {base_reqs} -> {pf_reqs}, "
          f"virtual clock {base_clock:.8f} -> {pf_clock:.8f}]")
    print(f"[result drain: fetch round trips "
          f"{drain_seed['fetch_requests']} -> {drain_pf['fetch_requests']}, "
          f"virtual {drain_seed['virtual_seconds']:.6f}s -> "
          f"{drain_pf['virtual_seconds']:.6f}s, "
          f"prefetch hits {drain_pf['prefetch_hits']}]")
    drain_payload = {"query": experiments.RESULT_DRAIN_QUERY,
                     "seed": drain_seed, "prefetch": drain_pf}
    prefetch_json = out_dir / "wallclock_prefetch.json"
    payload = json.loads(prefetch_json.read_text())
    payload["result_drain"] = drain_payload
    prefetch_json.write_text(json.dumps(payload, indent=2) + "\n")
    if pf_reqs > base_reqs:
        print(f"FAIL: prefetch leg sent {pf_reqs} requests — above the "
              f"seed mix's {base_reqs}")
        failed = True
    if drain_pf["rows"] != drain_seed["rows"]:
        print("FAIL: drain mix returned different rows with prefetch on")
        failed = True
    if drain_pf["fetch_requests"] > 0.8 * drain_seed["fetch_requests"]:
        print(f"FAIL: drain mix still issued {drain_pf['fetch_requests']} "
              f"fetch round trips — less than a 20% cut from "
              f"{drain_seed['fetch_requests']}")
        failed = True
    if pf_clock >= base_clock:
        print("FAIL: prefetch leg's virtual clock did not drop below the "
              "base leg's — pipelining eliminated no RTT stall")
        failed = True
    if drain_pf["virtual_seconds"] >= drain_seed["virtual_seconds"]:
        print("FAIL: drain mix's virtual time did not drop with "
              "fetch-ahead on")
        failed = True

    # Shared-result-cache regression gates.  The cached-shared leg runs
    # the identical statement stream as the base leg with the
    # transaction-consistent shared cache on: it must cut total round
    # trips by ≥40%, actually hit, and return bit-identical rows — both
    # against the base leg and against its own caches-off sub-leg.
    cs = legs["cached-shared"]
    cs_reqs = int(cs.counters.get("net.requests_sent", 0))
    cs_hits = int(cs.counters.get("result_cache.hits", 0))
    print(f"[cached-shared leg: requests {base_reqs} -> {cs_reqs} "
          f"({100.0 * (1 - cs_reqs / base_reqs):.1f}% cut), "
          f"hits {cs_hits}, misses "
          f"{int(cs.counters.get('result_cache.misses', 0))}, "
          f"insertions "
          f"{int(cs.counters.get('result_cache.insertions', 0))}]")
    if cs_reqs > 0.6 * base_reqs:
        print(f"FAIL: cached-shared leg still sent {cs_reqs} requests — "
              f"less than a 40% cut from the base leg's {base_reqs}")
        failed = True
    if cs_hits <= 0:
        print("FAIL: cached-shared leg recorded no shared-cache hits")
        failed = True
    if cs.cached_rows_digest != cs.baseline_rows_digest:
        print("FAIL: cached-shared leg returned different point-select "
              "rows with the shared result cache on (off-vs-on digest "
              "mismatch)")
        failed = True
    if cs.cached_rows_digest != legs["base"].cached_rows_digest:
        print("FAIL: cached-shared leg's point-select rows differ from "
              "the base leg's (cross-leg digest mismatch)")
        failed = True

    if previous and previous.get("host_seconds"):
        last = previous["host_seconds"]
        now = round(legs["base"].cached_host_seconds, 3)
        if now > 1.3 * last:
            print(f"WARNING: wallclock mix took {now:.3f}s"
                  f" — more than 30% slower than the last recorded"
                  f" {last:.3f}s ({previous.get('commit', '?')})")
    return 1 if failed else 0


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
    """Heuristic vs cost-based plans over the table-1 power queries plus
    the Top-N query.

    Writes ``optbench.txt`` and appends one ``{date, commit, leg,
    virtual_seconds, optimizer.*}`` line per leg to
    ``optbench_history.jsonl`` (the sentinel holds the heuristic leg's
    clock bit-stable and its optimizer counters at zero).  Fails (exit
    1) if the cost leg is not strictly faster on at least 3 table-1
    queries, if its Top-N plan does not use TopNHeapSort (or the
    heuristic plan does), if the heuristic leg planned through the cost
    path at all, or if any cost-leg result differs from the heuristic
    leg's beyond float-summation-order tolerance.
    """
    import datetime
    import json
    import subprocess

    result = experiments.run_optbench(scale=args.scale
                                      or experiments.OPTBENCH_SCALE)
    text = result.format()
    print(text)
    out_dir = pathlib.Path(args.out)
    out_dir.mkdir(exist_ok=True)
    (out_dir / "optbench.txt").write_text(text + "\n")

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except Exception:
        commit = "unknown"
    history = out_dir / "optbench_history.jsonl"
    with history.open("a") as handle:
        for leg in (result.heuristic, result.cost):
            entry = {"date": datetime.date.today().isoformat(),
                     "commit": commit, "leg": leg.mode,
                     "virtual_seconds": leg.total_seconds}
            for name in ("optimizer.plans_costed",
                         "optimizer.join_orders_considered",
                         "optimizer.topn_heap_used",
                         "optimizer.sortmerge_chosen",
                         "optimizer.stats_missing_fallbacks"):
                entry[name] = int(leg.optimizer_counters.get(name, 0))
            handle.write(json.dumps(entry) + "\n")
            print(f"[optbench history: {entry}]")

    failed = False
    faster = result.faster_queries()
    print(f"[optbench: cost leg faster on {len(faster)}/"
          f"{len(result.heuristic.query_seconds)} table-1 queries, "
          f"total {result.heuristic.total_seconds:.4f}s -> "
          f"{result.cost.total_seconds:.4f}s]")
    if len(faster) < 3:
        print(f"FAIL: cost-based plans beat the heuristic on only "
              f"{len(faster)} table-1 queries — need at least 3")
        failed = True
    if not any("TopNHeapSort" in line for line in result.cost.topn_plan):
        print("FAIL: cost leg's Top-N plan does not use TopNHeapSort: "
              + " | ".join(result.cost.topn_plan))
        failed = True
    if any("TopNHeapSort" in line
           for line in result.heuristic.topn_plan):
        print("FAIL: heuristic leg's Top-N plan uses TopNHeapSort — "
              "cost-mode machinery leaked into the default path")
        failed = True
    if result.cost.topn_seconds >= result.heuristic.topn_seconds:
        print(f"FAIL: Top-N heap did not beat Sort+Limit "
              f"({result.heuristic.topn_seconds:.6f}s -> "
              f"{result.cost.topn_seconds:.6f}s)")
        failed = True
    if result.heuristic.optimizer_counters:
        print(f"FAIL: heuristic leg ticked optimizer counters: "
              f"{result.heuristic.optimizer_counters}")
        failed = True
    if result.cost.topn_rows != result.heuristic.topn_rows:
        print("FAIL: Top-N rows differ between modes (the ordering is "
              "total, so they must match exactly)")
        failed = True
    for number in sorted(result.heuristic.query_rows):
        if not _optbench_rows_close(result.cost.query_rows[number],
                                    result.heuristic.query_rows[number]):
            print(f"FAIL: cost-leg values diverged on Q{number:02d}")
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
    ``tpccbench_history.jsonl``; every line carries the identity field
    ``"escalation": "none"``, so the sentinel judges it only against
    lines recorded since lock escalation was deleted.
    Fails (exit 1) if the interleaved leg's final database digest
    differs from the serial reference (concurrency must never change
    committed state), if the two legs commit different numbers of
    transactions, or if the interleaved leg loses a wake-up (every live
    session waiting for a lock nobody will release).  Deadlocks, wait
    episodes (statements the server held) and requeues per episode (a
    statement that was unblocked, ran again and blocked again) are
    printed, not gated.
    """
    import datetime
    import json
    import subprocess

    from repro.workloads.tpcc.concurrent import (
        ConcurrentMix, build_concurrent_world, digest_database)

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except Exception:
        commit = "unknown"

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
                sessions, txns_per_session=txns, **TPCCBENCH_SCALE)
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
            entry = {"date": datetime.date.today().isoformat(),
                     "commit": commit, "leg": leg, "sessions": sessions,
                     "escalation": "none",
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
    history = out_dir / "tpccbench_history.jsonl"
    with history.open("a") as handle:
        for entry in entries:
            handle.write(json.dumps(entry) + "\n")
    return 1 if failed else 0


def _run_latency_report(args) -> int:
    """Run the tracked wall-clock mix with the latency ledger on and
    render the per-request-kind SLO table plus the per-component
    attribution table.

    Writes ``latency_report.txt``.  Fails (exit 1) if the ledger saw no
    requests or if any request's component attribution did not sum
    bit-exactly to its measured latency (the accounting identity).
    """
    from repro.obs.latency import format_latency_report

    result = experiments.run_wallclock(
        point_reads=2000,
        async_commit_window=experiments.WALLCLOCK_ASYNC_COMMIT_WINDOW)
    ledger = result.latency
    text = format_latency_report(
        ledger, source="wallclock mix (caches on, point_reads=2000)")
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
    import datetime
    import json
    import subprocess

    result = experiments.run_recovery_scaling()
    text = result.format()
    print(text)
    out_dir = pathlib.Path(args.out)
    out_dir.mkdir(exist_ok=True)
    (out_dir / "recovery_scaling.txt").write_text(text + "\n")

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except Exception:
        commit = "unknown"
    history = out_dir / "recovery_scaling_history.jsonl"
    with history.open("a") as handle:
        for (records, leg, seconds, applied, skipped, checkpoints,
             truncated, _workload) in result.rows:
            handle.write(json.dumps(
                {"date": datetime.date.today().isoformat(),
                 "commit": commit, "records": records, "leg": leg,
                 "redo_from": "checkpoint",
                 "recovery_seconds": round(seconds, 6),
                 "redo_applied": applied}) + "\n")

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
                                                       "wallclock",
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
    if args.experiment == "wallclock":
        return _run_wallclock(args)
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
