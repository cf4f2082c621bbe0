"""Latency report: the tracked mix (default configuration) with the
request ledger on — per-kind SLO percentiles and the per-component
attribution of every virtual second."""

from repro.bench.experiments import run_tracked_mix


def test_latency_report(benchmark, report):
    result = benchmark.pedantic(run_tracked_mix, rounds=1, iterations=1)
    report("latency_report", result.format())

    ledger = result.latency
    assert ledger is not None and ledger.closed > 0, "no requests recorded"
    # The accounting identity: every request's components sum bit-exactly
    # to its measured latency.
    assert not ledger.identity_violations, ledger.identity_violations[:10]
