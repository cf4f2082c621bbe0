"""The bench regression sentinel: history files in, verdict out.

A doctored history line (a counter that grew, a virtual clock that
drifted) must fail the build (exit 1 through the CLI); the repository's
own tracked history must pass.
"""

import json

from repro.bench.__main__ import main as bench_main
from repro.obs.sentinel import (DEFAULT_WINDOW, METRIC_TOLERANCES,
                                check_history_file, run_sentinel)


def write_history(path, entries):
    path.write_text("".join(json.dumps(e) + "\n" for e in entries))


def base_entry(**overrides):
    entry = {"date": "2026-08-01", "commit": "abc1234", "leg": "base",
             "redo_applied": 25, "locks.wait_episodes": 205,
             "virtual_seconds": 28.38217573999367,
             "recovery_seconds": 0.00354,
             "p95_execute_seconds": 0.0020168}
    entry.update(overrides)
    return entry


def test_clean_history_passes(tmp_path):
    history = tmp_path / "bench_history.jsonl"
    write_history(history, [base_entry() for _ in range(4)])
    report = check_history_file(history)
    assert report.ok
    assert report.findings == []
    tracked_here = [m for m in METRIC_TOLERANCES if m in base_entry()]
    assert len(report.checked) == len(tracked_here) == 5
    assert "no regressions" in report.format()


def test_counter_growth_fails_exactly(tmp_path):
    """Deterministic counters have zero tolerance: +1 record fails."""
    history = tmp_path / "bench_history.jsonl"
    write_history(history, [base_entry(), base_entry(),
                            base_entry(redo_applied=26)])
    report = check_history_file(history)
    assert not report.ok
    (finding,) = report.findings
    assert finding.metric == "redo_applied"
    assert finding.latest == 26
    assert "REGRESSION" in report.format()


def test_virtual_clock_drift_fails(tmp_path):
    history = tmp_path / "bench_history.jsonl"
    write_history(history, [base_entry(), base_entry(),
                            base_entry(virtual_seconds=28.3821758)])
    report = check_history_file(history)
    assert [f.metric for f in report.findings] == ["virtual_seconds"]


def test_p95_regression_fails(tmp_path):
    history = tmp_path / "bench_history.jsonl"
    write_history(history, [base_entry(), base_entry(),
                            base_entry(p95_execute_seconds=0.003)])
    report = check_history_file(history)
    assert [f.metric for f in report.findings] == ["p95_execute_seconds"]


def test_decreases_never_fail(tmp_path):
    history = tmp_path / "bench_history.jsonl"
    write_history(history, [base_entry(), base_entry(),
                            base_entry(redo_applied=20,
                                       virtual_seconds=27.0,
                                       recovery_seconds=0.001)])
    assert check_history_file(history).ok


def test_result_cache_hits_must_not_drop(tmp_path):
    """More shared-cache hits is the good direction: a line that hits
    less fails, a line that hits more passes."""
    history = tmp_path / "bench_history.jsonl"
    cached = dict(leg="cached-shared", result_cache_hits=3022)
    write_history(history, [base_entry(**cached), base_entry(**cached),
                            base_entry(leg="cached-shared",
                                       result_cache_hits=3021)])
    report = check_history_file(history)
    (finding,) = report.findings
    assert finding.metric == "result_cache_hits"
    assert finding.latest == 3021 and finding.limit == 3022
    assert "falls below" in report.format()


def test_result_cache_hits_may_grow(tmp_path):
    history = tmp_path / "bench_history.jsonl"
    cached = dict(leg="cached-shared", result_cache_hits=3022)
    write_history(history, [base_entry(**cached), base_entry(**cached),
                            base_entry(leg="cached-shared",
                                       result_cache_hits=3028)])
    assert check_history_file(history).ok


def test_groups_compared_independently(tmp_path):
    """Legs are separate groups: a fuzzy-leg regression must not hide
    behind the base leg's median (and vice versa)."""
    history = tmp_path / "bench_history.jsonl"
    write_history(history, [
        base_entry(), base_entry(leg="fuzzy", redo_applied=25),
        base_entry(), base_entry(leg="fuzzy", redo_applied=25),
        base_entry(), base_entry(leg="fuzzy", redo_applied=40),
    ])
    report = check_history_file(history)
    (finding,) = report.findings
    assert "leg=fuzzy" in finding.group


def test_window_median_not_last_entry(tmp_path):
    """One historic outlier must not poison the baseline: the median of
    the trailing window judges, not the previous entry."""
    history = tmp_path / "bench_history.jsonl"
    write_history(history, [base_entry(), base_entry(),
                            base_entry(redo_applied=3),  # outlier
                            base_entry()])
    assert check_history_file(history, window=DEFAULT_WINDOW).ok


def test_missing_metrics_and_single_entries_skipped(tmp_path):
    history = tmp_path / "recovery_scaling_history.jsonl"
    # Old-format lines without the new virtual metrics + a brand-new
    # group with only one entry: nothing to judge, nothing to fail.
    write_history(history, [
        {"date": "2026-08-01", "commit": "a", "records": 500,
         "leg": "none", "recovery_seconds": 0.5},
        {"date": "2026-08-02", "commit": "b", "records": 500,
         "leg": "none", "recovery_seconds": 0.5},
        {"date": "2026-08-02", "commit": "b", "records": 900,
         "leg": "none", "recovery_seconds": 0.9},
    ])
    report = check_history_file(history)
    assert report.ok
    assert any("only 1 entry" in reason for reason in report.skipped)
    checked_metrics = {c[2] for c in report.checked}
    assert checked_metrics == {"recovery_seconds"}


def test_malformed_lines_skipped_not_fatal(tmp_path):
    history = tmp_path / "x_history.jsonl"
    history.write_text("not json\n"
                       + json.dumps(base_entry()) + "\n"
                       + json.dumps(base_entry()) + "\n")
    report = check_history_file(history)
    assert report.ok
    assert any("not valid JSON" in reason for reason in report.skipped)


def test_run_sentinel_scans_all_history_files(tmp_path):
    write_history(tmp_path / "bench_history.jsonl",
                  [base_entry(), base_entry()])
    write_history(tmp_path / "recovery_scaling_history.jsonl",
                  [{"leg": "none", "records": 500,
                    "recovery_seconds": 0.5, "redo_applied": 100},
                   {"leg": "none", "records": 500,
                    "recovery_seconds": 0.5, "redo_applied": 120}])
    report = run_sentinel(tmp_path)
    assert [f.metric for f in report.findings] == ["redo_applied"]
    assert len({c[0] for c in report.checked}) == 2


def test_run_sentinel_tolerates_missing_dir(tmp_path):
    report = run_sentinel(tmp_path / "nope")
    assert report.ok
    assert any("no such directory" in r for r in report.skipped)


def test_cli_exits_1_on_doctored_history_line(tmp_path, capsys):
    """The CI wiring contract: ``python -m repro.bench sentinel`` must
    fail the build when the latest history line regressed."""
    history = tmp_path / "bench_history.jsonl"
    write_history(history, [base_entry(), base_entry(),
                            base_entry(redo_applied=26)])
    assert bench_main(["sentinel", "--out", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "REGRESSION" in out and "redo_applied" in out

    write_history(history, [base_entry(), base_entry(), base_entry()])
    assert bench_main(["sentinel", "--out", str(tmp_path)]) == 0


def test_sentinel_passes_on_tracked_bench_results():
    """The repository's own recorded history must be regression-free."""
    report = run_sentinel("bench_results")
    assert report.ok, report.format()
