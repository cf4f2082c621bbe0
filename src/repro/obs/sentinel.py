"""The bench regression sentinel: read the history, gate the build.

Every bench leg appends one JSON line per run to a
``bench_results/*_history.jsonl`` file (``optbench_history.jsonl``,
``recovery_scaling_history.jsonl``, ``tpccbench_history.jsonl``).  The sentinel is the consumer
those files never had: for each history file it groups entries by their
identity fields (``leg``, ``records``, ... — everything that is not a
date, commit or tracked metric), compares the latest entry of each
group against the *median of its trailing window*, and fails when a
tracked metric moved the wrong way beyond its per-metric tolerance:

* deterministic integer counters (``redo_applied``, ``optimizer.*``,
  ``locks.*``) must not grow at all — any increase means simulated
  behaviour changed;
* ``result_cache_hits`` is the one tracked metric where more is better
  (:data:`HIGHER_IS_BETTER`): it must not *drop* at all, and may grow;
* virtual-clock metrics (``virtual_seconds``, ``recovery_seconds``,
  ``p95_execute_seconds``) get a hair of float slack — they are
  deterministic, so anything visible is a real drift.

Host wall time is not tracked here: ``benchmarks/e2e`` measures it on a
calibrated clock.

Metrics absent from older lines are skipped (history formats grow),
moves in the good direction never fail, and a group needs at least one
prior entry to be judged.  ``python -m repro.bench sentinel`` is the
CLI; CI runs it after the bench legs.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field

__all__ = ["HIGHER_IS_BETTER", "METRIC_TOLERANCES",
           "SentinelReport", "run_sentinel", "check_history_file"]

#: metric name -> allowed relative move of latest against the trailing
#: window median, in the metric's bad direction (up, unless the metric
#: is in :data:`HIGHER_IS_BETTER`).  0.0 means "must not move that way
#: at all".
METRIC_TOLERANCES: dict[str, float] = {
    "redo_applied": 0.0,
    "result_cache_hits": 0.0,
    # Optimizer counters: planning is deterministic, so each optbench
    # leg is judged against its own group's history.
    "optimizer.plans_costed": 0.0,
    "optimizer.join_orders_considered": 0.0,
    "optimizer.topn_heap_used": 0.0,
    "optimizer.sortmerge_chosen": 0.0,
    "optimizer.stats_missing_fallbacks": 0.0,
    # Lock-manager counters of the tpccbench lines.  Nothing writes
    # ``locks.escalations`` any more; it stays listed because a field
    # not named here counts as group identity, and the tpccbench lines
    # recorded before it was retired carry it.
    "locks.row_locks_acquired": 0.0,
    "locks.escalations": 0.0,
    "locks.deadlocks_detected": 0.0,
    "locks.lock_wait_seconds": 1e-9,
    "locks.txn_retries": 0.0,
    "locks.wait_episodes": 0.0,
    "locks.requeues": 0.0,
    "virtual_seconds": 1e-9,
    "recovery_seconds": 1e-6,
    "p95_execute_seconds": 1e-9,
}

#: Metrics that regress by dropping.
HIGHER_IS_BETTER = frozenset({"result_cache_hits"})

#: Entry fields that never identify a group (provenance, not identity).
_PROVENANCE_FIELDS = ("date", "commit")

#: How many trailing entries (before the latest) feed the median.
DEFAULT_WINDOW = 5

#: Absolute slack on the comparison so a float median (interpolated
#: between two integers) never fails an equal integer latest.
_ABS_EPS = 1e-12


@dataclass
class Finding:
    """One metric of one group that regressed beyond tolerance."""

    file: str
    group: str
    metric: str
    latest: float
    median: float
    limit: float

    def format(self) -> str:
        verb = ("falls below" if self.metric in HIGHER_IS_BETTER
                else "exceeds")
        return (f"{self.file} [{self.group}] {self.metric}: latest "
                f"{self.latest:g} {verb} {self.limit:g} (median "
                f"{self.median:g} over the trailing window, tolerance "
                f"{METRIC_TOLERANCES[self.metric]:g})")


@dataclass
class SentinelReport:
    findings: list[Finding] = field(default_factory=list)
    #: (file, group, metric, latest, median) tuples that were checked.
    checked: list[tuple] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def format(self) -> str:
        lines = [f"sentinel: {len(self.checked)} metric comparisons "
                 f"across {len({c[0] for c in self.checked})} history "
                 f"files"]
        lines.extend(f"  skipped: {reason}" for reason in self.skipped)
        for finding in self.findings:
            lines.append(f"REGRESSION: {finding.format()}")
        if self.ok:
            lines.append("sentinel: no regressions beyond tolerance")
        return "\n".join(lines)


def _median(values: list[float]) -> float:
    from repro.obs.metrics import percentile

    return percentile(sorted(values), 0.5)


def _group_key(entry: dict) -> str:
    parts = [f"{key}={entry[key]}" for key in sorted(entry)
             if key not in _PROVENANCE_FIELDS
             and key not in METRIC_TOLERANCES]
    return " ".join(parts) or "(default)"


def check_history_file(path, window: int = DEFAULT_WINDOW,
                       report: SentinelReport | None = None
                       ) -> SentinelReport:
    """Judge one history file's latest entry per group."""
    report = report if report is not None else SentinelReport()
    path = pathlib.Path(path)
    entries = []
    for line_no, line in enumerate(path.read_text().splitlines(),
                                   start=1):
        line = line.strip()
        if not line:
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError:
            report.skipped.append(f"{path.name}:{line_no}: not valid "
                                  f"JSON")
            continue
        if isinstance(entry, dict):
            entries.append(entry)
    groups: dict[str, list[dict]] = {}
    for entry in entries:
        groups.setdefault(_group_key(entry), []).append(entry)
    for group, history in sorted(groups.items()):
        if len(history) < 2:
            report.skipped.append(
                f"{path.name} [{group}]: only {len(history)} entry — "
                f"nothing to compare against")
            continue
        latest = history[-1]
        trailing = history[max(0, len(history) - 1 - window):-1]
        for metric, tolerance in METRIC_TOLERANCES.items():
            latest_value = latest.get(metric)
            if not isinstance(latest_value, (int, float)):
                continue
            window_values = [entry[metric] for entry in trailing
                             if isinstance(entry.get(metric),
                                           (int, float))]
            if not window_values:
                continue
            median = _median([float(value) for value in window_values])
            report.checked.append((path.name, group, metric,
                                   float(latest_value), median))
            if metric in HIGHER_IS_BETTER:
                limit = median * (1.0 - tolerance)
                regressed = float(latest_value) < limit - _ABS_EPS
            else:
                limit = median * (1.0 + tolerance)
                regressed = float(latest_value) > limit + _ABS_EPS
            if regressed:
                report.findings.append(Finding(
                    file=path.name, group=group, metric=metric,
                    latest=float(latest_value), median=median,
                    limit=limit))
    return report


def run_sentinel(results_dir="bench_results",
                 window: int = DEFAULT_WINDOW) -> SentinelReport:
    """Check every ``*_history.jsonl`` under ``results_dir``."""
    report = SentinelReport()
    directory = pathlib.Path(results_dir)
    if not directory.is_dir():
        report.skipped.append(f"{directory}: no such directory")
        return report
    histories = sorted(directory.glob("*_history.jsonl"))
    if not histories:
        report.skipped.append(f"{directory}: no *_history.jsonl files")
    for path in histories:
        check_history_file(path, window=window, report=report)
    return report
