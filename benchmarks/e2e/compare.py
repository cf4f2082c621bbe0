"""``run.py compare A.json B.json``: parent A against change B.

One row per (end-to-end metric, workload) with both medians, both
quartile ranges, the regression bound from ``BENCHMARK.json`` and a
verdict (choosing-metrics guide, sections 6 to 8):

* ``worse``      the change's median is worse than the parent's by more
                 than the bound;
* ``unresolved`` the spread between repetitions is wider than the bound,
                 so the bound cannot be checked — unless every repetition
                 of one side beats every repetition of the other;
* ``better``     the change's median is better by more than the spread;
* ``unchanged``  anything else.

A host metric is also ``unresolved`` when the machine ran at different
speeds under the two runs (median ``calib_ms`` more than 5 % apart):
calibration corrects arithmetic speed, not memory contention, so such a
pair says more about the sandbox than about the code.

Exits 1 when any row is ``worse``.
"""

from __future__ import annotations

import json
from statistics import median, quantiles


def _quartiles(samples: list[float]) -> tuple[float, float]:
    if len(samples) < 2:
        return samples[0], samples[0]
    q1, _q2, q3 = quantiles(samples, n=4)
    return q1, q3


HOST_METRICS = ("setup_s", "host_ops_per_s")
CALIB_TOLERANCE = 0.05


def _rows(path: str) -> tuple[dict, dict]:
    """(workload, metric) -> samples of the untraced run, and
    workload -> median ``calib_ms``."""
    with open(path) as file:
        runs = json.load(file)["runs"]
    rows, calib = {}, {}
    for detail in runs.values():
        if detail["traced"]:
            continue
        calib[detail["workload"]] = median(detail["samples"]["calib_ms"])
        for name, metric in detail["result"]["metrics"].items():
            rows[detail["workload"], name] = \
                detail["samples"].get(name) or [metric["value"]]
    return rows, calib


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> tuple[str, float]:
    """Returns (verdict, relative change of the median; > 0 = worse)."""
    sign = 1.0 if better == "lower" else -1.0
    base = median(parent)
    worse_by = sign * (median(change) - base) / base
    spread = max(q3 - q1 for q1, q3 in
                 (_quartiles(parent), _quartiles(change))) / abs(base)
    apart_better = all(sign * (c - p) < 0 for c in change for p in parent)
    apart_worse = all(sign * (c - p) > 0 for c in change for p in parent)
    if spread > bound:
        if apart_better:
            return "better", worse_by
        if apart_worse and worse_by > bound:
            return "worse", worse_by
        return "unresolved", worse_by
    if worse_by > bound:
        return "worse", worse_by
    if worse_by < 0 and -worse_by > spread:
        return "better", worse_by
    return "unchanged", worse_by


def compare_main(argv: list[str], benchmark_json) -> int:
    if len(argv) != 2:
        print("usage: run.py compare PARENT.json CHANGE.json")
        return 2
    spec = {m["name"]: m for m in
            json.loads(benchmark_json.read_text())["end_to_end"]}
    (parent, parent_calib), (change, change_calib) = \
        _rows(argv[0]), _rows(argv[1])
    print(f"{'workload':16} {'metric':16} {'parent':>12} {'change':>12} "
          f"{'parent q1..q3':>25} {'change q1..q3':>25} {'bound':>6} "
          f"{'worse by':>8}  verdict")
    worse = 0
    for key in sorted(parent):
        workload, name = key
        if key not in change or name not in spec:
            continue
        result, worse_by = verdict(parent[key], change[key],
                                   spec[name]["better"],
                                   spec[name]["bound"])
        drift = change_calib[workload] / parent_calib[workload] - 1
        if name in HOST_METRICS and abs(drift) > CALIB_TOLERANCE \
                and result != "unchanged":
            result = f"unresolved (calib_ms {drift:+.0%})"
        worse += result == "worse"
        p1, p3 = _quartiles(parent[key])
        c1, c3 = _quartiles(change[key])
        print(f"{workload:16} {name:16} {median(parent[key]):12.5g} "
              f"{median(change[key]):12.5g} "
              f"{f'{p1:.5g}..{p3:.5g}':>25} {f'{c1:.5g}..{c3:.5g}':>25} "
              f"{spec[name]['bound']:6.1%} {worse_by:+8.2%}  {result}")
    return 1 if worse else 0
