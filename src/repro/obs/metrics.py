"""Percentiles and fixed-bucket histograms for the offline reports.

The world's metrics are its counters (``Meter.counters``); nothing here
is recorded while a world runs.  The request latency ledger and
``trace-report`` share :func:`percentile`, and ``trace-report`` renders
per-layer span durations as :class:`Histogram` shapes.

Histograms use fixed bucket boundaries (seconds by default, spanning
0.1 ms to 30 s in a 1-3-10 ladder) so two runs of the same workload
produce comparable shapes without any adaptive state.
"""

from __future__ import annotations

#: Default histogram ladder (seconds): 1-3-10 steps from 0.1 ms to 30 s.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.0001, 0.0003, 0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0,
    30.0)


def percentile(sorted_values, q: float) -> float:
    """Deterministic linear-interpolation percentile (inclusive method).

    ``sorted_values`` must be sorted ascending.  This is numpy's default
    ``linear`` method: rank ``q * (n - 1)`` with interpolation between
    the straddling samples — unlike nearest-rank-by-``round()``, p95 of
    a small sample no longer collapses to the max.  Shared by the trace
    report and the request latency ledger so both quote the same
    definition.
    """
    if not sorted_values:
        return 0.0
    if q <= 0.0:
        return float(sorted_values[0])
    if q >= 1.0:
        return float(sorted_values[-1])
    position = q * (len(sorted_values) - 1)
    lower_index = int(position)
    fraction = position - lower_index
    lower = float(sorted_values[lower_index])
    if fraction == 0.0:
        return lower
    return lower + (float(sorted_values[lower_index + 1]) - lower) * fraction


class Histogram:
    """Fixed-bucket histogram of observed values."""

    __slots__ = ("name", "bounds", "bucket_counts", "count", "total",
                 "min", "max")

    def __init__(self, name: str,
                 bounds: tuple[float, ...] = DEFAULT_BUCKETS):
        self.name = name
        self.bounds = bounds
        #: counts[i] counts values <= bounds[i]; the final slot is +Inf.
        self.bucket_counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[i] += 1
                return
        self.bucket_counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def bucket_rows(self) -> list[tuple[str, int]]:
        """(upper-bound label, count) pairs, +Inf last."""
        rows = [(_bound_label(b), n)
                for b, n in zip(self.bounds, self.bucket_counts)]
        rows.append(("+Inf", self.bucket_counts[-1]))
        return rows


def _bound_label(bound: float) -> str:
    return f"{bound:g}"
