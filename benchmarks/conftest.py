"""Shared helpers for the benchmark harness.

Each benchmark runs one experiment from :mod:`repro.bench.experiments`
(one table or figure of the paper, or one feature bench), prints the
paper-style table, writes it under ``bench_results/`` and asserts the
experiment's gates.  Nothing else writes that directory: CI empties it,
runs these files and fails unless the tree comes out as committed.
"""

from __future__ import annotations

import json
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "bench_results"


@pytest.fixture
def report():
    """Print an experiment's table and persist it to bench_results/."""

    def _report(name: str, text: str) -> None:
        print()
        print(text)
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")

    return _report


@pytest.fixture
def record_recovery_phases():
    """Merge one figure's per-phase breakdowns into
    ``bench_results/recovery_phases.json`` (fig3 writes the ``client``
    key, fig4 the ``server`` key; reruns overwrite only their own key).
    """

    def _record(mode: str, breakdowns: list[dict]) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / "recovery_phases.json"
        merged: dict = {}
        if path.exists():
            try:
                merged = json.loads(path.read_text())
            except ValueError:
                merged = {}
        merged[mode] = breakdowns
        path.write_text(json.dumps(merged, indent=2, sort_keys=True)
                        + "\n")

    return _record
