"""Smoke test of the benchmark itself (not tier-1).

Run with ``pytest benchmarks/e2e -q`` from the repo root.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
VIRTUAL = ("virt_s", "virt_op_p50_ms", "virt_op_tail_ms")


def quick_run(tmp: Path, label: str, seed: int) -> tuple[dict, float]:
    out = tmp / f"{label}.json"
    start = time.monotonic()
    subprocess.run([sys.executable, str(HERE / "run.py"), "--quick",
                    "--seed", str(seed), "--out", str(out)],
                   check=True, capture_output=True, timeout=600)
    return json.loads(out.read_text())["runs"], time.monotonic() - start


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("e2e")
    first, seconds = quick_run(tmp, "first", seed=1)
    again, _ = quick_run(tmp, "again", seed=1)
    other, _ = quick_run(tmp, "other", seed=2)
    return {"first": first, "again": again, "other": other,
            "seconds": seconds}


def test_quick_run_is_quick_and_correct(runs):
    assert runs["seconds"] < 30
    assert sorted(runs["first"]) == sorted(
        f"{w}.trace{t}" for w in WORKLOADS for t in (0, 1))
    for detail in runs["first"].values():
        assert detail["result"]["correct"], detail["problems"]
        assert detail["result"]["failed"] == 0
        assert detail["profile_skipped"] == []


def test_a_repetition_runs_in_its_own_interpreter():
    """Full-size runs spawn every repetition like this; ``--quick`` runs
    them in-process, so this is the only smoke test of that path."""
    done = subprocess.run([sys.executable, str(HERE / "run.py"), "--rep",
                           "plain", "--workload", "oltp_phoenix", "--quick"],
                          check=True, capture_output=True, timeout=120)
    rep = json.loads(done.stdout.splitlines()[-1])
    assert rep["ops"] > 0 and rep["failed"] == 0


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"),
                                            (1, "per_layer")])
def test_emits_exactly_the_declared_metrics(runs, trace, section):
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    for workload in WORKLOADS:
        metrics = runs["first"][f"{workload}.trace{trace}"]["result"][
            "metrics"]
        assert {n: m["unit"] for n, m in metrics.items()} == declared


def test_same_seed_repeats_virtual_metrics_and_counts(runs):
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    for workload in WORKLOADS:
        for trace, names in ((0, VIRTUAL), (1, counts)):
            key = f"{workload}.trace{trace}"
            first = runs["first"][key]
            again = runs["again"][key]
            assert first["op_digest"] == again["op_digest"]
            for name in names:
                assert first["result"]["metrics"][name] == \
                    again["result"]["metrics"][name], (workload, name)


def test_another_seed_runs_other_ops(runs):
    for workload in WORKLOADS:
        key = f"{workload}.trace0"
        assert runs["first"][key]["op_digest"] != \
            runs["other"][key]["op_digest"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_trace_is_well_nested_and_self_times_add_up(runs, workload):
    lines = (HERE / "out" / f"{workload}.trace.jsonl").read_text()
    spans = [json.loads(line) for line in lines.splitlines()]
    assert spans
    tree_self_ns = {}
    for span in spans:
        leaves = span.get("leaves", {}).values()
        assert span["self_ns"] >= 0
        assert all(leaf["self_ns"] >= 0 for leaf in leaves)
        own = span["self_ns"] + sum(leaf["self_ns"] for leaf in leaves)
        root = span
        while root["parent"] >= 0:
            parent = spans[root["parent"]]
            assert parent["start_ns"] <= root["start_ns"]
            assert root["end_ns"] <= parent["end_ns"]
            root = parent
        tree_self_ns[root["id"]] = tree_self_ns.get(root["id"], 0) + own
    for root_id, self_ns in tree_self_ns.items():
        duration = spans[root_id]["end_ns"] - spans[root_id]["start_ns"]
        assert abs(self_ns - duration) <= 0.01 * duration
