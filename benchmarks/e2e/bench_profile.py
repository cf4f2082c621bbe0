"""The configuration every workload of the benchmark runs under.

ROADMAP's "one path per job" item will turn the shipped features into
the only path and retire their knobs.  A later PR may not edit the
benchmark, so knobs are applied by name and only if the field still
exists; what was applied and what was skipped is printed with every run.
"""

from __future__ import annotations

from repro.phoenix.config import PhoenixConfig
from repro.sim.costs import CostModel

#: Every shipped feature on, synchronous commit (the durability check of
#: ``crash_recovery`` is meaningless under an asynchronous-commit window).
BENCH_PROFILE = {
    "fetch_ahead_depth": 2,
    "fetch_batch_max_bytes": 8192,
    "output_buffer_max_bytes": 262144,
    "persist_pipeline": True,
    "result_cache_entries": 2048,
    "lock_granularity": "row",
    "optimizer_mode": "cost",
    "checkpoint_interval_seconds": 2.0,
    "checkpoint_truncate_log": True,
    "redo_workers": 4,
    "async_commit_window_seconds": 0.0,
}

PHOENIX_PROFILE = {"reposition_mode": "server"}

#: The OLTP calibration of the paper's Table 4 (marginal per-statement
#: and per-DDL costs under a loaded server, year-2000 commit force).
TPCC_CALIBRATION = {
    "work_amplification": 6.0,
    "log_force_seconds": 0.035,
    "create_table_cpu_seconds": 0.0008,
    "create_table_disk_seconds": 0.0015,
    "cpu_create_procedure_seconds": 0.0008,
    "cpu_per_statement_seconds": 0.0003,
    "page_send_seconds": 0.001,
}


class ProfileReport:
    """Which knobs took effect and which no longer exist."""

    def __init__(self) -> None:
        self.effective: dict[str, object] = {}
        self.skipped: list[str] = []

    def apply(self, target, prefix: str, knobs: dict) -> None:
        for name, value in knobs.items():
            if hasattr(target, name):
                setattr(target, name, value)
                self.effective[f"{prefix}.{name}"] = value
            elif f"{prefix}.{name}" not in self.skipped:
                self.skipped.append(f"{prefix}.{name}")


def cost_model(report: ProfileReport, calibration: dict) -> CostModel:
    """``bench_profile`` on top of a workload's calibration constants."""
    costs = CostModel()
    report.apply(costs, "CostModel", calibration)
    report.apply(costs, "CostModel", BENCH_PROFILE)
    return costs


def phoenix_config(report: ProfileReport,
                   client_cache_rows: int) -> PhoenixConfig:
    config = PhoenixConfig()
    report.apply(config, "PhoenixConfig",
                 {**PHOENIX_PROFILE, "client_cache_rows": client_cache_rows})
    return config
