"""Observability: one instrument threaded through every layer.

The paper's contribution is *measuring* a persistent-session system;
this package is the measurement substrate the reproduction exposes.
Each :class:`~repro.sim.meter.Meter` (one per simulated world) holds
the instruments itself:

* ``meter.tracer`` — a :class:`~repro.obs.trace.Tracer` of parent/child
  spans stamped from the virtual clock (disabled unless ``REPRO_TRACE=1``
  or explicitly enabled; zero virtual cost either way);
* ``meter.latency`` — the request latency ledger
  (:mod:`repro.obs.latency`), ``None`` until ``REPRO_TRACE=1`` or
  ``Meter.enable_latency_ledger`` creates it;
* ``meter.recovery_log`` — per-phase virtual-time breakdowns of every
  recovery (``Meter.record_recovery``), feeding the
  ``sys_recovery_phases`` view and the Fig. 3/4 phase-breakdown
  artifacts;
* ``meter.counters`` — a plain dict: counters are the only metric kind.

Siblings: :mod:`repro.obs.views` (``sys_*`` queryable views),
:mod:`repro.obs.export` (the one record stream, and its JSONL file),
:mod:`repro.obs.validate` (the schema checker) and
:mod:`repro.obs.report` (the one rendering of a record stream,
``python -m repro.bench report``).
"""

from __future__ import annotations

import os

__all__ = ["RECOVERY_PHASES", "trace_enabled_from_env"]

#: Canonical order of the Phoenix recovery phases (§2.3, Figures 3/4).
RECOVERY_PHASES: tuple[str, ...] = (
    "failure_detection", "reconnect", "option_replay", "status_probe",
    "reposition")


def trace_enabled_from_env() -> bool:
    """``REPRO_TRACE=1`` (or any non-empty, non-zero value) turns
    tracing — and with it the latency ledger — on for every world built
    in the process."""
    return os.environ.get("REPRO_TRACE", "").strip() not in ("", "0")
