"""Observability: tracing and recovery timings threaded through every layer.

The paper's contribution is *measuring* a persistent-session system;
this package is the measurement substrate the reproduction exposes.
One :class:`Observability` instance rides on each
:class:`~repro.sim.meter.Meter` (one per simulated world) and bundles:

* a :class:`~repro.obs.trace.Tracer` — parent/child spans stamped from
  the virtual clock (disabled unless ``REPRO_TRACE=1`` or explicitly
  enabled; zero virtual cost either way);
* the request latency ledger (:mod:`repro.obs.latency`);
* the recovery log — per-phase virtual-time breakdowns of every Phoenix
  session recovery, feeding the ``sys_recovery_phases`` view and the
  Fig. 3/4 phase-breakdown artifacts.

The world's counters are ``Meter.counters``, a plain dict: counters are
the only metric kind.

Siblings: :mod:`repro.obs.views` (``sys_*`` queryable views),
:mod:`repro.obs.export` (JSONL trace exporter),
:mod:`repro.obs.validate` (trace schema checker, also a CLI), and
:mod:`repro.obs.report` (the ``trace-report`` rendering).
"""

from __future__ import annotations

import os
from collections import deque

from repro.obs.latency import LatencyLedger
from repro.obs.metrics import DEFAULT_BUCKETS, Histogram
from repro.obs.trace import NOOP_SPAN, Span, Tracer

__all__ = ["Observability", "Tracer", "Span", "Histogram",
           "DEFAULT_BUCKETS", "NOOP_SPAN", "LatencyLedger",
           "RECOVERY_PHASES", "trace_enabled_from_env"]

#: Canonical order of the Phoenix recovery phases (§2.3, Figures 3/4).
RECOVERY_PHASES: tuple[str, ...] = (
    "failure_detection", "reconnect", "option_replay", "status_probe",
    "reposition")


def trace_enabled_from_env() -> bool:
    """``REPRO_TRACE=1`` (or any non-empty, non-zero value) turns
    tracing on for every world built in the process."""
    return os.environ.get("REPRO_TRACE", "").strip() not in ("", "0")


class Observability:
    """Tracer + latency ledger + recovery log for one simulated world."""

    def __init__(self, now_fn, enabled: bool | None = None,
                 max_spans: int = 20000):
        if enabled is None:
            enabled = trace_enabled_from_env()
        self.tracer = Tracer(now_fn, enabled=enabled, max_spans=max_spans)
        #: Per-request latency attribution (see :mod:`repro.obs.latency`).
        #: On whenever tracing is on, or standalone via
        #: :meth:`~repro.sim.meter.Meter.enable_latency_ledger`; it never
        #: charges or flushes, so enabling it cannot move the clock.
        self.latency = LatencyLedger(enabled=enabled)
        #: Most recent session recoveries, oldest first: dicts with
        #: ``recovery_id``, ``finished_at`` and ordered ``phases``.
        self.recovery_log: deque[dict] = deque(maxlen=64)
        self._recovery_seq = 0

    @property
    def enabled(self) -> bool:
        return self.tracer.enabled

    def record_recovery(self, phase_seconds: dict[str, float],
                        finished_at: float) -> dict:
        """Log one completed session recovery's phase breakdown.

        Always recorded (recoveries are rare; the log is how
        ``sys_recovery_phases`` answers even with tracing off).  A phase
        that had nothing to do arrives as 0.0 and keeps its row, so
        readers can look every canonical phase up by name.
        """
        self._recovery_seq += 1
        ordered = [(phase, phase_seconds[phase])
                   for phase in RECOVERY_PHASES if phase in phase_seconds]
        ordered += sorted((name, seconds)
                          for name, seconds in phase_seconds.items()
                          if name not in RECOVERY_PHASES)
        record = {"recovery_id": self._recovery_seq,
                  "finished_at": finished_at, "phases": ordered}
        self.recovery_log.append(record)
        return record
