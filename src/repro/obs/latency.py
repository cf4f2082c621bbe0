"""The request latency ledger: where did each request's seconds go?

Every protocol exchange (one :class:`~repro.server.protocol.Request`
sent through :class:`~repro.server.network.SimulatedNetwork`) gets a
:class:`LedgerEntry` that attributes its end-to-end virtual latency to
named components — uplink, parse/plan, engine execution, WAL force,
checkpoint work piggybacked on the request, queueing, prefetch stall —
plus the overlap-hidden time of pipelined requests (service that ran
while the client computed and therefore never reached the clock).

The accounting identity
-----------------------

The ledger's contract is exact: for every entry, the per-component sums
equal the entry's total *bit-for-bit*.  Floats are dyadic rationals, so
each charged ``seconds`` converts losslessly to a
:class:`fractions.Fraction`; accumulating Fractions is exact and
associative, which makes ``sum(components) == total`` a hard equality
rather than a tolerance check.  A second, clock-side check guards
against bypass: for synchronous clocked entries the virtual clock must
move by the attributed total (within float-fold rounding).  Violations
of either are recorded in :attr:`LatencyLedger.identity_violations` —
tests assert the list stays empty across the tracked mix and the crash
fuzzers.

A world has no ledger until ``REPRO_TRACE=1`` or
:meth:`~repro.sim.meter.Meter.enable_latency_ledger` creates one, and
the ledger never charges or flushes on its own, so turning it on cannot
move the virtual clock: traced and untraced runs stay bit-identical.

:meth:`LatencyLedger.records` is what the ledger shows the world: one
``latency`` record per request kind, read alike by the ``sys_latency``
view and the record stream (:func:`repro.obs.export.trace_records`).
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction

from repro.resources import CLIENT_CPU, NETWORK, SERVER_CPU, SERVER_DISK

__all__ = ["COMPONENTS", "LatencyLedger", "LedgerEntry", "classify",
           "percentile"]

#: Canonical component order (reports and views render in this order).
COMPONENTS: tuple[str, ...] = (
    "client_cpu", "net_uplink", "net_downlink", "server_queue",
    "parse_plan", "engine_execute", "wal_force", "checkpoint",
    "prefetch_stall", "lock_wait", "cache", "other")

_ZERO = Fraction(0)


def percentile(sorted_values, q: float) -> float:
    """Deterministic linear-interpolation percentile (inclusive method).

    ``sorted_values`` must be sorted ascending.  This is numpy's default
    ``linear`` method: rank ``q * (n - 1)`` with interpolation between
    the straddling samples — unlike nearest-rank-by-``round()``, p95 of
    a small sample does not collapse to the max.  The ledger and the
    report's span statistics quote this one definition.
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

#: NETWORK charge notes with a fixed component.
_NETWORK_NOTES = {
    "request": "net_uplink",
    "refused": "net_uplink",
    "response": "net_downlink",
    "prefetch stall": "prefetch_stall",
    "pipeline stall": "server_queue",
    "connect stall": "server_queue",
}

#: SERVER_CPU notes that are planning/compilation rather than execution.
_PARSE_PLAN_NOTES = frozenset(
    {"statement parse/plan", "proc statement", "subquery eval"})

#: CLIENT_CPU notes that are result-cache work (client-side delivery
#: from the §4 cache or the shared result cache, and its probes).
_CACHE_NOTES = frozenset(
    {"cache fetch", "cache scroll", "cache block fetch",
     "result cache probe"})


def classify(resource: str, note: str, hint: str | None = None) -> str:
    """Map one charge to its latency component.

    ``hint`` wins when set — it is how work that is mechanically
    indistinguishable by (resource, note) gets attributed to the
    activity that caused it (checkpoints piggybacked on a commit charge
    the same ``page io``/``log force`` notes ordinary execution does).
    """
    if hint is not None:
        return hint
    if resource == NETWORK:
        return _NETWORK_NOTES.get(note, "other")
    if resource == SERVER_CPU:
        if note == "lock wait":
            # Row-granularity waiter stall, charged by the concurrent
            # scheduler inside an overlap window.  Never emitted on a
            # serial mix, so the tracked baseline stays untouched.
            return "lock_wait"
        return ("parse_plan" if note in _PARSE_PLAN_NOTES
                else "engine_execute")
    if resource == SERVER_DISK:
        return "wal_force" if note == "log force" else "engine_execute"
    if resource == CLIENT_CPU:
        if note in _CACHE_NOTES:
            return "cache"
        # The only other client CPU booked *inside* an exchange is the
        # driver timeout spent waiting on a dead server — queueing, not
        # compute.
        return "server_queue" if note == "request timeout" else "client_cpu"
    return "other"


class LedgerEntry:
    """Exact per-component attribution of one protocol request."""

    __slots__ = ("kind", "start", "end", "clocked", "overlapped",
                 "wasted", "closed", "total", "components", "hidden")

    def __init__(self, kind: str, start: float, clocked: bool):
        self.kind = kind
        self.start = start
        self.end = start
        #: Whether the serial clock was authoritative at open (False in
        #: multi-stream worlds, where elapsed time belongs to the
        #: queueing simulator and the clock-consistency check is moot).
        self.clocked = clocked
        #: Entries detached for pipelined delivery stay open across
        #: unrelated client work, so start..end is not their latency.
        self.overlapped = False
        #: Closed without its response ever being delivered (prefetched
        #: batch discarded after a crash, abandoned pipeline booking).
        self.wasted = False
        self.closed = False
        #: Exact total of every clocked charge recorded into this entry.
        self.total = _ZERO
        self.components: dict[str, Fraction] = {}
        #: Service recorded inside overlap windows: real resource usage
        #: that never reached the clock (it ran under client compute).
        #: Kept out of ``total`` — the identity covers clocked time.
        self.hidden = _ZERO

    def add(self, resource: str, seconds: float, note: str,
            hint: str | None) -> None:
        """Record one clocked charge (called from ``Meter.charge``)."""
        fraction = Fraction(seconds)
        component = classify(resource, note, hint)
        self.total += fraction
        self.components[component] = (
            self.components.get(component, _ZERO) + fraction)

    def hide(self, seconds: float) -> None:
        """Record a charge of ``seconds`` made inside an overlap
        window."""
        self.hidden += Fraction(seconds)

    def add_attributed(self, component: str, seconds: float) -> None:
        """Record clock time that bypassed ``charge`` (the realized
        cost of a failed overlapped exchange) under ``component``."""
        fraction = Fraction(seconds)
        self.total += fraction
        self.components[component] = (
            self.components.get(component, _ZERO) + fraction)

    def identity_holds(self) -> bool:
        """Exact: per-component sums equal the recorded total."""
        return sum(self.components.values(), _ZERO) == self.total


class _KindStats:
    """Aggregated ledger state of one request kind."""

    __slots__ = ("count", "wasted", "samples", "total", "hidden",
                 "components", "max")

    def __init__(self):
        self.count = 0
        self.wasted = 0
        #: Retained per-request latencies (exact percentiles come from
        #: these; a cap keeps soak runs bounded — beyond it the counts
        #: keep growing but new samples are dropped).
        self.samples: list[float] = []
        self.total = _ZERO
        self.hidden = _ZERO
        self.components: dict[str, Fraction] = {}
        self.max = 0.0


class LatencyLedger:
    """Per-request latency entries + per-kind rollups for one world.

    Lifecycle: the network :meth:`open`\\ s an entry per exchange and
    closes it when the response (or error) surfaces.  Pipelined
    exchanges are :meth:`detach`\\ ed instead — the entry stays open,
    rides on the in-flight batch, and is :meth:`resume`\\ d when the
    driver realizes the batch's stall (or closed ``wasted`` when a
    crash discards it).  Charges always land in the innermost open
    entry; with no entry open they only move the clock, as before.
    """

    def __init__(self, entry_capacity: int = 8192,
                 sample_capacity: int = 100_000):
        self.entry_capacity = entry_capacity
        self.sample_capacity = sample_capacity
        #: Innermost open entry — the meter reads this on every charge.
        self.current: LedgerEntry | None = None
        self._stack: list[LedgerEntry] = []
        #: Most recent finalized entries, oldest first.
        self.entries: deque[LedgerEntry] = deque(maxlen=entry_capacity)
        self.kinds: dict[str, _KindStats] = {}
        #: Accounting-identity violations (strings); the hard contract
        #: is that this stays empty — tests assert it.
        self.identity_violations: list[str] = []
        self.opened = 0
        self.closed = 0

    # -- entry lifecycle ----------------------------------------------------

    def open(self, kind: str, start: float, clocked: bool) -> LedgerEntry:
        entry = LedgerEntry(kind, start, clocked)
        self._stack.append(entry)
        self.current = entry
        self.opened += 1
        return entry

    def detach(self, entry: LedgerEntry) -> None:
        """Remove ``entry`` from the open stack without closing it."""
        entry.overlapped = True
        if entry in self._stack:
            self._stack.remove(entry)
        self.current = self._stack[-1] if self._stack else None

    def resume(self, entry: LedgerEntry) -> None:
        """Make a detached entry current again (stall realization)."""
        self._stack.append(entry)
        self.current = entry

    def close(self, entry: LedgerEntry, end: float,
              wasted: bool = False) -> None:
        if entry.closed:
            return
        entry.closed = True
        entry.end = end
        entry.wasted = wasted
        if entry in self._stack:
            self._stack.remove(entry)
        self.current = self._stack[-1] if self._stack else None
        self.closed += 1
        self._check_identity(entry)
        self._finalize(entry)

    # -- identity -----------------------------------------------------------

    def _check_identity(self, entry: LedgerEntry) -> None:
        if not entry.identity_holds():
            self.identity_violations.append(
                f"{entry.kind}: components sum to "
                f"{float(sum(entry.components.values(), _ZERO))!r}, "
                f"total is {float(entry.total)!r}")
        if entry.clocked and not entry.overlapped:
            # Synchronous entry: the clock must have moved by exactly
            # the attributed total.  start/end are float clock reads, so
            # allow float-fold rounding — anything larger means a charge
            # (or a raw clock advance) bypassed the ledger.
            span = entry.end - entry.start
            drift = abs(span - float(entry.total))
            if drift > 1e-9 + 1e-9 * abs(span):
                self.identity_violations.append(
                    f"{entry.kind}: clock moved {span!r} but ledger "
                    f"attributed {float(entry.total)!r}")

    def _finalize(self, entry: LedgerEntry) -> None:
        stats = self.kinds.get(entry.kind)
        if stats is None:
            stats = _KindStats()
            self.kinds[entry.kind] = stats
        stats.count += 1
        if entry.wasted:
            stats.wasted += 1
        stats.total += entry.total
        stats.hidden += entry.hidden
        for component, fraction in entry.components.items():
            stats.components[component] = (
                stats.components.get(component, _ZERO) + fraction)
        latency = float(entry.total)
        if latency > stats.max:
            stats.max = latency
        if len(stats.samples) < self.sample_capacity:
            stats.samples.append(latency)
        self.entries.append(entry)

    # -- reading ------------------------------------------------------------

    def kind_percentiles(self, kind: str) -> tuple[float, float, float]:
        """(p50, p95, p99) of the retained samples of ``kind``."""
        stats = self.kinds.get(kind)
        if stats is None or not stats.samples:
            return (0.0, 0.0, 0.0)
        ordered = sorted(stats.samples)
        return (percentile(ordered, 0.50), percentile(ordered, 0.95),
                percentile(ordered, 0.99))

    def component_totals(self) -> dict[str, float]:
        """Aggregate per-component seconds across every request kind."""
        totals: dict[str, Fraction] = {}
        for stats in self.kinds.values():
            for component, fraction in stats.components.items():
                totals[component] = totals.get(component, _ZERO) + fraction
        return {component: float(totals[component])
                for component in totals}

    def records(self) -> list[dict]:
        """One ``latency`` record per request kind, sorted by kind: its
        count, wasted count, p50/p95/p99/max, total and overlap-hidden
        seconds, and per-component seconds."""
        records = []
        for kind in sorted(self.kinds):
            stats = self.kinds[kind]
            p50, p95, p99 = self.kind_percentiles(kind)
            records.append({
                "type": "latency", "kind": kind, "count": stats.count,
                "wasted": stats.wasted, "p50": p50, "p95": p95,
                "p99": p99, "max": stats.max, "total": float(stats.total),
                "hidden": float(stats.hidden),
                "components": {component: float(fraction)
                               for component, fraction
                               in sorted(stats.components.items())},
            })
        return records
