"""The meter: where components charge virtual time.

A single :class:`Meter` instance is threaded through one simulated "world"
(server + network + client).  Components call :meth:`Meter.charge` with a
resource name and a duration; the meter advances the world's virtual clock
and appends a :class:`Segment` to the trace of the request currently in
flight.

Two consumers read the traces:

* single-stream experiments just read ``clock.now`` (serial execution —
  total elapsed time is the sum of all segments), and
* multi-stream experiments (TPC-H throughput, TPC-C) replay per-request
  traces through :class:`~repro.sim.queueing.QueueingSimulator` so that
  contention on shared server resources is modeled by queueing.

The meter also keeps named counters (pages read, log bytes, ...) used by
the micro-overhead experiment and by tests.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.obs import RECOVERY_PHASES, trace_enabled_from_env
from repro.obs.latency import LatencyLedger
from repro.obs.trace import Tracer
from repro.sim.clock import VirtualClock
from repro.sim.costs import ALL_RESOURCES, CostModel

# Frozen copy for O(1) membership on the charge hot path (ALL_RESOURCES
# stays a tuple because callers rely on its canonical order).
_RESOURCE_SET = frozenset(ALL_RESOURCES)


def _reject(resource: str, seconds: float) -> None:
    """Raise what ``Meter.charge`` raises for an invalid charge."""
    if resource not in _RESOURCE_SET:
        raise ValueError(f"unknown resource {resource!r}")
    raise ValueError("cannot charge negative time")


class Segment(NamedTuple):
    """One contiguous use of one resource.

    A NamedTuple rather than a frozen dataclass: one Segment is built per
    ``charge`` call, which is the single hottest allocation site in the
    simulator.
    """

    resource: str
    seconds: float
    note: str = ""


@dataclass
class RequestTrace:
    """Ordered resource usage of one client-visible request."""

    label: str
    segments: list[Segment] = field(default_factory=list)

    @property
    def total_seconds(self) -> float:
        return sum(s.seconds for s in self.segments)

    def seconds_on(self, resource: str) -> float:
        return sum(s.seconds for s in self.segments if s.resource == resource)


class Meter:
    """Charges virtual time against resources and records request traces."""

    def __init__(self, cost_model: CostModel | None = None,
                 clock: VirtualClock | None = None):
        self.costs = cost_model if cost_model is not None else CostModel()
        self.clock = clock if clock is not None else VirtualClock()
        self.traces: list[RequestTrace] = []
        traced = trace_enabled_from_env()
        #: Parent/child spans of this world.  Their timestamps come from
        #: :meth:`peek_now` — a pure read — so tracing can never move the
        #: virtual clock.
        self.tracer = Tracer(self.peek_now, enabled=traced)
        #: The request latency ledger while it is on, else None: on with
        #: ``REPRO_TRACE``, or from :meth:`enable_latency_ledger`.  It
        #: never charges or flushes, so turning it on cannot move the
        #: clock; ``charge`` reads this one attribute to decide its cost.
        self.latency: LatencyLedger | None = (
            LatencyLedger() if traced else None)
        #: Most recent session recoveries, oldest first: dicts with
        #: ``recovery_id``, ``finished_at`` and ordered ``phases``
        #: (see :meth:`record_recovery`).
        self.recovery_log: deque[dict] = deque(maxlen=64)
        #: The world's named counters — its only metrics (``sys_metrics``
        #: and the trace exporter read them here).
        self.counters: dict[str, float] = {}
        self._open_requests: list[RequestTrace] = []
        #: Multi-stream mode when False: ``charge`` records segments but
        #: does not advance the clock, and every individual charge keeps
        #: its own segment — the queueing simulator replays the traces
        #: and segment boundaries decide how streams interleave.
        self.advance_clock: bool = True
        #: Running total of the open overlap window (None = no window);
        #: a state of its own, independent of multi-stream mode.
        self._window: float | None = None
        # Pending batched charge:
        # (resource, note, accumulated seconds, component hint).
        # The hint is captured when the batch *starts* (first-hint-wins on
        # merge) so flushing later still attributes the work to whatever
        # activity opened it — without ever changing flush boundaries.
        self._pending: tuple[str, str, float, str | None] | None = None
        #: Latency-ledger component hint (see :meth:`attribute_to`):
        #: overrides charge classification while set.  Pure annotation —
        #: it never affects charging, so it exists whether or not the
        #: ledger is enabled.
        self._component_hint: str | None = None
        self._recorders: list[list[Segment]] = []
        #: Executor diagnostics (batches per operator, fast-path counts).
        #: Kept out of ``counters`` so virtual-output equivalence checks
        #: comparing counters are not perturbed by host-side bookkeeping.
        self.executor_stats: dict[str, int] = {}
        #: Row-lock read probe: when the engine runs a predicate read
        #: inside a transaction it installs a callable ``probe(table,
        #: rid, row_or_None)`` here; executor scan nodes invoke it per
        #: produced row so reads take row S locks under the table IS
        #: lock.  None (outside a transaction) costs one attribute read
        #: per row path.
        self.lock_probe = None

    # -- charging -----------------------------------------------------------

    def charge(self, resource: str, seconds: float, note: str = "") -> None:
        """Charge ``seconds`` of use of ``resource`` to the current request."""
        if self._pending is not None:
            self._flush_pending()
        if resource not in _RESOURCE_SET:
            raise ValueError(f"unknown resource {resource!r}")
        if seconds <= 0:
            if seconds < 0:
                raise ValueError("cannot charge negative time")
            return
        window = self._window
        if window is not None:
            self._window = window + seconds
        elif self.advance_clock:
            self.clock.advance(seconds)
        # A window keeps the open request trace client-perspective, so
        # inside one a Segment exists only for a listening recorder.
        trace = (self._open_requests[-1]
                 if window is None and self._open_requests else None)
        recorders = self._recorders
        if trace is not None or recorders:
            segment = Segment(resource, seconds, note)
            if trace is not None:
                trace.segments.append(segment)
            for sink in recorders:
                sink.append(segment)
        latency = self.latency
        if latency is not None:
            entry = latency.current
            if entry is not None:
                if window is not None:
                    entry.hide(seconds)
                else:
                    entry.add(resource, seconds, note, self._component_hint)

    def charge_batched(self, resource: str, seconds: float,
                       note: str = "") -> None:
        """Accumulate a hot-path charge, flushed as one ``charge`` later.

        Batching changes only the *granularity* of segments, never the
        total, so it is safe only when the serial clock is authoritative.
        In multi-stream mode segment boundaries feed the queueing
        simulator, so every charge surfaces on its own; in an overlap
        window it does only while a recorder pushed inside or around the
        window observes the individual charges — otherwise the window is
        just its running total, a left fold over the charges, traced or
        not.
        """
        if resource not in _RESOURCE_SET or seconds < 0:
            _reject(resource, seconds)
        if self._window is not None:
            if seconds > 0 and not self._recorders:
                self._window += seconds
                latency = self.latency
                if latency is not None and latency.current is not None:
                    latency.current.hide(seconds)
            else:
                self.charge(resource, seconds, note)
            return
        if not self.advance_clock:
            self.charge(resource, seconds, note)
            return
        pending = self._pending
        if pending is not None:
            if pending[0] == resource and pending[1] == note:
                self._pending = (resource, note, pending[2] + seconds,
                                 pending[3])
                return
            self._flush_pending()
        self._pending = (resource, note, seconds, self._component_hint)

    def charge_rows(self, resource: str, per_row: float, n: int,
                    note: str = "") -> None:
        """Charge ``per_row`` seconds for each of ``n`` rows: one batched
        charge of the product (see :meth:`charge_batched`)."""
        if resource not in _RESOURCE_SET or per_row < 0:
            _reject(resource, per_row)
        if n > 0:
            self.charge_batched(resource, per_row * n, note)

    def _flush_pending(self) -> None:
        """Emit the accumulated batched charge as one real segment.

        The stored component hint is restored around the flush so a
        batch opened under :meth:`attribute_to` keeps its attribution
        even when the flush point falls outside the context.
        """
        if self._pending is None:
            return
        resource, note, seconds, hint = self._pending
        self._pending = None
        if hint is self._component_hint:
            self.charge(resource, seconds, note)
            return
        saved = self._component_hint
        self._component_hint = hint
        try:
            self.charge(resource, seconds, note)
        finally:
            self._component_hint = saved

    # -- segment recording ---------------------------------------------------

    def push_recorder(self) -> list[Segment]:
        """Start teeing every charged segment into a fresh list."""
        self._flush_pending()
        sink: list[Segment] = []
        self._recorders.append(sink)
        return sink

    def pop_recorder(self, sink: list[Segment]) -> list[Segment]:
        """Stop recording into ``sink`` (must be the innermost recorder)."""
        self._flush_pending()
        if not self._recorders or self._recorders[-1] is not sink:
            raise ValueError("recorders must be popped innermost-first")
        self._recorders.pop()
        return sink

    # -- overlap windows (pipelined result delivery) -------------------------

    def begin_overlap(self) -> None:
        """Open an overlap window: subsequent charges are *summed but
        not clocked*.

        Used for requests whose service overlaps client compute
        (fetch-ahead, the private connection's re-dial during
        recovery): every charge inside the
        window is real resource usage — it reaches the ledger's hidden
        column and any recorder — but the
        serial clock stays put and the open request trace stays
        client-perspective (the caller charges the *unoverlapped*
        remainder at its sync point).  The window itself is one running
        float, folded charge by charge from zero.  Windows do not nest;
        work that must not land in the caller's window steps out of it
        with :meth:`suspend_overlap`.
        """
        if self._window is not None:
            raise ValueError("overlap windows do not nest")
        self._flush_pending()
        self._window = 0.0

    def end_overlap(self) -> float:
        """Close the overlap window; returns the seconds charged inside
        it (the request's virtual service time)."""
        total = self._window
        if total is None:
            raise ValueError("no overlap window is open")
        self._window = None
        return total

    def suspend_overlap(self) -> float | None:
        """Step out of the open overlap window, if there is one; returns
        what :meth:`resume_overlap` needs to step back in.

        For work that is nobody's overlapped service although it runs
        while a client holds a window open — a server restart set off by
        a fault injector mid-exchange: it is clocked in full, reads real
        timestamps, and may open a window of its own.
        """
        saved = self._window
        self._window = None
        return saved

    def resume_overlap(self, saved: float | None) -> None:
        """Re-enter the window :meth:`suspend_overlap` stepped out of
        (nothing to do, not even a flush, when there was none)."""
        if saved is not None:
            self._flush_pending()
            self._window = saved

    def count(self, counter: str, amount: float = 1.0) -> None:
        """Increment a named counter."""
        self.counters[counter] = self.counters.get(counter, 0.0) + amount

    # -- latency ledger -------------------------------------------------------

    def enable_latency_ledger(self) -> LatencyLedger:
        """Turn the request latency ledger on for this world; returns
        it."""
        if self.latency is None:
            self.latency = LatencyLedger()
        return self.latency

    class _AttributionContext:
        __slots__ = ("_meter", "_component", "_saved")

        def __init__(self, meter: "Meter", component: str):
            self._meter = meter
            self._component = component
            self._saved: str | None = None

        def __enter__(self) -> None:
            self._saved = self._meter._component_hint
            self._meter._component_hint = self._component

        def __exit__(self, exc_type, exc, tb) -> None:
            self._meter._component_hint = self._saved

    def attribute_to(self, component: str) -> "Meter._AttributionContext":
        """Context manager: ledger entries attribute charges made inside
        to ``component`` instead of their (resource, note) default.

        Pure annotation — no charge, no flush — so it is always safe on
        the bit-identity contract and is a no-op while the ledger is
        disabled.  Used for work that borrows another activity's charge
        notes (a checkpoint piggybacked on a commit flushes ``page io``
        and forces ``log force`` exactly like ordinary execution).
        """
        return Meter._AttributionContext(self, component)

    def latency_open(self, kind: str):
        """Open a ledger entry for one protocol exchange (None when the
        ledger is disabled).  Flushes the pending batch first — the
        exchange's first charge would flush it anyway, so the flush
        point (and therefore the clock arithmetic) is unchanged."""
        latency = self.latency
        if latency is None:
            return None
        self._flush_pending()
        return latency.open(kind, start=self.peek_now(),
                            clocked=self.advance_clock)

    def latency_close(self, entry, wasted: bool = False) -> None:
        """Finalize a ledger entry (no-op on None / double close)."""
        latency = self.latency
        if latency is None or entry is None:
            return
        self._flush_pending()
        latency.close(entry, end=self.peek_now(), wasted=wasted)

    def latency_detach(self, entry) -> None:
        """Keep ``entry`` open but stop charging into it (the request
        went in flight; its stall is realized later)."""
        if self.latency is not None and entry is not None:
            self.latency.detach(entry)

    def latency_resume(self, entry) -> None:
        """Make a detached entry current again so its realized stall
        lands in it."""
        if self.latency is not None and entry is not None:
            self.latency.resume(entry)

    def latency_attribute(self, entry, component: str,
                          seconds: float) -> None:
        """Record clock time that bypassed :meth:`charge` (a failed
        overlapped exchange realizes its recorded seconds via a raw
        clock advance) into ``entry`` under ``component``."""
        if self.latency is not None and entry is not None \
                and seconds > 0:
            entry.add_attributed(component, seconds)

    # -- recovery log ---------------------------------------------------------

    def record_recovery(self, phase_seconds: dict[str, float],
                        finished_at: float) -> dict:
        """Log one completed recovery's phase breakdown.

        Always recorded (recoveries are rare; the log is how
        ``sys_recovery_phases`` answers even with tracing off).  The
        canonical :data:`~repro.obs.RECOVERY_PHASES` come first in their
        order, other phases (a restart's ``wal_*`` passes) after them by
        name.  A phase that had nothing to do arrives as 0.0 and keeps
        its row, so readers can look every canonical phase up by name.
        """
        log = self.recovery_log
        ordered = [(phase, phase_seconds[phase])
                   for phase in RECOVERY_PHASES if phase in phase_seconds]
        ordered += sorted((name, seconds)
                          for name, seconds in phase_seconds.items()
                          if name not in RECOVERY_PHASES)
        record = {"recovery_id": log[-1]["recovery_id"] + 1 if log else 1,
                  "finished_at": finished_at, "phases": ordered}
        log.append(record)
        return record

    # -- request bracketing ---------------------------------------------------

    def begin_request(self, label: str) -> RequestTrace:
        """Open a request trace; nested requests attach to the innermost."""
        self._flush_pending()
        trace = RequestTrace(label=label)
        self._open_requests.append(trace)
        return trace

    def end_request(self, trace: RequestTrace) -> RequestTrace:
        """Close ``trace`` and append it to the recorded traces."""
        self._flush_pending()
        if not self._open_requests or self._open_requests[-1] is not trace:
            raise ValueError("request traces must be closed innermost-first")
        self._open_requests.pop()
        if self._open_requests:
            # Nested request: fold its segments into the enclosing trace so
            # the client-visible request carries the full cost.  Only
            # top-level traces are recorded, so nothing is double counted.
            self._open_requests[-1].segments.extend(trace.segments)
        else:
            self.traces.append(trace)
        return trace

    class _RequestContext:
        def __init__(self, meter: "Meter", label: str):
            self._meter = meter
            self._label = label
            self.trace: RequestTrace | None = None

        def __enter__(self) -> RequestTrace:
            self.trace = self._meter.begin_request(self._label)
            return self.trace

        def __exit__(self, exc_type, exc, tb) -> None:
            assert self.trace is not None
            self._meter.end_request(self.trace)

    def request(self, label: str) -> "Meter._RequestContext":
        """Context manager bracketing one client-visible request."""
        return Meter._RequestContext(self, label)

    # -- reading -----------------------------------------------------------

    @property
    def now(self) -> float:
        self._flush_pending()
        return self.clock.now

    def peek_now(self) -> float:
        """Current virtual time *without* flushing the pending batched
        charge — a pure read.  Instrumentation (span timestamps,
        recovery-phase bookkeeping) uses this so observation never
        perturbs segment granularity, let alone the clock itself."""
        pending = self._pending
        if pending is not None:
            return self.clock.now + pending[2]
        return self.clock.now

    def reset_traces(self) -> None:
        """Drop recorded traces and counters (clock keeps its value)."""
        self._flush_pending()
        self.traces.clear()
        self.counters.clear()

    def seconds_on(self, resource: str) -> float:
        """Total recorded seconds on ``resource`` across all closed traces."""
        self._flush_pending()
        return sum(t.seconds_on(resource) for t in self.traces)
