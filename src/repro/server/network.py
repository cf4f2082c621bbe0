"""The simulated network between driver and server.

``SimulatedNetwork.call`` is the only way a driver reaches a server: it
charges the request's uplink (RTT half + transfer), dispatches to the
server, charges the response's downlink, and translates server death into
the errors a real driver would surface:

* server down before the request → :class:`ServerDownError` (connection
  refused — fast);
* server crashes *while processing* → :class:`ServerCrashedError` after a
  driver-timeout delay (the client was left "waiting for the server to
  respond to its fetch request", §3.4).

``call_overlapped`` is the pipelined variant used by fetch-ahead: the
uplink is charged as the client sends (the
client serializes its own sends), while server processing and the
response downlink run inside a :meth:`~repro.sim.meter.Meter.begin_overlap`
window — recorded as real resource usage, but not clocked.  The caller
receives the request's total deferred service time and charges only the
unoverlapped remainder (``max(0, completion - now)``) when it
synchronizes, which is how overlapping delivery with client compute is
modeled deterministically.

A held exchange: when the server answers an ``ExecuteRequest`` with a
:class:`~repro.server.server.HeldStatement` (the statement is queued
for a lock), ``call`` *returns* it — no downlink is charged, nothing
failed, and the exchange's ledger entry stays open.  The driver keeps it
and calls :meth:`SimulatedNetwork.collect` when the statement can run
again: the wait is booked under ``lock_wait`` (off the shared clock —
nobody's resource was busy), the server runs the statement from its
retained form, and the ordinary response and its downlink are charged
then.  No second request is ever sent for it.

Every exchange is mirrored into the world's metrics registry
(``net.requests_sent``, up/down wire bytes, per-request-kind counts) so
the ``sys_network`` view can report round-trip traffic; the plain
attributes (``requests_sent``, ``wire_bytes_up``, ...) remain for tests
that count requests without an engine in reach.

Two fault hooks let tests and experiments crash the server at exact
request boundaries: ``fault_injector`` runs before a request is
dispatched (a crash there loses the request), ``after_apply_injector``
after the server has applied it and before the response leaves (a crash
there loses only the acknowledgement — the failure the status table
exists for).  Either way the client waits out its driver timeout and
sees :class:`ServerCrashedError`.
"""

from __future__ import annotations

from repro.errors import ServerCrashedError, ServerDownError
from repro.server.server import HeldStatement
from repro.sim.costs import CLIENT_CPU, NETWORK
from repro.sim.meter import Meter


class SimulatedNetwork:
    """Connects drivers to a server with virtual-time costs."""

    def __init__(self, meter: Meter, request_timeout_seconds: float = 5.0):
        self._meter = meter
        self.request_timeout_seconds = request_timeout_seconds
        #: Optional callable(request) invoked before dispatch; it may call
        #: ``server.crash()`` to simulate a crash while the request is in
        #: flight (the driver then times out).
        self.fault_injector = None
        #: Optional callable(request) invoked once the server has applied
        #: a request, before its response is sent (for a held statement,
        #: once it has run: the callable then gets the ``HeldStatement``).
        #: If it crashes the server the response is lost with it.
        self.after_apply_injector = None
        self.requests_sent = 0
        self.wire_bytes_up = 0
        self.wire_bytes_down = 0
        #: Ledger entry of the most recent successful ``call_overlapped``
        #: (None when the latency ledger is off).  The driver takes it
        #: and rides it on the in-flight batch so the realized stall —
        #: or the crash discard — lands in the right entry.
        self.last_overlapped_entry = None

    def call(self, server, request):
        """One request/response exchange; returns the response object —
        or the :class:`HeldStatement` of a statement that has none yet
        (see :meth:`collect`)."""
        meter = self._meter
        entry = meter.latency_open(type(request).__name__)
        try:
            self._send(server, request)
            response = self._serve(server, request)
        except BaseException:
            meter.latency_close(entry)
            raise
        if type(response) is HeldStatement:
            return self._hold(response, entry)
        meter.latency_close(entry)
        return response

    def collect(self, server, held: HeldStatement):
        """The response of a held exchange, now that its statement can
        run again — or ``held`` once more if it met another lock.  A
        statement lost in a crash fails like any request in flight."""
        meter = self._meter
        entry = held.ledger_entry
        meter.latency_resume(entry)
        waited = meter.peek_now() - held.since
        if waited > 0:
            meter.latency_attribute(entry, "lock_wait", waited)
            meter.count("locks.lock_wait_seconds", waited)
        try:
            if held.lost:
                meter.charge(CLIENT_CPU, self.request_timeout_seconds,
                             "request timeout")
                raise ServerCrashedError("server crashed during request")
            response = self._respond(server, server.resume, held,
                                     "ExecuteRequest")
        except BaseException:
            meter.latency_close(entry)
            raise
        if type(response) is HeldStatement:
            return self._hold(response, entry)
        meter.latency_close(entry)
        return response

    def abandon(self, held: HeldStatement) -> None:
        """The client gave up on a held exchange (it cancelled the
        statement): close its books."""
        self._meter.latency_close(held.ledger_entry, wasted=True)

    def _hold(self, held: HeldStatement, entry) -> HeldStatement:
        """No response yet: the exchange's books stay open, on ``held``,
        until it is collected."""
        self._meter.latency_detach(entry)
        held.ledger_entry = entry
        return held

    def call_overlapped(self, server, request) -> tuple:
        """Pipelined exchange: ``(response, deferred service seconds)``.

        The uplink is charged to the clock now; the server's processing
        and the response downlink are recorded inside an overlap window
        and returned as seconds for the caller to realize at its next
        synchronization point.  A transport failure is realized
        synchronously (the clock advances by whatever the failed attempt
        recorded, exactly as a blocking call would have charged) and
        re-raised, so error behaviour is identical to :meth:`call`.

        In multi-stream worlds (``meter.advance_clock`` False) elapsed
        time belongs to the queueing simulator, so this degrades to a
        plain synchronous call with zero deferred service.
        """
        meter = self._meter
        if not meter.advance_clock:
            return self.call(server, request), 0.0
        entry = meter.latency_open(type(request).__name__)
        try:
            self._send(server, request)
            meter.begin_overlap()
            try:
                response = self._serve(server, request)
            except BaseException:
                # Failure is observed synchronously: realize the
                # recorded charges (timeout wait, ...) on the clock and
                # re-raise.  The raw advance bypasses ``charge``, so the
                # ledger books it explicitly — the client spent it
                # waiting on the failed exchange.
                seconds = meter.end_overlap()
                if seconds > 0:
                    meter.clock.advance(seconds)
                    meter.latency_attribute(entry, "server_queue", seconds)
                raise
        except BaseException:
            meter.latency_close(entry)
            raise
        service = meter.end_overlap()
        if type(response) is HeldStatement:
            # The statement waits for a lock: there is no service to
            # overlap with anything.  What ran so far is realized on the
            # clock, as for a failed exchange.
            if service > 0:
                meter.clock.advance(service)
                meter.latency_attribute(entry, "server_queue", service)
            return self._hold(response, entry), 0.0
        # Success: the entry stays open — its latency is not known until
        # the driver realizes the batch's stall (or discards it).
        meter.latency_detach(entry)
        self.last_overlapped_entry = entry
        return response, service

    # -- the two halves of an exchange --------------------------------------

    def _send(self, server, request) -> None:
        """Book the request and charge its uplink; raises if refused."""
        self.requests_sent += 1
        meter = self._meter
        costs = meter.costs
        kind = type(request).__name__
        up_bytes = request.wire_bytes()
        self.wire_bytes_up += up_bytes
        meter.count("net.requests_sent")
        meter.count(f"net.requests.{kind}")
        meter.count("net.wire_bytes_up", up_bytes)
        meter.count(f"net.bytes_up.{kind}", up_bytes)
        if self.fault_injector is not None:
            self.fault_injector(request)
        if not server.is_running:
            # Connection refused: one RTT to learn nobody is listening.
            meter.charge(NETWORK, costs.network_rtt_seconds, "refused")
            raise ServerDownError("server is not running")
        meter.charge(
            NETWORK,
            costs.network_rtt_seconds + self._transfer(up_bytes),
            "request")

    def _serve(self, server, request):
        """Dispatch to the server and charge the response downlink."""
        meter = self._meter
        if not server.is_running:
            # Crashed while the request was in flight: the client waits
            # out its driver timeout before the error surfaces.
            meter.charge(CLIENT_CPU, self.request_timeout_seconds,
                         "request timeout")
            raise ServerCrashedError("server crashed during request")
        return self._respond(server, server.handle, request,
                             type(request).__name__)

    def _respond(self, server, serve, subject, kind: str):
        """Let the server work and charge the response's downlink (a
        held statement has no response to charge yet)."""
        meter = self._meter
        try:
            response = serve(subject)
            if type(response) is HeldStatement:
                return response
            if self.after_apply_injector is not None:
                crashes = server.crashes
                self.after_apply_injector(subject)
                if server.crashes != crashes:
                    raise ServerCrashedError(
                        "server crashed before its response was sent")
        except ServerCrashedError:
            meter.charge(CLIENT_CPU, self.request_timeout_seconds,
                         "request timeout")
            raise
        down_bytes = response.wire_bytes()
        self.wire_bytes_down += down_bytes
        meter.count("net.wire_bytes_down", down_bytes)
        meter.count(f"net.bytes_down.{kind}", down_bytes)
        meter.charge(NETWORK, self._transfer(down_bytes), "response")
        return response

    def _transfer(self, num_bytes: int) -> float:
        costs = self._meter.costs
        packets = max(1, -(-num_bytes // costs.packet_bytes))
        return (packets * costs.network_message_overhead_seconds
                + num_bytes / costs.network_bytes_per_second)
