"""Server-side open result sets with bounded output buffering.

A ``ServerResultSet`` wraps the engine's lazy row iterator.  The server
pulls rows into the output buffer until the buffer holds
``output_buffer_bytes`` worth of rows, then *suspends the scan* — exactly
the behaviour the paper's SQL Server Profiler session revealed ("once the
network buffer reaches capacity, the scan for data is suspended because
no space is available to add rows").  Each :class:`FetchRequest` drains
the buffer to the client and resumes the scan for the next batch.

Production costs (charged as rows are pulled):

* pipelined query results pay ``cpu_per_result_byte_seconds`` per row
  byte — the server is running the operator tree per row;
* *streamable* results (a bare ``SELECT * FROM table``, e.g. Phoenix
  reopening a materialized result table) pay only ``page_send_seconds``
  per page — the server forwards stored pages without re-evaluating a
  query, which is the paper's explanation for Phoenix's cheaper delivery.

The row *wire* cost is charged by the network layer on the response that
carries the batch, so nothing is double counted.
"""

from __future__ import annotations

from repro.sim.costs import SERVER_CPU
from repro.sim.meter import Meter
from repro.types import Column, RowShape


class ServerResultSet:
    """One open statement's row stream plus its output buffer."""

    def __init__(self, statement_id: int, columns: list[Column],
                 iterator, meter: Meter, streamable: bool = False):
        self.statement_id = statement_id
        self.columns = columns
        self._iterator = iterator
        self._meter = meter
        self.streamable = streamable
        self._buffer: list[tuple] = []
        self._buffer_bytes = 0
        self.done = False
        self.rows_produced = 0
        #: FetchRequests served against this result; drives the adaptive
        #: wire batch (each successive fetch proves the client drained
        #: everything shipped so far).
        self.fetches = 0
        #: Adaptive refill target: starts at the paper's fixed
        #: suspended-scan buffer and, when ``output_buffer_max_bytes``
        #: allows, doubles each time the consumer drains the buffer dry.
        self._fill_limit = meter.costs.output_buffer_bytes
        #: Declared row width — CHAR columns count at their declared
        #: length even though values are stored unpadded.
        self._row_width = max(1, sum(c.width_bytes for c in columns) or 1)
        self._rows_per_page = max(
            1, meter.costs.page_size_bytes // self._row_width)
        self._value_width = RowShape(columns).width

    # -- production ----------------------------------------------------------

    def fill_buffer(self) -> None:
        """Pull rows until the output buffer is full or the stream ends."""
        costs = self._meter.costs
        limit = self._fill_limit
        while not self.done and self._buffer_bytes < limit:
            try:
                row = next(self._iterator)
            except StopIteration:
                self.done = True
                return
            width = self._row_width
            if self.streamable:
                if self.rows_produced % self._rows_per_page == 0:
                    self._meter.charge(SERVER_CPU, costs.page_send_seconds,
                                       "page stream")
            else:
                self._meter.charge(
                    SERVER_CPU, width * costs.cpu_per_result_byte_seconds,
                    "result row")
            self._buffer.append(row)
            self._buffer_bytes += width
            self.rows_produced += 1

    # -- consumption ----------------------------------------------------------

    def take_batch(self, max_rows: int | None = None) -> list[tuple]:
        """Hand the buffered rows to the wire (they leave the buffer)."""
        if max_rows is None or max_rows >= len(self._buffer):
            batch = self._buffer
            self._buffer = []
            self._buffer_bytes = 0
            return batch
        batch = self._buffer[:max_rows]
        self._buffer = self._buffer[max_rows:]
        self._buffer_bytes = len(self._buffer) * self._row_width
        return batch

    def wire_bytes(self, batch: list[tuple]) -> int:
        """Width of ``batch`` on the wire — its actual values, not the
        declared row width the buffer is metered in."""
        return sum(map(self._value_width, batch))

    def skip_rows(self, count: int) -> int:
        """Advance past ``count`` rows server-side (no delivery costs
        beyond per-tuple scan work, which the iterator charges itself).

        This implements the §3.4 repositioning stored procedure.
        """
        skipped = 0
        while skipped < count:
            if self._buffer:
                take = min(count - skipped, len(self._buffer))
                del self._buffer[:take]
                skipped += take
                self._buffer_bytes = len(self._buffer) * self._row_width
                continue
            try:
                next(self._iterator)
            except StopIteration:
                self.done = True
                break
            self.rows_produced += 1
            skipped += 1
        return skipped

    def note_fetch(self) -> None:
        """Record one client :class:`FetchRequest` against this result.

        A fetch that finds the buffer already drained means the consumer
        is keeping up with the scan; when ``output_buffer_max_bytes``
        permits, the refill target doubles toward that cap so the
        suspended scan stalls less often.  Streamable Phoenix re-opens
        benefit most: their pages are forwarded without re-running a
        query, so a bigger buffer is almost pure win.
        """
        self.fetches += 1
        cap = self._meter.costs.output_buffer_max_bytes
        if cap > self._fill_limit and not self._buffer:
            self._fill_limit = min(cap, self._fill_limit * 2)

    def wire_batch_rows(self) -> int:
        """Rows the next wire batch should carry.

        With ``fetch_batch_max_bytes`` unset this is the fixed seed batch
        (= :attr:`client_batch_rows`).  With the cap set, the batch
        doubles on every successive fetch of this result — the client
        demonstrably drained everything shipped so far — up to the cap.
        """
        costs = self._meter.costs
        batch_bytes = costs.client_fetch_batch_bytes
        cap = costs.fetch_batch_max_bytes
        if cap > batch_bytes:
            batch_bytes = min(cap, batch_bytes << min(self.fetches, 24))
        return max(1, batch_bytes // self._row_width)

    @property
    def client_batch_rows(self) -> int:
        """How many rows one fixed-size wire batch carries to the client."""
        return max(1, self._meter.costs.client_fetch_batch_bytes
                   // self._row_width)

    @property
    def buffered_rows(self) -> int:
        return len(self._buffer)

    @property
    def exhausted(self) -> bool:
        return self.done and not self._buffer
