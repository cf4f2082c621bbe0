"""The native ODBC driver: protocol operations over the simulated wire.

This is the "vendor supplied ODBC driver" of the paper.  It is a thin
client: it translates driver-manager calls into protocol requests, keeps
the client-side row buffer of each open result, and *raises* transport
errors (:class:`ServerDownError`, :class:`ServerCrashedError`,
:class:`ConnectionLostError`) — it makes no attempt to recover.  Masking
those errors is Phoenix's job, one layer up.

Pipelined result delivery (``CostModel.fetch_ahead_depth`` > 0): after a
wire batch lands in the client buffer, the driver speculatively issues
the next :class:`FetchRequest` via ``SimulatedNetwork.call_overlapped``.
The overlap is modeled deterministically — the in-flight request's
virtual completion time is recorded at issue (``start + service``, where
``start`` queues behind anything already in flight on the modeled FIFO
server), and consuming the batch charges only ``max(0, completion -
now)``; no wall-clock, no randomness.  A synchronous request issued
while the pipeline is busy first waits it out (:meth:`_sync_pipeline`).
Prefetched rows are *not delivered*: ``ResultState.position`` never
counts them, so crash recovery repositions to the last row the
application actually saw and in-flight batches are simply discarded
(counted as ``prefetch_wasted``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import islice

from repro.errors import OdbcError, StillExecuting
from repro.server.network import SimulatedNetwork
from repro.server.protocol import (
    AdvanceRequest,
    CloseStatementRequest,
    ConnectRequest,
    DisconnectRequest,
    ExecuteRequest,
    FetchRequest,
    PingRequest,
    SetOptionRequest,
    VersionProbeRequest,
)
from repro.server.server import DatabaseServer, HeldStatement
from repro.sim.costs import CLIENT_CPU, NETWORK
from repro.sim.meter import Meter
from repro.odbc.constants import (
    SQL_ATTR_CURSOR_TYPE,
    SQL_CURSOR_STATIC,
    SQL_FETCH_NEXT,
    scroll_target,
)
from repro.odbc.handles import ConnectionHandle, ResultState, StatementHandle


@dataclass(slots=True)
class _InFlightFetch:
    """One speculative fetch whose service time has not been realized."""

    response: object
    #: Virtual time at which the modeled server+downlink finish this
    #: request; consumption charges ``max(0, completion - now)``.
    completion: float
    service_seconds: float
    #: ``server.crashes`` at issue; a mismatch at consumption means the
    #: batch was lost with the server incarnation that produced it.
    crash_epoch: int
    #: Open latency-ledger entry of the overlapped exchange (None when
    #: the ledger is off); closed when the batch is realized/discarded.
    ledger_entry: object = None


@dataclass(slots=True)
class _PendingExecute:
    """The one execute a connection has outstanding: the server holds
    its statement at a lock and will answer ``held`` later."""

    statement: StatementHandle
    sql: str
    params: dict
    held: HeldStatement


class NativeDriver:
    """Protocol client for one server."""

    def __init__(self, server: DatabaseServer, network: SimulatedNetwork,
                 meter: Meter):
        self.server = server
        self.network = network
        self.meter = meter
        #: Catalog generation last reported by the server (rides on every
        #: ExecuteResponse).  Client-side metadata caches key on it so any
        #: DDL observed through this driver invalidates them.
        self.last_schema_version = 0
        #: The read set the most recent ExecuteResponse stamped on its
        #: SELECT, for the shared result cache (None while the cache
        #: knob is off, and for results that must not be shared).
        self.last_read_versions: dict | None = None
        # Modeled FIFO pipeline: virtual time until which in-flight
        # (overlapped) fetch-ahead requests keep the server/wire busy,
        # and the crash epoch that booking belongs to.
        self._busy_until = 0.0
        self._busy_epoch = 0

    # -- connections ----------------------------------------------------------

    def connect(self, connection: ConnectionHandle, login: str,
                options: dict | None = None) -> None:
        options = dict(options or {})
        self.meter.charge(CLIENT_CPU, self.meter.costs.connect_seconds,
                          "connect handshake")
        response = self._call(
            ConnectRequest(login=login, options=options))
        connection.connected = True
        connection.session_token = response.session_token
        connection.login = login
        connection.options = options
        connection.pending = None  # a new session holds nothing

    def disconnect(self, connection: ConnectionHandle) -> None:
        self._drop_pending(connection)
        if connection.connected:
            self._call(DisconnectRequest(
                session_token=connection.session_token))
        connection.connected = False
        connection.session_token = 0

    def set_connection_option(self, connection: ConnectionHandle,
                              name: str, value) -> None:
        self.meter.charge(CLIENT_CPU,
                          self.meter.costs.option_reset_seconds,
                          "set option")
        self._call(SetOptionRequest(
            session_token=connection.session_token, name=name, value=value))
        connection.options[name] = value

    def ping(self) -> bool:
        response = self._call(PingRequest())
        return response.alive

    def fetch_table_versions(self, connection: ConnectionHandle) -> dict:
        """One round trip for the server's committed per-table DML
        version vector (shared-result-cache revalidation)."""
        response = self._call(VersionProbeRequest(
            session_token=connection.session_token))
        return dict(response.versions)

    # -- statements ------------------------------------------------------------

    def execute(self, statement: StatementHandle, sql: str,
                params: dict | None = None,
                script: bool = False) -> ResultState:
        """Execute ``sql`` on ``statement`` — with ``script``, a
        ``;``-separated batch in one exchange, whose result is the last
        statement's and whose ``outcomes`` are the others'.

        A result the handle still has open on the server is replaced:
        the request names it and the server closes it."""
        connection = statement.connection
        if not connection.connected:
            raise OdbcError("08003", "connection is not open")
        replaces = 0
        old = statement.result
        if old is not None:
            # Re-execute (or a recovery reopen) abandons whatever was
            # still in flight for the old result.
            self.discard_prefetch(old)
            if not old.done \
                    and old.session_token == connection.session_token:
                replaces = old.statement_id
        params = dict(params or {})
        pending = connection.pending
        if pending is not None and pending.statement is statement \
                and pending.sql == sql and pending.params == params:
            # The same call again (ODBC's asynchronous-execution idiom):
            # nothing is sent.  While the statement still waits nothing
            # is charged either; afterwards the outstanding response is
            # collected.
            if pending.held.waiting:
                raise StillExecuting(f"still waiting for a lock: {sql[:80]}")
            connection.pending = None
            self._sync_pipeline()
            response = self.network.collect(self.server, pending.held)
        else:
            if pending is not None:
                self._drop_pending(connection)
            response = self._call(ExecuteRequest(
                session_token=connection.session_token, sql=sql,
                params=params, script=script, replaces=replaces))
        if type(response) is HeldStatement:
            self._park(statement, sql, params, response)
        result = self._install_result(statement, response, sql)
        if response.kind == "rows":
            # Prime fetch-ahead on the fresh result (no-op at depth 0).
            if not result.done:
                self._issue_prefetch(statement, result)
            if statement.attrs.get(
                    SQL_ATTR_CURSOR_TYPE) == SQL_CURSOR_STATIC:
                self._materialize_static(statement, result)
        return result

    def _park(self, statement: StatementHandle, sql: str, params: dict,
              held: HeldStatement) -> None:
        """No response yet: the statement the server holds at a lock
        becomes the connection's pending execute, and the call unwinds
        with :class:`StillExecuting`."""
        statement.connection.pending = _PendingExecute(
            statement, sql, params, held)
        raise StillExecuting(f"statement is waiting for a lock: {sql[:80]}")

    def _drop_pending(self, connection: ConnectionHandle) -> None:
        """Give up on the connection's pending execute.  The request
        that follows cancels the statement server-side."""
        pending = connection.pending
        if pending is not None:
            connection.pending = None
            self.network.abandon(pending.held)

    def outstanding(self, statement: StatementHandle
                    ) -> HeldStatement | None:
        """The held statement ``statement``'s execute is waiting on, if
        its execute is the connection's pending one."""
        pending = statement.connection.pending
        if pending is not None and pending.statement is statement:
            return pending.held
        return None

    def still_executing(self, statement: StatementHandle) -> bool:
        """Is ``statement``'s execute outstanding with nothing to
        collect yet?  A pure read: no message, no charge.  (Stands in
        for ODBC's completion event; polling ``exec_direct`` itself is
        just as free.)"""
        held = self.outstanding(statement)
        return held is not None and held.waiting

    def _install_result(self, statement: StatementHandle, response,
                        sql: str) -> ResultState:
        """Turn an ExecuteResponse into this statement's ResultState."""
        self.last_schema_version = response.schema_version
        self.last_read_versions = getattr(response, "read_versions", None)
        committed = getattr(response, "table_versions", None)
        if committed:
            # Committed writes ride on every response; fold them into
            # the shared result cache (evicting the entries whose read
            # set they overlap) no matter which session carried them.
            cache = getattr(self.meter, "_shared_result_cache", None)
            if cache is not None:
                cache.observe_committed(committed, self.server.crashes)
        result = ResultState(outcomes=response.outcomes)
        if response.kind == "rows":
            result.columns = response.columns
            result.statement_id = response.statement_id
            result.session_token = statement.connection.session_token
            result.buffered = deque(response.rows)
            result.done = response.done
        elif response.kind == "rowcount":
            result.rowcount = response.rowcount
            result.done = True
        else:
            result.done = True
        statement.result = result
        statement.last_sql = sql
        return result

    def _materialize_static(self, statement: StatementHandle,
                            result: ResultState) -> None:
        """Drain the whole result client-side for a static cursor.

        Static cursors buffer the full result at the client (one bulk
        read per wire batch), which is what lets them scroll freely.
        """
        rows: list[tuple] = []
        while True:
            row = self._next_row(statement, result)
            if row is None:
                break
            rows.append(row)
        self.meter.charge(
            CLIENT_CPU,
            max(1, len(rows))
            * self.meter.costs.cache_block_read_per_row_seconds,
            "static cursor materialize")
        result.static_rows = rows
        result.cursor_index = 0

    def fetch_one(self, statement: StatementHandle):
        """Next row or ``None`` when the result is consumed.

        With batch delivery on (``CostModel.batch_delivery``) the first
        fetch of each wire batch takes the whole batch into client memory
        with one block-cursor read, and every row is then served from
        there; a fetch that finds the result consumed is one more block
        read.  Off, every fetch is one driver SQLFetch.
        """
        result = self._open_result(statement)
        if not result.block_read:
            if result.static_rows is not None \
                    or not self.meter.costs.batch_delivery:
                return self._sql_fetch(statement, result)
            if not result.buffered and not result.done:
                self._refill(statement, result)
            result.block_read = len(result.buffered)
            self._charge_block_read(result.block_read)
            if not result.block_read:
                return None
        result.block_read -= 1
        result.position += 1
        self.meter.charge_batched(CLIENT_CPU,
                                  self.meter.costs.cache_fetch_seconds,
                                  "batch fetch")
        return result.buffered.popleft()

    def _sql_fetch(self, statement: StatementHandle, result: ResultState):
        """One driver SQLFetch: the paper's per-row delivery, and every
        fetch of a static cursor."""
        self.meter.charge(CLIENT_CPU, self.meter.costs.client_fetch_seconds,
                          "SQLFetch")
        if result.static_rows is not None:
            if result.cursor_index >= len(result.static_rows):
                result.cursor_after_last = True
                return None
            row = result.static_rows[result.cursor_index]
            result.cursor_index += 1
            result.position += 1
            result.cursor_after_last = False
            return row
        row = self._next_row(statement, result)
        if row is not None:
            result.position += 1
        return row

    def rows_held(self, statement: StatementHandle) -> int:
        """Rows of ``statement``'s result block-read into client memory
        and not yet delivered.  They survive a server crash."""
        result = statement.result
        return result.block_read if result is not None else 0

    def hand_back(self, statement: StatementHandle,
                  reopened: StatementHandle) -> None:
        """Install the result open on ``reopened`` as ``statement``'s,
        with the rows ``statement`` holds in client memory in front.

        Crash recovery reopens a persisted result past those rows on a
        scratch handle; until this call they stay where they were, so a
        crash during the reopen loses none of them.
        """
        result = reopened.result
        reopened.result = None
        old = statement.result
        held = self.rows_held(statement)
        if held:
            result.buffered.extendleft(
                reversed(list(islice(old.buffered, held))))
            result.block_read += held
            result.position -= held
        statement.result = result

    def fetch_scroll(self, statement: StatementHandle, orientation: str,
                     offset: int = 0):
        """Scrollable fetch over a static cursor.

        Forward-only cursors accept only SQL_FETCH_NEXT; anything else
        raises SQLSTATE HY106 (fetch type out of range), like a real
        driver.
        """
        result = self._open_result(statement)
        if result.static_rows is None:
            if orientation == SQL_FETCH_NEXT:
                return self.fetch_one(statement)
            raise OdbcError("HY106",
                            "forward-only cursor cannot scroll")
        self.meter.charge(CLIENT_CPU,
                          self.meter.costs.client_fetch_seconds,
                          "SQLFetchScroll")
        rows = result.static_rows
        # The row the cursor sits on (len(rows) = after-last sentinel).
        current = (len(rows) if result.cursor_after_last
                   else result.cursor_index - 1)
        target = scroll_target(orientation, offset, current, len(rows))
        if target < 0 or target >= len(rows):
            # Cursor lands before-first / after-last.
            result.cursor_index = 0 if target < 0 else len(rows)
            result.cursor_after_last = target >= len(rows)
            return None
        result.cursor_index = target + 1
        result.cursor_after_last = False
        return rows[target]

    def fetch_block(self, statement: StatementHandle,
                    max_rows: int) -> list[tuple]:
        """Block-cursor read: up to ``max_rows`` rows with bulk pricing.

        One driver call moves many rows, so the per-row client cost drops
        from ``client_fetch_seconds`` to
        ``cache_block_read_per_row_seconds`` — this is the mechanism the
        Phoenix client cache uses ("a single ODBC block cursor read").
        """
        result = self._open_result(statement)
        if result.static_rows is not None:
            rows = self._take_static(result, max_rows)
        else:
            rows = []
            while len(rows) < max_rows:
                row = self._next_row(statement, result)
                if row is None:
                    break
                rows.append(row)
        result.position += len(rows)
        self._charge_block_read(len(rows))
        return rows

    @staticmethod
    def _take_static(result: ResultState, limit: int) -> list[tuple]:
        """Up to ``limit`` rows of a static cursor from where it stands
        (it stands on the last row taken)."""
        start = result.cursor_index
        rows = result.static_rows[start:start + limit]
        result.cursor_index = start + len(rows)
        result.cursor_after_last = not rows
        return rows

    def _charge_block_read(self, rows: int) -> None:
        self.meter.charge(
            CLIENT_CPU,
            max(1, rows) * self.meter.costs.cache_block_read_per_row_seconds,
            "block cursor read")

    def advance(self, statement: StatementHandle, count: int) -> int:
        """Server-side skip of ``count`` rows (repositioning procedure).

        Returns the number of rows *actually* skipped, which may be less
        than ``count``: a fully-buffered result (``statement_id`` 0) has
        nothing left server-side, so the skip clamps to what the client
        buffer holds.  ``result.position`` advances by the returned
        count only — callers that need an exact landing point must check
        the return value, not assume ``count``.
        """
        result = self._open_result(statement)
        skipped = 0
        while skipped < count:
            # Rows already shipped to the client are skipped locally —
            # first the delivered buffer, then in-flight prefetched
            # batches (their rows are already off the server's stream).
            if result.buffered:
                take = min(count - skipped, len(result.buffered))
                for _ in range(take):
                    result.buffered.popleft()
                result.block_read = max(0, result.block_read - take)
                skipped += take
                continue
            if result.prefetch:
                self._consume_prefetch(result)
                if result.buffered or result.prefetch:
                    continue
            break
        if skipped < count and result.statement_id and not result.done:
            response = self._call(AdvanceRequest(
                session_token=statement.connection.session_token,
                statement_id=result.statement_id, count=count - skipped))
            skipped += response.skipped
            if response.done:
                result.done = True
        result.position += skipped
        return skipped

    def discard_prefetch(self, result: ResultState) -> int:
        """Drop every in-flight fetch-ahead batch (counted as wasted).

        Prefetched rows were never delivered — ``position`` does not
        count them — so discarding loses nothing.  Recovery paths call
        this before repositioning; it also covers statement close.
        """
        dropped = len(result.prefetch)
        if dropped:
            self.meter.count("prefetch_wasted", dropped)
            for in_flight in result.prefetch:
                self.meter.latency_close(in_flight.ledger_entry,
                                         wasted=True)
            result.prefetch.clear()
        return dropped

    def close_statement(self, statement: StatementHandle) -> None:
        connection = statement.connection
        held = self.outstanding(statement)
        if held is not None:
            # Freeing the handle cancels the statement it has waiting
            # (statement id 0: no result was ever opened).
            self._drop_pending(connection)
            if not held.lost:
                self._call(CloseStatementRequest(
                    session_token=connection.session_token,
                    statement_id=0))
        result = statement.result
        if result is not None:
            # Abandoned in-flight batches: produced and shipped for
            # nothing.
            self.discard_prefetch(result)
        if result is not None and result.statement_id and not result.done:
            self._call(CloseStatementRequest(
                session_token=statement.connection.session_token,
                statement_id=result.statement_id))
        statement.result = None

    # -- internals ----------------------------------------------------------

    def _open_result(self, statement: StatementHandle) -> ResultState:
        if statement.result is None:
            raise OdbcError("24000", "no open result on this statement")
        return statement.result

    def _next_row(self, statement: StatementHandle, result: ResultState):
        if not result.buffered and not result.done:
            self._refill(statement, result)
        if result.buffered:
            if result.block_read:
                result.block_read -= 1
            return result.buffered.popleft()
        return None

    def _refill(self, statement: StatementHandle,
                result: ResultState) -> None:
        """Land the next wire batch in the (drained) client buffer: the
        oldest prefetched batch, else one synchronous fetch."""
        if result.prefetch:
            self._consume_prefetch(result)
        if not result.buffered and not result.done:
            response = self._call(FetchRequest(
                session_token=statement.connection.session_token,
                statement_id=result.statement_id))
            result.buffered = deque(response.rows)
            result.done = response.done
        if not result.done:
            # Top the pipeline back up after a refill.
            self._issue_prefetch(statement, result)

    # -- pipelined delivery ---------------------------------------------------

    def _call(self, request):
        """Synchronous exchange: drains the pipeline, then blocks."""
        self._sync_pipeline()
        return self.network.call(self.server, request)

    def _sync_pipeline(self) -> None:
        """Wait until the modeled server/wire pipeline is idle.

        Overlapped requests keep the FIFO server busy until their
        recorded completion; a synchronous request queues behind them,
        so the remaining virtual time is charged here as a stall.  A
        crash since the booking empties the pipeline instead — the
        failure (if any) surfaces on the caller's own request.
        """
        if self._busy_until <= 0.0:
            return
        busy_until = self._busy_until
        self._busy_until = 0.0
        if self._busy_epoch != self.server.crashes:
            return  # the bookings died with the server incarnation
        stall = busy_until - self.meter.peek_now()
        if stall > 0:
            self.meter.charge(NETWORK, stall, "pipeline stall")
            self.meter.count("pipeline_stall_seconds", stall)

    def _pipeline_register(self, service_seconds: float) -> float:
        """Book an overlapped request's service onto the pipeline;
        returns its virtual completion time."""
        now = self.meter.peek_now()
        if (self._busy_until > now
                and self._busy_epoch == self.server.crashes):
            start = self._busy_until
        else:
            start = now
        completion = start + service_seconds
        self._busy_until = completion
        self._busy_epoch = self.server.crashes
        return completion

    def _issue_prefetch(self, statement: StatementHandle,
                        result: ResultState) -> None:
        """Top up fetch-ahead to ``fetch_ahead_depth`` in-flight batches."""
        depth = self.meter.costs.fetch_ahead_depth
        if depth <= 0 or not self.meter.advance_clock:
            return
        if not result.statement_id:
            return
        pending = result.prefetch
        while len(pending) < depth:
            stream_done = (pending[-1].response.done if pending
                           else result.done)
            if stream_done:
                return
            response, service = self.network.call_overlapped(
                self.server, FetchRequest(
                    session_token=statement.connection.session_token,
                    statement_id=result.statement_id,
                    speculative=True))
            ledger_entry = self.network.last_overlapped_entry
            self.network.last_overlapped_entry = None
            pending.append(_InFlightFetch(
                response=response,
                completion=self._pipeline_register(service),
                service_seconds=service,
                crash_epoch=self.server.crashes,
                ledger_entry=ledger_entry))
            self.meter.count("prefetch_issued")

    def _consume_prefetch(self, result: ResultState) -> None:
        """Install the oldest in-flight batch into the client buffer.

        Charges only the *unoverlapped* remainder of the request —
        ``max(0, completion - now)`` — the rest ran while the client was
        consuming the previous batch.  Batches issued to a server
        incarnation that has since crashed are discarded (the rows died
        with it); the caller falls through to a synchronous fetch, which
        surfaces the failure to the recovery layer.
        """
        pending = result.prefetch
        entry = pending.pop(0)
        if entry.crash_epoch != self.server.crashes:
            self.meter.count("prefetch_wasted", 1 + len(pending))
            self.meter.latency_close(entry.ledger_entry, wasted=True)
            for in_flight in pending:
                self.meter.latency_close(in_flight.ledger_entry,
                                         wasted=True)
            pending.clear()
            self._busy_until = 0.0
            return
        stall = entry.completion - self.meter.peek_now()
        if stall > 0:
            # The realized remainder lands in the entry opened at issue,
            # so the batch's ledger line reads uplink + stall (its
            # overlapped service stays in the hidden column).
            self.meter.latency_resume(entry.ledger_entry)
            self.meter.charge(NETWORK, stall, "prefetch stall")
        else:
            stall = 0.0
        self.meter.latency_close(entry.ledger_entry)
        self.meter.count("prefetch_hits")
        self.meter.count("prefetch_overlap_seconds",
                         max(0.0, entry.service_seconds - stall))
        response = entry.response
        result.buffered = deque(response.rows)
        result.done = response.done
