"""The crashable database server.

``DatabaseServer`` owns the durable media (disk + WAL) for its lifetime
and a *volatile* engine incarnation, sessions and open result sets.

* :meth:`crash` — power cut: the un-forced log tail and every volatile
  structure (buffer pool, sessions, temp tables, open results, in-flight
  transactions) are gone; the server stops answering.
* :meth:`restart` — builds a fresh engine which runs restart recovery
  (its I/O is charged to the meter, so "database recovery time" is real
  virtual time); the server answers again, with *no* previous sessions —
  exactly the world Phoenix has to hide from the application.

Requests arrive through :meth:`handle` (normally via
:class:`~repro.server.network.SimulatedNetwork`).

A *script* request (``ExecuteRequest.script``) is a ``;``-separated
batch: the server prepares each statement as if it had arrived alone,
runs them in order on the session, binds ``@rowcount`` to the previous
statement's row count, and answers once — with every earlier
statement's :class:`~repro.server.protocol.StatementOutcome` and the
last statement's result, its first wire batch included.  A statement
that fails ends the script; a transaction the script itself began is
rolled back with it.

A statement that meets a lock waits *here*, the way it waited inside the
paper's SQL Server: the ``ExecuteRequest`` gets no response yet — a
:class:`HeldStatement` stands in for it — and the session keeps the
statement's prepared form (a script's, with how far it got).  When the
lock manager has let its transaction through, :meth:`DatabaseServer.resume`
runs the statement again from that form (execution is charged, parsing
is not), goes on with the rest of its script, and only then produces the
ordinary response.  A held statement ends in one of three ways: it is
resumed to completion (which, for a transaction the deadlock detector
aborted meanwhile, is at once and with SQLSTATE 40001); it is cancelled
— its handle is freed or another statement arrives on the connection —
and its request leaves the queue, together with a transaction its script
began; or the server crashes and it is lost like any request in flight.
"""

from __future__ import annotations

import logging

from repro.engine.database import DatabaseEngine
from repro.engine.session import EngineSession
from repro.errors import (
    ConnectionLostError,
    LockWaitError,
    OdbcError,
    ServerDownError,
    SqlSyntaxError,
)
from repro.server.protocol import (
    AdvanceRequest,
    AdvanceResponse,
    CloseStatementRequest,
    ConnectRequest,
    ConnectResponse,
    DisconnectRequest,
    ExecuteRequest,
    ExecuteResponse,
    FetchRequest,
    FetchResponse,
    OkResponse,
    PingRequest,
    PingResponse,
    Request,
    SetOptionRequest,
    StatementOutcome,
    VersionProbeRequest,
    VersionProbeResponse,
)
from repro.server.results import ServerResultSet
from repro.sim.costs import SERVER_CPU
from repro.sim.meter import Meter
from repro.sql.lexer import split_script


logger = logging.getLogger(__name__)


class _Batch:
    """What one ``ExecuteRequest`` runs: its statements' prepared forms
    (one, or a script's) and how far it got."""

    __slots__ = ("statements", "binds_rowcount", "params", "index",
                 "outcomes", "rowcount", "txn_before")

    def __init__(self, statements: list, binds_rowcount: list[bool],
                 params: dict, txn_before):
        self.statements = statements
        #: Per statement: does its text read ``@rowcount``?  Only those
        #: get it bound, so every other statement keeps the plan-cache
        #: key it has when it arrives alone.
        self.binds_rowcount = binds_rowcount
        self.params = params
        #: The statement running (or held) now.
        self.index = 0
        #: Outcomes of the statements before it.
        self.outcomes: list[StatementOutcome] = []
        #: What ``@rowcount`` reads: rows the previous statement affected.
        self.rowcount = 0
        #: The session's transaction when the batch arrived; any other
        #: one open when the batch fails or is cancelled is the batch's
        #: own, and is rolled back with it.
        self.txn_before = txn_before

    def params_at(self, index: int) -> dict:
        if self.binds_rowcount[index]:
            return {**self.params, "rowcount": self.rowcount}
        return self.params


class HeldStatement:
    """What an ``ExecuteRequest`` gets instead of a response while its
    statement is queued for a lock: the server-side state of the wait
    (the batch and how far it got, the queued transaction) and the
    client's claim on the response to come."""

    __slots__ = ("server", "epoch", "session", "batch", "txn_id", "since",
                 "ledger_entry")

    def __init__(self, server: "DatabaseServer", session: "_ServerSession",
                 batch: _Batch):
        self.server = server
        #: ``server.crashes`` when the statement was held; a mismatch
        #: means it died with that incarnation.
        self.epoch = server.crashes
        self.session = session
        self.batch = batch
        #: The transaction whose queued request the statement waits on.
        self.txn_id = 0
        #: Virtual time since which nothing has run for this statement.
        self.since = 0.0
        #: The exchange's open latency-ledger entry (the network's).
        self.ledger_entry = None

    @property
    def lost(self) -> bool:
        """Did the server incarnation holding the statement crash?"""
        server = self.server
        return server.crashes != self.epoch or not server.is_running

    @property
    def waiting(self) -> bool:
        """True while resuming could do nothing: the transaction is
        still queued.  False when the statement can run again — and
        when it never will (cancelled, or lost in a crash), which the
        client learns by resuming."""
        return (self.session.held is self and not self.lost
                and self.server.engine.locks.is_waiting(self.txn_id))


class _ServerSession:
    """One connected client's volatile server state."""

    def __init__(self, token: int):
        self.token = token
        self.engine_session = EngineSession(session_id=token)
        self.results: dict[int, ServerResultSet] = {}
        #: The statement this connection has waiting for a lock (a
        #: connection runs one statement at a time).
        self.held: HeldStatement | None = None
        self._statement_seq = 0

    def next_statement_id(self) -> int:
        self._statement_seq += 1
        return self._statement_seq


class DatabaseServer:
    """Hosts the engine behind the wire protocol."""

    def __init__(self, meter: Meter | None = None):
        self.meter = meter if meter is not None else Meter()
        self.engine = DatabaseEngine(meter=self.meter)
        self.disk = self.engine.disk
        self.wal = self.engine.wal
        self._sessions: dict[int, _ServerSession] = {}
        self._session_seq = 0
        self._running = True
        self.crashes = 0

    # -- lifecycle -----------------------------------------------------------

    @property
    def is_running(self) -> bool:
        return self._running

    def crash(self) -> None:
        """Kill the server process (``shutdown with nowait``)."""
        if not self._running:
            return
        lost_sessions = len(self._sessions)
        self.wal.crash()
        if self.engine is not None:
            self.engine.buffer_pool.crash()
        self.engine = None
        self._sessions.clear()
        self._running = False
        self.crashes += 1
        logger.info("server crashed (crash #%d): %d session(s) lost",
                    self.crashes, lost_sessions)

    def restart(self) -> None:
        """Bring the server back up, running restart recovery."""
        if self._running:
            return
        # A fault injector may restart us in the middle of an exchange a
        # client is overlapping with something else.  Restart recovery
        # is not that client's service: it runs on the clock.
        window = self.meter.suspend_overlap()
        try:
            with self.meter.tracer.span("server.restart", layer="server",
                                        crash=self.crashes):
                self.engine = self._restart_engine()
        finally:
            self.meter.resume_overlap(window)
        self._running = True
        report = self.engine.last_recovery
        if report is not None:
            logger.info(
                "server restarted: redo=%d skipped=%d undo=%d losers=%s",
                report.redo_applied, report.redo_skipped,
                report.undo_applied, sorted(report.losers))

    def _restart_engine(self) -> DatabaseEngine:
        return DatabaseEngine.restart(self.disk, self.wal, meter=self.meter)

    def checkpoint(self) -> None:
        self._require_up()
        self.engine.checkpoint()

    # -- request dispatch ------------------------------------------------------

    def handle(self, request: Request):
        """Serve one request; returns its response — or, for a statement
        that met a lock, the :class:`HeldStatement` to :meth:`resume`."""
        tracer = self.meter.tracer
        if tracer.enabled:
            with tracer.span("server.handle", layer="server",
                             request=type(request).__name__):
                return self._handle(request)
        return self._handle(request)

    def resume(self, held: HeldStatement):
        """Run a held statement again now that its transaction is out of
        the lock queue; returns the response, or ``held`` once more when
        the statement met another lock."""
        tracer = self.meter.tracer
        if tracer.enabled:
            with tracer.span("server.resume", layer="server"):
                return self._resume(held)
        return self._resume(held)

    def _handle(self, request: Request):
        self._require_up()
        try:
            if isinstance(request, PingRequest):
                self.meter.charge(SERVER_CPU, self.meter.costs.ping_seconds,
                                  "ping")
                return PingResponse(alive=True)
            if isinstance(request, ConnectRequest):
                return self._handle_connect(request)
            if isinstance(request, DisconnectRequest):
                return self._handle_disconnect(request)
            if isinstance(request, ExecuteRequest):
                return self._handle_execute(request)
            if isinstance(request, FetchRequest):
                return self._handle_fetch(request)
            if isinstance(request, AdvanceRequest):
                return self._handle_advance(request)
            if isinstance(request, CloseStatementRequest):
                return self._handle_close(request)
            if isinstance(request, SetOptionRequest):
                return self._handle_set_option(request)
            if isinstance(request, VersionProbeRequest):
                return self._handle_version_probe(request)
        except LockWaitError as wait:
            # Only a lazy pull (fetch, advance) gets here — an execute
            # is held instead.  The cursor cannot be resumed mid-scan,
            # so nothing will run again for this request: it leaves the
            # queue and the client re-executes.
            self.engine.locks.withdraw(wait.txn_id)
            raise
        raise ValueError(f"unknown request {type(request).__name__}")

    # -- handlers -----------------------------------------------------------

    def _handle_connect(self, request: ConnectRequest) -> ConnectResponse:
        self._session_seq += 1
        session = _ServerSession(self._session_seq)
        for name, value in request.options.items():
            session.engine_session.set_option(name, value)
        self._sessions[session.token] = session
        self.engine.sessions[session.token] = session.engine_session
        return ConnectResponse(session_token=session.token)

    def _handle_disconnect(self, request: DisconnectRequest) -> OkResponse:
        session = self._sessions.pop(request.session_token, None)
        self.engine.sessions.pop(request.session_token, None)
        if session is not None:
            self._cancel_held(session)
            engine_session = session.engine_session
            if engine_session.in_transaction:
                self.engine.txns.abort(engine_session.current_txn)
        return OkResponse(message="bye")

    def _handle_execute(self, request: ExecuteRequest):
        session = self._session(request.session_token)
        if session.held is not None:
            # Another statement on the connection cancels the one it
            # holds.
            self._cancel_held(session)
        if request.replaces:
            # The client handle has moved on from its previous result.
            session.results.pop(request.replaces, None)
        prepare = self.engine.prepare
        if request.script:
            texts = split_script(request.sql)
            if not texts:
                raise SqlSyntaxError("empty script")
            statements = [prepare(text) for text in texts]
            binds = ["@rowcount" in text.lower() for text in texts]
        else:
            statements, binds = [prepare(request.sql)], [False]
        batch = _Batch(statements, binds, request.params,
                       session.engine_session.current_txn)
        return self._execute(session, batch, None)

    def _resume(self, held: HeldStatement):
        self._require_up()
        session = held.session
        if session.held is not held:
            raise OdbcError("HY008", "the held statement was cancelled")
        session.held = None
        return self._execute(session, held.batch, held)

    def _execute(self, session: _ServerSession, batch: _Batch,
                 held: HeldStatement | None):
        """Run a batch's statements, from the one it stands at, to the
        response — or hold the batch at the statement that meets a lock.
        ``held``: it was held before and this is the re-run of that
        statement (the ones before it do not run again)."""
        engine = self.engine
        rerun = held is not None
        last = len(batch.statements) - 1
        while True:
            index = batch.index
            try:
                result = engine.execute(batch.statements[index],
                                        session.engine_session,
                                        batch.params_at(index), rerun=rerun)
                if index == last:
                    response = self._execute_response(session, result)
                    response.outcomes = batch.outcomes
                    return response
            except LockWaitError as wait:
                if not engine.locks.is_waiting(wait.txn_id):
                    # The deadlock detector broke the wait in this
                    # statement's favour while registering it.
                    rerun = True
                    continue
                if held is None:
                    held = HeldStatement(self, session, batch)
                else:
                    self.meter.count("locks.requeues")
                held.txn_id = wait.txn_id
                held.since = self.meter.peek_now()
                session.held = held
                return held
            except Exception:
                self._end_batch_transaction(session, batch)
                raise
            batch.outcomes.append(StatementOutcome(
                result.rowcount, list(result.columns)))
            batch.rowcount = max(result.rowcount, 0)
            batch.index += 1
            rerun = False

    def _end_batch_transaction(self, session: _ServerSession,
                               batch: _Batch) -> None:
        """A batch failed or was cancelled: roll back the transaction it
        began, if it began one (a script's ``BEGIN TRANSACTION``)."""
        engine_session = session.engine_session
        txn = engine_session.current_txn
        if txn is None or txn is batch.txn_before or self.engine is None:
            return
        if txn.is_active:
            self.engine.txns.abort(txn)
        engine_session.current_txn = None

    def _cancel_held(self, session: _ServerSession) -> None:
        held = session.held
        if held is None:
            return
        session.held = None
        self.engine.abandon_wait(session.engine_session)
        self._end_batch_transaction(session, held.batch)
        self.meter.count("locks.held_statements_cancelled")

    def _execute_response(self, session: _ServerSession,
                          result) -> ExecuteResponse:
        schema_version = self.engine.catalog.schema_version
        # Shared-result-cache piggyback: the writes committed since the
        # last response (nothing while the cache knob is off).  Popped
        # only once a response is certain — a first pull that meets a
        # lock below must leave them for the response that does go out.
        pop_updates = self.engine.pop_version_updates
        if result.kind == "rowcount":
            return ExecuteResponse(kind="rowcount",
                                   rowcount=result.rowcount,
                                   message=result.message,
                                   schema_version=schema_version,
                                   table_versions=pop_updates())
        if result.kind == "ok":
            return ExecuteResponse(kind="ok", message=result.message,
                                   schema_version=schema_version,
                                   table_versions=pop_updates())
        statement_id = session.next_statement_id()
        streamable = getattr(result, "streamable", False)
        open_result = ServerResultSet(statement_id, result.columns,
                                      iter(result.rows), self.meter,
                                      streamable=streamable)
        session.results[statement_id] = open_result
        try:
            open_result.fill_buffer()
        except Exception:
            # The first pull failed (e.g. a row-granularity lock wait
            # raised mid-scan): drop the half-open result set so the
            # statement's re-run does not leak it.
            session.results.pop(statement_id, None)
            raise
        rows = open_result.take_batch(open_result.wire_batch_rows())
        done = open_result.exhausted
        if done:
            del session.results[statement_id]
            statement_id = 0 if not rows else statement_id
        # A read set certifies one moment: a result this request did not
        # finish producing reads the rest later, possibly past a write
        # its stamp predates (or an uncommitted one), and is not shared.
        read_versions = (getattr(result, "read_versions", None)
                         if open_result.done else None)
        return ExecuteResponse(kind="rows", statement_id=statement_id,
                               columns=result.columns, rows=rows,
                               row_bytes=open_result.wire_bytes(rows),
                               done=done, schema_version=schema_version,
                               read_versions=read_versions,
                               table_versions=pop_updates())

    def _handle_fetch(self, request: FetchRequest) -> FetchResponse:
        session = self._session(request.session_token)
        open_result = session.results.get(request.statement_id)
        if open_result is None:
            return FetchResponse(rows=[], done=True)
        open_result.note_fetch()
        try:
            open_result.fill_buffer()
        except Exception:
            # A lazy pull failed mid-result (row-granularity lock wait or
            # deadlock): the cursor position is unrecoverable, so close
            # the result — the client executes the whole statement again
            # (SQLSTATE HYT00 / 40001).
            session.results.pop(request.statement_id, None)
            raise
        max_rows = request.max_rows
        if max_rows is None:
            max_rows = open_result.wire_batch_rows()
        rows = open_result.take_batch(max_rows)
        done = open_result.exhausted
        if done:
            session.results.pop(request.statement_id, None)
        return FetchResponse(rows=rows, done=done,
                             row_bytes=open_result.wire_bytes(rows))

    def _handle_advance(self, request: AdvanceRequest) -> AdvanceResponse:
        session = self._session(request.session_token)
        open_result = session.results.get(request.statement_id)
        if open_result is None:
            return AdvanceResponse(skipped=0, done=True)
        skipped = open_result.skip_rows(request.count)
        return AdvanceResponse(skipped=skipped, done=open_result.exhausted)

    def _handle_close(self, request: CloseStatementRequest) -> OkResponse:
        """Close an open result — or, with statement id 0 (no result was
        ever opened), cancel the statement the connection has waiting
        for a lock."""
        session = self._session(request.session_token)
        if request.statement_id:
            session.results.pop(request.statement_id, None)
        else:
            self._cancel_held(session)
        return OkResponse(message="closed")

    def _handle_set_option(self, request: SetOptionRequest) -> OkResponse:
        session = self._session(request.session_token)
        session.engine_session.set_option(request.name, request.value)
        return OkResponse(message="option set")

    def _handle_version_probe(
            self, request: VersionProbeRequest) -> VersionProbeResponse:
        self._session(request.session_token)
        self.meter.charge(SERVER_CPU, self.meter.costs.ping_seconds,
                          "version probe")
        return VersionProbeResponse(
            versions=dict(self.engine.catalog.dml_versions))

    # -- helpers ---------------------------------------------------------------

    def _session(self, token: int) -> _ServerSession:
        session = self._sessions.get(token)
        if session is None:
            raise ConnectionLostError(
                f"session {token} does not exist (server restarted?)")
        return session

    def _require_up(self) -> None:
        if not self._running:
            raise ServerDownError("server is down")

    def open_session_count(self) -> int:
        return len(self._sessions)
