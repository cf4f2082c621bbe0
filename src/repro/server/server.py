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
"""

from __future__ import annotations

import logging

from repro.engine.database import DatabaseEngine
from repro.engine.session import EngineSession
from repro.errors import ConnectionLostError, ServerDownError
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
    VersionProbeRequest,
    VersionProbeResponse,
)
from repro.server.results import ServerResultSet
from repro.sim.costs import SERVER_CPU
from repro.sim.meter import Meter


logger = logging.getLogger(__name__)


class _ServerSession:
    """One connected client's volatile server state."""

    def __init__(self, token: int):
        self.token = token
        self.engine_session = EngineSession(session_id=token)
        self.results: dict[int, ServerResultSet] = {}
        self._statement_seq = 0

    def next_statement_id(self) -> int:
        self._statement_seq += 1
        return self._statement_seq


class DatabaseServer:
    """Hosts the engine behind the wire protocol."""

    def __init__(self, meter: Meter | None = None,
                 plan_cache_capacity: int = 128):
        self.meter = meter if meter is not None else Meter()
        #: Construction-time engine settings; every restarted engine
        #: incarnation gets the same ones.
        self._plan_cache_capacity = plan_cache_capacity
        self.engine = DatabaseEngine(
            meter=self.meter, plan_cache_capacity=plan_cache_capacity)
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
        obs = self.meter.obs
        # A fault injector may restart us in the middle of an exchange a
        # client is overlapping with something else.  Restart recovery
        # is not that client's service: it runs on the clock.
        window = self.meter.suspend_overlap()
        try:
            if obs.enabled:
                with obs.tracer.span("server.restart", layer="server",
                                     crash=self.crashes):
                    self.engine = self._restart_engine()
            else:
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
        return DatabaseEngine.restart(
            self.disk, self.wal, meter=self.meter,
            plan_cache_capacity=self._plan_cache_capacity)

    def checkpoint(self, fuzzy: bool = False) -> None:
        self._require_up()
        if fuzzy:
            self.engine.fuzzy_checkpoint()
        else:
            self.engine.checkpoint()

    # -- request dispatch ------------------------------------------------------

    def handle(self, request: Request):
        obs = self.meter.obs
        if obs.enabled:
            with obs.tracer.span("server.handle", layer="server",
                                 request=type(request).__name__):
                return self._handle(request)
        return self._handle(request)

    def _handle(self, request: Request):
        self._require_up()
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
            engine_session = session.engine_session
            if engine_session.in_transaction:
                self.engine.txns.abort(engine_session.current_txn)
        return OkResponse(message="bye")

    def _handle_execute(self, request: ExecuteRequest) -> ExecuteResponse:
        session = self._session(request.session_token)
        result = self.engine.execute(request.sql, session.engine_session,
                                     request.params)
        schema_version = self.engine.catalog.schema_version
        # Shared-result-cache piggyback: the writes committed since the
        # last response (nothing while the cache knob is off).
        table_versions = self.engine.pop_version_updates()
        if result.kind == "rowcount":
            return ExecuteResponse(kind="rowcount",
                                   rowcount=result.rowcount,
                                   message=result.message,
                                   schema_version=schema_version,
                                   table_versions=table_versions)
        if result.kind == "ok":
            return ExecuteResponse(kind="ok", message=result.message,
                                   schema_version=schema_version,
                                   table_versions=table_versions)
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
            # raised mid-scan): drop the half-open result set so a
            # statement retry does not leak it.
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
                               table_versions=table_versions)

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
            # the result — the client retries the whole statement.
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
        session = self._session(request.session_token)
        session.results.pop(request.statement_id, None)
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
