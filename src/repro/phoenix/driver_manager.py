"""The Phoenix-enhanced driver manager.

Exposes exactly the native :class:`DriverManager` surface (the
application cannot tell the difference) while wrapping every call point:

* ``exec_direct`` classifies the request (one-pass parse) and routes it
  through result persistence, the client cache, or status-table-guarded
  execution (``StatusTable.run_once``);
* every driver interaction runs inside a recovery loop that intercepts
  transport errors, pings/reconnects, distinguishes crash from blip via
  the session-probe temp table, runs two-phase session recovery, and
  transparently retries the interrupted operation;
* ``fetch``/``fetch_block`` deliver rows from the persisted table or the
  client cache, tracking the delivery position used for repositioning;
* an application transaction interrupted by a crash surfaces as a
  transaction abort (SQLSTATE 40001) after the session has been rebuilt
  — "transaction failure is considered a normal event that most
  applications already handle."  The application's COMMIT carries a
  status record of its own, so a COMMIT whose answer a failure lost is
  told apart from one the crash aborted: the record found, the COMMIT
  reports success; absent, 40001.
"""

from __future__ import annotations

import itertools
import logging

from repro.errors import (
    DeadlockError,
    EngineError,
    RecoveryFailedError,
    ReproError,
    RequestTimeoutError,
)
from repro.odbc.constants import (
    SQL_NO_DATA,
    SQL_STILL_EXECUTING,
    SQL_SUCCESS,
    scroll_target,
)
from repro.odbc.driver import NativeDriver
from repro.odbc.driver_manager import DriverManager
from repro.odbc.handles import (
    ConnectionHandle,
    EnvironmentHandle,
    StatementHandle,
)
from repro.phoenix.client_cache import CacheOutcome, ClientCache
from repro.phoenix.config import PhoenixConfig
from repro.phoenix.failure import FailureDetector, is_transport_failure
from repro.phoenix.parse import (
    RequestClass,
    classify_request,
    inline_parameters,
    script_statement,
)
from repro.phoenix.persistence import ResultPersistor
from repro.phoenix.recovery import SessionRecovery
from repro.phoenix.result_cache import SharedResultCache
from repro.phoenix.scratch import scratch_statement
from repro.phoenix.status_table import StatusTable
from repro.phoenix.virtual_session import (
    DEFAULT_CONNECTION_OPTIONS,
    StatementMode,
    StatementState,
    VirtualConnection,
)
from repro.sim.costs import CLIENT_CPU


logger = logging.getLogger(__name__)


class PhoenixDriverManager(DriverManager):
    """Drop-in replacement for the native driver manager (§2)."""

    def __init__(self, driver: NativeDriver,
                 config: PhoenixConfig | None = None):
        super().__init__(driver)
        self.config = config if config is not None else PhoenixConfig()
        self.config.validate()
        self.meter = driver.meter
        self._vconns: dict[int, VirtualConnection] = {}
        self._status = StatusTable(driver)
        self._persistor = ResultPersistor(driver, self.meter, self._status)
        self._detector = FailureDetector(driver, self.meter)
        self._recovery = SessionRecovery(driver, self.meter, self.config,
                                         self._persistor, self._detector,
                                         self._redial_private)
        self._cache = ClientCache(driver, self.config)
        self._private_env = EnvironmentHandle()
        self._private: ConnectionHandle | None = None
        #: Result tables whose DROP a failure lost: durable, so still
        #: owed; dropped after the next failure is handled, or at
        #: disconnect.
        self._undropped: list[str] = []
        # Incarnation nonce: makes op keys unique across driver-manager
        # incarnations so a restarted client never collides with keys a
        # previous incarnation persisted in the status table.  The counter
        # is scoped to the meter — i.e. to one simulated world — NOT to
        # the process: op keys are embedded in persisted SQL text whose
        # byte widths are charged, so a process-global counter made
        # virtual time depend on how many worlds ran earlier in the same
        # process (the nonce gaining a digit widened every op key).
        counter = getattr(self.meter, "_phoenix_nonce_counter", None)
        if counter is None:
            counter = itertools.count(1)
            self.meter._phoenix_nonce_counter = counter
        self._nonce = next(counter)
        self._op_seq = 0
        # The transaction-consistent shared result cache is world-scoped
        # (one per meter): every driver manager — hence every virtual
        # session — in the same simulated world shares it.  None while
        # ``result_cache_entries`` is 0: nothing ever probes.
        self._shared_cache = (SharedResultCache.shared(self.meter)
                              if self.meter.costs.result_cache_entries > 0
                              else None)
        #: Observable counters for the experiments.
        self.stats = {"persisted_results": 0, "cached_results": 0,
                      "cache_overflows": 0, "wrapped_updates": 0,
                      "recoveries": 0, "blips": 0,
                      "shared_cache_hits": 0, "shared_cache_staged": 0}

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------

    def connect(self, connection: ConnectionHandle, login: str = "app",
                options: dict | None = None) -> int:
        def do():
            self.driver.connect(connection, login, options)
            vconn = VirtualConnection(app_handle=connection, login=login)
            vconn.option_log.extend(DEFAULT_CONNECTION_OPTIONS)
            vconn.option_log.extend((options or {}).items())
            self._detector.create_probe(connection, vconn.probe_table)
            self._vconns[connection.handle_id] = vconn
            vconn.connected = True
            self._private_connection()  # also ensures the status table

        rc, _ = self._guard(connection, do)
        return rc

    def disconnect(self, connection: ConnectionHandle) -> int:
        vconn = self._vconns.pop(connection.handle_id, None)
        if vconn is not None:
            self._discard_staged(vconn)
            for state in vconn.statements.values():
                self._drop_quietly(state.table_name)
        self._drop_undropped()
        rc, _ = self._guard(connection,
                            lambda: self.driver.disconnect(connection))
        return rc

    def set_connect_option(self, connection: ConnectionHandle, name: str,
                           value) -> int:
        vconn = self._require_vconn(connection)
        rc, _ = self._guard(connection, lambda: self._with_recovery(
            vconn,
            lambda: self.driver.set_connection_option(connection, name,
                                                      value)))
        if rc == SQL_SUCCESS:
            vconn.option_log.append((name, value))
        return rc

    # ------------------------------------------------------------------
    # Statement execution
    # ------------------------------------------------------------------

    def exec_direct(self, statement: StatementHandle, sql: str,
                    params: dict | None = None) -> int:
        tracer = self.meter.tracer
        if tracer.enabled:
            with tracer.span("phoenix.exec_direct", layer="phoenix"):
                return self._exec_direct(statement, sql, params)
        return self._exec_direct(statement, sql, params)

    def _exec_direct(self, statement: StatementHandle, sql: str,
                     params: dict | None = None) -> int:
        vconn = self._require_vconn(statement.connection)
        if params:
            # Phoenix re-embeds the SQL text in generated statements, so
            # parameters are inlined as literals up front.
            sql = inline_parameters(sql, params)
        state = vconn.statement_state(statement)
        held = self.driver.outstanding(statement)
        if held is not None and statement.last_sql == sql:
            # The same call again while the server holds the statement
            # at a lock.  Still waiting: nothing is sent, nothing is
            # charged.  Otherwise the dispatch below runs again as it
            # ran the first time — the driver resumes the outstanding
            # exchange where it would have sent the request.
            if held.waiting:
                return SQL_STILL_EXECUTING
            request_class, old_table = state.request_class, ""
        else:
            request_class = classify_request(sql, self.meter)
            old_table = state.table_name
            state.reset()
            state.request_class = request_class
            statement.last_sql = sql
        rc, _ = self._guard(statement, lambda: self._dispatch(
            vconn, state, request_class, sql, old_table))
        return rc

    def _dispatch(self, vconn: VirtualConnection, state: StatementState,
                  request_class: RequestClass, sql: str,
                  old_table: str) -> None:
        self._drop_quietly(old_table, vconn)
        if request_class is RequestClass.RESULT_QUERY:
            self._execute_query(vconn, state, sql)
        elif request_class is RequestClass.COMMIT and vconn.in_app_txn:
            self._commit(vconn, state)
        elif request_class in (RequestClass.UPDATE, RequestClass.DDL,
                               RequestClass.EXEC) and not vconn.in_app_txn:
            self._execute_update(vconn, state, request_class, sql)
        else:
            # Resubmitted after a recovery: a statement inside the
            # application's transaction (a crash ends it: 40001), EXPLAIN
            # and ANALYZE (``repro.phoenix.parse``), BEGIN, ROLLBACK and
            # a COMMIT with no transaction, which the server refuses.
            result = self._with_recovery(
                vconn, lambda: self.driver.execute(state.handle, sql))
            state.mode = StatementMode.PASSTHROUGH
            state.rowcount = result.rowcount
            state.columns = list(result.columns)
            if request_class is RequestClass.BEGIN:
                vconn.in_app_txn = True
            elif request_class is RequestClass.ROLLBACK:
                vconn.in_app_txn = False
                self._discard_staged(vconn)

    # -- result-generating statements (§2.1 / §4) ------------------------------

    def _execute_query(self, vconn: VirtualConnection,
                       state: StatementState, sql: str) -> None:
        if self._serve_from_shared_cache(vconn, state, sql):
            return
        if self._cache.enabled:
            outcome = self._with_recovery(
                vconn, lambda: self._cache.try_cache(state, sql))
            if outcome == CacheOutcome.CACHED:
                self.stats["cached_results"] += 1
                self._note_shared_cacheable(vconn, state, sql)
                return
            if outcome == CacheOutcome.NOT_A_RESULT:
                return
            self.stats["cache_overflows"] += 1
        op_key = self._next_op_key()
        self._once(vconn, lambda retry: self._persistor.persist(
            vconn, state, sql, op_key, retry, self._private_connection))
        self.stats["persisted_results"] += 1

    # -- shared result cache (transaction-consistent, all sessions) ----------

    def _serve_from_shared_cache(self, vconn: VirtualConnection,
                                 state: StatementState, sql: str) -> bool:
        """Try to answer a result query from the shared cache.

        A hit costs zero protocol requests: the rows are delivered from
        client memory through the same CACHED paths as the §4 per-
        statement cache, so delivery never consults any server-side
        position.  Statements inside an application transaction bypass
        the cache entirely — a lock-free hit would break two-phase-
        locking repeatable reads, and read-your-writes a fortiori.
        """
        cache = self._shared_cache
        if cache is None or vconn.in_app_txn:
            return False
        epoch = self.driver.server.crashes
        if cache.needs_revalidation(epoch):
            # One probe round trip revalidates the whole cache after a
            # reconnect: entries the recomputed server vector confirms
            # survive the crash (the paper's crash-proof client cache at
            # driver-manager scale).
            versions = self._with_recovery(
                vconn,
                lambda: self.driver.fetch_table_versions(vconn.app_handle))
            cache.revalidate(versions, self.driver.server.crashes)
        self.meter.charge(CLIENT_CPU,
                          self.meter.costs.result_cache_probe_seconds,
                          "result cache probe")
        entry = cache.lookup(sql)
        if entry is None:
            return False
        if state.handle.result is not None:
            # The handle's previous server-side cursor (if any) must not
            # leak just because this execution never reaches the server.
            self._with_recovery(
                vconn, lambda: self.driver.close_statement(state.handle))
        state.mode = StatementMode.CACHED
        state.original_sql = sql
        state.columns = list(entry.columns)
        state.cache_rows = entry.rows
        state.cache_position = 0
        state.finished = False
        self.stats["shared_cache_hits"] += 1
        return True

    def _note_shared_cacheable(self, vconn: VirtualConnection,
                               state: StatementState, sql: str) -> None:
        """Admit (or stage) a freshly cached result into the shared cache.

        The execute that filled the §4 cache also delivered the result's
        read set (``driver.last_read_versions``); None means the server
        declared it unshareable.  Inside an application transaction the
        entry stays invisible to lookups until COMMIT."""
        cache = self._shared_cache
        if cache is None:
            return
        admitted = cache.insert(
            sql, state.columns, state.cache_rows,
            self.driver.last_read_versions,
            owner=vconn.app_handle.handle_id if vconn.in_app_txn else None)
        if admitted and vconn.in_app_txn:
            self.stats["shared_cache_staged"] += 1

    def _promote_staged(self, vconn: VirtualConnection) -> None:
        """COMMIT: publish the transaction's staged results.

        The COMMIT response carried the transaction's own write set and
        the driver folded it like any other commit's, so a staged read
        the transaction itself overwrote (or one that saw its own
        uncommitted write) is already evicted; what is left was valid
        when read and no commit since has touched it."""
        if self._shared_cache is not None:
            self._shared_cache.promote(vconn.app_handle.handle_id)

    def _discard_staged(self, vconn: VirtualConnection) -> None:
        """ROLLBACK (or crash-induced abort): the staged results were
        produced by a transaction that never happened."""
        if self._shared_cache is not None:
            self._shared_cache.discard(vconn.app_handle.handle_id)

    # -- writes whose answer can be lost: ``StatusTable.run_once`` (§3.2) ----

    def _execute_update(self, vconn: VirtualConnection,
                        state: StatementState, request_class: RequestClass,
                        sql: str) -> None:
        """An autocommit update, DDL statement or ``EXEC``: one script
        exchange on the default chain, four round trips on the paper's."""
        # A call that resumes a statement the server holds keeps the op
        # key of the call that sent it: the same request, collected.
        if not state.op_key:
            state.op_key = self._next_op_key()
        op_key = state.op_key
        statement = script_statement(sql)
        # A script answers with its last statement's result only, and a
        # procedure may end in a query: EXEC goes the paper's way.
        script = (self.meter.costs.persist_pipeline and statement is not None
                  and request_class is not RequestClass.EXEC)

        def attempt(retry: bool) -> None:
            recorded, outcome = self._status.run_once(
                vconn, state.handle, op_key, retry,
                statement if script else sql, script=script)
            state.rowcount = (recorded if outcome is None
                              else max(outcome.rowcount, 0))

        self._once(vconn, attempt)
        state.mode = StatementMode.UPDATE
        self.stats["wrapped_updates"] += 1

    def _commit(self, vconn: VirtualConnection,
                state: StatementState) -> None:
        """The application's COMMIT, a status record in its exchange: after
        a failure the record, not ``_handle_failure``, tells success (its
        answer was lost) from 40001 (it died with the session)."""
        op_key = self._next_op_key()
        vconn.in_app_txn = False
        try:
            self._once(vconn, lambda retry: self._status.run_once(
                vconn, state.handle, op_key, retry, rows_affected="0",
                script=self.meter.costs.persist_pipeline))
        except ReproError:
            self._discard_staged(vconn)
            raise
        self._promote_staged(vconn)

    # ------------------------------------------------------------------
    # Row delivery
    # ------------------------------------------------------------------

    def fetch(self, statement: StatementHandle):
        state = self._state_of(statement)
        if state is None or state.mode in (StatementMode.NONE,
                                           StatementMode.PASSTHROUGH):
            return super().fetch(statement)
        if state.mode is StatementMode.CACHED:
            self.meter.charge(CLIENT_CPU,
                              self.meter.costs.cache_fetch_seconds,
                              "cache fetch")
            row = self._cache.next_row(state)
            return (SQL_NO_DATA, None) if row is None else (SQL_SUCCESS,
                                                            row)
        if state.mode is StatementMode.PERSISTED:
            if self.driver.rows_held(statement):
                # Client memory: no request, nothing to mask.
                statement.clear_diag()
                row = self.driver.fetch_one(statement)
            else:
                vconn = self._require_vconn(statement.connection)
                rc, row = self._guard(statement, lambda: self._with_recovery(
                    vconn, lambda: self._fetch_persisted_row(statement)))
                if rc != SQL_SUCCESS:
                    return rc, None
            if row is None:
                state.finished = True
                return SQL_NO_DATA, None
            state.position += 1
            return SQL_SUCCESS, row
        return super().fetch(statement)

    def _fetch_persisted_row(self, statement: StatementHandle):
        """One driver fetch of a persisted row.  The paper's per-row
        delivery adds Phoenix's own per-row work to each."""
        row = self.driver.fetch_one(statement)
        if not self.meter.costs.batch_delivery:
            self.meter.charge(
                CLIENT_CPU, self.meter.costs.persisted_fetch_extra_seconds,
                "persisted fetch extra")
        return row

    def fetch_block(self, statement: StatementHandle, max_rows: int):
        state = self._state_of(statement)
        if state is not None and state.mode is StatementMode.CACHED:
            rows = []
            while len(rows) < max_rows:
                row = self._cache.next_row(state)
                if row is None:
                    break
                rows.append(row)
            self.meter.charge(
                CLIENT_CPU,
                max(1, len(rows))
                * self.meter.costs.cache_block_read_per_row_seconds,
                "cache block fetch")
            return (SQL_NO_DATA, []) if not rows else (SQL_SUCCESS, rows)
        if state is not None and state.mode is StatementMode.PERSISTED:
            vconn = self._require_vconn(statement.connection)
            rc, rows = self._guard(statement, lambda: self._with_recovery(
                vconn, lambda: self.driver.fetch_block(statement, max_rows)))
            if rc != SQL_SUCCESS:
                return rc, []
            if not rows:
                state.finished = True
                return SQL_NO_DATA, []
            state.position += len(rows)
            return SQL_SUCCESS, rows
        return super().fetch_block(statement, max_rows)

    def fetch_scroll(self, statement: StatementHandle, orientation: str,
                     offset: int = 0):
        """Scrollable fetch over a *persistent* cursor.

        Phoenix makes cursors recoverable for free: a CACHED result
        scrolls in client memory, and a PERSISTED result scrolls by
        position arithmetic over the materialized table (reopen +
        server-side advance for backward moves) — the remembered position
        doubles as the crash-recovery reposition target, so cursors
        survive server failures like everything else.
        """
        state = self._state_of(statement)
        if state is None or state.mode not in (StatementMode.CACHED,
                                               StatementMode.PERSISTED):
            return super().fetch_scroll(statement, orientation, offset)

        if state.mode is StatementMode.CACHED:
            self.meter.charge(CLIENT_CPU,
                              self.meter.costs.cache_fetch_seconds,
                              "cache scroll")
            size = len(state.cache_rows)
            current = size if state.finished else state.cache_position - 1
            target = scroll_target(orientation, offset, current, size)
            if target < 0 or target >= size:
                state.cache_position = 0 if target < 0 else size
                state.finished = target >= size
                return SQL_NO_DATA, None
            state.cache_position = target + 1
            state.finished = False
            return SQL_SUCCESS, state.cache_rows[target]

        vconn = self._require_vconn(statement.connection)
        rc, row = self._guard(statement, lambda: self._scroll_persisted(
            vconn, state, statement, orientation, offset))
        if rc == SQL_SUCCESS and row is None:
            return SQL_NO_DATA, None
        return rc, row

    def _scroll_persisted(self, vconn, state, statement, orientation,
                          offset):
        size = self._persisted_size(vconn, state)
        current = size if state.finished else state.position - 1
        target = scroll_target(orientation, offset, current, size)
        if target < 0 or target >= size:
            # Park the cursor before-first / after-last by reopening and
            # advancing to the logical position.
            park = 0 if target < 0 else size
            state.position = park
            self._with_recovery(vconn, lambda: self._reopen_at(state, park))
            state.finished = target >= size
            return None
        if target != state.position:
            if target > state.position:
                skip = target - state.position
                skipped = self._with_recovery(
                    vconn, lambda: self.driver.advance(state.handle, skip))
                # ``advance`` may clamp (it skips only rows that exist);
                # track where the cursor really landed.
                state.position += skipped
            else:
                state.position = target
                self._with_recovery(
                    vconn, lambda: self._reopen_at(state, target))
        row = self._with_recovery(
            vconn, lambda: self._fetch_persisted_row(statement))
        if row is not None:
            state.position += 1
            state.finished = False
        return row

    def _reopen_at(self, state, position: int) -> None:
        from repro.phoenix.reposition import reposition

        self.driver.execute(state.handle,
                            f"SELECT * FROM {state.table_name}")
        reposition(self.driver, state.handle, position,
                   self.config.reposition_mode)

    def _persisted_size(self, vconn, state) -> int:
        if state.result_size >= 0:
            return state.result_size

        def count():
            with scratch_statement(self.driver, vconn.app_handle) as scratch:
                self.driver.execute(
                    scratch, f"SELECT count(*) FROM {state.table_name}")
                row = self.driver.fetch_one(scratch)
            return row[0]

        state.result_size = self._with_recovery(vconn, count)
        return state.result_size

    # ------------------------------------------------------------------
    # Metadata / cleanup
    # ------------------------------------------------------------------

    def num_result_cols(self, statement: StatementHandle) -> int:
        state = self._state_of(statement)
        if state is not None and state.columns:
            return len(state.columns)
        return super().num_result_cols(statement)

    def describe_col(self, statement: StatementHandle, position: int):
        state = self._state_of(statement)
        if state is not None and state.columns:
            column = state.columns[position - 1]
            return column.name, column.sql_type, column.length
        return super().describe_col(statement, position)

    def row_count(self, statement: StatementHandle) -> int:
        state = self._state_of(statement)
        if state is not None and state.rowcount >= 0:
            return state.rowcount
        return super().row_count(statement)

    def close_cursor(self, statement: StatementHandle) -> int:
        state = self._state_of(statement)
        if state is not None:
            vconn = self._vconns.get(statement.connection.handle_id)
            self._drop_quietly(state.table_name, vconn)
            state.reset()
            if vconn is not None:
                self._cancel_wrapped(vconn, statement)
        return super().close_cursor(statement)

    def free_statement(self, statement: StatementHandle) -> int:
        state = self._state_of(statement)
        if state is not None:
            vconn = self._vconns.get(statement.connection.handle_id)
            self._drop_quietly(state.table_name, vconn)
            if vconn is not None:
                vconn.statements.pop(statement.handle_id, None)
                self._cancel_wrapped(vconn, statement)
        return super().free_statement(statement)

    def _cancel_wrapped(self, vconn: VirtualConnection,
                        statement: StatementHandle) -> None:
        """Freeing (or closing) a wrapped statement the server holds at
        a lock: the wrapper transaction around it must not stay open (it
        may hold locks).  Its ROLLBACK is another statement on the
        connection, which cancels the held one on its way."""
        if vconn.wrapper_txn_open \
                and self.driver.outstanding(statement) is not None:
            try:
                self._status.end_transaction(vconn)
            except ReproError:
                pass  # the next wrapped statement rolls back first

    # ------------------------------------------------------------------
    # The recovery loop (§2.3)
    # ------------------------------------------------------------------

    def _once(self, vconn: VirtualConnection, attempt):
        """``_with_recovery`` over ``attempt(retry)``; ``retry``: a
        transport failure cut an earlier attempt short."""
        attempted = False

        def call():
            nonlocal attempted
            retry, attempted = attempted, True
            return attempt(retry)

        return self._with_recovery(vconn, call)

    def _with_recovery(self, vconn: VirtualConnection, operation):
        """Run ``operation``, masking server failures.

        Transport errors trigger ping/reconnect and, if the session died,
        full two-phase recovery — then the operation is retried.  Every
        operation passed here is idempotent: a write whose answer can be
        lost is guarded by the status table (``_once``).
        """
        attempts = 0
        while True:
            try:
                return operation()
            except ReproError as error:
                if not is_transport_failure(error):
                    raise
                attempts += 1
                if attempts > 5:
                    raise RecoveryFailedError(
                        f"giving up after {attempts} attempts: {error}"
                    ) from error
                outcome = self._handle_failure(vconn, error)
                # The drops failures lost go out now that the server
                # answers, after the recovery's books are closed.
                self._drop_undropped()
                if outcome == "aborted":
                    raise DeadlockError(
                        "transaction aborted by server failure; "
                        "please retry")

    def _handle_failure(self, vconn: VirtualConnection,
                        original: ReproError) -> str:
        """Detect, reconnect, recover.  Returns 'blip', 'recovered', or
        'aborted' when the application's transaction died with the
        session."""
        logger.info("failure intercepted: %s", original)
        if self._private is not None:
            # Re-dialled by the one-window reconnect of recovery, or (the
            # paper's serialized chain, and after a blip) lazily.
            self._private.connected = False
        # Failure detection is the first of the five recovery phases:
        # everything up to knowing whether the *session* (not just the
        # server) survived.  Its timer reads the clock purely, so the
        # bookkeeping itself costs no virtual time.
        with self.meter.tracer.phase("recovery.failure_detection",
                                     "phoenix") as detection:
            verdict = self._detect_failure(vconn)
        intercepted_at = detection.start
        if verdict == "down":
            # Give up and reveal the failure to the application,
            # passing along the original error (§2.3).
            logger.warning("reconnect budget exhausted; exposing failure")
            raise original
        if verdict == "blip":
            self.stats["blips"] += 1
            logger.info("session survived (network blip); retrying")
            return "blip"
        while True:
            try:
                self._recovery.recover_connection(vconn, intercepted_at)
                break
            except ReproError as error:
                # A failure during recovery: recovery is idempotent, so
                # wait for the server and run it again.
                if not is_transport_failure(error):
                    raise
                if not self._detector.await_server():
                    raise original
        self.stats["recoveries"] += 1
        logger.info("virtual session recovered: phases=%s",
                    self._recovery.last_phase_seconds)
        if vconn.in_app_txn:
            # The server aborted the application's transaction with the
            # crash; surface that as a normal transaction failure now
            # that the session itself is whole again.  Results the dead
            # transaction staged for the shared cache die with it.
            vconn.in_app_txn = False
            self._discard_staged(vconn)
            return "aborted"
        return "recovered"

    # ------------------------------------------------------------------
    # Experiment instrumentation
    # ------------------------------------------------------------------

    def _detect_failure(self, vconn: VirtualConnection) -> str:
        """Ping until the server answers, then probe the session.

        Returns ``'down'`` (budget exhausted), ``'blip'`` (session
        survived — a network glitch) or ``'dead'`` (session lost; full
        recovery needed).
        """
        if not self._detector.await_server():
            return "down"
        if self._detector.session_survived(vconn.app_handle,
                                           vconn.probe_table):
            return "blip"
        return "dead"

    @property
    def recovery_phase_seconds(self) -> dict[str, float]:
        """Phase timings of the most recent session recovery (Fig. 3/4)."""
        return dict(self._recovery.last_phase_seconds)

    @property
    def recovery_phase_breakdown(self) -> dict[str, float]:
        """Five-phase breakdown of the most recent session recovery,
        keyed by :data:`repro.obs.RECOVERY_PHASES` names."""
        return dict(self._recovery.last_phase_breakdown)

    @property
    def persist_step_seconds(self) -> dict[str, float]:
        """Step timings of the most recent result persistence (§3.5)."""
        return dict(self._persistor.last_step_seconds)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _private_connection(self) -> ConnectionHandle:
        """Phoenix's own connection for masked activity (§2.2)."""
        if self._private is None or not self._private.connected:
            # Installed only once it is usable: a failure in here must
            # not leave a half-made handle marked connected.
            private = ConnectionHandle(self._private_env)
            self.driver.connect(private, "phoenix-private")
            self._status.ensure(private)
            self._private = private
        return self._private

    def _redial_private(self) -> None:
        """Replace the private connection whatever its handle claims
        (recovery calls this; the old session died with the server)."""
        if self._private is not None:
            self._private.connected = False
        self._private_connection()

    def _next_op_key(self) -> str:
        self._op_seq += 1
        return f"{self._nonce}_{self._op_seq}"

    def _require_vconn(self, connection: ConnectionHandle) -> VirtualConnection:
        vconn = self._vconns.get(connection.handle_id)
        if vconn is None:
            raise EngineError("connection was not opened through Phoenix")
        return vconn

    def _state_of(self, statement: StatementHandle) -> StatementState | None:
        vconn = self._vconns.get(statement.connection.handle_id)
        if vconn is None:
            return None
        return vconn.statements.get(statement.handle_id)

    def _drop_quietly(self, table_name: str,
                      vconn: VirtualConnection | None = None) -> None:
        if not table_name:
            return
        for attempt in (1, 2):
            try:
                # A table created inside a still-open application
                # transaction is X-locked by it; drop it on the app
                # connection (joining the transaction) instead of
                # deadlocking from the private connection.
                if vconn is not None and vconn.in_app_txn \
                        and vconn.app_handle.connected:
                    connection = vconn.app_handle
                else:
                    connection = self._private_connection()
                self._persistor.drop_result_table(connection, table_name)
            except ReproError as error:
                # A timeout may have lost only the exchange, with the
                # server up: try once more.  Otherwise best-effort,
                # except that a drop the server never applied leaves a
                # durable table behind: owe it.
                if attempt == 1 and isinstance(error, RequestTimeoutError):
                    continue
                if is_transport_failure(error):
                    self._undropped.append(table_name)
            return

    def _drop_undropped(self) -> None:
        """Issue the drops failures lost, on the private connection."""
        undropped, self._undropped = self._undropped, []
        for table_name in undropped:
            self._drop_quietly(table_name)
