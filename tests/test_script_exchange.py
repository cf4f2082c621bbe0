"""One exchange per persisted result and per wrapped update.

On the default chain (``CostModel.persist_pipeline``) Phoenix sends a
persist as one script request — ``BEGIN TRANSACTION; CREATE TABLE T AS
<q>; <status row>; COMMIT; SELECT * FROM T`` — and a wrapped autocommit
statement as ``BEGIN TRANSACTION; <stmt>; <status row with @rowcount>;
COMMIT``.  ``CostModel.paper()`` keeps §2.1's recipe.  These tests hold
the two chains to the same observable behaviour, and hold the script
exchange to exactly-once under the fault the status table exists for: a
crash after the server applied a request, before its response left.
"""

import pytest

from repro.errors import SqlSyntaxError
from repro.odbc.constants import SQL_ERROR, SQL_STILL_EXECUTING, SQL_SUCCESS
from repro.phoenix.config import PhoenixConfig
from repro.phoenix.parse import script_statement
from repro.phoenix.status_table import StatusTable
from repro.server.protocol import ExecuteRequest
from repro.server.server import DatabaseServer
from repro.sim.costs import CostModel
from repro.sim.meter import Meter
from repro.sql.lexer import split_script
from repro.sql.parser import parse_statement
from repro.workloads.app import BenchmarkApp
from tests.schedules import (
    ClientRun,
    ClientWorld,
    Fault,
    Schedule,
    Step,
    exactly_once,
    same_results,
    same_status,
    session_steps,
)
from tests.test_result_cache_read_sets import POINT, CacheWorld

CHAINS = {"paper": CostModel.paper, "default": CostModel}

LEDGER_ROWS = 40
DRAIN_SQL = "SELECT k, v, pad FROM ledger ORDER BY k"
UPDATE_SQL = "UPDATE ledger SET v = v + 1 WHERE k = 3"
LEDGER_SETUP = (
    "CREATE TABLE ledger (k INT NOT NULL, v INT, pad VARCHAR(24), "
    "PRIMARY KEY (k))",
    "INSERT INTO ledger VALUES " + ", ".join(
        f"({i}, 0, 'pad-{i}')" for i in range(LEDGER_ROWS)),
)


def ledger_world(chain: str, **cost_overrides):
    """A ledger of ``LEDGER_ROWS`` rows (v = 0), a native app and a
    Phoenix app without client cache, so every result is persisted.  A
    16-byte output buffer spreads a drain over many requests."""
    meter = Meter(CHAINS[chain](output_buffer_bytes=16, **cost_overrides))
    server = DatabaseServer(meter=meter)
    native = BenchmarkApp(server)
    for sql in LEDGER_SETUP:
        native.run_statement(sql)
    phoenix = BenchmarkApp(server, use_phoenix=True,
                           phoenix_config=PhoenixConfig(client_cache_rows=0))
    return server, native, phoenix


def persisted_tables(server) -> list[str]:
    return sorted(name for name in server.engine.catalog.tables
                  if name.startswith("phoenix_rs_"))


def status_rows(server) -> list:
    """The status table, read by a fresh native session."""
    return BenchmarkApp(server).query_rows(
        "SELECT op_key, rows_affected FROM phoenix_status ORDER BY op_key")


# ---------------------------------------------------------------------------
# The script request, server side
# ---------------------------------------------------------------------------


def test_split_script_cuts_on_statement_separators_only():
    assert split_script("BEGIN TRANSACTION; INSERT INTO t VALUES "
                        "('a;b', 1) ;; COMMIT;") == [
        "BEGIN TRANSACTION", "INSERT INTO t VALUES ('a;b', 1)", "COMMIT"]
    create = parse_statement("CREATE TABLE t AS SELECT k FROM s")
    assert create.name == "t" and create.columns == []
    assert create.query is not None


def test_script_reports_each_outcome_and_binds_rowcount():
    server, native, _phoenix = ledger_world("default")
    token = native.conn.session_token
    response = server.handle(ExecuteRequest(
        session_token=token, script=True,
        sql="BEGIN TRANSACTION; UPDATE ledger SET v = 5 WHERE k < 4; "
            "INSERT INTO phoenix_status VALUES ('x', @rowcount); COMMIT; "
            "SELECT rows_affected FROM phoenix_status WHERE op_key = 'x'"))
    assert [o.rowcount for o in response.outcomes] == [-1, 4, 1, -1]
    assert response.kind == "rows" and response.rows == [(4,)]
    session = server._sessions[token].engine_session
    assert not session.in_transaction


def test_failed_script_rolls_back_the_transaction_it_began():
    server, native, _phoenix = ledger_world("default")
    token = native.conn.session_token
    with pytest.raises(Exception):
        server.handle(ExecuteRequest(
            session_token=token, script=True,
            sql="BEGIN TRANSACTION; UPDATE ledger SET v = 9 WHERE k = 1; "
                "CREATE TABLE phoenix_rs_bad AS SELECT nope FROM ledger; "
                "COMMIT"))
    assert not server._sessions[token].engine_session.in_transaction
    assert native.query_rows("SELECT v FROM ledger WHERE k = 1") == [(0,)]
    assert persisted_tables(server) == []


def test_a_text_of_several_statements_goes_the_papers_way():
    """A ``;`` inside a literal keeps an update one exchange; a procedure
    body of two statements, which the server would cut apart, is
    wrapped the paper's way and still runs whole."""
    _server, native, phoenix = ledger_world("default")
    sent = phoenix.network.requests_sent
    phoenix.run_statement("UPDATE ledger SET pad = 'a;b' WHERE k = 1")
    assert phoenix.network.requests_sent - sent == 1
    phoenix.run_statement("CREATE PROCEDURE two AS UPDATE ledger SET v = 1 "
                          "WHERE k = 2; UPDATE ledger SET v = 2 WHERE k = 3")
    phoenix.run_statement("EXEC two")
    assert native.query_rows("SELECT k, v, pad FROM ledger WHERE k < 4 "
                             "ORDER BY k") == [
        (0, 0, "pad-0"), (1, 0, "a;b"), (2, 1, "pad-2"), (3, 2, "pad-3")]


def test_split_script_refuses_a_text_whose_end_it_cannot_tell():
    for text in ("UPDATE t SET s = 'open; COMMIT",
                 "UPDATE t SET v = 1 /* open; COMMIT"):
        with pytest.raises(SqlSyntaxError):
            split_script(text)
        assert script_statement(text) is None
    assert script_statement("UPDATE t SET v = 1 -- note; more") \
        == "UPDATE t SET v = 1 -- note; more"


@pytest.mark.parametrize("in_app_txn", [False, True],
                         ids=["autocommit", "app_txn"])
def test_a_trailing_line_comment_stays_inside_its_statement(in_app_txn):
    """The application's text ends in ``-- note``: embedded in a script,
    the comment must not swallow the status record, the COMMIT or the
    read-back behind it."""
    server, native, phoenix = ledger_world("default")
    if in_app_txn:
        phoenix.run_statement("BEGIN TRANSACTION")
    counters = server.meter.counters
    executes = counters.get("net.requests.ExecuteRequest", 0)
    statement = phoenix.manager.alloc_statement(phoenix.conn)
    assert phoenix.manager.exec_direct(
        statement, f"{UPDATE_SQL} -- note; not a statement") == SQL_SUCCESS
    assert phoenix.manager.row_count(statement) == 1
    assert phoenix.manager.exec_direct(
        statement, f"{DRAIN_SQL} -- note") == SQL_SUCCESS
    # One script exchange each.
    assert counters["net.requests.ExecuteRequest"] - executes == 2
    rows = []
    while True:
        rc, row = phoenix.manager.fetch(statement)
        if rc != SQL_SUCCESS:
            break
        rows.append(row)
    if in_app_txn:
        phoenix.run_statement("COMMIT")
    expected = native.query_rows(DRAIN_SQL)
    assert rows == expected and expected[3][1] == 1
    assert server.engine.txns.active_transactions == {}
    # The update's record and the persisted result's, when each ran
    # under its own status record; else the application COMMIT's.
    assert len(status_rows(server)) == (1 if in_app_txn else 2)


# ---------------------------------------------------------------------------
# Same behaviour on both chains
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("chain", list(CHAINS))
def test_a_trailing_line_comment_stays_inside_the_persisted_query(chain):
    """The persisted query ends in ``-- note``: wrapped in the paper
    chain's metadata probe or the default chain's script, the comment
    must not swallow what Phoenix writes after the query."""
    _server, native, phoenix = ledger_world(chain)
    sql = "SELECT k, v FROM ledger ORDER BY k -- note"
    assert phoenix.query_rows(sql) == native.query_rows(sql)


def test_persisted_result_describes_the_same_columns_on_both_chains():
    sql = ("SELECT k, pad, 'lit' AS tag, k * 2 AS twice, upper(pad) "
           "FROM ledger ORDER BY k")
    described = {}
    for chain in CHAINS:
        _server, native, phoenix = ledger_world(chain)
        for name, app in (("native", native), (chain, phoenix)):
            statement = app.manager.alloc_statement(app.conn)
            assert app.manager.exec_direct(statement, sql) == SQL_SUCCESS
            described[name] = [
                app.manager.describe_col(statement, position)
                for position in range(
                    1, app.manager.num_result_cols(statement) + 1)]
    assert described["default"] == described["paper"]
    assert described["paper"] == described["native"]
    assert len(described["paper"]) == 5


def test_persisted_table_lays_out_pages_as_the_rendered_create_did():
    """``CREATE TABLE T AS <q>`` types T's columns the way the paper's
    chain spells them out with ``_render_type``: same columns, same rows
    per page, same pages."""
    sql = ("SELECT k, pad, 'lit', upper(pad), k * 2, d, m, b, c "
           "FROM mixed ORDER BY k")
    layouts = {}
    for chain in CHAINS:
        server, native, phoenix = ledger_world(chain)
        native.run_statement(
            "CREATE TABLE mixed (k INT NOT NULL, pad VARCHAR(20), d DATE, "
            "m DECIMAL(8,2), b BIGINT, c CHAR(4), PRIMARY KEY (k))")
        native.run_statement("INSERT INTO mixed VALUES " + ", ".join(
            f"({i}, 'p{i}', date '1995-01-01', {i}.5, {i}, 'wxyz')"
            for i in range(300)))
        statement = phoenix.manager.alloc_statement(phoenix.conn)
        assert phoenix.manager.exec_direct(statement, sql) == SQL_SUCCESS
        (name,) = persisted_tables(server)
        table = server.engine.table(name)
        layouts[chain] = (table.info.columns, table.heap.rows_per_page,
                          table.heap.page_count)
    assert layouts["default"] == layouts["paper"]
    columns = layouts["paper"][0]
    rendered = [f"{c.sql_type.value}({c.length})" if c.sql_type.is_text
                else c.sql_type.value for c in columns]
    assert rendered[:5] == ["INTEGER", "VARCHAR(20)", "VARCHAR(3)",
                            "VARCHAR(64)", "FLOAT"]


@pytest.mark.parametrize("bad_sql", [
    "SELECT nope FROM ledger",
    "SELECT k FROM no_such_table",
    "SELECT k FROM ledger WHERE",
], ids=["column", "table", "syntax"])
@pytest.mark.parametrize("chain", list(CHAINS))
def test_persisted_query_error_is_the_native_error(chain, bad_sql):
    server, native, phoenix = ledger_world(chain)
    states = []
    for app in (native, phoenix):
        statement = app.manager.alloc_statement(app.conn)
        assert app.manager.exec_direct(statement, bad_sql) == SQL_ERROR
        states.append(app.manager.get_diag(statement)[-1].sqlstate)
    assert states[0] == states[1]
    assert persisted_tables(server) == []
    assert server.engine.txns.active_transactions == {}
    # The session is still usable, and no wrapper transaction leaked.
    assert phoenix.query_rows("SELECT count(*) FROM ledger") == [
        (LEDGER_ROWS,)]


def test_held_script_resumes_where_it_waited():
    """A wrapped update whose UPDATE meets a row lock holds the script at
    that statement.  Resumed, it runs the UPDATE again without a second
    parse and goes on with the status row and the COMMIT: BEGIN does not
    run again, and the resuming call sends nothing."""
    server, _native, holder = ledger_world("default")
    waiter = BenchmarkApp(server, use_phoenix=True, login="waiter",
                          phoenix_config=PhoenixConfig())
    meter = server.meter
    holder.run_statement("BEGIN TRANSACTION")
    holder.run_statement("UPDATE ledger SET v = v + 1 WHERE k = 3")
    charges = meter.push_recorder()

    def parses() -> int:
        return sum(charge.note == "statement parse/plan"
                   for charge in charges)

    statement = waiter.manager.alloc_statement(waiter.conn)
    assert waiter.manager.exec_direct(statement, UPDATE_SQL) \
        == SQL_STILL_EXECUTING
    assert parses() == 2           # BEGIN, the UPDATE
    holder.run_statement("COMMIT")
    parsed, sent = parses(), waiter.network.requests_sent
    assert waiter.manager.exec_direct(statement, UPDATE_SQL) == SQL_SUCCESS
    meter.pop_recorder(charges)
    assert waiter.network.requests_sent == sent
    # The status row and the COMMIT; the UPDATE ran again unparsed.
    assert parses() - parsed == 2
    assert waiter.manager.row_count(statement) == 1
    assert waiter.query_rows("SELECT v FROM ledger WHERE k = 3") == [(2,)]
    assert meter.counters.get("locks.held_statements_cancelled", 0) == 0
    # The holder's COMMIT's record, the update's, and the read-back's
    # persisted result's.
    assert [count for _key, count in status_rows(server)] == [0, 1, 0]


# ---------------------------------------------------------------------------
# Satellite bug: a re-executed handle leaked its server cursor
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("leg", ["native", "paper", "default"])
def test_reexecuting_a_handle_leaves_one_open_result(leg):
    server, native, phoenix = ledger_world(
        "paper" if leg == "paper" else "default")
    app = native if leg == "native" else phoenix
    statement = app.manager.alloc_statement(app.conn)
    for _ in range(3):
        assert app.manager.exec_direct(statement, DRAIN_SQL) == SQL_SUCCESS
        assert app.manager.fetch(statement)[0] == SQL_SUCCESS
    session = server._sessions[app.conn.session_token]
    assert len(session.results) == 1


# ---------------------------------------------------------------------------
# A crash after apply, before the response, at every request
# ---------------------------------------------------------------------------

def crash_after_apply_at_every_request(chain, steps,
                                       monkeypatch) -> ClientRun:
    """For every request of ``steps``, the server applies it and crashes
    before answering.  The rows delivered are the fault-free rows, the
    ledger holds each acknowledged update once, no persisted table or
    status row is duplicated — and the status lookups the retries make
    do find the records the lost responses would have acknowledged.
    Returns the fault-free run."""
    lookups = {"found": 0}
    completed = StatusTable.completed

    def counting(self, connection, op_key):
        recorded = completed(self, connection, op_key)
        lookups["found"] += recorded is not None
        return recorded

    monkeypatch.setattr(StatusTable, "completed", counting)
    # The ledger, and item 18's procedure.
    schedule = Schedule(LEDGER_SETUP + ("CREATE PROCEDURE bump AS "
                                        + UPDATE_SQL,), tuple(steps))

    def play(reference=None, *faults):
        world = ClientWorld(CHAINS[chain](output_buffer_bytes=16),
                            schedule.setup)
        return ClientRun(world, schedule.under(*faults), reference)

    reference = play()
    assert lookups["found"] == 0
    for crash_at in range(1, reference.world.applied + 1):
        run = play(reference, Fault(crash_at, point="after"))
        run.check(same_results, same_status, exactly_once)
        assert run.world.apps[0].manager.stats["recoveries"] == 1, \
            run.where
        assert persisted_tables(run.world.server) == [], run.where
    assert lookups["found"] > 0
    return reference


@pytest.mark.parametrize("chain", list(CHAINS))
def test_crash_after_apply_at_every_request(chain, monkeypatch):
    """One persisted drain and one wrapped update."""
    steps = session_steps(0, DRAIN_SQL, UPDATE_SQL)
    reference = crash_after_apply_at_every_request(chain, steps, monkeypatch)
    _server, native, _phoenix = ledger_world(chain)
    assert reference.observed == [
        (SQL_SUCCESS, native.query_rows(DRAIN_SQL)), (SQL_SUCCESS, 1)]
    assert reference.world.applied > 5


@pytest.mark.parametrize("steps", [
    session_steps(0, "BEGIN TRANSACTION", UPDATE_SQL, "COMMIT"),
    [Step(0, "EXEC bump")],
], ids=["app-commit", "exec"])
@pytest.mark.parametrize("chain", list(CHAINS))
def test_crash_after_apply_in_a_transaction_or_exec(chain, steps,
                                                   monkeypatch):
    """Item 18's two writes that bypass the status table: the
    application's own COMMIT, whose lost answer comes back as 40001
    although the transaction is durable (the application replays it),
    and an ``EXEC``, which Phoenix resubmits."""
    crash_after_apply_at_every_request(chain, steps, monkeypatch)


# ---------------------------------------------------------------------------
# Writes outside the update wrapper: the application's COMMIT and EXEC
# ---------------------------------------------------------------------------

BUMP = "UPDATE t SET v = v + 1000 WHERE a = 1 AND b = 1"


def crash_after_applying(server, app, head: str) -> list:
    """Crash and restart ``server`` once, after it applied the first
    request of ``app`` whose text starts with ``head``; returns the
    requests it fired on."""
    fired = []

    def dies_answering(request):
        if getattr(request, "sql", "").startswith(head) and not fired:
            fired.append(request)
            server.crash()
            server.restart()

    app.network.after_apply_injector = dies_answering
    return fired


def run_through(app, sql: str):
    """``(rc, row count)`` of ``sql`` through ``app``'s manager."""
    statement = app.manager.alloc_statement(app.conn)
    rc = app.manager.exec_direct(statement, sql)
    count = app.manager.row_count(statement)
    app.manager.free_statement(statement)
    return rc, count


@pytest.mark.parametrize("pipeline", [False, True], ids=["paper", "default"])
def test_a_commit_whose_answer_is_lost_reports_success(pipeline):
    """The server applies the application's COMMIT and dies before it
    answers.  The COMMIT's status record is durable with the
    transaction, so Phoenix reports success — not 40001, which an
    application would answer by applying the transaction again."""
    world = CacheWorld(persist_pipeline=pipeline)
    writer = world.writer
    writer.run_statement("BEGIN TRANSACTION")
    writer.run_statement(BUMP)
    # The guard travels in the COMMIT's own exchange on the default
    # chain; the paper's sends the record, then the COMMIT.
    fired = crash_after_applying(
        world.server, writer,
        "INSERT INTO phoenix_status" if pipeline else "COMMIT")
    assert run_through(writer, "COMMIT")[0] == SQL_SUCCESS
    assert fired and writer.manager.stats["recoveries"] == 1
    assert fired[0].sql.endswith("COMMIT")
    assert world.read(POINT.format(1, 1))[0] == [(1011,)]


@pytest.mark.parametrize("pipeline", [False, True], ids=["paper", "default"])
def test_an_exec_whose_answer_is_lost_is_applied_once(pipeline):
    """``EXEC bump`` outside a transaction is wrapped like an update: the
    server applies it and dies before it answers, and the retry finds
    its status record instead of running the procedure again."""
    world = CacheWorld(extra_schema=(f"CREATE PROCEDURE bump AS {BUMP}",),
                       persist_pipeline=pipeline)
    fired = crash_after_applying(world.server, world.writer, "EXEC bump")
    assert run_through(world.writer, "EXEC bump") == (SQL_SUCCESS, 1)
    assert fired and world.writer.manager.stats["recoveries"] == 1
    assert world.read(POINT.format(1, 1))[0] == [(1011,)]


@pytest.mark.parametrize("chain", list(CHAINS))
def test_an_exec_that_returns_rows_delivers_them(chain):
    """A procedure that ends in a query: wrapped outside a transaction,
    passed through inside one, its rows reach the application — also
    when the server dies answering the wrapper's COMMIT, because they
    were read before it."""
    server, native, phoenix = ledger_world(chain)
    native.run_statement("CREATE PROCEDURE who (@v INT) AS "
                         "SELECT k, pad FROM ledger WHERE k < @v")
    expected = native.query_rows("EXEC who 3")
    assert expected == [(0, "pad-0"), (1, "pad-1"), (2, "pad-2")]
    assert phoenix.query_rows("EXEC who 3") == expected
    phoenix.run_statement("BEGIN TRANSACTION")
    assert phoenix.query_rows("EXEC who 3") == expected
    phoenix.run_statement("COMMIT")
    fired = crash_after_applying(server, phoenix, "COMMIT")
    assert phoenix.query_rows("EXEC who 3") == expected
    assert fired and phoenix.manager.stats["recoveries"] == 1


@pytest.mark.parametrize("chain", list(CHAINS))
def test_analyze_sent_again_after_a_lost_answer_keeps_its_statistics(chain):
    """ANALYZE is not wrapped: sent again after the server applied it
    and died, it recomputes the statistics it had written."""
    statistics = []
    for faulty in (False, True):
        server, _native, phoenix = ledger_world(chain)
        if faulty:
            fired = crash_after_applying(server, phoenix, "ANALYZE")
        phoenix.run_statement("ANALYZE ledger")
        assert phoenix.manager.stats["recoveries"] == int(faulty)
        statistics.append(server.engine.catalog.get_table_stats("ledger"))
    assert fired and statistics[0] is not None
    assert statistics[1] == statistics[0]
