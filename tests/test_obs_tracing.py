"""The observability subsystem: spans, counters, views, export, report.

Covers the tracer's nesting rules, the ``sys_*`` views (including the
acceptance scenario: a crash mid-fetch must leave one
``sys_recovery_phases`` row per phase with nonzero durations), the JSONL
export/validate round trip, and the report's rendering of a record
stream.
"""

import pytest

from repro.obs import RECOVERY_PHASES
from repro.obs.export import export_trace, load_records, trace_records
from repro.obs.report import (bucket_counts, recovery_rows, render,
                              span_section)
from repro.obs.trace import NOOP_SPAN, Tracer
from repro.obs.validate import validate_records, validate_spans
from repro.odbc.constants import SQL_SUCCESS
from repro.phoenix.config import PhoenixConfig
from repro.server.server import DatabaseServer
from repro.sim.costs import CostModel
from repro.sim.meter import Meter
from repro.workloads.app import BenchmarkApp


# ---------------------------------------------------------------------------
# Tracer mechanics
# ---------------------------------------------------------------------------


def make_tracer(clock={"now": 0.0}):
    clock = dict(clock)

    def now():
        return clock["now"]

    tracer = Tracer(now, enabled=True)
    return tracer, clock


def test_spans_nest_parent_child():
    tracer, clock = make_tracer()
    with tracer.span("outer", layer="a") as outer:
        clock["now"] = 1.0
        with tracer.span("inner", layer="b") as inner:
            clock["now"] = 2.0
        clock["now"] = 3.0
    assert inner.parent_id == outer.span_id
    assert outer.parent_id == 0
    assert (outer.start, outer.end) == (0.0, 3.0)
    assert (inner.start, inner.end) == (1.0, 2.0)
    assert [s.name for s in tracer.finished] == ["inner", "outer"]
    assert validate_spans(tracer.finished) == []
    assert tracer.open_span_count == 0


def test_error_inside_span_closes_with_error_status():
    tracer, _clock = make_tracer()
    with pytest.raises(ValueError):
        with tracer.span("fails"):
            raise ValueError("boom")
    (span,) = tracer.finished
    assert span.status == "error"
    assert tracer.open_span_count == 0


def test_stream_spans_may_overlap_siblings():
    tracer, clock = make_tracer()
    with tracer.span("parent"):
        stream = tracer.start_stream("lazy", layer="executor")
    clock["now"] = 5.0
    with tracer.span("sibling"):
        clock["now"] = 6.0
    tracer.end_stream(stream)  # outlives parent and sibling
    assert validate_spans(tracer.finished) == []


def test_disabled_tracer_hands_out_noop_spans():
    tracer, _clock = make_tracer()
    tracer.disable()
    span_ctx = tracer.span("ignored")
    assert span_ctx is NOOP_SPAN
    with span_ctx as span:
        span.set_attr("x", 1)  # must not blow up
    assert len(tracer.finished) == 0


def test_ring_buffer_drops_oldest_and_counts():
    def now():
        return 0.0

    tracer = Tracer(now, enabled=True, max_spans=3)
    for i in range(5):
        with tracer.span(f"s{i}"):
            pass
    assert len(tracer.finished) == 3
    assert tracer.dropped == 2
    assert [s.name for s in tracer.finished] == ["s2", "s3", "s4"]


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def test_histogram_buckets_and_rollups():
    """The report's span histograms count each duration into the first
    bucket whose bound it does not exceed."""
    assert bucket_counts((0.5, 5.0, 50.0, 0.2), (1.0, 10.0)) == [2, 1, 1]
    assert bucket_counts((1.0, 10.0, 10.5), (1.0, 10.0)) == [1, 1, 1]
    spans = [{"type": "span", "layer": "a", "start": 0.0, "end": d}
             for d in (0.0005, 0.002, 0.0025, 50.0)]
    text = span_section(spans, "h")
    assert "<=   0.001s" in text and text.count("#") > 0
    assert [line.split()[-1] for line in text.splitlines()
            if line.startswith("  <=")] == ["1", "2", "1"]


def test_meter_counters_are_the_registry_counters():
    meter = Meter()
    meter.count("pages_read", 3)
    meter.count("pages_read")
    assert meter.counters == {"pages_read": 4}
    meter.reset_traces()
    assert meter.counters == {}


def test_peek_now_never_flushes_pending_batch():
    from repro.sim.costs import SERVER_CPU

    meter = Meter()
    meter.charge_batched(SERVER_CPU, 0.25, "hot loop")
    assert meter.peek_now() == pytest.approx(0.25)
    assert meter._pending is not None  # still pending: peek was pure
    assert meter.now == pytest.approx(0.25)  # .now flushes
    assert meter._pending is None


# ---------------------------------------------------------------------------
# The acceptance scenario: crash mid-fetch, then query the views
# ---------------------------------------------------------------------------


def crashed_phoenix_world(default_chain: bool = False):
    """A persisted result, the server crashed three rows into it, and the
    fetch that recovers.  ``default_chain``: the persist is one script
    exchange and recovery the login-carried chain (``persist_pipeline``);
    otherwise the paper's recipe and serialized recovery."""
    meter = Meter(CostModel(output_buffer_bytes=16,
                            persist_pipeline=default_chain))
    meter.tracer.enable()
    server = DatabaseServer(meter=meter)
    setup = BenchmarkApp(server)
    setup.run_statement("CREATE TABLE t (k INT NOT NULL, v INT, "
                        "PRIMARY KEY (k))")
    setup.run_statement("INSERT INTO t VALUES " + ", ".join(
        f"({i}, {i})" for i in range(12)))
    app = BenchmarkApp(server, use_phoenix=True,
                       phoenix_config=PhoenixConfig())
    statement = app.manager.alloc_statement(app.conn)
    assert app.manager.exec_direct(
        statement, "SELECT k, v FROM t ORDER BY k") == SQL_SUCCESS
    assert app.manager.persist_step_seconds.keys() == (
        {"script"} if default_chain
        else {"metadata", "create_table", "load", "reopen"})
    for _ in range(3):
        rc, _row = app.manager.fetch(statement)
        assert rc == SQL_SUCCESS
    server.crash()
    server.restart()
    rc, _row = app.manager.fetch(statement)  # triggers recovery
    assert rc == SQL_SUCCESS
    return server, app


def session_recovery_rows(app):
    """``sys_recovery_phases`` after one crash: the server's restart
    (recovery 1, the three WAL passes, redo followed by one row per
    partition when it ran in parallel) comes first, then the session's
    recovery (2); returns the latter's rows."""
    rows = app.query_rows("SELECT recovery_id, phase, seconds "
                          "FROM sys_recovery_phases")
    restart = [row for row in rows if row[0] == 1]
    assert rows[:len(restart)] == restart
    assert [phase for _rid, phase, _s in restart
            if not phase.startswith("wal_redo_file_")] == \
        ["wal_analysis", "wal_redo", "wal_undo"]
    assert restart[1][2] > 0, "redo read no log"
    assert {rid for rid, _phase, _s in rows[len(restart):]} == {2}
    return rows[len(restart):]


def test_sys_recovery_phases_row_per_phase_nonzero():
    _server, app = crashed_phoenix_world()
    rows = session_recovery_rows(app)
    assert [phase for _rid, phase, _s in rows] == list(RECOVERY_PHASES)
    for _rid, phase, seconds in rows:
        assert seconds > 0, f"phase {phase} has zero duration"
    assert app.manager.recovery_phase_breakdown.keys() \
        == set(RECOVERY_PHASES)
    # Under the login-carried chain the options ride the reconnect: the
    # phase keeps its row, in order, and is legitimately zero.
    _server, app = crashed_phoenix_world(default_chain=True)
    rows = session_recovery_rows(app)
    assert [phase for _rid, phase, _s in rows] == list(RECOVERY_PHASES)
    for _rid, phase, seconds in rows:
        if phase == "option_replay":
            assert seconds == 0
        else:
            assert seconds > 0, f"phase {phase} has zero duration"
    assert list(app.manager.recovery_phase_breakdown) \
        == list(RECOVERY_PHASES)


def test_sys_traces_and_sys_metrics_views():
    _server, app = crashed_phoenix_world()
    layers = dict(app.query_rows(
        "SELECT layer, count(*) FROM sys_traces GROUP BY layer"))
    for layer in ("phoenix", "server", "engine", "wal"):
        assert layers.get(layer, 0) > 0, f"no spans in layer {layer}"
    recover = app.query_rows(
        "SELECT duration_s FROM sys_traces "
        "WHERE name = 'phoenix.recover'")
    assert len(recover) == 1 and recover[0][0] > 0
    counters = app.query_rows(
        "SELECT name, value FROM sys_metrics WHERE kind = 'counter'")
    assert dict(counters).get("log_forces", 0) > 0


def test_sys_plan_cache_reports_sessions_and_evictions():
    _server, app = crashed_phoenix_world()
    rows = dict(app.query_rows("SELECT * FROM sys_plan_cache"))
    # the legacy metrics stay (tests and tools depend on them) ...
    assert "plan_hits" in rows and "plan_entries" in rows
    # ... and the new eviction / per-session metrics appear.
    for metric in ("plan_evictions", "stmt_evictions",
                   "session_plan_entries", "session_plan_evictions"):
        assert metric in rows, f"missing {metric}"


# ---------------------------------------------------------------------------
# Export / validate / report round trip
# ---------------------------------------------------------------------------


def test_export_validate_report_roundtrip(tmp_path):
    _server, app = crashed_phoenix_world()
    path = tmp_path / "trace.jsonl"
    count = export_trace(app.meter, path)
    records = load_records(path)
    assert len(records) == count
    assert records[0]["type"] == "meta"
    assert validate_records(records) == []

    text = render(records)
    assert f"({len(app.meter.tracer.finished)} spans" in text
    for layer in ("phoenix", "server", "engine", "wal"):
        assert f"Layer {layer!r} span durations:" in text
    assert "Spans by layer" in text and "phoenix" in text


@pytest.mark.parametrize("default_chain", [False, True])
def test_report_renders_live_and_reloaded_records_alike(
        tmp_path, monkeypatch, default_chain):
    """One record stream: the report of a traced crash world's live
    records and of the same records exported and loaded back are one
    text, and its recovery rows are ``sys_recovery_phases``'s."""
    monkeypatch.setenv("REPRO_TRACE", "1")
    _server, app = crashed_phoenix_world(default_chain)
    # The view's query is the one that meets the dead session when the
    # recovering fetch was served from rows the driver held.
    phase_rows = app.query_rows("SELECT * FROM sys_recovery_phases")
    records = trace_records(app.meter)
    path = tmp_path / "trace.jsonl"
    export_trace(app.meter, path)
    reloaded = load_records(path)
    assert validate_records(reloaded) == []
    text = render(records, source="crash world")
    assert render(reloaded, source="crash world") == text
    for section in ("Request latency by kind", "Spans by layer",
                    "Recoveries", "Counters"):
        assert section in text
    assert recovery_rows(records) == recovery_rows(reloaded) == phase_rows
    assert {rid for rid, *_ in phase_rows} == {1, 2}


def test_validator_rejects_corrupted_traces(tmp_path):
    meter = Meter()
    meter.tracer.enable()
    with meter.tracer.span("ok"):
        pass
    records = trace_records(meter)

    # orphan parent (and no drops to excuse it)
    bad = [dict(r) for r in records]
    bad[1]["parent_id"] = 999
    assert any("orphan" in e for e in validate_records(bad))

    # span never closed
    bad = [dict(r) for r in records]
    bad[1]["status"] = "open"
    assert any("never closed" in e for e in validate_records(bad))

    # child escapes its parent's interval
    meter2 = Meter()
    meter2.tracer.enable()
    tracer = meter2.tracer
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    records2 = trace_records(meter2)
    inner = next(r for r in records2 if r.get("name") == "inner")
    inner["end"] = 99.0
    assert any("not nested" in e for e in validate_records(records2))

    # broken JSON line surfaces with its location
    path = tmp_path / "broken.jsonl"
    path.write_text('{"type": "meta"}\nnot json\n')
    with pytest.raises(ValueError, match="broken.jsonl:2"):
        load_records(path)


def span_table(text: str) -> dict[str, list[str]]:
    """The per-layer table of a rendered span section: layer -> cells."""
    lines = text.splitlines()
    rows = lines[4:lines.index("")] if "" in lines else lines[4:]
    return {row.split()[0]: row.split()[1:] for row in rows}


def test_summarize_spans_groups_by_layer():
    spans = [{"type": "span", "layer": "a", "start": 0.0, "end": 1.0},
             {"type": "span", "layer": "a", "start": 0.0, "end": 3.0},
             {"type": "span", "layer": "b", "start": 0.0, "end": 0.5}]
    table = span_table(span_section(spans, "live"))
    assert list(table) == ["a", "b"]
    count, total, _mean, _p50, _p95, _p99, peak = table["a"]
    assert count == "2" and float(total) == 4.0 and float(peak) == 3.0


def test_summarize_spans_tolerates_parentless_and_cut_spans(tmp_path):
    """Spans with no parent phase (no layer) group under "(none)";
    spans with unusable timestamps (cut short, hand-edited) are counted
    as ``malformed_spans`` and excluded from the statistics instead of
    folding zero durations into the percentiles."""
    spans = [{"type": "span", "layer": "a", "start": 0.0, "end": 1.0},
             {"type": "span", "start": 0.0, "end": 2.0},  # no parent
             {"type": "span", "layer": None, "start": 1.0},  # no end
             {"type": "span", "layer": "a", "start": "x", "end": 2}
             ]
    text = span_section(spans, "live")
    assert "(4 spans" in text
    by_layer = span_table(text)
    assert by_layer["(none)"][:2] == ["1", "2.000"]
    assert by_layer["a"][:2] == ["1", "1.000"]
    assert "Spans by layer" in text
    assert "skipped 2 malformed spans" in text

    # End to end through the file loader: a metric record missing its
    # value and an unparentable, timestampless span must both survive.
    path = tmp_path / "ragged.jsonl"
    path.write_text(
        '{"type": "meta", "dropped": 0}\n'
        '{"type": "span", "name": "orphan"}\n'
        '{"type": "metric", "kind": "counter", "name": "incomplete"}\n')
    text = render(load_records(path))
    assert "(1 spans" in text
    assert "skipped 1 malformed spans" in text
    assert span_table(text) == {}
    assert "Counters" not in text


# ---------------------------------------------------------------------------
# Recovery log plumbing (works with tracing off)
# ---------------------------------------------------------------------------


def test_recovery_log_records_even_when_tracing_disabled(monkeypatch):
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    meter = Meter()
    record = meter.record_recovery(
        {"reposition": 0.5, "failure_detection": 0.1, "custom": 0.2,
         "option_replay": 0.0},
        finished_at=1.0)
    assert record["phases"][0] == ("failure_detection", 0.1)
    assert record["phases"][1] == ("option_replay", 0.0)  # zero is kept
    assert record["phases"][-1] == ("custom", 0.2)  # extras sort last
    assert list(meter.recovery_log) == [record]


def test_obs_imports_first():
    """``repro.obs`` used to import only after ``repro.sim`` (its ledger
    pulled the resource names from ``repro.sim.costs``, whose package
    imports the meter, which imports ``repro.obs``)."""
    import os
    import subprocess
    import sys

    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    for module in ("repro.obs", "repro.obs.report", "repro.sim.meter"):
        subprocess.run([sys.executable, "-c", f"import {module}"],
                       check=True, env=env)
    # ... and ``obs`` never reaches back up: ``sim`` imports it, and it
    # renders its reports with the leaf ``repro.text_table``.
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.obs.report, repro.obs.latency\n"
         "print([m for m in sys.modules if m.startswith('repro.bench')])"],
        check=True, env=env, text=True, capture_output=True).stdout
    assert loaded.strip() == "[]"
