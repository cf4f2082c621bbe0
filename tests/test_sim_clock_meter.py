"""Tests for the virtual clock and the meter."""

import pytest

from repro.sim.clock import VirtualClock
from repro.sim.costs import CLIENT_CPU, NETWORK, SERVER_CPU, CostModel
from repro.sim.meter import Meter


class TestVirtualClock:
    def test_starts_at_zero(self):
        assert VirtualClock().now == 0.0

    def test_custom_start(self):
        assert VirtualClock(5.0).now == 5.0

    def test_advance_accumulates(self):
        clock = VirtualClock()
        clock.advance(1.5)
        clock.advance(0.5)
        assert clock.now == pytest.approx(2.0)

    def test_advance_returns_new_time(self):
        assert VirtualClock().advance(3.0) == pytest.approx(3.0)

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-1.0)

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            VirtualClock(-0.1)


class TestMeter:
    def test_charge_advances_clock(self):
        meter = Meter()
        meter.charge(SERVER_CPU, 0.25)
        assert meter.now == pytest.approx(0.25)

    def test_charge_zero_is_noop(self):
        meter = Meter()
        meter.charge(SERVER_CPU, 0.0)
        assert meter.now == 0.0

    def test_unknown_resource_rejected(self):
        with pytest.raises(ValueError):
            Meter().charge("gpu", 1.0)

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            Meter().charge(SERVER_CPU, -1.0)

    def test_request_trace_records_segments(self):
        meter = Meter()
        with meter.request("q1") as trace:
            meter.charge(SERVER_CPU, 0.1)
            meter.charge(NETWORK, 0.2)
        assert trace.total_seconds == pytest.approx(0.3)
        assert trace.seconds_on(SERVER_CPU) == pytest.approx(0.1)
        assert meter.traces == [trace]

    def test_charges_outside_request_not_traced(self):
        meter = Meter()
        meter.charge(SERVER_CPU, 0.1)
        assert meter.traces == []
        assert meter.now == pytest.approx(0.1)

    def test_nested_requests_fold_into_parent(self):
        meter = Meter()
        with meter.request("outer") as outer:
            meter.charge(SERVER_CPU, 0.1)
            with meter.request("inner"):
                meter.charge(CLIENT_CPU, 0.2)
        assert outer.total_seconds == pytest.approx(0.3)
        # Only the top-level trace is recorded (no double counting).
        assert [t.label for t in meter.traces] == ["outer"]
        assert meter.seconds_on(CLIENT_CPU) == pytest.approx(0.2)

    def test_mismatched_end_raises(self):
        meter = Meter()
        t1 = meter.begin_request("a")
        meter.begin_request("b")
        with pytest.raises(ValueError):
            meter.end_request(t1)

    def test_advance_clock_flag(self):
        meter = Meter()
        meter.advance_clock = False
        with meter.request("q") as trace:
            meter.charge(SERVER_CPU, 5.0)
        assert meter.now == 0.0
        assert trace.total_seconds == pytest.approx(5.0)

    def test_counters(self):
        meter = Meter()
        meter.count("disk_io")
        meter.count("disk_io", 2)
        assert meter.counters["disk_io"] == 3

    def test_reset_traces_keeps_clock(self):
        meter = Meter()
        with meter.request("q"):
            meter.charge(SERVER_CPU, 1.0)
        meter.reset_traces()
        assert meter.traces == []
        assert meter.now == pytest.approx(1.0)


def _clocked(meter):
    pass


def _multi_stream(meter):
    meter.advance_clock = False


def _in_window(meter):
    meter.begin_overlap()


def _in_recorded_window(meter):
    meter.begin_overlap()
    meter.push_recorder()


ENTRY_POINTS = {
    "charge": lambda m, r, s: m.charge(r, s, "n"),
    "charge_batched": lambda m, r, s: m.charge_batched(r, s, "n"),
    "charge_rows": lambda m, r, s: m.charge_rows(r, s, 3, "n"),
}


by_entry = pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))


@pytest.mark.parametrize("state", [_clocked, _multi_stream, _in_window,
                                   _in_recorded_window])
class TestChargeValidationParity:
    """All three charging entry points reject what ``charge`` rejects,
    at the call, in every meter state."""

    @by_entry
    def test_unknown_resource_raises_at_the_call(self, entry, state):
        meter = Meter()
        state(meter)
        with pytest.raises(ValueError, match="unknown resource"):
            ENTRY_POINTS[entry](meter, "gpu", 1.0)
        # Nothing was deferred: a later, valid call is not poisoned.
        meter.charge(SERVER_CPU, 0.25)

    @by_entry
    def test_negative_seconds_raise(self, entry, state):
        meter = Meter()
        state(meter)
        with pytest.raises(ValueError, match="negative"):
            ENTRY_POINTS[entry](meter, SERVER_CPU, -1.0)

    def test_zero_seconds_charge_nothing(self, state):
        meter = Meter()
        state(meter)
        before = meter.peek_now()
        meter.charge_rows(SERVER_CPU, 0.0, 5)
        meter.charge_batched(SERVER_CPU, 0.0)
        meter.charge(SERVER_CPU, 0.0)
        assert meter.peek_now() == before
        if meter._window is not None:
            assert meter.end_overlap() == 0.0


def test_run_list_skips_zero_runs_in_every_state():
    """Clocked, multi-stream and windowed meters agree on what became of
    the run list — a batch's per-row cost list, zeros in it, realized
    by a blocking operator as one charge of the sum."""
    from repro.sql.executor import ExecContext, _charge_deferred

    costs = [0.25, 0.0, 0.25, 0.0, 0.5]
    clocked = Meter()
    _charge_deferred(ExecContext(clocked), len(costs), costs, 0.0)
    streamed = Meter()
    streamed.advance_clock = False
    with streamed.request("q") as trace:
        _charge_deferred(ExecContext(streamed), len(costs), costs, 0.0)
        _charge_deferred(ExecContext(streamed), 2, [0.0, 0.0], 0.0)
    windowed = Meter()
    windowed.begin_overlap()
    _charge_deferred(ExecContext(windowed), len(costs), costs, 0.0)
    assert clocked.now == 1.0
    assert [s.seconds for s in trace.segments] == [1.0]
    assert windowed.end_overlap() == 1.0


def test_end_overlap_without_window_raises():
    with pytest.raises(ValueError):
        Meter().end_overlap()


class TestCostModel:
    def test_transfer_includes_message_overhead(self):
        costs = CostModel()
        base = costs.transfer_seconds(0)
        assert base == pytest.approx(costs.network_message_overhead_seconds)
        assert costs.transfer_seconds(12_500_000) == pytest.approx(base + 1.0)

    def test_transfer_negative_rejected(self):
        with pytest.raises(ValueError):
            CostModel().transfer_seconds(-1)

    def test_log_write_scales_with_bytes(self):
        costs = CostModel()
        small = costs.log_write_seconds(10)
        large = costs.log_write_seconds(10_000)
        assert large > small > 0

    def test_sort_seconds_zero_for_trivial(self):
        costs = CostModel()
        assert costs.sort_seconds(0) == 0.0
        assert costs.sort_seconds(1) == 0.0
        assert costs.sort_seconds(1024) > 0

    def test_rows_per_page_at_least_one(self):
        costs = CostModel()
        assert costs.rows_per_page(10 ** 9) == 1
        assert costs.rows_per_page(100) == costs.page_size_bytes // 100


# ---------------------------------------------------------------------------
# The two configurations
# ---------------------------------------------------------------------------

#: ``CostModel()`` field for field at the last commit where the paper's
#: system was the default (``async_commit_window_seconds`` and
#: ``checkpoint_truncate_log`` left the constructor since).
PAPER_CONFIGURATION = {
    "client_parse_seconds": 0.00023,
    "metadata_read_seconds": 0.00062,
    "client_fetch_seconds": 0.0038,
    "persisted_fetch_extra_seconds": 0.00017,
    "cache_block_read_per_row_seconds": 0.0002,
    "cache_fetch_seconds": 0.0009,
    "network_rtt_seconds": 0.0005,
    "network_bytes_per_second": 12500000.0,
    "network_message_overhead_seconds": 0.0002,
    "packet_bytes": 4096,
    "cpu_per_result_byte_seconds": 1.6e-05,
    "page_send_seconds": 0.004,
    "output_buffer_bytes": 76800,
    "client_fetch_batch_bytes": 512,
    "fetch_ahead_depth": 0,
    "fetch_batch_max_bytes": 0,
    "output_buffer_max_bytes": 0,
    "persist_pipeline": False,
    "result_cache_entries": 0,
    "result_cache_probe_seconds": 0.0004,
    "analyze_histogram_buckets": 16,
    "cpu_per_tuple_analyze": 4e-06,
    "cpu_per_tuple_scan": 8e-06,
    "cpu_per_tuple_join": 1.2e-05,
    "cpu_per_tuple_agg": 6e-06,
    "cpu_per_tuple_sort": 2e-06,
    "cpu_per_tuple_insert": 2e-05,
    "cpu_per_tuple_delete": 2e-05,
    "cpu_per_tuple_update": 2.5e-05,
    "cpu_per_tuple_index_lookup": 1.5e-05,
    "cpu_per_statement_seconds": 0.002,
    "cpu_create_procedure_seconds": 0.2,
    "page_size_bytes": 8192,
    "disk_page_read_seconds": 0.0025,
    "disk_page_write_seconds": 0.003,
    "create_table_cpu_seconds": 0.221,
    "create_table_disk_seconds": 0.1,
    "log_bytes_per_second": 4000000.0,
    "log_force_seconds": 0.005,
    "log_record_overhead_bytes": 32,
    "checkpoint_interval_seconds": 0.0,
    "redo_workers": 0,
    "connect_seconds": 0.25,
    "option_reset_seconds": 0.012,
    "ping_seconds": 0.002,
    "work_amplification": 1.0,
}

RETIRED_OPTIONS = ("lock_granularity", "lock_escalation_threshold",
                   "checkpoint_truncate_log", "async_commit_window_seconds",
                   "optimizer_mode")


def test_paper_is_the_old_default_field_for_field():
    import dataclasses

    assert dataclasses.asdict(CostModel.paper()) == PAPER_CONFIGURATION
    # A calibration rides on top; an ablation may turn one option on.
    costs = CostModel.paper(work_amplification=6.0, redo_workers=4)
    assert dataclasses.asdict(costs) == {
        **PAPER_CONFIGURATION, "work_amplification": 6.0, "redo_workers": 4}
    # Both configurations price a unit of work the same.
    assert {name: value
            for name, value in dataclasses.asdict(CostModel()).items()
            if value != PAPER_CONFIGURATION[name]} == {
        "fetch_ahead_depth": 2, "fetch_batch_max_bytes": 8192,
        "output_buffer_max_bytes": 262144, "persist_pipeline": True,
        "result_cache_entries": 2048,
        "checkpoint_interval_seconds": 2.0, "redo_workers": 4}


@pytest.mark.parametrize("name", RETIRED_OPTIONS)
def test_retired_options_are_not_constructor_arguments(name):
    with pytest.raises(TypeError):
        CostModel(**{name: getattr(CostModel, name)})
    with pytest.raises(TypeError):
        CostModel.paper(**{name: getattr(CostModel, name)})


def test_default_is_the_configuration_the_benchmark_asks_for():
    """``benchmarks/e2e`` applies ``BENCH_PROFILE`` by name on top of
    ``CostModel()``: every name that is still a field must already hold
    that value, and the rest must be the inert retired attributes."""
    import dataclasses
    import pathlib
    import runpy

    profile = runpy.run_path(str(
        pathlib.Path(__file__).resolve().parents[1]
        / "benchmarks" / "e2e" / "bench_profile.py"))["BENCH_PROFILE"]
    default = dataclasses.asdict(CostModel())
    for name, value in profile.items():
        if name in default:
            assert default[name] == value, name
        else:
            assert name in RETIRED_OPTIONS, name
            assert getattr(CostModel, name) == value, name


def test_only_the_paper_reproductions_build_on_paper():
    """Under ``repro.bench`` the frozen configuration is spelled in
    ``make_tpch_world`` and ``tpcc_cost_model`` and nowhere else: every
    other world measures the default system."""
    import ast
    import pathlib

    import repro.bench

    paper_worlds = {"make_tpch_world", "tpcc_cost_model"}
    for path in pathlib.Path(repro.bench.__file__).parent.glob("*.py"):
        source = path.read_text()
        inside = sum(
            ast.get_source_segment(source, node).count("CostModel.paper(")
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.FunctionDef)
            and node.name in paper_worlds)
        assert source.count("CostModel.paper(") == inside, path.name
