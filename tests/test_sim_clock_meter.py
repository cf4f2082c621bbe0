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
    "charge_run_list": lambda m, r, s: m.charge_run_list(
        r, [(0.5, 2), (s, 3)], "n"),
}


by_entry = pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))


@pytest.mark.parametrize("state", [_clocked, _multi_stream, _in_window,
                                   _in_recorded_window])
class TestChargeValidationParity:
    """All four charging entry points reject what ``charge`` rejects, at
    the call, in every meter state."""

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
        meter.charge_run_list(SERVER_CPU, [(0.0, 4)])
        meter.charge_batched(SERVER_CPU, 0.0)
        meter.charge(SERVER_CPU, 0.0)
        assert meter.peek_now() == before
        if meter._window is not None:
            assert meter.end_overlap() == 0.0


def test_run_list_skips_zero_runs_in_every_state():
    """Clocked, multi-stream and windowed replays agree on a run list
    with zero runs in it (the clocked path used to add them)."""
    runs = [(0.25, 2), (0.0, 7), (0.5, 1)]
    clocked = Meter()
    clocked.charge_run_list(SERVER_CPU, runs)
    streamed = Meter()
    streamed.advance_clock = False
    with streamed.request("q") as trace:
        streamed.charge_run_list(SERVER_CPU, runs)
    windowed = Meter()
    windowed.begin_overlap()
    windowed.charge_run_list(SERVER_CPU, iter(runs))
    assert clocked.now == 1.0
    assert [s.seconds for s in trace.segments] == [0.25, 0.25, 0.5]
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
