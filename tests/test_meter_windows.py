"""Overlap windows are accumulators: fold equivalence and call counts.

Inside ``begin_overlap`` / ``end_overlap`` the meter keeps one running
float.  Whatever mix of entry points charged it, the total must equal
the plain left fold of the charges (a ``charge_rows`` is one charge of
the product) — that is what a listening recorder's segments sum to, and
every virtual number downstream (pipeline stalls, parallel-redo
makespans) depends on it bit for bit.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.phoenix.config import PhoenixConfig
from repro.server.server import DatabaseServer
from repro.sim.costs import NETWORK, SERVER_CPU, SERVER_DISK, CostModel
from repro.sim.meter import Meter
from repro.workloads.app import BenchmarkApp
from repro.workloads.tpch.datagen import generate
from repro.workloads.tpch.schema import setup_tpch_server

# Awkward binary fractions on purpose: their sums round differently
# depending on association, so a re-associated fold would be caught.
seconds = st.sampled_from([0.0, 0.1, 0.2, 0.3, 1e-7, 3.3e-5, 0.007, 1.7])
resources = st.sampled_from([SERVER_CPU, SERVER_DISK, NETWORK])
operations = st.lists(st.one_of(
    st.tuples(st.just("charge"), resources, seconds),
    st.tuples(st.just("charge_batched"), resources, seconds),
    st.tuples(st.just("charge_rows"), resources, seconds,
              st.integers(0, 9)),
), max_size=30)


def individual_charges(operation) -> list[float]:
    """The non-zero charge one call stands for, if any."""
    kind, _resource, *rest = operation
    charged = rest[0] * rest[1] if kind == "charge_rows" else rest[0]
    return [charged] if charged > 0 else []


@settings(max_examples=200, deadline=None)
@given(ops=operations, nested_recorder=st.booleans(), ledger=st.booleans())
def test_window_total_is_the_left_fold(ops, nested_recorder, ledger):
    meter = Meter(CostModel())
    if ledger:
        meter.enable_latency_ledger()
    with meter.request("r") as trace:
        meter.charge(NETWORK, 0.5, "uplink")
        entry = meter.latency_open("Probe")
        clock_before = meter.clock.now
        traced_before = list(trace.segments)

        meter.begin_overlap()
        sink = meter.push_recorder() if nested_recorder else None
        for kind, resource, *rest in ops:
            getattr(meter, kind)(resource, *rest, "note")
        if sink is not None:
            meter.pop_recorder(sink)
        total = meter.end_overlap()

        expected = 0.0
        charged = [s for op in ops for s in individual_charges(op)]
        for s in charged:
            expected += s
        assert total.hex() == expected.hex()
        assert meter.clock.now == clock_before
        assert meter.peek_now() == clock_before   # nothing left pending
        assert trace.segments == traced_before
        if sink is not None:
            assert [seg.seconds for seg in sink] == charged
            assert [seg.resource for seg in sink] == [
                op[1] for op in ops for _ in individual_charges(op)]
        if ledger:
            assert entry.hidden == sum(map(Fraction, charged), Fraction(0))
            assert entry.total == 0
        meter.latency_close(entry)
    if ledger:
        assert meter.latency.identity_violations == []
    else:
        assert meter.latency is None


def test_outer_recorder_still_hears_window_charges():
    """A recorder pushed *before* the window (a test recording a whole
    drain) keeps receiving per-charge segments, as it always did."""
    meter = Meter(CostModel())
    sink = meter.push_recorder()
    meter.begin_overlap()
    meter.charge_rows(SERVER_CPU, 0.1, 3, "query cpu")
    meter.charge_batched(SERVER_CPU, 0.2, "query cpu")
    assert meter.end_overlap() == 0.1 * 3 + 0.2
    meter.pop_recorder(sink)
    assert [seg.seconds for seg in sink] == [0.1 * 3, 0.2]


def test_window_inside_multi_stream_mode_stays_a_window():
    """The two states are independent: a lock-wait window opened while
    the queueing simulator owns elapsed time neither clocks nor traces."""
    meter = Meter(CostModel())
    meter.advance_clock = False
    with meter.request("txn") as trace:
        meter.charge_rows(SERVER_CPU, 0.25, 2)         # its own segment
        meter.begin_overlap()
        meter.charge_rows(SERVER_CPU, 0.25, 4)         # summed, untraced
        assert meter.end_overlap() == 1.0
        meter.charge_batched(SERVER_CPU, 0.25)
    assert [s.seconds for s in trace.segments] == [0.5, 0.25]
    assert meter.clock.now == 0.0


def test_suspended_window_clocks_and_may_host_another_window():
    """Work that is not the window holder's service (a server restart a
    fault injector sets off mid-exchange) steps out of the window: it is
    clocked, batches as on the open clock, can open a window of its own
    (parallel redo), and the outer window resumes with its total."""
    meter = Meter(CostModel())
    meter.begin_overlap()
    meter.charge(NETWORK, 0.25)
    saved = meter.suspend_overlap()
    meter.charge(SERVER_DISK, 0.5)                     # clocked
    meter.begin_overlap()                              # no nesting error
    meter.charge(SERVER_DISK, 4.0)
    assert meter.end_overlap() == 4.0
    meter.charge_batched(SERVER_CPU, 0.125)            # pending on resume
    assert meter.peek_now() == 0.625
    meter.resume_overlap(saved)
    assert meter.clock.now == 0.625                    # flushed to the clock
    meter.charge(NETWORK, 0.25)
    assert meter.end_overlap() == 0.5
    assert meter.now == 0.625
    # No window open: stepping out and back is nothing at all, not even
    # a flush of the pending batch.
    meter.charge_batched(SERVER_CPU, 0.125)
    meter.resume_overlap(meter.suspend_overlap())
    assert meter.clock.now == 0.625 and meter.peek_now() == 0.75


def test_persisted_select_charges_per_batch_not_per_row(monkeypatch):
    """The default chain persists with one script exchange whose
    ``CREATE TABLE T AS <query>`` scans the whole table server-side; the
    scan's per-row CPU must be folded into batched charges, not arrive
    as one ``Meter.charge`` call (and one Segment) per row."""
    server = DatabaseServer(meter=Meter(CostModel(persist_pipeline=True)))
    setup_tpch_server(server, generate(scale=0.001, seed=7))
    app = BenchmarkApp(server, use_phoenix=True,
                       phoenix_config=PhoenixConfig(client_cache_rows=0))
    lineitems = app.query_rows("SELECT count(*) FROM lineitem")[0][0]
    assert lineitems > 4000

    calls = {"charge": 0}
    original = Meter.charge

    def counting_charge(self, resource, seconds, note=""):
        calls["charge"] += 1
        return original(self, resource, seconds, note)

    monkeypatch.setattr(Meter, "charge", counting_charge)
    before = dict(server.meter.executor_stats)
    scripts = server.meter.counters["net.requests.ExecuteRequest"]
    rows = app.query_rows(
        "SELECT l_orderkey, l_quantity FROM lineitem WHERE l_quantity > 48")
    assert 0 < len(rows) < lineitems / 10
    # The script, and the DROP TABLE of the statement's free.
    assert server.meter.counters["net.requests.ExecuteRequest"] \
        == scripts + 2
    assert app.manager.persist_step_seconds.keys() == {"script"}
    batches = sum(n - before.get(name, 0)
                  for name, n in server.meter.executor_stats.items()
                  if name.startswith("batches."))
    assert batches > 0
    # Every lineitem is examined by the filter inside the window; only
    # the few result rows (inserted, then fetched back) and the batch
    # boundaries may cost a call each.
    assert calls["charge"] < lineitems / 4, (calls, lineitems, batches)
