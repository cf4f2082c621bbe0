"""Ablation: checkpoint frequency vs database restart-recovery time.

The paper pinned the server's checkpoint interval very high so no
checkpoint fell inside a measurement; the flip side is that restart
recovery must redo more log.  This ablation runs a burst of committed
updates with different checkpoint cadences, crashes, and measures the
virtual time the engine spends in ARIES redo at restart — the "pause"
component an application waits out before Phoenix can even reconnect.

Two families of legs: *sharp* checkpoints (the seed's flush-everything
``server.checkpoint()`` at a batch cadence) and *fuzzy* checkpoints
(non-blocking Begin/End on a virtual-time cadence, with log truncation
and optional parallel partitioned redo — the tentpole path).
"""

from repro.server.server import DatabaseServer
from repro.sim.costs import CostModel
from repro.sim.meter import Meter
from repro.text_table import format_table
from repro.workloads.app import BenchmarkApp

CADENCES = (0, 50, 10)  # checkpoints every N update batches (0 = never)
BATCHES = 97  # deliberately off-cadence so every run has a redo tail
#: (label, redo workers) legs for the fuzzy cost-model knobs; the
#: interval is derived from the never-checkpoint leg's measured
#: workload time so roughly 10 checkpoints land in every run.
FUZZY_LEGS = (("fuzzy", 0), ("fuzzy + 4-worker redo", 4))
FUZZY_CHECKPOINTS = 10


def _recovery_time(checkpoint_every: int, costs: CostModel | None = None,
                   ) -> tuple[float, int, float]:
    server = DatabaseServer(meter=Meter(costs or CostModel.paper()))
    app = BenchmarkApp(server)
    app.run_statement("CREATE TABLE t (k INT NOT NULL, v INT, "
                      "PRIMARY KEY (k))")
    app.run_statement("INSERT INTO t VALUES " + ", ".join(
        f"({i}, 0)" for i in range(50)))
    workload_start = server.meter.now
    for batch in range(BATCHES):
        app.run_statement(f"UPDATE t SET v = v + 1 WHERE k < 25")
        app.run_statement(f"UPDATE t SET v = v + 2 WHERE k >= 25")
        if checkpoint_every and (batch + 1) % checkpoint_every == 0:
            server.checkpoint()
    workload = server.meter.now - workload_start
    server.crash()
    start = server.meter.now
    server.restart()
    elapsed = server.meter.now - start
    report = server.engine.last_recovery
    return elapsed, report.redo_applied, workload


def test_ablation_checkpoint_interval(benchmark, report):
    def run():
        results = {c: _recovery_time(c) for c in CADENCES}
        interval = results[0][2] / FUZZY_CHECKPOINTS
        for label, workers in FUZZY_LEGS:
            costs = CostModel.paper(checkpoint_interval_seconds=interval,
                                    redo_workers=workers)
            results[label] = _recovery_time(0, costs)
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    legs = [("never" if c == 0 else f"sharp every {c} batches", c)
            for c in CADENCES]
    legs += [(label, label) for label, _workers in FUZZY_LEGS]
    rows = [[label, results[key][1], results[key][0]]
            for label, key in legs]
    report("ablation_checkpoint", format_table(
        "Ablation: checkpoint cadence vs restart recovery",
        ["Checkpoint cadence", "Records redone", "Recovery (s)"], rows))

    never = results[0]
    frequent = results[10]
    # More frequent checkpoints mean less redo and faster recovery.
    assert frequent[1] < never[1] / 2
    assert frequent[0] < never[0]
    # Fuzzy checkpoints bound redo by dirty-page recLSNs and truncation,
    # without ever flushing the pool inside a checkpoint.
    fuzzy = results["fuzzy"]
    assert fuzzy[1] < never[1] / 2
    assert fuzzy[0] < never[0]
    # Simulated redo workers can only shrink the charged makespan.  (One
    # table means one partition here, so the legs only differ by charge
    # summation order — hence the float tolerance.)
    parallel = results["fuzzy + 4-worker redo"]
    assert parallel[0] <= fuzzy[0] + 1e-9
    assert parallel[1] == fuzzy[1]
    # Everything still recovers correctly regardless of cadence.
    for _label, key in legs:
        assert results[key][0] >= 0
