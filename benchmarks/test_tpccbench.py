"""Tpccbench: the concurrent TPC-C mix at 8 / 32 / 128 sessions, serial
vs interleaved (row locks, FIFO queues, the blocked statement held by the
server), on the default configuration.

Concurrency must never change committed state.  Deadlocks, wait episodes
and requeues are not asserted on: the artifact prints them, and the diff
against the committed file holds them.
"""

from repro.bench.experiments import TPCCBENCH_LEGS, run_tpccbench


def test_tpccbench(benchmark, report):
    # A lost wake-up (every live session waiting for a lock nobody will
    # release) fails right here: the mix raises, naming sessions and
    # queue entries.
    result = benchmark.pedantic(run_tpccbench, rounds=1, iterations=1)
    report("tpccbench", result.format())

    for sessions, _txns in TPCCBENCH_LEGS:
        *_, serial, _locks, serial_digests = result.leg(sessions, "serial")
        *_, mixed, _locks, mixed_digests = result.leg(sessions,
                                                      "interleaved")
        assert mixed_digests == serial_digests, \
            f"{sessions} sessions: final state differs from the serial leg"
        assert mixed.committed == serial.committed, sessions
