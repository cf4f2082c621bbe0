"""Indexbench: the same statements on an indexed and an unindexed copy
of one table, on the default configuration.

The gate is the IN-list leg: a seek examines exactly the heap rows its
distinct keys name — per join side, so twice that for the transferred
self-join form — and returns the rows of the scan it replaces.
"""

from repro.bench.experiments import INDEXBENCH_IN_KEYS, run_indexbench


def test_indexbench(benchmark, report):
    result = benchmark.pedantic(run_indexbench, rounds=1, iterations=1)
    report("indexbench", result.format())

    for seek, scan, sides in (
            ("IndexSeek IN", "SeqScan + Filter IN", 1),
            ("IndexSeek IN, transferred", "SeqScan + Filter IN, joined", 2)):
        rows, heap_rows, _pages, _seconds, plan = result.in_list[seek]
        assert heap_rows == sides * INDEXBENCH_IN_KEYS, seek
        assert rows == result.in_list[scan][0], seek
        assert len(plan) == sides, f"{seek}: not every side seeks by list"
