"""Indexbench: the same statements on an indexed and an unindexed copy
of one table, on the default configuration.

The gate is the IN-list leg: a seek examines exactly the heap rows its
distinct keys name — per join side, so twice that for the transferred
self-join form — and returns the rows of the scan it replaces, which
examines every heap row once per side.
"""

from repro.bench.experiments import INDEXBENCH_IN_KEYS, run_indexbench

#: Rows of each copy of the table (run_indexbench's default).
TABLE_ROWS = 4000


def test_indexbench(benchmark, report):
    result = benchmark.pedantic(run_indexbench, kwargs={"rows": TABLE_ROWS},
                                rounds=1, iterations=1)
    report("indexbench", result.format())

    for seek, scan, sides in (
            ("IndexSeek IN", "SeqScan + Filter IN", 1),
            ("IndexSeek IN, transferred", "SeqScan + Filter IN, joined", 2)):
        rows, heap_rows, _pages, _seconds, plan = result.in_list[seek]
        assert heap_rows == sides * INDEXBENCH_IN_KEYS, seek
        assert rows == result.in_list[scan][0], seek
        assert len(plan) == sides, f"{seek}: not every side seeks by list"
        # The scan side reads every heap row once per side, counted
        # through the heap's one page iterator.
        assert result.in_list[scan][1] == sides * TABLE_ROWS, scan
