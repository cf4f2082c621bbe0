"""Tests for the benchmark harness plumbing: reporting, orderings, CLI."""

import pytest

from repro.text_table import format_table
from repro.workloads.tpch.throughput import STREAM_ORDERINGS


class TestReporting:
    def test_basic_table(self):
        text = format_table("Title", ["A", "B"],
                            [["x", 1.5], ["yy", 22.0]])
        lines = text.splitlines()
        assert lines[0] == "Title"
        assert lines[1] == "====="
        assert "A" in lines[2] and "B" in lines[2]
        assert "x" in lines[4]

    def test_footers_separated(self):
        text = format_table("T", ["A"], [["r1"]], footers=[["total"]])
        lines = text.splitlines()
        dashes = [i for i, line in enumerate(lines)
                  if set(line.strip()) == {"-"} or "-" in line
                  and set(line.replace(" ", "")) == {"-"}]
        assert len(dashes) >= 2  # header rule and footer rule

    def test_number_formatting(self):
        text = format_table("T", ["V"],
                            [[1234.5678], [0.00012], [3.14159], [0.0]])
        assert "1234.6" in text
        assert "0.0001" in text
        assert "3.142" in text
        assert "0.000" in text

    def test_alignment_widths(self):
        text = format_table("T", ["Name", "N"],
                            [["a-very-long-label", 1]])
        header, rule, row = text.splitlines()[2:5]
        assert len(rule) >= len("a-very-long-label")


class TestStreamOrderings:
    def test_each_is_a_permutation_of_22(self):
        for ordering in STREAM_ORDERINGS:
            assert sorted(ordering) == list(range(1, 23))

    def test_orderings_differ(self):
        assert len({tuple(o) for o in STREAM_ORDERINGS}) \
            == len(STREAM_ORDERINGS)


class TestCli:
    def test_micro_via_cli(self, tmp_path, monkeypatch, capsys):
        """The CLI prints the table and writes nothing: ``pytest
        benchmarks`` is the one writer of ``bench_results/``."""
        from repro.bench.__main__ import main

        monkeypatch.chdir(tmp_path)
        assert main(["micro", "--scale", "0.001"]) == 0
        assert "Micro overheads" in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []

    def test_unknown_experiment_rejected(self):
        from repro.bench.__main__ import main

        for argv in (["nonsense"], ["sentinel"],
                     ["micro", "--out", "somewhere"]):
            with pytest.raises(SystemExit):
                main(argv)

    def test_tpccbench_text_does_not_depend_on_the_hash_seed(self):
        """What the byte diff of ``bench_results/`` relies on: the
        smallest leg formats identically under two ``PYTHONHASHSEED``s."""
        import os
        import subprocess
        import sys

        script = ("from repro.bench.experiments import run_tpccbench\n"
                  "print(run_tpccbench(legs=((8, 4),)).format())")
        texts = [subprocess.run(
            [sys.executable, "-c", script], check=True, text=True,
            capture_output=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path),
                 "PYTHONHASHSEED": seed}).stdout
            for seed in ("1", "12345")]
        assert "interleaved" in texts[0]
        assert texts[0] == texts[1]


class TestRefreshSplitting:
    def test_halves_partition_key_range(self):
        from repro.workloads.tpch.datagen import (
            generate,
            generate_refresh_orders,
        )
        from repro.workloads.tpch.refresh import _split_by_order_key

        data = generate(scale=0.0005, seed=2)
        orders, lines = generate_refresh_orders(data, count=11, seed=3)
        halves = _split_by_order_key(orders, lines)
        assert len(halves) == 2
        all_orders = [o for half in halves for o in half[0]]
        assert sorted(o[0] for o in all_orders) == \
            sorted(o[0] for o in orders)
        first_keys = {o[0] for o in halves[0][0]}
        second_keys = {o[0] for o in halves[1][0]}
        assert max(first_keys) < min(second_keys)
        # Lineitems follow their orders.
        for order_half, line_half in halves:
            keys = {o[0] for o in order_half}
            assert {l[0] for l in line_half} == keys


class TestNotNullEnforcement:
    def test_explicit_null_rejected(self, run):
        from repro.errors import EngineError

        run("CREATE TABLE t (a INT NOT NULL, b INT)")
        with pytest.raises(EngineError):
            run("INSERT INTO t VALUES (NULL, 1)")

    def test_update_to_null_rejected(self, run):
        from repro.errors import EngineError

        run("CREATE TABLE t (a INT NOT NULL, b INT)")
        run("INSERT INTO t VALUES (1, 2)")
        with pytest.raises(EngineError):
            run("UPDATE t SET a = NULL")
        # Nullable columns still accept NULL.
        run("UPDATE t SET b = NULL")
        assert run("SELECT a, b FROM t") == [(1, None)]
