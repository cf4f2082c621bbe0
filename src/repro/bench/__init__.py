"""Experiments and their command line.

:mod:`repro.bench.experiments` has one function per table/figure of the
paper's evaluation section and per feature bench; see DESIGN.md §4 for
the experiment index and ``benchmarks/`` for the pytest-benchmark entry
points that run them, write ``bench_results/`` and assert their gates.
``python -m repro.bench`` prints them, and the report of a record
stream.
"""
