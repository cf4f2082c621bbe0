"""Recovery scaling: restart time against log length (what Wu et al.
measure), under never / sharp / fuzzy checkpoints with 1, 2 and 4 redo
workers; every leg names its cadence and worker count on the default
configuration.

Fuzzy recovery is bounded by the checkpoint interval, not the log; its
redo volume tracks dirty-page recLSNs; workers only ever help; and no
regime changes what is recovered.  (That restart pays for the live log
only, however much history a truncating checkpoint archived, is tier-1:
tests/test_dml_version_fold.py.)
"""

from repro.bench.experiments import run_recovery_scaling


def test_recovery_scaling(benchmark, report):
    result = benchmark.pedantic(run_recovery_scaling, rounds=1,
                                iterations=1)
    report("recovery_scaling", result.format())

    longest = max(records for records, *_ in result.rows)
    _, _, none_s, none_applied, *_ = result.leg(longest, "none")
    _, _, w1_s, *_ = result.leg(longest, "fuzzy-w1")
    _, _, w4_s, w4_applied, *_ = result.leg(longest, "fuzzy-w4")
    assert w4_s * 3.0 <= none_s, "fuzzy + 4 workers not 3x faster"
    assert w4_applied * 3 <= none_applied, "fuzzy redo not bounded"
    assert w4_s <= w1_s, "4-worker redo slower than 1-worker"
    # At the shortest log the redo tail spans several tables: there the
    # workers must help, not merely not hurt (at the longest, every fuzzy
    # leg redoes the same short tail and reads the same).
    shortest = min(records for records, *_ in result.rows)
    assert result.leg(shortest, "fuzzy-w4")[2] \
        < result.leg(shortest, "fuzzy-w1")[2], "redo workers do nothing"
    for (records, leg), fingerprint in result.fingerprints.items():
        assert fingerprint == result.fingerprints[(records, "none")], \
            f"{leg} at {records} records recovered different contents"

