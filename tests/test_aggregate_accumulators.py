"""The executor's per-kind aggregate accumulators against the generic
one the row-at-a-time oracle keeps (``tests/row_engine_oracle.py``):
the same results, bit for bit, on columns of ints, floats, NULLs and
duplicates — a float SUM or AVG adds in arrival order on both sides."""

import struct

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sql.executor import AggregateSpec, accumulator_factory
from tests.row_engine_oracle import _COUNT_STAR, _Accumulator

#: A small pool, so that duplicates (DISTINCT's business) are common.
POOL = [0, 1, -2, 7, 0.1, 0.2, 1.0, -0.0, 1e16, 2.5, float("inf")]
COLUMN = st.lists(st.one_of(st.none(), st.sampled_from(POOL),
                            st.integers(-10**6, 10**6),
                            st.floats(allow_nan=False)),
                  max_size=40)


def bits(value):
    """``value`` with its type and, for a float, its exact bit pattern."""
    if type(value) is float:
        return float, struct.pack("<d", value)
    return type(value), value


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(column=COLUMN)
def test_per_kind_accumulators_equal_the_generic_one(column):
    for func in ("count", "sum", "avg", "min", "max"):
        for distinct in (False, True):
            spec = AggregateSpec(func, arg_fn=lambda ctx: None,
                                 distinct=distinct)
            ours, reference = accumulator_factory(spec)(), \
                _Accumulator(func, distinct)
            for value in column:
                ours.add(value)
                reference.add(value)
            assert bits(ours.result()) == bits(reference.result()), \
                (func, distinct)
    rows = accumulator_factory(AggregateSpec("count"))()
    reference = _Accumulator("count", False)
    for value in column:
        rows.add(value)
        reference.add(_COUNT_STAR)
    assert rows.result() == reference.result() == len(column)
