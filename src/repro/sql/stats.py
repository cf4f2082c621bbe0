"""Table/column statistics: ANALYZE collection and selectivity estimation.

``ANALYZE [table]`` scans a table once and records, per column: the row
count, number of distinct values (NDV), min/max, null fraction, and an
equi-depth histogram for orderable (numeric/string) columns.  The result
is an immutable value — a :class:`TableStats` of :class:`ColumnStats`,
named tuples all the way down (the histogram a tuple) — stored in the
catalog (``Catalog.table_stats``).  Being immutable it is shared, never
copied: a table's image, the ``catalog_snapshot`` blob, the statistics
blob and a restored catalog all hold the one object ANALYZE made, and
``copy.deepcopy`` (a forked engine) hands back the same object.  It
survives both restart recovery and Phoenix recovery.  Readers go
through :func:`column_stats` and the named fields.

The estimation half turns those statistics into selectivities for the
planner's conjunct extraction:

* equality      ``col = v``            → ``1 / NDV``
* range         ``lo < col < hi``      → histogram fraction between the
  bounds (linear interpolation inside a bucket for numerics, bucket
  granularity for strings), falling back to min/max interpolation and
  finally to a fixed default when no statistics help;
* conjunctions  independence (product), with a sanity clamp so a stack
  of correlated predicates cannot drive an estimate to zero.

Everything here is deterministic and meter-free; the engine charges the
ANALYZE scan itself (see ``DatabaseEngine._execute_analyze``).
"""

from __future__ import annotations

import datetime
from bisect import bisect_left, bisect_right
from typing import NamedTuple

#: Fallbacks when a column has no usable statistics.
DEFAULT_EQ_SELECTIVITY = 0.1
DEFAULT_RANGE_SELECTIVITY = 0.3
#: Sanity clamp: no predicate stack may claim fewer than this fraction
#: of a table's rows (guards against correlated-conjunct underestimates).
MIN_SELECTIVITY = 1e-4


# ---------------------------------------------------------------------------
# The statistics value
# ---------------------------------------------------------------------------


def _itself(value, _memo=None):
    """A copy of an immutable value: the value itself."""
    return value


class ColumnStats(NamedTuple):
    """ANALYZE output for one column."""

    name: str
    ndv: int
    null_frac: float
    min: object = None
    max: object = None
    #: Equi-depth bucket boundaries (see _equi_depth_histogram), or None.
    histogram: tuple | None = None

    __copy__ = __deepcopy__ = _itself


class TableStats(NamedTuple):
    """ANALYZE output for one table: its row and page counts and one
    :class:`ColumnStats` per column, in column order."""

    row_count: int
    page_count: int
    columns: tuple[ColumnStats, ...] = ()

    __copy__ = __deepcopy__ = _itself

    def column(self, name: str) -> ColumnStats | None:
        """The statistics of column ``name`` (lowercase), or None."""
        for col in self.columns:
            if col.name == name:
                return col
        return None


# ---------------------------------------------------------------------------
# Collection
# ---------------------------------------------------------------------------


def _orderable(values: list) -> bool:
    """True when ``values`` sort as one homogeneous family (numeric,
    string, or date) — the types we histogram."""
    if not values:
        return False
    if all(isinstance(v, (int, float)) and not isinstance(v, bool)
           for v in values):
        return True
    if all(isinstance(v, str) for v in values):
        return True
    return all(isinstance(v, datetime.date) for v in values)


def _as_number(value):
    """Map a histogram-able value onto the number line for in-bucket
    interpolation (dates by ordinal); None for strings and the rest."""
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return value
    if isinstance(value, datetime.date):
        return value.toordinal()
    return None


def _equi_depth_histogram(sorted_values: list,
                          buckets: int) -> tuple | None:
    """Bucket boundaries ``[b0, .., bB]`` with ~equal row counts per
    bucket.  ``b0``/``bB`` are the column min/max; interior boundaries
    sit at the equi-depth quantiles."""
    n = len(sorted_values)
    if n < 2 or buckets < 1:
        return None
    buckets = min(buckets, n)
    bounds = [sorted_values[0]]
    for i in range(1, buckets):
        bounds.append(sorted_values[(i * n) // buckets])
    bounds.append(sorted_values[-1])
    return tuple(bounds)


def collect_table_stats(table, buckets: int = 16) -> TableStats:
    """One-pass statistics for a table runtime (see module docstring)."""
    column_names = [c.name.lower() for c in table.info.columns]
    values: list[list] = [[] for _ in column_names]
    nulls = [0] * len(column_names)
    row_count = 0
    page_count = 0
    for _page_no, page in table.scan_pages():
        rows = page.live()
        if not rows:
            continue
        page_count += 1
        row_count += len(rows)
        # Column by column: each column's values keep their row order.
        for i, column in enumerate(zip(*rows)):
            present = [v for v in column if v is not None]
            nulls[i] += len(column) - len(present)
            values[i].extend(present)
    columns = []
    for i, name in enumerate(column_names):
        col_values = values[i]
        col = ColumnStats(
            name=name, ndv=len(set(col_values)),
            null_frac=(nulls[i] / row_count) if row_count else 0.0)
        if _orderable(col_values):
            col_values.sort()
            col = col._replace(
                min=col_values[0], max=col_values[-1],
                histogram=_equi_depth_histogram(col_values, buckets))
        columns.append(col)
    return TableStats(row_count, page_count, tuple(columns))


# ---------------------------------------------------------------------------
# Estimation
# ---------------------------------------------------------------------------


def equality_selectivity(col: ColumnStats | None) -> float:
    """Selectivity of ``col = constant`` (uniform over distinct values)."""
    if not col:
        return DEFAULT_EQ_SELECTIVITY
    ndv = col.ndv or 0
    if ndv <= 0:
        return DEFAULT_EQ_SELECTIVITY
    non_null = 1.0 - float(col.null_frac or 0.0)
    return max(MIN_SELECTIVITY, min(1.0, non_null / ndv))


def _fraction_below(col: ColumnStats, value, inclusive: bool) -> float:
    """Estimated fraction of non-null rows with ``col < value`` (or
    ``<=`` when inclusive), via the equi-depth histogram."""
    hist = col.histogram
    if hist and len(hist) >= 2:
        try:
            if inclusive:
                pos = bisect_right(hist, value)
            else:
                pos = bisect_left(hist, value)
        except TypeError:
            return 0.5
        if pos <= 0:
            return 0.0
        if pos >= len(hist):
            return 1.0
        buckets = len(hist) - 1
        v = _as_number(value)
        lo, hi = _as_number(hist[pos - 1]), _as_number(hist[pos])
        frac_in_bucket = 0.5
        if v is not None and lo is not None and hi is not None and hi > lo:
            frac_in_bucket = min(1.0, max(0.0, (v - lo) / (hi - lo)))
        return (pos - 1 + frac_in_bucket) / buckets
    v = _as_number(value)
    lo, hi = _as_number(col.min), _as_number(col.max)
    if v is not None and lo is not None and hi is not None and hi > lo:
        return min(1.0, max(0.0, (v - lo) / (hi - lo)))
    return 0.5


def range_selectivity(col: ColumnStats | None, lo=None, hi=None,
                      lo_inclusive: bool = True,
                      hi_inclusive: bool = True) -> float:
    """Selectivity of ``lo <op> col <op> hi`` (either bound optional)."""
    if not col or (lo is None and hi is None):
        return DEFAULT_RANGE_SELECTIVITY
    below_hi = (_fraction_below(col, hi, hi_inclusive)
                if hi is not None else 1.0)
    below_lo = (_fraction_below(col, lo, not lo_inclusive)
                if lo is not None else 0.0)
    non_null = 1.0 - float(col.null_frac or 0.0)
    sel = (below_hi - below_lo) * non_null
    return max(MIN_SELECTIVITY, min(1.0, sel))


def combine_conjuncts(selectivities: list[float]) -> float:
    """Independence assumption with the sanity clamp."""
    sel = 1.0
    for s in selectivities:
        sel *= s
    return max(MIN_SELECTIVITY, min(1.0, sel))


def column_stats(stats: TableStats | None,
                 column: str) -> ColumnStats | None:
    """A column's statistics, or None when its table was never
    analyzed."""
    if stats is None:
        return None
    return stats.column(column.lower())
