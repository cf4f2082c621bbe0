"""Calibrated cost model.

Every constant is in (virtual) seconds or bytes.  Values are calibrated to
the scalars the paper publishes for its 400 MHz Pentium II / SQL Server 7.0
/ 100 Mbit LAN testbed:

* Phoenix request parse: 0.00023 s, metadata access: 0.00062 s, persistent
  table creation: 0.321 s (§3.5).
* Per-tuple client fetch: 0.00380 s native, 0.00397 s from a persisted
  table (§3.5).
* Virtual-session recovery: 0.37 s (§3.4) — emerges from one reconnect plus
  replaying connection options over individual round trips.
* Native response time saturates once ~512 × 150 B ≈ 75 KB of result rows
  fill the network output buffer (§3.5, Table 3 discussion).

``work_amplification`` compensates for running the workloads at laptop
scale: it multiplies the cost of *base-table* work (scans, joins, DML and
their logging) so that a scale-0.01 TPC-H run reports scale-1.0-magnitude
virtual times.  It deliberately does **not** apply to Phoenix's own
overheads (table creation, result materialization, round trips), so
reported overhead ratios are, if anything, pessimistic for Phoenix.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

# Resource names used in meter traces (re-exported: callers import them
# from here).
from repro.resources import (  # noqa: F401
    ALL_RESOURCES,
    CLIENT_CPU,
    NETWORK,
    SERVER_CPU,
    SERVER_DISK,
    SHARED_RESOURCES,
)


def _option(default, *, paper):
    """A feature option: ``default`` is the system as it runs (and as
    ``benchmarks/e2e`` measures it); ``paper`` is the value the paper's
    2001 system had, read by :meth:`CostModel.paper` and by nothing
    else."""
    return field(default=default, metadata={"paper": paper})


@dataclass
class CostModel:
    """Virtual-time constants and feature options for the whole system.

    Two kinds of fields.  *Calibrated paper constants* price one unit of
    work (a fetch, a page read, a log force); experiments override them
    to calibrate a testbed and both configurations share them.
    *Feature options* select a mechanism this repo added on top of the
    paper's system; each declares its paper value next to its default.

    ``CostModel()`` is the system: every feature on.
    :meth:`paper` is the frozen reproduction behind ``bench_results/``:
    the same constants with every feature option at its paper value.
    """

    # ======================================================================
    # Calibrated paper constants
    # ======================================================================

    # -- client side -------------------------------------------------------
    #: Phoenix's one-pass request classification (paper: 0.00023 s).
    client_parse_seconds: float = 0.00023
    #: Reading result metadata from a WHERE 0=1 reply (paper: 0.00062 s).
    metadata_read_seconds: float = 0.00062
    #: Per-SQLFetch driver overhead when rows are in the client buffer
    #: (paper: 0.00380 s per tuple, native).
    client_fetch_seconds: float = 0.00380
    #: Extra per-fetch cost when the row comes from a persisted table
    #: one driver SQLFetch at a time (paper: 0.00397 - 0.00380 s).
    persisted_fetch_extra_seconds: float = 0.00017
    #: Per-row cost of one block-cursor bulk read into client memory.
    cache_block_read_per_row_seconds: float = 0.0002
    #: Client-side CPU to serve one fetch straight from client memory
    #: (the client cache, or a block-read wire batch).
    cache_fetch_seconds: float = 0.0009

    # -- network / result delivery -------------------------------------------
    network_rtt_seconds: float = 0.0005
    network_bytes_per_second: float = 12.5e6  # 100 Mbit/s
    network_message_overhead_seconds: float = 0.0002
    #: Result rows are packed into wire packets of this size; each packet
    #: costs one message overhead plus its transfer time.
    packet_bytes: int = 4096
    #: Server CPU to evaluate/format one *byte* of a pipelined (live
    #: query) result row before it enters the output buffer.  Width-aware:
    #: Table 3's 150 B LINEITEM rows cost ~2.4 ms each (matching the ~3 ms
    #: per-row slope the paper observed between 32 and 512 tuples), while
    #: narrow rows (Q16's ~40 B) stay under 1 ms.
    cpu_per_result_byte_seconds: float = 1.6e-5
    #: Shipping one already-materialized page of rows (Phoenix streams the
    #: persisted table page-at-a-time without re-running the query:
    #: "Phoenix/ODBC simply streams tuples from the table").
    page_send_seconds: float = 0.004
    #: Server network output buffer: once full, the producing scan suspends
    #: (paper observed saturation at 512 x 150 B = 75 KB).
    output_buffer_bytes: int = 75 * 1024
    #: How many row-bytes one driver fetch pulls across the wire.  The
    #: client holds at most this much un-consumed result data, so a crash
    #: loses everything beyond it — which is why Phoenix must reposition
    #: within recovered result sets (Figures 3/4) instead of relying on
    #: client-side buffering.
    client_fetch_batch_bytes: int = 512

    # -- shared result cache / optimizer statistics -------------------------
    #: Client CPU to probe the shared cache and serve one hit (key
    #: normalization + version-stamp validation against the client's
    #: committed-version mirror).
    result_cache_probe_seconds: float = 0.0004
    #: Equi-depth histogram buckets ANALYZE collects per column.
    analyze_histogram_buckets: int = 16
    #: Per-tuple server CPU charged by ANALYZE while scanning a table to
    #: build statistics (sketch maintenance on top of the heap scan).
    cpu_per_tuple_analyze: float = 4e-6

    # -- server CPU --------------------------------------------------------
    cpu_per_tuple_scan: float = 8e-6
    cpu_per_tuple_join: float = 1.2e-5
    cpu_per_tuple_agg: float = 6e-6
    cpu_per_tuple_sort: float = 2e-6  # multiplied by log2(n) in the executor
    cpu_per_tuple_insert: float = 2e-5
    cpu_per_tuple_delete: float = 2e-5
    cpu_per_tuple_update: float = 2.5e-5
    cpu_per_tuple_index_lookup: float = 1.5e-5
    #: Server-side parse + plan of one statement.
    cpu_per_statement_seconds: float = 0.002
    #: Creating a stored procedure: a persistent catalog object, priced
    #: like a (smaller) sibling of table creation.  Together with the
    #: create-table step this makes up Phoenix's fixed ~0.9 s per
    #: persisted result (Table 3's small-N plateau).  Paper chain only:
    #: the default chain's persist creates no procedure.
    cpu_create_procedure_seconds: float = 0.2

    # -- disk --------------------------------------------------------------
    page_size_bytes: int = 8192
    disk_page_read_seconds: float = 0.0025
    disk_page_write_seconds: float = 0.0030
    #: Creating a persistent table: catalog insert, extent allocation and
    #: a forced log write (paper measured 0.321 s total for the step; we
    #: split it into a CPU part and a disk part so multi-stream
    #: experiments contend on the right resource).
    create_table_cpu_seconds: float = 0.221
    create_table_disk_seconds: float = 0.100

    @property
    def create_table_seconds(self) -> float:
        return self.create_table_cpu_seconds + self.create_table_disk_seconds

    # -- write-ahead log ---------------------------------------------------
    log_bytes_per_second: float = 4.0e6
    log_force_seconds: float = 0.005
    log_record_overhead_bytes: int = 32

    # -- connections / sessions --------------------------------------------
    connect_seconds: float = 0.25
    #: Re-installing one connection option during recovery (one round trip).
    option_reset_seconds: float = 0.012
    ping_seconds: float = 0.002

    # -- scale compensation -------------------------------------------------
    #: Multiplier on base-table work so laptop-scale data reports
    #: paper-scale virtual times.  1.0 means "no compensation".
    work_amplification: float = 1.0

    # ======================================================================
    # Feature options (default = the system; ``paper=`` = the paper's)
    # ======================================================================

    # -- pipelined result delivery -------------------------------------------
    #: Speculative ``FetchRequest``s the driver keeps in flight after
    #: delivering a batch.  While a prefetched batch is in flight, the
    #: server's production and the response downlink overlap the client's
    #: per-row fetch CPU: the in-flight request's virtual completion time
    #: is recorded at issue (``Meter.peek_now`` — a pure read), and
    #: consumption charges only ``max(0, completion - now)``.  0 is the
    #: paper's stop-and-wait fetch.
    fetch_ahead_depth: int = _option(2, paper=0)
    #: Cap on the adaptive wire batch.  When larger than
    #: ``client_fetch_batch_bytes``, each successive fetch of one open
    #: result doubles the rowset a ``FetchResponse`` carries (the consumer
    #: has demonstrably drained everything shipped so far) up to this many
    #: row-bytes.  0 is the paper's fixed batch.  An adaptive batch is
    #: also delivered a batch at a time: see :attr:`batch_delivery`.
    fetch_batch_max_bytes: int = _option(8192, paper=0)
    #: Cap on the adaptive server output buffer.  When larger than
    #: ``output_buffer_bytes``, a ``ServerResultSet`` whose buffer the
    #: consumer keeps draining doubles its refill target up to this cap —
    #: streamable Phoenix re-opens especially benefit, since their pages
    #: are forwarded without re-running a query.  0 is the fixed
    #: suspended-scan buffer of the paper's §3.4.
    output_buffer_max_bytes: int = _option(256 * 1024, paper=0)
    #: Collapse Phoenix's own round trips.  On, a persisted result is one
    #: script exchange — ``BEGIN TRANSACTION; CREATE TABLE T AS <query>;
    #: <status row>; COMMIT; SELECT * FROM T`` (inside an application
    #: transaction just the ``CREATE TABLE ... AS`` and the reopen) —
    #: whose response carries the query's metadata and T's first wire
    #: batch; a wrapped autocommit statement is one too, ``BEGIN
    #: TRANSACTION; <stmt>; <status row of @rowcount>; COMMIT``; and
    #: session recovery runs the login-carried chain: the option log
    #: rides the login exchange and the private connection re-dials next
    #: to the application's.  Off, every round trip is serialized as the
    #: paper did: §2.1's probe, ``CREATE TABLE``, stored procedure and
    #: reopen; BEGIN, statement, status row and COMMIT; connect, then one
    #: round trip per option, private re-dial on first use (its 0.37 s).
    persist_pipeline: bool = _option(True, paper=False)

    # -- shared result cache ---------------------------------------------------
    #: Capacity (entries) of the driver-manager-level result cache shared
    #: across all virtual sessions.  Entries are keyed by the normalized
    #: statement text (parameters arrive pre-inlined) and stamped with
    #: what the plan read; a commit that wrote any of it invalidates the
    #: entry transactionally.  A hit serves rows from client memory with
    #: *zero* protocol requests.  0 (the paper had only the per-statement
    #: §4 client cache) removes the cache entirely: no version counters
    #: are bumped and no response fields are populated.
    result_cache_entries: int = _option(2048, paper=0)

    # -- fuzzy checkpoints / parallel redo ---------------------------------------
    #: Virtual-time cadence of *fuzzy* checkpoints: after each commit the
    #: engine takes a non-blocking Begin/End checkpoint if this many
    #: virtual seconds have passed since the last one, and truncates the
    #: log below what restart can still need.  No pages are flushed at
    #: checkpoint time (a background flusher writes out pages dirtied
    #: before the *previous* checkpoint, advancing the dirty-page table's
    #: minimum recLSN).  0.0 is the paper's server, whose checkpoint
    #: interval was pinned so high that none fell inside a measurement.
    checkpoint_interval_seconds: float = _option(2.0, paper=0.0)
    #: Restart-recovery redo parallelism: when >= 1, redo is replayed in
    #: per-table partitions over this many simulated workers — records
    #: are still *applied* serially in LSN order (worker count can never
    #: change recovered contents), but the charged virtual time becomes
    #: serial-log-read + the makespan of the per-partition apply work
    #: (DDL acts as a serial barrier).  0 charges redo serially.
    redo_workers: int = _option(4, paper=0)

    # Retired options, kept as inert class attributes (not fields: the
    # constructor rejects them) only because the closed benchmark profile
    # under benchmarks/e2e still sets them by name and asserts nothing
    # was skipped.  Nothing reads them; a [benchmark] PR removes them
    # together with the profile entries.
    lock_granularity = "row"
    lock_escalation_threshold = 0
    checkpoint_truncate_log = True
    async_commit_window_seconds = 0.0
    optimizer_mode = "cost"

    @property
    def batch_delivery(self) -> bool:
        """Is the wire batch the unit of client delivery?  On whenever
        the batch adapts (``fetch_batch_max_bytes`` > 0): the driver
        takes each wire batch with one block-cursor read
        (``cache_block_read_per_row_seconds`` a row) and serves every
        SQLFetch from client memory (``cache_fetch_seconds``) — native
        results, Phoenix's persisted ones and its own reads alike.  Off,
        each SQLFetch is one driver fetch (``client_fetch_seconds``)."""
        return self.fetch_batch_max_bytes > 0

    @classmethod
    def paper(cls, **overrides) -> "CostModel":
        """The frozen reproduction: every feature option at its declared
        paper value, constants at their defaults.  ``overrides`` are
        ordinary constructor arguments — an experiment's calibration, or
        the one option an ablation turns back on."""
        options = {f.name: f.metadata["paper"] for f in fields(cls)
                   if "paper" in f.metadata}
        return cls(**{**options, **overrides})

    def transfer_seconds(self, num_bytes: int) -> float:
        """Wire time for ``num_bytes`` plus one message overhead."""
        if num_bytes < 0:
            raise ValueError("cannot transfer a negative number of bytes")
        return (
            self.network_message_overhead_seconds
            + num_bytes / self.network_bytes_per_second
        )

    def log_write_seconds(self, payload_bytes: int) -> float:
        """Time to append one log record with ``payload_bytes`` of payload."""
        total = payload_bytes + self.log_record_overhead_bytes
        return total / self.log_bytes_per_second

    def sort_seconds(self, num_tuples: int) -> float:
        """CPU time to sort ``num_tuples`` (n log n)."""
        if num_tuples <= 1:
            return 0.0
        import math

        return self.cpu_per_tuple_sort * num_tuples * math.log2(num_tuples)

    def topn_seconds(self, num_tuples: int, limit: int) -> float:
        """CPU time for a bounded-heap top-N over ``num_tuples``
        (n log k instead of the full sort's n log n)."""
        if num_tuples <= 1 or limit <= 0:
            return 0.0
        import math

        k = min(num_tuples, max(2, limit))
        return self.cpu_per_tuple_sort * num_tuples * math.log2(k)

    def rows_per_page(self, row_width_bytes: int) -> int:
        """How many rows of the given width fit on one page (at least 1)."""
        width = max(1, row_width_bytes)
        return max(1, self.page_size_bytes // width)
