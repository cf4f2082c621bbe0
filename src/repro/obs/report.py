"""Render a per-layer latency summary from an exported JSONL trace.

``python -m repro.bench trace-report --input trace.jsonl`` loads the
span records, groups them by layer, and prints per-layer statistics
(count, total/mean/p50/p95/max virtual seconds) followed by a
fixed-bucket duration histogram per layer — the offline counterpart of
the live ``sys_traces``/``sys_metrics`` views.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.metrics import DEFAULT_BUCKETS, Histogram, percentile
from repro.text_table import format_table

_BAR_WIDTH = 36


@dataclass
class LayerSummary:
    layer: str
    count: int
    total: float
    mean: float
    p50: float
    p95: float
    p99: float
    max: float
    histogram: Histogram


@dataclass
class TraceReport:
    """Per-layer breakdown of one exported trace."""

    source: str
    span_count: int = 0
    dropped: int = 0
    #: Spans whose timestamps were unusable (cut short, hand-edited);
    #: excluded from the statistics instead of polluting the p50 as
    #: zero-duration samples.
    malformed_spans: int = 0
    layers: list[LayerSummary] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)

    def format(self) -> str:
        head = format_table(
            f"Trace report: {self.source} ({self.span_count} spans, "
            f"virtual seconds)",
            ["Layer", "Spans", "Total", "Mean", "P50", "P95", "P99",
             "Max"],
            [[s.layer, s.count, s.total, s.mean, s.p50, s.p95, s.p99,
              s.max]
             for s in self.layers])
        blocks = [head]
        if self.dropped:
            blocks.append(f"(ring buffer dropped {self.dropped} older "
                          f"spans)")
        if self.malformed_spans:
            blocks.append(f"(skipped {self.malformed_spans} malformed "
                          f"spans with unusable timestamps — excluded "
                          f"from the statistics above)")
        for summary in self.layers:
            blocks.append(_format_histogram(summary))
        if self.counters:
            names = sorted(self.counters)
            blocks.append(format_table(
                "Counters", ["Name", "Value"],
                [[name, self.counters[name]] for name in names]))
        return "\n\n".join(blocks)


def _format_histogram(summary: LayerSummary) -> str:
    histogram = summary.histogram
    peak = max(histogram.bucket_counts) or 1
    lines = [f"Layer {summary.layer!r} span durations:"]
    for label, count in histogram.bucket_rows():
        if not count:
            continue
        bar = "#" * max(1, round(_BAR_WIDTH * count / peak))
        lines.append(f"  <= {label:>7}s  {bar} {count}")
    if len(lines) == 1:
        lines.append("  (no spans)")
    return "\n".join(lines)


def _span_duration(record: dict) -> float | None:
    """Duration of one span record, ``None`` when timestamps are
    unusable.

    Exported traces may contain spans that were cut short (no ``end``),
    emitted outside any parent phase (no ``start`` inherited), or
    hand-edited; the report counts them as malformed instead of either
    crashing the run or silently folding zeros into the percentiles.
    """
    try:
        return float(record["end"]) - float(record["start"])
    except (KeyError, TypeError, ValueError):
        return None


def summarize_spans(span_records: list[dict], source: str = "live",
                    dropped: int = 0,
                    counters: dict | None = None) -> TraceReport:
    """Build a :class:`TraceReport` from span record dicts."""
    by_layer: dict[str, list[float]] = {}
    malformed = 0
    for record in span_records:
        duration = _span_duration(record)
        if duration is None:
            malformed += 1
            continue
        layer = record.get("layer") or "(none)"
        by_layer.setdefault(str(layer), []).append(duration)
    report = TraceReport(source=source, span_count=len(span_records),
                         dropped=dropped, malformed_spans=malformed,
                         counters=dict(counters or {}))
    for layer in sorted(by_layer):
        durations = sorted(by_layer[layer])
        histogram = Histogram(layer, DEFAULT_BUCKETS)
        for duration in durations:
            histogram.observe(duration)
        report.layers.append(LayerSummary(
            layer=layer, count=len(durations), total=sum(durations),
            mean=sum(durations) / len(durations),
            p50=percentile(durations, 0.50),
            p95=percentile(durations, 0.95),
            p99=percentile(durations, 0.99),
            max=durations[-1], histogram=histogram))
    report.layers.sort(key=lambda s: s.total, reverse=True)
    return report


def build_trace_report(path) -> TraceReport:
    """Load an exported JSONL trace and summarize it per layer."""
    from repro.obs.export import load_records

    records = load_records(path)
    spans = [r for r in records if r.get("type") == "span"]
    meta = next((r for r in records if r.get("type") == "meta"), {})
    counters = {r["name"]: r["value"] for r in records
                if r.get("type") == "metric"
                and r.get("kind") == "counter"
                and "name" in r and "value" in r}
    return summarize_spans(spans, source=str(path),
                           dropped=meta.get("dropped", 0),
                           counters=counters)
