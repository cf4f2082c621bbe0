"""One report over a world's record stream.

:func:`render` takes the records of :func:`repro.obs.export.trace_records`
— live, or loaded back from the exported JSONL file; both render alike —
and prints these sections, each only when records of its type are
present:

* request latency by kind, and where the virtual seconds went
  (``latency`` records, and the meta record's identity violations);
* per-layer span statistics and duration histograms (``span`` records);
* recoveries and their phases (``recovery`` records);
* counters (``metric`` records of kind ``counter``).

``python -m repro.bench report`` is its command line; the tracked mix's
``format()`` is the latency section.
"""

from __future__ import annotations

from bisect import bisect_left

from repro.obs.latency import COMPONENTS, percentile
from repro.text_table import format_table

#: Span-duration histogram ladder (seconds): 1-3-10 steps from 0.1 ms
#: to 30 s, fixed so two runs of one workload give comparable shapes.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.0001, 0.0003, 0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0,
    30.0)

_BAR_WIDTH = 36


def render(records: list, source: str = "live") -> str:
    """Every section the records have, in the order above."""
    sections = [section(records, source)
                for section in (latency_section, span_section,
                                recovery_section, counter_section)]
    return ("\n\n".join(text for text in sections if text)
            or f"{source}: no records to report")


def _of_type(records: list, rtype: str) -> list[dict]:
    return [r for r in records
            if isinstance(r, dict) and r.get("type") == rtype]


def _meta(records: list) -> dict:
    meta = records[0] if records else None
    return meta if isinstance(meta, dict) and meta.get("type") == "meta" \
        else {}


# -- latency ------------------------------------------------------------------


def latency_section(records: list, source: str) -> str | None:
    """The per-kind SLO table and the component attribution table."""
    kinds = _of_type(records, "latency")
    if not kinds:
        return None
    total_requests = sum(r["count"] for r in kinds)
    blocks = [format_table(
        f"Request latency by kind: {source} ({total_requests} requests, "
        f"virtual seconds)",
        ["Kind", "Count", "P50", "P95", "P99", "Max", "Total"],
        [[r["kind"], r["count"], f"{r['p50']:.6f}", f"{r['p95']:.6f}",
          f"{r['p99']:.6f}", f"{r['max']:.6f}", f"{r['total']:.6f}"]
         for r in kinds])]

    totals: dict[str, float] = {}
    for record in kinds:
        for component, seconds in record["components"].items():
            totals[component] = totals.get(component, 0.0) + seconds
    grand = sum(r["total"] for r in kinds)
    component_rows = []
    for component in COMPONENTS:
        seconds = totals.get(component, 0.0)
        if seconds == 0.0:
            continue
        share = 100.0 * seconds / grand if grand else 0.0
        component_rows.append([component, f"{seconds:.6f}",
                               f"{share:.1f}%"])
    blocks.append(format_table(
        "Where the virtual seconds went (all request kinds)",
        ["Component", "Seconds", "Share"], component_rows))

    lines = [f"attributed total: {grand:.6f}s across "
             f"{total_requests} requests"]
    hidden = sum(r["hidden"] for r in kinds)
    if hidden:
        lines.append(f"overlap-hidden service (ran under client compute, "
                     f"never clocked): {hidden:.6f}s")
    wasted = sum(r["wasted"] for r in kinds)
    if wasted:
        lines.append(f"wasted requests (produced but never delivered): "
                     f"{wasted}")
    violations = _meta(records).get("identity_violations") or []
    if violations:
        lines.append(f"ACCOUNTING IDENTITY VIOLATED ({len(violations)}):")
        lines.extend(f"  {violation}" for violation in violations[:10])
    else:
        lines.append("accounting identity: every request's components "
                     "sum bit-exactly to its measured latency")
    blocks.append("\n".join(lines))
    return "\n\n".join(blocks)


# -- spans --------------------------------------------------------------------


def bucket_counts(values, bounds: tuple[float, ...] = DEFAULT_BUCKETS
                  ) -> list[int]:
    """How many ``values`` fall at or below each bound (and past the
    last one, in the final slot)."""
    counts = [0] * (len(bounds) + 1)
    for value in values:
        counts[bisect_left(bounds, value)] += 1
    return counts


def _span_duration(record: dict) -> float | None:
    """Duration of one span record, ``None`` when timestamps are
    unusable (cut short, hand-edited): the report counts such spans as
    malformed instead of folding zeros into the percentiles."""
    try:
        return float(record["end"]) - float(record["start"])
    except (KeyError, TypeError, ValueError):
        return None


def span_section(records: list, source: str) -> str | None:
    """Per-layer count, total/mean/p50/p95/p99/max virtual seconds, then
    a duration histogram per layer."""
    spans = _of_type(records, "span")
    if not spans:
        return None
    by_layer: dict[str, list[float]] = {}
    malformed = 0
    for record in spans:
        duration = _span_duration(record)
        if duration is None:
            malformed += 1
            continue
        layer = str(record.get("layer") or "(none)")
        by_layer.setdefault(layer, []).append(duration)
    layers = sorted(((layer, sorted(durations))
                     for layer, durations in sorted(by_layer.items())),
                    key=lambda item: sum(item[1]), reverse=True)
    blocks = [format_table(
        f"Spans by layer: {source} ({len(spans)} spans, virtual seconds)",
        ["Layer", "Spans", "Total", "Mean", "P50", "P95", "P99", "Max"],
        [[layer, len(durations), sum(durations),
          sum(durations) / len(durations), percentile(durations, 0.50),
          percentile(durations, 0.95), percentile(durations, 0.99),
          durations[-1]]
         for layer, durations in layers])]
    dropped = _meta(records).get("dropped")
    if dropped:
        blocks.append(f"(ring buffer dropped {dropped} older spans)")
    if malformed:
        blocks.append(f"(skipped {malformed} malformed spans with "
                      f"unusable timestamps — excluded from the "
                      f"statistics above)")
    labels = [f"{bound:g}" for bound in DEFAULT_BUCKETS] + ["+Inf"]
    for layer, durations in layers:
        counts = bucket_counts(durations)
        peak = max(counts)
        lines = [f"Layer {layer!r} span durations:"]
        lines.extend(
            f"  <= {label:>7}s  "
            f"{'#' * max(1, round(_BAR_WIDTH * count / peak))} {count}"
            for label, count in zip(labels, counts) if count)
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)


# -- recoveries and counters --------------------------------------------------


def recovery_rows(records: list) -> list[tuple]:
    """(recovery_id, phase, seconds, finished_at) per phase of every
    recovery — the rows of ``sys_recovery_phases``."""
    return [(r["recovery_id"], phase, seconds, r["finished_at"])
            for r in _of_type(records, "recovery")
            for phase, seconds in r["phases"]]


def recovery_section(records: list, source: str) -> str | None:
    recoveries = _of_type(records, "recovery")
    if not recoveries:
        return None
    return format_table(
        f"Recoveries: {source} ({len(recoveries)} recoveries, virtual "
        f"seconds)",
        ["Recovery", "Phase", "Seconds", "Finished at"],
        [[recovery_id, phase, f"{seconds:.6f}", f"{finished_at:.6f}"]
         for recovery_id, phase, seconds, finished_at
         in recovery_rows(records)])


def counter_section(records: list, source: str) -> str | None:
    counters = {r["name"]: r["value"] for r in _of_type(records, "metric")
                if r.get("kind") == "counter" and "name" in r
                and "value" in r}
    if not counters:
        return None
    return format_table("Counters", ["Name", "Value"],
                        [[name, counters[name]] for name in sorted(counters)])
