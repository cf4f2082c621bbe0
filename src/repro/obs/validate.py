"""Trace schema checker: is an exported JSONL trace well-formed?

Checks, per record type:

* ``meta`` — present first, integer counts, and from schema version 3
  on an ``identity_violations`` list of strings;
* ``span`` — required fields with the right types, ``end >= start``,
  unique ids, no ``open`` status, parents exist (unless the exporting
  ring dropped spans) and strictly-nested spans lie inside their
  parent's interval (``stream`` spans are exempt: they bracket lazy work
  whose lifetime legitimately overlaps siblings);
* ``recovery`` — integer ``recovery_id``, numeric ``finished_at`` and a
  list of ``[phase, seconds]`` pairs (schema version 3);
* ``metric`` — known kind, numeric value;
* ``latency`` — request kind, integer count, numeric percentiles, and a
  numeric per-component attribution map (schema version 2).

An unknown declared schema version is a *warning*, not an error — newer
files stay checkable for the record types this validator knows.

Also usable on live :class:`~repro.obs.trace.Span` objects
(:func:`validate_spans`) — the crash-fuzz test asserts every fuzzed
crash still yields a complete, well-nested span tree.  The command line
is ``python -m repro.bench report --input trace.jsonl``, which checks a
file with :func:`read_trace` before it renders it.
"""

from __future__ import annotations

_SPAN_FIELDS = {
    "span_id": int,
    "parent_id": int,
    "name": str,
    "layer": str,
    "kind": str,
    "status": str,
    "start": (int, float),
    "end": (int, float),
    "attrs": dict,
}
_SPAN_KINDS = ("span", "stream")
#: The exporter writes counters only; gauge and histogram records come
#: from files written before counters became the only metric kind.
_METRIC_KINDS = ("counter", "gauge", "histogram")
#: Interval-containment slack: timestamps are exact floats from one
#: clock, so equality at the edges is legal but drift is not.
_EPS = 1e-9


def validate_records(records: list[dict],
                     warnings: list[str] | None = None) -> list[str]:
    """Return every schema violation found (empty list == valid).

    Non-fatal findings (an unknown declared schema version) are
    appended to ``warnings`` when a list is passed.
    """
    from repro.obs.export import (KNOWN_SCHEMA_VERSIONS,
                                  declared_schema_version)

    errors: list[str] = []
    spans: dict[int, dict] = {}
    dropped = 0
    declared = declared_schema_version(records)
    if warnings is not None and declared is not None \
            and declared not in KNOWN_SCHEMA_VERSIONS:
        warnings.append(
            f"meta declares schema version {declared}; this validator "
            f"knows {KNOWN_SCHEMA_VERSIONS} — unknown record types or "
            f"fields are not checked")
    for i, record in enumerate(records, start=1):
        where = f"record {i}"
        if not isinstance(record, dict):
            errors.append(f"{where}: not an object")
            continue
        rtype = record.get("type")
        if rtype == "meta":
            if i != 1:
                errors.append(f"{where}: meta record must come first")
            for field in ("version", "spans", "dropped", "open_spans"):
                if not isinstance(record.get(field), int):
                    errors.append(
                        f"{where}: meta.{field} must be an integer")
            dropped = record.get("dropped", 0) \
                if isinstance(record.get("dropped"), int) else 0
            # Version 3 writes the ledger's identity violations here.
            violations = record.get("identity_violations")
            if (violations is not None or declared == 3) and not (
                    isinstance(violations, list)
                    and all(isinstance(v, str) for v in violations)):
                errors.append(f"{where}: meta.identity_violations must "
                              f"be a list of strings")
        elif rtype == "span":
            errors.extend(_check_span_fields(record, where))
            span_id = record.get("span_id")
            if isinstance(span_id, int):
                if span_id in spans:
                    errors.append(f"{where}: duplicate span_id {span_id}")
                else:
                    spans[span_id] = record
        elif rtype == "metric":
            if record.get("kind") not in _METRIC_KINDS:
                errors.append(
                    f"{where}: metric kind {record.get('kind')!r} not in "
                    f"{_METRIC_KINDS}")
            if not isinstance(record.get("name"), str):
                errors.append(f"{where}: metric.name must be a string")
            if not isinstance(record.get("value"), (int, float)):
                errors.append(f"{where}: metric.value must be numeric")
        elif rtype == "latency":
            errors.extend(_check_latency_fields(record, where))
        elif rtype == "recovery":
            errors.extend(_check_recovery_fields(record, where))
        else:
            errors.append(f"{where}: unknown record type {rtype!r}")
    errors.extend(_check_tree(spans, dropped))
    return errors


def _check_latency_fields(record: dict, where: str) -> list[str]:
    errors = []
    if not isinstance(record.get("kind"), str):
        errors.append(f"{where}: latency.kind must be a string")
    for field in ("count", "wasted"):
        if not isinstance(record.get(field), int):
            errors.append(f"{where}: latency.{field} must be an integer")
    for field in ("p50", "p95", "p99", "max", "total", "hidden"):
        if not isinstance(record.get(field), (int, float)):
            errors.append(f"{where}: latency.{field} must be numeric")
    components = record.get("components")
    if not isinstance(components, dict):
        errors.append(f"{where}: latency.components must be an object")
    else:
        for name, value in components.items():
            if not isinstance(value, (int, float)):
                errors.append(f"{where}: latency component {name!r} "
                              f"must be numeric")
    return errors


def _check_recovery_fields(record: dict, where: str) -> list[str]:
    errors = []
    if not isinstance(record.get("recovery_id"), int):
        errors.append(f"{where}: recovery.recovery_id must be an integer")
    if not isinstance(record.get("finished_at"), (int, float)):
        errors.append(f"{where}: recovery.finished_at must be numeric")
    phases = record.get("phases")
    if not isinstance(phases, list) or not all(
            isinstance(pair, list) and len(pair) == 2
            and isinstance(pair[0], str)
            and isinstance(pair[1], (int, float)) for pair in phases):
        errors.append(f"{where}: recovery.phases must be a list of "
                      f"[phase, seconds] pairs")
    return errors


def _check_span_fields(record: dict, where: str) -> list[str]:
    errors = []
    for field, types in _SPAN_FIELDS.items():
        if field not in record:
            errors.append(f"{where}: span missing field {field!r}")
        elif not isinstance(record[field], types):
            errors.append(
                f"{where}: span field {field!r} has type "
                f"{type(record[field]).__name__}")
    if record.get("kind") not in _SPAN_KINDS:
        errors.append(f"{where}: span kind {record.get('kind')!r} not in "
                      f"{_SPAN_KINDS}")
    if record.get("status") == "open":
        errors.append(
            f"{where}: span {record.get('span_id')} was never closed")
    start, end = record.get("start"), record.get("end")
    if isinstance(start, (int, float)) and isinstance(end, (int, float)) \
            and end < start:
        errors.append(
            f"{where}: span {record.get('span_id')} ends before it "
            f"starts ({end} < {start})")
    return errors


def _check_tree(spans: dict[int, dict], dropped: int) -> list[str]:
    """Parent existence and nesting containment over the span forest."""
    errors = []
    for span in spans.values():
        parent_id = span.get("parent_id")
        span_id = span.get("span_id")
        if not isinstance(parent_id, int) or parent_id == 0:
            continue
        parent = spans.get(parent_id)
        if parent is None:
            if not dropped:
                errors.append(
                    f"span {span_id}: orphan — parent {parent_id} "
                    f"does not exist")
            continue
        if parent.get("kind") == "stream":
            errors.append(
                f"span {span_id}: parent {parent_id} is a stream span "
                f"(streams cannot have children)")
        if span.get("kind") != "span":
            continue  # stream spans legitimately overlap siblings
        try:
            inside = (span["start"] >= parent["start"] - _EPS
                      and span["end"] <= parent["end"] + _EPS)
        except (KeyError, TypeError):
            continue  # field errors already reported
        if not inside:
            errors.append(
                f"span {span_id} [{span['start']}, {span['end']}] not "
                f"nested inside parent {parent_id} "
                f"[{parent['start']}, {parent['end']}]")
    return errors


def validate_spans(spans) -> list[str]:
    """Validate live Span objects (no meta line, no drop slack)."""
    return validate_records([span.to_dict() for span in spans])


def read_trace(path, warnings: list[str] | None = None
               ) -> tuple[list, list[str]]:
    """Load and check one trace file: (records, schema violations).

    A file that cannot be read or parsed, or holds no record, is one
    violation and no records.  The unknown-version warning lands in
    ``warnings`` (when a list is passed), not in the global warning
    machinery.
    """
    import warnings as warnings_module

    from repro.obs.export import load_records

    try:
        with warnings_module.catch_warnings():
            warnings_module.simplefilter("ignore")
            records = load_records(path)
    except (OSError, ValueError) as error:
        return [], [str(error)]
    if not records:
        return [], [f"{path}: empty trace file"]
    return records, validate_records(records, warnings=warnings)
