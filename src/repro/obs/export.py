"""The record stream of one world, and its JSONL file.

:func:`trace_records` is the only reader of a world's instruments for
export and for the report; one record per line in the file:

* first a ``meta`` record — schema version, span counts, how many
  finished spans the ring buffer dropped (validators relax the
  parent-must-exist check when spans were dropped), and the latency
  ledger's accounting-identity violations (schema version 3);
* one ``span`` record per finished span (schema in
  :mod:`repro.obs.validate`);
* one ``recovery`` record per entry of the recovery log: its
  ``recovery_id``, ``finished_at`` and ordered ``[phase, seconds]``
  pairs (schema version 3);
* one ``metric`` record per counter (kind ``counter``, empty bucket —
  older files may also carry ``gauge`` and ``histogram`` records, which
  the validator still reads);
* one ``latency`` record per request kind the latency ledger saw
  (schema version 2; absent while the world has no ledger).

``python -m repro.bench report --input trace.jsonl`` validates a file
and renders it; without ``--input`` it renders the live records of the
tracked mix the same way.

The ``meta`` record carries ``schema_version`` (and the legacy
``version`` alias) so record types can evolve safely: readers warn on
versions they do not know instead of misparsing them silently.
"""

from __future__ import annotations

import json
import pathlib
import warnings

#: 2 added ``latency`` records and ``schema_version`` stamping; 3 added
#: ``recovery`` records and ``meta.identity_violations``.  Older files
#: remain readable.
SCHEMA_VERSION = 3

#: Every version this reader/validator understands.
KNOWN_SCHEMA_VERSIONS = (1, 2, 3)


def trace_records(meter) -> list[dict]:
    """Every record of one world, meta line first."""
    tracer = meter.tracer
    ledger = meter.latency
    records: list[dict] = [{
        "type": "meta", "version": SCHEMA_VERSION,
        "schema_version": SCHEMA_VERSION,
        "spans": len(tracer.finished), "dropped": tracer.dropped,
        "open_spans": tracer.open_span_count,
        "identity_violations": (list(ledger.identity_violations)
                                if ledger is not None else []),
    }]
    records.extend(span.to_dict() for span in tracer.finished)
    records.extend({"type": "recovery",
                    "recovery_id": entry["recovery_id"],
                    "finished_at": entry["finished_at"],
                    "phases": [[phase, seconds]
                               for phase, seconds in entry["phases"]]}
                   for entry in meter.recovery_log)
    counters = meter.counters
    records.extend({"type": "metric", "kind": "counter", "name": name,
                    "bucket": "", "value": float(counters[name])}
                   for name in sorted(counters))
    if ledger is not None:
        records.extend(ledger.records())
    return records


def export_trace(meter, path) -> int:
    """Write one world's records as JSONL; returns #records."""
    records = trace_records(meter)
    text = "\n".join(json.dumps(r, sort_keys=True) for r in records)
    pathlib.Path(path).write_text(text + "\n")
    return len(records)


def declared_schema_version(records: list[dict]):
    """The meta record's schema version, or None when undeclared.

    ``schema_version`` wins; version-1 files only carried ``version``.
    """
    meta = records[0] if records else None
    if not isinstance(meta, dict) or meta.get("type") != "meta":
        return None
    declared = meta.get("schema_version", meta.get("version"))
    return declared if isinstance(declared, int) else None


def load_records(path) -> list[dict]:
    """Parse a JSONL trace file back into record dicts.

    Emits a :class:`UserWarning` when the file declares a schema version
    this reader does not know — the records still load, but unknown
    record types or fields may be silently skipped downstream.
    """
    records = []
    for line_no, line in enumerate(
            pathlib.Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as error:
            raise ValueError(
                f"{path}:{line_no}: not valid JSON: {error}") from error
    declared = declared_schema_version(records)
    if declared is not None and declared not in KNOWN_SCHEMA_VERSIONS:
        warnings.warn(
            f"{path}: declares schema version {declared}, but this "
            f"reader knows {KNOWN_SCHEMA_VERSIONS} — records may be "
            f"skipped or misread", UserWarning, stacklevel=2)
    return records
