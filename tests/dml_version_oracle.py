"""Test-only oracle: per-table DML versions by full-history replay.

This is the restart code the engine ran before log truncation started
folding versions into a durable base (``repro.engine.dml_versions``):
one +1 per table per committed transaction, replayed over the *whole*
history — every record truncation dropped plus the live log.  The
engine keeps no dropped record, so the history is recorded here: a
:class:`HistoryRecorder` wraps a log's ``truncate`` and keeps what each
truncation drops, and a world installs one on every log it builds an
engine on.  It is deliberately an independent implementation
(isinstance chains, no shared helper, and its own reading of a
``CatalogRecord``'s ``kind`` and ``obj`` rather than
``CatalogRecord.table_name``), so the production fold has a judge that
does not share its bugs.  Cost grows with history; that is why it lives
under ``tests/``.
"""

from repro.obs.views import SYSTEM_VIEWS
from repro.phoenix_names import PHOENIX_PREFIX
from repro.wal.records import (
    AbortRecord,
    CatalogRecord,
    CommitRecord,
    DeleteRecord,
    InsertRecord,
    UpdateRecord,
)


def _tracked(name: str) -> bool:
    return not (name.startswith("#") or name.startswith(PHOENIX_PREFIX)
                or name in SYSTEM_VIEWS)


class HistoryRecorder:
    """Keeps every record ``wal``'s truncations drop, in LSN order."""

    def __init__(self, wal):
        self.dropped: list = []
        self._truncate = wal.truncate
        # An instance attribute, and a bound method: a deep copy of the
        # log (``EngineWorld.fork``) copies its recorder along with it.
        wal.truncate = self.truncate

    def truncate(self, up_to_lsn: int, archive=None) -> int:
        def sink(records):
            self.dropped.extend(records)
            if archive is not None:
                archive(records)

        return self._truncate(up_to_lsn, archive=sink)


def full_history_records(wal) -> list:
    """Every record ever logged, once each, in LSN order: the recorded
    prefix, then the live log."""
    recorder = getattr(vars(wal).get("truncate"), "__self__", None)
    dropped = recorder.dropped \
        if isinstance(recorder, HistoryRecorder) else []
    assert [rec.lsn for rec in dropped] == \
        list(range(1, wal.truncated_lsn + 1)), \
        "the log was truncated without a history recorder"
    return dropped + list(wal.all_records())


def full_history_dml_versions(wal) -> dict[str, int]:
    versions: dict[str, int] = {}
    pending: dict[int, set[str]] = {}
    for rec in full_history_records(wal):
        name = None
        if isinstance(rec, (InsertRecord, DeleteRecord, UpdateRecord)):
            name = rec.table_name
        elif isinstance(rec, CatalogRecord):
            # Procedures are read by no cached result: untracked.
            if rec.kind in ("table", "view"):
                name = rec.obj["name"]
            elif rec.kind == "index":
                name = rec.obj["table_name"]
        elif isinstance(rec, CommitRecord):
            for table in sorted(pending.pop(rec.txn_id, ())):
                versions[table] = versions.get(table, 0) + 1
            continue
        elif isinstance(rec, AbortRecord):
            pending.pop(rec.txn_id, None)
            continue
        if name is not None and _tracked(name.lower()):
            pending.setdefault(rec.txn_id, set()).add(name.lower())
    return versions


def assert_versions_match_full_history(engine) -> dict[str, int]:
    """``catalog.dml_versions`` of a just-restarted engine equals the
    full-history replay; returns the versions."""
    expected = full_history_dml_versions(engine.wal)
    assert engine.catalog.dml_versions == expected
    return expected
