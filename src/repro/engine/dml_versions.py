"""Per-table DML versions as a fold over the log.

The shared result cache keys invalidation on ``catalog.dml_versions``:
one +1 per table per *committed* transaction that wrote it.  The
counters are never snapshotted with the catalog; they are a pure
function of the log, which is what makes post-crash versions *exactly*
consistent with the recovered data (uncommitted work is never counted —
redo/undo leaves no trace of it in table contents either).

Replaying the whole log at every restart would make restart cost grow
with history, so the function is written as a left fold whose state is
small and durable:

* ``versions``  — the counters so far;
* ``pending``   — tables written by transactions whose COMMIT/ABORT has
  not been seen yet (a transaction can straddle a truncation boundary:
  its data records dropped, its COMMIT still in the live log);
* ``through_lsn`` — every record up to here has been folded in.  Records
  at or below it are skipped, so folding a prefix twice (a crash between
  folding a prefix and dropping it from the live log) is harmless.
  LSNs run from 1 and truncation drops a prefix, so it is also the
  number of records ever archived (``sys_checkpoint``'s
  ``archived_records``).

Log truncation folds the dropped prefix into the state and writes it to
the ``dml_versions_base`` blob, and keeps nothing else of it: the
records, and the rows they carry, are garbage once the live log lets
go of them.  Restart loads that blob and runs the *same* fold over the
live log only.  Because a fold over ``dropped + live`` equals a fold
over ``live`` started from the state after ``dropped``, the result is
the full-history replay — ``tests/`` keeps that replay as the oracle,
over a history the tests record themselves.

With asynchronous commit a crash can lose acked commits, so the same
count can name different data across a crash; the client side handles
that by discarding its cache wholesale on reconnect (see
``SharedResultCache.revalidate``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.views import SYSTEM_VIEWS
from repro.phoenix_names import PHOENIX_PREFIX
from repro.wal.records import (
    AbortRecord,
    CatalogRecord,
    CommitRecord,
    DeleteRecord,
    EndRecord,
    InsertRecord,
    UpdateRecord,
)

#: Disk blob holding :meth:`DmlVersionFold.snapshot` output.
BASE_BLOB = "dml_versions_base"

#: Records that name what they write (``table_name``; None for a
#: procedure's DDL, which no cached result reads).
_WRITES = frozenset((InsertRecord, DeleteRecord, UpdateRecord,
                     CatalogRecord))


def version_tracked(name: str) -> bool:
    """Whether the shared result cache stamps/invalidates by ``name``.

    Temp tables are session-private, ``sys_*`` snapshots are rebuilt
    per query, and Phoenix's own overhead tables churn constantly —
    none of them may pollute the shared version vector.
    """
    return not (name.startswith("#") or name.startswith(PHOENIX_PREFIX)
                or name in SYSTEM_VIEWS)


@dataclass
class DmlVersionFold:
    """The fold state plus the one function that advances it."""

    versions: dict[str, int] = field(default_factory=dict)
    pending: dict[int, set[str]] = field(default_factory=dict)
    through_lsn: int = 0

    @classmethod
    def restore(cls, snapshot: dict | None) -> "DmlVersionFold":
        """Rebuild from :meth:`snapshot` output (None → empty state)."""
        if not snapshot:
            return cls()
        return cls(dict(snapshot["versions"]),
                   {txn: set(tables)
                    for txn, tables in snapshot["pending"].items()},
                   snapshot["through_lsn"])

    def snapshot(self) -> dict:
        """Plain data for the disk blob (aliases nothing in ``self``)."""
        return {"versions": dict(self.versions),
                "pending": {txn: sorted(tables)
                            for txn, tables in self.pending.items()},
                "through_lsn": self.through_lsn}

    def fold(self, records) -> int:
        """Advance over ``records`` (ascending LSN); returns how many
        were scanned, skipped ones included."""
        versions = self.versions
        pending = self.pending
        through = self.through_lsn
        tracked: dict[str, str] = {}   # raw name -> key, "" = untracked
        scanned = 0
        for rec in records:
            scanned += 1
            if rec.lsn <= through:
                continue
            through = rec.lsn
            kind = type(rec)
            if kind in _WRITES:
                name = rec.table_name
                if name is None:
                    continue
            elif kind is CommitRecord:
                for table in sorted(pending.pop(rec.txn_id, ())):
                    versions[table] = versions.get(table, 0) + 1
                continue
            elif kind is AbortRecord or kind is EndRecord:
                # End follows COMMIT/ABORT (nothing left to pop) or
                # closes a restart loser, whose writes were undone.
                pending.pop(rec.txn_id, None)
                continue
            else:
                continue
            key = tracked.get(name)
            if key is None:
                key = name.lower()
                if not version_tracked(key):
                    key = ""        # remembered as "not tracked"
                tracked[name] = key
            if key:
                pending.setdefault(rec.txn_id, set()).add(key)
        self.through_lsn = through
        return scanned
