"""Write-ahead logging and restart recovery (ARIES-lite).

The engine follows the classic discipline:

* every change is logged *before* the page is touched (WAL rule),
* commit forces the log (durability),
* dirty pages may reach disk before commit (steal) and need not reach disk
  at commit (no-force),
* restart recovery runs analysis → redo (from the last checkpoint,
  page-LSN-guarded, so it is idempotent) → undo of loser transactions,
  writing compensation records.

This is the machinery the paper *leans on*: Phoenix materializes session
state as ordinary committed tables precisely so that ordinary database
recovery brings them back after a crash.
"""

from repro.wal.log import WriteAheadLog
from repro.wal.records import (
    AbortRecord,
    BeginRecord,
    CatalogRecord,
    CheckpointRecord,
    CLRRecord,
    CommitRecord,
    DeleteRecord,
    EndRecord,
    InsertRecord,
    LogRecord,
    UpdateRecord,
)
from repro.wal.recovery import RecoveryManager, RecoveryReport

__all__ = [
    "WriteAheadLog",
    "LogRecord",
    "BeginRecord",
    "CommitRecord",
    "AbortRecord",
    "EndRecord",
    "InsertRecord",
    "DeleteRecord",
    "UpdateRecord",
    "CatalogRecord",
    "CheckpointRecord",
    "CLRRecord",
    "RecoveryManager",
    "RecoveryReport",
]
