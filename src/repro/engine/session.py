"""Server-side sessions.

An :class:`EngineSession` is the *database session* of the paper: the
volatile server-side state tied to one client connection — temp tables,
the in-flight transaction, and session settings.  It is destroyed by a
crash (and by normal disconnect), which is why Phoenix has to reconstruct
everything it needs from persistent tables afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.table import Table
from repro.sql.plan_cache import LRUCache
from repro.txn.manager import Transaction


@dataclass
class EngineSession:
    """Volatile per-connection server state."""

    session_id: int
    temp_tables: dict[str, Table] = field(default_factory=dict)
    current_txn: Transaction | None = None
    #: The own transaction of an autocommit statement that is queued for
    #: a lock: it holds the statement's place in the queue until the
    #: statement runs again (and commits it) or the wait is abandoned.
    queued_txn: Transaction | None = None
    settings: dict[str, object] = field(default_factory=dict)
    #: Plans that reference this session's temp tables; they die with the
    #: session (disconnect or crash), like the temp tables themselves.
    plan_cache: LRUCache = field(default_factory=lambda: LRUCache(32))

    @property
    def in_transaction(self) -> bool:
        return self.current_txn is not None and self.current_txn.is_active

    def temp_table(self, name: str) -> Table | None:
        return self.temp_tables.get(name.lower())

    def set_option(self, name: str, value) -> None:
        self.settings[name.lower()] = value

    def get_option(self, name: str, default=None):
        return self.settings.get(name.lower(), default)
