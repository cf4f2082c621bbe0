"""Transactions: strict two-phase row locking plus log-driven rollback.

* :class:`~repro.txn.locks.LockManager` — intention locks on tables,
  shared/exclusive locks on rows, a FIFO wait queue per resource.  A
  conflicting request is queued and unwinds with
  :class:`~repro.errors.LockWaitError` (the simulation is
  single-threaded: whoever issued the statement runs it again once the
  lock is granted); a deadlock aborts its youngest transaction with
  :class:`~repro.errors.DeadlockError` — the paper likewise treats
  transaction aborts as "a normal event that most applications already
  handle".
* :class:`~repro.txn.manager.TransactionManager` — begin/commit/abort,
  write-ahead logging of every data and DDL change, rollback by walking
  the per-transaction log chain.
"""

from repro.txn.locks import LockManager, LockMode
from repro.txn.manager import Transaction, TransactionManager

__all__ = ["LockManager", "LockMode", "Transaction", "TransactionManager"]
