"""Repositioning within a recovered result set (§3.4).

After reopening the materialized result table, Phoenix must advance to
the tuple where delivery was interrupted.  Two strategies, matching the
paper's Figures 3 and 4:

* ``client`` — sequence through the result from the client, fetching and
  discarding rows (each discarded row pays the full per-fetch cost; the
  upper bound the paper measured in Fig. 3);
* ``server`` — the repositioning stored procedure: "advances to a
  specified tuple in a table ... without passing tuples to the client",
  modeled by the :class:`~repro.server.protocol.AdvanceRequest`, the
  dramatic ~10x improvement of Fig. 4.
"""

from __future__ import annotations

from repro.odbc.driver import NativeDriver
from repro.odbc.handles import StatementHandle


def reposition_client_side(driver: NativeDriver,
                           statement: StatementHandle,
                           position: int) -> int:
    """Fetch-and-discard ``position`` rows through the client."""
    discarded = 0
    while discarded < position:
        row = driver.fetch_one(statement)
        if row is None:
            break
        discarded += 1
    return discarded


def reposition_server_side(driver: NativeDriver,
                           statement: StatementHandle,
                           position: int) -> int:
    """Skip ``position`` rows on the server (stored-procedure advance)."""
    if position <= 0:
        return 0
    return driver.advance(statement, position)


def reposition(driver: NativeDriver, statement: StatementHandle,
               position: int, mode: str) -> int:
    """Advance ``statement``, just re-executed on the recovered table,
    to ``position``."""
    if mode == "server":
        return reposition_server_side(driver, statement, position)
    return reposition_client_side(driver, statement, position)
