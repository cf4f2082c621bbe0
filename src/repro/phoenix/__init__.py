"""Phoenix/ODBC: persistent database sessions.

The paper's contribution.  :class:`PhoenixDriverManager` exposes the same
surface as the native :class:`~repro.odbc.driver_manager.DriverManager`
but makes the application's database session survive server crashes:

* result sets are made persistent — either materialized into a server
  table (by default one script exchange, ``CREATE TABLE T AS <query>``
  under a status record; under ``CostModel.paper()`` §2.1's probe,
  ``CREATE TABLE`` and generated stored procedure) or read entirely
  into a client-side cache (§4, the OLTP optimization);
* update statements are wrapped in a transaction that records their
  affected-row count in a Phoenix status table, making completion
  testable after a crash (by default one script exchange too);
* connections are *virtual*: Phoenix reconnects, replays connection
  options and re-binds the virtual handle after a failure (§2.2);
* failures are detected by intercepting driver errors and by request
  timeouts, and recovery is automatic and idempotent (§2.3).
"""

from repro.phoenix.config import PhoenixConfig
from repro.phoenix.driver_manager import PhoenixDriverManager

__all__ = ["PhoenixConfig", "PhoenixDriverManager"]
