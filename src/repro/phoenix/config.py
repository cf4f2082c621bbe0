"""Phoenix configuration knobs.

Defaults mirror the paper's setup: client caching is *off* (it is the §4
optimization, enabled per-connection at create time — "the size of this
client cache is a runtime parameter, set when a database connection is
first created"), repositioning is client-side (Fig. 3; Fig. 4 flips it to
server-side).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class PhoenixConfig:
    """Runtime parameters of one Phoenix driver manager."""

    #: §4 client result cache: when > 0, result sets up to this many rows
    #: are cached client-side instead of materialized on the server.
    client_cache_rows: int = 0

    #: How to reposition inside a persisted result set during recovery:
    #: 'client' fetches rows through the connection and discards them
    #: (Fig. 3); 'server' uses the repositioning stored procedure that
    #: advances without shipping tuples (Fig. 4).
    reposition_mode: str = "client"

    def validate(self) -> None:
        if self.reposition_mode not in ("client", "server"):
            raise ValueError(
                f"reposition_mode must be 'client' or 'server', "
                f"got {self.reposition_mode!r}")
        if self.client_cache_rows < 0:
            raise ValueError("client_cache_rows cannot be negative")
