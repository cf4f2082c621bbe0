"""Wire protocol messages between the ODBC driver and the server.

A deliberately TDS-flavoured request/response protocol.  Requests carry a
``session_token``; responses are plain dataclasses.  Errors surface as
exceptions from :meth:`DatabaseServer.handle` (the network layer converts
a dead server into :class:`~repro.errors.ServerDownError` /
:class:`~repro.errors.ServerCrashedError`, which is what the native
driver reports and Phoenix intercepts).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.types import Column, value_width_bytes


class Request:
    """Base class; ``wire_bytes`` sizes the request for transfer costs."""

    __slots__ = ()

    def wire_bytes(self) -> int:
        return 32


@dataclass(slots=True)
class ConnectRequest(Request):
    login: str = "app"
    database: str = "default"
    options: dict = field(default_factory=dict)

    def wire_bytes(self) -> int:
        return 64 + 16 * len(self.options)


@dataclass(slots=True)
class DisconnectRequest(Request):
    session_token: int = 0


@dataclass(slots=True)
class ExecuteRequest(Request):
    """Run ``sql`` on the session.

    ``script``: ``sql`` is a ``;``-separated batch the server runs in
    order, answering with each statement's outcome and the last one's
    result (see :class:`ExecuteResponse`).  ``replaces``: the statement
    id of the open result this execution replaces on its client handle;
    the server closes it first.  Both ride in the fixed header.
    """

    session_token: int = 0
    sql: str = ""
    params: dict = field(default_factory=dict)
    script: bool = False
    replaces: int = 0

    def wire_bytes(self) -> int:
        return 32 + len(self.sql) + 16 * len(self.params)


@dataclass(slots=True)
class FetchRequest(Request):
    """Ask the server to refill the row stream of an open statement.

    ``speculative`` marks a fetch-ahead request the driver issued before
    the application asked for the rows.  It is observability-only — the
    server answers identically and it adds no wire bytes (the flag rides
    in the fixed 32-byte header).
    """

    session_token: int = 0
    statement_id: int = 0
    max_rows: int | None = None
    speculative: bool = False


@dataclass(slots=True)
class AdvanceRequest(Request):
    """Server-side repositioning: skip ``count`` rows of an open statement
    without shipping them to the client.

    This models the stored procedure of §3.4: "a stored procedure that
    advances to a specified tuple in a table, hence advancing through the
    result set on the server without passing tuples to the client".
    """

    session_token: int = 0
    statement_id: int = 0
    count: int = 0


@dataclass(slots=True)
class CloseStatementRequest(Request):
    session_token: int = 0
    statement_id: int = 0


@dataclass(slots=True)
class SetOptionRequest(Request):
    session_token: int = 0
    name: str = ""
    value: object = None


@dataclass(slots=True)
class PingRequest(Request):
    pass


@dataclass(slots=True)
class VersionProbeRequest(Request):
    """Ask for the server's current per-table DML version vector.

    The shared result cache's revalidation probe: after a reconnect (or
    any cache-epoch change) the driver manager fetches the committed
    version of every table instead of re-executing cached statements —
    one round trip revalidates the whole cache.
    """

    session_token: int = 0


# -- responses ---------------------------------------------------------------


@dataclass(slots=True)
class StatementOutcome:
    """What one statement of a script did: its row count (-1 for none),
    and the metadata of the result it read (a ``CREATE TABLE ... AS``
    reports its query's)."""

    rowcount: int = -1
    columns: list[Column] = field(default_factory=list)

    def wire_bytes(self) -> int:
        return 8 + 16 * len(self.columns)


@dataclass(slots=True)
class ConnectResponse:
    session_token: int

    def wire_bytes(self) -> int:
        return 32


@dataclass(slots=True)
class ExecuteResponse:
    """Result header plus the first buffered batch of rows."""

    kind: str  # 'rows' | 'rowcount' | 'ok'
    statement_id: int = 0
    columns: list[Column] = field(default_factory=list)
    rows: list[tuple] = field(default_factory=list)
    #: Wire width of ``rows``: the server's result set sizes each batch
    #: once as it leaves the output buffer.
    row_bytes: int = 0
    done: bool = True            # row stream exhausted?
    rowcount: int = -1
    message: str = ""
    #: Server catalog generation at execution time; rides in the existing
    #: header (the 32-byte meta block already has room), so it adds no
    #: wire bytes.  Clients use it to invalidate metadata caches.
    schema_version: int = 0
    #: Shared-result-cache piggybacks (both empty/None while the cache
    #: is off, adding no wire bytes):
    #: ``read_versions`` stamps a SELECT's result with its read set,
    #: ``table -> (DML version, primary-key prefixes sought)``, the
    #: empty prefix meaning the whole table (None = result not
    #: shareable); ``table_versions`` carries the writes committed since
    #: the last response as ``table -> (version the bump started from,
    #: new version, primary keys written or None for the whole table)``,
    #: so every round trip doubles as an invalidation broadcast.
    read_versions: dict | None = None
    table_versions: dict = field(default_factory=dict)
    #: A script's statements before the last, in order (empty for a
    #: single statement).  The response itself is the last statement's.
    outcomes: list[StatementOutcome] = field(default_factory=list)

    def wire_bytes(self) -> int:
        meta = 32 + 16 * len(self.columns)
        for outcome in self.outcomes:
            meta += outcome.wire_bytes()
        piggyback = 0
        for _version, prefixes in (self.read_versions or {}).values():
            piggyback += 12 + _key_bytes(prefixes)
        for _base, _version, keys in self.table_versions.values():
            piggyback += 16 + _key_bytes(keys or ())
        return meta + self.row_bytes + piggyback


def _key_bytes(keys) -> int:
    """Wire width of primary keys (or prefixes): a length byte each,
    then the values."""
    return sum(1 + sum(map(value_width_bytes, key)) for key in keys)


@dataclass(slots=True)
class FetchResponse:
    rows: list[tuple] = field(default_factory=list)
    done: bool = True
    row_bytes: int = 0  # wire width of ``rows`` (see ExecuteResponse)

    def wire_bytes(self) -> int:
        return 16 + self.row_bytes


@dataclass(slots=True)
class AdvanceResponse:
    skipped: int = 0
    done: bool = False

    def wire_bytes(self) -> int:
        return 16


@dataclass(slots=True)
class OkResponse:
    message: str = ""

    def wire_bytes(self) -> int:
        return 16


@dataclass(slots=True)
class PingResponse:
    alive: bool = True

    def wire_bytes(self) -> int:
        return 8


@dataclass(slots=True)
class VersionProbeResponse:
    """The server's committed per-table DML version vector."""

    versions: dict = field(default_factory=dict)

    def wire_bytes(self) -> int:
        return 16 + 12 * len(self.versions)
