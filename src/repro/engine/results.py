"""Statement results returned by the engine.

``StatementResult`` is what one executed statement produces *inside the
server*: a lazy row stream with column metadata, an affected-row count, or
a bare acknowledgement.  The server layer wraps row streams into
:class:`~repro.server.server.ServerResultSet` objects that add the network
output-buffer semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.types import Column


@dataclass
class StatementResult:
    """Outcome of one statement execution."""

    kind: str  # 'rows' | 'rowcount' | 'ok'
    columns: list[Column] = field(default_factory=list)
    rows: object = None           # lazy iterator of tuples (kind == 'rows')
    rowcount: int = -1            # kind == 'rowcount'
    message: str = ""
    #: True when the row stream is a bare table scan that the server can
    #: deliver page-at-a-time (see executor.is_streamable_plan).
    streamable: bool = False
    #: For SELECT results while the shared result cache is enabled: the
    #: read set, ``table -> (DML version, primary-key prefixes sought)``
    #: for every table the plan reads (the cache entry's validity
    #: certificate), or None when the result must not be cached (temp
    #: tables, sys_* views, Phoenix overhead tables — or the knob is
    #: off).
    read_versions: dict | None = None

    @classmethod
    def of_rows(cls, columns: list[Column], rows) -> "StatementResult":
        return cls(kind="rows", columns=columns, rows=rows)

    @classmethod
    def of_rowcount(cls, count: int, message: str = "") -> "StatementResult":
        return cls(kind="rowcount", rowcount=count, message=message)

    @classmethod
    def ok(cls, message: str = "") -> "StatementResult":
        return cls(kind="ok", message=message)

    @property
    def returns_rows(self) -> bool:
        return self.kind == "rows"

    def fetch_all(self) -> list[tuple]:
        """Drain the row stream (testing convenience)."""
        if not self.returns_rows:
            raise ValueError("statement did not return rows")
        return list(self.rows)
