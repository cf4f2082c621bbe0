"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.engine.database import DatabaseEngine
from repro.engine.session import EngineSession
from repro.sim.costs import CostModel
from repro.sim.meter import Meter
from repro.sql.parser import parse_statement
from repro.sql.plan_cache import CachedStatement
from tests import row_engine_oracle

#: ``--hypothesis-profile=ci``: the same examples on every run, so a red
#: build is the code's doing and not the draw's.
settings.register_profile("ci", derandomize=True)


@pytest.fixture(params=["batch", "rows"])
def exec_mode(request):
    """Run the test twice: on the executor, and with every plan run by
    the row-at-a-time oracle (``tests/row_engine_oracle.py``)."""
    if request.param == "batch":
        yield "batch"
    else:
        with row_engine_oracle.installed():
            yield "rows"


@pytest.fixture
def meter() -> Meter:
    return Meter(CostModel())


@pytest.fixture
def engine(meter) -> DatabaseEngine:
    return DatabaseEngine(meter=meter)


@pytest.fixture
def session() -> EngineSession:
    return EngineSession(session_id=1)


@pytest.fixture
def run(engine, session):
    """Execute SQL against the engine; returns rows, rowcount, or None."""

    def _run(sql: str, params: dict | None = None):
        result = engine.execute(sql, session, params)
        if result.kind == "rows":
            return result.fetch_all()
        if result.kind == "rowcount":
            return result.rowcount
        return None

    return _run


def verbatim(engine: DatabaseEngine) -> DatabaseEngine:
    """Send every statement text ``engine`` is given down the verbatim
    route: parsed as written, never normalized, planned afresh each time
    and never cached — the reference the plan cache is compared with.
    Returns ``engine``."""

    def prepare(sql):
        if isinstance(sql, str):
            sql = parse_statement(sql)
        return CachedStatement(statement=sql), None

    engine.prepare = prepare
    return engine
