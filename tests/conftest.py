"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import importlib
import pkgutil

import pytest
from hypothesis import settings

import repro
from repro.engine.database import DatabaseEngine
from repro.engine.session import EngineSession
from repro.sim.costs import CostModel
from repro.sim.meter import Meter
from repro.sql.parser import parse_statement
from repro.sql.plan_cache import CachedStatement
from tests import row_engine_oracle

#: ``--hypothesis-profile=ci``: the same examples on every run, so a red
#: build is the code's doing and not the draw's.  Hypothesis mixes into
#: its draws constants it reads from the source of every loaded non-test
#: module, read when a draw first needs them; so every ``repro`` module
#: is imported here, before any test runs, and a test draws the same
#: examples whichever tests are selected or ran before it.  The limit:
#: the examples are a function of the test, the Hypothesis version and
#: the package source, so a change that adds or removes a literal in
#: ``src/repro`` (a string of up to 20 characters outside a docstring or
#: f-string, a float, an int outside -99..99) may redraw them.
settings.register_profile("ci", derandomize=True)
for _module in pkgutil.walk_packages(repro.__path__, "repro."):
    if not _module.name.endswith(".__main__"):
        importlib.import_module(_module.name)


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
