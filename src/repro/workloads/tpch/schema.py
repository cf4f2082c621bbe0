"""TPC-H schema DDL and bulk loading.

``create_schema`` issues the eight CREATE TABLEs (through SQL, like any
client would).  ``load`` bulk-inserts generated rows directly through the
engine's table runtime — the moral equivalent of ``bcp`` — with the meter
paused, since load time is not part of any experiment.  A checkpoint is
taken afterwards so experiments start from a clean, flushed database.
"""

from __future__ import annotations

from repro.engine.database import DatabaseEngine
from repro.engine.session import EngineSession
from repro.workloads.tpch.datagen import TpchData

DDL = [
    """CREATE TABLE region (
        r_regionkey INT NOT NULL, r_name CHAR(25), r_comment VARCHAR(152),
        PRIMARY KEY (r_regionkey))""",
    """CREATE TABLE nation (
        n_nationkey INT NOT NULL, n_name CHAR(25), n_regionkey INT,
        n_comment VARCHAR(152), PRIMARY KEY (n_nationkey))""",
    """CREATE TABLE supplier (
        s_suppkey INT NOT NULL, s_name CHAR(25), s_address VARCHAR(40),
        s_nationkey INT, s_phone CHAR(15), s_acctbal DECIMAL(15, 2),
        s_comment VARCHAR(101), PRIMARY KEY (s_suppkey))""",
    """CREATE TABLE part (
        p_partkey INT NOT NULL, p_name VARCHAR(55), p_mfgr CHAR(25),
        p_brand CHAR(10), p_type VARCHAR(25), p_size INT,
        p_container CHAR(10), p_retailprice DECIMAL(15, 2),
        p_comment VARCHAR(23), PRIMARY KEY (p_partkey))""",
    """CREATE TABLE partsupp (
        ps_partkey INT NOT NULL, ps_suppkey INT NOT NULL,
        ps_availqty INT, ps_supplycost DECIMAL(15, 2),
        ps_comment VARCHAR(199), PRIMARY KEY (ps_partkey, ps_suppkey))""",
    """CREATE TABLE customer (
        c_custkey INT NOT NULL, c_name VARCHAR(25), c_address VARCHAR(40),
        c_nationkey INT, c_phone CHAR(15), c_acctbal DECIMAL(15, 2),
        c_mktsegment CHAR(10), c_comment VARCHAR(117),
        PRIMARY KEY (c_custkey))""",
    """CREATE TABLE orders (
        o_orderkey INT NOT NULL, o_custkey INT, o_orderstatus CHAR(1),
        o_totalprice DECIMAL(15, 2), o_orderdate DATE,
        o_orderpriority CHAR(15), o_clerk CHAR(15), o_shippriority INT,
        o_comment VARCHAR(79), PRIMARY KEY (o_orderkey))""",
    """CREATE TABLE lineitem (
        l_orderkey INT NOT NULL, l_partkey INT, l_suppkey INT,
        l_linenumber INT NOT NULL, l_quantity DECIMAL(15, 2),
        l_extendedprice DECIMAL(15, 2), l_discount DECIMAL(15, 2),
        l_tax DECIMAL(15, 2), l_returnflag CHAR(1), l_linestatus CHAR(1),
        l_shipdate DATE, l_commitdate DATE, l_receiptdate DATE,
        l_shipinstruct CHAR(25), l_shipmode CHAR(10),
        l_comment VARCHAR(44), PRIMARY KEY (l_orderkey, l_linenumber))""",
]

INDEXES = [
    "CREATE INDEX ix_lineitem_orderkey ON lineitem (l_orderkey)",
    "CREATE INDEX ix_orders_custkey ON orders (o_custkey)",
]


def create_schema(engine: DatabaseEngine, session: EngineSession) -> None:
    for ddl in DDL:
        engine.execute(ddl, session)
    for ddl in INDEXES:
        engine.execute(ddl, session)


def load(engine: DatabaseEngine, session: EngineSession,
         data: TpchData) -> None:
    """Bulk-load generated rows (meter paused) and checkpoint."""
    meter = engine.meter
    saved = meter.advance_clock
    meter.advance_clock = False
    try:
        for table_name, rows in data.table_rows().items():
            engine.bulk_load(table_name, rows)
        engine.checkpoint()
    finally:
        meter.advance_clock = saved


def setup_tpch_server(server, data: TpchData) -> None:
    """Create + load TPC-H into a :class:`DatabaseServer`."""
    session = EngineSession(session_id=0)
    meter = server.meter
    saved = meter.advance_clock
    meter.advance_clock = False
    try:
        create_schema(server.engine, session)
    finally:
        meter.advance_clock = saved
    load(server.engine, session, data)
