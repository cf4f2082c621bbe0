"""TPC-C schema DDL and bulk loading.

Nine tables; primary keys give the B-tree access paths every transaction
depends on, plus a customer-by-district index for payment-by-name and an
order-by-customer index for order-status.
"""

from __future__ import annotations

from repro.engine.database import DatabaseEngine
from repro.engine.session import EngineSession

DDL = [
    """CREATE TABLE warehouse (
        w_id INT NOT NULL, w_name VARCHAR(10), w_street VARCHAR(20),
        w_city VARCHAR(20), w_state CHAR(2), w_zip CHAR(9),
        w_tax DECIMAL(4, 4), w_ytd DECIMAL(12, 2),
        PRIMARY KEY (w_id))""",
    """CREATE TABLE district (
        d_w_id INT NOT NULL, d_id INT NOT NULL, d_name VARCHAR(10),
        d_street VARCHAR(20), d_city VARCHAR(20), d_state CHAR(2),
        d_zip CHAR(9), d_tax DECIMAL(4, 4), d_ytd DECIMAL(12, 2),
        d_next_o_id INT, PRIMARY KEY (d_w_id, d_id))""",
    """CREATE TABLE customer (
        c_w_id INT NOT NULL, c_d_id INT NOT NULL, c_id INT NOT NULL,
        c_first VARCHAR(16), c_middle CHAR(2), c_last VARCHAR(16),
        c_street VARCHAR(20), c_city VARCHAR(20), c_state CHAR(2),
        c_zip CHAR(9), c_phone CHAR(16), c_since DATE, c_credit CHAR(2),
        c_credit_lim DECIMAL(12, 2), c_discount DECIMAL(4, 4),
        c_balance DECIMAL(12, 2), c_ytd_payment DECIMAL(12, 2),
        c_payment_cnt INT, c_delivery_cnt INT, c_data VARCHAR(250),
        PRIMARY KEY (c_w_id, c_d_id, c_id))""",
    """CREATE TABLE history (
        h_c_id INT, h_c_d_id INT, h_c_w_id INT, h_d_id INT, h_w_id INT,
        h_date DATE, h_amount DECIMAL(6, 2), h_data VARCHAR(24))""",
    """CREATE TABLE item (
        i_id INT NOT NULL, i_im_id INT, i_name VARCHAR(24),
        i_price DECIMAL(5, 2), i_data VARCHAR(50),
        PRIMARY KEY (i_id))""",
    """CREATE TABLE stock (
        s_w_id INT NOT NULL, s_i_id INT NOT NULL, s_quantity INT,
        s_dist_info CHAR(24), s_ytd INT, s_order_cnt INT,
        s_remote_cnt INT, s_data VARCHAR(50),
        PRIMARY KEY (s_w_id, s_i_id))""",
    """CREATE TABLE orders (
        o_w_id INT NOT NULL, o_d_id INT NOT NULL, o_id INT NOT NULL,
        o_c_id INT, o_entry_d DATE, o_carrier_id INT, o_ol_cnt INT,
        o_all_local INT, PRIMARY KEY (o_w_id, o_d_id, o_id))""",
    """CREATE TABLE new_order (
        no_w_id INT NOT NULL, no_d_id INT NOT NULL, no_o_id INT NOT NULL,
        PRIMARY KEY (no_w_id, no_d_id, no_o_id))""",
    """CREATE TABLE order_line (
        ol_w_id INT NOT NULL, ol_d_id INT NOT NULL, ol_o_id INT NOT NULL,
        ol_number INT NOT NULL, ol_i_id INT, ol_supply_w_id INT,
        ol_delivery_d DATE, ol_quantity INT, ol_amount DECIMAL(6, 2),
        ol_dist_info CHAR(24),
        PRIMARY KEY (ol_w_id, ol_d_id, ol_o_id, ol_number))""",
]

INDEXES = [
    "CREATE INDEX ix_customer_name ON customer (c_w_id, c_d_id, c_last)",
    "CREATE INDEX ix_orders_customer ON orders (o_w_id, o_d_id, o_c_id)",
]


def create_schema(engine: DatabaseEngine, session: EngineSession) -> None:
    for ddl in DDL:
        engine.execute(ddl, session)
    for ddl in INDEXES:
        engine.execute(ddl, session)


def setup_tpcc_server(server, data) -> None:
    """Create + bulk load TPC-C into a server (meter paused)."""
    session = EngineSession(session_id=0)
    meter = server.meter
    saved = meter.advance_clock
    meter.advance_clock = False
    try:
        create_schema(server.engine, session)
        engine = server.engine
        for table_name, rows in data.table_rows().items():
            engine.bulk_load(table_name, rows)
        engine.checkpoint()
    finally:
        meter.advance_clock = saved
