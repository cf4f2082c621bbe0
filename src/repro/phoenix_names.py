"""Names of the objects Phoenix keeps on the server.

A leaf module, so that the engine and storage — which exempt these
objects from work amplification, from the shared result cache's version
vector and from the client-visible schema version — and Phoenix — which
creates them — name them alike without importing each other.
"""

#: Prefix of every Phoenix-owned server object: the result tables
#: ``phoenix_rs_<op_key>``, the load procedures ``phoenix_load_<op_key>``
#: and the status table — the paper's "special Phoenix database".
PHOENIX_PREFIX = "phoenix_"

#: The status table that makes updates testable (§3.2).
STATUS_TABLE = f"{PHOENIX_PREFIX}status"
