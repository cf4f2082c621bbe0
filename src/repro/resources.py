"""Names of the resources virtual time is charged against.

They live below both :mod:`repro.sim` (which meters them) and
:mod:`repro.obs` (which classifies charges by them), so either package
can be imported first.  :mod:`repro.sim.costs` re-exports every name.
"""

# Shared server resources contend in the queueing simulator; CLIENT_CPU
# is per-stream.
CLIENT_CPU = "client_cpu"
SERVER_CPU = "server_cpu"
SERVER_DISK = "server_disk"
NETWORK = "network"

ALL_RESOURCES = (CLIENT_CPU, SERVER_CPU, SERVER_DISK, NETWORK)
SHARED_RESOURCES = (SERVER_CPU, SERVER_DISK, NETWORK)
