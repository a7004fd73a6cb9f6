"""Sharded catalog federation: N hybrid stores behind one catalog.

Partition a catalog across N sqlite WAL databases (hash-by-id or
by-owner routing); a query runs the one plan interpreter over every
shard's rows, read in shard order under one read section — proven
equivalent to a single store, stage actuals included, by the sharding
parity suite (``tests/integration/test_shard_parity_properties.py``).
A sharded catalog is
``HybridCatalog(schema, store=sharded_store(3, path=...))``.
"""

from .integrity import check_sharded_catalog
from .router import HashRouter, ShardRouter, UserRouter, router_for
from .store import ShardedStore, sharded_store
from .topology import (
    Topology,
    read_topology,
    shard_db_paths,
    topology_sidecar,
    write_topology,
)

__all__ = [
    "ShardedStore",
    "sharded_store",
    "check_sharded_catalog",
    "ShardRouter",
    "HashRouter",
    "UserRouter",
    "router_for",
    "Topology",
    "shard_db_paths",
    "topology_sidecar",
    "read_topology",
    "write_topology",
]
