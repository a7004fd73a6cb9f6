"""``fsck`` for a sharded catalog: every shard, then the federation."""

from __future__ import annotations

from typing import Dict, List

from ..core.catalog import HybridCatalog
from ..core.integrity import _rows, check_catalog

__all__ = ["check_sharded_catalog"]


def check_sharded_catalog(catalog: HybridCatalog, deep: bool = False) -> List[str]:
    """Integrity check for a catalog over a
    :class:`~repro.sharding.store.ShardedStore`: every shard store
    passes the single-store :func:`~repro.core.integrity.check_catalog`
    suite (violations prefixed ``shard <i>:``), plus the federation
    invariants — object ids disjoint across shards, the routing map
    consistent with the stored rows, and every stored object placed on
    the shard its router says owns it."""
    sharded = catalog.store
    violations: List[str] = []
    for index, store in enumerate(sharded.stores):
        for violation in check_catalog(catalog, deep=deep, store=store):
            violations.append(f"shard {index}: {violation}")
    seen: Dict[int, int] = {}
    for index, store in enumerate(sharded.stores):
        for object_id, _name, owner in _rows(store, "objects"):
            previous = seen.get(object_id)
            if previous is not None:
                violations.append(
                    f"object {object_id} stored in shards "
                    f"{previous} and {index}"
                )
                continue
            seen[object_id] = index
            recorded = sharded._locations.get(object_id)
            if recorded != index:
                violations.append(
                    f"object {object_id} stored in shard {index} but "
                    f"routing map says {recorded}"
                )
            expected = sharded.router.route(object_id, owner)
            if expected != index:
                violations.append(
                    f"object {object_id} (owner {owner!r}) stored in "
                    f"shard {index} but routes to {expected}"
                )
    for object_id, recorded in sharded._locations.items():
        if object_id not in seen:
            violations.append(
                f"routing map lists object {object_id} on shard "
                f"{recorded} but no shard stores it"
            )
    return violations
