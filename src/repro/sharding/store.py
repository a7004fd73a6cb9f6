"""The sharded store: N hybrid stores behind the one store interface.

:class:`ShardedStore` is a :class:`~repro.core.storage.HybridStore`
over N shard stores (sqlite WAL databases or RW-locked memory stores).
A sharded catalog is the ordinary ``HybridCatalog(schema,
store=ShardedStore(stores, router))``: one registry, shredder, id
counter and result cache above it.  The store:

* **routes** per-object writes and reads (``store_object``,
  ``delete_object``, ``append_rows``, ``remove_attribute_instance``,
  ``has_object``, ``max_clob_seq``, ``instance_counts``) to the owning
  shard, placed by a :class:`~repro.sharding.router.ShardRouter` from
  ``(id, owner)`` and found by the ``id → shard`` map that
  :meth:`ShardedStore.load_objects` rebuilds; each write is that
  shard's own transaction.
* **fans out** what every shard must see: schema installation,
  definition sync (additive rows, so a fan-out that fails partway is
  healed by the next sync, which every open runs), fault plans, retry
  policy, metrics/event binding, the open check and ``close``.
* **concatenates** a query's reads: the inherited interpreter runs
  the plan once, in one read section over every shard, so a query
  enters each shard's read section once, and each keyed read returns
  the shards' rows in shard order.  An object's rows never cross
  shards, so one plan, one ``actuals`` and one short-circuit give the
  Fig-4 trace of one store, row for row.
* **sums** ``storage_report`` / ``object_count``.

Fault sites ``shard:write`` (before a write routes), ``shard:sync``
(before each shard's definition sync) and ``shard:query`` (before the
read section enters each shard) fire only when a plan targets them by
name, as ``pool:acquire`` does, so ``fail_at`` sweeps over the shard
stores' write statements count what they count without sharding.
"""

from __future__ import annotations

import threading
from contextlib import ExitStack, contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..backends.sqlite import SqliteHybridStore
from ..core.definitions import DefinitionRegistry
from ..core.schema import AnnotatedSchema
from ..core.shredder import ShredResult
from ..core.storage import HybridStore, MemoryHybridStore
from ..errors import CatalogError
from ..faults import FaultPlan, RetryPolicy
from ..faults.sites import check_site
from ..obs.events import EventLog
from ..obs.metrics import MetricsRegistry, default_registry
from .router import HashRouter, ShardRouter
from .topology import shard_db_paths

__all__ = ["ShardedStore", "sharded_store"]

SHARD_WRITE = check_site("shard:write")
SHARD_SYNC = check_site("shard:sync")
SHARD_QUERY = check_site("shard:query")


def _concatenated(read: str):
    """A keyed read: every shard's rows, in shard order."""

    def concat(self: "ShardedStore", *args: Any) -> List[tuple]:
        rows: List[tuple] = []
        for store in self.stores:
            rows += getattr(store, read)(*args)
        return rows

    return concat


class ShardedStore(HybridStore):
    """N shard stores federated behind the single-store interface."""

    backend = "sharded"

    def __init__(self, stores: Sequence[HybridStore], router: ShardRouter) -> None:
        if not stores:
            raise CatalogError("a sharded catalog needs at least one shard")
        if router.shards != len(stores):
            raise CatalogError(
                f"router covers {router.shards} shard(s), catalog has {len(stores)}"
            )
        self.stores: List[HybridStore] = list(stores)
        self.router = router
        # object id -> shard index, plus per-shard object counts (the
        # gauge source: O(1) per write, never a recount of the map).
        self._locations: Dict[int, int] = {}
        self._counts: List[int] = [0] * len(self.stores)
        self._lock = threading.Lock()
        self._txn_lock = threading.RLock()
        self.bind_metrics(default_registry())

    # ------------------------------------------------------------------
    # Fan-out: binding, faults, lifecycle
    # ------------------------------------------------------------------
    def bind_metrics(self, registry: MetricsRegistry) -> None:
        super().bind_metrics(registry)
        for store in self.stores:
            store.bind_metrics(registry)
        # Label children resolved once, off the per-query path.
        shards = [str(index) for index in range(len(self.stores))]
        counter = registry.counter(
            "shard_queries_total",
            "query read sections entered, per shard",
            labels=("shard",),
        )
        self._query_counters = [counter.labels(shard=s) for s in shards]
        gauge = registry.gauge(
            "shard_objects",
            "objects currently held by each shard",
            labels=("shard",),
        )
        self._object_gauges = [gauge.labels(shard=s) for s in shards]
        with self._lock:
            for shard, count in enumerate(self._counts):
                self._object_gauges[shard].set(count)

    def bind_events(self, log: Optional[EventLog]) -> None:
        super().bind_events(log)
        for store in self.stores:
            store.bind_events(log)

    def install_faults(self, plan: FaultPlan) -> FaultPlan:
        for store in self.stores:
            store.install_faults(plan)
        return super().install_faults(plan)

    def clear_faults(self) -> None:
        super().clear_faults()
        for store in self.stores:
            store.clear_faults()

    def set_retry_policy(self, policy: RetryPolicy) -> None:
        super().set_retry_policy(policy)
        for store in self.stores:
            store.set_retry_policy(policy)

    def _shard_fault(self, site: str) -> None:
        plan = self.fault_plan
        if plan is not None and plan.site == site:
            plan.before(site, self.metrics_registry())

    def _check_open(self) -> None:
        """Open means every shard is open: a federation with one
        closed shard must fail, not answer from the others (or from
        the catalog's result cache)."""
        super()._check_open()
        for store in self.stores:
            store._check_open()

    def close(self) -> None:
        """Close every shard.  Idempotent; one failing shard does not
        leave the others open — all are closed before the first
        failure (if any) is re-raised."""
        if self._closed:
            return
        self._closed = True
        errors: List[Exception] = []
        for store in self.stores:
            try:
                store.close()
            except Exception as exc:  # close the rest first
                errors.append(exc)
        if errors:
            raise errors[0]

    # ------------------------------------------------------------------
    # Transactions: every routed write is its shard's own transaction,
    # and definition rows are additive, so there is nothing to span.
    # ------------------------------------------------------------------
    def run_transaction(self, site: str, fn):
        self._check_open()
        # The catalog's read-then-write operations (add_attribute takes
        # the next clob_seq) must not interleave; the routed writes
        # inside ``fn`` still commit per shard.
        with self._txn_lock:
            return fn()

    def _unsupported(self, *args, **kwargs):
        raise CatalogError(
            "a sharded store opens no transaction and holds no rows of its own"
        )

    _txn_begin = _txn_commit = _txn_rollback = _create_tables = _unsupported
    _insert_rows = _insert_new_definitions = _delete_rows = _unsupported
    _clob_key_of = _descendant_instances = _clob_rows = _unsupported

    # ------------------------------------------------------------------
    # Schema / definitions (fan out)
    # ------------------------------------------------------------------
    def is_initialized(self) -> bool:
        return any(store.is_initialized() for store in self.stores)

    def install_schema(self, schema: AnnotatedSchema) -> None:
        for store in self.stores:
            store.install_schema(schema)

    def attach_schema(self, schema: AnnotatedSchema) -> None:
        """Reopen: a shard file that was never initialised (created
        empty, or lost and replaced) gets the schema installed."""
        for store in self.stores:
            if store.is_initialized():
                store.attach_schema(schema)
            else:
                store.install_schema(schema)

    def load_definition_rows(self):
        """The union of every shard's definition rows by id; two shards
        holding different rows under one id is corruption."""
        unions: Tuple[Dict[int, tuple], Dict[int, tuple]] = ({}, {})
        for index, store in enumerate(self.stores):
            for kind, union, rows in zip(
                ("attribute", "element"), unions, store.load_definition_rows()
            ):
                for row in rows:
                    row = tuple(row)
                    if union.setdefault(row[0], row) != row:
                        raise CatalogError(
                            f"shard {index} disagrees on {kind} "
                            f"definition {row[0]}"
                        )
        return tuple([union[k] for k in sorted(union)] for union in unions)

    def sync_definitions(self, registry: DefinitionRegistry) -> None:
        for store in self.stores:
            self._shard_fault(SHARD_SYNC)
            store.sync_definitions(registry)

    # ------------------------------------------------------------------
    # Objects (route to the owning shard)
    # ------------------------------------------------------------------
    def load_objects(self):
        """Every shard's object rows in id order; rebuilds the routing
        map.  An id stored on two shards is corruption."""
        locations: Dict[int, int] = {}
        rows: List[tuple] = []
        for index, store in enumerate(self.stores):
            for row in store.load_objects():
                previous = locations.setdefault(row[0], index)
                if previous != index:
                    raise CatalogError(
                        f"object {row[0]} present in shards "
                        f"{previous} and {index}"
                    )
                rows.append(tuple(row))
        with self._lock:
            self._locations = locations
            self._counts = [0] * len(self.stores)
            for shard in locations.values():
                self._counts[shard] += 1
            for shard, count in enumerate(self._counts):
                self._object_gauges[shard].set(count)
        rows.sort()
        return rows

    def shard_of(self, object_id: int) -> int:
        """The shard index owning ``object_id``."""
        try:
            return self._locations[object_id]
        except KeyError:
            raise CatalogError(f"no object {object_id}") from None

    def _owner_store(self, object_id: int) -> HybridStore:
        return self.stores[self.shard_of(object_id)]

    def store_object(
        self, object_id: int, name: str, owner: str, shred: ShredResult
    ) -> None:
        self._shard_fault(SHARD_WRITE)
        shard = self.router.route(object_id, owner)
        self.stores[shard].store_object(object_id, name, owner, shred)
        with self._lock:
            self._locations[object_id] = shard
            self._counts[shard] += 1
            self._object_gauges[shard].set(self._counts[shard])

    def delete_object(self, object_id: int) -> None:
        self._shard_fault(SHARD_WRITE)
        shard = self.shard_of(object_id)
        self.stores[shard].delete_object(object_id)
        with self._lock:
            if self._locations.pop(object_id, None) is not None:
                self._counts[shard] -= 1
                self._object_gauges[shard].set(self._counts[shard])

    def append_rows(self, object_id: int, shred: ShredResult) -> None:
        self._shard_fault(SHARD_WRITE)
        self._owner_store(object_id).append_rows(object_id, shred)

    def remove_attribute_instance(
        self, object_id: int, attr_id: int, seq_id: int
    ) -> None:
        self._shard_fault(SHARD_WRITE)
        self._owner_store(object_id).remove_attribute_instance(
            object_id, attr_id, seq_id
        )

    def has_object(self, object_id: int) -> bool:
        shard = self._locations.get(object_id)
        return shard is not None and self.stores[shard].has_object(object_id)

    def max_clob_seq(self, object_id: int, schema_order: int) -> int:
        return self._owner_store(object_id).max_clob_seq(object_id, schema_order)

    def instance_counts(self, object_id: int) -> Dict[int, int]:
        return self._owner_store(object_id).instance_counts(object_id)

    # ------------------------------------------------------------------
    # Queries (every shard, in shard order) and responses (by shard)
    # ------------------------------------------------------------------
    @contextmanager
    def _read_section(self) -> Iterator[None]:
        """Every shard's read section, in shard order (the one lock
        order); a failed entry releases the shards already entered."""
        with ExitStack() as stack:
            for index, store in enumerate(self.stores):
                self._shard_fault(SHARD_QUERY)
                self._query_counters[index].inc()
                stack.enter_context(store._read_section())
            yield

    _seek_instances = _concatenated("_seek_instances")
    _instance_rows = _concatenated("_instance_rows")
    _ancestor_rows = _concatenated("_ancestor_rows")

    def build_responses(self, object_ids: Sequence[int]) -> Dict[int, str]:
        self._check_open()
        by_shard: Dict[int, List[int]] = {}
        for object_id in object_ids:
            shard = self._locations.get(object_id)
            if shard is not None:
                by_shard.setdefault(shard, []).append(object_id)
        responses: Dict[int, str] = {}
        for shard in sorted(by_shard):
            responses.update(self.stores[shard].build_responses(by_shard[shard]))
        return responses

    # ------------------------------------------------------------------
    # Accounting (sum)
    # ------------------------------------------------------------------
    def object_count(self) -> int:
        return sum(store.object_count() for store in self.stores)

    def storage_report(self) -> List[Tuple[str, int, int]]:
        """Per-table ``(name, rows, bytes)`` summed across shards."""
        totals: Dict[str, List[int]] = {}
        for store in self.stores:
            for table, rows, size in store.storage_report():
                entry = totals.setdefault(table, [0, 0])
                entry[0] += rows
                entry[1] += size
        return [(table, rows, size) for table, (rows, size) in totals.items()]

    def shard_status(self) -> List[Tuple[int, Optional[str], int, int]]:
        """Per-shard ``(index, path, objects, bytes)`` for the
        ``repro shard-status`` CLI surface."""
        return [
            (
                index,
                getattr(store, "_path", None),
                store.object_count(),
                sum(size for _table, _rows, size in store.storage_report()),
            )
            for index, store in enumerate(self.stores)
        ]


def sharded_store(
    shards: int = 2,
    path: Optional[str] = None,
    router: Optional[ShardRouter] = None,
) -> ShardedStore:
    """The default federation: ``shards`` sqlite WAL databases at
    ``<path>.shard<i>``, or without a ``path`` memory stores, the
    unsharded catalog's default (a ``:memory:`` sqlite shard would add
    SQL cost and no reader pool); hash routing unless ``router``."""
    if shards < 1:
        raise CatalogError("a sharded catalog needs at least one shard")
    if path is None:
        stores: List[HybridStore] = [MemoryHybridStore() for _ in range(shards)]
    else:
        stores = [SqliteHybridStore(p) for p in shard_db_paths(path, shards)]
    return ShardedStore(stores, router if router is not None else HashRouter(shards))
