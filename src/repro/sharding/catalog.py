"""The sharded catalog facade: N hybrid catalogs behind one API.

:class:`ShardedCatalog` partitions objects across N per-shard
:class:`~repro.core.catalog.HybridCatalog` instances (each with its
own sqlite WAL database and reader pool) and federates the paper's
pipeline over them:

* **Writes** route to the owning shard — ids are allocated globally by
  the facade, a :class:`~repro.sharding.router.ShardRouter` maps id
  (or owner) to a shard index, and the write then runs under that
  shard's ordinary transaction protocol.  Definition changes land in
  the shared registry first and fan out to every shard's definition
  tables.
* **Queries** scatter the *unchanged* logical IR to every shard
  (ElementSeek and the count-matching stages are shard-local — an
  object's rows never cross shards), then gather: per-shard sorted id
  lists are disjoint, so a k-way :func:`heapq.merge` restores the
  global object-id order the single-catalog API promises.
* **Caching** stays shard-scoped for free: each shard keeps its own
  write-invalidated result cache keyed to its own stats token, so a
  write to shard *k* only invalidates shard *k*'s cached legs — the
  other N-1 legs of the next federated query are warm hits.  The
  federation-wide token is the tuple of per-shard tokens
  (:meth:`ShardedCatalog.cache_token`).

The parity contract (proven by
``tests/integration/test_shard_parity_properties.py``): for every
query, ``ShardedCatalog(N)`` returns the same ids, the same response
XML, and the same per-stage row totals as one unsharded catalog over
the same corpus, for any N ≥ 1.

Fault sites: ``shard:write`` (before routing a write),
``shard:sync`` (before each definition-sync fan-out leg), and
``shard:query`` (before each scatter-gather leg) — consulted only
when a :class:`~repro.faults.plan.FaultPlan` targets them by name,
mirroring the ``pool:acquire`` convention.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..core.catalog import Explanation, HybridCatalog, IngestReceipt
from ..core.definitions import AttributeDef, DefinitionRegistry, ElementDef
from ..core.integrity import _rows as _store_rows
from ..core.integrity import check_catalog
from ..core.query import ObjectQuery
from ..core.schema import AnnotatedSchema, ValueType
from ..core.shredder import Shredder
from ..core.stats import StatsSnapshot
from ..core.storage import HybridStore, PlanTrace
from ..errors import CatalogClosedError, CatalogError
from ..faults.plan import FaultPlan
from ..faults.sites import check_site
from ..obs.metrics import MetricsRegistry, default_registry
from ..obs.profile import QueryProfile, StageProfile, collecting
from ..xmlkit import Document, parse
from .router import HashRouter, ShardRouter
from .topology import shard_db_paths

__all__ = ["ShardedCatalog", "ShardedExplanation", "check_sharded_catalog"]

# Registered federation fault sites (fail fast if the registry and
# this module ever drift — FLT01 covers the literals, check_site the
# runtime names).
SHARD_WRITE = check_site("shard:write")
SHARD_SYNC = check_site("shard:sync")
SHARD_QUERY = check_site("shard:query")


class ShardedExplanation:
    """What :meth:`ShardedCatalog.explain` returns: one
    :class:`~repro.core.catalog.Explanation` per shard leg plus the
    federated view — globally merged ids and per-stage actual row
    counts summed across shards (the totals the parity suite compares
    against the unsharded plan's actuals)."""

    __slots__ = ("legs", "object_ids", "cache_hit", "profile")

    def __init__(
        self,
        legs: List[Explanation],
        profile: Optional[QueryProfile] = None,
    ) -> None:
        self.legs = legs
        self.object_ids = list(heapq.merge(*(leg.object_ids for leg in legs)))
        self.cache_hit = all(leg.cache_hit for leg in legs)
        self.profile = profile

    def stage_keys(self) -> set:
        """The union of executed stage keys across all legs — the
        plan *shape* is shard-independent (same shredded query, same
        shared definition ids), so this equals any one leg's keys."""
        keys: set = set()
        for leg in self.legs:
            keys.update(leg.plan.actuals)
        return keys

    def merged_actuals(self) -> Dict[Tuple, int]:
        """Per-stage actual rows summed over shards.  For the
        ObjectIntersect stage this is exact parity with the unsharded
        plan (objects are disjoint across shards); seek/count stages
        may under-count relative to unsharded when a shard
        short-circuits early on a locally-empty criterion."""
        totals: Dict[Tuple, int] = {}
        for leg in self.legs:
            for key, rows in leg.plan.actuals.items():
                totals[key] = totals.get(key, 0) + rows
        return totals

    def describe(self) -> str:
        lines = [
            f"sharded plan: {len(self.legs)} leg(s), "
            f"{len(self.object_ids)} matching object(s) after k-way merge"
        ]
        for index, leg in enumerate(self.legs):
            lines.append(f"-- shard {index} " + "-" * 40)
            lines.append(leg.describe())
        if self.profile is not None:
            lines.append(self.profile.describe())
        return "\n".join(lines)


class ShardedCatalog:
    """N hybrid catalogs federated behind the single-catalog API.

    ``path`` opens (or creates) on-disk shards ``<path>.shard0`` …
    ``<path>.shard<N-1>`` backed by
    :class:`~repro.backends.sqlite.SqliteHybridStore`; without a
    ``path`` each shard gets an RW-locked in-memory store, and a
    custom ``store_factory(index)`` overrides either default.  All shards share ONE definition registry and shredder —
    definition ids are global, which is what makes the scattered IR
    identical on every shard — and one metrics registry, with
    per-shard series carried by the ``shard`` label.
    """

    def __init__(
        self,
        schema: AnnotatedSchema,
        shards: int = 2,
        *,
        path: Optional[str] = None,
        store_factory: Optional[Callable[[int], HybridStore]] = None,
        router: Optional[ShardRouter] = None,
        on_unknown: str = "store",
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if shards < 1:
            raise CatalogError("a sharded catalog needs at least one shard")
        self.schema = schema
        self.metrics = metrics if metrics is not None else default_registry()
        if router is None:
            router = HashRouter(shards)
        if router.shards != shards:
            raise CatalogError(
                f"router covers {router.shards} shard(s), catalog has {shards}"
            )
        self.router = router
        if store_factory is None:
            store_factory = self._default_store_factory(path, shards)
        # Per-shard catalogs: each brings its own store, stats, plan
        # cache, and result cache (shard-scoped invalidation is a
        # consequence of the caches living here, one per shard).
        self.shards: List[HybridCatalog] = [
            HybridCatalog(
                schema,
                store=store_factory(index),
                on_unknown=on_unknown,
                metrics=self.metrics,
            )
            for index in range(shards)
        ]
        # Replace the per-shard registries with ONE shared registry
        # (union-rehydrated from every shard on reopen) and one
        # shredder bound to it, so definition ids are federation-wide.
        self.registry = self._shared_registry(schema)
        self.shredder = Shredder(
            schema, self.registry, on_unknown=on_unknown, metrics=self.metrics
        )
        for cat in self.shards:
            cat.registry = self.registry
            cat.shredder = self.shredder
            # Catch each shard up to the union (sync upserts only the
            # rows a shard is missing).
            cat.store.sync_definitions(self.registry)
        # Global object bookkeeping: ids are allocated here (never by
        # a shard) so routing is a pure function of the ingest.
        self._locations: Dict[int, int] = {}
        max_id = 0
        for index, cat in enumerate(self.shards):
            for object_id in cat._names:
                previous = self._locations.get(object_id)
                if previous is not None:
                    raise CatalogError(
                        f"object {object_id} present in shards "
                        f"{previous} and {index}"
                    )
                self._locations[object_id] = index
                max_id = max(max_id, object_id)
        self._object_ids = itertools.count(max_id + 1)
        self._write_lock = threading.Lock()
        self._closed = False
        self._fault_plan: Optional[FaultPlan] = None
        # Scatter-gather worker pool (threads spawn lazily on first
        # submit); the single-shard layout stays executor-free so the
        # N=1 wrapper overhead is just the routing bookkeeping.
        self._executor: Optional[ThreadPoolExecutor] = (
            ThreadPoolExecutor(
                max_workers=shards, thread_name_prefix="repro-shard"
            )
            if shards > 1
            else None
        )
        self.last_profile: Optional[QueryProfile] = None
        # Pre-bound labeled metric children: the registry lookup and
        # label resolution are off the per-query path (the N=1 wrapper
        # budget is ≤5%, and an N-shard query touches N counters).
        counter = self.metrics.counter(
            "shard_queries_total",
            "scatter-gather query legs executed, per shard",
            labels=("shard",),
        )
        self._leg_counters = [
            counter.labels(shard=str(index)) for index in range(shards)
        ]
        gauge = self.metrics.gauge(
            "shard_objects",
            "objects currently held by each shard",
            labels=("shard",),
        )
        self._object_gauges = [
            gauge.labels(shard=str(index)) for index in range(shards)
        ]
        self._fanout_histogram = self.metrics.histogram(
            "shard_fanout_seconds",
            "wall time of one scatter-gather fan-out "
            "(dispatch through k-way merge)",
        )
        self._after_write()

    @staticmethod
    def _default_store_factory(
        path: Optional[str], shards: int
    ) -> Callable[[int], HybridStore]:
        if path is None:
            # Mirror HybridCatalog's default: the RW-locked memory
            # store, which (unlike a ``:memory:`` sqlite connection)
            # is safe under the scatter-gather thread pool.
            from ..core.storage import MemoryHybridStore

            return lambda index: MemoryHybridStore()
        # Imported here so repro.sharding does not hard-depend on the
        # sqlite backend when a caller supplies its own factory.
        from ..backends.sqlite import SqliteHybridStore

        paths = shard_db_paths(path, shards)
        return lambda index: SqliteHybridStore(paths[index])

    def _shared_registry(self, schema: AnnotatedSchema) -> DefinitionRegistry:
        """One registry for the whole federation: the union of every
        shard's persisted definition rows, deduplicated by id.  Shards
        that cannot be reopened (fresh in-memory stores) contribute
        nothing — their registries hold only the structural rows the
        fresh shared registry already has."""
        attr_union: Dict[int, tuple] = {}
        elem_union: Dict[int, tuple] = {}
        for index, cat in enumerate(self.shards):
            try:
                attr_rows, elem_rows = cat.store.load_definition_rows()
            except CatalogError:
                continue
            for row in attr_rows:
                row = tuple(row)
                previous = attr_union.setdefault(row[0], row)
                if previous != row:
                    raise CatalogError(
                        f"shard {index} disagrees on attribute "
                        f"definition {row[0]}"
                    )
            for row in elem_rows:
                row = tuple(row)
                previous = elem_union.setdefault(row[0], row)
                if previous != row:
                    raise CatalogError(
                        f"shard {index} disagrees on element "
                        f"definition {row[0]}"
                    )
        registry = DefinitionRegistry(schema)
        if attr_union or elem_union:
            registry.rehydrate(
                [attr_union[k] for k in sorted(attr_union)],
                [elem_union[k] for k in sorted(elem_union)],
            )
        return registry

    # ------------------------------------------------------------------
    # Federation bookkeeping
    # ------------------------------------------------------------------
    @property
    def shard_count(self) -> int:
        return len(self.shards)

    def shard_of(self, object_id: int) -> int:
        """The shard index owning ``object_id``."""
        try:
            return self._locations[object_id]
        except KeyError:
            raise CatalogError(f"no object {object_id}") from None

    def object_name(self, object_id: int) -> str:
        return self.shards[self.shard_of(object_id)].object_name(object_id)

    def __len__(self) -> int:
        return sum(len(cat) for cat in self.shards)

    def cache_token(self) -> Tuple[Tuple[int, int], ...]:
        """The federated stats token: one per-shard token per slot.  A
        write to one shard moves exactly one slot — the invalidation
        scope the concurrency suite asserts."""
        return tuple(cat.stats.cache_token() for cat in self.shards)

    def _check_open(self) -> None:
        if self._closed:
            raise CatalogClosedError(
                "sharded catalog is closed; reopen it to continue"
            )

    def _after_write(self) -> None:
        """Republish the federation-wide object gauges."""
        for index, cat in enumerate(self.shards):
            self._object_gauges[index].set(len(cat._names))
        # Route the catalog-wide total through the shard-0 facade so
        # OBS01's single-creation-site rule holds for catalog_objects.
        self.shards[0]._set_objects_gauge(count=len(self._locations))

    def _count_shard_query(self, shard: int) -> None:
        self._leg_counters[shard].inc()

    def _observe_fanout(self, seconds: float) -> None:
        self._fanout_histogram.observe(seconds)

    # ------------------------------------------------------------------
    # Faults (mirrors the HybridStore surface; the plan is also armed
    # on every shard store so statement-level sweeps keep working)
    # ------------------------------------------------------------------
    def install_faults(self, plan: FaultPlan) -> FaultPlan:
        self._fault_plan = plan
        for cat in self.shards:
            cat.store.install_faults(plan)
        return plan

    def clear_faults(self) -> None:
        self._fault_plan = None
        for cat in self.shards:
            cat.store.clear_faults()

    def set_retry_policy(self, policy) -> None:
        for cat in self.shards:
            cat.store.set_retry_policy(policy)

    def _shard_fault(self, site: str) -> None:
        """Consult the armed plan at a federation point.  Only plans
        that *target* a ``shard:*`` site by name are consulted here —
        statement-level sweeps (``fail_at`` over ``insert:*``) pass
        through untouched, so their deterministic counts do not drift
        when the routing layer sits in front of the store."""
        plan = self._fault_plan
        if plan is not None and plan.site == site:
            plan.before(site, self.metrics)

    # ------------------------------------------------------------------
    # Definitions (shared registry first, then fan out)
    # ------------------------------------------------------------------
    def define_attribute(
        self,
        name: str,
        source: str,
        host: str = "detailed",
        parent: Optional[AttributeDef] = None,
        user: Optional[str] = None,
        queryable: bool = True,
    ) -> AttributeDef:
        self._check_open()
        attr_def = self.registry.define_attribute(
            name, source, host=host, parent=parent, user=user, queryable=queryable
        )
        self._sync_all()
        return attr_def

    def define_element(
        self,
        attribute: AttributeDef,
        name: str,
        source: str,
        value_type: ValueType = ValueType.STRING,
        user: Optional[str] = None,
    ) -> ElementDef:
        self._check_open()
        elem_def = self.registry.define_element(
            attribute, name, source, value_type, user=user
        )
        self._sync_all()
        return elem_def

    def _sync_all(self) -> None:
        """Fan the shared registry out to every shard's definition
        tables.  A mid-fan-out failure (the ``shard:sync`` crash
        point) leaves the registry defined but trailing shards
        unsynced; :meth:`resync_definitions` heals that — sync is an
        upsert of whatever rows a shard is missing."""
        for cat in self.shards:
            self._shard_fault(SHARD_SYNC)
            cat.store.sync_definitions(self.registry)
            cat.stats.invalidate()

    def resync_definitions(self) -> None:
        """Catch every shard up to the shared registry — the recovery
        path after a definition fan-out failed partway."""
        self._check_open()
        self._sync_all()

    # ------------------------------------------------------------------
    # Writes (route to the owning shard)
    # ------------------------------------------------------------------
    def ingest(
        self,
        document: Union[str, Document],
        name: Optional[str] = "",
        owner: str = "",
        user: Optional[str] = None,
    ) -> IngestReceipt:
        """Shred and store one document on its owning shard.  The
        facade allocates the object id globally *after* the document
        parses (and after the ``shard:write`` consult), so failed
        ingests burn no ids and routing is reproducible from the
        arguments alone."""
        self._check_open()
        self._shard_fault(SHARD_WRITE)
        if isinstance(document, str):
            document = parse(document)
        with self._write_lock:
            object_id = next(self._object_ids)
        shard = self.router.route(object_id, owner)
        receipt = self.shards[shard].ingest(
            document, name=name, owner=owner, user=user, object_id=object_id
        )
        with self._write_lock:
            self._locations[object_id] = shard
        self._after_write()
        return receipt

    def ingest_many(
        self,
        documents: Sequence[Union[str, Document]],
        owner: str = "",
        user: Optional[str] = None,
    ) -> List[IngestReceipt]:
        return [
            self.ingest(doc, name=None, owner=owner, user=user)
            for doc in documents
        ]

    def delete(self, object_id: int) -> None:
        self._check_open()
        self._shard_fault(SHARD_WRITE)
        shard = self.shard_of(object_id)
        self.shards[shard].delete(object_id)
        with self._write_lock:
            self._locations.pop(object_id, None)
        self._after_write()

    def add_attribute(
        self,
        object_id: int,
        fragment: Union[str, Document],
        user: Optional[str] = None,
    ) -> IngestReceipt:
        self._check_open()
        self._shard_fault(SHARD_WRITE)
        return self.shards[self.shard_of(object_id)].add_attribute(
            object_id, fragment, user=user
        )

    def remove_attribute(
        self,
        object_id: int,
        name: str,
        source: str = "",
        seq: int = 1,
        user: Optional[str] = None,
    ) -> None:
        self._check_open()
        self._shard_fault(SHARD_WRITE)
        self.shards[self.shard_of(object_id)].remove_attribute(
            object_id, name, source, seq, user=user
        )

    # ------------------------------------------------------------------
    # Query (scatter, then order-preserving gather)
    # ------------------------------------------------------------------
    def query(
        self,
        query: ObjectQuery,
        user: Optional[str] = None,
        trace: Optional[PlanTrace] = None,
        profile: bool = False,
    ) -> List[int]:
        """Match objects across every shard; returns globally sorted
        object ids — the same list an unsharded catalog over the same
        corpus would return (the parity property).

        Each shard leg runs the unchanged logical IR against its local
        rows (every shard re-checks its own store's open state, so a
        closed shard raises :class:`~repro.errors.CatalogClosedError`
        instead of silently returning a partial federation).  Legs
        fan out on a thread pool (sqlite releases the GIL while
        scanning), per-leg sorted ids are disjoint by construction,
        and a k-way merge restores global order.  An explicit
        ``trace`` receives one summary stage per shard plus the final
        ``scatter-gather`` stage; per-leg traces bypass the per-shard
        result caches exactly like the unsharded path."""
        self._check_open()
        if len(self.shards) == 1:
            # Single-shard fast path: delegate wholesale — no
            # executor, no merge (the ≤5 % wrapper budget of E14).
            self._shard_fault(SHARD_QUERY)
            self._count_shard_query(0)
            ids = self.shards[0].query(
                query, user=user, trace=trace, profile=profile
            )
            if profile:
                self.last_profile = self.shards[0].last_profile
            return ids
        t0 = time.perf_counter()
        leg_traces: List[Optional[PlanTrace]] = [
            PlanTrace() if trace is not None else None for _ in self.shards
        ]
        leg_profiles: List[Optional[QueryProfile]] = [None] * len(self.shards)

        def run_leg(index: int) -> List[int]:
            cat = self.shards[index]
            if profile:
                # A fresh collector per worker thread: contextvars do
                # not cross ThreadPoolExecutor boundaries, so legs
                # cannot clobber each other (or the caller's ambient
                # profile).
                prof = QueryProfile()
                with collecting(prof):
                    ids = cat.query(query, user=user, trace=leg_traces[index])
                leg_profiles[index] = prof
                return ids
            return cat.query(query, user=user, trace=leg_traces[index])

        assert self._executor is not None
        futures = []
        error: Optional[BaseException] = None
        for index in range(len(self.shards)):
            try:
                # Consulted sequentially before dispatch so a
                # fail_at sweep over shard:query is deterministic.
                self._shard_fault(SHARD_QUERY)
            except BaseException as exc:
                error = exc
                break
            self._count_shard_query(index)
            futures.append(self._executor.submit(run_leg, index))
        results: List[List[int]] = []
        for future in futures:
            try:
                results.append(future.result())
            except BaseException as exc:
                if error is None:
                    error = exc
        if error is not None:
            # Never hand back a partial federation: outstanding legs
            # were drained above, the caller gets the failure.
            raise error
        ids = list(heapq.merge(*results))
        fanout_seconds = time.perf_counter() - t0
        self._observe_fanout(fanout_seconds)
        if trace is not None:
            for index, leg_trace in enumerate(leg_traces):
                assert leg_trace is not None
                trace.add(
                    f"shard-{index}",
                    len(results[index]),
                    note=f"{len(leg_trace.stages)} local stage(s)",
                )
            trace.add(
                "scatter-gather",
                len(ids),
                note=f"k-way merge over {len(self.shards)} shard(s)",
            )
        if profile:
            self.last_profile = _merge_profiles(
                [p for p in leg_profiles if p is not None],
                results,
                ids,
                fanout_seconds,
            )
        return ids

    def explain(
        self,
        query: ObjectQuery,
        user: Optional[str] = None,
        analyze: bool = False,
    ) -> ShardedExplanation:
        """Per-shard plans with estimates and actuals, plus the
        federated merge (the ``repro explain`` surface for sharded
        catalogs).  Legs run sequentially — explain is a diagnostic
        path, and a stable leg order keeps its output reproducible."""
        self._check_open()
        t0 = time.perf_counter()
        legs: List[Explanation] = []
        for index, cat in enumerate(self.shards):
            self._shard_fault(SHARD_QUERY)
            self._count_shard_query(index)
            legs.append(cat.explain(query, user=user, analyze=analyze))
        profile: Optional[QueryProfile] = None
        if analyze:
            merged_ids = list(heapq.merge(*(leg.object_ids for leg in legs)))
            profile = _merge_profiles(
                [leg.profile for leg in legs if leg.profile is not None],
                [leg.object_ids for leg in legs],
                merged_ids,
                time.perf_counter() - t0,
            )
            self.last_profile = profile
        return ShardedExplanation(legs, profile=profile)

    # ------------------------------------------------------------------
    # Responses
    # ------------------------------------------------------------------
    def fetch(self, object_ids: Sequence[int]) -> Dict[int, str]:
        """Rebuild tagged XML responses, shard by shard.  Each shard
        runs the unchanged set-wise response builder over its own ids;
        the merged dict is keyed by object id so callers are
        agnostic to the partitioning."""
        self._check_open()
        by_shard: Dict[int, List[int]] = {}
        for object_id in object_ids:
            shard = self._locations.get(object_id)
            if shard is None:
                continue
            by_shard.setdefault(shard, []).append(object_id)
        responses: Dict[int, str] = {}
        for shard in sorted(by_shard):
            responses.update(self.shards[shard].fetch(by_shard[shard]))
        return responses

    def search(
        self,
        query: ObjectQuery,
        user: Optional[str] = None,
        trace: Optional[PlanTrace] = None,
    ) -> List[str]:
        ids = self.query(query, user=user, trace=trace)
        responses = self.fetch(ids)
        return [responses[i] for i in ids]

    # ------------------------------------------------------------------
    # Accounting / lifecycle
    # ------------------------------------------------------------------
    def storage_report(self) -> List[Tuple[str, int, int]]:
        """Per-table ``(name, rows, bytes)`` summed across shards."""
        totals: Dict[str, List[int]] = {}
        order: List[str] = []
        for cat in self.shards:
            for table, rows, size in cat.storage_report():
                if table not in totals:
                    totals[table] = [0, 0]
                    order.append(table)
                totals[table][0] += rows
                totals[table][1] += size
        return [(table, totals[table][0], totals[table][1]) for table in order]

    def collect_statistics(self) -> StatsSnapshot:
        """One federation-wide :class:`~repro.core.stats.StatsSnapshot`
        — row counts sum exactly (objects are disjoint); summed
        distinct counts are an upper bound, which is the same
        one-sided error the per-shard optimizers already tolerate."""
        self._check_open()
        objects = 0
        elem_rows: Dict[int, int] = {}
        elem_distinct: Dict[int, int] = {}
        attr_rows: Dict[int, int] = {}
        for cat in self.shards:
            snapshot = cat.store.collect_statistics()
            objects += snapshot.objects
            for elem_id, rows in snapshot.elem_rows.items():
                elem_rows[elem_id] = elem_rows.get(elem_id, 0) + rows
            for elem_id, distinct in snapshot.elem_distinct.items():
                elem_distinct[elem_id] = (
                    elem_distinct.get(elem_id, 0) + distinct
                )
            for attr_id, rows in snapshot.attr_rows.items():
                attr_rows[attr_id] = attr_rows.get(attr_id, 0) + rows
        return StatsSnapshot(objects, elem_rows, elem_distinct, attr_rows)

    def shard_status(self) -> List[Tuple[int, Optional[str], int, int]]:
        """Per-shard ``(index, path, objects, bytes)`` for the
        ``repro shard-status`` CLI surface."""
        status = []
        for index, cat in enumerate(self.shards):
            path = getattr(cat.store, "_path", None)
            total_bytes = sum(size for _t, _r, size in cat.storage_report())
            status.append((index, path, len(cat), total_bytes))
        return status

    def close(self) -> None:
        """Close every shard.  Idempotent; one failing shard does not
        leave the others open — all stores are closed before the first
        failure (if any) is re-raised."""
        if self._closed:
            return
        self._closed = True
        if self._executor is not None:
            self._executor.shutdown(wait=True)
        errors: List[BaseException] = []
        for cat in self.shards:
            try:
                cat.store.close()
            except BaseException as exc:  # noqa: BLE001 - close all first
                errors.append(exc)
        if errors:
            raise errors[0]


def _merge_profiles(
    leg_profiles: List[QueryProfile],
    leg_results: List[List[int]],
    merged_ids: List[int],
    fanout_seconds: float,
) -> QueryProfile:
    """Fold per-leg profiles into the federated view: same-keyed
    stages (the plan shape is shard-independent) sum their rows and
    wall times, and a synthetic ``ScatterGather`` stage carries the
    fan-out/merge accounting — the scatter-gather stage of ``repro
    explain --analyze`` output."""
    merged = QueryProfile()
    merged.backend = "sharded"
    merged.total_seconds = fanout_seconds
    if leg_profiles:
        merged.result_cache_hit = all(
            p.result_cache_hit for p in leg_profiles
        )
        hits = [p.plan_cache_hit for p in leg_profiles
                if p.plan_cache_hit is not None]
        merged.plan_cache_hit = all(hits) if hits else None
        merged.short_circuited = any(p.short_circuited for p in leg_profiles)
        simples = [p.simple for p in leg_profiles if p.simple is not None]
        merged.simple = simples[0] if simples else None
    by_key: Dict[Tuple, StageProfile] = {}
    order: List[Tuple] = []
    for prof in leg_profiles:
        for stage in prof.stages:
            merged_key = (stage.kind,) + tuple(stage.key)
            existing = by_key.get(merged_key)
            if existing is None:
                by_key[merged_key] = StageProfile(
                    stage.kind, stage.key, stage.detail,
                    stage.rows_in, stage.rows_out,
                    stage.est_rows, stage.seconds,
                )
                order.append(merged_key)
            else:
                existing.rows_in += stage.rows_in
                existing.rows_out += stage.rows_out
                existing.seconds += stage.seconds
                if stage.est_rows is not None:
                    existing.est_rows = (
                        (existing.est_rows or 0.0) + stage.est_rows
                    )
    merged.stages = [by_key[key] for key in order]
    merged.stages.append(StageProfile(
        "ScatterGather",
        ("scatter-gather",),
        f"k-way merge over {len(leg_results)} shard leg(s)",
        sum(len(r) for r in leg_results),
        len(merged_ids),
        None,
        fanout_seconds,
    ))
    for prof in leg_profiles:
        for kind, seconds in prof.waits.items():
            merged.waits[kind] = merged.waits.get(kind, 0.0) + seconds
    return merged


def check_sharded_catalog(catalog: ShardedCatalog, deep: bool = False) -> List[str]:
    """Integrity check for a sharded catalog: every shard passes the
    single-catalog :func:`~repro.core.integrity.check_catalog` suite
    (violations prefixed ``shard <i>:``), plus the federation
    invariants — object ids disjoint across shards, the routing map
    consistent with the stored rows, and every stored object placed on
    the shard its router says owns it."""
    violations: List[str] = []
    for index, cat in enumerate(catalog.shards):
        for violation in check_catalog(cat, deep=deep):
            violations.append(f"shard {index}: {violation}")
    seen: Dict[int, int] = {}
    for index, cat in enumerate(catalog.shards):
        for object_id, _name, owner in _object_rows(cat.store):
            previous = seen.get(object_id)
            if previous is not None:
                violations.append(
                    f"object {object_id} stored in shards "
                    f"{previous} and {index}"
                )
                continue
            seen[object_id] = index
            recorded = catalog._locations.get(object_id)
            if recorded != index:
                violations.append(
                    f"object {object_id} stored in shard {index} but "
                    f"routing map says {recorded}"
                )
            expected = catalog.router.route(object_id, owner)
            if expected != index:
                violations.append(
                    f"object {object_id} (owner {owner!r}) stored in "
                    f"shard {index} but routes to {expected}"
                )
    for object_id, recorded in catalog._locations.items():
        if object_id not in seen:
            violations.append(
                f"routing map lists object {object_id} on shard "
                f"{recorded} but no shard stores it"
            )
    return violations


def _object_rows(store: HybridStore) -> List[tuple]:
    """``(object_id, name, owner)`` rows from either backend (the
    federation checks need the owner column to re-run the router)."""
    return _store_rows(store, "objects")
