"""The public catalog facade tying the hybrid pipeline together (Fig 1).

    schema-based XML  →  shred (CLOBs + rows)  →  query on attributes
                                               →  object ids  →  tagged XML

Typical use::

    from repro import HybridCatalog, AttributeCriteria, ObjectQuery, Op
    from repro.grid import lead_schema

    catalog = HybridCatalog(lead_schema())
    receipt = catalog.ingest(xml_text, name="forecast-001", owner="ann")
    query = ObjectQuery().add_attribute(
        AttributeCriteria("theme").add_element("themekey", "", "rain", Op.CONTAINS)
    )
    for xml in catalog.search(query):
        ...

The facade owns the definition registry, the shredder, and a
:class:`~repro.core.storage.HybridStore` backend (in-memory by default;
pass a :class:`repro.backends.sqlite.SqliteHybridStore` for the sqlite
layout).
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..errors import CatalogError
from ..obs import names as metric_names
from ..obs.events import EventLog
from ..obs.metrics import MetricsRegistry, default_registry
from ..obs.profile import (
    QueryProfile,
    activate,
    collecting,
    current_profile,
    deactivate,
)
from ..xmlkit import Document, parse
from .definitions import AttributeDef, DefinitionRegistry, ElementDef
from .logical import LogicalPlan, build_plan
from .query import ObjectQuery, ShreddedQuery, shred_query
from .result_cache import LoggedWrite, QueryResultCache, result_key
from .schema import AnnotatedSchema, ValueType
from .shredder import Shredder, ShredResult
from .storage import HybridStore, MemoryHybridStore, PlanTrace

def _issuable(object_id: int) -> bool:
    """Whether the id counter could have issued ``object_id``: it counts
    up from 1, and sqlite's INTEGER is 64-bit signed.  Any other id is
    no object, on every store."""
    return 0 < object_id < 1 << 63


def _require_issuable(object_id: int) -> None:
    if not _issuable(object_id):
        raise CatalogError(f"no object {object_id}")


class IngestReceipt:
    """What :meth:`HybridCatalog.ingest` returns: the assigned object id
    plus shredding statistics and validation warnings."""

    __slots__ = ("object_id", "name", "warnings", "clob_count", "attribute_count", "element_count")

    def __init__(self, object_id: int, name: str, shred: ShredResult) -> None:
        self.object_id = object_id
        self.name = name
        self.warnings = list(shred.warnings)
        self.clob_count = len(shred.clobs)
        self.attribute_count = len(shred.attributes)
        self.element_count = len(shred.elements)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"IngestReceipt(object_id={self.object_id}, clobs={self.clob_count}, "
            f"attrs={self.attribute_count}, elems={self.element_count}, "
            f"warnings={len(self.warnings)})"
        )


class Explanation:
    """What :meth:`HybridCatalog.explain` returns: the executed logical
    plan (with per-stage actual row counts), the matching ids and the
    executed :class:`PlanTrace`.  ``explain(..., analyze=True)``
    additionally attaches the collected
    :class:`~repro.obs.profile.QueryProfile`."""

    __slots__ = ("plan", "object_ids", "trace", "profile")

    def __init__(
        self,
        plan: LogicalPlan,
        object_ids: List[int],
        trace: PlanTrace,
        profile: Optional[QueryProfile] = None,
    ) -> None:
        self.plan = plan
        self.object_ids = object_ids
        self.trace = trace
        self.profile = profile

    def describe(self) -> str:
        text = (
            f"{self.plan.describe()}\n"
            f"{len(self.object_ids)} matching object(s)"
        )
        if self.profile is not None:
            text += "\n" + self.profile.describe()
        return text


class HybridCatalog:
    """A personal metadata catalog using the hybrid XML-relational scheme."""

    def __init__(
        self,
        schema: AnnotatedSchema,
        store: Optional[HybridStore] = None,
        on_unknown: str = "store",
        metrics: Optional[MetricsRegistry] = None,
        events: Optional[EventLog] = None,
        slow_query_threshold: Optional[float] = None,
    ) -> None:
        self.schema = schema
        # Observability: an explicit registry scopes this catalog's
        # numbers (per-catalog override); otherwise everything lands in
        # the process-global default.  It is bound once: every number
        # this catalog records, its operation timings too, lands here.
        self.metrics = metrics if metrics is not None else default_registry()
        self.store: HybridStore = store if store is not None else MemoryHybridStore()
        self.store.bind_metrics(self.metrics)
        reopened = self.store.is_initialized()
        if reopened:
            # Reopening a persisted catalog: verify the schema matches
            # and rehydrate definitions + object bookkeeping.
            self.store.attach_schema(schema)
        else:
            self.store.install_schema(schema)
        self.registry = DefinitionRegistry(schema)
        self.shredder = Shredder(
            schema, self.registry, on_unknown=on_unknown, metrics=self.metrics
        )
        # The result-cache token: ``generation`` moves on a definition
        # change, ``data_version`` on every write.  Plans are built per
        # query from the query alone, so nothing else needs retiring.
        self._token_lock = threading.Lock()
        self.generation = 0
        self.data_version = 0
        # Held from a write's commit through its token move, so the
        # result cache's write log lists ingests and deletes in commit
        # order (an id's delete can never be logged before its ingest).
        self._write_lock = threading.Lock()
        # Query-*result* memoization: fully-bound repeated queries skip
        # execution; an ingest or delete patches cached answers, any
        # other write drops them.
        self.result_cache = QueryResultCache(
            on_invalidate=self._count_result_cache_invalidation,
            on_patch=self._count_result_cache_patch,
        )
        # Structured event log (query audit, slow queries, rollbacks):
        # optional per-catalog sidecar; ``slow_query_threshold`` is in
        # seconds — queries above it land in the log with their full
        # profile embedded, which forces profile collection per query.
        self.events = events
        self.slow_query_threshold = slow_query_threshold
        if events is not None:
            events.bind_metrics(self.metrics)
            self.store.bind_events(events)
        #: The profile of the most recent profiled query (``repro
        #: explain --analyze`` and ``query(profile=True)`` both land
        #: here too).
        self.last_profile: Optional[QueryProfile] = None
        self._names: Dict[int, str] = {}
        if reopened:
            attr_rows, elem_rows = self.store.load_definition_rows()
            self.registry.rehydrate(attr_rows, elem_rows)
            max_id = 0
            for object_id, name, _owner in self.store.load_objects():
                self._names[object_id] = name
                max_id = max(max_id, object_id)
            self._object_ids = itertools.count(max_id + 1)
        else:
            self._object_ids = itertools.count(1)
        self.store.sync_definitions(self.registry)

    # ------------------------------------------------------------------
    # Shared metric handles (one creation call site per name — OBS01)
    # ------------------------------------------------------------------
    def _set_objects_gauge(self) -> None:
        self.metrics.gauge(
            "catalog_objects", "objects currently cataloged"
        ).set(len(self._names))

    def _count_query(self) -> None:
        self.metrics.counter("catalog_queries_total", "queries executed").inc()

    def _observe_seconds(self, name: str, t0: float) -> None:
        """Observe the wall time since ``t0`` into the operation's
        declared ``catalog_*_seconds`` histogram."""
        declared = metric_names.spec(name)
        self.metrics.histogram(name, declared.help).observe(
            time.perf_counter() - t0
        )

    def _count_result_cache_hit(self) -> None:
        self.metrics.counter(
            "query_cache_hits_total",
            "query results served from the result cache",
        ).inc()

    def _count_result_cache_miss(self) -> None:
        self.metrics.counter(
            "query_cache_misses_total",
            "query results computed fresh (result-cache miss)",
        ).inc()

    def _count_result_cache_patch(self) -> None:
        self.metrics.counter(
            "query_cache_patched_hits_total",
            "result-cache hits brought up to date from the write log",
        ).inc()

    def _count_result_cache_evictions(self, count: int) -> None:
        self.metrics.counter(
            "query_cache_evictions_total",
            "query results evicted from the result cache (LRU)",
        ).inc(count)

    def _set_result_cache_gauge(self) -> None:
        self.metrics.gauge(
            "query_cache_size", "query results currently cached"
        ).set(len(self.result_cache))

    def _count_result_cache_invalidation(self, cause: str) -> None:
        """Result-cache wipe observer: mirrors the cause into the
        labelled counter and the event log."""
        self.metrics.counter(
            "query_cache_invalidations_total",
            "result-cache wipes by what moved the token",
            labels=("cause",),
        ).labels(cause=cause).inc()
        if self.events is not None:
            self.events.emit("cache_invalidated", cause=cause)

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------
    def cache_token(self) -> Tuple[int, int]:
        """The result-cache invalidation token: moves exactly when a
        previously computed query answer may no longer be current."""
        return (self.generation, self.data_version)

    def invalidate(self) -> None:
        """Definitions changed: retire cached answers."""
        self._moved(definitions=True)

    def _moved(
        self, definitions: bool = False, write: Optional[LoggedWrite] = None
    ) -> None:
        """A write committed: move the token.  An ingest or delete
        passes its ``write`` record, which the result cache logs to
        patch cached answers with; any other write, or one that also
        moves the generation (a definition change), drops them."""
        with self._token_lock:
            self.data_version += 1
            if definitions:
                self.generation += 1
            self.result_cache.advance(
                (self.generation, self.data_version), write
            )

    # ------------------------------------------------------------------
    # Definitions
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
        """Register a dynamic metadata attribute (admin scope when
        ``user`` is None; otherwise private to ``user``)."""
        attr_def = self.registry.define_attribute(
            name, source, host=host, parent=parent, user=user, queryable=queryable
        )
        self.store.sync_definitions(self.registry)
        self.invalidate()
        return attr_def

    def define_element(
        self,
        attribute: AttributeDef,
        name: str,
        source: str,
        value_type: ValueType = ValueType.STRING,
        user: Optional[str] = None,
    ) -> ElementDef:
        elem_def = self.registry.define_element(attribute, name, source, value_type, user=user)
        self.store.sync_definitions(self.registry)
        self.invalidate()
        return elem_def

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def ingest(
        self,
        document: Union[str, Document],
        name: Optional[str] = "",
        owner: str = "",
        user: Optional[str] = None,
    ) -> IngestReceipt:
        """Shred and store one metadata document.

        ``document`` may be XML text or a pre-parsed
        :class:`~repro.xmlkit.Document`.  ``user`` scopes dynamic
        definition lookups (and auto-definitions in ``"define"`` mode).
        ``name=None`` auto-names the object ``object-<id>`` from its
        allocated id.  All writes (definition sync + object rows) are
        one store transaction: a failure anywhere leaves the catalog
        exactly as it was.
        """
        t0 = time.perf_counter()
        try:
            if isinstance(document, str):
                document = parse(document)
            shred = self.shredder.shred(document, user=user)
            object_id = next(self._object_ids)
            if name is None:
                name = f"object-{object_id}"

            def write() -> None:
                if shred.defined:
                    self.store.sync_definitions(self.registry)
                self.store.store_object(object_id, name, owner, shred)

            with self._write_lock:
                self.store.run_transaction("catalog.ingest", write)
                self._names[object_id] = name
                # New definitions were synced: move the generation too.
                self._moved(
                    definitions=bool(shred.defined),
                    write=LoggedWrite(object_id, (
                        shred.attributes, shred.elements, shred.inverted)),
                )
        finally:
            self._observe_seconds("catalog_ingest_seconds", t0)
        self.metrics.counter(
            "catalog_ingests_total", "documents ingested"
        ).inc()
        self._set_objects_gauge()
        return IngestReceipt(object_id, name, shred)

    def ingest_many(
        self,
        documents: Sequence[Union[str, Document]],
        owner: str = "",
        user: Optional[str] = None,
    ) -> List[IngestReceipt]:
        # name=None derives object-<id> from the allocated object id, so
        # names stay unique across calls (a positional counter would
        # restart at 1 every invocation and hand out duplicates).
        return [
            self.ingest(doc, name=None, owner=owner, user=user)
            for doc in documents
        ]

    def delete(self, object_id: int) -> None:
        t0 = time.perf_counter()
        try:
            _require_issuable(object_id)
            with self._write_lock:
                self.store.delete_object(object_id)
                self._names.pop(object_id, None)
                self._moved(write=LoggedWrite(object_id))
        finally:
            self._observe_seconds("catalog_delete_seconds", t0)
        self.metrics.counter("catalog_deletes_total", "objects deleted").inc()
        self._set_objects_gauge()

    # ------------------------------------------------------------------
    # Incremental attribute maintenance (paper §5: "as metadata
    # attributes were inserted later, CLOBs were stored for each
    # metadata attribute along with ... a sequence ID")
    # ------------------------------------------------------------------
    def add_attribute(
        self,
        object_id: int,
        fragment: Union[str, Document],
        user: Optional[str] = None,
    ) -> IngestReceipt:
        """Attach one more metadata-attribute instance to an existing
        object.  ``fragment`` is a single attribute element (e.g. a new
        ``<theme>...</theme>`` or ``<detailed>...</detailed>``); it takes
        the next same-sibling sequence, so no stored key is rewritten —
        the update-cost benefit of schema-level ordering (§2).
        """
        # Fails fast on an unknown id; the store checks again inside
        # the transaction, where a racing delete cannot slip past.
        name = self.object_name(object_id)
        if isinstance(fragment, str):
            fragment = parse(fragment)
        snode = self.schema.attribute_by_tag(fragment.root.tag)
        if snode is None:
            raise CatalogError(
                f"<{fragment.root.tag}> is not a metadata attribute of the schema"
            )
        assert snode.order is not None
        # Definitions the shred auto-registers; kept across a retried
        # attempt, whose re-shred finds them registered already.
        defined: List[AttributeDef] = []

        def write() -> ShredResult:
            # The sequence reads, the shred and the rows are one
            # transaction: a concurrent delete or add_attribute on the
            # object lands entirely before or entirely after it.
            shred = self.shredder.shred_attribute_fragment(
                fragment,
                clob_seq=self.store.max_clob_seq(object_id, snode.order) + 1,
                seq_base=self.store.instance_counts(object_id),
                user=user,
            )
            defined.extend(shred.defined)
            if defined:
                self.store.sync_definitions(self.registry)
            self.store.append_rows(object_id, shred)
            return shred

        shred = self.store.run_transaction("catalog.add_attribute", write)
        self._moved(definitions=bool(defined))
        return IngestReceipt(object_id, name, shred)

    def remove_attribute(
        self,
        object_id: int,
        name: str,
        source: str = "",
        seq: int = 1,
        user: Optional[str] = None,
    ) -> None:
        """Remove the ``seq``-th instance of a top-level metadata
        attribute (and all its sub-attribute instances) from an object."""
        attr_def = self.registry.lookup_attribute(name, source, user=user)
        if attr_def is None:
            raise CatalogError(
                f"no top-level attribute definition ({name!r}, {source!r})"
            )
        _require_issuable(object_id)
        self.store.remove_attribute_instance(object_id, attr_def.attr_id, seq)
        self._moved()

    def object_name(self, object_id: int) -> str:
        try:
            return self._names[object_id]
        except KeyError:
            raise CatalogError(f"no object {object_id}") from None

    def __len__(self) -> int:
        return self.store.object_count()

    # ------------------------------------------------------------------
    # Query
    # ------------------------------------------------------------------
    def query(
        self,
        query: ObjectQuery,
        user: Optional[str] = None,
        trace: Optional[PlanTrace] = None,
        profile: bool = False,
    ) -> List[int]:
        """Match objects; returns sorted object ids (paper §4).

        The query is shredded, checked against the result cache (plan
        shape + literals; a repeated fully-bound query skips execution
        entirely, its cached answer patched past any ingests and
        deletes since it was computed), then compiled into a
        :class:`~repro.core.logical.LogicalPlan` and executed by the
        bound store.  An
        explicit ``trace`` bypasses the result cache: the caller asked
        to watch the plan actually run.

        ``profile=True`` collects a per-stage
        :class:`~repro.obs.profile.QueryProfile`, left in
        :attr:`last_profile`.  A slow-query threshold (with an event
        log bound) collects one for every query so slow ones can embed
        it; an ambient profile installed by
        :func:`repro.obs.profile.collecting` is used as-is."""
        # A cache hit would otherwise never touch the store: check
        # explicitly so use-after-close raises instead of serving a
        # cached answer from a closed catalog.
        self.store._check_open()
        prof = current_profile()
        if prof is None and (
            profile
            or (self.events is not None
                and self.slow_query_threshold is not None)
        ):
            # Raw activate/deactivate instead of the ``collecting``
            # contextmanager: this is per-query, and the generator
            # frame costs more than the whole profile snapshot.
            prof = QueryProfile()
            token = activate(prof)
            try:
                return self._run_query(query, user, trace, prof)
            finally:
                deactivate(prof, token)
        return self._run_query(query, user, trace, prof)

    def _run_query(
        self,
        query: ObjectQuery,
        user: Optional[str],
        trace: Optional[PlanTrace],
        prof: Optional[QueryProfile],
    ) -> List[int]:
        audit = self.events is not None
        t0 = time.perf_counter()
        try:
            shredded = self.shred_query(query, user=user)
            use_cache = trace is None
            if use_cache:
                # The token is captured *before* execution: the
                # answer is stored as current at it, and the next
                # lookup replays any write that landed mid-query (a
                # definition change makes the cache refuse it).
                token = self.cache_token()
                key = result_key(shredded)
                cached = self.result_cache.lookup(key, shredded)
                if cached is not None:
                    self._count_result_cache_hit()
                    self._count_query()
                    if prof is not None:
                        prof.result_cache_hit = True
                        self.last_profile = prof
                    if audit:
                        self._audit_query(shredded, cached, t0, "hit", prof)
                    return cached
                self._count_result_cache_miss()
            ids = self.store.match_objects(self.plan_for(shredded), trace)
            if use_cache:
                evicted = self.result_cache.store(key, token, ids)
                if evicted:
                    self._count_result_cache_evictions(evicted)
                self._set_result_cache_gauge()
        finally:
            self._observe_seconds("catalog_query_seconds", t0)
        self._count_query()
        if prof is not None:
            self.last_profile = prof
        if audit:
            cache = "miss" if use_cache else "bypass"
            self._audit_query(shredded, ids, t0, cache, prof)
        return ids

    def _audit_query(
        self,
        shredded: ShreddedQuery,
        ids: List[int],
        t0: float,
        cache: str,
        prof: Optional[QueryProfile],
    ) -> None:
        """Emit the per-query audit event — and, above the configured
        threshold, a ``slow_query`` record with the profile embedded."""
        assert self.events is not None
        seconds = time.perf_counter() - t0
        self.events.emit(
            "query",
            attrs=len(shredded.qattrs),
            elems=len(shredded.qelems),
            matches=len(ids),
            seconds=seconds,
            cache=cache,
        )
        threshold = self.slow_query_threshold
        if threshold is not None and seconds >= threshold and prof is not None:
            prof.finish()
            self.events.emit(
                "slow_query",
                attrs=len(shredded.qattrs),
                elems=len(shredded.qelems),
                matches=len(ids),
                seconds=seconds,
                threshold=threshold,
                profile=prof.as_dict(),
            )

    def shred_query(self, query: ObjectQuery, user: Optional[str] = None) -> ShreddedQuery:
        """Expose query shredding separately (used by benchmarks and the
        Fig-4 walkthrough example)."""
        return shred_query(query, self.registry, user=user)

    def plan_for(self, shredded: ShreddedQuery) -> LogicalPlan:
        """The logical plan for a shredded query, built for this query
        alone: it reads no store and is never shared, so whatever
        order depends on row counts comes from the rows its own seeks
        return when it runs."""
        return build_plan(shredded)

    def explain(
        self,
        query: ObjectQuery,
        user: Optional[str] = None,
        analyze: bool = False,
    ) -> Explanation:
        """Plan and execute ``query``, returning the plan tree with the
        actual per-stage row counts (the ``repro explain`` CLI surface).  ``analyze=True``
        additionally collects per-stage wall timings and the wait
        breakdown into :attr:`Explanation.profile` (the
        ``repro explain --analyze`` surface)."""
        prof: Optional[QueryProfile] = None
        t0 = time.perf_counter()
        try:
            shredded = self.shred_query(query, user=user)
            plan = self.plan_for(shredded)
            trace = PlanTrace()
            if analyze:
                prof = QueryProfile()
                with collecting(prof):
                    ids = self.store.match_objects(plan, trace)
                self.last_profile = prof
            else:
                ids = self.store.match_objects(plan, trace)
        finally:
            self._observe_seconds("catalog_explain_seconds", t0)
        self._count_query()
        return Explanation(plan, ids, trace, profile=prof)

    # ------------------------------------------------------------------
    # Responses
    # ------------------------------------------------------------------
    def fetch(self, object_ids: Sequence[int]) -> Dict[int, str]:
        """Rebuild tagged XML responses for ``object_ids`` (paper §5);
        ids of no stored object are absent from the result."""
        t0 = time.perf_counter()
        try:
            return self.store.build_responses(
                [i for i in object_ids if _issuable(i)]
            )
        finally:
            self._observe_seconds("catalog_fetch_seconds", t0)

    def search(
        self,
        query: ObjectQuery,
        user: Optional[str] = None,
        trace: Optional[PlanTrace] = None,
    ) -> List[str]:
        """Query and fetch in one call; responses in object-id order."""
        t0 = time.perf_counter()
        try:
            ids = self.query(query, user=user, trace=trace)
            responses = self.fetch(ids)
            return [responses[i] for i in ids]
        finally:
            self._observe_seconds("catalog_search_seconds", t0)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def storage_report(self) -> List[Tuple[str, int, int]]:
        return self.store.storage_report()
