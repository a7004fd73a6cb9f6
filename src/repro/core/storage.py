"""Catalog storage layout and the in-memory hybrid store.

The hybrid scheme stores, per catalog (paper §2–§3):

``objects``
    One row per cataloged object (file or aggregation).
``clobs``
    One verbatim CLOB per metadata-attribute instance, keyed by
    ``(object, schema order, same-sibling sequence)``.
``attributes``
    One row per attribute/sub-attribute instance:
    ``(object, attribute def, sequence)`` plus the hosting CLOB key.
``elements``
    One row per metadata-element value, keyed to its parent attribute
    instance; values are stored as text plus a numeric shadow column for
    typed comparison.
``attr_ancestors``
    The inverted list of sub-attribute → ancestor-attribute instance
    relationships (distance 0 = self), which lets queries avoid
    recursion (§4).
``schema_order``
    The schema-level global ordering: ``(order, tag, last_child_order)``
    — built once per schema (§2).  The wrapper tags a response requires
    (§5) come from the schema's ancestor pairs, held in memory
    (:class:`~repro.core.response.ResponseTags`), not from a table.
``attr_defs`` / ``elem_defs``
    The definition tables mirroring :class:`DefinitionRegistry`.

:class:`MemoryHybridStore` holds these tables in the from-scratch
relational engine; :class:`repro.backends.sqlite.SqliteHybridStore`
holds the identical layout in stdlib sqlite.  Both implement
:class:`HybridStore`, the interface the catalog facade drives.
"""

from __future__ import annotations

import abc
import threading
from contextlib import contextmanager
from typing import (
    Any, Callable, ContextManager, Dict, Iterable, Iterator, List, Optional,
    Sequence, Tuple, Union,
)

from ..errors import CatalogClosedError, CatalogError
from ..faults import DEFAULT_RETRY, FaultPlan, RetryPolicy
from ..faults.sites import OBJECT_ROW_TABLES, check_site
from ..obs import names as metric_names
from ..obs.events import EventLog
from ..obs.metrics import MetricsRegistry, default_registry
from ..obs.profile import QueryProfile, current_profile
from ..relational import Database, clob, integer, real, text
from ..relational.table import HashIndex, PostingIndex
from .concurrency import RWLock
from .definitions import DefinitionRegistry
from .logical import LogicalPlan, build_plan
from .ordering import ancestor_pairs
from .query import Op, ShreddedQuery
from .response import ResponseTags, record_response_metrics, tag_responses
from .schema import AnnotatedSchema
from .shredder import ShredResult

#: Guards first-touch creation of a store's RWLock (stores are built
#: without one so legacy single-threaded construction paths stay cheap).
_RWLOCK_INIT_LOCK = threading.Lock()


class PlanStage:
    """One stage of an executed query plan, for the Fig-4 trace."""

    __slots__ = ("name", "rows", "note")

    def __init__(self, name: str, rows: int, note: str = "") -> None:
        self.name = name
        self.rows = rows
        self.note = note

    def __repr__(self) -> str:  # pragma: no cover
        return f"PlanStage({self.name!r}, rows={self.rows})"


class PlanTrace:
    """Ordered stage list of a matched query, for the caller to read.

    :meth:`HybridStore.match_objects` fills it from the same
    :func:`fig4_stages` list it feeds to :func:`record_plan`, so the
    Fig-4 trace and the ``planner_stage_rows`` histogram are one
    mechanism.
    """

    def __init__(self) -> None:
        self.stages: List[PlanStage] = []

    def add(self, name: str, rows: int, note: str = "") -> None:
        self.stages.append(PlanStage(name, rows, note))

    def describe(self) -> str:
        if not self.stages:
            return "(no stages)"
        width = max(len(s.name) for s in self.stages)
        lines = []
        for s in self.stages:
            note = f"  -- {s.note}" if s.note else ""
            lines.append(f"{s.name:<{width}}  {s.rows:>8} rows{note}")
        return "\n".join(lines)

    def as_dict(self) -> dict:
        """Structured export."""
        return {
            "stages": [
                {"name": s.name, "rows": s.rows, "note": s.note}
                for s in self.stages
            ]
        }

    def stage_names(self) -> List[str]:
        return [s.name for s in self.stages]


#: Row-count buckets for the per-stage histograms (row counts span
#: 0 .. corpus * criteria, so powers of ten).
ROW_BUCKETS = (0, 1, 5, 10, 50, 100, 500, 1000, 5000, 10000,
               50000, 100000, float("inf"))


#: Note on ``elements-meeting-criteria`` when a seek matched nothing.
SHORT_CIRCUIT_NOTE = "short-circuited: a criterion matched nothing"


def fig4_stages(plan: LogicalPlan) -> List[PlanStage]:
    """The five Fig-4 stages of an executed plan, as a view of
    ``plan.actuals`` — what either backend's run of the plan traces."""
    query = plan.query
    actuals = plan.actuals
    seek_rows = [actuals[seek.key()] for seek in plan.seeks]
    stages = [
        PlanStage(
            "query-criteria",
            len(query.qattrs) + len(query.qelems),
            f"{len(query.qattrs)} attribute, {len(query.qelems)} element criteria"
            + (" (simplified plan)" if plan.simple else ""),
        ),
        PlanStage(
            "elements-meeting-criteria",
            sum(seek_rows),
            SHORT_CIRCUIT_NOTE if 0 in seek_rows else "",
        ),
        PlanStage(
            "attributes-direct", sum(actuals[count.key()] for count in plan.counts)
        ),
    ]
    if not plan.simple:
        # A parent criterion's edges are consecutive and each whittles
        # its survivors further, so its last edge holds the final count.
        survivors = {
            edge.parent_qattr_id: actuals[edge.key()] for edge in plan.containments
        }
        stages.append(PlanStage("attributes-indirect", sum(survivors.values())))
    stages.append(PlanStage("object-ids", actuals[plan.intersect.key()]))
    return stages


def record_plan(stages: Sequence[PlanStage], registry: MetricsRegistry) -> None:
    """Mirror an executed plan's stages into the metrics registry: one
    ``planner_stage_rows{stage=...}`` observation per stage."""
    stage_rows = registry.histogram(
        "planner_stage_rows",
        "row count produced by each query-plan stage",
        labels=("stage",),
        buckets=ROW_BUCKETS,
    )
    for stage in stages:
        stage_rows.labels(stage=stage.name).observe(stage.rows)
    registry.counter(
        "planner_queries_total", "query plans executed"
    ).inc()


def schema_order_rows(schema: AnnotatedSchema) -> List[Tuple[int, str, int]]:
    """The ``schema_order`` table of ``schema``: what installation
    loads and what a reopen verifies the stored rows against."""
    return [(n.order, n.tag, n.last_child_order) for n in schema.ordered_nodes]


class HybridStore(abc.ABC):
    """Backend interface for the hybrid catalog.

    ``metrics`` is the registry instrumentation in the store and the
    planners report to; the owning catalog binds its own registry via
    :meth:`bind_metrics`, and unbound stores fall back to the process
    default.

    Every mutation runs inside a transaction: subclasses implement the
    ``_txn_begin``/``_txn_commit``/``_txn_rollback`` primitives (sqlite
    issues ``BEGIN IMMEDIATE``; the memory store journals undo entries)
    and the shared :meth:`run_transaction` logic handles reentrancy,
    rollback on any exception, bounded retry with exponential backoff
    for transient failures, and the
    ``txn_commits_total`` / ``txn_rollbacks_total`` /
    ``txn_retries_total`` metrics.  A :class:`~repro.faults.FaultPlan`
    installed via :meth:`install_faults` is consulted before every
    statement issued inside a transaction (write paths only), which is
    how the crash-safety suite proves any mid-write failure leaves the
    catalog fsck-clean.

    Concurrency contract (both backends): every transaction holds the
    store's write lock begin-through-commit, so writes stay strictly
    serialized (the S32 single-writer protocol); read surfaces run
    under :meth:`read_locked`, so any number of reader threads proceed
    in parallel and never observe a half-applied mutation.  Transaction
    reentrancy is *per thread* — a nested ``run_transaction`` joins the
    outer one only on the thread that owns it; any other thread queues
    on the write lock.  Fault plans likewise only fire for statements
    issued by the transaction-owning thread, keeping deterministic
    ``fail_at=N`` crash sweeps stable under concurrent readers."""

    #: Backend name stamped on query profiles.
    backend: Optional[str] = None
    schema: Optional[AnnotatedSchema] = None
    _response_tags: Optional[ResponseTags] = None
    metrics: Optional[MetricsRegistry] = None
    events: Optional[EventLog] = None
    fault_plan: Optional[FaultPlan] = None
    retry_policy: RetryPolicy = DEFAULT_RETRY
    _txn_depth: int = 0
    _txn_owner: Optional[int] = None  # thread id owning the open txn
    _closed: bool = False
    _rwlock_obj: Optional[RWLock] = None

    def bind_metrics(self, registry: MetricsRegistry) -> None:
        self.metrics = registry

    def bind_events(self, log: Optional[EventLog]) -> None:
        """Attach (or detach, with ``None``) the structured event log;
        rollbacks, retries, and injected faults are journaled to it."""
        self.events = log

    def metrics_registry(self) -> MetricsRegistry:
        return self.metrics if self.metrics is not None else default_registry()

    # ------------------------------------------------------------------
    # Concurrency: reader-writer lock, closed-store guard
    # ------------------------------------------------------------------
    def _rwlock(self) -> RWLock:
        lock = self._rwlock_obj
        if lock is None:
            with _RWLOCK_INIT_LOCK:
                lock = self._rwlock_obj
                if lock is None:
                    lock = RWLock(observer=self._observe_lock_wait)
                    self._rwlock_obj = lock
        return lock

    def _observe_lock_wait(self, mode: str, seconds: float) -> None:
        """RWLock contention observer: contended acquisitions land in
        the reader/writer wait histograms and on the active query
        profile.  Only ever called on the blocked path, so the
        uncontended fast path stays clock-free."""
        name = (
            "rwlock_reader_wait_seconds"
            if mode == "read"
            else "rwlock_writer_wait_seconds"
        )
        declared = metric_names.spec(name)
        self.metrics_registry().histogram(name, declared.help).observe(seconds)
        prof = current_profile()
        if prof is not None:
            prof.add_wait("lock", seconds)

    def _check_open(self) -> None:
        if self._closed:
            raise CatalogClosedError(
                f"{type(self).__name__} is closed; operations on a closed "
                "store are invalid (close() itself is idempotent)"
            )

    @contextmanager
    def read_locked(self) -> Iterator[None]:
        """Shared read section: runs in parallel with other readers and
        is excluded from write transactions.  Reentrant, and a no-op
        inside the calling thread's own transaction.  Doubles as the
        closed-store guard of every read surface."""
        self._check_open()
        with self._rwlock().read_locked():
            yield

    # ------------------------------------------------------------------
    # Crash safety: transactions, fault injection, retry
    # ------------------------------------------------------------------
    def install_faults(self, plan: FaultPlan) -> FaultPlan:
        """Arm a fault plan on this store's write paths; returns it."""
        self.fault_plan = plan
        return plan

    def clear_faults(self) -> None:
        self.fault_plan = None

    def set_retry_policy(self, policy: RetryPolicy) -> None:
        self.retry_policy = policy

    def _fault_armed(self) -> bool:
        """True when statements issued by the *calling thread* should
        consult the fault plan — i.e. inside this thread's own
        transaction.  Reader threads running concurrently with another
        thread's transaction must not consume fault-plan statement
        counts, or deterministic ``fail_at=N`` sweeps would drift."""
        return (
            self.fault_plan is not None
            and self._txn_depth > 0
            and self._txn_owner == threading.get_ident()
        )

    def _fault(self, site: str) -> None:
        """Injection point: called before each write-path statement."""
        if self._fault_armed():
            try:
                self.fault_plan.before(site, self.metrics_registry())
            except BaseException:
                # The plan fired here: journal the injection before the
                # crash propagates (the sweep harness reads these back).
                if self.events is not None:
                    self.events.emit("fault_injected", site=site)
                raise

    def in_transaction(self) -> bool:
        """True when the *calling thread* is inside a transaction."""
        return self._txn_depth > 0 and self._txn_owner == threading.get_ident()

    @abc.abstractmethod
    def _txn_begin(self, site: str) -> None:
        """Start a backend transaction."""

    @abc.abstractmethod
    def _txn_commit(self, site: str) -> None:
        """Commit the backend transaction."""

    @abc.abstractmethod
    def _txn_rollback(self, site: str) -> None:
        """Roll the backend transaction back; must tolerate a
        transaction that never fully started."""

    _txn_counter_cache: Optional[Tuple[MetricsRegistry, dict]] = None

    def _txn_counter(self, name: str, site: str):
        # Resolved handles are cached per (name, site) — one registry
        # dict walk per transaction would show up in E1.  The help text
        # and labels come from the central declaration so they cannot
        # drift between call sites.
        registry = self.metrics_registry()
        cache = self._txn_counter_cache
        if cache is None or cache[0] is not registry:
            cache = (registry, {})
            self._txn_counter_cache = cache
        try:
            return cache[1][(name, site)]
        except KeyError:
            declared = metric_names.spec(name)
            child = registry.counter(
                name, declared.help, labels=declared.labels
            ).labels(site=site)
            cache[1][(name, site)] = child
            return child

    def _count_commit(self, site: str) -> None:
        self._txn_counter("txn_commits_total", site).inc()

    def _count_rollback(self, site: str) -> None:
        self._txn_counter("txn_rollbacks_total", site).inc()
        if self.events is not None:
            self.events.emit("txn_rollback", site=site)

    def _count_retry(self, site: str) -> None:
        self._txn_counter("txn_retries_total", site).inc()
        if self.events is not None:
            self.events.emit("txn_retry", site=site)

    def run_transaction(self, site: str, fn: Callable[[], "object"]):
        """Run ``fn`` inside one transaction, retrying the whole thing
        (the rollback restored a clean state) on transient failures —
        sqlite ``database is locked`` — per the store's retry policy.
        Already inside this thread's transaction, ``fn`` simply joins
        it: retry is the outermost operation's business.  The write
        lock is held begin-through-commit, serializing transactions
        across threads."""
        if self.in_transaction():
            return fn()
        self._check_open()
        with self._rwlock().write_locked():
            self._check_open()
            policy = self.retry_policy
            attempt = 1
            while True:
                self._txn_owner = threading.get_ident()
                self._txn_depth = 1
                try:
                    self._txn_begin(site)
                    result = fn()
                except BaseException as exc:
                    self._txn_depth = 0
                    self._txn_owner = None
                    self._txn_rollback(site)
                    self._count_rollback(site)
                    if (
                        isinstance(exc, Exception)
                        and attempt < policy.max_attempts
                        and policy.is_transient(exc)
                    ):
                        self._count_retry(site)
                        policy.pause(attempt)
                        attempt += 1
                        continue
                    raise
                self._txn_depth = 0
                self._txn_owner = None
                try:
                    self._txn_commit(site)
                except BaseException:
                    self._txn_rollback(site)
                    self._count_rollback(site)
                    raise
                self._count_commit(site)
                return result

    def install_schema(self, schema: AnnotatedSchema) -> None:
        """Create the layout and load the schema-level global ordering
        (built once — §2).  The ordering rows are one transaction: a
        crash mid-load must not leave a half-ordered schema behind."""
        if self.schema is not None:
            raise CatalogError("schema already installed")
        self._check_open()
        self._bind_schema(schema)
        self._create_tables()

        self.run_transaction(
            "install_schema",
            lambda: self._insert_rows("schema_order", schema_order_rows(schema)),
        )

    def _bind_schema(self, schema: AnnotatedSchema) -> None:
        """Bind ``schema`` and build the response tagger's maps from its
        ordering rows and ancestor pairs — once, not per fetch."""
        self.schema = schema
        self._response_tags = ResponseTags(
            schema_order_rows(schema), ancestor_pairs(schema.ordered_nodes)
        )

    @abc.abstractmethod
    def _create_tables(self) -> None:
        """Create the empty layout (DDL; runs outside a transaction)."""

    def is_initialized(self) -> bool:
        """True when the store already holds a catalog (reopened file).
        In-memory stores are never pre-initialized."""
        return False

    def close(self) -> None:
        """Release backend resources.  Idempotent: a second ``close()``
        is a no-op.  Every subsequent operation raises
        :class:`~repro.errors.CatalogClosedError`.  The base marks the
        store closed after waiting out in-flight transactions; backends
        with external resources extend it."""
        if self._closed:
            return
        # Let an in-flight transaction finish rather than yanking the
        # state out from under it; new operations fail _check_open.
        with self._rwlock().write_locked():
            self._closed = True

    def attach_schema(self, schema: AnnotatedSchema) -> None:
        """Bind ``schema`` to an already-initialized store, verifying it
        matches the stored global ordering."""
        raise CatalogError("this store cannot be reopened")

    def load_definition_rows(self):
        """``(attr_rows, elem_rows)`` for registry rehydration."""
        raise CatalogError("this store cannot be reopened")

    def load_objects(self):
        """``(object_id, name, owner)`` rows for catalog rehydration."""
        raise CatalogError("this store cannot be reopened")

    # ------------------------------------------------------------------
    # Write path.  The algorithms — transaction shell, table order,
    # existence checks, the victim walk of a removed instance — live
    # here once; a backend supplies the five row primitives and nothing
    # else (the write-side twin of the three query reads).  Rows are tuples
    # in their table's column order.
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _insert_rows(self, table: str, rows: Sequence[tuple]) -> None:
        """Insert ``rows`` into ``table``."""

    @abc.abstractmethod
    def _insert_new_definitions(self, table: str, rows: Sequence[tuple]) -> None:
        """Insert those definition ``rows`` whose id (first column) the
        table does not hold yet."""

    @abc.abstractmethod
    def _delete_rows(self, table: str, object_id: int, **equals: int) -> int:
        """Delete the rows of ``object_id`` whose named columns hold
        the given values; returns how many went."""

    @abc.abstractmethod
    def _clob_key_of(
        self, object_id: int, attr_id: int, seq_id: int
    ) -> Optional[Tuple[int, int]]:
        """``(clob_order, clob_seq)`` of an attribute instance, or
        ``None`` when the object has no such instance."""

    @abc.abstractmethod
    def _descendant_instances(
        self, object_id: int, attr_id: int, seq_id: int
    ) -> List[Tuple[int, int]]:
        """``(attr_id, seq_id)`` of every sub-attribute instance below
        the given one (the inverted list at distance >= 1)."""

    def sync_definitions(self, registry: DefinitionRegistry) -> None:
        """Insert the registry's definition rows the store lacks."""
        def write() -> None:
            attr_rows, elem_rows = registry.rows()
            self._insert_new_definitions("attr_defs", attr_rows)
            self._insert_new_definitions("elem_defs", elem_rows)

        self.run_transaction("sync_definitions", write)

    def _insert_object_rows(self, object_id: int, shred: ShredResult) -> None:
        for table, rows in (
            ("clobs", shred.clobs),
            ("attributes", shred.attributes),
            ("elements", shred.elements),
            ("attr_ancestors", shred.inverted),
        ):
            self._insert_rows(table, [(object_id, *row) for row in rows])

    def store_object(
        self, object_id: int, name: str, owner: str, shred: ShredResult
    ) -> None:
        """Persist one shredded document."""
        def write() -> None:
            self._insert_rows("objects", [(object_id, name, owner)])
            self._insert_object_rows(object_id, shred)

        self.run_transaction("store_object", write)

    def append_rows(self, object_id: int, shred: ShredResult) -> None:
        """Add an incremental fragment's rows to an existing object
        (paper §5: attributes may be inserted after the original shred)."""
        def write() -> None:
            # Checked inside the transaction: a delete that won the
            # race must not be followed by orphan rows.
            if not self.has_object(object_id):
                raise CatalogError(f"no object {object_id}")
            self._insert_object_rows(object_id, shred)

        self.run_transaction("append_rows", write)

    def delete_object(self, object_id: int) -> None:
        """Remove an object and all its rows."""
        def write() -> None:
            for table in OBJECT_ROW_TABLES:
                # Checked inside the transaction: of two racing deletes
                # of one id, the second removes no row and fails.
                if not self._delete_rows(table, object_id) and table == "objects":
                    raise CatalogError(f"no object {object_id}")

        self.run_transaction("delete_object", write)

    def remove_attribute_instance(
        self, object_id: int, attr_id: int, seq_id: int
    ) -> None:
        """Remove one top-level attribute instance (its CLOB, rows, and
        all descendant sub-attribute instances)."""
        def write() -> None:
            clob_key = self._clob_key_of(object_id, attr_id, seq_id)
            if clob_key is None:
                raise CatalogError(
                    f"object {object_id} has no instance {seq_id} of attribute "
                    f"{attr_id}"
                )
            clob_order, clob_seq = clob_key
            if clob_seq < 1:
                raise CatalogError(
                    "only top-level attribute instances can be removed; "
                    f"attribute {attr_id} instance {seq_id} is a sub-attribute"
                )
            victims = [(attr_id, seq_id)]
            victims += self._descendant_instances(object_id, attr_id, seq_id)
            for v_attr, v_seq in victims:
                self._delete_rows("attributes", object_id, attr_id=v_attr, seq_id=v_seq)
                self._delete_rows("elements", object_id, attr_id=v_attr, seq_id=v_seq)
                self._delete_rows("attr_ancestors", object_id, desc_attr_id=v_attr, desc_seq=v_seq)
                self._delete_rows("attr_ancestors", object_id, anc_attr_id=v_attr, anc_seq=v_seq)
            self._delete_rows("clobs", object_id, schema_order=clob_order, clob_seq=clob_seq)

        self.run_transaction("remove_attribute_instance", write)

    @abc.abstractmethod
    def max_clob_seq(self, object_id: int, schema_order: int) -> int:
        """Highest stored same-sibling sequence of the given schema node
        for an object (0 when none) — the next fragment takes this + 1.
        Max, not count: removals may leave sequence gaps."""

    @abc.abstractmethod
    def instance_counts(self, object_id: int) -> Dict[int, int]:
        """Max stored sequence id per attribute definition for an object."""

    @abc.abstractmethod
    def has_object(self, object_id: int) -> bool: ...

    @abc.abstractmethod
    def object_count(self) -> int: ...

    def match_objects(
        self,
        query: Union[ShreddedQuery, LogicalPlan],
        trace: Optional[PlanTrace] = None,
    ) -> List[int]:
        """Execute the Fig-4 count-matching plan; return matching object
        ids.  Accepts either a :class:`~repro.core.query.ShreddedQuery`
        (compiled into its plan on the spot) or a pre-built
        :class:`~repro.core.logical.LogicalPlan`, as the catalog facade
        passes.

        :meth:`_execute_plan` runs the stages; the Fig-4 trace, the
        ``planner_stage_rows`` histogram and the profile rows are all
        read off ``plan.actuals`` here, so they cannot differ between
        backends."""
        plan = query if isinstance(query, LogicalPlan) else build_plan(query)
        # One contextvar read per query is the whole disabled-profiling
        # cost on this path (bench E13's ≤1% budget).
        prof = current_profile()
        # A re-executed plan must not keep an earlier run's counts for
        # stages this run short-circuits past.
        plan.actuals.clear()
        object_ids = self._execute_plan(plan, prof)
        stages = fig4_stages(plan)
        record_plan(stages, self.metrics_registry())
        if trace is not None:
            trace.stages.extend(stages)
        if prof is not None:
            prof.record_plan(plan, self.backend)
        return object_ids

    # ------------------------------------------------------------------
    # Query path.  The interpreter (:mod:`repro.core.planner`) runs
    # once, here; a backend supplies one read section and three keyed
    # reads (the query-side twin of the five write primitives).
    # ------------------------------------------------------------------
    def _execute_plan(
        self, plan: LogicalPlan, prof: Optional[QueryProfile]
    ) -> List[int]:
        """Run the plan's stages in one read section.  The executor
        contract: leave every stage's produced row count in
        ``plan.actuals`` (a seek that matches nothing ends the run
        through :meth:`LogicalPlan.short_circuit`), mark each stage's
        end in ``prof.marks`` when ``prof`` is not ``None``, and return
        the sorted matching object ids."""
        from .planner import match_plan

        with self._read_section():
            return match_plan(self, plan, prof)

    @abc.abstractmethod
    def _read_section(self) -> ContextManager[None]:
        """The one read section a query's primitives run in: they see
        one consistent state, and no write lands in between."""

    @abc.abstractmethod
    def _seek_instances(
        self, elem_id: int, attr_id: Optional[int], op: Op, expected: Any
    ) -> List[Tuple[int, int]]:
        """The ElementSeek read: ``(object_id, seq_id)`` of each
        ``elements`` row of definition ``elem_id`` (and of attribute
        definition ``attr_id``, unless it is ``None``) whose value
        matches ``op`` against ``expected``.  A text ``expected`` (an
        IN_SET of text) compares ``value_text``, a number compares
        ``value_num``: the column query shredding chose."""

    @abc.abstractmethod
    def _instance_rows(self, attr_def_id: int) -> List[Tuple[int, int]]:
        """``(object_id, seq_id)`` of every instance of one attribute
        definition."""

    @abc.abstractmethod
    def _ancestor_rows(
        self, desc_def_id: int, anc_def_id: int
    ) -> List[Tuple[int, int, int]]:
        """``(object_id, desc_seq, anc_seq)`` of the inverted-list rows
        of one definition pair at distance >= 1."""

    def build_responses(self, object_ids: Sequence[int]) -> Dict[int, str]:
        """Reconstruct tagged XML for each object id (paper §5); ids the
        store does not hold are absent from the result.  The backend
        only reads CLOB rows (:meth:`_clob_rows`); the tagging is
        :func:`~repro.core.response.tag_responses`, one algorithm for
        every store."""
        tags = self._response_tags
        assert tags is not None, "schema not installed"
        responses = tag_responses(self._clob_rows(dict.fromkeys(object_ids)), tags)
        record_response_metrics(self.metrics_registry(), responses)
        return responses

    @abc.abstractmethod
    def _clob_rows(self, object_ids: Iterable[int]) -> Dict[int, List[Tuple[int, int, str]]]:
        """``(schema_order, clob_seq, content)`` rows per distinct id,
        under a read section: stored objects only, ``[]`` for one that
        holds no CLOB."""

    @abc.abstractmethod
    def storage_report(self) -> List[Tuple[str, int, int]]:
        """Per-table ``(name, rows, bytes)`` accounting."""


# ---------------------------------------------------------------------------
# Memory store
# ---------------------------------------------------------------------------

def _seek_hits(
    op: Op,
    vals: List[Any],
    expected: Any,
    rowids: Sequence[int],
) -> List[int]:
    """Row ids (of ``rowids``) whose column value matches ``op``.

    One comprehension per operator over the raw value column — the
    vectorized equivalent of calling :meth:`Op.matches` per row, and
    bit-for-bit identical to it: NULL never matches, type-mismatched
    inequalities are False (the except fallback), CONTAINS is substring
    over ``str()``, IN_SET is set membership.  The reference semantics
    of :meth:`MemoryHybridStore._seek_rows`, and its fallback for a
    seek the posting index cannot answer.
    """
    try:
        if op is Op.EQ:
            # expected is never None (query shredding validates it), so
            # a NULL slot compares unequal without an explicit guard.
            return [r for r in rowids if vals[r] == expected]
        if op is Op.NE:
            return [r for r in rowids if (v := vals[r]) is not None and v != expected]
        if op is Op.IN_SET:
            return [r for r in rowids if vals[r] in expected]
        if op is Op.CONTAINS:
            needle = str(expected)
            return [
                r for r in rowids
                if (v := vals[r]) is not None and needle in str(v)
            ]
        if op is Op.LT:
            return [r for r in rowids if (v := vals[r]) is not None and v < expected]
        if op is Op.LE:
            return [r for r in rowids if (v := vals[r]) is not None and v <= expected]
        if op is Op.GT:
            return [r for r in rowids if (v := vals[r]) is not None and v > expected]
        return [r for r in rowids if (v := vals[r]) is not None and v >= expected]
    except TypeError:
        # Mixed-type column (possible only through raw table writes):
        # fall back to the scalar path, which defines mismatch as False.
        return [r for r in rowids if op.matches(vals[r], expected)]


def _seek_postings(
    index: PostingIndex, elem_id: int, op: Op, expected: Any, numeric: bool
) -> Optional[List[int]]:
    """The hits of one seek read off the posting index alone, value by
    value; ``None`` when the definition's values cannot answer it.

    A numeric EQ / IN_SET is a probe whatever else the group holds: a
    float key is the row's ``value_num`` itself, and a text or NULL key
    means ``value_num`` is NULL, which never matches.  Every other seek
    needs the group's values to be all of the type the criterion reads
    (text for text, float for numbers); then EQ / IN_SET probe, and
    CONTAINS, NE and the ranges test each distinct value once — with
    :func:`_seek_hits`' NULL and NaN semantics — and take its postings.
    """
    postings = index.postings(elem_id)
    if not numeric or op not in (Op.EQ, Op.IN_SET):
        if index.value_type(elem_id) is not (float if numeric else str):
            return None
    if op is Op.EQ:
        # A NaN equals nothing, though a dict finds a NaN key by identity.
        return list(postings.get(expected, ())) if expected == expected else []
    if op is Op.IN_SET:
        return [r for value in expected for r in postings.get(value, ())]
    items = postings.items()
    if op is Op.CONTAINS:
        if numeric:
            return None  # str() of a float is per row: -0.0 shares 0.0's key
        return [r for v, rows in items if v is not None and expected in v for r in rows]
    if op is Op.NE:
        return [r for v, rows in items if v is not None and v != expected for r in rows]
    if op is Op.LT:
        return [r for v, rows in items if v is not None and v < expected for r in rows]
    if op is Op.LE:
        return [r for v, rows in items if v is not None and v <= expected for r in rows]
    if op is Op.GT:
        return [r for v, rows in items if v is not None and v > expected for r in rows]
    return [r for v, rows in items if v is not None and v >= expected for r in rows]


class MemoryHybridStore(HybridStore):
    """Hybrid layout on the from-scratch relational engine."""

    backend = "memory"
    #: ``elements`` by definition, then by typed value: the access path
    #: of every ElementSeek.
    elements_by_value: PostingIndex
    #: ``attributes`` by definition: every instance of one definition.
    attributes_by_def: HashIndex

    def __init__(self) -> None:
        self.db = Database("hybrid")

    # -- Transactions (engine undo journal) -----------------------------
    def _txn_begin(self, site: str) -> None:
        self.db.begin()

    def _txn_commit(self, site: str) -> None:
        self.db.commit()

    def _txn_rollback(self, site: str) -> None:
        if self.db.in_transaction():
            self.db.rollback()

    # -- DDL ------------------------------------------------------------
    def _create_tables(self) -> None:
        db = self.db
        db.create_table(
            "objects",
            [integer("object_id", nullable=False), text("name"), text("owner")],
            primary_key=["object_id"],
        )
        t = db.create_table(
            "clobs",
            [
                integer("object_id", nullable=False),
                integer("schema_order", nullable=False),
                integer("clob_seq", nullable=False),
                clob("content", nullable=False),
            ],
            primary_key=["object_id", "schema_order", "clob_seq"],
        )
        t.create_index("clobs_by_object", ["object_id"])
        t = db.create_table(
            "attributes",
            [
                integer("object_id", nullable=False),
                integer("attr_id", nullable=False),
                integer("seq_id", nullable=False),
                integer("clob_order", nullable=False),
                integer("clob_seq", nullable=False),
            ],
            primary_key=["object_id", "attr_id", "seq_id"],
        )
        self.attributes_by_def = t.create_index("attributes_by_def", ["attr_id"])
        t.create_index("attributes_by_object", ["object_id"])
        t = db.create_table(
            "elements",
            [
                integer("object_id", nullable=False),
                integer("attr_id", nullable=False),
                integer("seq_id", nullable=False),
                integer("elem_id", nullable=False),
                integer("elem_seq", nullable=False),
                text("value_text"),
                real("value_num"),
            ],
        )
        self.elements_by_value = t.create_posting_index(
            "elements_by_value", "elem_id", "value_num", "value_text"
        )
        t.create_index("elements_by_object", ["object_id"])
        t = db.create_table(
            "attr_ancestors",
            [
                integer("object_id", nullable=False),
                integer("desc_attr_id", nullable=False),
                integer("desc_seq", nullable=False),
                integer("anc_attr_id", nullable=False),
                integer("anc_seq", nullable=False),
                integer("distance", nullable=False),
            ],
        )
        t.create_index("anc_by_pair", ["desc_attr_id", "anc_attr_id"])
        t.create_index("anc_by_object", ["object_id"])
        db.create_table(
            "schema_order",
            [
                integer("node_order", nullable=False),
                text("tag", nullable=False),
                integer("last_child_order", nullable=False),
            ],
            primary_key=["node_order"],
        )
        db.create_table(
            "attr_defs",
            [
                integer("attr_id", nullable=False),
                text("name", nullable=False),
                text("source", nullable=False),
                integer("parent_id"),
                integer("schema_order", nullable=False),
                text("scope", nullable=False),
                integer("queryable", nullable=False),
                integer("structural", nullable=False),
            ],
            primary_key=["attr_id"],
        )
        db.create_table(
            "elem_defs",
            [
                integer("elem_id", nullable=False),
                integer("attr_id", nullable=False),
                text("name", nullable=False),
                text("source", nullable=False),
                text("value_type", nullable=False),
                text("scope", nullable=False),
            ],
            primary_key=["elem_id"],
        )

    # -- Row primitives ---------------------------------------------------
    def _insert_rows(self, table: str, rows: Sequence[tuple]) -> None:
        if self.fault_plan is not None:  # one consult per row, ahead of the batch
            for _ in rows:
                self._fault(check_site(f"insert:{table}"))
        self.db.table(table).extend(rows)

    def _insert_new_definitions(self, table: str, rows: Sequence[tuple]) -> None:
        known = {row[0] for row in self.db.table(table).scan()}
        self._insert_rows(table, [row for row in rows if row[0] not in known])

    def _delete_rows(self, table: str, object_id: int, **equals: int) -> int:
        """Victims are found through the table's ``object_id`` index."""
        self._fault(check_site(f"delete:{table}"))
        target = self.db.table(table)
        probes = [(target.column_data(c), v) for c, v in equals.items()]
        return len(target.delete_rowids([
            r
            for r in target.lookup_rowids(["object_id"], [object_id])
            if all(col[r] == v for col, v in probes)
        ]))

    def _clob_key_of(
        self, object_id: int, attr_id: int, seq_id: int
    ) -> Optional[Tuple[int, int]]:
        rows = self.db.table("attributes").lookup(
            ["object_id", "attr_id", "seq_id"], [object_id, attr_id, seq_id]
        )
        return rows[0][3:] if rows else None  # the two columns after the key

    def _descendant_instances(
        self, object_id: int, attr_id: int, seq_id: int
    ) -> List[Tuple[int, int]]:
        return [
            (desc_attr, desc_seq)
            for _, desc_attr, desc_seq, anc_attr, anc_seq, distance
            in self.db.table("attr_ancestors").lookup(["object_id"], [object_id])
            if anc_attr == attr_id and anc_seq == seq_id and distance >= 1
        ]

    def has_object(self, object_id: int) -> bool:
        with self.read_locked():
            return bool(self.db.table("objects").lookup(["object_id"], [object_id]))

    def object_count(self) -> int:
        with self.read_locked():
            return len(self.db.table("objects"))

    def max_clob_seq(self, object_id: int, schema_order: int) -> int:
        with self.read_locked():
            clobs = self.db.table("clobs")
            orders = clobs.column_data("schema_order")
            seqs = clobs.column_data("clob_seq")
            return max(
                (
                    seqs[r]
                    for r in clobs.lookup_rowids(["object_id"], [object_id])
                    if orders[r] == schema_order
                ),
                default=0,
            )

    def instance_counts(self, object_id: int) -> Dict[int, int]:
        with self.read_locked():
            counts: Dict[int, int] = {}
            attributes = self.db.table("attributes")
            attr_col = attributes.column_data("attr_id")
            seq_col = attributes.column_data("seq_id")
            for r in attributes.lookup_rowids(["object_id"], [object_id]):
                attr_id, seq_id = attr_col[r], seq_col[r]
                if seq_id > counts.get(attr_id, 0):
                    counts[attr_id] = seq_id
            return counts

    # -- Query reads (the interpreter is planner.py's) -----------------------
    def _read_section(self) -> ContextManager[None]:
        return self.read_locked()

    def _seek_instances(
        self, elem_id: int, attr_id: Optional[int], op: Op, expected: Any
    ) -> List[Tuple[int, int]]:
        elements = self.db.table("elements")
        e_obj, e_seq = elements.column_data("object_id"), elements.column_data("seq_id")
        return [(e_obj[r], e_seq[r]) for r in self._seek_rows(elem_id, attr_id, op, expected)]

    def _instance_rows(self, attr_def_id: int) -> List[Tuple[int, int]]:
        attributes = self.db.table("attributes")
        a_obj, a_seq = attributes.column_data("object_id"), attributes.column_data("seq_id")
        return [(a_obj[r], a_seq[r]) for r in self.attributes_by_def.lookup((attr_def_id,))]

    def _ancestor_rows(
        self, desc_def_id: int, anc_def_id: int
    ) -> List[Tuple[int, int, int]]:
        ancestors = self.db.table("attr_ancestors")
        p_obj, p_desc, p_anc, p_dist = (
            ancestors.column_data(c)
            for c in ("object_id", "desc_seq", "anc_seq", "distance")
        )
        return [
            (p_obj[r], p_desc[r], p_anc[r])
            for r in ancestors.lookup_rowids(
                ["desc_attr_id", "anc_attr_id"], [desc_def_id, anc_def_id]
            )
            if p_dist[r] >= 1
        ]

    def _seek_rows(
        self, elem_id: int, attr_id: Optional[int], op: Op, expected: Any
    ) -> List[int]:
        """The ``elements`` row ids behind :meth:`_seek_instances`,
        read value by value off the posting index.  The caller holds
        the read section.

        The examined rows are the hits plus the definition's distinct
        values, not all of its rows; :func:`_seek_hits` over every row
        of the definition answers the seeks the index cannot."""
        probe = next(iter(expected)) if op is Op.IN_SET else expected
        numeric = not isinstance(probe, str)
        hits = _seek_postings(self.elements_by_value, elem_id, op, expected, numeric)
        elements = self.db.table("elements")
        if hits is None:
            vals = elements.column_data("value_num" if numeric else "value_text")
            hits = _seek_hits(op, vals, expected, self.elements_by_value.rowids(elem_id))
        if attr_id is None:
            return hits
        attrs = elements.column_data("attr_id")
        return [r for r in hits if attrs[r] == attr_id]

    def _clob_rows(self, object_ids: Iterable[int]) -> Dict[int, List[Tuple[int, int, str]]]:
        with self.read_locked():
            objects, clobs = self.db.table("objects"), self.db.table("clobs")
            orders, seqs, texts = (
                clobs.column_data(c) for c in ("schema_order", "clob_seq", "content")
            )
            return {
                object_id: [(orders[r], seqs[r], texts[r])
                            for r in clobs.lookup_rowids(["object_id"], [object_id])]
                for object_id in object_ids
                if objects.lookup_rowids(["object_id"], [object_id])
            }

    # -- Accounting ---------------------------------------------------------
    def storage_report(self) -> List[Tuple[str, int, int]]:
        with self.read_locked():
            return self.db.storage_report()
