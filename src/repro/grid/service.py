"""A myLEAD-like personal metadata catalog service (substrate S17).

The paper situates the hybrid store inside **myLEAD** — a *personal*
metadata catalog: scientists capture metadata as experiments run, keep
unpublished data private, and organize files under experiments.  This
facade provides that context on top of :class:`HybridCatalog`:

* users, experiments (aggregations) and files;
* per-object visibility (private until published) enforced on query
  and fetch;
* per-user private dynamic attribute definitions (delegated to the
  registry's user scopes).

The service is deliberately thin: all storage and matching behaviour is
the catalog's; the service adds ownership and containment, which is the
part of the grid environment the paper treats as given.

Concurrency contract (the part the HTTP front-end in
:mod:`repro.server` depends on): the service bookkeeping — users,
experiments, ownership, the published set, and provenance links — is
guarded by its own write-preferring :class:`~repro.core.concurrency.RWLock`.
Mutators hold the write side; multi-step reads (the visibility filter,
provenance walks) hold the read side so they never observe a
half-applied publish or derivation.  The service lock is never held
across a catalog call: catalog ingest/query takes the store's own
RWLock, and nesting the two would couple the service's bookkeeping
critical sections to storage latency (and create lock-order edges for
no benefit).  The LCK01/GRD01 lint rules pin this protocol statically.

Metering contract: every *public operation* increments
``service_ops_total`` exactly once, with its own ``op`` label —
``search`` does **not** additionally count the query and fetch it is
composed of (they run through the unmetered ``_query_visible`` /
``_fetch_visible`` helpers), so one client request is one op.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core.catalog import HybridCatalog, IngestReceipt
from ..core.concurrency import RWLock
from ..core.query import ObjectQuery
from ..core.schema import AnnotatedSchema
from ..errors import CatalogError
from ..xmlkit import element, pretty_print


class User:
    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:  # pragma: no cover
        return f"User({self.name!r})"


class Experiment:
    """An aggregation of files owned by one user.

    ``file_ids`` is mutated only by the owning service under its write
    lock; treat it as read-only outside the service.
    """

    __slots__ = ("experiment_id", "name", "owner", "object_id", "file_ids")

    def __init__(self, experiment_id: int, name: str, owner: str, object_id: int) -> None:
        self.experiment_id = experiment_id
        self.name = name
        self.owner = owner
        self.object_id = object_id
        self.file_ids: List[int] = []

    def __repr__(self) -> str:  # pragma: no cover
        return f"Experiment({self.name!r}, files={len(self.file_ids)})"


class MyLeadService:
    """Users + experiments + visibility on top of one hybrid catalog."""

    def __init__(self, schema: AnnotatedSchema, catalog: Optional[HybridCatalog] = None) -> None:
        self.catalog = catalog if catalog is not None else HybridCatalog(schema)
        # Service-level accounting (AMGA-style per-operation counters)
        # lands in the owning catalog's registry.
        self._ops = self.catalog.metrics.counter(
            "service_ops_total",
            "myLEAD service operations by kind and user",
            labels=("op", "user"),
        )
        self._denied = self.catalog.metrics.counter(
            "service_visibility_denied_total",
            "objects withheld from a user by the visibility check",
        )
        # Guards every bookkeeping structure below (write-preferring,
        # reentrant; see the module docstring for the protocol).
        self._lock = RWLock()
        self._users: Dict[str, User] = {}
        self._experiments: Dict[int, Experiment] = {}
        self._experiment_ids = itertools.count(1)
        self._owner_of: Dict[int, str] = {}
        self._public: Set[int] = set()
        self._experiment_of_object: Dict[int, int] = {}
        # Provenance links: derived object -> source objects (the LEAD
        # lineage motif — which process inputs produced this product).
        self._derived_from: Dict[int, List[int]] = {}

    # ------------------------------------------------------------------
    # Users
    # ------------------------------------------------------------------
    def create_user(self, name: str) -> User:
        if not name:
            raise CatalogError("user name cannot be empty")
        self._count_op("create_user", name)
        user = User(name)
        with self._lock.write_locked():
            # Check-and-insert under one lock: two racing creates of
            # the same name cannot both succeed.
            if name in self._users:
                raise CatalogError(f"user {name!r} already exists")
            self._users[name] = user
        return user

    def _count_op(self, op: str, user: str) -> None:
        self._ops.labels(op=op, user=user).inc()

    def _require_user(self, name: str) -> User:
        with self._lock.read_locked():
            try:
                return self._users[name]
            except KeyError:
                raise CatalogError(f"no user {name!r}") from None

    def has_user(self, name: str) -> bool:
        with self._lock.read_locked():
            return name in self._users

    def users(self) -> List[str]:
        with self._lock.read_locked():
            return sorted(self._users)

    # ------------------------------------------------------------------
    # Experiments and files
    # ------------------------------------------------------------------
    def create_experiment(self, user: str, name: str) -> Experiment:
        """Create an experiment aggregation; it is cataloged as an object
        itself with minimal metadata so it is searchable."""
        self._require_user(user)
        self._count_op("create_experiment", user)
        with self._lock.write_locked():
            experiment_id = next(self._experiment_ids)
        document = self._experiment_record(user, name, experiment_id)
        # The catalog takes its own store lock; the service lock is
        # deliberately not held across the ingest.
        receipt = self.catalog.ingest(document, name=name, owner=user, user=user)
        experiment = Experiment(experiment_id, name, user, receipt.object_id)
        with self._lock.write_locked():
            self._experiments[experiment_id] = experiment
            self._owner_of[receipt.object_id] = user
        return experiment

    def _experiment_record(self, user: str, name: str, experiment_id: int) -> str:
        """The minimal schema-valid document cataloging an experiment:
        the schema's root plus its identifier leaf attribute.  Works for
        any annotated schema whose root carries a leaf attribute (both
        LEAD's ``resourceID`` and CLRC's ``studyID`` do); subclasses may
        override to produce richer experiment metadata."""
        schema = self.catalog.schema
        id_leaf = next(
            (
                child
                for child in schema.root.children
                if child.is_attribute and child.is_element
            ),
            None,
        )
        if id_leaf is None:
            raise CatalogError(
                f"schema {schema.name!r} has no identifier leaf attribute "
                "under the root; override _experiment_record to catalog "
                "experiments"
            )
        doc = element(
            schema.root.tag,
            element(id_leaf.tag, f"experiment:{user}:{experiment_id}"),
        )
        return pretty_print(doc)

    def experiment(self, experiment_id: int) -> Experiment:
        with self._lock.read_locked():
            try:
                return self._experiments[experiment_id]
            except KeyError:
                raise CatalogError(f"no experiment {experiment_id}") from None

    def experiments_of(self, user: str) -> List[Experiment]:
        """The experiments ``user`` owns, in creation order."""
        self._require_user(user)
        with self._lock.read_locked():
            return [
                exp for _eid, exp in sorted(self._experiments.items())
                if exp.owner == user
            ]

    def add_file(
        self,
        user: str,
        experiment: Experiment,
        document: str,
        name: str = "",
        public: bool = False,
    ) -> IngestReceipt:
        """Catalog a file's metadata under ``experiment``."""
        self._require_user(user)
        self._count_op("add_file", user)
        if experiment.owner != user:
            raise CatalogError(
                f"experiment {experiment.name!r} belongs to {experiment.owner!r}"
            )
        receipt = self.catalog.ingest(document, name=name, owner=user, user=user)
        with self._lock.write_locked():
            experiment.file_ids.append(receipt.object_id)
            self._owner_of[receipt.object_id] = user
            self._experiment_of_object[receipt.object_id] = experiment.experiment_id
            if public:
                self._public.add(receipt.object_id)
        return receipt

    def publish(self, user: str, object_id: int) -> None:
        """Make an object visible to every user."""
        self._count_op("publish", user)
        with self._lock.write_locked():
            self._require_owner(user, object_id)
            self._public.add(object_id)

    def unpublish(self, user: str, object_id: int) -> None:
        self._count_op("unpublish", user)
        with self._lock.write_locked():
            self._require_owner(user, object_id)
            self._public.discard(object_id)

    def _require_owner(self, user: str, object_id: int) -> None:
        self._require_user(user)
        with self._lock.read_locked():
            owner = self._owner_of.get(object_id)
        if owner is None:
            raise CatalogError(f"no object {object_id}")
        if owner != user:
            raise CatalogError(f"object {object_id} belongs to {owner!r}")

    def is_visible(self, user: str, object_id: int) -> bool:
        with self._lock.read_locked():
            return self._is_visible(user, object_id)

    def _is_visible(self, user: str, object_id: int) -> bool:
        """Visibility predicate; caller holds (at least) the read lock."""
        return self._owner_of.get(object_id) == user or object_id in self._public

    # ------------------------------------------------------------------
    # Provenance (the LEAD lineage motif)
    # ------------------------------------------------------------------
    def record_derivation(self, user: str, derived_id: int, source_id: int) -> None:
        """Record that ``derived_id`` was produced from ``source_id``
        (e.g. a forecast product derived from an initialization file).
        The derived object must belong to ``user``; the source must at
        least be visible to them.  Cycles are rejected."""
        self._count_op("record_derivation", user)
        with self._lock.write_locked():
            # Cycle check and insert are one critical section: two
            # racing derivations cannot close a loop between them.
            self._require_owner(user, derived_id)
            if not self._is_visible(user, source_id):
                raise CatalogError(f"object {source_id} is not visible to {user!r}")
            if derived_id == source_id:
                raise CatalogError("an object cannot derive from itself")
            if derived_id in self._closure(source_id):
                raise CatalogError(
                    f"derivation {derived_id} <- {source_id} would create a cycle"
                )
            self._derived_from.setdefault(derived_id, []).append(source_id)

    def sources_of(self, user: str, object_id: int) -> List[int]:
        """Direct provenance sources visible to ``user``."""
        self._require_user(user)
        with self._lock.read_locked():
            return [
                oid
                for oid in self._derived_from.get(object_id, [])
                if self._is_visible(user, oid)
            ]

    def provenance_closure(self, object_id: int) -> Set[int]:
        """All transitive sources of ``object_id`` (unfiltered)."""
        with self._lock.read_locked():
            return self._closure(object_id)

    def _closure(self, object_id: int) -> Set[int]:
        """Transitive sources; caller holds (at least) the read lock."""
        out: Set[int] = set()
        frontier = list(self._derived_from.get(object_id, []))
        while frontier:
            current = frontier.pop()
            if current in out:
                continue
            out.add(current)
            frontier.extend(self._derived_from.get(current, []))
        return out

    def derived_products(self, user: str, object_id: int) -> List[int]:
        """Objects visible to ``user`` that derive (directly) from
        ``object_id``."""
        self._require_user(user)
        with self._lock.read_locked():
            return sorted(
                derived
                for derived, sources in self._derived_from.items()
                if object_id in sources and self._is_visible(user, derived)
            )

    def query_derived_from_matching(self, user: str, query: ObjectQuery) -> List[int]:
        """Objects whose provenance chain includes a match for ``query``
        — 'products computed from data like this'."""
        self._count_op("query", user)
        matches = set(self._query_visible(user, query))
        with self._lock.read_locked():
            out = [
                derived
                for derived in self._derived_from
                if self._is_visible(user, derived)
                and self._closure(derived) & matches
            ]
        return sorted(out)

    # ------------------------------------------------------------------
    # Definitions
    # ------------------------------------------------------------------
    def define_private_attribute(self, user: str, name: str, source: str,
                                 host: str = "detailed"):
        """A dynamic attribute definition private to ``user`` (paper §3:
        user-level definitions)."""
        self._require_user(user)
        return self.catalog.define_attribute(name, source, host=host, user=user)

    # ------------------------------------------------------------------
    # Query / fetch with visibility
    # ------------------------------------------------------------------
    def query(self, user: str, query: ObjectQuery) -> List[int]:
        """Objects matching ``query`` that ``user`` may see (their own
        plus published ones)."""
        self._count_op("query", user)
        return self._query_visible(user, query)

    def _query_visible(self, user: str, query: ObjectQuery) -> List[int]:
        """The visibility-filtered match list (unmetered)."""
        self._require_user(user)
        ids = self.catalog.query(query, user=user)
        # One read-locked pass: a publish/unpublish landing mid-filter
        # is either entirely visible to this query or not at all.
        with self._lock.read_locked():
            # _is_visible, inlined with its lookups bound once.
            public, owner_of = self._public, self._owner_of.get
            visible = [i for i in ids if owner_of(i) == user or i in public]
        if len(visible) < len(ids):
            self._denied.inc(len(ids) - len(visible))
        return visible

    def fetch(self, user: str, object_ids: Sequence[int]) -> Dict[int, str]:
        self._count_op("fetch", user)
        return self._fetch_visible(user, object_ids)

    def _fetch_visible(self, user: str, object_ids: Sequence[int]) -> Dict[int, str]:
        """Visibility-checked response fetch (unmetered).  The whole id
        list is checked before any response is built, and *every*
        invisible id is counted in ``service_visibility_denied_total``
        (not just the first), so the counter stays consistent for mixed
        visible/invisible requests."""
        self._require_user(user)
        with self._lock.read_locked():
            hidden = [i for i in object_ids if not self._is_visible(user, i)]
        if hidden:
            self._denied.inc(len(hidden))
            listed = ", ".join(str(i) for i in hidden)
            phrase = "object" if len(hidden) == 1 else "objects"
            verb = "is" if len(hidden) == 1 else "are"
            raise CatalogError(f"{phrase} {listed} {verb} not visible to {user!r}")
        return self.catalog.fetch(object_ids)

    def search(self, user: str, query: ObjectQuery) -> List[str]:
        """Query and fetch in one metered operation: one search call is
        **one** ``service_ops_total`` increment (op=search), and the
        visibility filter runs exactly once — the fetch leg trusts the
        filtered id list instead of re-checking it."""
        _total, _ids, documents = self.search_slice(user, query)
        return documents

    def search_slice(
        self,
        user: str,
        query: ObjectQuery,
        offset: int = 0,
        limit: Optional[int] = None,
    ) -> Tuple[int, List[int], List[str]]:
        """One metered search over a page of the result set: returns
        ``(total_matches, page_ids, page_documents)``.  This is the
        server's pagination surface — responses are built only for the
        requested page, in id order, and the page is byte-identical to
        the corresponding slice of :meth:`search`."""
        if offset < 0:
            raise CatalogError("search offset cannot be negative")
        if limit is not None and limit < 0:
            raise CatalogError("search limit cannot be negative")
        self._count_op("search", user)
        ids = self._query_visible(user, query)
        page = ids[offset:] if limit is None else ids[offset:offset + limit]
        responses = self.catalog.fetch(page)
        return len(ids), page, [responses[i] for i in page]

    def experiment_contents(self, user: str, experiment: Experiment) -> List[int]:
        """File object ids of an experiment visible to ``user``."""
        self._require_user(user)
        with self._lock.read_locked():
            return [i for i in experiment.file_ids if self._is_visible(user, i)]
