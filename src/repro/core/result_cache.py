"""Write-invalidated LRU cache of query *results* (object-id lists).

Under a served workload the same fully-bound query — template *and*
literals — repeats (a portal polling ``themekey = "precipitation"``),
and its answer only changes when the catalog changes.  :class:`QueryResultCache`
memoizes the matching object ids for exactly that case.

Keys and invalidation:

* the **key** is the query's plan shape plus the literal comparison
  values of every element criterion (:func:`result_key`).  Ontology
  expansion happens before query shredding, so an expanded and an
  unexpanded query produce different shredded literals and therefore
  different keys — expansion is part of the key by construction;
* the **token** is the owning catalog's ``(generation, data version)``
  pair (:meth:`~repro.core.catalog.HybridCatalog.cache_token`).  Every
  write moves it — definition changes bump the generation, ingests,
  deletes and attribute edits the data version — and the cache drops
  all entries the
  moment it sees a new token, so a hit can never serve pre-write
  results.  A result computed *concurrently with* a write carries the
  token read before execution; :meth:`store` refuses it once the token
  moved, closing the race where a stale answer would be inserted into
  a freshly invalidated cache.

The cache is thread-safe and returns defensive copies: callers may
mutate the list they get without corrupting the cached entry.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, List, Optional, Tuple

from .logical import plan_shape
from .query import ShreddedQuery

__all__ = ["QueryResultCache", "result_key"]


def result_key(query: ShreddedQuery) -> Tuple:
    """The cache key of a fully-bound shredded query: its plan shape
    (criteria tree, definition ids, operators) plus every element
    criterion's literal value(s)."""
    literals = tuple(
        (
            e.qelem_id,
            e.value_text,
            e.value_num,
            tuple(sorted(e.value_set)) if e.value_set is not None else None,
        )
        for e in query.qelems
    )
    return (plan_shape(query), literals)


class QueryResultCache:
    """Token-guarded LRU of ``key -> object id list``.

    ``on_invalidate`` (if set) is called with a *cause* string each
    time a wipe drops live entries: ``"generation"`` when the
    definition generation moved, ``"data_version"`` when only the data
    version moved (ingest, delete, attribute edits), and
    ``"manual"`` for an explicit :meth:`clear`.  The owning catalog
    mirrors the causes into ``query_cache_invalidations_total`` and
    the event log.
    """

    def __init__(
        self,
        capacity: int = 256,
        on_invalidate: Optional[Callable[[str], None]] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("result cache capacity must be >= 1")
        self.capacity = capacity
        self.on_invalidate = on_invalidate
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Tuple, List[int]]" = OrderedDict()
        self._token: Optional[Tuple] = None
        #: Lifetime counts, mirrored into the owning catalog's metrics.
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def _sync_token(self, token: Tuple) -> None:
        """Drop everything when the catalog moved past the token the
        entries were computed under.  Caller holds the lock."""
        if self._token != token:
            if self._entries:
                self.invalidations += 1
                self._entries.clear()
                if self.on_invalidate is not None:
                    # Token is (generation, data version): blame
                    # whichever component moved.
                    cause = "generation"
                    if (
                        self._token is not None
                        and token is not None
                        and self._token[0] == token[0]
                    ):
                        cause = "data_version"
                    self.on_invalidate(cause)
            self._token = token

    def lookup(self, key: Tuple, token: Tuple) -> Optional[List[int]]:
        with self._lock:
            self._sync_token(token)
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return list(entry)

    def store(self, key: Tuple, token: Tuple, object_ids: List[int]) -> int:
        """Insert a computed result; returns how many entries the LRU
        evicted (the caller mirrors that into its metrics)."""
        with self._lock:
            if self._token != token:
                # Computed against a catalog state that no longer
                # exists (a write landed mid-query): unsafe to keep.
                return 0
            self._entries[key] = list(object_ids)
            self._entries.move_to_end(key)
            evicted = 0
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                evicted += 1
            self.evictions += evicted
            return evicted

    def clear(self) -> None:
        with self._lock:
            had_entries = bool(self._entries)
            self._entries.clear()
            self._token = None
            if had_entries and self.on_invalidate is not None:
                self.on_invalidate("manual")

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
