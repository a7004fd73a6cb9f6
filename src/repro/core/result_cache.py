"""Write-patched LRU cache of query *results* (object-id lists).

Under a served workload the same fully-bound query — template *and*
literals — repeats (a portal polling ``themekey = "precipitation"``),
and its answer only changes when the catalog changes.  Writes are rare
and narrow: one user's new file, or one deleted object.
:class:`QueryResultCache` memoizes the matching object ids and, when a
write lands, brings a cached answer up to date instead of dropping it.

Keys, versions and the write log:

* the **key** is the query's plan shape plus the literal comparison
  values of every element criterion (:func:`result_key`).  Ontology
  expansion happens before query shredding, so an expanded and an
  unexpanded query produce different shredded literals and therefore
  different keys — expansion is part of the key by construction;
* the owning catalog's token is ``(generation, data version)``
  (:meth:`~repro.core.catalog.HybridCatalog.cache_token`).  Every
  write moves it, and the catalog reports every move to
  :meth:`QueryResultCache.advance` before it publishes the new token;
* each **entry** records the data version its id list is current at;
* the **write log** holds the last :data:`WRITE_LOG_LENGTH` ingests
  and deletes as :class:`LoggedWrite` records, one per data version.
  A lookup that finds an entry older than the log's newest version
  replays the logged writes after it, in order: after an ingest it
  adds the new id if the query matches the new object's rows (the
  :func:`~repro.core.scan.matches` oracle over the logged rows); after
  a delete it removes the id.  An entry older than the log reaches is
  dropped, and the lookup is a miss.

Both replay steps are idempotent, and that is what makes the scheme
safe under concurrency.  The catalog commits a write *before* it moves
the token, so an answer computed under version *v* may already reflect
writes logged after *v*; replaying them again changes nothing.  For the
same reason :meth:`QueryResultCache.store` keeps a result whose data
version moved during execution (the next lookup patches it), but never
one whose generation moved.

What still empties the cache: a definition change moves the generation
(new definitions can change how queries shred and match), and
``add_attribute`` / ``remove_attribute`` (which change an *existing*
object's rows, which no logged row set describes) clear the log.  Both
drop every entry at once (:meth:`QueryResultCache.advance`).

The cache is thread-safe and returns defensive copies: callers may
mutate the list they get without corrupting the cached entry.
"""

from __future__ import annotations

import threading
from bisect import bisect_left, insort
from collections import OrderedDict, deque
from itertools import islice
from typing import Callable, Deque, List, Optional, Sequence, Tuple

from .logical import plan_shape
from .query import ShreddedQuery
from .scan import DocumentIndex, matches
from .shredder import AttributeRow, ElementRow, InvertedRow

__all__ = ["LoggedWrite", "QueryResultCache", "WRITE_LOG_LENGTH", "result_key"]

#: How many ingests and deletes the write log keeps.  An entry is
#: patched only if every write since it was computed is still logged,
#: so the length is how many writes a cached answer may sit unused
#: through and still be saved.  32 covers the served mix's Zipf-popular
#: queries between uses (5% writes: a query unused for 32 writes is
#: one asked about once in 640 requests) while a patch replays at most
#: 32 records, each a dict lookup or one small document's match.
WRITE_LOG_LENGTH = 32


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


class LoggedWrite:
    """One ingest (``rows`` given) or delete (``rows`` None) in the
    write log.  The rows are the shred's own lists, held by reference;
    their :class:`~repro.core.scan.DocumentIndex` is built the first
    time a patch needs it, so a write no lookup replays costs nothing
    beyond the record."""

    __slots__ = ("object_id", "rows", "version", "_index")

    def __init__(
        self,
        object_id: int,
        rows: Optional[Tuple[Sequence[AttributeRow], Sequence[ElementRow],
                             Sequence[InvertedRow]]] = None,
    ) -> None:
        self.object_id = object_id
        self.rows = rows
        self.version = 0  # set by QueryResultCache.advance
        self._index: Optional[DocumentIndex] = None

    def apply(self, query: ShreddedQuery, ids: List[int]) -> None:
        """Bring the sorted id list ``ids`` of ``query`` past this
        write, in place.  Idempotent."""
        object_id = self.object_id
        at = bisect_left(ids, object_id)
        present = at < len(ids) and ids[at] == object_id
        if self.rows is None:
            if present:
                del ids[at]
            return
        if present:
            return
        if self._index is None:
            self._index = DocumentIndex(*self.rows)
        if matches(query, self._index):
            insort(ids, object_id)


class _Entry:
    __slots__ = ("version", "ids")

    def __init__(self, version: int, ids: List[int]) -> None:
        self.version = version
        self.ids = ids


class QueryResultCache:
    """Version-stamped LRU of ``key -> object id list``, patched from
    the write log.

    ``on_invalidate`` (if set) is called with a *cause* string each
    time a wipe drops live entries: ``"generation"`` when the
    definition generation moved, ``"data_version"`` when a write the
    log cannot describe (``add_attribute``, ``remove_attribute``)
    moved only the data version, and ``"manual"`` for an explicit
    :meth:`clear`.  Ingests and deletes wipe nothing.  ``on_patch``
    (if set) is called once per hit that replayed logged writes.  The
    owning catalog mirrors both into its metrics and event log.
    """

    def __init__(
        self,
        capacity: int = 256,
        on_invalidate: Optional[Callable[[str], None]] = None,
        on_patch: Optional[Callable[[], None]] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("result cache capacity must be >= 1")
        self.capacity = capacity
        self.on_invalidate = on_invalidate
        self.on_patch = on_patch
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Tuple, _Entry]" = OrderedDict()
        # The catalog token the cache is current at; a new catalog
        # starts at (0, 0).
        self._generation = 0
        self._version = 0
        self._log: Deque[LoggedWrite] = deque(maxlen=WRITE_LOG_LENGTH)
        # The oldest version the log can patch from while it is empty.
        self._cleared_at = 0
        #: Lifetime counts, mirrored into the owning catalog's metrics.
        self.hits = 0
        self.misses = 0
        self.patched = 0
        self.evictions = 0
        self.invalidations = 0

    def _floor(self) -> int:
        """The oldest entry version the log still covers.  Caller
        holds the lock."""
        if self._log:
            return self._log[0].version - 1
        return self._cleared_at

    def _wipe(self, cause: str) -> None:
        """Caller holds the lock."""
        if self._entries:
            self.invalidations += 1
            self._entries.clear()
            if self.on_invalidate is not None:
                self.on_invalidate(cause)

    def advance(self, token: Tuple[int, int],
                write: Optional[LoggedWrite] = None) -> None:
        """The catalog moved to ``token`` by one write.  An ingest or
        delete in the same generation passes its ``write`` record and
        is logged; any other move clears the log and drops every
        entry.  The catalog calls this once per token move, in order,
        before any reader can see the new token.

        While the cache holds no entry there is nothing to patch, so
        the log restarts empty instead: a write-only phase keeps no
        shred alive (a result computed across it is then not stored)."""
        generation, version = token
        with self._lock:
            if (write is not None and generation == self._generation
                    and self._entries):
                write.version = version
                self._log.append(write)
            else:
                self._log.clear()
                self._cleared_at = version
                self._wipe(
                    "generation" if generation != self._generation
                    else "data_version"
                )
            self._generation = generation
            self._version = version

    def lookup(self, key: Tuple, query: ShreddedQuery) -> Optional[List[int]]:
        """The cached ids of ``query`` (whose key is ``key``), brought
        up to date from the write log, or None on a miss.  Every entry
        belongs to the current generation: a generation move drops
        them all, and :meth:`store` refuses a result from an older one."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            behind = self._version - entry.version
            if behind > 0:
                if entry.version < self._floor():
                    del self._entries[key]
                    self.misses += 1
                    return None
                log = self._log
                for write in islice(log, len(log) - behind, None):
                    write.apply(query, entry.ids)
                entry.version = self._version
                self.patched += 1
                if self.on_patch is not None:
                    self.on_patch()
            self._entries.move_to_end(key)
            self.hits += 1
            return list(entry.ids)

    def store(self, key: Tuple, token: Tuple[int, int],
              object_ids: List[int]) -> int:
        """Insert a result computed under ``token`` (read before the
        query ran); returns how many entries the LRU evicted (the
        caller mirrors that into its metrics)."""
        generation, version = token
        with self._lock:
            if generation != self._generation or version < self._floor():
                # Definitions changed mid-query, or the log no longer
                # reaches back to the state the query started from.
                return 0
            entry = self._entries.get(key)
            if entry is None or entry.version < version:
                self._entries[key] = _Entry(version, list(object_ids))
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
            if had_entries and self.on_invalidate is not None:
                self.on_invalidate("manual")

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
