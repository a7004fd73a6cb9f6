"""Lightweight catalog statistics for the query optimizer (E8 payoff).

The Fig-4 plan's cost tracks the number of *matching* rows (paper §4,
measured in E8), so the planner wants to evaluate the most selective
criteria first.  :class:`CatalogStatistics` maintains the inputs of
that decision — per element-definition row and distinct-value counts,
per attribute-definition instance counts, and the object total — and
turns them into row estimates for each criterion kind.

Maintenance protocol (driven by :class:`~repro.core.catalog.HybridCatalog`):

* **ingest / add_attribute** call :meth:`record_shred`, which updates
  the counters incrementally from the shredded rows — no store access.
* **delete / remove_attribute / definition changes** call
  :meth:`invalidate`, which bumps :attr:`generation` (cached plans key
  on it, so they all miss) and marks the counters dirty; the next
  estimate rebuilds them from the store via
  :meth:`~repro.core.storage.HybridStore.collect_statistics`.

Estimates are advisory: they order plan stages, they never change which
objects match.  Distinct-value counts maintained incrementally track
exact sets only while the statistics were built from shred rows; after
a rebuild from a sqlite store the per-value sets are sealed and later
ingests keep the last distinct count (a lower bound — still a valid
ordering signal).
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Set, Tuple, Union

from .query import Op, QAttr, QElem
from .shredder import ShredResult


class StatsSnapshot:
    """Counter state collected from a store in one pass (the rebuild
    payload of :meth:`HybridStore.collect_statistics`)."""

    __slots__ = ("objects", "elem_rows", "elem_distinct", "attr_rows")

    def __init__(
        self,
        objects: int,
        elem_rows: Dict[int, int],
        elem_distinct: Dict[int, int],
        attr_rows: Dict[int, int],
    ) -> None:
        self.objects = objects
        self.elem_rows = elem_rows
        self.elem_distinct = elem_distinct
        self.attr_rows = attr_rows


class _ElemStat:
    """Row count plus distinct-value tracking for one element def."""

    __slots__ = ("rows", "distinct", "values")

    def __init__(self) -> None:
        self.rows = 0
        self.distinct = 0
        # Exact set of typed values, COALESCE(value_num, value_text) as
        # a store rebuild counts them, while statistics are shred-fed;
        # None once the counters came from a rebuild (sealed).
        self.values: Optional[Set[Union[str, float, None]]] = set()

    def add_value(self, value_text: Optional[str], value_num: Optional[float]) -> None:
        self.rows += 1
        if self.values is not None:
            self.values.add(value_text if value_num is None else value_num)
            self.distinct = len(self.values)


class CatalogStatistics:
    """Selectivity statistics over one hybrid store.

    ``generation`` changes exactly when previously built plans may no
    longer be trusted (definition changes, deletes); the plan cache
    stores it per entry and treats a mismatch as a miss.
    ``data_version`` additionally moves on *every* recorded write —
    including plain ingests, which leave plans valid but change query
    answers — so ``(generation, data_version)`` is the invalidation
    token of the query-result cache (:meth:`cache_token`).

    Thread safety: maintenance and the lazy rebuild are serialized by
    an internal lock, and the rebuild publishes fully built counter
    dicts in one swap — a reader racing :meth:`invalidate` sees either
    the complete old statistics or the complete new ones, never a
    half-rebuilt state that would order a plan from empty estimates.
    """

    def __init__(self, store) -> None:
        self._store = store
        self._lock = threading.RLock()
        self._dirty = True
        self.generation = 0
        self.data_version = 0
        self._elems: Dict[int, _ElemStat] = {}
        self._attrs: Dict[int, int] = {}
        self._objects = 0

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def cache_token(self) -> Tuple[int, int]:
        """The result-cache invalidation token: moves exactly when a
        previously computed query answer may no longer be current."""
        return (self.generation, self.data_version)

    def invalidate(self) -> None:
        """Definitions or stored rows changed in a way incremental
        accounting does not cover: rebuild lazily, retire cached plans."""
        with self._lock:
            self._dirty = True
            self.generation += 1
            self.data_version += 1

    def record_shred(self, shred: ShredResult, new_object: bool = True) -> None:
        """Fold one ingested shred into the counters (no store access).
        A dirty snapshot stays dirty — the pending rebuild will see the
        new rows anyway."""
        with self._lock:
            self.data_version += 1
            if self._dirty:
                return
            for erow in shred.elements:
                stat = self._elems.get(erow.elem_id)
                if stat is None:
                    stat = self._elems[erow.elem_id] = _ElemStat()
                stat.add_value(erow.value_text, erow.value_num)
            for arow in shred.attributes:
                self._attrs[arow.attr_id] = self._attrs.get(arow.attr_id, 0) + 1
            if new_object:
                self._objects += 1

    def _ensure(self) -> None:
        if not self._dirty:
            return
        with self._lock:
            if not self._dirty:
                return  # another thread rebuilt while we waited
            snapshot: StatsSnapshot = self._store.collect_statistics()
            elems: Dict[int, _ElemStat] = {}
            for elem_id, rows in snapshot.elem_rows.items():
                stat = _ElemStat()
                stat.rows = rows
                stat.distinct = snapshot.elem_distinct.get(elem_id, 0)
                stat.values = None  # sealed: counts known, value sets not
                elems[elem_id] = stat
            # Publish complete dicts in one swap; concurrent readers see
            # old-or-new, never a partially filled rebuild.
            self._elems = elems
            self._attrs = dict(snapshot.attr_rows)
            self._objects = snapshot.objects
            self._dirty = False

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def object_count(self) -> int:
        self._ensure()
        return self._objects

    def element_rows(self, elem_def_id: int) -> int:
        self._ensure()
        stat = self._elems.get(elem_def_id)
        return stat.rows if stat is not None else 0

    def element_distinct(self, elem_def_id: int) -> int:
        self._ensure()
        stat = self._elems.get(elem_def_id)
        return stat.distinct if stat is not None else 0

    def attribute_rows(self, attr_def_id: int) -> int:
        self._ensure()
        return self._attrs.get(attr_def_id, 0)

    # ------------------------------------------------------------------
    # Estimates
    # ------------------------------------------------------------------
    def estimate_qelem(self, qelem: QElem) -> float:
        """Expected number of element rows matching one criterion."""
        rows = self.element_rows(qelem.elem_def_id)
        if rows == 0:
            return 0.0
        distinct = max(self.element_distinct(qelem.elem_def_id), 1)
        op = qelem.op
        if op is Op.EQ:
            return rows / distinct
        if op is Op.NE:
            return rows * (1.0 - 1.0 / distinct)
        if op is Op.IN_SET:
            width = len(qelem.value_set) if qelem.value_set is not None else 1
            return min(float(rows), width * rows / distinct)
        if op is Op.CONTAINS:
            return rows / 2.0
        # Range operators: the classic one-third heuristic.
        return rows / 3.0

    def estimate_qattr(
        self, qattr: QAttr, query, elem_estimates: Dict[int, float]
    ) -> float:
        """Expected number of attribute instances satisfying a shredded
        attribute criterion's *direct* elements (containment pruning is
        not modeled — it only tightens the result).  ``elem_estimates``
        maps qelem id → the :meth:`estimate_qelem` value."""
        instances = self.attribute_rows(qattr.attr_def_id)
        if qattr.direct_elem_count == 0:
            return float(instances)
        ests = [
            elem_estimates[e.qelem_id]
            for e in query.qelems
            if e.qattr_id == qattr.qattr_id
        ]
        bound = min(ests) if ests else float(instances)
        return min(float(instances), bound) if instances else bound
