"""Catalog statistics for the query optimizer (E8 payoff).

The Fig-4 plan's cost tracks the number of *matching* rows (paper §4,
measured in E8), so the planner wants to evaluate the most selective
criteria first.  :class:`CatalogStatistics` keeps the inputs of that
decision — per element definition a value histogram, per attribute
definition an instance count, and the object total — and turns them
into row estimates for each criterion kind.

Maintenance protocol (driven by :class:`~repro.core.catalog.HybridCatalog`):

* **open** reads the counters from the store once
  (:meth:`~repro.core.storage.HybridStore.collect_statistics`).  Nothing
  rebuilds them afterwards.
* **ingest / add_attribute** fold the shredded rows in
  (:meth:`record_shred`); **delete / remove_attribute** fold the rows
  the store removed out (:meth:`record_removal`).  Neither reads the
  store, and the counters stay equal to a fresh collection (``repro
  fsck`` checks that).
* **definition changes** (``define_*``, an auto-defining ingest) call
  :meth:`invalidate`, which only bumps :attr:`generation` so that plans
  cached under the old definitions retire.

A value histogram maps each typed value, ``COALESCE(value_num,
value_text)``, to the rows holding it: its length is the distinct count,
a removal keeps it exact, and per-shard histograms merge by summing per
value.  Estimates are advisory: they order plan stages, they never
change which objects match.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Iterable, Mapping, Sequence, Tuple

from .query import Op, QAttr, QElem
from .shredder import ShredResult


class StatsSnapshot:
    """Counter state: what :meth:`HybridStore.collect_statistics` reads
    off a store, and what :meth:`CatalogStatistics.snapshot` returns."""

    __slots__ = ("objects", "elem_values", "attr_rows")

    def __init__(
        self, objects: int, elem_values: Dict[int, Dict[Any, int]], attr_rows: Dict[int, int]
    ) -> None:
        self.objects = objects
        self.elem_values = elem_values  # elem_id -> typed value -> rows
        self.attr_rows = attr_rows

    @property
    def elem_rows(self) -> Dict[int, int]:
        return {elem_id: sum(values.values()) for elem_id, values in self.elem_values.items()}

    @property
    def elem_distinct(self) -> Dict[int, int]:
        return {elem_id: len(values) for elem_id, values in self.elem_values.items()}

    def __eq__(self, other: object) -> bool:
        return isinstance(other, StatsSnapshot) and all(
            getattr(self, name) == getattr(other, name) for name in self.__slots__
        )


class _ElemStat:
    """Row count and value histogram of one element definition."""

    __slots__ = ("rows", "values")

    def __init__(self, values: Mapping[Any, int]) -> None:
        self.values: Dict[Any, int] = dict(values)
        self.rows = sum(self.values.values())


class CatalogStatistics:
    """Selectivity statistics over one hybrid store.

    ``generation`` changes exactly when previously built plans may no
    longer be trusted (definition changes); the plan cache stores it
    per entry and treats a mismatch as a miss.  ``data_version`` moves
    on *every* recorded write — which leaves plans valid but changes
    query answers — so ``(generation, data_version)`` is the
    invalidation token of the query-result cache (:meth:`cache_token`).

    Thread safety: writes fold under an internal lock; an estimate reads
    one counter with one dict lookup, so it sees the count before or
    after a concurrent fold, never a partial one.
    """

    def __init__(self, store) -> None:
        self._lock = threading.Lock()
        self.generation = 0
        self.data_version = 0
        snapshot = store.collect_statistics()
        self._elems = {e: _ElemStat(v) for e, v in snapshot.elem_values.items()}
        self._attrs: Dict[int, int] = dict(snapshot.attr_rows)
        self._objects = snapshot.objects

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def cache_token(self) -> Tuple[int, int]:
        """The result-cache invalidation token: moves exactly when a
        previously computed query answer may no longer be current."""
        return (self.generation, self.data_version)

    def invalidate(self) -> None:
        """Definitions changed: retire cached plans (and answers)."""
        with self._lock:
            self.generation += 1
            self.data_version += 1

    def record_shred(self, shred: ShredResult, new_object: bool = True) -> None:
        """Fold one ingested shred into the counters."""
        self._fold(shred.elements, shred.attributes, 0, int(new_object), 1)

    def record_removal(self, removed: Mapping[str, Sequence[tuple]]) -> None:
        """Fold the rows a delete removed (``table -> rows`` in column
        order, as the store's write verbs return them) out of the
        counters."""
        self._fold(removed.get("elements", ()), removed.get("attributes", ()), 1,
                   len(removed.get("objects", ())), -1)

    def _fold(self, elements: Iterable[tuple], attributes: Iterable[tuple],
              key: int, objects: int, sign: int) -> None:
        """``key`` is where a row's columns start after ``object_id``:
        0 in a shred's rows, which have none, 1 in stored rows."""
        e, t, n = 2 + key, 4 + key, 5 + key
        with self._lock:
            self.data_version += 1
            self._objects += sign * objects
            elems, attrs = self._elems, self._attrs
            for row in elements:
                elem_id, value = row[e], row[n]
                if value is None:
                    value = row[t]
                stat = elems.get(elem_id)
                if stat is None:
                    stat = elems[elem_id] = _ElemStat({})
                values = stat.values
                count = values.get(value, 0) + sign
                if count:
                    values[value] = count
                else:
                    del values[value]
                stat.rows += sign
                if not stat.rows:
                    del elems[elem_id]
            for row in attributes:
                count = attrs.get(row[key], 0) + sign
                if count:
                    attrs[row[key]] = count
                else:
                    del attrs[row[key]]

    def snapshot(self) -> StatsSnapshot:
        """The counters in the form a store collects them."""
        with self._lock:
            return StatsSnapshot(
                self._objects,
                {elem_id: dict(stat.values) for elem_id, stat in self._elems.items()},
                dict(self._attrs),
            )

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def object_count(self) -> int:
        return self._objects

    def element_rows(self, elem_def_id: int) -> int:
        stat = self._elems.get(elem_def_id)
        return stat.rows if stat is not None else 0

    def element_distinct(self, elem_def_id: int) -> int:
        stat = self._elems.get(elem_def_id)
        return len(stat.values) if stat is not None else 0

    def attribute_rows(self, attr_def_id: int) -> int:
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
