"""Backend-neutral logical query plan IR (the Fig-4 plan as data).

The count-matching plan as a small DAG of typed stages, built once and
executed on every store:

``ElementSeek``
    One index seek per element criterion (Fig-4 stage 1, one row per
    criterion).  Seeks are ordered most-selective-first by the
    optimizer; a seek that matches nothing short-circuits the whole
    conjunctive plan.
``DirectCountMatch``
    Per attribute criterion: instances (or objects, in the §4
    simplified rewrite) that contain the required number of distinct
    direct element matches (stage 2).
``AncestorCountMatch``
    One criteria-tree edge resolved bottom-up through the inverted
    sub-attribute → ancestor list (stage 3); absent entirely when the
    simplified rewrite applies.
``ObjectIntersect``
    Objects where every top-level criterion holds (stage 4), tops
    ordered rarest-first so the intersection can exit early.

:func:`build_plan` consumes a :class:`~repro.core.query.ShreddedQuery`
plus, optionally, the row counts the store reads for its stages now
(:meth:`~repro.core.storage.HybridStore.stage_counts`) and produces a
:class:`LogicalPlan`; one interpreter
(:func:`repro.core.planner.match_plan`) runs it on every store, over
three keyed reads each backend supplies.  The §4 simplified plan is an
IR-level rewrite (``plan.simple``).

:class:`PlanCache` memoizes built plans by query *shape* — the criteria
tree with definition ids and operators but without comparison values —
so repeated query templates skip the optimizer.  Entries carry the
catalog's definition generation they were built under; a definition
change retires them wholesale.  A cached plan keeps the stage order its
first literals' counts gave it.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from .query import Op, ShreddedQuery


class ElementSeek:
    """Fig-4 stage 1 for one element criterion: an index seek on the
    ``elements`` table.  Values live on the plan's bound query (looked
    up by ``qelem_id``), so a cached plan re-binds to fresh literals."""

    __slots__ = ("qelem_id", "qattr_id", "elem_def_id", "op", "numeric", "est_rows")
    kind = "ElementSeek"

    def __init__(
        self,
        qelem_id: int,
        qattr_id: int,
        elem_def_id: int,
        op: Op,
        numeric: bool,
        est_rows: Optional[float] = None,
    ) -> None:
        self.qelem_id = qelem_id
        self.qattr_id = qattr_id
        self.elem_def_id = elem_def_id
        self.op = op
        self.numeric = numeric
        self.est_rows = est_rows

    def key(self) -> Tuple:
        return ("seek", self.qelem_id)


class DirectCountMatch:
    """Fig-4 stage 2 for one attribute criterion.  ``required == 0`` is
    an existence-only test (every instance of the definition qualifies);
    ``per_object`` marks the §4 simplified rewrite, where grouping is by
    object instead of by attribute instance."""

    __slots__ = ("qattr_id", "attr_def_id", "required", "per_object", "est_rows")
    kind = "DirectCountMatch"

    def __init__(
        self,
        qattr_id: int,
        attr_def_id: int,
        required: int,
        per_object: bool,
        est_rows: Optional[float] = None,
    ) -> None:
        self.qattr_id = qattr_id
        self.attr_def_id = attr_def_id
        self.required = required
        self.per_object = per_object
        self.est_rows = est_rows

    def key(self) -> Tuple:
        return ("count", self.qattr_id)


class AncestorCountMatch:
    """Fig-4 stage 3 for one criteria-tree edge: parent instances must
    contain a satisfied child instance (any number of levels deeper,
    via the inverted list — never recursing through the data)."""

    __slots__ = ("parent_qattr_id", "child_qattr_id", "parent_def_id", "child_def_id")
    kind = "AncestorCountMatch"

    def __init__(
        self,
        parent_qattr_id: int,
        child_qattr_id: int,
        parent_def_id: int,
        child_def_id: int,
    ) -> None:
        self.parent_qattr_id = parent_qattr_id
        self.child_qattr_id = child_qattr_id
        self.parent_def_id = parent_def_id
        self.child_def_id = child_def_id

    def key(self) -> Tuple:
        return ("containment", self.parent_qattr_id, self.child_qattr_id)


class ObjectIntersect:
    """Fig-4 stage 4: objects where every top criterion is satisfied,
    tops ordered rarest-first."""

    __slots__ = ("top_qattr_ids", "est_rows")
    kind = "ObjectIntersect"

    def __init__(self, top_qattr_ids: Tuple[int, ...], est_rows: Optional[float] = None) -> None:
        self.top_qattr_ids = top_qattr_ids
        self.est_rows = est_rows

    def key(self) -> Tuple:
        return ("intersect",)


class LogicalPlan:
    """One optimized Fig-4 plan, bound to a shredded query.

    ``actuals`` is filled by the interpreter that executes the plan —
    stage key → produced row count — and is what ``EXPLAIN`` renders
    next to the optimizer's estimates.  ``generation`` records the
    catalog's definition generation the plan was built under (``None``
    when built outside a catalog); the plan cache uses it for
    staleness.
    """

    __slots__ = (
        "query", "seeks", "counts", "containments", "intersect",
        "simple", "generation", "shape", "actuals",
    )

    def __init__(
        self,
        query: ShreddedQuery,
        seeks: List[ElementSeek],
        counts: List[DirectCountMatch],
        containments: List[AncestorCountMatch],
        intersect: ObjectIntersect,
        simple: bool,
        generation: Optional[int],
        shape: Tuple,
    ) -> None:
        self.query = query
        self.seeks = seeks
        self.counts = counts
        self.containments = containments
        self.intersect = intersect
        self.simple = simple
        self.generation = generation
        self.shape = shape
        self.actuals: Dict[Tuple, int] = {}

    def rebind(self, query: ShreddedQuery) -> "LogicalPlan":
        """A same-shape execution copy bound to ``query``'s literals.
        Stage objects are shared (they hold no comparison values); the
        ``actuals`` map is fresh so concurrent uses never clobber."""
        return LogicalPlan(
            query, self.seeks, self.counts, self.containments,
            self.intersect, self.simple, self.generation, self.shape,
        )

    def stage_count(self) -> int:
        return len(self.seeks) + len(self.counts) + len(self.containments) + 1

    def short_circuit(self) -> List[int]:
        """Finish a run whose last seek matched nothing: the query is
        conjunctive, so every stage that has not run produces zero rows
        and the answer is empty."""
        for stage in (*self.seeks, *self.counts, *self.containments, self.intersect):
            self.actuals.setdefault(stage.key(), 0)
        return []

    # ------------------------------------------------------------------
    # EXPLAIN rendering
    # ------------------------------------------------------------------
    def _cell(self, est: Optional[float], key: Tuple) -> str:
        est_text = "est=?" if est is None else f"est~{est:.1f}"
        actual = self.actuals.get(key)
        actual_text = "actual=-" if actual is None else f"actual={actual}"
        return f"[{est_text} {actual_text}]"

    def describe(self) -> str:
        """The optimized stage tree: execution-ordered seeks nested
        under their attribute criteria, with estimated and actual row
        counts per stage."""
        mode = "simplified (§4 rewrite)" if self.simple else "general"
        header = f"logical plan: {mode}, {self.stage_count()} stages"
        if self.generation is not None:
            header += f", generation {self.generation}"
        lines = [header]
        seek_order = {seek.qelem_id: i + 1 for i, seek in enumerate(self.seeks)}
        lines.append(
            f"ObjectIntersect tops={list(self.intersect.top_qattr_ids)} "
            f"{self._cell(self.intersect.est_rows, self.intersect.key())}"
        )
        counts_by_qattr = {c.qattr_id: c for c in self.counts}
        for count in self.counts:
            grouping = "object" if count.per_object else "instance"
            need = (
                "exists" if count.required == 0 else f"need {count.required} distinct"
            )
            lines.append(
                f"  DirectCountMatch qattr {count.qattr_id} "
                f"(def {count.attr_def_id}, {need}, per {grouping}) "
                f"{self._cell(count.est_rows, count.key())}"
            )
            for seek in self.seeks:
                if seek.qattr_id != count.qattr_id:
                    continue
                lines.append(
                    f"    ElementSeek #{seek_order[seek.qelem_id]} "
                    f"qelem {seek.qelem_id} (elem_def {seek.elem_def_id} "
                    f"{seek.op.value}) {self._cell(seek.est_rows, seek.key())}"
                )
        for edge in self.containments:
            parent_count = counts_by_qattr.get(edge.parent_qattr_id)
            est = parent_count.est_rows if parent_count is not None else None
            lines.append(
                f"  AncestorCountMatch qattr {edge.parent_qattr_id} "
                f"(def {edge.parent_def_id}) contains qattr "
                f"{edge.child_qattr_id} (def {edge.child_def_id}) "
                f"{self._cell(est, edge.key())}"
            )
        return "\n".join(lines)


def plan_shape(query: ShreddedQuery) -> Tuple:
    """The structural cache key of a shredded query: the criteria tree
    with definition ids and operators, *without* comparison values (two
    instances of the same query template share one plan).  ``IN_SET``
    keeps its value-set width: one value and many seek differently."""
    qattrs = tuple(
        (q.qattr_id, q.attr_def_id, q.parent_qattr_id, q.depth, q.direct_elem_count)
        for q in query.qattrs
    )
    qelems = tuple(
        (
            e.qelem_id, e.qattr_id, e.elem_def_id, e.op.value, e.numeric,
            len(e.value_set) if e.value_set is not None else -1,
        )
        for e in query.qelems
    )
    return (qattrs, qelems, tuple(query.top_qattr_ids), query.simple)


def build_plan(
    query: ShreddedQuery,
    counts: Optional[Dict[Tuple, int]] = None,
    generation: Optional[int] = None,
) -> LogicalPlan:
    """Compile a shredded query into an optimized logical plan.

    ``counts`` maps stage keys, as ``plan.actuals`` does, to the rows
    the store holds for them now
    (:meth:`~repro.core.storage.HybridStore.stage_counts`): each seek's
    hits for this query's literal, and each existence-only criterion's
    instances.  With them, every stage carries a row estimate — a
    criterion with direct elements is estimated at its rarest seek —
    and seeks, count stages and the top-level intersection are ordered
    most-selective-first.  Without, stages keep shredding order and
    estimates are ``None`` (the unoptimized plan — what a bare
    ``store.match_objects(shredded)`` executes).
    """
    seeks = [
        ElementSeek(e.qelem_id, e.qattr_id, e.elem_def_id, e.op, e.numeric)
        for e in query.qelems
    ]
    count_stages = [
        DirectCountMatch(q.qattr_id, q.attr_def_id, q.direct_elem_count, query.simple)
        for q in query.qattrs
    ]
    tops = list(query.top_qattr_ids)
    intersect_est: Optional[float] = None
    if counts is not None:
        rarest: Dict[int, int] = {}
        for seek in seeks:
            seek.est_rows = counts[seek.key()]
            rarest[seek.qattr_id] = min(seek.est_rows, rarest.get(seek.qattr_id, seek.est_rows))
        for count in count_stages:
            count.est_rows = (
                counts[count.key()] if count.required == 0 else rarest[count.qattr_id]
            )
        seeks.sort(key=lambda s: (s.est_rows, s.qelem_id))
        count_stages.sort(key=lambda c: (c.est_rows, c.qattr_id))
        attr_est = {c.qattr_id: c.est_rows for c in count_stages}
        tops.sort(key=lambda t: (attr_est[t], t))
        intersect_est = min((attr_est[t] for t in tops), default=0)

    containments: List[AncestorCountMatch] = []
    if not query.simple:
        # Bottom-up over the criteria tree, exactly the Fig-4 stage-3
        # order: deepest parents first, each parent's edges in criteria
        # order.
        for depth in range(query.max_depth(), -1, -1):
            for qattr in query.qattrs:
                if qattr.depth != depth or not qattr.child_qattr_ids:
                    continue
                for child_id in qattr.child_qattr_ids:
                    child = query.qattr(child_id)
                    containments.append(
                        AncestorCountMatch(
                            qattr.qattr_id, child_id,
                            qattr.attr_def_id, child.attr_def_id,
                        )
                    )

    return LogicalPlan(
        query=query,
        seeks=seeks,
        counts=count_stages,
        containments=containments,
        intersect=ObjectIntersect(tuple(tops), intersect_est),
        simple=query.simple,
        generation=generation,
        shape=plan_shape(query),
    )


class PlanCache:
    """Shape-keyed LRU cache of built plans.

    A hit requires the entry's generation to match the catalog's
    current one, so a definition change retires every cached plan at
    once (the stale entry is dropped on lookup).  The owning catalog counts hits/misses into its metrics
    registry.  All operations are thread-safe; a returned plan is
    shared between threads, which is sound because execution goes
    through :meth:`LogicalPlan.rebind` (stage objects are immutable
    after build, ``actuals`` is per-rebind).
    """

    def __init__(self, capacity: int = 128) -> None:
        if capacity < 1:
            raise ValueError("plan cache capacity must be >= 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Tuple, LogicalPlan]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def lookup(self, shape: Tuple, generation: Optional[int]) -> Optional[LogicalPlan]:
        with self._lock:
            entry = self._entries.get(shape)
            if entry is not None and entry.generation == generation:
                self._entries.move_to_end(shape)
                self.hits += 1
                return entry
            if entry is not None:
                # Built under older definitions: stale.
                del self._entries[shape]
            self.misses += 1
            return None

    def store(self, plan: LogicalPlan) -> None:
        with self._lock:
            self._entries[plan.shape] = plan
            self._entries.move_to_end(plan.shape)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
