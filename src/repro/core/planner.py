"""Interpreter of the logical plan IR over the memory store.

The Fig-4 object-query plan is built once as a backend-neutral
:class:`~repro.core.logical.LogicalPlan` (see :mod:`repro.core.logical`)
and this module *interprets* it over :class:`MemoryHybridStore` — the
sqlite backend compiles the very same plan object to SQL, so the two
backends can never drift apart stage-wise.

The plan is set-based throughout — every stage is a bulk operation over
whole row sets, never a per-object traversal — and uses the inverted
lists to resolve sub-attribute containment without recursion (paper §4):

1. **ElementSeek** (one per criterion, most-selective-first when
   statistics are available) — one call of the store's seek primitive
   (:meth:`MemoryHybridStore._seek_rows`), which reads the criterion's
   definition in the value-keyed posting index: EQ and IN_SET probe it,
   CONTAINS, NE and ranges test each distinct value once.  It examines
   the hits plus the distinct values, never every row of the
   definition, and builds no row tuples; the hits become the matching
   ``(object, attribute instance)`` id set.  Because all criteria are
   conjunctive, a seek that matches nothing short-circuits the
   remaining stages.
2. **DirectCountMatch** — instances qualify when they contain the
   *required number of distinct* direct element criteria; since each
   criterion contributes one id set, that is exactly the set
   intersection of the qattr's per-seek instance sets.  Criteria with
   no direct elements take every instance of their definition as
   candidates.  Under the §4 simplified rewrite (``plan.simple``),
   the same semijoin runs over object ids directly.
3. **AncestorCountMatch** — bottom-up over the criteria tree: probe the
   inverted sub-attribute → ancestor list by definition pair and
   semijoin its (object, seq) columns against the satisfied child
   instances, keeping ancestor instances that account for *all* child
   criteria.  Because the inverted list spans intervening
   sub-attributes, a query criterion nested one level below another
   matches data any number of levels deeper — and no stage ever
   recurses through the data.
4. **ObjectIntersect** — sorted object-id vectors intersected with the
   merge kernels from :mod:`repro.relational.batch`, rarest criterion
   first so an empty intersection exits early.

The sqlite backend executes the same stages as SQL statements
(:mod:`repro.backends.sqlite`); the two are property-tested to agree.
The pre-columnar row-at-a-time interpreter is kept as
:func:`match_objects_memory_rows` — it is the "before" baseline for
bench E15 and a second oracle for the batch kernels.  It reads every
row of a criterion's definition (all of its postings) and tests each
one with :meth:`Op.matches`.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Any, Dict, List, Optional, Set, Tuple

from ..obs.profile import QueryProfile
from ..relational.batch import intersect_sorted
from .logical import LogicalPlan
from .query import Op
from .storage import MemoryHybridStore

Instance = Tuple[int, int]  # (object_id, seq_id)

#: Stage kinds this interpreter executes.  PLN02 (reprolint) asserts
#: this declaration stays mirrored with the sqlite compiler and with
#: the ``kind`` markers on the stage classes in :mod:`repro.core.logical`.
HANDLED_STAGE_KINDS = (
    "ElementSeek",
    "DirectCountMatch",
    "AncestorCountMatch",
    "ObjectIntersect",
)


# ---------------------------------------------------------------------------
# Seeks
# ---------------------------------------------------------------------------

def _seek_expected(qelem) -> Any:
    """The criterion's literal, typed as the column it compares."""
    if qelem.op is Op.IN_SET:
        return qelem.value_set
    return qelem.value_num if qelem.numeric else qelem.value_text


def match_objects_memory(
    store: MemoryHybridStore,
    plan: LogicalPlan,
    prof: Optional[QueryProfile] = None,
) -> List[int]:
    """Interpret the count-matching plan; returns sorted object ids.

    The executor contract (shared with the sqlite compiler): leave each
    stage's produced row count in ``plan.actuals``, time the stages
    into ``prof.stage_seconds`` when a profile is collecting, return
    the ids.  The Fig-4 trace, the stage histogram and the profile rows
    are derived from the actuals by :meth:`HybridStore.match_objects`.
    """
    if plan.simple:
        return _interpret_simple(store, plan, prof)
    return _interpret_general(store, plan, prof)


def _interpret_general(
    store: MemoryHybridStore,
    plan: LogicalPlan,
    prof: Optional[QueryProfile] = None,
) -> List[int]:
    query = plan.query
    elements = store.db.table("elements")
    attributes = store.db.table("attributes")
    ancestors = store.db.table("attr_ancestors")

    e_obj = elements.column_data("object_id")
    e_seq = elements.column_data("seq_id")

    # ------------------------------------------------------------------
    # ElementSeek stages (one posting-index seek per criterion, in plan
    # order).  Each seek yields its instance id set; per-instance
    # criterion counting becomes set intersection below.
    # ------------------------------------------------------------------
    seek_instances: Dict[int, List[Set[Instance]]] = defaultdict(list)
    clock = time.perf_counter if prof is not None else None
    for seek in plan.seeks:
        t0 = clock() if clock is not None else 0.0
        qelem = query.qelems[seek.qelem_id - 1]
        hits = store._seek_rows(
            qelem.elem_def_id,
            query.qattr(seek.qattr_id).attr_def_id,
            qelem.op,
            _seek_expected(qelem),
        )
        seek_instances[seek.qattr_id].append({(e_obj[r], e_seq[r]) for r in hits})
        plan.actuals[seek.key()] = len(hits)
        if clock is not None:
            prof.stage_seconds[seek.key()] = clock() - t0
        if not hits:
            # Conjunctive query: an unmatched criterion empties the
            # result — skip the remaining stages entirely (the payoff
            # of most-selective-first ordering).
            return plan.short_circuit()

    # ------------------------------------------------------------------
    # DirectCountMatch stages (per attribute criterion).  An instance
    # meets the required count of *distinct* criteria exactly when it
    # appears in every per-seek id set — a k-way set intersection.
    # ------------------------------------------------------------------
    satisfied: Dict[int, Set[Instance]] = {}
    for count in plan.counts:
        t0 = clock() if clock is not None else 0.0
        if count.required == 0:
            # Existence-only criterion: every instance of the definition
            # is a candidate.
            a_rowids = attributes.lookup_rowids(["attr_id"], [count.attr_def_id])
            a_obj = attributes.column_data("object_id")
            a_seq = attributes.column_data("seq_id")
            candidates = {(a_obj[r], a_seq[r]) for r in a_rowids}
        else:
            hit_sets = seek_instances[count.qattr_id]
            candidates = set.intersection(*hit_sets) if hit_sets else set()
        satisfied[count.qattr_id] = candidates
        plan.actuals[count.key()] = len(candidates)
        if clock is not None:
            prof.stage_seconds[count.key()] = clock() - t0

    # ------------------------------------------------------------------
    # AncestorCountMatch stages (bottom-up containment via the
    # inverted lists, one edge at a time): probe the definition-pair
    # index, then semijoin the id columns directly.
    # ------------------------------------------------------------------
    p_obj = ancestors.column_data("object_id")
    p_desc_seq = ancestors.column_data("desc_seq")
    p_anc_seq = ancestors.column_data("anc_seq")
    p_dist = ancestors.column_data("distance")
    for edge in plan.containments:
        t0 = clock() if clock is not None else 0.0
        base = satisfied[edge.parent_qattr_id]
        if not base:
            plan.actuals[edge.key()] = 0
        elif not satisfied[edge.child_qattr_id]:
            satisfied[edge.parent_qattr_id] = set()
            plan.actuals[edge.key()] = 0
        else:
            child_ok = satisfied[edge.child_qattr_id]
            pair_rowids = ancestors.lookup_rowids(
                ["desc_attr_id", "anc_attr_id"],
                [edge.child_def_id, edge.parent_def_id],
            )
            anc_ok = {
                (p_obj[r], p_anc_seq[r])
                for r in pair_rowids
                if p_dist[r] >= 1 and (p_obj[r], p_desc_seq[r]) in child_ok
            }
            surviving = base & anc_ok
            satisfied[edge.parent_qattr_id] = surviving
            plan.actuals[edge.key()] = len(surviving)
        if clock is not None:
            prof.stage_seconds[edge.key()] = clock() - t0

    # ------------------------------------------------------------------
    # ObjectIntersect: every top criterion satisfied — sorted id
    # vectors merged rarest-first, exiting early when one runs dry.
    # ------------------------------------------------------------------
    t0 = clock() if clock is not None else 0.0
    result: Optional[List[int]] = None
    for top_id in plan.intersect.top_qattr_ids:
        vector = sorted({obj for obj, _seq in satisfied[top_id]})
        result = vector if result is None else intersect_sorted(result, vector)
        if not result:
            break
    object_ids = result or []
    plan.actuals[plan.intersect.key()] = len(object_ids)
    if clock is not None:
        prof.stage_seconds[plan.intersect.key()] = clock() - t0
    return object_ids


def _interpret_simple(
    store: MemoryHybridStore,
    plan: LogicalPlan,
    prof: Optional[QueryProfile] = None,
) -> List[int]:
    """The §4 simplified rewrite: with at most one instance of each
    queried attribute per object and no sub-attribute criteria, count
    matching can group by *object* directly — per-seek object id sets
    intersected per criterion, no per-instance bookkeeping and no
    inverted-list stage."""
    query = plan.query
    elements = store.db.table("elements")
    attributes = store.db.table("attributes")
    e_obj = elements.column_data("object_id")

    # One posting-index seek per criterion; each yields the object ids
    # it matched.
    seek_objects: Dict[int, List[Set[int]]] = defaultdict(list)
    clock = time.perf_counter if prof is not None else None
    for seek in plan.seeks:
        t0 = clock() if clock is not None else 0.0
        qelem = query.qelems[seek.qelem_id - 1]
        hits = store._seek_rows(
            qelem.elem_def_id, None, qelem.op, _seek_expected(qelem)
        )
        seek_objects[seek.qattr_id].append({e_obj[r] for r in hits})
        plan.actuals[seek.key()] = len(hits)
        if clock is not None:
            prof.stage_seconds[seek.key()] = clock() - t0
        if not hits:
            return plan.short_circuit()

    result: Optional[List[int]] = None
    for count in plan.counts:
        t0 = clock() if clock is not None else 0.0
        if count.required == 0:
            a_rowids = attributes.lookup_rowids(["attr_id"], [count.attr_def_id])
            a_obj = attributes.column_data("object_id")
            objects = {a_obj[r] for r in a_rowids}
        else:
            hit_sets = seek_objects[count.qattr_id]
            objects = set.intersection(*hit_sets) if hit_sets else set()
        plan.actuals[count.key()] = len(objects)
        if clock is not None:
            prof.stage_seconds[count.key()] = clock() - t0
        vector = sorted(objects)
        result = vector if result is None else intersect_sorted(result, vector)
        # No early exit on an empty running intersection: the sqlite
        # compiler executes every DirectCountMatch stage regardless, and
        # the per-stage actuals must stay backend-identical (profile
        # parity).  The expensive case — a criterion matching nothing —
        # already short-circuited at the seek stage above.
    object_ids = result or []
    plan.actuals[plan.intersect.key()] = len(object_ids)
    return object_ids


# ---------------------------------------------------------------------------
# Legacy row-at-a-time interpreter (pre-columnar).  Kept as the E15
# "before" baseline and as a second oracle the batch interpreter is
# tested against; not used by the catalog's query path.
# ---------------------------------------------------------------------------

def _definition_rows(store: MemoryHybridStore, elem_def_id: int) -> List[tuple]:
    """Every ``elements`` row of one definition: all of its postings."""
    elements = store.db.table("elements")
    return [elements.fetch(r) for r in store.elements_by_value.rowids(elem_def_id)]


def match_objects_memory_rows(store: MemoryHybridStore, plan: LogicalPlan) -> List[int]:
    """Row-at-a-time reference interpretation of the plan."""
    if plan.simple:
        return _interpret_simple_rows(store, plan)
    return _interpret_general_rows(store, plan)


def _interpret_general_rows(store: MemoryHybridStore, plan: LogicalPlan) -> List[int]:
    query = plan.query
    elements = store.db.table("elements")
    attributes = store.db.table("attributes")
    ancestors = store.db.table("attr_ancestors")

    # matches[qattr_id][instance] = set of qelem ids that matched there
    matches: Dict[int, Dict[Instance, Set[int]]] = defaultdict(lambda: defaultdict(set))
    ev_text = elements.position("value_text")
    ev_num = elements.position("value_num")
    e_obj = elements.position("object_id")
    e_seq = elements.position("seq_id")
    for seek in plan.seeks:
        qelem = query.qelems[seek.qelem_id - 1]
        qattr = query.qattr(seek.qattr_id)
        rows = _definition_rows(store, qelem.elem_def_id)
        op = qelem.op
        expected = _seek_expected(qelem)
        position = ev_num if qelem.numeric else ev_text
        seek_rows = 0
        for row in rows:
            if row[1] != qattr.attr_def_id:
                continue
            if op.matches(row[position], expected):
                matches[seek.qattr_id][(row[e_obj], row[e_seq])].add(seek.qelem_id)
                seek_rows += 1
        plan.actuals[seek.key()] = seek_rows
        if seek_rows == 0:
            return plan.short_circuit()

    satisfied: Dict[int, Set[Instance]] = {}
    for count in plan.counts:
        if count.required == 0:
            instance_rows = attributes.lookup(["attr_id"], [count.attr_def_id])
            candidates = {(row[0], row[2]) for row in instance_rows}
        else:
            candidates = {
                instance
                for instance, met in matches[count.qattr_id].items()
                if len(met) == count.required
            }
        satisfied[count.qattr_id] = candidates
        plan.actuals[count.key()] = len(candidates)

    for edge in plan.containments:
        base = satisfied[edge.parent_qattr_id]
        if not base:
            plan.actuals[edge.key()] = 0
        elif not satisfied[edge.child_qattr_id]:
            satisfied[edge.parent_qattr_id] = set()
            plan.actuals[edge.key()] = 0
        else:
            child_ok = satisfied[edge.child_qattr_id]
            pair_rows = ancestors.lookup(
                ["desc_attr_id", "anc_attr_id"],
                [edge.child_def_id, edge.parent_def_id],
            )
            anc_ok = {
                (row[0], row[4])
                for row in pair_rows
                if row[5] >= 1 and (row[0], row[2]) in child_ok
            }
            surviving = base & anc_ok
            satisfied[edge.parent_qattr_id] = surviving
            plan.actuals[edge.key()] = len(surviving)

    result: Optional[Set[int]] = None
    for top_id in plan.intersect.top_qattr_ids:
        objects = {obj for obj, _seq in satisfied[top_id]}
        result = objects if result is None else (result & objects)
        if not result:
            break
    object_ids = sorted(result or set())
    plan.actuals[plan.intersect.key()] = len(object_ids)
    return object_ids


def _interpret_simple_rows(store: MemoryHybridStore, plan: LogicalPlan) -> List[int]:
    query = plan.query
    elements = store.db.table("elements")
    attributes = store.db.table("attributes")
    e_obj = elements.position("object_id")
    ev_text = elements.position("value_text")
    ev_num = elements.position("value_num")

    met: Dict[int, Dict[int, Set[int]]] = defaultdict(lambda: defaultdict(set))
    for seek in plan.seeks:
        qelem = query.qelems[seek.qelem_id - 1]
        rows = _definition_rows(store, qelem.elem_def_id)
        op = qelem.op
        expected = _seek_expected(qelem)
        position = ev_num if qelem.numeric else ev_text
        seek_rows = 0
        for row in rows:
            if op.matches(row[position], expected):
                met[seek.qattr_id][row[e_obj]].add(seek.qelem_id)
                seek_rows += 1
        plan.actuals[seek.key()] = seek_rows
        if seek_rows == 0:
            return plan.short_circuit()

    result: Optional[Set[int]] = None
    for count in plan.counts:
        if count.required == 0:
            objects = {
                row[0] for row in attributes.lookup(["attr_id"], [count.attr_def_id])
            }
        else:
            objects = {
                obj for obj, hits in met[count.qattr_id].items()
                if len(hits) == count.required
            }
        plan.actuals[count.key()] = len(objects)
        result = objects if result is None else (result & objects)
    object_ids = sorted(result or set())
    plan.actuals[plan.intersect.key()] = len(object_ids)
    return object_ids
