"""The one executor of the logical plan IR, on every store.

The Fig-4 object-query plan is built once as a backend-neutral
:class:`~repro.core.logical.LogicalPlan` (see :mod:`repro.core.logical`)
and this module *interprets* it — on the memory store and on sqlite
alike.  A store contributes three keyed reads and nothing else:

* :meth:`~repro.core.storage.HybridStore._seek_instances` — the
  ``(object, seq)`` instances one element criterion matches;
* :meth:`~repro.core.storage.HybridStore._instance_rows` — every
  instance of one attribute definition;
* :meth:`~repro.core.storage.HybridStore._ancestor_rows` — one
  definition pair's inverted-list rows below distance 0.

The memory store answers them from its hash and posting indexes, sqlite
with one constant-text ``SELECT`` each (``elements_by_def``,
``attributes_by_def``, ``anc_by_pair``).  The whole plan runs in one read
section (:meth:`~repro.core.storage.HybridStore._read_section`), so its
stages read one state: memory holds the read lock, and a pooled sqlite
reader holds one read transaction, whose snapshot a concurrent commit
does not move.

The plan is set-based throughout — every stage is a bulk operation over
whole row sets, never a per-object traversal — and uses the inverted
lists to resolve sub-attribute containment without recursion (paper §4):

1. **ElementSeek** (one per criterion, in shredding order) — one call
   of the seek primitive, each read once.  Because all criteria are
   conjunctive, a seek that matches nothing short-circuits the
   remaining stages.
2. **DirectCountMatch** — instances qualify when they contain the
   *required number of distinct* direct element criteria; since each
   criterion contributes one id set, that is exactly the set
   intersection of the qattr's per-seek instance sets.  Criteria with
   no direct elements take every instance of their definition as
   candidates.  Under the §4 simplified rewrite (``plan.simple``),
   the same semijoin runs over object ids directly.
3. **AncestorCountMatch** — bottom-up over the criteria tree: read the
   inverted sub-attribute → ancestor list by definition pair and
   semijoin its (object, seq) columns against the satisfied child
   instances, keeping ancestor instances that account for *all* child
   criteria.  Because the inverted list spans intervening
   sub-attributes, a query criterion nested one level below another
   matches data any number of levels deeper — and no stage ever
   recurses through the data.
4. **ObjectIntersect** — sorted object-id vectors intersected with the
   merge kernels from :mod:`repro.relational.batch`, in ascending
   actual rows of the tops (the order is chosen from what the stages
   above just produced), so an empty intersection exits early.

The scan baseline (:func:`repro.baselines.evaluate_shredded_query`) is
this interpreter's oracle.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Set, Tuple

from ..obs.profile import QueryProfile
from ..relational.batch import intersect_sorted
from .logical import LogicalPlan
from .query import Op

if TYPE_CHECKING:
    from .storage import HybridStore

Instance = Tuple[int, int]  # (object_id, seq_id)


def _seek_expected(qelem) -> Any:
    """The criterion's literal, typed as the column it compares."""
    if qelem.op is Op.IN_SET:
        return qelem.value_set
    return qelem.value_num if qelem.numeric else qelem.value_text


def match_plan(
    store: "HybridStore",
    plan: LogicalPlan,
    prof: Optional[QueryProfile] = None,
) -> List[int]:
    """Interpret the count-matching plan; returns sorted object ids.
    The caller holds the store's read section.

    The executor contract: leave each stage's produced row count in
    ``plan.actuals``, and when a profile is collecting, set
    ``prof.marks`` to a clock reading at the start and append one as
    each stage ends; return the ids.  The Fig-4 trace, the stage
    histogram and the profile rows are derived from the actuals by
    :meth:`HybridStore.match_objects`.
    """
    if plan.simple:
        return _interpret_simple(store, plan, prof)
    return _interpret_general(store, plan, prof)


def _interpret_general(
    store: "HybridStore",
    plan: LogicalPlan,
    prof: Optional[QueryProfile] = None,
) -> List[int]:
    query = plan.query

    # ------------------------------------------------------------------
    # ElementSeek stages (one keyed seek per criterion, in plan order).
    # Each seek yields its instance id set; per-instance criterion
    # counting becomes set intersection below.
    # ------------------------------------------------------------------
    seek_instances: Dict[int, List[Set[Instance]]] = defaultdict(list)
    clock = time.perf_counter
    marks = None
    if prof is not None:
        marks = prof.marks = [clock()]
    for seek in plan.seeks:
        qelem = query.qelems[seek.qelem_id - 1]
        hits = store._seek_instances(
            qelem.elem_def_id,
            query.qattr(seek.qattr_id).attr_def_id,
            qelem.op,
            _seek_expected(qelem),
        )
        seek_instances[seek.qattr_id].append(set(hits))
        plan.actuals[seek.key()] = len(hits)
        if marks is not None:
            marks.append(clock())
        if not hits:
            # Conjunctive query: an unmatched criterion empties the
            # result — skip the remaining stages entirely.
            return plan.short_circuit()

    # ------------------------------------------------------------------
    # DirectCountMatch stages (per attribute criterion).  An instance
    # meets the required count of *distinct* criteria exactly when it
    # appears in every per-seek id set — a k-way set intersection.
    # ------------------------------------------------------------------
    satisfied: Dict[int, Set[Instance]] = {}
    for count in plan.counts:
        if count.required == 0:
            # Existence-only criterion: every instance of the definition
            # is a candidate.
            candidates = set(store._instance_rows(count.attr_def_id))
        else:
            hit_sets = seek_instances[count.qattr_id]
            candidates = set.intersection(*hit_sets) if hit_sets else set()
        satisfied[count.qattr_id] = candidates
        plan.actuals[count.key()] = len(candidates)
        if marks is not None:
            marks.append(clock())

    # ------------------------------------------------------------------
    # AncestorCountMatch stages (bottom-up containment via the
    # inverted lists, one edge at a time): read the definition pair's
    # rows, then semijoin the id columns directly.  An edge whose
    # parent or child is already empty reads nothing.
    # ------------------------------------------------------------------
    for edge in plan.containments:
        base = satisfied[edge.parent_qattr_id]
        if not base:
            plan.actuals[edge.key()] = 0
        elif not satisfied[edge.child_qattr_id]:
            satisfied[edge.parent_qattr_id] = set()
            plan.actuals[edge.key()] = 0
        else:
            child_ok = satisfied[edge.child_qattr_id]
            anc_ok = {
                (obj, anc_seq)
                for obj, desc_seq, anc_seq in store._ancestor_rows(
                    edge.child_def_id, edge.parent_def_id
                )
                if (obj, desc_seq) in child_ok
            }
            surviving = base & anc_ok
            satisfied[edge.parent_qattr_id] = surviving
            plan.actuals[edge.key()] = len(surviving)
        if marks is not None:
            marks.append(clock())

    # ------------------------------------------------------------------
    # ObjectIntersect: every top criterion satisfied — sorted object id
    # vectors merged shortest-first, exiting early when one runs dry.
    # ------------------------------------------------------------------
    per_top = [
        {obj for obj, _seq in satisfied[top_id]}
        for top_id in plan.intersect.top_qattr_ids
    ]
    result: Optional[List[int]] = None
    for objects in sorted(per_top, key=len):
        vector = sorted(objects)
        result = vector if result is None else intersect_sorted(result, vector)
        if not result:
            break
    object_ids = result or []
    plan.actuals[plan.intersect.key()] = len(object_ids)
    if marks is not None:
        marks.append(clock())
    return object_ids


def _interpret_simple(
    store: "HybridStore",
    plan: LogicalPlan,
    prof: Optional[QueryProfile] = None,
) -> List[int]:
    """The §4 simplified rewrite: with at most one instance of each
    queried attribute per object and no sub-attribute criteria, count
    matching can group by *object* directly — per-seek object id sets
    intersected per criterion, no per-instance bookkeeping and no
    inverted-list stage."""
    query = plan.query

    # One keyed seek per criterion; each yields the object ids it
    # matched.
    seek_objects: Dict[int, List[Set[int]]] = defaultdict(list)
    clock = time.perf_counter
    marks = None
    if prof is not None:
        marks = prof.marks = [clock()]
    for seek in plan.seeks:
        qelem = query.qelems[seek.qelem_id - 1]
        hits = store._seek_instances(
            qelem.elem_def_id, None, qelem.op, _seek_expected(qelem)
        )
        seek_objects[seek.qattr_id].append({obj for obj, _seq in hits})
        plan.actuals[seek.key()] = len(hits)
        if marks is not None:
            marks.append(clock())
        if not hits:
            return plan.short_circuit()

    per_count: List[Set[int]] = []
    for count in plan.counts:
        if count.required == 0:
            objects = {obj for obj, _seq in store._instance_rows(count.attr_def_id)}
        else:
            hit_sets = seek_objects[count.qattr_id]
            objects = set.intersection(*hit_sets) if hit_sets else set()
        per_count.append(objects)
        plan.actuals[count.key()] = len(objects)
        if marks is not None:
            marks.append(clock())

    # Every criterion is a top here: merge the per-criterion object
    # vectors shortest-first, exiting early when one runs dry.
    result: Optional[List[int]] = None
    for objects in sorted(per_count, key=len):
        vector = sorted(objects)
        result = vector if result is None else intersect_sorted(result, vector)
        if not result:
            break
    object_ids = result or []
    plan.actuals[plan.intersect.key()] = len(object_ids)
    if marks is not None:
        marks.append(clock())
    return object_ids
