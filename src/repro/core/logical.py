"""Backend-neutral logical query plan IR (the Fig-4 plan as data).

The count-matching plan as a small DAG of typed stages, built once per
query and executed on every store:

``ElementSeek``
    One index seek per element criterion (Fig-4 stage 1, one row per
    criterion), in shredding order; a seek that matches nothing
    short-circuits the whole conjunctive plan.
``DirectCountMatch``
    Per attribute criterion: instances (or objects, in the §4
    simplified rewrite) that contain the required number of distinct
    direct element matches (stage 2).
``AncestorCountMatch``
    One criteria-tree edge resolved bottom-up through the inverted
    sub-attribute → ancestor list (stage 3); absent entirely when the
    simplified rewrite applies.
``ObjectIntersect``
    Objects where every top-level criterion holds (stage 4); the
    interpreter merges the tops' object vectors shortest-first, so
    the intersection can exit early.

:func:`build_plan` is a pure function of a
:class:`~repro.core.query.ShreddedQuery`: it reads no store and keeps
no cache, so a plan lives exactly as long as its query.  One
interpreter (:func:`repro.core.planner.match_plan`) runs it on every
store, over three keyed reads each backend supplies.  The §4
simplified plan is an IR-level rewrite (``plan.simple``).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .query import Op, ShreddedQuery


class ElementSeek:
    """Fig-4 stage 1 for one element criterion: an index seek on the
    ``elements`` table.  Values live on the plan's query (looked up by
    ``qelem_id``)."""

    __slots__ = ("qelem_id", "qattr_id", "elem_def_id", "op", "numeric")
    kind = "ElementSeek"

    def __init__(
        self, qelem_id: int, qattr_id: int, elem_def_id: int, op: Op, numeric: bool
    ) -> None:
        self.qelem_id = qelem_id
        self.qattr_id = qattr_id
        self.elem_def_id = elem_def_id
        self.op = op
        self.numeric = numeric

    def key(self) -> Tuple:
        return ("seek", self.qelem_id)


class DirectCountMatch:
    """Fig-4 stage 2 for one attribute criterion.  ``required == 0`` is
    an existence-only test (every instance of the definition qualifies);
    ``per_object`` marks the §4 simplified rewrite, where grouping is by
    object instead of by attribute instance."""

    __slots__ = ("qattr_id", "attr_def_id", "required", "per_object")
    kind = "DirectCountMatch"

    def __init__(
        self, qattr_id: int, attr_def_id: int, required: int, per_object: bool
    ) -> None:
        self.qattr_id = qattr_id
        self.attr_def_id = attr_def_id
        self.required = required
        self.per_object = per_object

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
    """Fig-4 stage 4: objects where every top criterion is satisfied.
    ``top_qattr_ids`` is in shredding order; the interpreter merges the
    tops' object vectors shortest-first."""

    __slots__ = ("top_qattr_ids",)
    kind = "ObjectIntersect"

    def __init__(self, top_qattr_ids: Tuple[int, ...]) -> None:
        self.top_qattr_ids = top_qattr_ids

    def key(self) -> Tuple:
        return ("intersect",)


class LogicalPlan:
    """One Fig-4 plan, bound to a shredded query.

    ``actuals`` is filled by the interpreter that executes the plan —
    stage key → produced row count — and is what ``EXPLAIN`` renders
    per stage.
    """

    __slots__ = ("query", "seeks", "counts", "containments", "intersect", "simple", "actuals")

    def __init__(
        self,
        query: ShreddedQuery,
        seeks: List[ElementSeek],
        counts: List[DirectCountMatch],
        containments: List[AncestorCountMatch],
        intersect: ObjectIntersect,
        simple: bool,
    ) -> None:
        self.query = query
        self.seeks = seeks
        self.counts = counts
        self.containments = containments
        self.intersect = intersect
        self.simple = simple
        self.actuals: Dict[Tuple, int] = {}

    def stage_count(self) -> int:
        return len(self.seeks) + len(self.counts) + len(self.containments) + 1

    def stages(self) -> Tuple:
        """Every stage, in the order the interpreter runs them."""
        return (*self.seeks, *self.counts, *self.containments, self.intersect)

    def short_circuit(self) -> List[int]:
        """Finish a run whose last seek matched nothing: the query is
        conjunctive, so every stage that has not run produces zero rows
        and the answer is empty."""
        for stage in self.stages():
            self.actuals.setdefault(stage.key(), 0)
        return []

    # ------------------------------------------------------------------
    # EXPLAIN rendering
    # ------------------------------------------------------------------
    def _cell(self, key: Tuple) -> str:
        actual = self.actuals.get(key)
        return "[actual=-]" if actual is None else f"[actual={actual}]"

    def describe(self) -> str:
        """The stage tree: seeks nested under their attribute criteria,
        numbered in execution order, with each stage's actual rows."""
        mode = "simplified (§4 rewrite)" if self.simple else "general"
        lines = [f"logical plan: {mode}, {self.stage_count()} stages"]
        seek_order = {seek.qelem_id: i + 1 for i, seek in enumerate(self.seeks)}
        lines.append(
            f"ObjectIntersect tops={list(self.intersect.top_qattr_ids)} "
            f"{self._cell(self.intersect.key())}"
        )
        for count in self.counts:
            grouping = "object" if count.per_object else "instance"
            need = (
                "exists" if count.required == 0 else f"need {count.required} distinct"
            )
            lines.append(
                f"  DirectCountMatch qattr {count.qattr_id} "
                f"(def {count.attr_def_id}, {need}, per {grouping}) "
                f"{self._cell(count.key())}"
            )
            for seek in self.seeks:
                if seek.qattr_id != count.qattr_id:
                    continue
                lines.append(
                    f"    ElementSeek #{seek_order[seek.qelem_id]} "
                    f"qelem {seek.qelem_id} (elem_def {seek.elem_def_id} "
                    f"{seek.op.value}) {self._cell(seek.key())}"
                )
        for edge in self.containments:
            lines.append(
                f"  AncestorCountMatch qattr {edge.parent_qattr_id} "
                f"(def {edge.parent_def_id}) contains qattr "
                f"{edge.child_qattr_id} (def {edge.child_def_id}) "
                f"{self._cell(edge.key())}"
            )
        return "\n".join(lines)


def plan_shape(query: ShreddedQuery) -> Tuple:
    """The structural key of a shredded query: the criteria tree with
    definition ids and operators, *without* comparison values (two
    instances of the same query template share one shape; the result
    cache adds the literals).  ``IN_SET`` keeps its value-set width."""
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


def build_plan(query: ShreddedQuery) -> LogicalPlan:
    """Compile a shredded query into its logical plan: seeks and count
    stages in shredding order, containment edges bottom-up.  Reads no
    store; whatever order depends on row counts is chosen by the
    interpreter from the rows the seeks return."""
    seeks = [
        ElementSeek(e.qelem_id, e.qattr_id, e.elem_def_id, e.op, e.numeric)
        for e in query.qelems
    ]
    count_stages = [
        DirectCountMatch(q.qattr_id, q.attr_def_id, q.direct_elem_count, query.simple)
        for q in query.qattrs
    ]

    # Bottom-up over the criteria tree, exactly the Fig-4 stage-3 order:
    # deepest parents first (a stable sort keeps criteria order within
    # a depth), each parent's edges in criteria order.
    parents = [] if query.simple else [q for q in query.qattrs if q.child_qattr_ids]
    containments = [
        AncestorCountMatch(
            parent.qattr_id, child_id, parent.attr_def_id, query.qattr(child_id).attr_def_id
        )
        for parent in sorted(parents, key=lambda q: -q.depth)
        for child_id in parent.child_qattr_ids
    ]
    return LogicalPlan(
        query, seeks, count_stages, containments,
        ObjectIntersect(tuple(query.top_qattr_ids)), query.simple,
    )
