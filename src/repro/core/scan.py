"""Direct evaluation of attribute queries over one document's rows.

:func:`evaluate_shredded_query` answers "does this one document match?"
by nested-loop evaluation over a :class:`~repro.core.shredder.ShredResult`
— an algorithm entirely independent of the Fig-4 count-matching plan,
which makes it the correctness oracle for the planner in tests, the
query path of the CLOB-only baseline (which must parse and interpret
every stored document at query time), and the test the result cache
applies to a newly ingested object when it patches a cached answer
(:mod:`.result_cache`).

It runs in two steps: :class:`DocumentIndex` indexes one document's
attribute, element and inverted rows once, and :func:`matches`
evaluates a query over that index, so one index serves any number of
queries.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from .query import QAttr, ShreddedQuery
from .shredder import AttributeRow, ElementRow, InvertedRow, ShredResult

__all__ = ["DocumentIndex", "evaluate_shredded_query", "matches"]

Instance = Tuple[int, int]  # (attr_def_id, seq)


class DocumentIndex:
    """One document's rows, indexed for :func:`matches`."""

    __slots__ = ("instances_by_def", "elements_by_instance", "ancestors_of")

    def __init__(
        self,
        attributes: Sequence[AttributeRow],
        elements: Sequence[ElementRow],
        inverted: Sequence[InvertedRow],
    ) -> None:
        self.instances_by_def: Dict[int, List[int]] = {}
        for arow in attributes:
            self.instances_by_def.setdefault(arow.attr_id, []).append(arow.seq_id)
        self.elements_by_instance: Dict[Instance, List[ElementRow]] = {}
        for erow in elements:
            self.elements_by_instance.setdefault(
                (erow.attr_id, erow.seq_id), []
            ).append(erow)
        # descendant instance -> ancestor instances (distance >= 1)
        self.ancestors_of: Dict[Instance, Set[Instance]] = {}
        for irow in inverted:
            if irow.distance >= 1:
                self.ancestors_of.setdefault(
                    (irow.desc_attr_id, irow.desc_seq), set()
                ).add((irow.anc_attr_id, irow.anc_seq))


def matches(query: ShreddedQuery, index: DocumentIndex) -> bool:
    """True iff the indexed document satisfies ``query``."""
    instances_by_def = index.instances_by_def
    elements_by_instance = index.elements_by_instance
    ancestors_of = index.ancestors_of
    memo: Dict[int, Set[Instance]] = {}

    def qattr_satisfied_instances(qattr: QAttr) -> Set[Instance]:
        if qattr.qattr_id in memo:
            return memo[qattr.qattr_id]
        candidates = instances_by_def.get(qattr.attr_def_id, [])
        satisfied: Set[Instance] = set()
        criteria = query.elements_of(qattr.qattr_id)
        for seq in candidates:
            instance = (qattr.attr_def_id, seq)
            rows = elements_by_instance.get(instance, [])
            ok = True
            for criterion in criteria:
                expected: object = criterion.value_set
                if expected is None:
                    expected = criterion.value_num if criterion.numeric else criterion.value_text
                hit = False
                for erow in rows:
                    if erow.elem_id != criterion.elem_def_id:
                        continue
                    actual = erow.value_num if criterion.numeric else erow.value_text
                    if criterion.op.matches(actual, expected):
                        hit = True
                        break
                if not hit:
                    ok = False
                    break
            if not ok:
                continue
            # Sub-attribute criteria: each child criterion needs a
            # satisfied descendant instance below this instance.
            for child_id in qattr.child_qattr_ids:
                child = query.qattr(child_id)
                child_ok = qattr_satisfied_instances(child)
                if not any(
                    instance in ancestors_of.get(c, set()) for c in child_ok
                ):
                    ok = False
                    break
            if ok:
                satisfied.add(instance)
        memo[qattr.qattr_id] = satisfied
        return satisfied

    for top_id in query.top_qattr_ids:
        if not qattr_satisfied_instances(query.qattr(top_id)):
            return False
    return True


def evaluate_shredded_query(query: ShreddedQuery, shred: ShredResult) -> bool:
    """True iff the document whose shred is given satisfies ``query``."""
    return matches(
        query, DocumentIndex(shred.attributes, shred.elements, shred.inverted)
    )
