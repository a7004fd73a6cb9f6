"""Metadata-attribute queries (paper §4).

Scientists query the catalog for *objects* whose metadata attributes
meet criteria — "unordered queries over metadata attributes".  The
programmatic surface mirrors the myLEAD Java API the paper shows::

    query = ObjectQuery()
    grid = AttributeCriteria("grid", "ARPS")
    grid.add_element("dx", "ARPS", 1000, Op.EQ)
    stretching = AttributeCriteria("grid-stretching", "ARPS")
    stretching.add_element("dzmin", "ARPS", 100, Op.EQ)
    grid.add_attribute(stretching)
    query.add_attribute(grid)

(``MyFile``/``MyAttr`` aliases are provided for paper fidelity, along
with the ``MYEQUAL``-style operator constants.)

Before execution a query is itself **shredded** (§4): criteria are
resolved against the definition registry and flattened into criterion
rows with the required direct/subtree counts — the inputs of the Fig-4
count-matching plan.  A criterion that references an unknown or
non-queryable definition fails fast with :class:`QueryError`; this is
the query-side payoff of validating dynamic attributes on insert.
"""

from __future__ import annotations

import enum
from typing import List, Optional

from ..errors import QueryError
from .definitions import DefinitionRegistry
from .schema import ValueType


class Op(enum.Enum):
    """Comparison operators for element criteria.

    ``IN_SET`` matches any value of a collection — the operator
    ontology-based query expansion produces (§3: definitions "could also
    be connected to an ontology for enhanced search capabilities").
    """

    EQ = "="
    NE = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    CONTAINS = "contains"
    IN_SET = "in"

    def matches(self, actual, expected) -> bool:
        """Evaluate against an actual value (used by scan baselines and
        the memory planner; SQL backends render the operator instead)."""
        if actual is None:
            return False
        if self is Op.IN_SET:
            return actual in expected
        if self is Op.CONTAINS:
            return str(expected) in str(actual)
        if self is Op.EQ:
            return actual == expected
        if self is Op.NE:
            return actual != expected
        try:
            if self is Op.LT:
                return actual < expected
            if self is Op.LE:
                return actual <= expected
            if self is Op.GT:
                return actual > expected
            return actual >= expected
        except TypeError:
            return False


# Paper-style operator constants.
MYEQUAL = Op.EQ
MYNOTEQUAL = Op.NE
MYLESS = Op.LT
MYLESSEQUAL = Op.LE
MYGREATER = Op.GT
MYGREATEREQUAL = Op.GE
MYCONTAINS = Op.CONTAINS


class ElementCriterion:
    """One comparison against a metadata element's value."""

    __slots__ = ("name", "source", "value", "op")

    def __init__(self, name: str, source: str, value, op: Op = Op.EQ) -> None:
        if not isinstance(op, Op):
            raise QueryError(f"op must be an Op, got {op!r}")
        self.name = name
        self.source = source
        self.value = value
        self.op = op

    def __repr__(self) -> str:  # pragma: no cover
        return f"ElementCriterion({self.name!r} {self.op.value} {self.value!r})"


class AttributeCriteria:
    """Criteria on one metadata attribute: element comparisons plus
    nested sub-attribute criteria.  All criteria are conjunctive."""

    def __init__(self, name: str, source: str = "") -> None:
        self.name = name
        self.source = source
        self.elements: List[ElementCriterion] = []
        self.sub_attributes: List["AttributeCriteria"] = []

    def add_element(
        self,
        name: str,
        source: Optional[str] = None,
        value=None,
        op: Op = Op.EQ,
    ) -> "AttributeCriteria":
        """Add an element comparison.  ``source=None`` inherits this
        attribute's source (matching the paper's
        ``stAttr.addElement("dzmin", 100, MYEQUAL)`` shorthand)."""
        self.elements.append(
            ElementCriterion(name, self.source if source is None else source, value, op)
        )
        return self

    def add_attribute(self, sub: "AttributeCriteria") -> "AttributeCriteria":
        self.sub_attributes.append(sub)
        return self

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"AttributeCriteria({self.name!r}, elements={len(self.elements)}, "
            f"subs={len(self.sub_attributes)})"
        )


class ObjectQuery:
    """A conjunctive query over metadata attributes."""

    def __init__(self) -> None:
        self.attributes: List[AttributeCriteria] = []

    def add_attribute(self, criteria: AttributeCriteria) -> "ObjectQuery":
        self.attributes.append(criteria)
        return self

    def is_empty(self) -> bool:
        return not self.attributes

    def __repr__(self) -> str:  # pragma: no cover
        return f"ObjectQuery(attributes={len(self.attributes)})"


# Paper-fidelity aliases (the Java API of §4).
MyFile = ObjectQuery
MyAttr = AttributeCriteria


# ---------------------------------------------------------------------------
# Query shredding
# ---------------------------------------------------------------------------

class QAttr:
    """A shredded attribute criterion (a row of the temporary
    query-attribute table of §4)."""

    __slots__ = (
        "qattr_id",
        "attr_def_id",
        "parent_qattr_id",
        "depth",
        "direct_elem_count",
        "subtree_elem_count",
        "subtree_attr_count",
        "child_qattr_ids",
    )

    def __init__(
        self,
        qattr_id: int,
        attr_def_id: int,
        parent_qattr_id: Optional[int],
        depth: int,
    ) -> None:
        self.qattr_id = qattr_id
        self.attr_def_id = attr_def_id
        self.parent_qattr_id = parent_qattr_id
        self.depth = depth
        self.direct_elem_count = 0
        self.subtree_elem_count = 0
        self.subtree_attr_count = 1  # self
        self.child_qattr_ids: List[int] = []


class QElem:
    """A shredded element criterion (query-element table row).

    For ``Op.IN_SET`` the accepted values live in ``value_set`` (a
    frozenset of floats or strings per ``numeric``); otherwise the
    single comparison value is in ``value_num``/``value_text``.
    """

    __slots__ = (
        "qelem_id", "qattr_id", "elem_def_id", "op",
        "value_text", "value_num", "value_set", "numeric",
    )

    def __init__(
        self,
        qelem_id: int,
        qattr_id: int,
        elem_def_id: int,
        op: Op,
        value_text: Optional[str],
        value_num: Optional[float],
        numeric: bool,
        value_set: Optional[frozenset] = None,
    ) -> None:
        self.qelem_id = qelem_id
        self.qattr_id = qattr_id
        self.elem_def_id = elem_def_id
        self.op = op
        self.value_text = value_text
        self.value_num = value_num
        self.value_set = value_set
        self.numeric = numeric


class ShreddedQuery:
    """The flattened criteria a store's planner executes.

    ``simple`` is set by :func:`shred_query` when the §4 simplified plan
    applies (see :meth:`is_simple`); planners use it to skip per-instance
    grouping and the inverted-list stage.
    """

    def __init__(self) -> None:
        self.qattrs: List[QAttr] = []
        self.qelems: List[QElem] = []
        self.top_qattr_ids: List[int] = []
        self.simple = False

    def qattr(self, qattr_id: int) -> QAttr:
        return self.qattrs[qattr_id - 1]

    def elements_of(self, qattr_id: int) -> List[QElem]:
        return [e for e in self.qelems if e.qattr_id == qattr_id]

    def is_simple(self, registry) -> bool:
        """True when the §4 simplified plan applies: no sub-attribute
        criteria, and no queried attribute can occur more than once per
        object — so per-object counting replaces per-instance counting.

        Dynamic definitions always admit multiple instances (their host
        node is repeatable); structural definitions follow their schema
        node's ``repeatable`` flag.
        """
        for qattr in self.qattrs:
            if qattr.child_qattr_ids:
                return False
            attr_def = registry.attribute(qattr.attr_def_id)
            if not attr_def.structural:
                return False
            node = registry.schema.node_by_order(attr_def.schema_order)
            if node.repeatable:
                return False
        return True

    def describe(self) -> str:
        lines = []
        for q in self.qattrs:
            pad = "  " * q.depth
            lines.append(
                f"{pad}qattr {q.qattr_id} (def {q.attr_def_id}): "
                f"direct={q.direct_elem_count} subtree_elems={q.subtree_elem_count} "
                f"subtree_attrs={q.subtree_attr_count}"
            )
            for e in self.elements_of(q.qattr_id):
                if e.op is Op.IN_SET:
                    value = sorted(e.value_set)  # type: ignore[arg-type]
                else:
                    value = e.value_num if e.numeric else e.value_text
                lines.append(f"{pad}  qelem {e.qelem_id}: def {e.elem_def_id} {e.op.value} {value!r}")
        return "\n".join(lines)


def shred_query(
    query: ObjectQuery,
    registry: DefinitionRegistry,
    user: Optional[str] = None,
) -> ShreddedQuery:
    """Resolve and flatten ``query`` against ``registry`` (paper §4:
    "queries are first shredded to determine the number of metadata
    attribute criteria that must be met").

    Raises
    ------
    QueryError
        For definitions ``user`` does not see, a parentless name that
        is a sub-attribute under more than one parent, non-queryable
        attributes, type-invalid comparison values, or an empty query.
    """
    if query.is_empty():
        raise QueryError("query has no attribute criteria")
    shredded = ShreddedQuery()

    def walk(criteria: AttributeCriteria, parent: Optional[QAttr], depth: int) -> QAttr:
        parent_def = registry.attribute(parent.attr_def_id) if parent else None
        attr_def = registry.resolve_attribute(
            criteria.name, criteria.source, user=user, parent=parent_def
        )
        if attr_def is None:
            raise QueryError(
                f"no attribute definition ({criteria.name!r}, {criteria.source!r})"
                + (f" under {parent_def.name!r}" if parent_def else "")
            )
        if not attr_def.queryable:
            raise QueryError(
                f"attribute ({criteria.name!r}, {criteria.source!r}) is not queryable"
            )
        qattr = QAttr(
            len(shredded.qattrs) + 1,
            attr_def.attr_id,
            parent.qattr_id if parent else None,
            depth,
        )
        shredded.qattrs.append(qattr)
        if parent is not None:
            parent.child_qattr_ids.append(qattr.qattr_id)

        for criterion in criteria.elements:
            elem_def = registry.lookup_element(
                attr_def, criterion.name, criterion.source, user
            )
            if elem_def is None and criterion.source == "":
                # Leaf attributes register their element under their own
                # name; allow the common shorthand of querying them by the
                # attribute name with an empty source.
                elem_def = registry.lookup_element(
                    attr_def, criterion.name, attr_def.source, user
                )
            if elem_def is None:
                raise QueryError(
                    f"no element definition ({criterion.name!r}, "
                    f"{criterion.source!r}) for attribute {criteria.name!r}"
                )
            numeric = elem_def.value_type in (ValueType.INTEGER, ValueType.FLOAT)
            value = criterion.value
            value_set: Optional[frozenset] = None
            value_num: Optional[float] = None
            value_text: Optional[str] = None
            if criterion.op is Op.IN_SET:
                try:
                    values = list(value)
                except TypeError:
                    raise QueryError(
                        f"IN_SET criterion on {criterion.name!r} needs an "
                        f"iterable of values, got {value!r}"
                    ) from None
                if not values:
                    raise QueryError(
                        f"IN_SET criterion on {criterion.name!r} has no values"
                    )
                if numeric:
                    try:
                        value_set = frozenset(float(v) for v in values)
                    except (TypeError, ValueError):
                        raise QueryError(
                            f"IN_SET criterion on numeric element "
                            f"{criterion.name!r} has non-numeric values"
                        ) from None
                else:
                    value_set = frozenset(str(v) for v in values)
            elif numeric:
                try:
                    value_num = float(value)
                except (TypeError, ValueError):
                    raise QueryError(
                        f"criterion on numeric element {criterion.name!r} has "
                        f"non-numeric value {value!r}"
                    ) from None
                if criterion.op is Op.CONTAINS:
                    raise QueryError(
                        f"CONTAINS is not defined for numeric element {criterion.name!r}"
                    )
            else:
                value_text = str(value)
            shredded.qelems.append(
                QElem(
                    len(shredded.qelems) + 1,
                    qattr.qattr_id,
                    elem_def.elem_id,
                    criterion.op,
                    value_text,
                    value_num,
                    numeric,
                    value_set=value_set,
                )
            )
            qattr.direct_elem_count += 1

        for sub in criteria.sub_attributes:
            child = walk(sub, qattr, depth + 1)
            qattr.subtree_elem_count += child.subtree_elem_count
            qattr.subtree_attr_count += child.subtree_attr_count
        qattr.subtree_elem_count += qattr.direct_elem_count
        if qattr.direct_elem_count == 0 and not criteria.sub_attributes:
            # An attribute criterion with no conditions is an existence
            # test — allowed, it just requires one instance of the def.
            pass
        return qattr

    for top in query.attributes:
        qattr = walk(top, None, 0)
        shredded.top_qattr_ids.append(qattr.qattr_id)
    shredded.simple = shredded.is_simple(registry)
    return shredded
