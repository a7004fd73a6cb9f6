"""Annotated schema model (paper §2).

The hybrid approach starts from the community XML schema, *annotated*
with which elements are metadata attributes, sub-attributes, and
metadata elements.  (The paper's conclusion proposes exactly this: "a
framework for metadata catalogs ... based on an annotated schema to
indicate which schema elements are structural or dynamic metadata
attributes and elements".)

Node kinds
----------

``STRUCTURAL``
    Interior node *above* the metadata attributes (e.g. ``keywords``,
    ``idinfo``).  Structural nodes participate in the global ordering
    and appear in responses only as wrapper tags.
``ATTRIBUTE``
    A metadata attribute — a single concept, stored both as a CLOB and
    shredded.  May be a leaf ("both a metadata attribute and a metadata
    element"), in which case :attr:`SchemaNode.is_element` is true.
``SUB_ATTRIBUTE``
    Interior node strictly inside an attribute subtree.
``ELEMENT``
    Leaf inside an attribute subtree; holds the actual data value.

Dynamic attributes
------------------

An ``ATTRIBUTE`` node may carry a :class:`DynamicSpec` describing how
the recursive subtree below it encodes user-defined attributes: which
child names the attribute (``enttypl``), which gives its source
(``enttypds``), the recursive item tag (``attr``) and its label /
source / value tags.  See :mod:`repro.core.shredder` for how recursion
"disappears" at shred time.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterator, List, Optional, Sequence

from ..errors import SchemaError


class NodeKind(enum.Enum):
    STRUCTURAL = "structural"
    ATTRIBUTE = "attribute"
    SUB_ATTRIBUTE = "sub_attribute"
    ELEMENT = "element"


class ValueType(enum.Enum):
    """Declared type of a metadata element's value.

    Used both for validation at shred time and for typed comparison in
    queries (a ``dx = 1000`` criterion compares numerically).
    """

    STRING = "string"
    INTEGER = "integer"
    FLOAT = "float"
    DATE = "date"

    def parse(self, raw: str):
        """Parse raw character data into the typed value.

        Raises
        ------
        ValueError
            If the text does not conform to the declared type.
        """
        raw = raw.strip()
        if self is ValueType.STRING:
            return raw
        if self is ValueType.INTEGER:
            return int(raw)
        if self is ValueType.FLOAT:
            return float(raw)
        # DATE: ISO-8601 calendar date, kept as a normalized string so it
        # sorts correctly both in the engine and in sqlite.
        parts = raw.split("-")
        if len(parts) != 3:
            raise ValueError(f"not an ISO date: {raw!r}")
        y, m, d = (int(p) for p in parts)
        if not (1 <= m <= 12 and 1 <= d <= 31):
            raise ValueError(f"not a valid date: {raw!r}")
        return f"{y:04d}-{m:02d}-{d:02d}"


class DynamicSpec:
    """How a dynamic attribute subtree encodes user-defined attributes.

    Matches the LEAD ``detailed`` convention of the paper (§3) but with
    every tag configurable, so other community schemas can annotate
    their own dynamic sections:

    * ``entity_tag`` wraps the naming block (``enttyp``); inside it,
      ``name_tag`` (``enttypl``) holds the attribute name and
      ``source_tag`` (``enttypds``) the source.
    * ``item_tag`` (``attr``) is the recursive item; its ``label_tag``
      (``attrlabl``) and ``defs_tag`` (``attrdefs``) name each
      sub-attribute or element; ``value_tag`` (``attrv``) marks a leaf
      element carrying a value; a nested ``item_tag`` marks a
      sub-attribute.  These four tags must differ: an item's children
      are told apart by tag alone.
    """

    __slots__ = (
        "entity_tag",
        "name_tag",
        "source_tag",
        "item_tag",
        "label_tag",
        "defs_tag",
        "value_tag",
    )

    def __init__(
        self,
        entity_tag: str = "enttyp",
        name_tag: str = "enttypl",
        source_tag: str = "enttypds",
        item_tag: str = "attr",
        label_tag: str = "attrlabl",
        defs_tag: str = "attrdefs",
        value_tag: str = "attrv",
    ) -> None:
        self.entity_tag = entity_tag
        self.name_tag = name_tag
        self.source_tag = source_tag
        self.item_tag = item_tag
        self.label_tag = label_tag
        self.defs_tag = defs_tag
        self.value_tag = value_tag
        item_tags = (item_tag, label_tag, defs_tag, value_tag)
        if len(set(item_tags)) != len(item_tags):
            raise SchemaError(
                f"dynamic item, label, source and value tags must differ: {item_tags}"
            )


class SchemaNode:
    """One element declaration in the annotated schema."""

    __slots__ = (
        "tag",
        "kind",
        "children",
        "parent",
        "repeatable",
        "required",
        "queryable",
        "is_element",
        "value_type",
        "dynamic",
        "has_xml_attributes",
        "order",
        "last_child_order",
    )

    def __init__(
        self,
        tag: str,
        kind: NodeKind,
        children: Optional[Sequence["SchemaNode"]] = None,
        repeatable: bool = False,
        required: bool = False,
        queryable: bool = True,
        is_element: bool = False,
        value_type: ValueType = ValueType.STRING,
        dynamic: Optional[DynamicSpec] = None,
        has_xml_attributes: bool = False,
    ) -> None:
        self.tag = tag
        self.kind = kind
        self.children: List[SchemaNode] = list(children or [])
        self.parent: Optional[SchemaNode] = None
        self.repeatable = repeatable
        self.required = required
        self.queryable = queryable
        self.is_element = is_element
        self.value_type = value_type
        self.dynamic = dynamic
        self.has_xml_attributes = has_xml_attributes
        # Assigned by the ordering pass (repro.core.ordering); None for
        # nodes inside attribute subtrees, which are never ordered.
        self.order: Optional[int] = None
        self.last_child_order: Optional[int] = None
        for child in self.children:
            child.parent = self

    # -- navigation ---------------------------------------------------
    def iter(self) -> Iterator["SchemaNode"]:
        """Pre-order traversal of this node's subtree."""
        yield self
        for child in self.children:
            yield from child.iter()

    def ancestors(self) -> List["SchemaNode"]:
        """Ancestors from parent up to the root."""
        out = []
        node = self.parent
        while node is not None:
            out.append(node)
            node = node.parent
        return out

    def path(self) -> str:
        """Slash path from the root, e.g. ``data/idinfo/keywords/theme``."""
        parts = [self.tag]
        node = self.parent
        while node is not None:
            parts.append(node.tag)
            node = node.parent
        return "/".join(reversed(parts))

    def find_child(self, tag: str) -> Optional["SchemaNode"]:
        for child in self.children:
            if child.tag == tag:
                return child
        return None

    def enclosing_attribute(self) -> Optional["SchemaNode"]:
        """The ATTRIBUTE node at or above this node, if any."""
        node: Optional[SchemaNode] = self
        while node is not None:
            if node.kind is NodeKind.ATTRIBUTE:
                return node
            node = node.parent
        return None

    @property
    def is_attribute(self) -> bool:
        return self.kind is NodeKind.ATTRIBUTE

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SchemaNode({self.tag!r}, {self.kind.value})"


# ---------------------------------------------------------------------------
# Declarative constructors — the schema-authoring surface.
# ---------------------------------------------------------------------------

def structural(tag: str, *children: SchemaNode, repeatable: bool = False,
               required: bool = False) -> SchemaNode:
    """An interior node above the metadata attributes."""
    return SchemaNode(tag, NodeKind.STRUCTURAL, children, repeatable=repeatable,
                      required=required)


def attribute(
    tag: str,
    *children: SchemaNode,
    repeatable: bool = False,
    required: bool = False,
    queryable: bool = True,
    value_type: ValueType = ValueType.STRING,
    dynamic: Optional[DynamicSpec] = None,
    has_xml_attributes: bool = False,
) -> SchemaNode:
    """A metadata attribute.  Without children it is a leaf attribute
    ("both a metadata attribute and a metadata element")."""
    # A childless attribute is a leaf element carrying its own value —
    # unless it is dynamic, in which case its content is defined by the
    # DynamicSpec rather than by static schema children.
    return SchemaNode(
        tag,
        NodeKind.ATTRIBUTE,
        children,
        repeatable=repeatable,
        required=required,
        queryable=queryable,
        is_element=not children and dynamic is None,
        value_type=value_type,
        dynamic=dynamic,
        has_xml_attributes=has_xml_attributes,
    )


def sub_attribute(tag: str, *children: SchemaNode, repeatable: bool = False,
                  required: bool = False) -> SchemaNode:
    if not children:
        raise SchemaError(f"sub-attribute {tag!r} must have children; use melement for leaves")
    return SchemaNode(tag, NodeKind.SUB_ATTRIBUTE, children, repeatable=repeatable,
                      required=required)


def melement(tag: str, value_type: ValueType = ValueType.STRING,
             repeatable: bool = False, required: bool = False,
             has_xml_attributes: bool = False) -> SchemaNode:
    """A metadata element — a leaf carrying a data value."""
    return SchemaNode(tag, NodeKind.ELEMENT, None, repeatable=repeatable,
                      required=required, value_type=value_type, is_element=True,
                      has_xml_attributes=has_xml_attributes)


class AnnotatedSchema:
    """A validated, ordered annotated schema.

    Construction runs the partition-rule validator
    (:mod:`repro.core.partition`) and the schema-level global ordering
    pass (:mod:`repro.core.ordering`); an invalid annotation raises
    :class:`~repro.errors.SchemaError` immediately, so any schema object
    that exists is usable.
    """

    def __init__(self, root: SchemaNode, name: str = "schema") -> None:
        # Imports are local to avoid a cycle: partition/ordering import
        # the node types from this module.
        from .ordering import assign_global_order
        from .partition import validate_partition

        self.root = root
        self.name = name
        validate_partition(root)
        self.ordered_nodes: List[SchemaNode] = assign_global_order(root)
        self._by_order: Dict[int, SchemaNode] = {
            n.order: n for n in self.ordered_nodes  # type: ignore[misc]
        }
        self._attributes: List[SchemaNode] = [
            n for n in self.ordered_nodes if n.kind is NodeKind.ATTRIBUTE
        ]
        self._attribute_by_tag: Dict[str, SchemaNode] = {}
        for node in self._attributes:
            if node.tag in self._attribute_by_tag:
                raise SchemaError(
                    f"attribute tag {node.tag!r} appears twice in the schema; "
                    "structural attribute tags must be unique for tag-based "
                    "definition lookup (paper §3)"
                )
            self._attribute_by_tag[node.tag] = node

    # -- lookups --------------------------------------------------------
    def node_by_order(self, order: int) -> SchemaNode:
        try:
            return self._by_order[order]
        except KeyError:
            raise SchemaError(f"no ordered node {order} in schema {self.name!r}") from None

    def attributes(self) -> List[SchemaNode]:
        """All metadata-attribute nodes, in global order."""
        return list(self._attributes)

    def attribute_by_tag(self, tag: str) -> Optional[SchemaNode]:
        return self._attribute_by_tag.get(tag)

    def max_order(self) -> int:
        return len(self.ordered_nodes)

    def iter_nodes(self) -> Iterator[SchemaNode]:
        return self.root.iter()

    def describe(self) -> str:
        """Human-readable annotated tree (used by examples; mirrors the
        bold/italic annotation of the paper's Figure 2)."""
        lines: List[str] = []
        self._describe(self.root, 0, lines)
        return "\n".join(lines)

    def _describe(self, node: SchemaNode, depth: int, lines: List[str]) -> None:
        marks = {
            NodeKind.STRUCTURAL: "",
            NodeKind.ATTRIBUTE: " [ATTRIBUTE]",
            NodeKind.SUB_ATTRIBUTE: " [sub-attribute]",
            NodeKind.ELEMENT: " <element>",
        }
        order = f" #{node.order}" if node.order is not None else ""
        extras = []
        if node.repeatable:
            extras.append("repeatable")
        if node.dynamic is not None:
            extras.append("dynamic")
        if node.kind is NodeKind.ATTRIBUTE and node.is_element:
            extras.append("leaf")
        suffix = f" ({', '.join(extras)})" if extras else ""
        lines.append(f"{'  ' * depth}{node.tag}{marks[node.kind]}{order}{suffix}")
        for child in node.children:
            self._describe(child, depth + 1, lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AnnotatedSchema({self.name!r}, ordered={len(self.ordered_nodes)})"
