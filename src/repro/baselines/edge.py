"""Edge-table baseline (paper §6: Florescu & Kossmann [17], the
schema-less shredding of [16][18]).

The document is a directed graph: one **edge row per element** —
``(object, node, parent, tag, ordinal)`` — plus typed value tables for
leaf text (a text table and a numeric table, per [17]'s separate value
tables by type).

Attribute queries translate into chains of parent/child probes — the
"self-joins that hinder the edge-table approach".  A dynamic attribute
criterion like ``("grid", "ARPS")`` costs four levels of navigation
(``detailed → enttyp → enttypl/enttypds``) before its elements are even
reached, and nested sub-attribute criteria walk ``attr`` chains level
by level.  Reconstruction rebuilds the element tree node by node (an
"external tagger").

The implementation uses hash indexes for each probe, which is the best
case for the scheme — the measured gap versus the hybrid plan is
therefore conservative.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..core.definitions import AttributeDef, DefinitionRegistry
from ..core.query import AttributeCriteria, ElementCriterion, ObjectQuery, Op
from ..core.schema import AnnotatedSchema, DynamicSpec
from ..errors import CatalogError, QueryError
from ..relational import Database, integer, real, text
from ..xmlkit import Element, parse
from .base import CatalogScheme

NodeKey = Tuple[int, int]  # (object_id, node_id)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


class EdgeCatalog(CatalogScheme):
    """Edge table + typed value tables."""

    name = "edge"

    def __init__(
        self,
        schema: AnnotatedSchema,
        registry: Optional[DefinitionRegistry] = None,
    ) -> None:
        self.schema = schema
        self.registry = registry if registry is not None else DefinitionRegistry(schema)
        self.db = Database("edge")
        self.edges = self.db.create_table(
            "edges",
            [
                integer("object_id", nullable=False),
                integer("node_id", nullable=False),
                integer("parent_id", nullable=False),  # 0 = document root's parent
                text("tag", nullable=False),
                integer("ordinal", nullable=False),
            ],
            primary_key=["object_id", "node_id"],
        )
        self.edges.create_index("edges_by_tag", ["tag"])
        self.edges.create_index("edges_by_parent", ["object_id", "parent_id"])
        self.edges.create_index("edges_by_object", ["object_id"])
        self.values_text = self.db.create_table(
            "values_text",
            [
                integer("object_id", nullable=False),
                integer("node_id", nullable=False),
                text("value", nullable=False),
            ],
            primary_key=["object_id", "node_id"],
        )
        self.values_num = self.db.create_table(
            "values_num",
            [
                integer("object_id", nullable=False),
                integer("node_id", nullable=False),
                real("value", nullable=False),
            ],
            primary_key=["object_id", "node_id"],
        )
        self._next_id = 1

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def ingest(self, document: str, name: str = "") -> int:
        root = parse(document).root
        object_id = self._next_id
        self._next_id += 1
        counter = [0]

        def walk(element: Element, parent_id: int, ordinal: int) -> None:
            counter[0] += 1
            node_id = counter[0]
            self.edges.insert([object_id, node_id, parent_id, element.tag, ordinal])
            kids = element.child_elements()
            if kids:
                for i, kid in enumerate(kids, start=1):
                    walk(kid, node_id, i)
            else:
                value = element.text().strip()
                self.values_text.insert([object_id, node_id, value])
                try:
                    self.values_num.insert([object_id, node_id, float(value)])
                except ValueError:
                    pass

        walk(root, 0, 1)
        return object_id

    # ------------------------------------------------------------------
    # Navigation primitives (each probe models one self-join)
    # ------------------------------------------------------------------
    def _children(self, key: NodeKey, tag: Optional[str] = None) -> List[NodeKey]:
        object_id, node_id = key
        rows = self.edges.lookup(["object_id", "parent_id"], [object_id, node_id])
        if tag is None:
            return [(row[0], row[1]) for row in rows]
        return [(row[0], row[1]) for row in rows if row[3] == tag]

    def _text(self, key: NodeKey) -> Optional[str]:
        rows = self.values_text.lookup(["object_id", "node_id"], list(key))
        return rows[0][2] if rows else None

    def _num(self, key: NodeKey) -> Optional[float]:
        rows = self.values_num.lookup(["object_id", "node_id"], list(key))
        return rows[0][2] if rows else None

    def _nodes_with_tag(self, tag: str) -> List[NodeKey]:
        return [(row[0], row[1]) for row in self.edges.lookup(["tag"], [tag])]

    # ------------------------------------------------------------------
    # Query
    # ------------------------------------------------------------------
    def query(self, query: ObjectQuery) -> List[int]:
        if query.is_empty():
            raise QueryError("query has no attribute criteria")
        result: Optional[set] = None
        for criteria in query.attributes:
            nodes = self._match_attribute(criteria, candidates=None)
            objects = {obj for obj, _node in nodes}
            result = objects if result is None else (result & objects)
            if not result:
                return []
        return sorted(result or set())

    def _match_attribute(
        self,
        criteria: AttributeCriteria,
        candidates: Optional[List[NodeKey]],
        parent: Optional[AttributeDef] = None,
    ) -> List[NodeKey]:
        """Nodes satisfying ``criteria``.  ``candidates=None`` means a
        top-level criterion (seed from the tag index); ``parent`` is the
        enclosing criterion's definition."""
        attr_def = self.registry.lookup_attribute(
            criteria.name, criteria.source, parent=parent, nested=True
        )
        structural = attr_def is None or attr_def.structural
        if structural:
            nodes = (
                self._nodes_with_tag(criteria.name)
                if candidates is None
                else [n for c in candidates for n in self._descendants_with_tag(c, criteria.name)]
            )
            matched = [n for n in nodes if self._elements_match(n, criteria.elements, dynamic=False)]
        else:
            if candidates is None:
                nodes = self._dynamic_candidates(criteria.name, criteria.source)
            else:
                nodes = [
                    n
                    for c in candidates
                    for n in self._dynamic_sub_candidates(c, criteria.name, criteria.source)
                ]
            matched = [n for n in nodes if self._elements_match(n, criteria.elements, dynamic=True)]
        for sub in criteria.sub_attributes:
            surviving = []
            for node in matched:
                if self._match_attribute(sub, candidates=[node], parent=attr_def):
                    surviving.append(node)
            matched = surviving
            if not matched:
                break
        return matched

    def _dynamic_candidates(self, name: str, source: str) -> List[NodeKey]:
        """All ``detailed``-style nodes whose entity block names
        (name, source): four navigation levels from the tag index."""
        spec = self._dynamic_spec()
        out = []
        for node in self._nodes_with_tag(spec.entity_tag):
            names = [self._text(k) for k in self._children(node, spec.name_tag)]
            sources = [self._text(k) for k in self._children(node, spec.source_tag)]
            if name in names and source in sources:
                parent = self._parent(node)
                if parent is not None:
                    out.append(parent)
        return out

    def _dynamic_sub_candidates(self, root: NodeKey, name: str, source: str) -> List[NodeKey]:
        """Descendant ``attr`` items (any depth) labelled (name, source):
        one level of self-joins per nesting level walked."""
        spec = self._dynamic_spec()
        out = []
        frontier = self._children(root, spec.item_tag)
        while frontier:
            next_frontier = []
            for item in frontier:
                labels = [self._text(k) for k in self._children(item, spec.label_tag)]
                defs = [self._text(k) for k in self._children(item, spec.defs_tag)]
                if name in labels and source in defs:
                    out.append(item)
                next_frontier.extend(self._children(item, spec.item_tag))
            frontier = next_frontier
        return out

    def _elements_match(
        self, node: NodeKey, criteria: List[ElementCriterion], dynamic: bool
    ) -> bool:
        spec = self._dynamic_spec() if dynamic else None
        for criterion in criteria:
            if dynamic:
                assert spec is not None
                hit = False
                for item in self._children(node, spec.item_tag):
                    labels = [self._text(k) for k in self._children(item, spec.label_tag)]
                    if criterion.name not in labels:
                        continue
                    defs = [self._text(k) for k in self._children(item, spec.defs_tag)]
                    if criterion.source and criterion.source not in defs:
                        continue
                    for value_node in self._children(item, spec.value_tag):
                        if self._value_matches(value_node, criterion):
                            hit = True
                            break
                    if hit:
                        break
                if not hit:
                    return False
            else:
                hit = False
                targets = self._children(node, criterion.name)
                if not targets:
                    # Leaf attribute querying its own value by its name.
                    object_tag_rows = self.edges.lookup(
                        ["object_id", "node_id"], list(node)
                    )
                    if object_tag_rows and object_tag_rows[0][3] == criterion.name:
                        targets = [node]
                for target in targets:
                    if self._value_matches(target, criterion):
                        hit = True
                        break
                if not hit:
                    return False
        return True

    def _value_matches(self, node: NodeKey, criterion: ElementCriterion) -> bool:
        if criterion.op is Op.IN_SET:
            values = list(criterion.value)
            if any(_is_number(v) for v in values):
                actual_num = self._num(node)
                return actual_num is not None and actual_num in {
                    float(v) for v in values
                }
            return criterion.op.matches(self._text(node), {str(v) for v in values})
        if _is_number(criterion.value):
            actual = self._num(node)
            return criterion.op.matches(actual, float(criterion.value))
        return criterion.op.matches(self._text(node), str(criterion.value))

    def _descendants_with_tag(self, root: NodeKey, tag: str) -> List[NodeKey]:
        out = []
        frontier = self._children(root)
        while frontier:
            next_frontier = []
            for node in frontier:
                row = self.edges.lookup(["object_id", "node_id"], list(node))[0]
                if row[3] == tag:
                    out.append(node)
                next_frontier.extend(self._children(node))
            frontier = next_frontier
        return out

    def _parent(self, key: NodeKey) -> Optional[NodeKey]:
        row = self.edges.lookup(["object_id", "node_id"], list(key))
        if not row or row[0][2] == 0:
            return None
        return (key[0], row[0][2])

    def _dynamic_spec(self) -> DynamicSpec:
        for node in self.schema.attributes():
            if node.dynamic is not None:
                return node.dynamic
        raise QueryError("schema has no dynamic attribute section")

    # ------------------------------------------------------------------
    # Reconstruction (external tagger: rebuild the tree node by node)
    # ------------------------------------------------------------------
    def fetch(self, object_ids: Sequence[int]) -> Dict[int, str]:
        out: Dict[int, str] = {}
        for object_id in object_ids:
            rows = self.edges.lookup(["object_id"], [object_id])
            if not rows:
                raise CatalogError(f"no object {object_id}")
            children: Dict[int, List[tuple]] = {}
            for row in rows:
                children.setdefault(row[2], []).append(row)
            for kids in children.values():
                kids.sort(key=lambda r: r[4])

            def build(row: tuple) -> Element:
                node = Element(row[3])
                kid_rows = children.get(row[1], [])
                if kid_rows:
                    for kid in kid_rows:
                        node.append(build(kid))
                else:
                    value = self._text((object_id, row[1]))
                    if value:
                        node.append(value)
                return node

            root_row = children[0][0]
            out[object_id] = build(root_row).to_xml()
        return out

    def storage_report(self) -> List[Tuple[str, int, int]]:
        return self.db.storage_report()
