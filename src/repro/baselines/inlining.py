"""Schema-inlining baseline (paper §6: Shanmugasundaram et al. [14]).

Under **shared inlining**, elements are folded into their parent's
relational table as columns for as long as the schema permits only a
single occurrence; a new table is split off at every set-valued element
(``maxOccurs > 1``) and at every recursion point.  For the LEAD schema
this yields:

* one wide root table with the single-occurrence leaves inlined as
  path-named columns (``data_idinfo_status_progress``, ...);
* one table per repeatable attribute (``theme``, ``place``, ...) and
  per repeatable leaf (``themekey``, ``origin``, ...), with
  parent foreign keys and sibling ordinals;
* the dynamic ``detailed`` section split into a host table (entity
  columns inlined) plus a **self-referencing item table** — the
  recursion cannot be inlined away, so dynamic attribute criteria
  become chains of self-joins, and the dynamic content "would be split
  into numerous tables due to the cardinality issue" exactly as §6
  argues.

Typed shadow columns (numeric leaves get a ``REAL`` column next to the
text) keep value comparisons fair against the hybrid scheme.

Reconstruction joins the tables back and rebuilds the tree in schema
order — inlining stores no total document order ([20]'s criticism; the
per-document ordering costs of fixing that are measured separately in
bench E7).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.definitions import DefinitionRegistry
from ..core.query import AttributeCriteria, ElementCriterion, ObjectQuery
from ..core.schema import AnnotatedSchema, DynamicSpec, SchemaNode, ValueType
from ..errors import CatalogError, QueryError, ShredError
from ..relational import Database, Table, integer, real, text
from ..xmlkit import Element, parse
from .base import CatalogScheme


def _sanitize(tag: str) -> str:
    return tag.replace("-", "_").lower()


class _TableSpec:
    """One generated table: where a schema subtree's rows live."""

    __slots__ = (
        "name", "node", "parent", "columns", "numeric_columns",
        "child_specs", "dynamic", "table",
    )

    def __init__(self, name: str, node: SchemaNode, parent: Optional["_TableSpec"]) -> None:
        self.name = name
        self.node = node
        self.parent = parent
        # schema node -> column name (single-occurrence leaves inlined here)
        self.columns: Dict[int, str] = {}
        self.numeric_columns: Dict[int, str] = {}
        # table-root children split out of this spec's subtree
        self.child_specs: List[_TableSpec] = []
        self.dynamic: Optional[DynamicSpec] = node.dynamic
        self.table: Optional[Table] = None


class InliningCatalog(CatalogScheme):
    """Shared-inlining storage for schema-based metadata documents."""

    name = "inlining"

    def __init__(
        self,
        schema: AnnotatedSchema,
        registry: Optional[DefinitionRegistry] = None,
    ) -> None:
        self.schema = schema
        self.registry = registry if registry is not None else DefinitionRegistry(schema)
        self.db = Database("inlining")
        self._spec_of_node: Dict[int, _TableSpec] = {}
        self._column_of_node: Dict[int, Tuple[_TableSpec, str, Optional[str]]] = {}
        self._item_tables: Dict[str, Table] = {}
        self.root_spec = self._derive(schema.root, None, prefix="")
        self._create_tables()
        self._next_doc = 1
        self._next_row = 1

    # ------------------------------------------------------------------
    # Schema → table derivation
    # ------------------------------------------------------------------
    def _derive(self, node: SchemaNode, parent: Optional[_TableSpec], prefix: str) -> _TableSpec:
        """Create the spec for table-root ``node`` and inline its subtree."""
        name = "t_" + _sanitize(node.tag) if parent is None else (
            parent.name.replace("t_", "t_", 1) + "__" + _sanitize(node.tag)
        )
        spec = _TableSpec(name, node, parent)
        self._spec_of_node[id(node)] = spec
        if parent is not None:
            parent.child_specs.append(spec)
        if node.dynamic is not None:
            # Entity columns inlined; items go to the self-referencing
            # item table created in _create_tables.
            return spec
        if node.is_leaf:
            # Set-valued leaf: one value column.
            column = _sanitize(node.tag)
            spec.columns[id(node)] = column
            if node.value_type in (ValueType.INTEGER, ValueType.FLOAT):
                spec.numeric_columns[id(node)] = column + "_num"
            self._column_of_node[id(node)] = (
                spec, column, spec.numeric_columns.get(id(node))
            )
            return spec
        self._inline(node, spec, prefix)
        return spec

    def _inline(self, node: SchemaNode, spec: _TableSpec, prefix: str) -> None:
        for child in node.children:
            child_prefix = f"{prefix}{_sanitize(child.tag)}"
            if child.repeatable:
                self._derive(child, spec, prefix="")
            elif child.is_leaf:
                column = child_prefix
                spec.columns[id(child)] = column
                if child.value_type in (ValueType.INTEGER, ValueType.FLOAT):
                    spec.numeric_columns[id(child)] = column + "_num"
                self._column_of_node[id(child)] = (
                    spec, column, spec.numeric_columns.get(id(child))
                )
            else:
                if child.dynamic is not None:
                    self._derive(child, spec, prefix="")
                else:
                    self._inline(child, spec, prefix=child_prefix + "_")

    def _create_tables(self) -> None:
        for spec in self._all_specs(self.root_spec):
            columns = [
                integer("row_id", nullable=False),
                integer("doc_id", nullable=False),
                integer("parent_row_id"),
                integer("ordinal", nullable=False),
            ]
            if spec.dynamic is not None:
                columns.append(text("entity_name"))
                columns.append(text("entity_source"))
            for node_key, column in spec.columns.items():
                columns.append(text(column))
                numeric = spec.numeric_columns.get(node_key)
                if numeric:
                    columns.append(real(numeric))
            spec.table = self.db.create_table(spec.name, columns, primary_key=["row_id"])
            spec.table.create_index(spec.name + "_by_doc", ["doc_id"])
            spec.table.create_index(spec.name + "_by_parent", ["parent_row_id"])
            if spec.dynamic is not None:
                spec.table.create_index(
                    spec.name + "_by_entity", ["entity_name", "entity_source"]
                )
                item = self.db.create_table(
                    spec.name + "_item",
                    [
                        integer("row_id", nullable=False),
                        integer("doc_id", nullable=False),
                        integer("host_row_id", nullable=False),
                        integer("parent_item_id"),  # NULL = directly under host
                        text("label", nullable=False),
                        text("defs", nullable=False),
                        text("value"),
                        real("value_num"),
                        integer("ordinal", nullable=False),
                    ],
                    primary_key=["row_id"],
                )
                item.create_index(spec.name + "_item_by_host", ["host_row_id"])
                item.create_index(spec.name + "_item_by_parent", ["parent_item_id"])
                item.create_index(spec.name + "_item_by_label", ["label", "defs"])
                item.create_index(spec.name + "_item_by_doc", ["doc_id"])
                self._item_tables[spec.name] = item

    def _all_specs(self, spec: _TableSpec) -> List[_TableSpec]:
        out = [spec]
        for child in spec.child_specs:
            out.extend(self._all_specs(child))
        return out

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def ingest(self, document: str, name: str = "") -> int:
        root = parse(document).root
        if root.tag != self.schema.root.tag:
            raise ShredError(
                f"document root {root.tag!r} does not match schema root "
                f"{self.schema.root.tag!r}"
            )
        doc_id = self._next_doc
        self._next_doc += 1
        self._store_row(root, self.schema.root, self.root_spec, doc_id, None, 1)
        return doc_id

    def _new_row_id(self) -> int:
        row_id = self._next_row
        self._next_row += 1
        return row_id

    def _store_row(
        self,
        element: Element,
        node: SchemaNode,
        spec: _TableSpec,
        doc_id: int,
        parent_row_id: Optional[int],
        ordinal: int,
    ) -> int:
        """Insert the row for table-root ``element`` and recurse."""
        assert spec.table is not None
        row_id = self._new_row_id()
        values: Dict[str, Any] = {
            "row_id": row_id,
            "doc_id": doc_id,
            "parent_row_id": parent_row_id,
            "ordinal": ordinal,
        }
        if spec.dynamic is not None:
            self._store_dynamic(element, spec, doc_id, row_id, values)
            spec.table.insert_dict(**values)
            return row_id
        if node.is_leaf:
            column = spec.columns[id(node)]
            values[column] = element.text().strip()
            numeric = spec.numeric_columns.get(id(node))
            if numeric:
                values[numeric] = _maybe_float(element.text())
            spec.table.insert_dict(**values)
            return row_id
        pending: List[Tuple[Element, SchemaNode, _TableSpec, int]] = []
        self._collect(element, node, spec, values, pending, doc_id)
        spec.table.insert_dict(**values)
        counters: Dict[str, int] = {}
        for child_el, child_node, child_spec, _depth in pending:
            n = counters.get(child_spec.name, 0) + 1
            counters[child_spec.name] = n
            self._store_row(child_el, child_node, child_spec, doc_id, row_id, n)
        return row_id

    def _collect(
        self,
        element: Element,
        node: SchemaNode,
        spec: _TableSpec,
        values: Dict[str, Any],
        pending: List,
        doc_id: int,
    ) -> None:
        """Fill inlined columns from ``element``'s subtree; queue rows for
        split-off child tables."""
        for child in element.children:
            if isinstance(child, str):
                continue
            child_node = node.find_child(child.tag)
            if child_node is None:
                raise ShredError(
                    f"element <{child.tag}> inside <{element.tag}> is not in "
                    "the schema"
                )
            child_spec = self._spec_of_node.get(id(child_node))
            if child_spec is not None and child_spec is not spec:
                pending.append((child, child_node, child_spec, 0))
                continue
            if child_node.is_leaf:
                column = spec.columns[id(child_node)]
                if values.get(column) is not None:
                    raise ShredError(
                        f"element <{child.tag}> occurs twice but is inlined "
                        "as a single column"
                    )
                values[column] = child.text().strip()
                numeric = spec.numeric_columns.get(id(child_node))
                if numeric:
                    values[numeric] = _maybe_float(child.text())
            else:
                self._collect(child, child_node, spec, values, pending, doc_id)

    def _store_dynamic(
        self,
        element: Element,
        spec: _TableSpec,
        doc_id: int,
        host_row_id: int,
        values: Dict[str, Any],
    ) -> None:
        dynamic = spec.dynamic
        assert dynamic is not None
        entity = element.find(dynamic.entity_tag)
        if entity is not None:
            name_el = entity.find(dynamic.name_tag)
            source_el = entity.find(dynamic.source_tag)
            values["entity_name"] = name_el.text().strip() if name_el is not None else None
            values["entity_source"] = source_el.text().strip() if source_el is not None else None
        item_table = self._item_tables[spec.name]

        def store_items(parent_el: Element, parent_item_id: Optional[int]) -> None:
            for ordinal, item in enumerate(parent_el.find_all(dynamic.item_tag), start=1):
                label_el = item.find(dynamic.label_tag)
                defs_el = item.find(dynamic.defs_tag)
                value_el = item.find(dynamic.value_tag)
                label = label_el.text().strip() if label_el is not None else ""
                defs = defs_el.text().strip() if defs_el is not None else ""
                value = value_el.text().strip() if value_el is not None else None
                row_id = self._new_row_id()
                item_table.insert_dict(
                    row_id=row_id,
                    doc_id=doc_id,
                    host_row_id=host_row_id,
                    parent_item_id=parent_item_id,
                    label=label,
                    defs=defs,
                    value=value,
                    value_num=_maybe_float(value) if value is not None else None,
                    ordinal=ordinal,
                )
                store_items(item, row_id)

        store_items(element, None)

    # ------------------------------------------------------------------
    # Query
    # ------------------------------------------------------------------
    def query(self, query: ObjectQuery) -> List[int]:
        if query.is_empty():
            raise QueryError("query has no attribute criteria")
        result: Optional[set] = None
        for criteria in query.attributes:
            objects = self._match_top(criteria)
            result = objects if result is None else (result & objects)
            if not result:
                return []
        return sorted(result or set())

    def _match_top(self, criteria: AttributeCriteria) -> set:
        attr_def = self.registry.resolve_attribute(criteria.name, criteria.source)
        if attr_def is not None and not attr_def.structural:
            return self._match_dynamic(criteria)
        return self._match_structural(criteria)

    # -- structural -----------------------------------------------------
    def _match_structural(self, criteria: AttributeCriteria) -> set:
        node = self._find_schema_node(criteria.name)
        if node is None:
            raise QueryError(f"no schema element {criteria.name!r}")
        rows = self._structural_instance_rows(node, criteria)
        return {values["doc_id"] for values in rows}

    def _structural_instance_rows(
        self, node: SchemaNode, criteria: AttributeCriteria
    ) -> List[Dict[str, Any]]:
        """Rows (as dicts) of instances of ``node`` satisfying the
        criteria (element predicates + nested structural criteria)."""
        spec = self._spec_of_node.get(id(node))
        if spec is not None:
            assert spec.table is not None
            candidates = [dict(zip(spec.table.column_names, row)) for row in spec.table.scan()]
            host_spec = spec
        else:
            # Inlined: instances are rows of the enclosing table, present
            # only when at least one of the node's columns is non-NULL.
            host_spec = self._enclosing_spec(node)
            assert host_spec.table is not None
            present_columns = self._descendant_columns(node, host_spec)
            candidates = []
            for row in host_spec.table.scan():
                values = dict(zip(host_spec.table.column_names, row))
                if any(values.get(c) is not None for c in present_columns):
                    candidates.append(values)
        out = []
        for row in candidates:
            if self._structural_row_matches(row, node, host_spec, criteria):
                out.append(row)
        return out

    def _enclosing_spec(self, node: SchemaNode) -> _TableSpec:
        """The table spec whose rows carry ``node``'s inlined columns."""
        current: Optional[SchemaNode] = node
        while current is not None:
            spec = self._spec_of_node.get(id(current))
            if spec is not None:
                return spec
            current = current.parent
        raise QueryError(f"no table spec covers {node.tag!r}")

    def _descendant_columns(self, node: SchemaNode, spec: _TableSpec) -> List[str]:
        """Inlined columns of ``spec`` belonging to ``node``'s subtree."""
        out = []
        for child in node.iter():
            column = spec.columns.get(id(child))
            if column is not None:
                out.append(column)
        return out

    def _structural_row_matches(
        self,
        row: Dict[str, Any],
        node: SchemaNode,
        host_spec: _TableSpec,
        criteria: AttributeCriteria,
    ) -> bool:
        for criterion in criteria.elements:
            # A leaf attribute carries its own value and is queried by
            # its own name.
            if criterion.name == node.tag and node.is_leaf:
                target = node
            else:
                target = self._find_schema_child(node, criterion.name)
            if target is None:
                raise QueryError(
                    f"no element {criterion.name!r} under {node.tag!r}"
                )
            if not self._element_matches(row, host_spec, target, criterion):
                return False
        for sub in criteria.sub_attributes:
            child_node = self._find_schema_child(node, sub.name)
            if child_node is None:
                raise QueryError(f"no element {sub.name!r} under {node.tag!r}")
            sub_rows = self._structural_instance_rows(child_node, sub)
            # Containment: the sub row's parent chain must reach this row.
            if not any(
                self._row_contains(row, host_spec, sub_row) for sub_row in sub_rows
            ):
                return False
        return True

    def _element_matches(
        self,
        row: Dict[str, Any],
        host_spec: _TableSpec,
        target: SchemaNode,
        criterion: ElementCriterion,
    ) -> bool:
        hit = self._column_of_node.get(id(target))
        if hit is not None:
            spec, column, numeric_column = hit
            if spec is host_spec:
                return _criterion_matches(
                    criterion,
                    row.get(column),
                    row.get(numeric_column) if numeric_column else None,
                )
            # Set-valued leaf in its own table: semi-join on parent row.
            assert spec.table is not None
            child_rows = spec.table.lookup(["parent_row_id"], [row["row_id"]])
            names = spec.table.column_names
            for child in child_rows:
                values = dict(zip(names, child))
                if _criterion_matches(
                    criterion,
                    values.get(column),
                    values.get(numeric_column) if numeric_column else None,
                ):
                    return True
            return False
        raise QueryError(f"element {criterion.name!r} is not an inlined column")

    def _row_contains(
        self, row: Dict[str, Any], host_spec: _TableSpec, sub_row: Dict[str, Any]
    ) -> bool:
        """True if ``sub_row`` (in a descendant table) hangs below ``row``
        via parent_row_id links (joins up the spec chain)."""
        current = sub_row
        while current.get("parent_row_id") is not None:
            if current["parent_row_id"] == row["row_id"]:
                return True
            parent_id = current["parent_row_id"]
            parent_row = self._row_by_id(parent_id)
            if parent_row is None:
                return False
            current = parent_row
        return False

    def _row_by_id(self, row_id: int) -> Optional[Dict[str, Any]]:
        for spec in self._all_specs(self.root_spec):
            assert spec.table is not None
            rows = spec.table.lookup(["row_id"], [row_id])
            if rows:
                return dict(zip(spec.table.column_names, rows[0]))
        return None

    # -- dynamic ----------------------------------------------------------
    def _match_dynamic(self, criteria: AttributeCriteria) -> set:
        matches = set()
        for spec in self._all_specs(self.root_spec):
            if spec.dynamic is None:
                continue
            assert spec.table is not None
            host_rows = spec.table.lookup(
                ["entity_name", "entity_source"], [criteria.name, criteria.source]
            )
            item_table = self._item_tables[spec.name]
            names = item_table.column_names
            for host in host_rows:
                host_values = dict(zip(spec.table.column_names, host))
                if self._dynamic_host_matches(host_values, item_table, names, criteria):
                    matches.add(host_values["doc_id"])
        return matches

    def _dynamic_host_matches(
        self, host: Dict[str, Any], item_table: Table, names, criteria: AttributeCriteria
    ) -> bool:
        direct = [
            dict(zip(names, row))
            for row in item_table.lookup(["host_row_id"], [host["row_id"]])
            if row[3] is None  # parent_item_id
        ]
        return self._dynamic_items_match(direct, item_table, names, criteria)

    def _dynamic_items_match(
        self, direct: List[Dict[str, Any]], item_table: Table, names,
        criteria: AttributeCriteria,
    ) -> bool:
        for criterion in criteria.elements:
            hit = False
            for item in direct:
                if item["label"] != criterion.name:
                    continue
                if criterion.source and item["defs"] != criterion.source:
                    continue
                if _criterion_matches(criterion, item["value"], item["value_num"]):
                    hit = True
                    break
            if not hit:
                return False
        for sub in criteria.sub_attributes:
            # Any-depth search below the direct items: one self-join per
            # level walked.
            if not self._dynamic_sub_matches(direct, item_table, names, sub):
                return False
        return True

    def _dynamic_sub_matches(
        self, candidates: List[Dict[str, Any]], item_table: Table, names,
        criteria: AttributeCriteria,
    ) -> bool:
        """Any-depth search: does an item labelled (name, source) below —
        or among — ``candidates`` satisfy the criteria subtree?"""
        frontier = list(candidates)
        while frontier:
            next_frontier: List[Dict[str, Any]] = []
            for item in frontier:
                children = [
                    dict(zip(names, row))
                    for row in item_table.lookup(["parent_item_id"], [item["row_id"]])
                ]
                if (
                    item["label"] == criteria.name
                    and (not criteria.source or item["defs"] == criteria.source)
                ):
                    if self._dynamic_items_match(children, item_table, names, criteria):
                        return True
                next_frontier.extend(children)
            frontier = next_frontier
        return False

    # ------------------------------------------------------------------
    # Reconstruction
    # ------------------------------------------------------------------
    def fetch(self, object_ids: Sequence[int]) -> Dict[int, str]:
        out: Dict[int, str] = {}
        for doc_id in object_ids:
            assert self.root_spec.table is not None
            rows = self.root_spec.table.lookup(["doc_id"], [doc_id])
            if not rows:
                raise CatalogError(f"no object {doc_id}")
            row = dict(zip(self.root_spec.table.column_names, rows[0]))
            element = self._rebuild(self.schema.root, self.root_spec, row)
            out[doc_id] = element.to_xml()
        return out

    def _rebuild(self, node: SchemaNode, spec: _TableSpec, row: Dict[str, Any]) -> Element:
        if spec.dynamic is not None:
            return self._rebuild_dynamic(node, spec, row)
        element = Element(node.tag)
        if node.is_leaf:
            value = row.get(spec.columns[id(node)])
            if value:
                element.append(value)
            return element
        self._rebuild_children(node, spec, row, element)
        return element

    def _rebuild_children(
        self, node: SchemaNode, spec: _TableSpec, row: Dict[str, Any], parent: Element
    ) -> None:
        for child_node in node.children:
            child_spec = self._spec_of_node.get(id(child_node))
            if child_spec is not None and child_spec is not spec:
                assert child_spec.table is not None
                child_rows = sorted(
                    (
                        dict(zip(child_spec.table.column_names, r))
                        for r in child_spec.table.lookup(["parent_row_id"], [row["row_id"]])
                    ),
                    key=lambda r: r["ordinal"],
                )
                for child_row in child_rows:
                    parent.append(self._rebuild(child_node, child_spec, child_row))
            elif child_node.is_leaf:
                value = row.get(spec.columns[id(child_node)])
                if value is not None:
                    leaf = Element(child_node.tag)
                    if value:
                        leaf.append(value)
                    parent.append(leaf)
            else:
                wrapper = Element(child_node.tag)
                self._rebuild_children(child_node, spec, row, wrapper)
                if wrapper.children:
                    parent.append(wrapper)

    def _rebuild_dynamic(self, node: SchemaNode, spec: _TableSpec, row: Dict[str, Any]) -> Element:
        dynamic = spec.dynamic
        assert dynamic is not None
        element = Element(node.tag)
        if row.get("entity_name") is not None:
            element.append(
                Element(
                    dynamic.entity_tag,
                    children=[
                        Element(dynamic.name_tag, children=[row["entity_name"]]),
                        Element(dynamic.source_tag, children=[row.get("entity_source") or ""]),
                    ],
                )
            )
        item_table = self._item_tables[spec.name]
        names = item_table.column_names
        by_parent: Dict[Optional[int], List[Dict[str, Any]]] = {}
        for r in item_table.lookup(["host_row_id"], [row["row_id"]]):
            values = dict(zip(names, r))
            by_parent.setdefault(values["parent_item_id"], []).append(values)
        for kids in by_parent.values():
            kids.sort(key=lambda v: v["ordinal"])

        def build_item(values: Dict[str, Any]) -> Element:
            item = Element(dynamic.item_tag)
            item.append(Element(dynamic.label_tag, children=[values["label"]]))
            item.append(Element(dynamic.defs_tag, children=[values["defs"]]))
            children = by_parent.get(values["row_id"], [])
            if children:
                for child in children:
                    item.append(build_item(child))
            elif values["value"] is not None:
                item.append(Element(dynamic.value_tag, children=[values["value"]]))
            return item

        for values in by_parent.get(None, []):
            element.append(build_item(values))
        return element

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _find_schema_node(self, tag: str) -> Optional[SchemaNode]:
        for node in self.schema.iter_nodes():
            if node.tag == tag:
                return node
        return None

    def _find_schema_child(self, node: SchemaNode, tag: str) -> Optional[SchemaNode]:
        for child in node.iter():
            if child is not node and child.tag == tag:
                return child
        return None

    def storage_report(self) -> List[Tuple[str, int, int]]:
        return self.db.storage_report()


def _maybe_float(value: Optional[str]) -> Optional[float]:
    if value is None:
        return None
    try:
        return float(value.strip())
    except ValueError:
        return None


def _criterion_matches(criterion: ElementCriterion, text_value, num_value) -> bool:
    """Evaluate one criterion against a (text, numeric-shadow) pair,
    covering IN_SET with mixed value kinds."""
    from ..core.query import Op

    if criterion.op is Op.IN_SET:
        values = list(criterion.value)
        numeric = any(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in values
        )
        if numeric:
            return num_value is not None and num_value in {float(v) for v in values}
        return criterion.op.matches(text_value, {str(v) for v in values})
    numeric_query = isinstance(criterion.value, (int, float)) and not isinstance(
        criterion.value, bool
    )
    if numeric_query:
        return criterion.op.matches(num_value, float(criterion.value))
    return criterion.op.matches(text_value, str(criterion.value))
