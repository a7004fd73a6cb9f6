"""Hybrid shredding of metadata documents (paper §3).

A document is walked against the annotated schema.  Every element that
is a metadata attribute is stored **twice**:

* as a verbatim **CLOB** keyed by ``(schema order, same-sibling
  sequence)`` — the reconstruction path (§5); and
* **shredded** into attribute-instance rows, element-value rows, and an
  inverted list of sub-attribute → ancestor-attribute relationships —
  the query path (§4).

Dynamic attributes resolve their definition by ``(name, source)`` taken
from the document's entity block (``enttypl``/``enttypds``) and item
labels (``attrlabl``/``attrdefs``), not by element tag — which is how
the recursion of the community schema "disappears" at shred time.

Validation policy
-----------------

``on_unknown`` controls what happens when a dynamic attribute or
element has no definition in the registry:

* ``"store"`` (paper default) — keep it in the CLOB, do not shred it
  into the query tables, and record a warning;
* ``"reject"`` — raise :class:`~repro.errors.ValidationError`;
* ``"define"`` — auto-register an admin/user definition and shred
  (types inferred from the value text).
"""

from __future__ import annotations

import time
from typing import Dict, List, NamedTuple, Optional, Tuple

from ..errors import ShredError, ValidationError
from ..obs.metrics import MetricsRegistry, default_registry
from ..xmlkit import Document, Element
from .definitions import AttributeDef, DefinitionRegistry, ElementDef
from .schema import AnnotatedSchema, DynamicSpec, NodeKind, SchemaNode, ValueType

ON_UNKNOWN_POLICIES = ("store", "reject", "define")

# The four row classes are tuples whose field order is their table's
# column order minus the leading ``object_id``: a store writes
# ``(object_id, *row)`` and nothing converts in between.


class ClobRow(NamedTuple):
    """One stored CLOB: a metadata attribute subtree, verbatim."""

    schema_order: int
    clob_seq: int
    text: str


class AttributeRow(NamedTuple):
    """One metadata-attribute (or sub-attribute) instance."""

    attr_id: int
    seq_id: int
    clob_order: int
    clob_seq: int


class ElementRow(NamedTuple):
    """One metadata-element value inside an attribute instance."""

    attr_id: int
    seq_id: int
    elem_id: int
    elem_seq: int
    value_text: str
    value_num: Optional[float]


class InvertedRow(NamedTuple):
    """Sub-attribute instance → ancestor attribute instance, with the
    number of levels between them (0 = self)."""

    desc_attr_id: int
    desc_seq: int
    anc_attr_id: int
    anc_seq: int
    distance: int


class ShredResult:
    """Everything one document contributes to the catalog tables."""

    __slots__ = ("clobs", "attributes", "elements", "inverted", "warnings", "defined")

    def __init__(self) -> None:
        self.clobs: List[ClobRow] = []
        self.attributes: List[AttributeRow] = []
        self.elements: List[ElementRow] = []
        self.inverted: List[InvertedRow] = []
        self.warnings: List[str] = []
        self.defined: List[AttributeDef] = []

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"ShredResult(clobs={len(self.clobs)}, attrs={len(self.attributes)}, "
            f"elems={len(self.elements)}, inverted={len(self.inverted)})"
        )


class Shredder:
    """Shreds documents against one schema + definition registry."""

    def __init__(
        self,
        schema: AnnotatedSchema,
        registry: DefinitionRegistry,
        on_unknown: str = "store",
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if on_unknown not in ON_UNKNOWN_POLICIES:
            raise ValueError(f"on_unknown must be one of {ON_UNKNOWN_POLICIES}")
        self.schema = schema
        self.registry = registry
        self.on_unknown = on_unknown
        self._metrics = metrics
        self._handles = None

    def _observe(self, result: ShredResult, seconds: float) -> None:
        """Account one shred into the metrics registry.  Handles are
        resolved once and cached — this sits on the ingest hot path."""
        registry = self._metrics if self._metrics is not None else default_registry()
        if self._handles is None or self._handles[0] is not registry:
            self._handles = (
                registry,
                registry.histogram("shredder_shred_seconds",
                                   "wall time of one document/fragment shred"),
                registry.counter("shredder_documents_total",
                                 "documents and fragments shredded"),
                registry.counter("shredder_clobs_total",
                                 "CLOB rows produced by shredding"),
                registry.counter("shredder_attribute_rows_total",
                                 "attribute-instance rows produced"),
                registry.counter("shredder_element_rows_total",
                                 "element-value rows produced"),
                registry.counter("shredder_inverted_rows_total",
                                 "inverted-list rows produced"),
                registry.counter("shredder_warnings_total",
                                 "validation warnings recorded"),
            )
        (_, h_seconds, c_docs, c_clobs, c_attrs, c_elems, c_inverted,
         c_warnings) = self._handles
        h_seconds.observe(seconds)
        c_docs.inc()
        c_clobs.inc(len(result.clobs))
        c_attrs.inc(len(result.attributes))
        c_elems.inc(len(result.elements))
        c_inverted.inc(len(result.inverted))
        c_warnings.inc(len(result.warnings))

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def shred(self, document: Document, user: Optional[str] = None) -> ShredResult:
        """Shred ``document``; raises :class:`ShredError` if the document
        does not conform to the schema structure."""
        root = document.root
        if root.tag != self.schema.root.tag:
            raise ShredError(
                f"document root {root.tag!r} does not match schema root "
                f"{self.schema.root.tag!r}"
            )
        start = time.perf_counter()
        state = _ShredState(document, user, ShredResult())
        self._walk_structural(root, self.schema.root, state)
        self._observe(state.result, time.perf_counter() - start)
        return state.result

    def shred_attribute_fragment(
        self,
        document: Document,
        clob_seq: int,
        seq_base: Optional[Dict[int, int]] = None,
        user: Optional[str] = None,
    ) -> ShredResult:
        """Shred a single metadata-attribute fragment for *incremental*
        insertion into an existing object (paper §5: "as metadata
        attributes were inserted later, CLOBs were stored ...").

        ``document.root`` must be an element the schema declares as a
        metadata attribute.  ``clob_seq`` is the same-sibling sequence
        the new CLOB should take (one past the object's current count);
        ``seq_base`` carries the object's existing per-definition
        instance counts so new instance sequence ids continue from them.
        """
        root = document.root
        snode = self.schema.attribute_by_tag(root.tag)
        if snode is None:
            raise ShredError(
                f"<{root.tag}> is not a metadata attribute of schema "
                f"{self.schema.name!r}"
            )
        if clob_seq > 1 and not snode.repeatable:
            raise ShredError(
                f"attribute <{root.tag}> allows a single instance"
            )
        start = time.perf_counter()
        state = _ShredState(document, user, ShredResult(), seq_base=seq_base)
        self._shred_attribute(root, snode, clob_seq, state)
        self._observe(state.result, time.perf_counter() - start)
        return state.result

    # ------------------------------------------------------------------
    # Structural walk (above the attributes)
    # ------------------------------------------------------------------
    def _walk_structural(self, node: Element, snode: SchemaNode, state: "_ShredState") -> None:
        seen: Dict[str, int] = {}
        for child in node.children:
            if isinstance(child, str):
                if child.strip():
                    raise ShredError(
                        f"unexpected text {child.strip()[:40]!r} inside "
                        f"structural element <{node.tag}>"
                    )
                continue
            child_schema = snode.find_child(child.tag)
            if child_schema is None:
                raise ShredError(
                    f"element <{child.tag}> inside <{node.tag}> is not in the "
                    "schema; structural content must be schema-valid"
                )
            count = seen.get(child.tag, 0) + 1
            seen[child.tag] = count
            if count > 1 and not child_schema.repeatable:
                raise ShredError(
                    f"element <{child.tag}> occurs {count} times but the "
                    "schema allows a single instance"
                )
            if child_schema.kind is NodeKind.ATTRIBUTE:
                self._shred_attribute(child, child_schema, count, state)
            else:
                self._walk_structural(child, child_schema, state)
        for child_schema in snode.children:
            if child_schema.required and child_schema.tag not in seen:
                raise ShredError(
                    f"required element <{child_schema.tag}> missing from "
                    f"<{node.tag}>"
                )

    # ------------------------------------------------------------------
    # Attribute shredding
    # ------------------------------------------------------------------
    def _shred_attribute(
        self, node: Element, snode: SchemaNode, clob_seq: int, state: "_ShredState"
    ) -> None:
        assert snode.order is not None
        # The CLOB is stored unconditionally — even content that fails
        # dynamic validation remains retrievable (paper §3).
        state.result.clobs.append(
            ClobRow(snode.order, clob_seq, state.document.slice(node))
        )
        if snode.dynamic is not None:
            self._shred_dynamic(node, snode, snode.dynamic, clob_seq, state)
        else:
            attr_def = self.registry.structural_attribute(snode.tag)
            if attr_def is None:  # pragma: no cover - registry built from schema
                raise ShredError(f"no structural definition for <{snode.tag}>")
            instance = state.new_instance(attr_def, snode.order, clob_seq)
            state.result.inverted.append(
                InvertedRow(attr_def.attr_id, instance, attr_def.attr_id, instance, 0)
            )
            if snode.is_element:
                # Leaf attribute: its own text is the value.
                elem_def = self.registry.lookup_element(attr_def, snode.tag, "")
                if elem_def is not None:
                    self._add_element_value(
                        attr_def, instance, elem_def, node.text(), 1, state
                    )
            else:
                self._shred_structural_subtree(
                    node, snode, attr_def, instance, [(attr_def, instance)], state
                )

    def _shred_structural_subtree(
        self,
        node: Element,
        snode: SchemaNode,
        attr_def: AttributeDef,
        instance: int,
        ancestry: List[Tuple[AttributeDef, int]],
        state: "_ShredState",
    ) -> None:
        """Shred the inside of a structural attribute: sub-attributes and
        element values, per the schema annotation."""
        elem_seq = 0
        for child in node.children:
            if isinstance(child, str):
                continue
            child_schema = snode.find_child(child.tag)
            if child_schema is None:
                self._unknown(
                    state,
                    f"element <{child.tag}> inside attribute <{snode.tag}> is "
                    "not in the schema",
                )
                continue
            if child_schema.kind is NodeKind.ELEMENT:
                elem_def = self.registry.lookup_element(attr_def, child.tag, "")
                if elem_def is None:
                    self._unknown(
                        state,
                        f"no element definition for <{child.tag}> in attribute "
                        f"<{snode.tag}>",
                    )
                    continue
                elem_seq += 1
                self._add_element_value(
                    attr_def, instance, elem_def, child.text(), elem_seq, state
                )
            else:  # SUB_ATTRIBUTE
                sub_def = self.registry.lookup_attribute(
                    child.tag, "", user=state.user, parent=attr_def
                )
                if sub_def is None:
                    self._unknown(
                        state,
                        f"no sub-attribute definition for <{child.tag}> under "
                        f"<{snode.tag}>",
                    )
                    continue
                sub_instance = state.new_instance(
                    sub_def, ancestry[0][0].schema_order, 0
                )
                self._emit_inverted(sub_def, sub_instance, ancestry, state)
                self._shred_structural_subtree(
                    child,
                    child_schema,
                    sub_def,
                    sub_instance,
                    ancestry + [(sub_def, sub_instance)],
                    state,
                )

    # ------------------------------------------------------------------
    # Dynamic attribute shredding (recursion "disappears")
    # ------------------------------------------------------------------
    def _shred_dynamic(
        self,
        node: Element,
        snode: SchemaNode,
        spec: DynamicSpec,
        clob_seq: int,
        state: "_ShredState",
    ) -> None:
        assert snode.order is not None
        entity = node.find(spec.entity_tag)
        if entity is None:
            self._unknown(
                state,
                f"dynamic attribute <{snode.tag}> lacks an <{spec.entity_tag}> "
                "entity block",
            )
            return
        name_el = entity.find(spec.name_tag)
        source_el = entity.find(spec.source_tag)
        name = name_el.text().strip() if name_el is not None else ""
        source = source_el.text().strip() if source_el is not None else ""
        if not name or not source:
            self._unknown(
                state,
                f"dynamic attribute <{snode.tag}> entity block lacks "
                f"<{spec.name_tag}>/<{spec.source_tag}>",
            )
            return
        attr_def = self.registry.lookup_attribute(name, source, user=state.user)
        if attr_def is None:
            attr_def = self._resolve_unknown_attribute(name, source, snode, None, state)
            if attr_def is None:
                return
        instance = state.new_instance(attr_def, snode.order, clob_seq)
        state.result.inverted.append(
            InvertedRow(attr_def.attr_id, instance, attr_def.attr_id, instance, 0)
        )
        self._shred_dynamic_items(
            node, spec, snode, attr_def, instance, [(attr_def, instance)], source, state
        )

    def _shred_dynamic_items(
        self,
        node: Element,
        spec: DynamicSpec,
        snode: SchemaNode,
        attr_def: AttributeDef,
        instance: int,
        ancestry: List[Tuple[AttributeDef, int]],
        default_source: str,
        state: "_ShredState",
    ) -> None:
        elem_seq = 0
        for item in node.find_all(spec.item_tag):
            label_el = item.find(spec.label_tag)
            defs_el = item.find(spec.defs_tag)
            label = label_el.text().strip() if label_el is not None else ""
            source = defs_el.text().strip() if defs_el is not None else default_source
            if not label:
                self._unknown(
                    state,
                    f"<{spec.item_tag}> inside dynamic attribute "
                    f"{attr_def.name!r} lacks a <{spec.label_tag}>",
                )
                continue
            nested = item.find_all(spec.item_tag)
            value_el = item.find(spec.value_tag)
            if nested and value_el is not None:
                raise ShredError(
                    f"<{spec.item_tag}> {label!r} has both a value and nested "
                    f"<{spec.item_tag}> items; items are either elements or "
                    "sub-attributes (paper §3)"
                )
            if nested:
                sub_def = self.registry.lookup_attribute(
                    label, source, user=state.user, parent=attr_def
                )
                if sub_def is None:
                    sub_def = self._resolve_unknown_attribute(
                        label, source, snode, attr_def, state
                    )
                    if sub_def is None:
                        continue
                sub_instance = state.new_instance(
                    sub_def, ancestry[0][0].schema_order, 0
                )
                self._emit_inverted(sub_def, sub_instance, ancestry, state)
                self._shred_dynamic_items(
                    item,
                    spec,
                    snode,
                    sub_def,
                    sub_instance,
                    ancestry + [(sub_def, sub_instance)],
                    source,
                    state,
                )
            else:
                if value_el is None:
                    self._unknown(
                        state,
                        f"<{spec.item_tag}> {label!r} has neither a value nor "
                        "nested items",
                    )
                    continue
                elem_def = self.registry.lookup_element(attr_def, label, source)
                if elem_def is None:
                    elem_def = self._resolve_unknown_element(
                        attr_def, label, source, value_el.text(), state
                    )
                    if elem_def is None:
                        continue
                elem_seq += 1
                self._add_element_value(
                    attr_def, instance, elem_def, value_el.text(), elem_seq, state
                )

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _emit_inverted(
        self,
        sub_def: AttributeDef,
        sub_instance: int,
        ancestry: List[Tuple[AttributeDef, int]],
        state: "_ShredState",
    ) -> None:
        """Self row plus one row per ancestor, nearest first."""
        state.result.inverted.append(
            InvertedRow(sub_def.attr_id, sub_instance, sub_def.attr_id, sub_instance, 0)
        )
        for distance, (anc_def, anc_instance) in enumerate(reversed(ancestry), start=1):
            state.result.inverted.append(
                InvertedRow(
                    sub_def.attr_id, sub_instance, anc_def.attr_id, anc_instance, distance
                )
            )

    def _add_element_value(
        self,
        attr_def: AttributeDef,
        instance: int,
        elem_def: ElementDef,
        raw: str,
        elem_seq: int,
        state: "_ShredState",
    ) -> None:
        text = raw.strip()
        try:
            typed = elem_def.value_type.parse(text)
        except ValueError:
            self._unknown(
                state,
                f"value {text!r} for element {elem_def.name!r} is not a valid "
                f"{elem_def.value_type.value}",
            )
            return
        value_num = float(typed) if isinstance(typed, (int, float)) else None
        value_text = text if not isinstance(typed, str) else typed
        state.result.elements.append(
            ElementRow(
                attr_def.attr_id, instance, elem_def.elem_id, elem_seq,
                value_text, value_num,
            )
        )

    def _resolve_unknown_attribute(
        self,
        name: str,
        source: str,
        host: SchemaNode,
        parent: Optional[AttributeDef],
        state: "_ShredState",
    ) -> Optional[AttributeDef]:
        message = (
            f"dynamic attribute ({name!r}, {source!r}) is not defined"
            + (f" under {parent.name!r}" if parent is not None else "")
        )
        if self.on_unknown == "reject":
            raise ValidationError(message)
        if self.on_unknown == "store":
            state.result.warnings.append(message + "; stored as CLOB only")
            return None
        attr_def = self.registry.define_attribute(
            name, source, host=host.tag, parent=parent, user=state.user
        )
        state.result.defined.append(attr_def)
        return attr_def

    def _resolve_unknown_element(
        self,
        attr_def: AttributeDef,
        name: str,
        source: str,
        raw: str,
        state: "_ShredState",
    ) -> Optional[ElementDef]:
        message = (
            f"dynamic element ({name!r}, {source!r}) is not defined for "
            f"attribute {attr_def.name!r}"
        )
        if self.on_unknown == "reject":
            raise ValidationError(message)
        if self.on_unknown == "store":
            state.result.warnings.append(message + "; stored as CLOB only")
            return None
        return self.registry.define_element(
            attr_def, name, source, infer_value_type(raw),
            user=state.user or None,
        )

    def _unknown(self, state: "_ShredState", message: str) -> None:
        if self.on_unknown == "reject":
            raise ValidationError(message)
        state.result.warnings.append(message + "; stored as CLOB only")


def infer_value_type(raw: str) -> ValueType:
    """Infer INTEGER/FLOAT/STRING from a value's text (used when
    auto-defining dynamic elements)."""
    text = raw.strip()
    try:
        int(text)
        return ValueType.INTEGER
    except ValueError:
        pass
    try:
        float(text)
        return ValueType.FLOAT
    except ValueError:
        return ValueType.STRING


class _ShredState:
    """Per-shred mutable state: instance counters and the result.

    ``seq_base`` seeds the per-definition counters with an existing
    object's instance counts, so incremental fragments continue the
    sequence instead of colliding with stored rows.
    """

    __slots__ = ("document", "user", "result", "_instance_counters")

    def __init__(
        self,
        document: Document,
        user: Optional[str],
        result: ShredResult,
        seq_base: Optional[Dict[int, int]] = None,
    ) -> None:
        self.document = document
        self.user = user
        self.result = result
        self._instance_counters: Dict[int, int] = dict(seq_base or {})

    def new_instance(self, attr_def: AttributeDef, clob_order: int, clob_seq: int) -> int:
        """Allocate the next sequence id for ``attr_def`` in this document
        and record the attribute-instance row."""
        seq = self._instance_counters.get(attr_def.attr_id, 0) + 1
        self._instance_counters[attr_def.attr_id] = seq
        self.result.attributes.append(
            AttributeRow(attr_def.attr_id, seq, clob_order, clob_seq)
        )
        return seq
