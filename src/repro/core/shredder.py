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
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple, Union

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


#: Builds a row tuple directly: a NamedTuple's own ``__new__`` is a
#: Python function, one frame per row on the ingest hot path.
_row = tuple.__new__


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


class _Structure:
    """A structural schema node compiled for the walk: each allowed child
    tag with its repeatable flag and what it is (a nested
    ``_Structure`` or an attribute's :class:`SchemaNode`), and the tags
    that must appear, in schema order.  Depends on the schema alone."""

    __slots__ = ("children", "required")

    def __init__(self, snode: SchemaNode) -> None:
        self.children: Dict[str, Tuple[bool, Union["_Structure", SchemaNode]]] = {}
        for child in snode.children:
            inner = child if child.kind is NodeKind.ATTRIBUTE else _Structure(child)
            self.children.setdefault(child.tag, (child.repeatable, inner))
        self.required = tuple(c.tag for c in snode.children if c.required)


#: ``_Inside`` entry kinds.
_ELEMENT, _SUB_ATTRIBUTE, _UNDEFINED = 0, 1, 2


class _Inside:
    """The inside of one structural attribute or sub-attribute, resolved
    for one user at one registry version: per child tag, either
    ``(_ELEMENT, ElementDef, value parser)``, ``(_SUB_ATTRIBUTE,
    AttributeDef, _Inside)`` or ``(_UNDEFINED, warning)``."""

    __slots__ = ("tag", "entries")

    def __init__(self, tag: str, entries: Dict[str, tuple]) -> None:
        self.tag = tag
        self.entries = entries


class _Plan:
    """What shredding needs from the registry, for one user at one
    registry version.

    ``attributes`` maps each structural attribute's tag to its
    definition, its leaf value ``(ElementDef, parser)`` (or ``None``)
    and its ``_Inside``; it is complete when the plan is published and
    never changes.  The two memos remember dynamic lookups —
    ``(name, source, parent id)`` → ``AttributeDef`` and
    ``(attr id, label, source)`` → ``(ElementDef, parser)``, misses
    included — and are read only while the registry still reads
    ``version``.  A definition is in place before the version moves, so
    every entry a reader can see is the registry's answer at
    ``version``; one filled after the move sits in a plan nobody reads.
    """

    __slots__ = ("version", "attributes", "attribute_memo", "element_memo")

    def __init__(self, version: int, attributes: Dict[str, tuple]) -> None:
        self.version = version
        self.attributes = attributes
        self.attribute_memo: Dict[tuple, Optional[AttributeDef]] = {}
        self.element_memo: Dict[tuple, Optional[tuple]] = {}


#: A memo stops growing here: documents can name any number of unknown
#: labels, and a miss is remembered like a hit.
_MEMO_LIMIT = 4096
#: Plans kept per registry version, one per user.
_PLAN_LIMIT = 64
_MISSING = object()


def _string_value(text: str) -> Tuple[str, Optional[float]]:
    return text, None


def _integer_value(text: str) -> Tuple[str, Optional[float]]:
    return text, float(int(text))


def _float_value(text: str) -> Tuple[str, Optional[float]]:
    return text, float(text)


def _date_value(text: str) -> Tuple[str, Optional[float]]:
    return ValueType.DATE.parse(text), None


#: ``(value_text, value_num)`` of a stripped value, typed as
#: :meth:`ValueType.parse` types it; ``ValueError`` when it does not parse.
_VALUE_PARSERS: Dict[ValueType, Callable[[str], Tuple[str, Optional[float]]]] = {
    ValueType.STRING: _string_value,
    ValueType.INTEGER: _integer_value,
    ValueType.FLOAT: _float_value,
    ValueType.DATE: _date_value,
}


def _typed(elem_def: Optional[ElementDef]) -> Optional[tuple]:
    """``(elem_def, its value parser)``, or ``None`` for no definition."""
    if elem_def is None:
        return None
    return elem_def, _VALUE_PARSERS[elem_def.value_type]


class Shredder:
    """Shreds documents against one schema + definition registry.

    The per-node work of the walk is done once, not per document: the
    schema's structure is compiled when the shredder is built, and the
    registry lookups into a :class:`_Plan` per user, rebuilt when the
    registry's ``version`` moves.  A plan is built whole and then
    published by one assignment, so shreds running on other threads
    see either the old plan table or the new one.
    """

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
        self._structure = _Structure(schema.root)
        self._plans: Dict[Optional[str], _Plan] = {}

    def _observe(self, result: ShredResult, seconds: float) -> None:
        """Account one shred into the metrics registry.  Handles are
        resolved once and cached — this sits on the ingest hot path —
        down to each unlabeled family's one series."""
        registry = self._metrics if self._metrics is not None else default_registry()
        if self._handles is None or self._handles[0] is not registry:
            self._handles = (
                registry,
                registry.histogram("shredder_shred_seconds",
                                   "wall time of one document/fragment shred").labels(),
                registry.counter("shredder_documents_total",
                                 "documents and fragments shredded").labels(),
                registry.counter("shredder_clobs_total",
                                 "CLOB rows produced by shredding").labels(),
                registry.counter("shredder_attribute_rows_total",
                                 "attribute-instance rows produced").labels(),
                registry.counter("shredder_element_rows_total",
                                 "element-value rows produced").labels(),
                registry.counter("shredder_inverted_rows_total",
                                 "inverted-list rows produced").labels(),
                registry.counter("shredder_warnings_total",
                                 "validation warnings recorded").labels(),
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
        state = _ShredState(document, user, ShredResult(), self._plan(user))
        self._walk(root, self._structure, state)
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
        state = _ShredState(
            document, user, ShredResult(), self._plan(user), seq_base=seq_base
        )
        self._shred_attribute(root, snode, clob_seq, state)
        self._observe(state.result, time.perf_counter() - start)
        return state.result

    # ------------------------------------------------------------------
    # The plan
    # ------------------------------------------------------------------
    def _plan(self, user: Optional[str]) -> _Plan:
        """``user``'s plan at the registry's current version."""
        version = self.registry.version
        plan = self._plans.get(user)
        if plan is not None and plan.version == version:
            return plan
        plan = _Plan(version, {
            snode.tag: self._compile_attribute(snode, user)
            for snode in self.schema.attributes()
            if snode.dynamic is None
        })
        kept = {u: p for u, p in self._plans.items() if p.version == version}
        if len(kept) >= _PLAN_LIMIT:
            kept = {}
        kept[user] = plan
        self._plans = kept
        return plan

    def _compile_attribute(self, snode: SchemaNode, user: Optional[str]) -> tuple:
        """``(AttributeDef, leaf value or None, _Inside)`` of a structural
        attribute."""
        attr_def = self.registry.structural_attribute(snode.tag)
        if attr_def is None:  # pragma: no cover - registry built from schema
            raise ShredError(f"no structural definition for <{snode.tag}>")
        leaf = None
        if snode.is_element:
            # Leaf attribute: its own text is the value.
            elem_def = self.registry.lookup_element(attr_def, snode.tag, "")
            leaf = _typed(elem_def)
        return attr_def, leaf, self._compile_inside(snode, attr_def, user)

    def _compile_inside(
        self, snode: SchemaNode, attr_def: AttributeDef, user: Optional[str]
    ) -> _Inside:
        entries: Dict[str, tuple] = {}
        for child in snode.children:
            if child.tag in entries:
                continue
            if child.kind is NodeKind.ELEMENT:
                element = _typed(self.registry.lookup_element(attr_def, child.tag, ""))
                entries[child.tag] = (
                    (_ELEMENT, *element) if element is not None else
                    (_UNDEFINED, f"no element definition for <{child.tag}> in "
                                 f"attribute <{snode.tag}>")
                )
            else:  # SUB_ATTRIBUTE; a user's own definition wins (§3)
                sub_def = self.registry.lookup_attribute(
                    child.tag, "", user=user, parent=attr_def
                )
                entries[child.tag] = (
                    (_SUB_ATTRIBUTE, sub_def, self._compile_inside(child, sub_def, user))
                    if sub_def is not None else
                    (_UNDEFINED, f"no sub-attribute definition for <{child.tag}> "
                                 f"under <{snode.tag}>")
                )
        return _Inside(snode.tag, entries)

    # ------------------------------------------------------------------
    # Structural walk (above the attributes)
    # ------------------------------------------------------------------
    def _walk(self, node: Element, structure: _Structure, state: "_ShredState") -> None:
        seen: Dict[str, int] = {}
        allowed = structure.children
        for child in node.children:
            if isinstance(child, str):
                if child.strip():
                    raise ShredError(
                        f"unexpected text {child.strip()[:40]!r} inside "
                        f"structural element <{node.tag}>"
                    )
                continue
            tag = child.tag
            entry = allowed.get(tag)
            if entry is None:
                raise ShredError(
                    f"element <{tag}> inside <{node.tag}> is not in the "
                    "schema; structural content must be schema-valid"
                )
            count = seen.get(tag, 0) + 1
            seen[tag] = count
            repeatable, inner = entry
            if count > 1 and not repeatable:
                raise ShredError(
                    f"element <{tag}> occurs {count} times but the "
                    "schema allows a single instance"
                )
            if isinstance(inner, _Structure):
                self._walk(child, inner, state)
            else:
                self._shred_attribute(child, inner, count, state)
        for tag in structure.required:
            if tag not in seen:
                raise ShredError(
                    f"required element <{tag}> missing from <{node.tag}>"
                )

    # ------------------------------------------------------------------
    # Attribute shredding
    # ------------------------------------------------------------------
    def _shred_attribute(
        self, node: Element, snode: SchemaNode, clob_seq: int, state: "_ShredState"
    ) -> None:
        assert snode.order is not None
        result = state.result
        # The CLOB is stored unconditionally — even content that fails
        # dynamic validation remains retrievable (paper §3).
        result.clobs.append(
            _row(ClobRow, (snode.order, clob_seq, state.document.slice(node)))
        )
        if state.plan.version != self.registry.version:
            # A definition was added since this shred began.
            state.plan = self._plan(state.user)
        if snode.dynamic is not None:
            self._shred_dynamic(node, snode, snode.dynamic, clob_seq, state)
            return
        attr_def, leaf, inside = state.plan.attributes[snode.tag]
        attr_id = attr_def.attr_id
        instance = state.new_instance(attr_def, snode.order, clob_seq)
        result.inverted.append(_row(InvertedRow, (attr_id, instance, attr_id, instance, 0)))
        if not snode.is_element:
            self._shred_inside(
                node, inside, attr_def, instance, [(attr_def, instance)], state
            )
        elif leaf is not None:
            # Leaf attribute: its own text is the value.
            elem_def, parse_value = leaf
            text = node.text().strip()
            try:
                value_text, value_num = parse_value(text)
            except ValueError:
                self._bad_value(state, text, elem_def)
                return
            result.elements.append(_row(ElementRow, (
                attr_id, instance, elem_def.elem_id, 1, value_text, value_num)))

    def _shred_inside(
        self,
        node: Element,
        inside: _Inside,
        attr_def: AttributeDef,
        instance: int,
        ancestry: List[Tuple[AttributeDef, int]],
        state: "_ShredState",
    ) -> None:
        """Shred the inside of a structural attribute: sub-attributes and
        element values, per the schema annotation."""
        elem_seq = 0
        entries = inside.entries
        elements = state.result.elements
        attr_id = attr_def.attr_id
        for child in node.children:
            if isinstance(child, str):
                continue
            entry = entries.get(child.tag)
            if entry is None:
                self._unknown(
                    state,
                    f"element <{child.tag}> inside attribute <{inside.tag}> is "
                    "not in the schema",
                )
                continue
            kind = entry[0]
            if kind == _ELEMENT:
                elem_seq += 1
                elem_def = entry[1]
                text = child.text().strip()
                try:
                    value_text, value_num = entry[2](text)
                except ValueError:
                    self._bad_value(state, text, elem_def)
                    continue
                elements.append(_row(ElementRow, (
                    attr_id, instance, elem_def.elem_id, elem_seq, value_text, value_num)))
            elif kind == _SUB_ATTRIBUTE:
                sub_def = entry[1]
                sub_instance = state.new_instance(
                    sub_def, ancestry[0][0].schema_order, 0
                )
                self._emit_inverted(sub_def, sub_instance, ancestry, state)
                self._shred_inside(
                    child, entry[2], sub_def, sub_instance,
                    ancestry + [(sub_def, sub_instance)], state,
                )
            else:
                self._unknown(state, entry[1])

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
        attr_def = self._lookup_attribute(name, source, None, state)
        if attr_def is None:
            attr_def = self._resolve_unknown_attribute(name, source, snode, None, state)
            if attr_def is None:
                return
        instance = state.new_instance(attr_def, snode.order, clob_seq)
        attr_id = attr_def.attr_id
        state.result.inverted.append(_row(InvertedRow, (attr_id, instance, attr_id, instance, 0)))
        self._shred_items(
            node.find_all(spec.item_tag), spec, snode, attr_def, instance,
            [(attr_def, instance)], source, state,
        )

    def _shred_items(
        self,
        items: List[Element],
        spec: DynamicSpec,
        snode: SchemaNode,
        attr_def: AttributeDef,
        instance: int,
        ancestry: List[Tuple[AttributeDef, int]],
        default_source: str,
        state: "_ShredState",
    ) -> None:
        """Shred dynamic ``items``: each item's children are read in one
        pass for its label, source, value and nested items."""
        item_tag, label_tag = spec.item_tag, spec.label_tag
        defs_tag, value_tag = spec.defs_tag, spec.value_tag
        elements = state.result.elements
        attr_id = attr_def.attr_id
        elem_seq = 0
        for item in items:
            label_el = defs_el = value_el = None
            nested: List[Element] = []
            for child in item.children:
                if isinstance(child, str):
                    continue
                tag = child.tag
                if tag == item_tag:
                    nested.append(child)
                elif tag == label_tag and label_el is None:
                    label_el = child
                elif tag == defs_tag and defs_el is None:
                    defs_el = child
                elif tag == value_tag and value_el is None:
                    value_el = child
            label = label_el.text().strip() if label_el is not None else ""
            source = defs_el.text().strip() if defs_el is not None else default_source
            if not label:
                self._unknown(
                    state,
                    f"<{item_tag}> inside dynamic attribute "
                    f"{attr_def.name!r} lacks a <{label_tag}>",
                )
                continue
            if nested and value_el is not None:
                raise ShredError(
                    f"<{item_tag}> {label!r} has both a value and nested "
                    f"<{item_tag}> items; items are either elements or "
                    "sub-attributes (paper §3)"
                )
            if nested:
                sub_def = self._lookup_attribute(label, source, attr_def, state)
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
                self._shred_items(
                    nested, spec, snode, sub_def, sub_instance,
                    ancestry + [(sub_def, sub_instance)], source, state,
                )
                continue
            if value_el is None:
                self._unknown(
                    state,
                    f"<{item_tag}> {label!r} has neither a value nor "
                    "nested items",
                )
                continue
            raw = value_el.text()
            element = self._lookup_element(attr_def, label, source, state)
            if element is None:
                elem_def = self._resolve_unknown_element(
                    attr_def, label, source, raw, state
                )
                if elem_def is None:
                    continue
                element = _typed(elem_def)
            elem_seq += 1
            elem_def, parse_value = element
            text = raw.strip()
            try:
                value_text, value_num = parse_value(text)
            except ValueError:
                self._bad_value(state, text, elem_def)
                continue
            elements.append(_row(ElementRow, (
                attr_id, instance, elem_def.elem_id, elem_seq, value_text, value_num)))

    def _lookup_attribute(
        self,
        name: str,
        source: str,
        parent: Optional[AttributeDef],
        state: "_ShredState",
    ) -> Optional[AttributeDef]:
        """The registry's ``lookup_attribute`` for the shredding user,
        through the plan's memo while the plan is current."""
        plan = state.plan
        if plan.version != self.registry.version:
            return self.registry.lookup_attribute(
                name, source, user=state.user, parent=parent
            )
        key = (name, source, parent.attr_id if parent is not None else None)
        memo = plan.attribute_memo
        found = memo.get(key, _MISSING)
        if found is _MISSING:
            found = self.registry.lookup_attribute(
                name, source, user=state.user, parent=parent
            )
            if len(memo) < _MEMO_LIMIT:
                memo[key] = found
        return found  # type: ignore[return-value]

    def _lookup_element(
        self,
        attr_def: AttributeDef,
        label: str,
        source: str,
        state: "_ShredState",
    ) -> Optional[tuple]:
        """``(ElementDef, value parser)`` of a dynamic element, through
        the plan's memo while the plan is current."""
        plan = state.plan
        if plan.version != self.registry.version:
            return _typed(self.registry.lookup_element(
                attr_def, label, source, state.user
            ))
        key = (attr_def.attr_id, label, source)
        memo = plan.element_memo
        found = memo.get(key, _MISSING)
        if found is _MISSING:
            found = _typed(self.registry.lookup_element(
                attr_def, label, source, state.user
            ))
            if len(memo) < _MEMO_LIMIT:
                memo[key] = found
        return found  # type: ignore[return-value]

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
        inverted = state.result.inverted
        sub_id = sub_def.attr_id
        inverted.append(_row(InvertedRow, (sub_id, sub_instance, sub_id, sub_instance, 0)))
        for distance, (anc_def, anc_instance) in enumerate(reversed(ancestry), start=1):
            inverted.append(_row(InvertedRow, (
                sub_id, sub_instance, anc_def.attr_id, anc_instance, distance)))

    def _bad_value(self, state: "_ShredState", text: str, elem_def: ElementDef) -> None:
        self._unknown(
            state,
            f"value {text!r} for element {elem_def.name!r} is not a valid "
            f"{elem_def.value_type.value}",
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
    """Per-shred mutable state: instance counters, the result, and the
    plan in use.

    ``seq_base`` seeds the per-definition counters with an existing
    object's instance counts, so incremental fragments continue the
    sequence instead of colliding with stored rows.
    """

    __slots__ = ("document", "user", "result", "plan", "_instance_counters")

    def __init__(
        self,
        document: Document,
        user: Optional[str],
        result: ShredResult,
        plan: _Plan,
        seq_base: Optional[Dict[int, int]] = None,
    ) -> None:
        self.document = document
        self.user = user
        self.result = result
        self.plan = plan
        self._instance_counters: Dict[int, int] = dict(seq_base or {})

    def new_instance(self, attr_def: AttributeDef, clob_order: int, clob_seq: int) -> int:
        """Allocate the next sequence id for ``attr_def`` in this document
        and record the attribute-instance row."""
        seq = self._instance_counters.get(attr_def.attr_id, 0) + 1
        self._instance_counters[attr_def.attr_id] = seq
        self.result.attributes.append(
            _row(AttributeRow, (attr_def.attr_id, seq, clob_order, clob_seq))
        )
        return seq
