"""Attribute and element definitions (paper §2–§3).

The catalog tracks a *definition* for every metadata attribute and
metadata element:

* attribute definitions carry a unique internal id, the schema order of
  the node they shred under, and — for sub-attributes — the parent
  attribute definition id;
* element definitions carry a unique id, the owning attribute
  definition, and a data type.

Structural definitions are derived from the annotated schema (the tag
is the name; no source).  Dynamic definitions are identified by
``(name, source)`` — e.g. ``("grid", "ARPS")`` — so different models
(ARPS, WRF) can define same-named parameters independently.  Dynamic
definitions can be registered at **admin** scope (visible to everyone)
or **user** scope (private to one user), per §3.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from ..errors import DefinitionError
from .schema import (
    AnnotatedSchema,
    NodeKind,
    SchemaNode,
    ValueType,
)

ADMIN_SCOPE = ""
"""Scope value for administrator-level (public) definitions."""


class AttributeDef:
    """Definition of a metadata attribute or sub-attribute."""

    __slots__ = (
        "attr_id",
        "name",
        "source",
        "parent_id",
        "schema_order",
        "scope",
        "queryable",
        "structural",
    )

    def __init__(
        self,
        attr_id: int,
        name: str,
        source: str,
        parent_id: Optional[int],
        schema_order: int,
        scope: str,
        queryable: bool,
        structural: bool,
    ) -> None:
        self.attr_id = attr_id
        self.name = name
        self.source = source
        self.parent_id = parent_id
        self.schema_order = schema_order
        self.scope = scope
        self.queryable = queryable
        self.structural = structural

    @property
    def is_top_level(self) -> bool:
        return self.parent_id is None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        src = f", {self.source!r}" if self.source else ""
        return f"AttributeDef(#{self.attr_id} {self.name!r}{src})"


class ElementDef:
    """Definition of a metadata element, owned by one attribute def."""

    __slots__ = ("elem_id", "attr_id", "name", "source", "value_type", "scope")

    def __init__(
        self,
        elem_id: int,
        attr_id: int,
        name: str,
        source: str,
        value_type: ValueType,
        scope: str,
    ) -> None:
        self.elem_id = elem_id
        self.attr_id = attr_id
        self.name = name
        self.source = source
        self.value_type = value_type
        self.scope = scope

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ElementDef(#{self.elem_id} {self.name!r} of attr {self.attr_id})"


class DefinitionRegistry:
    """All attribute/element definitions known to one catalog.

    Lookup precedence follows §3: a user's private definitions shadow
    nothing — names are unique per ``(name, source, scope)``, and a
    lookup for a user sees admin definitions plus that user's own.

    ``version`` moves each time a definition is added (by ``define_*``,
    :meth:`rehydrate`, or a shred that auto-defines), after the new
    definition is in place: an answer looked up at one version holds
    for as long as ``version`` reads the same.
    """

    def __init__(self, schema: AnnotatedSchema) -> None:
        self.schema = schema
        self._attr_defs: Dict[int, AttributeDef] = {}
        self._elem_defs: Dict[int, ElementDef] = {}
        # (name, source, scope) -> AttributeDef
        self._attr_key: Dict[Tuple[str, str, str], AttributeDef] = {}
        # (attr_id, name, source, scope) -> ElementDef
        self._elem_key: Dict[Tuple[int, str, str, str], ElementDef] = {}
        # schema tag -> structural AttributeDef
        self._structural_by_tag: Dict[str, AttributeDef] = {}
        self._next_attr_id = 1
        self._next_elem_id = 1
        self.version = 0
        self._register_structural()

    # ------------------------------------------------------------------
    # Structural definitions from the annotated schema
    # ------------------------------------------------------------------
    def _register_structural(self) -> None:
        for node in self.schema.attributes():
            assert node.order is not None
            attr_def = self._new_attribute(
                name=node.tag,
                source="",
                parent_id=None,
                schema_order=node.order,
                scope=ADMIN_SCOPE,
                queryable=node.queryable,
                structural=True,
            )
            self._structural_by_tag[node.tag] = attr_def
            if node.dynamic is None:
                self._register_structural_subtree(node, attr_def)
            if node.is_element:
                # A leaf attribute carries its own value: give it an
                # element definition under the same name.
                self._new_element(
                    attr_def.attr_id, node.tag, "", node.value_type, ADMIN_SCOPE
                )

    def _register_structural_subtree(self, snode: SchemaNode, owner: AttributeDef) -> None:
        for child in snode.children:
            if child.kind is NodeKind.SUB_ATTRIBUTE:
                sub_def = self._new_attribute(
                    name=child.tag,
                    source="",
                    parent_id=owner.attr_id,
                    schema_order=owner.schema_order,
                    scope=ADMIN_SCOPE,
                    queryable=True,
                    structural=True,
                )
                self._register_structural_subtree(child, sub_def)
            elif child.kind is NodeKind.ELEMENT:
                self._new_element(
                    owner.attr_id, child.tag, "", child.value_type, ADMIN_SCOPE
                )

    # ------------------------------------------------------------------
    # Dynamic definitions
    # ------------------------------------------------------------------
    def define_attribute(
        self,
        name: str,
        source: str,
        host: str,
        parent: Optional[AttributeDef] = None,
        user: Optional[str] = None,
        queryable: bool = True,
    ) -> AttributeDef:
        """Register a dynamic attribute (or sub-attribute when ``parent``
        is given) hosted under the dynamic schema node tagged ``host``
        (e.g. ``"detailed"`` in the LEAD schema).

        ``user=None`` registers at administrator scope.
        """
        if not name:
            raise DefinitionError("dynamic attribute needs a non-empty name")
        if not source:
            raise DefinitionError(
                f"dynamic attribute {name!r} needs a source (paper §3: name "
                "and source together identify dynamic definitions)"
            )
        host_node = self.schema.attribute_by_tag(host)
        if host_node is None or host_node.dynamic is None:
            raise DefinitionError(
                f"{host!r} is not a dynamic attribute node of the schema"
            )
        if parent is not None and parent.attr_id not in self._attr_defs:
            raise DefinitionError(f"unknown parent definition {parent!r}")
        assert host_node.order is not None
        return self._new_attribute(
            name=name,
            source=source,
            parent_id=parent.attr_id if parent is not None else None,
            schema_order=host_node.order,
            scope=user or ADMIN_SCOPE,
            queryable=queryable,
            structural=False,
        )

    def define_element(
        self,
        attribute: AttributeDef,
        name: str,
        source: str,
        value_type: ValueType = ValueType.STRING,
        user: Optional[str] = None,
    ) -> ElementDef:
        """Register a dynamic element under ``attribute``."""
        if attribute.attr_id not in self._attr_defs:
            raise DefinitionError(f"unknown attribute definition {attribute!r}")
        return self._new_element(
            attribute.attr_id, name, source, value_type, user or ADMIN_SCOPE
        )

    # ------------------------------------------------------------------
    # Internal constructors
    # ------------------------------------------------------------------
    def _new_attribute(
        self,
        name: str,
        source: str,
        parent_id: Optional[int],
        schema_order: int,
        scope: str,
        queryable: bool,
        structural: bool,
    ) -> AttributeDef:
        key = (name, source, scope)
        if key in self._attr_key:
            existing = self._attr_key[key]
            if existing.parent_id == parent_id:
                raise DefinitionError(
                    f"attribute ({name!r}, {source!r}) already defined in "
                    f"scope {scope!r}"
                )
            # Same (name, source) under a different parent is allowed for
            # sub-attributes (e.g. 'attrlabl'-style names reused across
            # parents) — key them by parent as well.
            key = (name, source, f"{scope}#{parent_id}")
            if key in self._attr_key:
                raise DefinitionError(
                    f"attribute ({name!r}, {source!r}) already defined under "
                    f"parent {parent_id} in scope {scope!r}"
                )
        attr_def = AttributeDef(
            self._next_attr_id, name, source, parent_id, schema_order,
            scope, queryable, structural,
        )
        self._next_attr_id += 1
        self._attr_defs[attr_def.attr_id] = attr_def
        self._attr_key[key] = attr_def
        self.version += 1
        return attr_def

    def _new_element(
        self,
        attr_id: int,
        name: str,
        source: str,
        value_type: ValueType,
        scope: str,
    ) -> ElementDef:
        key = (attr_id, name, source, scope)
        if key in self._elem_key:
            raise DefinitionError(
                f"element ({name!r}, {source!r}) already defined for "
                f"attribute {attr_id} in scope {scope!r}"
            )
        elem_def = ElementDef(self._next_elem_id, attr_id, name, source, value_type, scope)
        self._next_elem_id += 1
        self._elem_defs[elem_def.elem_id] = elem_def
        self._elem_key[key] = elem_def
        self.version += 1
        return elem_def

    # ------------------------------------------------------------------
    # Rehydration (reopening a persisted catalog)
    # ------------------------------------------------------------------
    def rehydrate(self, attr_rows, elem_rows) -> None:
        """Replay persisted definition rows into a freshly built registry.

        ``attr_rows`` are ``(attr_id, name, source, parent_id,
        schema_order, scope, queryable, structural)`` and ``elem_rows``
        ``(elem_id, attr_id, name, source, value_type, scope)`` — the
        layouts of the ``attr_defs``/``elem_defs`` tables.  Structural
        rows must match what the schema already produced (they are
        deterministic); dynamic rows are replayed in id order so every
        definition keeps its stored id.

        Raises
        ------
        DefinitionError
            If the stored rows are inconsistent with the schema (e.g.
            the catalog file was created with a different schema).
        """
        for row in sorted(attr_rows):
            attr_id, name, source, parent_id, schema_order, scope, queryable, structural = row
            if structural:
                existing = self._attr_defs.get(attr_id)
                if (
                    existing is None
                    or existing.name != name
                    or existing.source != source
                    or existing.parent_id != parent_id
                    or not existing.structural
                ):
                    raise DefinitionError(
                        f"stored structural definition {attr_id} ({name!r}) "
                        "does not match the schema; was this catalog created "
                        "with a different schema?"
                    )
                continue
            replayed = self._new_attribute(
                name=name,
                source=source,
                parent_id=parent_id,
                schema_order=schema_order,
                scope=scope,
                queryable=bool(queryable),
                structural=False,
            )
            if replayed.attr_id != attr_id:
                raise DefinitionError(
                    f"definition replay drifted: stored id {attr_id}, "
                    f"replayed {replayed.attr_id}"
                )
        for row in sorted(elem_rows):
            elem_id, attr_id, name, source, value_type, scope = row
            existing_elem = self._elem_defs.get(elem_id)
            if existing_elem is not None:
                if (existing_elem.attr_id, existing_elem.name) != (attr_id, name):
                    raise DefinitionError(
                        f"stored element definition {elem_id} ({name!r}) does "
                        "not match the schema"
                    )
                continue
            replayed_elem = self._new_element(
                attr_id, name, source, ValueType(value_type), scope
            )
            if replayed_elem.elem_id != elem_id:
                raise DefinitionError(
                    f"element replay drifted: stored id {elem_id}, replayed "
                    f"{replayed_elem.elem_id}"
                )

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def attribute(self, attr_id: int) -> AttributeDef:
        try:
            return self._attr_defs[attr_id]
        except KeyError:
            raise DefinitionError(f"no attribute definition {attr_id}") from None

    def element(self, elem_id: int) -> ElementDef:
        try:
            return self._elem_defs[elem_id]
        except KeyError:
            raise DefinitionError(f"no element definition {elem_id}") from None

    def structural_attribute(self, tag: str) -> Optional[AttributeDef]:
        """The structural definition shredded for schema tag ``tag``."""
        return self._structural_by_tag.get(tag)

    def lookup_attribute(
        self,
        name: str,
        source: str,
        user: Optional[str] = None,
        parent: Optional[AttributeDef] = None,
        nested: bool = False,
    ) -> Optional[AttributeDef]:
        """Resolve ``(name, source)`` for ``user``: the user's private
        definition wins over the admin one (paper §3).  ``parent=None``
        resolves a top-level definition only, unless ``nested=True``
        lets it resolve a sub-attribute by name too, for callers that
        name an attribute without its parent (a query's top-level
        criterion, ``repro define --parent``)."""
        parent_id = parent.attr_id if parent is not None else None
        for scope in (user, ADMIN_SCOPE) if user else (ADMIN_SCOPE,):
            hit = self._attr_key.get((name, source, f"{scope}#{parent_id}"))
            if hit is not None:
                return hit
            hit = self._attr_key.get((name, source, scope))
            if hit is not None and (
                hit.parent_id in (None, parent_id) or (nested and parent is None)
            ):
                return hit
        return None

    def lookup_element(
        self,
        attribute: AttributeDef,
        name: str,
        source: str,
        user: Optional[str] = None,
    ) -> Optional[ElementDef]:
        """Resolve element ``(name, source)`` of ``attribute`` for
        ``user``: the user's private definition wins over the admin one,
        and another user's is never seen.  Structural elements are
        registered without a source, so only the exact key matches."""
        for scope in (user, ADMIN_SCOPE) if user else (ADMIN_SCOPE,):
            hit = self._elem_key.get((attribute.attr_id, name, source, scope))
            if hit is not None:
                return hit
        return None

    def elements_of(
        self, attribute: AttributeDef, user: Optional[str] = None
    ) -> List[ElementDef]:
        """The elements of ``attribute`` that ``user`` may see: admin
        plus the user's own."""
        scopes = (ADMIN_SCOPE, user) if user else (ADMIN_SCOPE,)
        return [
            e for e in self._elem_defs.values()
            if e.attr_id == attribute.attr_id and e.scope in scopes
        ]

    def all_attributes(self) -> Iterator[AttributeDef]:
        return iter(self._attr_defs.values())

    def all_elements(self) -> Iterator[ElementDef]:
        return iter(self._elem_defs.values())

    def rows(self) -> Tuple[List[tuple], List[tuple]]:
        """``(attr_defs rows, elem_defs rows)`` in the tables' column
        order — the inverse of :meth:`rehydrate`."""
        return (
            [
                (d.attr_id, d.name, d.source, d.parent_id, d.schema_order,
                 d.scope, int(d.queryable), int(d.structural))
                for d in self._attr_defs.values()
            ],
            [
                (e.elem_id, e.attr_id, e.name, e.source, e.value_type.value, e.scope)
                for e in self._elem_defs.values()
            ],
        )

    def visible_to(self, user: Optional[str]) -> List[AttributeDef]:
        """Attribute definitions ``user`` may query: admin plus own."""
        scopes = {ADMIN_SCOPE}
        if user:
            scopes.add(user)
        return [a for a in self._attr_defs.values() if a.scope in scopes]

    def __len__(self) -> int:
        return len(self._attr_defs)
