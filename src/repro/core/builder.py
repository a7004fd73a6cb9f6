"""Guided query construction (paper §4).

"From a user's perspective ... there is a GUI query tool available that
prompts the user with the available attributes and elements and allows
them to build a query graphically."  This module is the programmatic
equivalent of that tool: it introspects the definition registry to
*offer* what can be queried (respecting user visibility and
queryability), and validates each step as the query is built — so a UI
layered on top never constructs a criterion the catalog would reject.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..errors import QueryError
from .definitions import AttributeDef, DefinitionRegistry
from .query import AttributeCriteria, ObjectQuery, Op
from .schema import ValueType


class AttributeChoice:
    """One offerable attribute: what a picker would display."""

    __slots__ = ("name", "source", "structural", "parent_name", "elements")

    def __init__(self, name: str, source: str, structural: bool,
                 parent_name: Optional[str], elements: List[Tuple[str, str, str]]) -> None:
        self.name = name
        self.source = source
        self.structural = structural
        self.parent_name = parent_name
        #: (element name, element source, value-type name)
        self.elements = elements

    @property
    def label(self) -> str:
        return f"{self.name}/{self.source}" if self.source else self.name

    def __repr__(self) -> str:  # pragma: no cover
        return f"AttributeChoice({self.label!r}, elements={len(self.elements)})"


class QueryBuilder:
    """Stateful, validating builder over one registry + user scope.

    Usage mirrors a UI session::

        builder = QueryBuilder(catalog.registry, user="ann")
        builder.attribute_choices()              # populate the picker
        builder.start("grid", "ARPS")            # open a criterion
        builder.element("dx", 1000, Op.EQ)       # add comparisons
        builder.sub("grid-stretching")           # descend
        builder.element("dzmin", 100)
        builder.up()                             # back to the parent
        query = builder.build()
    """

    def __init__(self, registry: DefinitionRegistry, user: Optional[str] = None) -> None:
        self.registry = registry
        self.user = user
        self._query = ObjectQuery()
        self._stack: List[Tuple[AttributeDef, AttributeCriteria]] = []

    # ------------------------------------------------------------------
    # Introspection ("prompts the user with the available attributes")
    # ------------------------------------------------------------------
    def attribute_choices(self, parent: Optional[AttributeDef] = None) -> List[AttributeChoice]:
        """Queryable attributes the user may pick: top-level ones, or —
        with ``parent`` — its sub-attributes."""
        visible = self.registry.visible_to(self.user)
        out = []
        for attr_def in visible:
            if not attr_def.queryable:
                continue
            if parent is None and attr_def.parent_id is not None:
                continue
            if parent is not None and attr_def.parent_id != parent.attr_id:
                continue
            parent_name = None
            if attr_def.parent_id is not None:
                parent_name = self.registry.attribute(attr_def.parent_id).name
            out.append(
                AttributeChoice(
                    attr_def.name,
                    attr_def.source,
                    attr_def.structural,
                    parent_name,
                    self.element_choices(attr_def),
                )
            )
        out.sort(key=lambda c: (c.source, c.name))
        return out

    def element_choices(self, attr_def: AttributeDef) -> List[Tuple[str, str, str]]:
        """``(name, source, type)`` of the attribute's elements the
        user may see."""
        return sorted(
            (e.name, e.source, e.value_type.value)
            for e in self.registry.elements_of(attr_def, self.user)
        )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def start(self, name: str, source: str = "") -> "QueryBuilder":
        """Open a new top-level attribute criterion."""
        if self._stack:
            raise QueryError(
                "finish the current criterion (up() to the top) before "
                "starting another"
            )
        attr_def = self._resolve(name, source, parent=None)
        criteria = AttributeCriteria(name, source)
        self._query.add_attribute(criteria)
        self._stack.append((attr_def, criteria))
        return self

    def sub(self, name: str, source: Optional[str] = None) -> "QueryBuilder":
        """Descend into a sub-attribute criterion of the current one."""
        if not self._stack:
            raise QueryError("no open criterion; call start() first")
        parent_def, parent_criteria = self._stack[-1]
        source = parent_def.source if source is None else source
        attr_def = self._resolve(name, source, parent=parent_def)
        criteria = AttributeCriteria(name, source)
        parent_criteria.add_attribute(criteria)
        self._stack.append((attr_def, criteria))
        return self

    def element(self, name: str, value, op: Op = Op.EQ,
                source: Optional[str] = None) -> "QueryBuilder":
        """Add a comparison on an element of the current attribute."""
        if not self._stack:
            raise QueryError("no open criterion; call start() first")
        attr_def, criteria = self._stack[-1]
        elem_source = attr_def.source if source is None else source
        elem_def = self.registry.lookup_element(attr_def, name, elem_source, self.user)
        if elem_def is None:
            offered = [e[0] for e in self.element_choices(attr_def)]
            raise QueryError(
                f"attribute {attr_def.name!r} has no element {name!r}; "
                f"available: {offered}"
            )
        if (
            elem_def.value_type in (ValueType.INTEGER, ValueType.FLOAT)
            and op is not Op.IN_SET
        ):
            try:
                float(value)
            except (TypeError, ValueError):
                raise QueryError(
                    f"element {name!r} is {elem_def.value_type.value}; "
                    f"{value!r} is not a valid comparison value"
                ) from None
        criteria.add_element(name, elem_source, value, op)
        return self

    def up(self) -> "QueryBuilder":
        """Close the current criterion, returning to its parent."""
        if not self._stack:
            raise QueryError("nothing to close")
        self._stack.pop()
        return self

    def build(self) -> ObjectQuery:
        """The finished query (closes any still-open criteria)."""
        if self._query.is_empty():
            raise QueryError("no criteria were added")
        self._stack.clear()
        return self._query

    # ------------------------------------------------------------------
    def _resolve(self, name: str, source: str, parent: Optional[AttributeDef]) -> AttributeDef:
        attr_def = self.registry.resolve_attribute(name, source, user=self.user, parent=parent)
        if attr_def is None:
            where = f" under {parent.name!r}" if parent else ""
            offered = [c.label for c in self.attribute_choices(parent)]
            raise QueryError(
                f"no queryable attribute ({name!r}, {source!r}){where}; "
                f"available: {offered[:10]}"
            )
        if not attr_def.queryable:
            raise QueryError(f"attribute {name!r} is not queryable")
        return attr_def
