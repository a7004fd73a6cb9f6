"""Attribute queries → the equivalent XPath (paper §4 in reverse).

§4 shows the XQuery FLWOR expression a scientist would have to write
against a general XML store, then the attribute query that replaces it.
This module mechanizes that correspondence: any attribute query over a
catalog's definitions translates into per-document XPath conditions —
the navigational query the hybrid approach spares its users — which is
both documentation ("here is what you did not have to write") and a
test oracle (the translation must select exactly the objects the Fig-4
plan returns; see ``tests/integration/test_xpath_equivalence.py``).

Translation rules:

* a **structural** attribute criterion becomes the schema path to its
  node, with one predicate per element comparison and nested-path
  predicates for structural sub-attribute criteria;
* a **dynamic** attribute criterion becomes the path to its host node
  (e.g. ``detailed``) with entity-block predicates
  (``enttyp/enttypl = name`` …), item predicates for elements
  (``attr[attrlabl = … and attrv op …]``), and descendant item paths
  for sub-attribute criteria (matching the inverted list's any-depth
  semantics);
* a conjunctive query yields one expression per top-level criterion; a
  document matches when **every** expression selects something.
"""

from __future__ import annotations

from typing import List, Optional

from ..errors import QueryError
from ..xmlkit import Element, xpath_exists
from .definitions import AttributeDef, DefinitionRegistry
from .query import AttributeCriteria, ElementCriterion, ObjectQuery, Op
from .schema import AnnotatedSchema, DynamicSpec

_OP_TO_XPATH = {
    Op.EQ: "=", Op.NE: "!=", Op.LT: "<", Op.LE: "<=", Op.GT: ">", Op.GE: ">=",
}


def _literal(value) -> str:
    if isinstance(value, bool):
        raise QueryError("boolean literals are not expressible in XPath-lite")
    if isinstance(value, (int, float)):
        return repr(float(value)) if isinstance(value, float) else str(value)
    text = str(value)
    if "'" in text:
        raise QueryError(
            f"value {text!r} contains a quote; not expressible in XPath-lite"
        )
    return f"'{text}'"


def _element_condition(criterion: ElementCriterion) -> str:
    """Predicate text for a structural element comparison."""
    if criterion.op is Op.CONTAINS:
        raise QueryError("CONTAINS has no XPath-lite equivalent (no functions)")
    if criterion.op is Op.IN_SET:
        parts = [
            f"{criterion.name} = {_literal(v)}" for v in sorted(criterion.value, key=repr)
        ]
        return "(" + " or ".join(parts) + ")"
    return f"{criterion.name} {_OP_TO_XPATH[criterion.op]} {_literal(criterion.value)}"


def _dynamic_item_condition(spec: DynamicSpec, criterion: ElementCriterion) -> str:
    """Predicate selecting an item element carrying the value."""
    if criterion.op is Op.CONTAINS:
        raise QueryError("CONTAINS has no XPath-lite equivalent (no functions)")
    base = f"{spec.label_tag} = {_literal(criterion.name)}"
    if criterion.source:
        base += f" and {spec.defs_tag} = {_literal(criterion.source)}"
    if criterion.op is Op.IN_SET:
        values = " or ".join(
            f"{spec.value_tag} = {_literal(v)}" for v in sorted(criterion.value, key=repr)
        )
        return f"{spec.item_tag}[{base} and ({values})]"
    return (
        f"{spec.item_tag}[{base} and {spec.value_tag} "
        f"{_OP_TO_XPATH[criterion.op]} {_literal(criterion.value)}]"
    )


def _dynamic_sub_path(spec: DynamicSpec, criteria: AttributeCriteria) -> str:
    """Descendant path predicate for a dynamic sub-attribute criterion
    (any depth, matching the inverted list)."""
    label = f"{spec.label_tag} = {_literal(criteria.name)}"
    if criteria.source:
        label += f" and {spec.defs_tag} = {_literal(criteria.source)}"
    predicates = "".join(
        f"[{_dynamic_item_condition(spec, c)}]" for c in criteria.elements
    )
    for sub in criteria.sub_attributes:
        predicates += f"[{_dynamic_sub_path(spec, sub)}]"
    return f"//{spec.item_tag}[{label}]{predicates}"


def _schema_path(node) -> str:
    parts = [node.tag]
    current = node.parent
    while current is not None:
        parts.append(current.tag)
        current = current.parent
    return "/" + "/".join(reversed(parts))


def _structural_expression(
    schema: AnnotatedSchema, criteria: AttributeCriteria
) -> str:
    node = schema.attribute_by_tag(criteria.name)
    if node is None:
        raise QueryError(f"no schema attribute {criteria.name!r}")
    if node.is_element and criteria.elements:
        # Leaf attribute queried by its own name: XPath-lite has no '.'
        # axis, so anchor the comparison at the parent instead
        # (/root[resourceID = 'x']/resourceID).
        if node.parent is None:
            raise QueryError("cannot translate a rootless leaf attribute")
        conditions = " and ".join(_element_condition(c) for c in criteria.elements)
        return f"{_schema_path(node.parent)}[{conditions}]/{node.tag}"
    predicates = "".join(f"[{_element_condition(c)}]" for c in criteria.elements)
    for sub in criteria.sub_attributes:
        predicates += f"[{_structural_sub_predicate(sub)}]"
    return f"{_schema_path(node)}{predicates}"


def _structural_sub_predicate(criteria: AttributeCriteria) -> str:
    predicates = "".join(f"[{_element_condition(c)}]" for c in criteria.elements)
    for nested in criteria.sub_attributes:
        predicates += f"[{_structural_sub_predicate(nested)}]"
    return f"{criteria.name}{predicates}"


def _dynamic_expression(
    schema: AnnotatedSchema,
    registry: DefinitionRegistry,
    attr_def: AttributeDef,
    criteria: AttributeCriteria,
) -> str:
    host = schema.node_by_order(attr_def.schema_order)
    spec = host.dynamic
    assert spec is not None
    entity = (
        f"{spec.entity_tag}/{spec.name_tag} = {_literal(criteria.name)} and "
        f"{spec.entity_tag}/{spec.source_tag} = {_literal(criteria.source)}"
    )
    predicates = "".join(
        f"[{_dynamic_item_condition(spec, c)}]" for c in criteria.elements
    )
    for sub in criteria.sub_attributes:
        predicates += f"[{_dynamic_sub_path(spec, sub)}]"
    return f"{_schema_path(host)}[{entity}]{predicates}"


def query_to_xpath(
    query: ObjectQuery,
    registry: DefinitionRegistry,
    user: Optional[str] = None,
) -> List[str]:
    """Translate ``query`` into XPath expressions, one per top-level
    criterion; a document satisfies the query iff every expression
    selects at least one element.

    Raises :class:`QueryError` for criteria with no XPath-lite
    equivalent (CONTAINS) or unknown definitions.
    """
    if query.is_empty():
        raise QueryError("query has no attribute criteria")
    schema = registry.schema
    expressions = []
    for criteria in query.attributes:
        attr_def = registry.lookup_attribute(
            criteria.name, criteria.source, user=user, nested=True
        )
        if attr_def is None:
            raise QueryError(
                f"no attribute definition ({criteria.name!r}, {criteria.source!r})"
            )
        if attr_def.structural:
            expressions.append(_structural_expression(schema, criteria))
        else:
            expressions.append(
                _dynamic_expression(schema, registry, attr_def, criteria)
            )
    return expressions


def xpath_matches_document(expressions: List[str], root: Element) -> bool:
    """True when every expression selects something in the document."""
    return all(xpath_exists(root, expression) for expression in expressions)
