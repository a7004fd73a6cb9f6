"""``repro.core`` — the hybrid XML-relational metadata catalog (S4–S10).

Modules map to the paper's sections:

* :mod:`.schema`, :mod:`.partition` — annotated schema + partition rules (§2)
* :mod:`.ordering` — schema-level global ordering, [19] ablations (§2, §5)
* :mod:`.definitions` — attribute/element definition registry (§2–§3)
* :mod:`.shredder` — hybrid shredding, dynamic attributes (§3)
* :mod:`.query`, :mod:`.logical`, :mod:`.planner` — attribute queries,
  the backend-neutral logical plan IR, built per query, and its one
  interpreter (§4)
* :mod:`.response` — set-based response construction (§5)
* :mod:`.storage`, :mod:`.catalog` — table layout and the public facade
"""

from .builder import AttributeChoice, QueryBuilder
from .catalog import Explanation, HybridCatalog, IngestReceipt
from .definitions import ADMIN_SCOPE, AttributeDef, DefinitionRegistry, ElementDef
from .logical import (
    AncestorCountMatch,
    DirectCountMatch,
    ElementSeek,
    LogicalPlan,
    ObjectIntersect,
    build_plan,
    plan_shape,
)
from .ordering import (
    DeweyOrdering,
    GlobalDocumentOrdering,
    LocalOrdering,
    SchemaLevelOrdering,
    ancestor_pairs,
    assign_global_order,
)
from .integrity import check_catalog
from .ontology import Ontology, expand_query
from .partition import validate_partition
from .query import (
    MYCONTAINS,
    MYEQUAL,
    MYGREATER,
    MYGREATEREQUAL,
    MYLESS,
    MYLESSEQUAL,
    MYNOTEQUAL,
    AttributeCriteria,
    ElementCriterion,
    MyAttr,
    MyFile,
    ObjectQuery,
    Op,
    ShreddedQuery,
    shred_query,
)
from .schema import (
    AnnotatedSchema,
    DynamicSpec,
    NodeKind,
    SchemaNode,
    ValueType,
    attribute,
    melement,
    structural,
    sub_attribute,
)
from .shredder import ShredResult, Shredder, infer_value_type
from .translate import query_to_xpath, xpath_matches_document
from .storage import HybridStore, MemoryHybridStore, PlanStage, PlanTrace
from .xsd import load_xsd, schema_to_xsd

__all__ = [
    "ADMIN_SCOPE",
    "AncestorCountMatch",
    "AnnotatedSchema",
    "AttributeChoice",
    "AttributeCriteria",
    "AttributeDef",
    "DirectCountMatch",
    "ElementSeek",
    "Explanation",
    "LogicalPlan",
    "ObjectIntersect",
    "QueryBuilder",
    "DefinitionRegistry",
    "DeweyOrdering",
    "DynamicSpec",
    "ElementCriterion",
    "ElementDef",
    "GlobalDocumentOrdering",
    "HybridCatalog",
    "HybridStore",
    "IngestReceipt",
    "LocalOrdering",
    "MYCONTAINS",
    "MYEQUAL",
    "MYGREATER",
    "MYGREATEREQUAL",
    "MYLESS",
    "MYLESSEQUAL",
    "MYNOTEQUAL",
    "MemoryHybridStore",
    "MyAttr",
    "MyFile",
    "NodeKind",
    "ObjectQuery",
    "Ontology",
    "Op",
    "PlanStage",
    "PlanTrace",
    "SchemaLevelOrdering",
    "SchemaNode",
    "ShredResult",
    "ShreddedQuery",
    "Shredder",
    "ValueType",
    "ancestor_pairs",
    "assign_global_order",
    "attribute",
    "build_plan",
    "plan_shape",
    "check_catalog",
    "expand_query",
    "infer_value_type",
    "load_xsd",
    "melement",
    "query_to_xpath",
    "schema_to_xsd",
    "xpath_matches_document",
    "shred_query",
    "structural",
    "sub_attribute",
    "validate_partition",
]
