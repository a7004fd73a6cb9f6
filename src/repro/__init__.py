"""repro — a hybrid XML-relational grid metadata catalog.

A full reproduction of *"A Hybrid XML-Relational Grid Metadata Catalog"*
(Jensen, Plale, Pallickara, Sun — ICPP 2006): the myLEAD hybrid storage
scheme (schema partitioning into metadata attributes, per-attribute
CLOBs plus shredded query tables, schema-level global ordering,
validated dynamic attributes, the Fig-4 count-matching query plan and
set-based response tagging), the relational and XML substrates it runs
on, the related-work baselines it is compared against, and the LEAD-grid
workload generators used for evaluation.

Quickstart::

    from repro import HybridCatalog, AttributeCriteria, ObjectQuery, Op
    from repro.grid import lead_schema

    catalog = HybridCatalog(lead_schema())
    catalog.ingest(xml_text, name="forecast-001")
    query = ObjectQuery().add_attribute(
        AttributeCriteria("theme").add_element("themekey", "", "air_temperature")
    )
    for xml in catalog.search(query):
        print(xml)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
experiment index.
"""

from .core import (
    AnnotatedSchema,
    AttributeCriteria,
    AttributeDef,
    DefinitionRegistry,
    DynamicSpec,
    ElementCriterion,
    ElementDef,
    HybridCatalog,
    HybridStore,
    IngestReceipt,
    MemoryHybridStore,
    MyAttr,
    MyFile,
    NodeKind,
    ObjectQuery,
    Op,
    PlanTrace,
    SchemaNode,
    Shredder,
    ValueType,
    attribute,
    melement,
    shred_query,
    structural,
    sub_attribute,
)
from .errors import (
    CatalogError,
    DefinitionError,
    QueryError,
    ReproError,
    ResponseError,
    SchemaError,
    ShredError,
    ValidationError,
)
from .faults import FaultError, FaultPlan, RetryPolicy, TransientFault

__version__ = "1.0.0"

__all__ = [
    "AnnotatedSchema",
    "AttributeCriteria",
    "AttributeDef",
    "CatalogError",
    "DefinitionError",
    "DefinitionRegistry",
    "DynamicSpec",
    "ElementCriterion",
    "ElementDef",
    "FaultError",
    "FaultPlan",
    "HybridCatalog",
    "HybridStore",
    "IngestReceipt",
    "MemoryHybridStore",
    "MyAttr",
    "MyFile",
    "NodeKind",
    "ObjectQuery",
    "Op",
    "PlanTrace",
    "QueryError",
    "ReproError",
    "ResponseError",
    "RetryPolicy",
    "SchemaError",
    "SchemaNode",
    "ShredError",
    "Shredder",
    "TransientFault",
    "ValidationError",
    "ValueType",
    "attribute",
    "melement",
    "shred_query",
    "structural",
    "sub_attribute",
    "__version__",
]
