"""Catalog integrity checking (``fsck`` for the hybrid store).

The hybrid scheme is deliberately redundant — every metadata attribute
exists both as a CLOB and as shredded rows — which means there are
invariants to *check*: the two representations must stay consistent, or
queries and responses silently diverge.  The checker verifies, on
either backend:

* **referential closure** — every row references an existing object;
  attribute/element rows reference existing definitions; element rows
  reference existing attribute instances;
* **dual-storage consistency** — every top-level attribute instance has
  its CLOB (and vice versa), keyed by the schema-level global ordering;
* **inverted-list soundness** — a distance-0 self row per instance,
  endpoints that exist, and transitive closure (a→b at *m* and b→c at
  *n* implies a→c at *m + n*);
* **CLOB well-formedness** — stored CLOBs parse as XML fragments whose
  root tag matches their schema node (optional, ``deep=True``);
* **index consistency** (memory stores) — every live row filed
  exactly once under its own key in every index of the engine, no dead
  row id left, every bucket ascending
  (:meth:`~repro.relational.Table.check_indexes`).

The planner keeps no counters of its own to check: a plan is built
from its query alone, and its seeks read the store only when it runs.

``check_catalog`` returns a list of human-readable violations (empty =
healthy); it never mutates the store.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..errors import SchemaError
from ..identifiers import quote_identifier
from ..xmlkit import XMLSyntaxError, parse_fragment
from .catalog import HybridCatalog

Violation = str
#: ``(object_id, attr_id, seq_id)`` — one attribute instance.
Instance = Tuple[int, int, int]


def check_catalog(catalog: HybridCatalog, deep: bool = False) -> List[Violation]:
    """Run every integrity check; returns violations (empty = healthy)."""
    store = catalog.store
    tables = {
        name: _rows(store, name)
        for name in (
            "objects", "clobs", "attributes", "elements",
            "attr_ancestors", "schema_order", "attr_defs", "elem_defs",
        )
    }
    violations: List[Violation] = []
    violations += _check_objects(tables)
    violations += _check_definitions(tables)
    violations += _check_dual_storage(tables)
    violations += _check_elements(tables)
    violations += _check_inverted(tables)
    if hasattr(store, "db"):  # MemoryHybridStore
        violations += [
            f"{table.name}: {problem}"
            for table in store.db
            for problem in table.check_indexes()
        ]
    if deep:
        violations += _check_clob_xml(tables, catalog)
    return violations


def _rows(store, name: str) -> List[tuple]:
    """Raw rows of a catalog table from either backend."""
    if hasattr(store, "db"):  # MemoryHybridStore
        return store.db.table(name).rows()
    return store.connection.execute(
        f"SELECT * FROM {quote_identifier(name)}"
    ).fetchall()


def _check_objects(tables) -> List[Violation]:
    out: List[Violation] = []
    object_ids = {row[0] for row in tables["objects"]}
    for table in ("clobs", "attributes", "elements", "attr_ancestors"):
        for row in tables[table]:
            if row[0] not in object_ids:
                out.append(
                    f"{table}: row references missing object {row[0]}"
                )
    return out


def _check_definitions(tables) -> List[Violation]:
    out: List[Violation] = []
    attr_ids = {row[0] for row in tables["attr_defs"]}
    elem_ids = {row[0] for row in tables["elem_defs"]}
    parent_of = {row[0]: row[3] for row in tables["attr_defs"]}
    for attr_id, parent_id in parent_of.items():
        if parent_id is not None and parent_id not in attr_ids:
            out.append(
                f"attr_defs: definition {attr_id} references missing parent "
                f"{parent_id}"
            )
    for row in tables["elem_defs"]:
        if row[1] not in attr_ids:
            out.append(
                f"elem_defs: element definition {row[0]} references missing "
                f"attribute definition {row[1]}"
            )
    for row in tables["attributes"]:
        if row[1] not in attr_ids:
            out.append(
                f"attributes: instance ({row[0]}, {row[1]}, {row[2]}) "
                f"references missing definition {row[1]}"
            )
    for row in tables["elements"]:
        if row[3] not in elem_ids:
            out.append(
                f"elements: value row references missing element definition "
                f"{row[3]}"
            )
    return out


def _check_dual_storage(tables) -> List[Violation]:
    out: List[Violation] = []
    orders = {row[0] for row in tables["schema_order"]}
    clob_keys = {(row[0], row[1], row[2]) for row in tables["clobs"]}
    top_instances = set()
    for row in tables["attributes"]:
        object_id, attr_id, seq_id, clob_order, clob_seq = row
        if clob_seq >= 1:
            key = (object_id, clob_order, clob_seq)
            top_instances.add(key)
            if key not in clob_keys:
                out.append(
                    f"attributes: top instance ({object_id}, {attr_id}, "
                    f"{seq_id}) has no CLOB at order {clob_order} seq {clob_seq}"
                )
    for key in clob_keys:
        object_id, schema_order, clob_seq = key
        if schema_order not in orders:
            out.append(
                f"clobs: ({object_id}, {schema_order}, {clob_seq}) uses an "
                f"order missing from the global-ordering table"
            )
    # CLOBs without any attribute row are legal (store-only content from
    # lenient validation), so no reverse check on top_instances.
    return out


def _check_elements(tables) -> List[Violation]:
    out: List[Violation] = []
    instances = {(row[0], row[1], row[2]) for row in tables["attributes"]}
    for row in tables["elements"]:
        key = (row[0], row[1], row[2])
        if key not in instances:
            out.append(
                f"elements: value row references missing attribute instance "
                f"{key}"
            )
    return out


def _check_inverted(tables) -> List[Violation]:
    out: List[Violation] = []
    instances = {(row[0], row[1], row[2]) for row in tables["attributes"]}
    # Self rows.
    selfs = {
        (row[0], row[1], row[2])
        for row in tables["attr_ancestors"]
        if row[5] == 0 and (row[1], row[2]) == (row[3], row[4])
    }
    for instance in instances:
        if instance not in selfs:
            out.append(
                f"attr_ancestors: instance {instance} lacks its distance-0 "
                "self row"
            )
    # Endpoints + transitivity.
    all_rows = set()
    for row in tables["attr_ancestors"]:
        object_id, d_attr, d_seq, a_attr, a_seq, distance = row
        desc = (object_id, d_attr, d_seq)
        anc = (object_id, a_attr, a_seq)
        if desc not in instances:
            out.append(f"attr_ancestors: missing descendant instance {desc}")
            continue
        if anc not in instances:
            out.append(f"attr_ancestors: missing ancestor instance {anc}")
            continue
        all_rows.add((desc, anc, distance))
    # Each proper-ancestor row only has to meet the rows that start at
    # its ancestor, so bucket those by descendant (an all-pairs scan is
    # quadratic in the inverted list).
    proper = [row for row in all_rows if row[2] > 0]
    by_desc: Dict[Instance, List[Tuple[Instance, int]]] = {}
    for desc, anc, n in proper:
        by_desc.setdefault(desc, []).append((anc, n))
    for desc, anc, m in proper:
        for anc2, n in by_desc.get(anc, ()):
            if (desc, anc2, m + n) not in all_rows:
                out.append(
                    f"attr_ancestors: missing transitive row {desc} -> "
                    f"{anc2} at distance {m + n}"
                )
    return out


def _check_clob_xml(tables, catalog: HybridCatalog) -> List[Violation]:
    out: List[Violation] = []
    for row in tables["clobs"]:
        object_id, schema_order, clob_seq, content = row
        try:
            fragment = parse_fragment(content)
        except XMLSyntaxError as exc:
            out.append(
                f"clobs: ({object_id}, {schema_order}, {clob_seq}) is not "
                f"well-formed XML: {exc}"
            )
            continue
        try:
            node = catalog.schema.node_by_order(schema_order)
        except SchemaError:
            # The dangling schema_order itself is reported by
            # _check_dual_storage; here it is a tolerated soft error,
            # but a *counted* one so a flood of them is visible.
            catalog.metrics.counter(
                "fsck_soft_errors_total",
                "recoverable errors tolerated while checking integrity",
                labels=("kind",),
            ).labels(kind="unknown-schema-order").inc()
            continue
        if fragment.tag != node.tag:
            out.append(
                f"clobs: ({object_id}, {schema_order}, {clob_seq}) root tag "
                f"<{fragment.tag}> does not match schema node <{node.tag}>"
            )
    return out
