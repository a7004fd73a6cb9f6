"""A campaign-scale load into a persisted catalog.

Shows the operational path a LEAD campaign would use: a sqlite-backed
catalog file, the vocabulary registered once, documents loaded with
``ingest_many``, attributes added incrementally as the campaign
produces new insights, and the whole catalog reopened later with all
definitions and objects intact.

Run:  python examples/bulk_campaign.py
"""

import os
import tempfile
import time

from repro.backends import SqliteHybridStore
from repro.core import AttributeCriteria, HybridCatalog, ObjectQuery, Op
from repro.grid import CorpusConfig, LeadCorpusGenerator, PlantedMarker, lead_schema


def main() -> None:
    db_path = os.path.join(tempfile.mkdtemp(), "campaign.db")
    config = CorpusConfig(
        seed=2006,
        themes=3,
        dynamic_groups=3,
        params_per_group=8,
        planted=[PlantedMarker("campaign_spring_2006", 6)],
    )
    generator = LeadCorpusGenerator(config)
    documents = list(generator.documents(120))

    # ---- session 1: create, register vocabulary, load ---------------
    catalog = HybridCatalog(lead_schema(), store=SqliteHybridStore(db_path))
    generator.register_definitions(catalog)

    start = time.perf_counter()
    receipts = catalog.ingest_many(documents, owner="campaign")
    elapsed = time.perf_counter() - start
    warnings = sum(len(r.warnings) for r in receipts)
    print(f"loaded {len(receipts)} documents in {elapsed:.2f}s "
          f"({len(receipts) / elapsed:.0f} docs/s), {warnings} warnings")

    # Post-hoc annotation: QC keywords added to the first three runs
    # (paper §5 — attributes inserted after the original shred).
    for object_id in (1, 2, 3):
        catalog.add_attribute(
            object_id,
            "<theme><themekt>QC</themekt><themekey>quality_checked</themekey></theme>",
        )
    print("annotated runs 1-3 with QC keywords")
    catalog.store.connection.commit()

    # ---- session 2: reopen the file, everything is still there ------
    reopened = HybridCatalog(lead_schema(), store=SqliteHybridStore(db_path))
    print(f"\nreopened {db_path}: {len(reopened)} objects, "
          f"{len(reopened.registry)} attribute definitions")

    marker_query = ObjectQuery().add_attribute(
        AttributeCriteria("theme").add_element("themekey", "", "campaign_spring_2006")
    )
    print(f"planted-marker query: {reopened.query(marker_query)}")

    qc_query = ObjectQuery().add_attribute(
        AttributeCriteria("theme").add_element("themekey", "", "quality_checked")
    )
    print(f"QC-annotated runs   : {reopened.query(qc_query)}")

    dx_query = ObjectQuery().add_attribute(
        AttributeCriteria("grid", "ARPS").add_element("dx", "ARPS", 500.0, Op.LE)
    )
    print(f"high-res runs (dx<=500): {len(reopened.query(dx_query))} objects")

    print("\nstorage:")
    for name, rows, size in reopened.storage_report()[:5]:
        print(f"  {name:<16} {rows:>7} rows  {size:>9} bytes")


if __name__ == "__main__":
    main()
