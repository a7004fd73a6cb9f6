"""Pins what "the write path did not move" means.

The write algorithms live once, on ``HybridStore``, over five row
primitives per backend.  Two things must survive any refactor of that
split:

* the **ordered** list of fault sites each write verb consults — it is
  what every ``fail_at=N`` sweep in this directory walks, so a reordered
  or dropped consult silently changes which crash points are tested.
  The literals were captured at the commit before the algorithms were
  hoisted (memory 27/5/9/5 consults, sqlite 5/7/11/5);
* the **rows**: the same verbs leave the same per-table row counts on
  both backends.
"""

from repro.backends import SqliteHybridStore
from repro.core import HybridCatalog, MemoryHybridStore, Shredder
from repro.core.definitions import DefinitionRegistry
from repro.faults import FaultPlan
from repro.grid import FIG3_DOCUMENT, define_fig3_attributes, lead_schema
from repro.obs import MetricsRegistry
from repro.xmlkit import parse

from .conftest import NEW_THEME


class RecordingPlan(FaultPlan):
    """A counting plan that also remembers the sites, in order."""

    def __init__(self):
        super().__init__()
        self.sites = []

    def before(self, site, registry=None):
        self.sites.append(site)
        super().before(site, registry)


def _remove_one(victims=1):
    return victims * [
        "delete:attributes", "delete:elements",
        "delete:attr_ancestors", "delete:attr_ancestors",
    ] + ["delete:clobs"]


_DELETE = [
    "delete:objects", "delete:clobs", "delete:attributes",
    "delete:elements", "delete:attr_ancestors",
]

#: verb -> ordered sites, per backend.  Fig 3 shreds into 4 CLOBs,
#: 5 attribute instances, 11 element values and 6 inverted rows; the
#: memory store consults per row, sqlite per statement (its two victim
#: look-ups of a removal are the leading ``select`` pair).
EXPECTED = {
    "memory": {
        "ingest": (
            ["insert:objects"] + 4 * ["insert:clobs"]
            + 5 * ["insert:attributes"] + 11 * ["insert:elements"]
            + 6 * ["insert:attr_ancestors"]
        ),
        "remove_theme": _remove_one(),
        "remove_grid": _remove_one(victims=2),
        "delete": _DELETE,
    },
    "sqlite": {
        "ingest": [
            "insert:objects", "insert:clobs", "insert:attributes",
            "insert:elements", "insert:attr_ancestors",
        ],
        "remove_theme": ["select", "select"] + _remove_one(),
        "remove_grid": ["select", "select"] + _remove_one(victims=2),
        "delete": _DELETE,
    },
}


def consulted(catalog, operation):
    plan = catalog.store.install_faults(RecordingPlan())
    try:
        operation()
    finally:
        catalog.store.clear_faults()
    return plan.sites


def test_each_verb_consults_the_same_sites_in_the_same_order(backend):
    store = SqliteHybridStore() if backend == "sqlite" else None
    catalog = HybridCatalog(lead_schema(), store=store, metrics=MetricsRegistry())
    define_fig3_attributes(catalog)
    observed = {
        "ingest": consulted(
            catalog, lambda: catalog.ingest(FIG3_DOCUMENT, name="fig3")
        ),
        "remove_theme": consulted(
            catalog, lambda: catalog.remove_attribute(1, "theme")
        ),
        # grid/ARPS nests a sub-attribute: two victims.
        "remove_grid": consulted(
            catalog, lambda: catalog.remove_attribute(1, "grid", "ARPS")
        ),
        "delete": consulted(catalog, lambda: catalog.delete(1)),
    }
    assert observed == EXPECTED[backend]
    assert [len(observed[verb]) for verb in EXPECTED[backend]] == (
        [27, 5, 9, 5] if backend == "memory" else [5, 7, 11, 5]
    )


def test_add_attribute_reads_join_its_transaction(backend):
    """add_attribute's two sequence reads and append_rows' existence
    check run inside the transaction: on sqlite they are statements on
    the writer connection and show up as three ``select`` consults (4
    consults before the reads moved in, 7 now); the memory store reads
    without consulting."""
    store = SqliteHybridStore() if backend == "sqlite" else None
    catalog = HybridCatalog(lead_schema(), store=store, metrics=MetricsRegistry())
    define_fig3_attributes(catalog)
    catalog.ingest(FIG3_DOCUMENT, name="fig3")
    sites = consulted(catalog, lambda: catalog.add_attribute(1, NEW_THEME))
    if backend == "memory":
        assert sites == [
            "insert:clobs", "insert:attributes",
            "insert:elements", "insert:elements", "insert:attr_ancestors",
        ]
    else:
        assert sites == 3 * ["select"] + [
            "insert:clobs", "insert:attributes",
            "insert:elements", "insert:attr_ancestors",
        ]


def test_store_verbs_leave_identical_row_counts_on_both_backends():
    schema = lead_schema()
    reports = []
    for store in (MemoryHybridStore(), SqliteHybridStore()):
        store.install_schema(schema)
        registry = DefinitionRegistry(schema)
        store.sync_definitions(registry)
        shred = Shredder(schema, registry).shred(parse(FIG3_DOCUMENT))
        theme = registry.lookup_attribute("theme", "")
        counts = []
        for verb in (
            lambda: store.store_object(1, "fig3", "ann", shred),
            lambda: store.remove_attribute_instance(1, theme.attr_id, 1),
            lambda: store.delete_object(1),
        ):
            verb()
            counts.append(sorted(
                (table, rows) for table, rows, _bytes in store.storage_report()
            ))
        reports.append(counts)
        store.close()
    memory, sqlite = reports
    assert memory == sqlite
    stored, removed, deleted = (dict(counts) for counts in memory)
    assert stored["objects"] == 1 and stored["clobs"] == len(shred.clobs) > 1
    assert removed["clobs"] == stored["clobs"] - 1
    assert all(
        deleted[table] == 0
        for table in ("objects", "clobs", "attributes", "elements", "attr_ancestors")
    )
