"""Every registered statement fault site actually fires.

FLT01 statically pins site *names* (every literal used with a
``FaultPlan`` is registered, every registered statement site appears in
a test under ``tests/faults/``); this module closes the loop at
runtime: for each site in :data:`repro.faults.sites.STATEMENT_SITES`,
arm a :class:`FaultPlan` targeting it, drive the workload that should
cross it on *both* backends, and require the injected
:class:`FaultError` to surface.  A site that never fires here is dead —
renamed on the write path, or no longer reachable — and the sweep
fails loudly instead of silently injecting nothing.
"""

import pytest

from repro.backends import SqliteHybridStore
from repro.core import HybridCatalog, ValueType
from repro.errors import ReproError
from repro.faults import FaultError, FaultPlan
from repro.faults.sites import (
    ALL_SITES,
    OBJECT_ROW_TABLES,
    STATEMENT_SITES,
    TRANSACTION_SITES,
    check_site,
)
from repro.grid import FIG3_DOCUMENT, lead_schema
from repro.obs import MetricsRegistry

from .conftest import build_catalog

#: Statement sites crossed while ``install_schema`` loads the ordering
#: table — they fire during catalog construction, before any workload.
_SCHEMA_SITES = frozenset({"insert:schema_order"})

#: Read-path sites that exist only on the durable sqlite backend (the
#: reader pool); exercised by the dedicated tests below rather than the
#: two-backend write sweep.
_POOL_SITES = frozenset({"pool:acquire"})


def _trigger_define(catalog: HybridCatalog) -> None:
    attr = catalog.define_attribute("sweepattr", "SWEEP", host="detailed")
    catalog.define_element(attr, "sweepval", "SWEEP", ValueType.STRING)


def _trigger_ingest(catalog: HybridCatalog) -> None:
    catalog.ingest(FIG3_DOCUMENT, name="sweep")


def _trigger_delete(catalog: HybridCatalog) -> None:
    catalog.delete(1)


#: site -> workload that must cross it (the build_catalog fixture has
#: the Fig-3 definitions and object 1 already in place).
SITE_TRIGGERS = {
    "insert:attr_defs": _trigger_define,
    "insert:elem_defs": _trigger_define,
    "insert:objects": _trigger_ingest,
    "insert:clobs": _trigger_ingest,
    "insert:attributes": _trigger_ingest,
    "insert:elements": _trigger_ingest,
    "insert:attr_ancestors": _trigger_ingest,
    "delete:objects": _trigger_delete,
    "delete:clobs": _trigger_delete,
    "delete:attributes": _trigger_delete,
    "delete:elements": _trigger_delete,
    "delete:attr_ancestors": _trigger_delete,
}


def test_every_statement_site_has_a_trigger():
    """The sweep below covers the whole registry — adding a site to
    ``STATEMENT_SITES`` without extending this module is itself a
    failure (the static half of the same check is FLT01)."""
    assert (
        set(SITE_TRIGGERS) | _SCHEMA_SITES | _POOL_SITES
        == set(STATEMENT_SITES)
    )


@pytest.mark.parametrize("site", sorted(SITE_TRIGGERS))
def test_statement_site_fires(backend, site):
    catalog = build_catalog(backend)
    plan = FaultPlan(site=site)
    catalog.store.install_faults(plan)
    with pytest.raises(FaultError):
        SITE_TRIGGERS[site](catalog)
    assert plan.triggered, f"site {site!r} never injected on {backend}"


@pytest.mark.parametrize("site", sorted(_SCHEMA_SITES))
def test_schema_install_site_fires(backend, site):
    store = (
        SqliteHybridStore(":memory:") if backend == "sqlite" else None
    )
    plan = FaultPlan(site=site)
    if store is None:
        from repro.core.storage import MemoryHybridStore

        store = MemoryHybridStore()
    store.install_faults(plan)
    with pytest.raises(FaultError):
        HybridCatalog(lead_schema(), store=store, metrics=MetricsRegistry())
    assert plan.triggered, f"site {site!r} never injected on {backend}"


def test_schema_install_fault_rolls_back_ordering_rows(backend):
    """A crash mid-``install_schema`` must not leave a half-loaded
    global ordering behind (the TXN01 fix that wrapped the memory
    loader in a transaction)."""
    if backend == "sqlite":
        store = SqliteHybridStore(":memory:")
    else:
        from repro.core.storage import MemoryHybridStore

        store = MemoryHybridStore()
    store.install_faults(FaultPlan(site="insert:schema_order"))
    with pytest.raises(FaultError):
        HybridCatalog(lead_schema(), store=store, metrics=MetricsRegistry())
    report = {name: rows for name, rows, _size in store.storage_report()}
    assert report.get("schema_order", 0) == 0


def test_pool_acquire_site_fires(tmp_path):
    """The reader-pool checkout path injects like any write site.  The
    pool exists only on the durable sqlite backend (``:memory:`` reads
    share the writer connection), so this site has its own trigger
    instead of riding the two-backend sweep above."""
    catalog = build_catalog("sqlite", path=str(tmp_path / "pool.db"))
    plan = FaultPlan(site="pool:acquire")
    catalog.store.install_faults(plan)
    with pytest.raises(FaultError):
        catalog.store.has_object(1)
    assert plan.triggered, "pool:acquire never injected"
    # The failed checkout must not leak a reservation: healing the plan
    # leaves a fully usable pool behind.
    catalog.store.clear_faults()
    assert catalog.store.has_object(1)
    assert catalog.store._pool.open_connections() <= catalog.store._pool.capacity


def test_pool_acquire_fault_does_not_consume_statement_counts(tmp_path):
    """A plan targeting a *write* site must count write statements only:
    reader-pool checkouts happening concurrently (or between writes)
    never consult it, so deterministic ``fail_at`` sweeps don't drift
    when the read path changes."""
    catalog = build_catalog("sqlite", path=str(tmp_path / "drift.db"))
    plan = FaultPlan(site="insert:objects")
    plan.armed = False  # observe counts without ever firing
    catalog.store.install_faults(plan)
    seen_before = plan.statements_seen
    for _ in range(5):
        catalog.store.has_object(1)
        catalog.store.object_count()
    assert plan.statements_seen == seen_before


class TestRegistry:
    def test_check_site_accepts_registered_names(self):
        for site in sorted(ALL_SITES):
            assert check_site(site) == site

    def test_check_site_rejects_unregistered_names(self):
        with pytest.raises(ValueError, match="not registered"):
            check_site("delete:unknown_table")

    def test_statement_and_transaction_sites_are_disjoint(self):
        assert not (STATEMENT_SITES & TRANSACTION_SITES)

    def test_object_row_tables_all_have_delete_sites(self):
        for table in OBJECT_ROW_TABLES:
            assert f"delete:{table}" in STATEMENT_SITES

    def test_fault_plan_rejects_nothing_silently(self):
        # Arming a plan for an unregistered site is the runtime bug
        # FLT01 exists to prevent; the registry helper catches it.
        with pytest.raises(ValueError):
            check_site("insert:no_such_table")


def test_remove_attribute_uses_registered_sites(backend):
    """The incremental-maintenance path injects at the same registered
    delete sites as full object deletion."""
    catalog = build_catalog(backend)
    plan = FaultPlan(site="delete:clobs")
    catalog.store.install_faults(plan)
    with pytest.raises((FaultError, ReproError)):
        catalog.remove_attribute(1, "theme")
    assert plan.triggered
