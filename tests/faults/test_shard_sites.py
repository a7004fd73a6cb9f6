"""Crash-point sweeps over the sharded store's federation sites.

The three ``shard:*`` sites guard the federation layer the same way
the ``insert:*``/``delete:*`` sites guard the stores:

* ``shard:write``  — before a write routes to its owning shard.
* ``shard:sync``   — before each leg of a definition-sync fan-out
  (the mid-fan-out crash leaves trailing shards unsynced; the sweep
  proves per-shard fsck stays clean and the next sync heals).
* ``shard:query``  — before the query's read section enters each shard
  (one shard "down" must fail the whole query, never hand back a
  partial federation, and release the shards already entered).

Every assertion about post-crash state runs through the per-shard
integrity checker, so an aborted federation step can never leave a
shard half-written.
"""

import threading

import pytest

from repro.core import HybridCatalog, PlanTrace
from repro.faults import FaultError, FaultPlan
from repro.grid import FIG3_DOCUMENT, define_fig3_attributes, lead_schema
from repro.obs import MetricsRegistry
from repro.sharding import check_sharded_catalog, sharded_store

from .conftest import grid_query, theme_query

SHARDS = 3


def build_sharded(tmp_path=None, shards=SHARDS, ingest=4):
    """A sharded catalog with the Fig-3 vocabulary and ``ingest``
    copies of the Fig-3 document spread across ``shards`` shards."""
    path = str(tmp_path / "cat.db") if tmp_path is not None else None
    catalog = HybridCatalog(
        lead_schema(), store=sharded_store(shards, path=path),
        metrics=MetricsRegistry(),
    )
    define_fig3_attributes(catalog)
    for index in range(ingest):
        catalog.ingest(FIG3_DOCUMENT, name=f"fig3-{index}", owner=f"u{index}")
    return catalog


def snapshot(catalog):
    """Observable federation state an aborted operation must leave
    unchanged.  The queries carry a trace so they execute on the
    shards instead of being answered from the catalog's result cache."""
    ids = catalog.query(theme_query(), trace=PlanTrace())
    return (
        ids,
        catalog.query(grid_query(), trace=PlanTrace()),
        catalog.fetch(ids),
        len(catalog),
        dict(catalog.store._locations),
    )


# ---------------------------------------------------------------------------
# shard:write
# ---------------------------------------------------------------------------

class TestShardWriteSite:
    def test_fires_on_ingest_and_leaves_the_catalog_clean(self):
        catalog = build_sharded()
        before = snapshot(catalog)
        plan = catalog.store.install_faults(FaultPlan(site="shard:write"))
        with pytest.raises(FaultError):
            catalog.ingest(FIG3_DOCUMENT, name="doomed")
        assert plan.triggered
        catalog.store.clear_faults()
        assert snapshot(catalog) == before
        assert check_sharded_catalog(catalog, deep=True) == []
        # The catalog drew the id before the store write (as on one
        # store), so the failed ingest leaves a gap; routing is a
        # function of (id, owner) and the next ingest just works.
        receipt = catalog.ingest(FIG3_DOCUMENT, name="next")
        assert receipt.object_id > max(before[4])
        assert catalog.store.shard_of(receipt.object_id) == (
            catalog.store.router.route(receipt.object_id, "")
        )
        assert check_sharded_catalog(catalog, deep=True) == []

    @pytest.mark.parametrize("op", ["delete", "add_attribute", "remove_attribute"])
    def test_fires_on_every_write_verb(self, op):
        catalog = build_sharded()
        before = snapshot(catalog)
        plan = catalog.store.install_faults(FaultPlan(site="shard:write"))
        with pytest.raises(FaultError):
            if op == "delete":
                catalog.delete(1)
            elif op == "add_attribute":
                catalog.add_attribute(1, "<theme><themekey>x</themekey></theme>")
            else:
                catalog.remove_attribute(1, "theme")
        assert plan.triggered
        catalog.store.clear_faults()
        assert snapshot(catalog) == before
        assert check_sharded_catalog(catalog, deep=True) == []


# ---------------------------------------------------------------------------
# shard:sync (mid-fan-out definition failure + heal)
# ---------------------------------------------------------------------------

class TestShardSyncSite:
    @pytest.mark.parametrize("fail_leg", range(1, SHARDS + 1))
    def test_fanout_sweep_leaves_shards_consistent(self, fail_leg):
        """Fail the definition fan-out at each leg in turn: shards
        before the failure carry the new rows, shards after do not,
        every shard passes fsck, and one resync converges them all."""
        catalog = build_sharded()
        plan = catalog.store.install_faults(
            FaultPlan(site="shard:sync", site_occurrence=fail_leg)
        )
        with pytest.raises(FaultError):
            catalog.define_attribute("swept", "SWEEP")
        assert plan.triggered
        catalog.store.clear_faults()
        # The shared registry holds the definition; legs < fail_leg
        # synced it, the rest lag behind.
        assert catalog.registry.lookup_attribute("swept", "SWEEP") is not None
        synced = [
            row_counts(store)["attr_defs"] for store in catalog.store.stores
        ]
        assert synced[: fail_leg - 1] == [synced[0]] * (fail_leg - 1)
        assert check_sharded_catalog(catalog, deep=True) == []
        # Heal: sync is an upsert of missing rows, so one more sync
        # converges every shard on the registry.
        catalog.store.sync_definitions(catalog.registry)
        counts = {
            row_counts(store)["attr_defs"] for store in catalog.store.stores
        }
        assert len(counts) == 1
        assert check_sharded_catalog(catalog, deep=True) == []

    def test_resynced_definition_is_queryable_everywhere(self):
        catalog = build_sharded()
        catalog.store.install_faults(FaultPlan(site="shard:sync", site_occurrence=2))
        with pytest.raises(FaultError):
            catalog.define_attribute("lineage", "SWEEP")
        catalog.store.clear_faults()
        catalog.store.sync_definitions(catalog.registry)
        from repro.core import AttributeCriteria, ObjectQuery

        query = ObjectQuery().add_attribute(AttributeCriteria("lineage", "SWEEP"))
        assert catalog.query(query) == []  # resolves on every shard


def row_counts(store):
    return {name: rows for name, rows, _size in store.storage_report()}


# ---------------------------------------------------------------------------
# shard:query (one shard down while the read section enters the shards)
# ---------------------------------------------------------------------------

class TestShardQuerySite:
    @pytest.mark.parametrize("fail_leg", range(1, SHARDS + 1))
    def test_leg_failure_never_returns_partial_results(self, fail_leg):
        catalog = build_sharded()
        plan = catalog.store.install_faults(
            FaultPlan(site="shard:query", site_occurrence=fail_leg)
        )
        # Cold query: nothing cached, so every shard is entered.
        with pytest.raises(FaultError):
            catalog.query(theme_query())
        assert plan.triggered
        # Recovery: clearing the fault restores the full federation
        # (the failed run cached nothing partial).
        catalog.store.clear_faults()
        assert catalog.query(theme_query()) == [1, 2, 3, 4]
        assert check_sharded_catalog(catalog, deep=True) == []

    def test_explain_legs_consult_the_same_site(self):
        catalog = build_sharded()
        plan = catalog.store.install_faults(FaultPlan(site="shard:query"))
        with pytest.raises(FaultError):
            catalog.explain(theme_query())
        assert plan.triggered

    def _fail_entering_last_shard(self, catalog):
        plan = catalog.store.install_faults(
            FaultPlan(site="shard:query", site_occurrence=SHARDS)
        )
        with pytest.raises(FaultError):
            catalog.query(theme_query())
        assert plan.triggered
        catalog.store.clear_faults()

    def test_failed_entry_holds_no_reader_on_disk(self, tmp_path):
        """Shards 0 and 1 were entered before shard 2 failed: their
        reader connections are back in the pool and ingests routed to
        them complete."""
        catalog = build_sharded(tmp_path)
        self._fail_entering_last_shard(catalog)
        store = catalog.store
        for shard in (0, 1):
            pool = store.stores[shard]._pool
            assert pool.open_connections() == len(pool._idle), shard
        routed = set()
        for index in range(32):
            receipt = catalog.ingest(FIG3_DOCUMENT, name=f"after-{index}")
            routed.add(store.shard_of(receipt.object_id))
            if {0, 1} <= routed:
                break
        assert {0, 1} <= routed
        assert check_sharded_catalog(catalog, deep=True) == []

    def test_failed_entry_holds_no_lock_in_memory(self):
        """Every memory shard's RW lock is free for a writer at once
        after the failed entry."""
        catalog = build_sharded()
        self._fail_entering_last_shard(catalog)
        for shard, store in enumerate(catalog.store.stores):
            acquired = threading.Event()

            def write(lock=store._rwlock()):
                with lock.write_locked():
                    acquired.set()

            threading.Thread(target=write, daemon=True).start()
            assert acquired.wait(timeout=5), f"shard {shard} still held"

    def test_write_sweeps_do_not_drift_through_federation(self):
        """A plan targeting a *store* write site counts the same
        statements through the sharded store as against one store: the
        shard:* consults never consume its counter (the pool:acquire
        precedent, extended to the routing layer)."""
        catalog = build_sharded()
        plan = FaultPlan(site="insert:objects")
        plan.armed = False  # observe counts without firing
        catalog.store.install_faults(plan)
        seen_before = plan.statements_seen
        catalog.query(theme_query())
        catalog.explain(theme_query())
        assert plan.statements_seen == seen_before


# ---------------------------------------------------------------------------
# Per-shard statement-site sweep through the sharded store
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fail_at", range(1, 6))
def test_statement_sweep_through_owning_shard(fail_at, tmp_path):
    """Deterministic fail_at sweep over the owning shard's write
    statements, driven through the federation: every prefix crash
    leaves all shards fsck-clean and the federation state unchanged."""
    catalog = build_sharded(tmp_path)
    before = snapshot(catalog)
    plan = catalog.store.install_faults(FaultPlan(fail_at=fail_at))
    try:
        catalog.ingest(FIG3_DOCUMENT, name="crash")
    except FaultError:
        pass
    else:
        pytest.skip(f"ingest issues fewer than {fail_at} statements")
    finally:
        catalog.store.clear_faults()
    assert plan.triggered
    assert snapshot(catalog) == before
    assert check_sharded_catalog(catalog, deep=True) == []
