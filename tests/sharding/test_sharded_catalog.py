"""A catalog over a ShardedStore: topology, reopen, lifecycle and the
routing bookkeeping.

The equivalence-with-one-store property lives in
``tests/integration/test_shard_parity_properties.py``; this module
pins the federation mechanics around it.
"""

import os
import sqlite3

import pytest

from repro.core import AttributeCriteria, HybridCatalog, ObjectQuery, Op
from repro.errors import CatalogClosedError, CatalogError
from repro.faults import FaultError, FaultPlan
from repro.grid import FIG3_DOCUMENT, define_fig3_attributes, lead_schema
from repro.obs import MetricsRegistry
from repro.sharding import (
    HashRouter,
    ShardedStore,
    Topology,
    UserRouter,
    check_sharded_catalog,
    read_topology,
    shard_db_paths,
    sharded_store,
    write_topology,
)
from repro.xmlkit import parse


def theme_query():
    return ObjectQuery().add_attribute(
        AttributeCriteria("theme").add_element(
            "themekey", "", "precipitation", Op.CONTAINS
        )
    )


def open_catalog(shards=3, path=None, router=None):
    return HybridCatalog(
        lead_schema(),
        store=sharded_store(shards, path=path, router=router),
        metrics=MetricsRegistry(),
    )


def build(shards=3, path=None, router=None, ingest=5):
    catalog = open_catalog(shards, path, router)
    define_fig3_attributes(catalog)
    for index in range(ingest):
        catalog.ingest(FIG3_DOCUMENT, name=f"o{index}", owner=f"u{index % 2}")
    return catalog


def table_rows(store, table):
    return dict((name, rows) for name, rows, _size in store.storage_report())[table]


class TestConstruction:
    def test_rejects_zero_shards(self):
        with pytest.raises(CatalogError):
            sharded_store(0)
        with pytest.raises(CatalogError):
            ShardedStore([], HashRouter(1))

    def test_rejects_mismatched_router(self):
        with pytest.raises(CatalogError, match="router covers"):
            sharded_store(3, router=UserRouter(2))

    def test_is_a_hybrid_store_that_supplies_the_reads(self):
        """Queries run through the inherited interpreter: the sharded
        store supplies the read section and the three keyed reads, and
        no executor of its own."""
        from repro.core import HybridStore

        assert issubclass(ShardedStore, HybridStore)
        defined = vars(ShardedStore)
        for read in ("_read_section", "_seek_instances", "_instance_rows",
                     "_ancestor_rows"):
            assert read in defined, read
        assert "_execute_plan" not in defined
        assert "match_objects" not in defined

    def test_objects_spread_across_shards(self):
        catalog = build(shards=3, ingest=12)
        held = set(catalog.store._locations.values())
        assert len(held) > 1
        assert sum(s.object_count() for s in catalog.store.stores) == 12

    def test_shared_registry_is_every_shards_registry(self):
        """One registry above the store; every shard's definition
        tables mirror it (definition ids are federation-wide, which is
        what makes one plan runnable on every shard)."""
        catalog = build()
        attrs = len(list(catalog.registry.all_attributes()))
        elems = len(list(catalog.registry.all_elements()))
        for store in catalog.store.stores:
            assert table_rows(store, "attr_defs") == attrs
            assert table_rows(store, "elem_defs") == elems

    def test_ids_allocated_globally_and_sequentially(self):
        catalog = build(ingest=7)
        assert sorted(catalog.store._locations) == list(range(1, 8))

    def test_user_router_colocates_owner(self):
        catalog = open_catalog(4, router=UserRouter(4))
        define_fig3_attributes(catalog)
        for index in range(8):
            catalog.ingest(FIG3_DOCUMENT, name=f"o{index}", owner="ann")
        assert len(set(catalog.store._locations.values())) == 1


class TestTopologySidecar:
    def test_roundtrip(self, tmp_path):
        base = str(tmp_path / "cat.db")
        write_topology(base, Topology(4, "user"))
        topo = read_topology(base)
        assert (topo.shards, topo.router) == (4, "user")

    def test_missing_sidecar_reads_none(self, tmp_path):
        assert read_topology(str(tmp_path / "nope.db")) is None

    def test_version_mismatch_rejected(self, tmp_path):
        base = str(tmp_path / "cat.db")
        path = write_topology(base, Topology(2))
        path.write_text(path.read_text().replace('"version": 1', '"version": 99'))
        with pytest.raises(ValueError, match="unsupported"):
            read_topology(base)

    def test_shard_db_paths(self):
        assert shard_db_paths("cat.db", 2) == ["cat.db.shard0", "cat.db.shard1"]


class TestReopen:
    def test_state_survives_reopen(self, tmp_path):
        base = str(tmp_path / "cat.db")
        catalog = build(shards=3, path=base, ingest=6)
        extra = catalog.define_attribute("provenance", "LAB")
        catalog.define_element(extra, "tool", "LAB")
        expected = catalog.query(theme_query())
        expected_xml = catalog.fetch(expected)
        catalog.store.close()

        reopened = open_catalog(3, path=base)
        assert len(reopened) == 6
        assert reopened.query(theme_query()) == expected
        assert reopened.fetch(expected) == expected_xml
        assert reopened.registry.lookup_attribute("provenance", "LAB") is not None
        assert check_sharded_catalog(reopened, deep=True) == []
        # Id allocation resumes after the global max, not a shard max.
        receipt = reopened.ingest(FIG3_DOCUMENT, name="later")
        assert receipt.object_id == 7
        reopened.store.close()

    def test_reopen_heals_lagging_definition_sync(self, tmp_path):
        """A shard missing definition rows (the mid-fan-out crash
        leftover) is caught up by the union-rehydrate + sync pass that
        every open performs."""
        base = str(tmp_path / "cat.db")
        catalog = build(shards=3, path=base, ingest=3)
        catalog.store.install_faults(
            FaultPlan(site="shard:sync", site_occurrence=2)
        )
        with pytest.raises(FaultError):
            catalog.define_attribute("lagged", "LAB")
        catalog.store.clear_faults()
        catalog.store.close()

        reopened = open_catalog(3, path=base)
        assert reopened.registry.lookup_attribute("lagged", "LAB") is not None
        counts = {table_rows(s, "attr_defs") for s in reopened.store.stores}
        assert len(counts) == 1
        reopened.store.close()

    def test_never_initialised_shard_file_gets_schema_and_definitions(
        self, tmp_path
    ):
        """One shard file lost (or never created) before a reopen: the
        open installs the schema there and the definition sync fills
        its definition tables, so the federation is whole again."""
        base = str(tmp_path / "cat.db")
        catalog = build(shards=3, path=base, ingest=2)
        expected = catalog.query(theme_query())
        empty = next(
            i for i in range(3) if i not in catalog.store._locations.values()
        )
        catalog.store.close()
        for suffix in ("", "-wal", "-shm"):
            lost = shard_db_paths(base, 3)[empty] + suffix
            if os.path.exists(lost):
                os.remove(lost)

        reopened = open_catalog(3, path=base)
        assert reopened.query(theme_query()) == expected
        attrs = len(list(reopened.registry.all_attributes()))
        assert table_rows(reopened.store.stores[empty], "attr_defs") == attrs
        assert check_sharded_catalog(reopened, deep=True) == []
        reopened.store.close()

    def test_object_on_two_shards_is_rejected_at_open(self, tmp_path):
        base = str(tmp_path / "cat.db")
        catalog = build(shards=3, path=base, ingest=4)
        victim = 1
        wrong = (catalog.store.shard_of(victim) + 1) % 3
        shred = catalog.shredder.shred(parse(FIG3_DOCUMENT))
        catalog.store.stores[wrong].store_object(victim, "dup", "", shred)
        catalog.store.close()
        with pytest.raises(CatalogError, match="object 1 present in shards"):
            open_catalog(3, path=base)

    def test_definition_disagreement_is_rejected_at_open(self, tmp_path):
        base = str(tmp_path / "cat.db")
        catalog = build(shards=3, path=base, ingest=1)
        attr_id = catalog.registry.lookup_attribute("grid", "ARPS").attr_id
        catalog.store.close()
        conn = sqlite3.connect(shard_db_paths(base, 3)[1])
        conn.execute(
            "UPDATE attr_defs SET name = 'girder' WHERE attr_id = ?", (attr_id,)
        )
        conn.commit()
        conn.close()
        with pytest.raises(
            CatalogError, match=f"disagrees on attribute definition {attr_id}"
        ):
            open_catalog(3, path=base)


class TestLifecycle:
    def test_close_is_idempotent(self):
        catalog = build()
        catalog.store.close()
        catalog.store.close()  # no-op, no raise

    def test_query_after_close_raises(self):
        catalog = build()
        catalog.query(theme_query())  # warm the result cache
        catalog.store.close()
        with pytest.raises(CatalogClosedError):
            catalog.query(theme_query())

    @pytest.mark.parametrize("op", ["ingest", "delete", "define", "fetch", "stats"])
    def test_every_surface_checks_closed(self, op):
        catalog = build()
        catalog.store.close()
        with pytest.raises(CatalogClosedError):
            if op == "ingest":
                catalog.ingest(FIG3_DOCUMENT, name="late")
            elif op == "delete":
                catalog.delete(1)
            elif op == "define":
                catalog.define_attribute("late", "LAB")
            elif op == "fetch":
                catalog.fetch([1])
            else:
                catalog.storage_report()

    def test_one_shard_closed_fails_whole_query(self):
        """A federation with one closed shard raises instead of
        serving the remaining shards' rows — even when the catalog's
        result cache holds the answer."""
        catalog = build(shards=3)
        catalog.query(theme_query())  # warm the result cache
        catalog.store.stores[1].close()
        with pytest.raises(CatalogClosedError):
            catalog.query(theme_query())

    def test_close_closes_rest_when_one_shard_already_closed(self):
        catalog = build(shards=3)
        catalog.store.stores[0].close()  # pre-closed: close() is idempotent
        catalog.store.close()
        assert all(store._closed for store in catalog.store.stores)


class TestAccounting:
    def test_len_and_object_name(self):
        catalog = build(ingest=4)
        assert len(catalog) == 4
        assert catalog.object_name(2) == "o1"
        with pytest.raises(CatalogError):
            catalog.object_name(99)

    def test_shard_of_unknown_object(self):
        catalog = build()
        with pytest.raises(CatalogError):
            catalog.store.shard_of(12345)

    def test_delete_updates_routing_map(self):
        catalog = build(ingest=4)
        catalog.delete(2)
        assert 2 not in catalog.store._locations
        assert len(catalog) == 3
        assert check_sharded_catalog(catalog, deep=True) == []

    def test_object_gauges_follow_every_write(self):
        catalog = build(ingest=6)
        catalog.delete(3)
        gauge = catalog.metrics.gauge(
            "shard_objects", "objects currently held by each shard",
            labels=("shard",),
        )
        for index, store in enumerate(catalog.store.stores):
            assert gauge.labels(shard=str(index)).value == store.object_count()
        assert catalog.store._counts == [
            s.object_count() for s in catalog.store.stores
        ]

    def test_shard_status_totals_match(self):
        catalog = build(ingest=6)
        status = catalog.store.shard_status()
        assert [index for index, *_rest in status] == [0, 1, 2]
        assert sum(objects for _i, _p, objects, _b in status) == 6

    def test_fsck_detects_routing_map_drift(self):
        catalog = build(ingest=4)
        catalog.store._locations[999] = 0  # phantom entry
        violations = check_sharded_catalog(catalog)
        assert any("no shard stores it" in v for v in violations)

    def test_fsck_detects_misplaced_object(self):
        """An object stored on a shard its router disowns (e.g. after
        a topology change) is a reported violation."""
        catalog = build(shards=3, ingest=5)
        victim = next(iter(catalog.store._locations))
        wrong = (catalog.store.shard_of(victim) + 1) % 3
        # Copy the object's rows onto the wrong shard out-of-band.
        shred = catalog.shredder.shred(parse(catalog.fetch([victim])[victim]))
        catalog.store.stores[wrong].store_object(victim, "dup", "", shred)
        violations = check_sharded_catalog(catalog)
        assert any("stored in shards" in v for v in violations)
