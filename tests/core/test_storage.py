"""Unit tests for the memory hybrid store's table layout."""

import pytest

from repro.core import HybridCatalog, MemoryHybridStore
from repro.errors import CatalogError
from repro.faults.sites import OBJECT_ROW_TABLES
from repro.grid import FIG3_DOCUMENT, define_fig3_attributes, lead_schema


class TestInstall:
    def test_double_install_rejected(self, schema):
        store = MemoryHybridStore()
        store.install_schema(schema)
        with pytest.raises(CatalogError):
            store.install_schema(schema)

    def test_schema_order_table_loaded(self, schema):
        store = MemoryHybridStore()
        store.install_schema(schema)
        table = store.db.table("schema_order")
        assert len(table) == len(schema.ordered_nodes)
        root_row = table.lookup(["node_order"], [1])[0]
        assert root_row[1] == "LEADresource"
        assert root_row[2] == schema.max_order()

    def test_object_row_tables_are_indexed_by_object(self, schema):
        # delete_object and the per-object reads reach rows through
        # lookup_rowids(["object_id"], ...), which silently degrades to
        # a full scan on a table without the index.
        store = MemoryHybridStore()
        store.install_schema(schema)
        for name in OBJECT_ROW_TABLES:
            assert store.db.table(name).find_hash_index(["object_id"]), name


class TestObjectRows(object):
    def test_store_rows_per_figure3(self, fig3_catalog):
        db = fig3_catalog.store.db
        assert len(db.table("objects")) == 1
        assert len(db.table("clobs")) == 4
        assert len(db.table("attributes")) == 5
        assert len(db.table("elements")) == 11

    def test_clob_never_indexed(self, fig3_catalog):
        clobs = fig3_catalog.store.db.table("clobs")
        for index in clobs._hash_indexes:
            assert "content" not in index.columns

    def test_delete_purges_all_tables(self, fig3_catalog):
        fig3_catalog.delete(1)
        db = fig3_catalog.store.db
        for name in ("objects", "clobs", "attributes", "elements", "attr_ancestors"):
            assert len(db.table(name)) == 0, name

    def test_delete_unknown_raises(self, fig3_catalog):
        with pytest.raises(CatalogError):
            fig3_catalog.store.delete_object(77)

    def test_has_object(self, fig3_catalog):
        assert fig3_catalog.store.has_object(1)
        assert not fig3_catalog.store.has_object(2)

    def test_definition_sync_idempotent(self, fig3_catalog):
        table = fig3_catalog.store.db.table("attr_defs")
        before = len(table)
        fig3_catalog.store.sync_definitions(fig3_catalog.registry)
        assert len(table) == before


class TestClose:
    """Memory backend honours the same close() contract as sqlite:
    idempotent, typed ``CatalogClosedError`` afterwards (one
    ``HybridStore`` interface, checked in
    ``tests/analysis/test_structural_invariants.py``)."""

    def test_double_close_is_idempotent(self, fig3_catalog):
        fig3_catalog.store.close()
        fig3_catalog.store.close()  # must not raise

    def test_use_after_close_raises_typed_error(self, fig3_catalog):
        from repro.errors import CatalogClosedError
        from repro.grid import FIG3_DOCUMENT

        fig3_catalog.store.close()
        with pytest.raises(CatalogClosedError):
            fig3_catalog.store.has_object(1)
        with pytest.raises(CatalogClosedError):
            fig3_catalog.ingest(FIG3_DOCUMENT)

    def test_cached_query_still_raises_after_close(self, fig3_catalog):
        from repro.core import AttributeCriteria, ObjectQuery
        from repro.errors import CatalogClosedError

        query = ObjectQuery().add_attribute(AttributeCriteria("theme"))
        assert fig3_catalog.query(query) == fig3_catalog.query(query)
        fig3_catalog.store.close()
        with pytest.raises(CatalogClosedError):
            fig3_catalog.query(query)
