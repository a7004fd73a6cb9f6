"""Unit tests for the HybridCatalog facade."""

import pytest

from repro.backends import SqliteHybridStore
from repro.core import AttributeCriteria, HybridCatalog, ObjectQuery, ValueType
from repro.errors import CatalogError, QueryError, ValidationError
from repro.grid import FIG3_DOCUMENT, define_fig3_attributes, lead_schema
from repro.xmlkit import parse


class TestIngest:
    def test_receipt_statistics(self, fig3_catalog):
        # fixture already ingested object 1; ingest a second copy.
        receipt = fig3_catalog.ingest(FIG3_DOCUMENT, name="again")
        assert receipt.object_id == 2
        assert receipt.clob_count == 4
        assert receipt.attribute_count == 5
        assert receipt.element_count == 11
        assert receipt.warnings == []

    def test_accepts_parsed_document(self, fig3_catalog):
        receipt = fig3_catalog.ingest(parse(FIG3_DOCUMENT))
        assert receipt.object_id == 2

    def test_object_ids_monotonic(self, fig3_catalog):
        a = fig3_catalog.ingest(FIG3_DOCUMENT).object_id
        b = fig3_catalog.ingest(FIG3_DOCUMENT).object_id
        assert b == a + 1

    def test_len_counts_objects(self, fig3_catalog):
        assert len(fig3_catalog) == 1

    def test_ingest_many_names_objects(self, schema):
        catalog = HybridCatalog(schema)
        define_fig3_attributes(catalog)
        receipts = catalog.ingest_many([FIG3_DOCUMENT, FIG3_DOCUMENT])
        assert [r.name for r in receipts] == ["object-1", "object-2"]

    def test_ingest_many_names_unique_across_calls(self, fig3_catalog):
        # Regression: names derive from the allocated object id, so a
        # second ingest_many call cannot hand out duplicates (a
        # positional counter restarted at 1 per call used to).
        first = fig3_catalog.ingest_many([FIG3_DOCUMENT, FIG3_DOCUMENT])
        second = fig3_catalog.ingest_many([FIG3_DOCUMENT])
        names = [r.name for r in first + second]
        assert names == ["object-2", "object-3", "object-4"]
        assert len(set(names)) == len(names)
        assert all(
            fig3_catalog.object_name(r.object_id) == r.name
            for r in first + second
        )

    def test_object_name_lookup(self, fig3_catalog):
        assert fig3_catalog.object_name(1) == "fig3"
        with pytest.raises(CatalogError):
            fig3_catalog.object_name(99)

    def test_reject_mode_raises_on_unknown(self, schema):
        catalog = HybridCatalog(schema, on_unknown="reject")
        with pytest.raises(ValidationError):
            catalog.ingest(FIG3_DOCUMENT)

    def test_define_mode_auto_registers(self, schema):
        catalog = HybridCatalog(schema, on_unknown="define")
        receipt = catalog.ingest(FIG3_DOCUMENT)
        assert receipt.warnings == []
        assert catalog.registry.lookup_attribute("grid", "ARPS") is not None


class TestDelete:
    def test_delete_removes_from_queries(self, fig3_catalog):
        query = ObjectQuery().add_attribute(AttributeCriteria("theme"))
        assert fig3_catalog.query(query) == [1]
        fig3_catalog.delete(1)
        assert fig3_catalog.query(query) == []
        assert len(fig3_catalog) == 0

    def test_delete_unknown_raises(self, fig3_catalog):
        with pytest.raises(CatalogError):
            fig3_catalog.delete(42)


STORES = {
    "memory": lambda: None,
    "sqlite": SqliteHybridStore,
}


class TestIdsNoStoreCanHold:
    """sqlite INTEGER is 64-bit signed; an id outside it used to raise
    ``OverflowError`` on sqlite where memory found no object."""

    @pytest.mark.parametrize("backend", sorted(STORES))
    def test_are_unknown_objects(self, schema, backend):
        catalog = HybridCatalog(schema, store=STORES[backend]())
        define_fig3_attributes(catalog)
        catalog.ingest(FIG3_DOCUMENT)
        try:
            for big in (1 << 63, -(1 << 63) - 1):
                assert set(catalog.fetch([1, big, big])) == {1}
                for call in (
                    lambda: catalog.delete(big),
                    lambda: catalog.remove_attribute(big, "theme"),
                    lambda: catalog.add_attribute(big, "<theme/>"),
                ):
                    with pytest.raises(CatalogError, match="no object"):
                        call()
            assert len(catalog) == 1
        finally:
            catalog.store.close()


class TestDefinitions:
    def test_define_attribute_syncs_store(self, schema):
        catalog = HybridCatalog(schema)
        grid = catalog.define_attribute("g2", "WRF")
        rows = catalog.store.db.table("attr_defs").lookup(["attr_id"], [grid.attr_id])
        assert rows and rows[0][1] == "g2"

    def test_define_element_typed(self, schema):
        catalog = HybridCatalog(schema)
        grid = catalog.define_attribute("g2", "WRF")
        elem = catalog.define_element(grid, "dt", "WRF", ValueType.INTEGER)
        assert elem.value_type is ValueType.INTEGER


class TestQueryFacade:
    def test_query_then_fetch_equals_search(self, fig3_catalog):
        query = ObjectQuery().add_attribute(AttributeCriteria("theme"))
        ids = fig3_catalog.query(query)
        fetched = fig3_catalog.fetch(ids)
        assert fig3_catalog.search(query) == [fetched[i] for i in ids]

    def test_query_validates_against_registry(self, fig3_catalog):
        query = ObjectQuery().add_attribute(AttributeCriteria("never-defined", "X"))
        with pytest.raises(QueryError):
            fig3_catalog.query(query)

    def test_storage_report_names_catalog_tables(self, fig3_catalog):
        names = {name for name, _r, _b in fig3_catalog.storage_report()}
        assert {"objects", "clobs", "attributes", "elements", "attr_ancestors"} <= names

    def test_user_scoped_query(self, schema):
        catalog = HybridCatalog(schema)
        private = catalog.define_attribute("mine", "SRC", user="ann")
        catalog.define_element(private, "v", "SRC")
        query = ObjectQuery().add_attribute(AttributeCriteria("mine", "SRC"))
        with pytest.raises(QueryError):
            catalog.query(query)
        assert catalog.query(query, user="ann") == []
