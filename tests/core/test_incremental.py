"""Unit tests for incremental attribute insertion/removal (paper §5:
attributes may be inserted after the original shred; schema-level
ordering makes the append free)."""

import pytest

from repro.backends import SqliteHybridStore
from repro.core import AttributeCriteria, HybridCatalog, ObjectQuery
from repro.errors import CatalogError, ShredError
from repro.grid import FIG3_DOCUMENT, define_fig3_attributes, lead_schema
from repro.xmlkit import canonical, parse

NEW_THEME = (
    "<theme><themekt>CF</themekt><themekey>late_added_key</themekey></theme>"
)

NEW_GRID = """
<detailed>
  <enttyp><enttypl>grid</enttypl><enttypds>ARPS</enttypds></enttyp>
  <attr><attrlabl>dx</attrlabl><attrdefs>ARPS</attrdefs><attrv>250</attrv></attr>
  <attr>
    <attrlabl>grid-stretching</attrlabl><attrdefs>ARPS</attrdefs>
    <attr><attrlabl>dzmin</attrlabl><attrdefs>ARPS</attrdefs><attrv>25</attrv></attr>
  </attr>
</detailed>
"""


@pytest.fixture(params=["memory", "sqlite"])
def catalog(request):
    store = SqliteHybridStore() if request.param == "sqlite" else None
    cat = HybridCatalog(lead_schema(), store=store)
    define_fig3_attributes(cat)
    cat.ingest(FIG3_DOCUMENT, name="fig3")
    return cat


def theme_key_query(key):
    return ObjectQuery().add_attribute(
        AttributeCriteria("theme").add_element("themekey", "", key)
    )


class TestAddAttribute:
    def test_new_instance_queryable(self, catalog):
        catalog.add_attribute(1, NEW_THEME)
        assert catalog.query(theme_key_query("late_added_key")) == [1]

    def test_sequence_continues(self, catalog):
        receipt = catalog.add_attribute(1, NEW_THEME)
        assert receipt.clob_count == 1
        theme_def = catalog.registry.lookup_attribute("theme", "")
        counts = catalog.store.instance_counts(1)
        assert counts[theme_def.attr_id] == 3  # two original + one new

    def test_appears_in_schema_position(self, catalog):
        """The new theme lands inside <keywords>, after the existing
        instances — schema order + same-sibling sequence."""
        catalog.add_attribute(1, NEW_THEME)
        response = catalog.fetch([1])[1]
        assert response.index("air_pressure_at_cloud_top") < response.index(
            "late_added_key"
        )
        assert response.index("late_added_key") < response.index("</keywords>")

    def test_existing_rows_untouched(self, catalog):
        before = {
            (row[1], row[2])
            for row in _clob_keys(catalog)
        }
        catalog.add_attribute(1, NEW_THEME)
        after = {
            (row[1], row[2])
            for row in _clob_keys(catalog)
        }
        assert before < after
        assert len(after - before) == 1

    def test_dynamic_fragment(self, catalog):
        catalog.add_attribute(1, NEW_GRID)
        query = ObjectQuery().add_attribute(
            AttributeCriteria("grid", "ARPS").add_element("dx", "ARPS", 250)
        )
        assert catalog.query(query) == [1]
        # The nested sub-attribute also landed with correct ancestry.
        crit = AttributeCriteria("grid", "ARPS").add_element("dx", "ARPS", 250)
        crit.add_attribute(
            AttributeCriteria("grid-stretching", "ARPS").add_element("dzmin", None, 25)
        )
        assert catalog.query(ObjectQuery().add_attribute(crit)) == [1]

    def test_attribute_on_absent_section(self, catalog):
        """Adding an attribute whose wrapper did not exist before: the
        wrapper appears in the response afterwards."""
        catalog.add_attribute(
            1, "<status><progress>Complete</progress><update>None</update></status>"
        )
        response = catalog.fetch([1])[1]
        assert "<status>" in response
        assert response.index("<status>") < response.index("<keywords>")

    def test_non_repeatable_second_instance_rejected(self, catalog):
        with pytest.raises(ShredError, match="single instance"):
            catalog.add_attribute(1, "<resourceID>other</resourceID>")

    def test_non_attribute_fragment_rejected(self, catalog):
        with pytest.raises(CatalogError, match="not a metadata attribute"):
            catalog.add_attribute(1, "<keywords/>")

    def test_unknown_object_rejected(self, catalog):
        with pytest.raises(CatalogError):
            catalog.add_attribute(99, NEW_THEME)


class TestRemoveAttribute:
    def test_remove_hides_from_queries(self, catalog):
        catalog.remove_attribute(1, "theme", seq=2)
        assert catalog.query(theme_key_query("air_pressure_at_cloud_base")) == []
        assert catalog.query(theme_key_query("convective_precipitation_flux")) == [1]

    def test_remove_drops_clob_from_response(self, catalog):
        catalog.remove_attribute(1, "theme", seq=2)
        response = catalog.fetch([1])[1]
        assert "air_pressure_at_cloud_base" not in response
        assert "convective_precipitation_amount" in response

    def test_remove_dynamic_removes_descendants(self, catalog):
        catalog.remove_attribute(1, "grid", "ARPS", seq=1)
        query = ObjectQuery().add_attribute(
            AttributeCriteria("grid-stretching", "ARPS").add_element(
                "dzmin", None, 100
            )
        )
        assert catalog.query(query) == []
        assert "grid-stretching" not in catalog.fetch([1])[1]

    def test_remove_unknown_instance(self, catalog):
        with pytest.raises(CatalogError):
            catalog.remove_attribute(1, "theme", seq=9)

    def test_remove_sub_attribute_rejected(self, catalog):
        with pytest.raises(CatalogError, match="top-level"):
            catalog.remove_attribute(1, "grid-stretching", "ARPS", seq=1)

    def test_remove_unknown_definition(self, catalog):
        with pytest.raises(CatalogError, match="definition"):
            catalog.remove_attribute(1, "never", "NOWHERE")

    def test_add_after_remove_roundtrip(self, catalog):
        catalog.remove_attribute(1, "theme", seq=1)
        catalog.add_attribute(1, NEW_THEME)
        assert catalog.query(theme_key_query("late_added_key")) == [1]
        response = catalog.fetch([1])[1]
        assert canonical(parse(response))  # still well-formed


def _clob_keys(catalog):
    """(object, order, seq) rows from either backend."""
    store = catalog.store
    if hasattr(store, "db"):
        return list(store.db.table("clobs").lookup(["object_id"], [1]))
    return store.connection.execute(
        "SELECT object_id, schema_order, clob_seq FROM clobs WHERE object_id = 1"
    ).fetchall()
