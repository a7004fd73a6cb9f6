"""Unit tests for the guided query builder (the §4 GUI tool surrogate)."""

import pytest

from repro.core import HybridCatalog, Op, QueryBuilder
from repro.errors import QueryError
from repro.grid import FIG3_DOCUMENT, define_fig3_attributes, lead_schema


@pytest.fixture()
def catalog():
    cat = HybridCatalog(lead_schema())
    define_fig3_attributes(cat)
    cat.ingest(FIG3_DOCUMENT, name="fig3")
    return cat


@pytest.fixture()
def builder(catalog):
    return QueryBuilder(catalog.registry)


class TestIntrospection:
    def test_top_level_choices_offer_schema_and_dynamic(self, builder):
        labels = {c.label for c in builder.attribute_choices()}
        assert "theme" in labels
        assert "grid/ARPS" in labels
        assert "grid-stretching/ARPS" not in labels  # sub-attribute

    def test_sub_attribute_choices(self, builder, catalog):
        grid = catalog.registry.lookup_attribute("grid", "ARPS")
        labels = {c.label for c in builder.attribute_choices(parent=grid)}
        assert labels == {"grid-stretching/ARPS"}

    def test_element_choices_typed(self, builder, catalog):
        grid = catalog.registry.lookup_attribute("grid", "ARPS")
        choices = builder.element_choices(grid)
        assert ("dx", "ARPS", "float") in choices

    def test_element_choices_hide_another_users_elements(self, catalog):
        grid = catalog.registry.lookup_attribute("grid", "ARPS")
        catalog.define_element(grid, "secret", "ARPS", user="alice")
        names = {
            user: {e[0] for e in QueryBuilder(catalog.registry, user=user)
                   .element_choices(grid)}
            for user in ("alice", "bob")
        }
        assert "secret" in names["alice"]
        assert "secret" not in names["bob"]
        assert {"dx", "dz"} <= names["bob"]

    def test_non_queryable_hidden(self, catalog):
        catalog.define_attribute("hidden", "SRC", queryable=False)
        labels = {c.label for c in QueryBuilder(catalog.registry).attribute_choices()}
        assert "hidden/SRC" not in labels

    def test_private_definitions_scoped(self, catalog):
        catalog.define_attribute("mine", "SRC", user="ann")
        anonymous = {c.label for c in QueryBuilder(catalog.registry).attribute_choices()}
        owned = {
            c.label
            for c in QueryBuilder(catalog.registry, user="ann").attribute_choices()
        }
        assert "mine/SRC" not in anonymous
        assert "mine/SRC" in owned


class TestConstruction:
    def test_paper_query_via_builder(self, catalog):
        query = (
            QueryBuilder(catalog.registry)
            .start("grid", "ARPS")
            .element("dx", 1000)
            .sub("grid-stretching")
            .element("dzmin", 100)
            .build()
        )
        assert catalog.query(query) == [1]

    def test_up_returns_to_parent(self, catalog):
        builder = QueryBuilder(catalog.registry)
        builder.start("grid", "ARPS").sub("grid-stretching").element("dzmin", 100)
        builder.up().element("dx", 1000)
        assert catalog.query(builder.build()) == [1]

    def test_multiple_top_criteria(self, catalog):
        builder = QueryBuilder(catalog.registry)
        builder.start("theme").up()
        builder.start("grid", "ARPS").element("dz", 500)
        assert catalog.query(builder.build()) == [1]

    def test_unknown_attribute_lists_offers(self, builder):
        with pytest.raises(QueryError, match="available:"):
            builder.start("nonexistent", "X")

    def test_unknown_element_lists_offers(self, builder):
        builder.start("grid", "ARPS")
        with pytest.raises(QueryError, match="available:"):
            builder.element("bogus", 1)

    def test_type_validation_early(self, builder):
        builder.start("grid", "ARPS")
        with pytest.raises(QueryError, match="not a valid comparison value"):
            builder.element("dx", "wide")

    def test_unknown_sub_attribute(self, builder):
        builder.start("grid", "ARPS")
        with pytest.raises(QueryError, match="under 'grid'"):
            builder.sub("nonexistent")

    def test_start_while_open_rejected(self, builder):
        builder.start("theme")
        with pytest.raises(QueryError, match="up\\(\\)"):
            builder.start("citation")

    def test_element_without_start(self, builder):
        with pytest.raises(QueryError, match="start"):
            builder.element("dx", 1)

    def test_sub_without_start(self, builder):
        with pytest.raises(QueryError):
            builder.sub("grid-stretching")

    def test_up_on_empty_stack(self, builder):
        with pytest.raises(QueryError):
            builder.up()

    def test_build_empty_rejected(self, builder):
        with pytest.raises(QueryError, match="no criteria"):
            builder.build()

    def test_build_closes_open_criteria(self, catalog):
        builder = QueryBuilder(catalog.registry)
        builder.start("grid", "ARPS").sub("grid-stretching").element("dzmin", 100)
        query = builder.build()  # still two levels open
        assert catalog.query(query) == [1]

    def test_in_set_skips_scalar_type_check(self, catalog):
        builder = QueryBuilder(catalog.registry)
        builder.start("grid", "ARPS").element("dx", [1000, 2000], Op.IN_SET)
        assert catalog.query(builder.build()) == [1]
