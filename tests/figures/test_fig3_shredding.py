"""F3 — Figure 3: shredding the paper's example document.

§3 narrates exactly what the two theme attributes and the detailed
dynamic attribute shred into; these tests assert that narration
row by row.
"""

import pytest

from repro.core import HybridCatalog
from repro.grid import FIG3_DOCUMENT, define_fig3_attributes, lead_schema
from repro.xmlkit import parse


@pytest.fixture(scope="module")
def shredded():
    catalog = HybridCatalog(lead_schema())
    define_fig3_attributes(catalog)
    result = catalog.shredder.shred(parse(FIG3_DOCUMENT))
    return catalog, result


class TestThemeShredding:
    """'the two theme elements ... would be stored as a CLOB along with
    their global node ordering and their sequence IDs based on
    same-sibling ordering (1 and 2)'."""

    def test_theme_clobs_with_sequence(self, shredded):
        catalog, result = shredded
        theme_order = catalog.schema.attribute_by_tag("theme").order
        theme_clobs = [c for c in result.clobs if c.schema_order == theme_order]
        assert [c.clob_seq for c in theme_clobs] == [1, 2]

    def test_theme_clob_content_verbatim(self, shredded):
        _catalog, result = shredded
        texts = [c.text for c in result.clobs if c.text.lstrip().startswith("<theme>")]
        assert "convective_precipitation_amount" in texts[0]
        assert "air_pressure_at_cloud_base" in texts[1]

    def test_theme_definition_determined_by_tag(self, shredded):
        catalog, result = shredded
        theme_def = catalog.registry.lookup_attribute("theme", "")
        rows = [a for a in result.attributes if a.attr_id == theme_def.attr_id]
        assert [a.seq_id for a in rows] == [1, 2]

    def test_themekey_elements_shredded(self, shredded):
        catalog, result = shredded
        theme_def = catalog.registry.lookup_attribute("theme", "")
        themekey = catalog.registry.lookup_element(theme_def, "themekey", "")
        values = [
            e.value_text for e in result.elements if e.elem_id == themekey.elem_id
        ]
        assert values == [
            "convective_precipitation_amount",
            "convective_precipitation_flux",
            "air_pressure_at_cloud_base",
            "air_pressure_at_cloud_top",
        ]

    def test_element_sequence_within_each_theme(self, shredded):
        catalog, result = shredded
        theme_def = catalog.registry.lookup_attribute("theme", "")
        first = [
            (e.elem_seq, e.value_text)
            for e in result.elements
            if e.attr_id == theme_def.attr_id and e.seq_id == 1
        ]
        # themekt then two themekeys, in document order.
        assert first == [
            (1, "CF NetCDF"),
            (2, "convective_precipitation_amount"),
            (3, "convective_precipitation_flux"),
        ]


class TestDynamicShredding:
    """'the metadata attribute definition is determined based on ... the
    values contained in the enttypl and enttypds elements (which contain
    "grid" and "ARPS" respectively)' ... 'the first attr element is a
    sub-attribute and the last two are metadata elements'."""

    def test_grid_resolved_by_name_and_source(self, shredded):
        catalog, result = shredded
        grid = catalog.registry.lookup_attribute("grid", "ARPS")
        assert any(a.attr_id == grid.attr_id for a in result.attributes)

    def test_detailed_clob_stored_once(self, shredded):
        catalog, result = shredded
        detailed_order = catalog.schema.attribute_by_tag("detailed").order
        clobs = [c for c in result.clobs if c.schema_order == detailed_order]
        assert len(clobs) == 1
        assert clobs[0].clob_seq == 1
        assert "<enttypl>grid</enttypl>" in clobs[0].text

    def test_grid_stretching_is_sub_attribute(self, shredded):
        catalog, result = shredded
        grid = catalog.registry.lookup_attribute("grid", "ARPS")
        stretching = catalog.registry.lookup_attribute(
            "grid-stretching", "ARPS", parent=grid
        )
        assert any(a.attr_id == stretching.attr_id for a in result.attributes)

    def test_dx_dz_are_elements_of_grid(self, shredded):
        catalog, result = shredded
        grid = catalog.registry.lookup_attribute("grid", "ARPS")
        values = {}
        for name in ("dx", "dz"):
            elem = catalog.registry.lookup_element(grid, name, "ARPS")
            rows = [e for e in result.elements if e.elem_id == elem.elem_id]
            assert len(rows) == 1
            assert rows[0].attr_id == grid.attr_id
            values[name] = rows[0].value_num
        assert values == {"dx": 1000.0, "dz": 500.0}

    def test_dzmin_reference_height_under_stretching(self, shredded):
        catalog, result = shredded
        grid = catalog.registry.lookup_attribute("grid", "ARPS")
        stretching = catalog.registry.lookup_attribute(
            "grid-stretching", "ARPS", parent=grid
        )
        values = {}
        for name in ("dzmin", "reference-height"):
            elem = catalog.registry.lookup_element(stretching, name, "ARPS")
            rows = [e for e in result.elements if e.elem_id == elem.elem_id]
            assert len(rows) == 1
            assert rows[0].attr_id == stretching.attr_id
            values[name] = rows[0].value_num
        assert values == {"dzmin": 100.0, "reference-height": 0.0}

    def test_inverted_list_links_stretching_to_grid(self, shredded):
        catalog, result = shredded
        grid = catalog.registry.lookup_attribute("grid", "ARPS")
        stretching = catalog.registry.lookup_attribute(
            "grid-stretching", "ARPS", parent=grid
        )
        links = [
            i
            for i in result.inverted
            if i.desc_attr_id == stretching.attr_id
            and i.anc_attr_id == grid.attr_id
        ]
        assert len(links) == 1
        assert links[0].distance == 1


class TestWholeDocument:
    def test_totals(self, shredded):
        _catalog, result = shredded
        assert len(result.clobs) == 4       # resourceID, theme x2, detailed
        assert len(result.attributes) == 5  # resourceID, theme x2, grid, stretching
        assert len(result.elements) == 11   # 1 rid + 6 theme + 2 grid + 2 stretching
        assert result.warnings == []
