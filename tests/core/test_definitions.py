"""Unit tests for the definition registry (paper §2-§3)."""

import pytest

from repro.cli import main
from repro.core import (
    ADMIN_SCOPE,
    AnnotatedSchema,
    AttributeCriteria,
    DefinitionRegistry,
    DynamicSpec,
    HybridCatalog,
    ObjectQuery,
    ValueType,
    attribute,
    melement,
    structural,
    sub_attribute,
)
from repro.errors import DefinitionError, QueryError
from repro.grid import FIG3_DOCUMENT, define_fig3_attributes, lead_schema
from repro.xmlkit import parse


@pytest.fixture()
def schema():
    return AnnotatedSchema(
        structural(
            "root",
            attribute("leaf"),
            attribute(
                "box",
                melement("width", value_type=ValueType.FLOAT),
                sub_attribute("inner", melement("depth")),
            ),
            attribute("dyn", dynamic=DynamicSpec(), repeatable=True),
        )
    )


@pytest.fixture()
def registry(schema):
    return DefinitionRegistry(schema)


class TestStructuralRegistration:
    def test_every_attribute_gets_a_definition(self, registry):
        names = {d.name for d in registry.all_attributes()}
        assert {"leaf", "box", "dyn", "inner"} <= names

    def test_structural_defs_have_empty_source(self, registry):
        assert registry.lookup_attribute("box", "").source == ""

    def test_sub_attribute_parent_link(self, registry):
        box = registry.lookup_attribute("box", "")
        inner = registry.lookup_attribute("inner", "", parent=box)
        assert inner.parent_id == box.attr_id
        assert box.parent_id is None and inner.parent_id is not None

    def test_elements_registered(self, registry):
        box = registry.lookup_attribute("box", "")
        width = registry.lookup_element(box, "width", "")
        assert width is not None
        assert width.value_type is ValueType.FLOAT

    def test_leaf_attribute_gets_own_element(self, registry):
        leaf = registry.lookup_attribute("leaf", "")
        assert registry.lookup_element(leaf, "leaf", "") is not None

    def test_dynamic_host_has_no_structural_children(self, registry):
        dyn = registry.lookup_attribute("dyn", "")
        assert all(a.parent_id != dyn.attr_id for a in registry.all_attributes())

    def test_schema_order_recorded(self, registry, schema):
        box = registry.lookup_attribute("box", "")
        assert box.schema_order == schema.attribute_by_tag("box").order

    def test_ids_unique_and_dense(self, registry):
        ids = sorted(d.attr_id for d in registry.all_attributes())
        assert ids == list(range(1, len(ids) + 1))


class TestDynamicDefinitions:
    def test_define_and_lookup(self, registry):
        grid = registry.define_attribute("grid", "ARPS", host="dyn")
        assert registry.lookup_attribute("grid", "ARPS") is grid

    def test_source_required(self, registry):
        with pytest.raises(DefinitionError, match="source"):
            registry.define_attribute("grid", "", host="dyn")

    def test_name_required(self, registry):
        with pytest.raises(DefinitionError):
            registry.define_attribute("", "ARPS", host="dyn")

    def test_host_must_be_dynamic(self, registry):
        with pytest.raises(DefinitionError, match="dynamic"):
            registry.define_attribute("grid", "ARPS", host="box")

    def test_same_name_different_sources_coexist(self, registry):
        arps = registry.define_attribute("grid", "ARPS", host="dyn")
        wrf = registry.define_attribute("grid", "WRF", host="dyn")
        assert arps.attr_id != wrf.attr_id
        assert registry.lookup_attribute("grid", "WRF") is wrf

    def test_duplicate_rejected(self, registry):
        registry.define_attribute("grid", "ARPS", host="dyn")
        with pytest.raises(DefinitionError, match="already defined"):
            registry.define_attribute("grid", "ARPS", host="dyn")

    def test_sub_attribute_under_parent(self, registry):
        grid = registry.define_attribute("grid", "ARPS", host="dyn")
        sub = registry.define_attribute("stretch", "ARPS", host="dyn", parent=grid)
        assert sub.parent_id == grid.attr_id
        assert registry.lookup_attribute("stretch", "ARPS", parent=grid) is sub

    def test_dynamic_elements(self, registry):
        grid = registry.define_attribute("grid", "ARPS", host="dyn")
        dx = registry.define_element(grid, "dx", "ARPS", ValueType.FLOAT)
        assert registry.lookup_element(grid, "dx", "ARPS") is dx

    def test_duplicate_element_rejected(self, registry):
        grid = registry.define_attribute("grid", "ARPS", host="dyn")
        registry.define_element(grid, "dx", "ARPS")
        with pytest.raises(DefinitionError, match="already defined"):
            registry.define_element(grid, "dx", "ARPS")

    def test_element_lookup_requires_exact_source(self, registry):
        grid = registry.define_attribute("grid", "ARPS", host="dyn")
        registry.define_element(grid, "dx", "ARPS")
        assert registry.lookup_element(grid, "dx", "WRF") is None


class TestUserScopes:
    def test_private_definition_invisible_to_others(self, registry):
        registry.define_attribute("secret", "ARPS", host="dyn", user="ann")
        assert registry.lookup_attribute("secret", "ARPS") is None
        assert registry.lookup_attribute("secret", "ARPS", user="bob") is None
        assert registry.lookup_attribute("secret", "ARPS", user="ann") is not None

    def test_user_definition_wins_over_admin(self, registry):
        admin = registry.define_attribute("grid", "ARPS", host="dyn")
        mine = registry.define_attribute("grid", "ARPS", host="dyn", user="ann")
        assert registry.lookup_attribute("grid", "ARPS", user="ann") is mine
        assert registry.lookup_attribute("grid", "ARPS") is admin

    def test_visible_to_includes_admin_and_own(self, registry):
        registry.define_attribute("mine", "ARPS", host="dyn", user="ann")
        registry.define_attribute("theirs", "ARPS", host="dyn", user="bob")
        visible_names = {d.name for d in registry.visible_to("ann")}
        assert "mine" in visible_names
        assert "theirs" not in visible_names
        assert "box" in visible_names


class TestFig3Scopes:
    """Fig. 3's definitions with a private element and a renamed entity."""

    @pytest.fixture()
    def catalog(self):
        catalog = HybridCatalog(lead_schema())
        define_fig3_attributes(catalog)
        return catalog

    def test_private_element_is_shredded_only_for_its_owner(self, catalog):
        grid = catalog.registry.lookup_attribute("grid", "ARPS")
        secret = catalog.define_element(grid, "secret", "ARPS", user="alice")
        document = parse(FIG3_DOCUMENT.replace(
            "                    <attr>\n"
            "                        <attrlabl>dx</attrlabl>",
            "                    <attr>\n"
            "                        <attrlabl>secret</attrlabl>\n"
            "                        <attrdefs>ARPS</attrdefs>\n"
            "                        <attrv>42</attrv>\n"
            "                    </attr>\n"
            "                    <attr>\n"
            "                        <attrlabl>dx</attrlabl>",
        ))
        shred = catalog.shredder.shred
        alice = shred(document, user="alice")
        assert [r.elem_id for r in alice.elements].count(secret.elem_id) == 1
        for user in ("bob", None):
            result = shred(document, user=user)
            assert secret.elem_id not in {r.elem_id for r in result.elements}
            assert any("'secret'" in w for w in result.warnings)

    def test_user_element_definition_wins_over_admin(self, catalog):
        registry = catalog.registry
        grid = registry.lookup_attribute("grid", "ARPS")
        admin = registry.lookup_element(grid, "dx", "ARPS")
        mine = registry.define_element(grid, "dx", "ARPS", user="ann")
        assert registry.lookup_element(grid, "dx", "ARPS", user="ann") is mine
        assert registry.lookup_element(grid, "dx", "ARPS", user="bob") is admin
        assert registry.lookup_element(grid, "dx", "ARPS") is admin

    def test_top_level_lookup_skips_sub_attributes(self, catalog):
        registry = catalog.registry
        grid = registry.lookup_attribute("grid", "ARPS")
        stretching = registry.lookup_attribute(
            "grid-stretching", "ARPS", parent=grid
        )
        assert registry.lookup_attribute("grid-stretching", "ARPS") is None
        document = parse(FIG3_DOCUMENT.replace(
            "<enttypl>grid</enttypl>", "<enttypl>grid-stretching</enttypl>"
        ))
        result = catalog.shredder.shred(document)
        assert stretching.attr_id not in {r.attr_id for r in result.attributes}
        assert any(
            "('grid-stretching', 'ARPS') is not defined" in w
            for w in result.warnings
        )


class TestResolver:
    """``resolve_attribute``: the key first, then a parentless name's one
    sub-attribute."""

    @pytest.fixture()
    def parents(self, registry):
        return (registry.define_attribute("p1", "S", host="dyn"),
                registry.define_attribute("p2", "S", host="dyn"))

    def test_top_level_definition_wins_over_sub_attribute(self, registry, parents):
        registry.define_attribute("x", "S", host="dyn", parent=parents[0])
        top = registry.define_attribute("x", "S", host="dyn")
        assert registry.resolve_attribute("x", "S") is top

    def test_unique_sub_attribute_resolves_without_parent(self, registry, parents):
        sub = registry.define_attribute("x", "S", host="dyn", parent=parents[1])
        assert registry.resolve_attribute("x", "S") is sub
        assert registry.resolve_attribute("x", "S", parent=parents[1]) is sub
        assert registry.resolve_attribute("x", "S", parent=parents[0]) is None

    def test_ambiguous_sub_attribute_names_both_parent_paths(self):
        catalog = HybridCatalog(lead_schema())
        define_fig3_attributes(catalog)
        mesh = catalog.define_attribute("mesh", "ARPS", host="detailed")
        stretching = catalog.define_attribute(
            "grid-stretching", "ARPS", host="detailed", parent=mesh
        )
        catalog.define_element(stretching, "dzmin", "ARPS", ValueType.FLOAT)
        catalog.ingest(FIG3_DOCUMENT)
        catalog.ingest(FIG3_DOCUMENT.replace(
            "<enttypl>grid</enttypl>", "<enttypl>mesh</enttypl>"
        ))
        criteria = AttributeCriteria("grid-stretching", "ARPS")
        criteria.add_element("dzmin", "ARPS", 100)
        with pytest.raises(QueryError) as raised:
            catalog.query(ObjectQuery().add_attribute(criteria))
        assert "grid/grid-stretching" in str(raised.value)
        assert "mesh/grid-stretching" in str(raised.value)

    def test_user_definition_wins_over_admin(self, registry, parents):
        admin = registry.define_attribute("x", "S", host="dyn", parent=parents[0])
        mine = registry.define_attribute(
            "x", "S", host="dyn", parent=parents[0], user="ann"
        )
        assert registry.resolve_attribute("x", "S", user="ann") is mine
        assert registry.resolve_attribute(
            "x", "S", user="ann", parent=parents[0]
        ) is mine
        assert registry.resolve_attribute("x", "S", user="bob") is admin

    def test_other_users_private_attribute_does_not_resolve(self, registry, parents):
        registry.define_attribute("top", "S", host="dyn", user="ann")
        registry.define_attribute("x", "S", host="dyn", parent=parents[0], user="ann")
        admin = registry.define_attribute("y", "S", host="dyn", parent=parents[0])
        registry.define_attribute("y", "S", host="dyn", parent=parents[1], user="ann")
        assert registry.resolve_attribute("top", "S", user="bob") is None
        assert registry.resolve_attribute("x", "S", user="bob", parent=parents[0]) is None
        assert registry.resolve_attribute("x", "S", user="bob") is None
        # ann's second 'y' makes the name ambiguous for ann only
        assert registry.resolve_attribute("y", "S", user="bob") is admin
        with pytest.raises(QueryError, match="p1/y, p2/y"):
            registry.resolve_attribute("y", "S", user="ann")

    def test_cli_define_rejects_an_ambiguous_parent(self, tmp_path, capsys):
        db = str(tmp_path / "cat.db")
        assert main(["init", "--db", db]) == 0
        for argv in (["grid", "ARPS"], ["mesh", "ARPS"],
                     ["stretch", "ARPS", "--parent", "grid"],
                     ["stretch", "ARPS", "--parent", "mesh"]):
            assert main(["define", "--db", db, *argv]) == 0
        capsys.readouterr()
        code = main(["define", "--db", db, "knot", "ARPS", "--parent", "stretch"])
        assert code == 1
        err = capsys.readouterr().err
        assert "grid/stretch" in err and "mesh/stretch" in err


class TestLookupErrors:
    def test_unknown_attribute_id(self, registry):
        with pytest.raises(DefinitionError):
            registry.attribute(9999)

    def test_unknown_element_id(self, registry):
        with pytest.raises(DefinitionError):
            registry.element(9999)

    def test_len_counts_attributes(self, registry):
        before = len(registry)
        registry.define_attribute("extra", "SRC", host="dyn")
        assert len(registry) == before + 1
