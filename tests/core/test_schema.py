"""Unit tests for the annotated schema model."""

import pytest

from repro.core import (
    AnnotatedSchema,
    DynamicSpec,
    NodeKind,
    ValueType,
    attribute,
    melement,
    structural,
    sub_attribute,
)
from repro.errors import SchemaError


def tiny_schema():
    return AnnotatedSchema(
        structural(
            "root",
            attribute("leafattr"),
            structural(
                "mid",
                attribute(
                    "box",
                    melement("width", value_type=ValueType.FLOAT),
                    melement("label"),
                    sub_attribute("inner", melement("depth", value_type=ValueType.INTEGER)),
                    repeatable=True,
                ),
            ),
        ),
        name="tiny",
    )


class TestConstructors:
    def test_leaf_attribute_is_element(self):
        node = attribute("resourceID")
        assert node.is_element and node.is_attribute

    def test_interior_attribute_not_element(self):
        node = attribute("status", melement("progress"))
        assert not node.is_element

    def test_sub_attribute_requires_children(self):
        with pytest.raises(SchemaError):
            sub_attribute("empty")

    def test_children_get_parent_pointers(self):
        child = melement("x")
        parent = attribute("a", child)
        assert child.parent is parent


class TestNavigation:
    def test_path(self):
        schema = tiny_schema()
        box = schema.attribute_by_tag("box")
        assert box.path() == "root/mid/box"

    def test_ancestors(self):
        schema = tiny_schema()
        box = schema.attribute_by_tag("box")
        assert [n.tag for n in box.ancestors()] == ["mid", "root"]

    def test_enclosing_attribute_of_element(self):
        schema = tiny_schema()
        box = schema.attribute_by_tag("box")
        width = box.find_child("width")
        assert width.enclosing_attribute() is box

    def test_enclosing_attribute_of_structural_is_none(self):
        schema = tiny_schema()
        assert schema.root.enclosing_attribute() is None

    def test_iter_preorder(self):
        schema = tiny_schema()
        tags = [n.tag for n in schema.iter_nodes()]
        assert tags == ["root", "leafattr", "mid", "box", "width", "label", "inner", "depth"]


class TestAnnotatedSchema:
    def test_ordered_nodes_stop_at_attributes(self):
        schema = tiny_schema()
        assert [n.tag for n in schema.ordered_nodes] == ["root", "leafattr", "mid", "box"]

    def test_node_by_order(self):
        schema = tiny_schema()
        assert schema.node_by_order(1).tag == "root"
        with pytest.raises(SchemaError):
            schema.node_by_order(99)

    def test_attributes_in_order(self):
        schema = tiny_schema()
        assert [n.tag for n in schema.attributes()] == ["leafattr", "box"]

    def test_attribute_by_tag_missing(self):
        assert tiny_schema().attribute_by_tag("zzz") is None

    def test_duplicate_attribute_tags_rejected(self):
        with pytest.raises(SchemaError, match="appears twice"):
            AnnotatedSchema(
                structural(
                    "root",
                    structural("a", attribute("dup")),
                    structural("b", attribute("dup")),
                )
            )

    def test_describe_mentions_kinds_and_orders(self):
        text = tiny_schema().describe()
        assert "[ATTRIBUTE]" in text
        assert "#1" in text
        assert "repeatable" in text
        assert "<element>" in text

    def test_max_order(self):
        assert tiny_schema().max_order() == 4


class TestValueType:
    def test_string_strips(self):
        assert ValueType.STRING.parse("  hi  ") == "hi"

    def test_integer(self):
        assert ValueType.INTEGER.parse("42") == 42
        with pytest.raises(ValueError):
            ValueType.INTEGER.parse("4.2")

    def test_float(self):
        assert ValueType.FLOAT.parse("1000.000") == 1000.0
        with pytest.raises(ValueError):
            ValueType.FLOAT.parse("abc")

    def test_date_normalizes(self):
        assert ValueType.DATE.parse("2006-7-4") == "2006-07-04"

    @pytest.mark.parametrize("bad", ["2006-13-01", "2006-00-10", "2006-01-32", "20060704", "2006/07/04"])
    def test_date_rejects_invalid(self, bad):
        with pytest.raises(ValueError):
            ValueType.DATE.parse(bad)


class TestDynamicSpec:
    def test_defaults_match_lead_convention(self):
        spec = DynamicSpec()
        assert spec.entity_tag == "enttyp"
        assert spec.name_tag == "enttypl"
        assert spec.source_tag == "enttypds"
        assert spec.item_tag == "attr"
        assert spec.label_tag == "attrlabl"
        assert spec.defs_tag == "attrdefs"
        assert spec.value_tag == "attrv"

    def test_custom_tags(self):
        spec = DynamicSpec(entity_tag="head", name_tag="n", source_tag="s",
                           item_tag="p", label_tag="k", defs_tag="d", value_tag="v")
        assert spec.item_tag == "p"

    @pytest.mark.parametrize("tags", [
        {"label_tag": "attr"}, {"value_tag": "attrlabl"}, {"defs_tag": "attrv"},
    ])
    def test_item_tags_must_differ(self, tags):
        with pytest.raises(SchemaError, match="must differ"):
            DynamicSpec(**tags)
