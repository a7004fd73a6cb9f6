"""Unit tests for the query model and query shredding (paper §4)."""

import pytest

from repro.core import (
    MYEQUAL,
    MYGREATEREQUAL,
    AttributeCriteria,
    MyAttr,
    MyFile,
    ObjectQuery,
    Op,
    shred_query,
)
from repro.errors import QueryError
from repro.grid import define_fig3_attributes, lead_schema


@pytest.fixture()
def registry():
    from repro.core import DefinitionRegistry

    class _Cat:
        def __init__(self, schema):
            self.registry = DefinitionRegistry(schema)

        def define_attribute(self, *args, **kwargs):
            return self.registry.define_attribute(*args, **kwargs)

        def define_element(self, *args, **kwargs):
            return self.registry.define_element(*args, **kwargs)

    cat = _Cat(lead_schema())
    define_fig3_attributes(cat)
    return cat.registry


def paper_query():
    """The §4 example: grid dx=1000 with grid-stretching dzmin=100."""
    query = MyFile()
    grid = MyAttr("grid", "ARPS")
    grid.add_element("dx", "ARPS", 1000, MYEQUAL)
    stretching = MyAttr("grid-stretching", "ARPS")
    stretching.add_element("dzmin", None, 100, MYEQUAL)
    grid.add_attribute(stretching)
    query.add_attribute(grid)
    return query


class TestOp:
    def test_eq(self):
        assert Op.EQ.matches(5, 5)
        assert not Op.EQ.matches(5, 6)

    def test_contains(self):
        assert Op.CONTAINS.matches("precipitation_flux", "precip")

    def test_none_never_matches(self):
        for op in Op:
            assert not op.matches(None, 1)

    def test_incomparable_types_false_not_error(self):
        assert not Op.LT.matches("abc", 5)

    def test_paper_aliases(self):
        assert MYEQUAL is Op.EQ
        assert MYGREATEREQUAL is Op.GE


class TestQueryBuilding:
    def test_add_element_inherits_source(self):
        attr = AttributeCriteria("grid-stretching", "ARPS")
        attr.add_element("dzmin", None, 100)
        assert attr.elements[0].source == "ARPS"

    def test_add_element_explicit_source(self):
        attr = AttributeCriteria("grid", "ARPS")
        attr.add_element("dx", "OTHER", 1)
        assert attr.elements[0].source == "OTHER"

    def test_fluent_chaining(self):
        query = ObjectQuery().add_attribute(
            AttributeCriteria("theme").add_element("themekey", "", "rain")
        )
        assert len(query.attributes) == 1

    def test_bad_op_rejected(self):
        with pytest.raises(QueryError):
            AttributeCriteria("a").add_element("x", "", 1, op="=")

    def test_empty_query_flag(self):
        assert ObjectQuery().is_empty()


class TestQueryShredding:
    def test_paper_example_counts(self, registry):
        shredded = shred_query(paper_query(), registry)
        assert len(shredded.qattrs) == 2
        assert len(shredded.qelems) == 2
        top = shredded.qattr(shredded.top_qattr_ids[0])
        assert top.direct_elem_count == 1
        assert top.subtree_elem_count == 2
        assert top.subtree_attr_count == 2

    def test_depths_assigned(self, registry):
        shredded = shred_query(paper_query(), registry)
        assert [q.depth for q in shredded.qattrs] == [0, 1]

    def test_child_links(self, registry):
        shredded = shred_query(paper_query(), registry)
        top = shredded.qattr(1)
        assert top.child_qattr_ids == [2]
        assert shredded.qattr(2).parent_qattr_id == 1

    def test_numeric_value_coerced(self, registry):
        shredded = shred_query(paper_query(), registry)
        dx = shredded.qelems[0]
        assert dx.numeric and dx.value_num == 1000.0 and dx.value_text is None

    def test_string_element_kept_as_text(self, registry):
        query = ObjectQuery().add_attribute(
            AttributeCriteria("theme").add_element("themekey", "", "rain")
        )
        shredded = shred_query(query, registry)
        assert not shredded.qelems[0].numeric
        assert shredded.qelems[0].value_text == "rain"

    def test_empty_query_rejected(self, registry):
        with pytest.raises(QueryError, match="no attribute criteria"):
            shred_query(ObjectQuery(), registry)

    def test_unknown_attribute_rejected(self, registry):
        query = ObjectQuery().add_attribute(AttributeCriteria("nope", "NOWHERE"))
        with pytest.raises(QueryError, match="no attribute definition"):
            shred_query(query, registry)

    def test_unknown_element_rejected(self, registry):
        query = ObjectQuery().add_attribute(
            AttributeCriteria("grid", "ARPS").add_element("bogus", "ARPS", 1)
        )
        with pytest.raises(QueryError, match="no element definition"):
            shred_query(query, registry)

    def test_non_numeric_value_on_numeric_element_rejected(self, registry):
        query = ObjectQuery().add_attribute(
            AttributeCriteria("grid", "ARPS").add_element("dx", "ARPS", "wide")
        )
        with pytest.raises(QueryError, match="non-numeric"):
            shred_query(query, registry)

    def test_contains_on_numeric_rejected(self, registry):
        query = ObjectQuery().add_attribute(
            AttributeCriteria("grid", "ARPS").add_element("dx", "ARPS", 10, Op.CONTAINS)
        )
        with pytest.raises(QueryError, match="CONTAINS"):
            shred_query(query, registry)

    def test_private_definition_enforced(self, registry):
        registry.define_attribute("private", "ARPS", host="detailed", user="ann")
        query = ObjectQuery().add_attribute(AttributeCriteria("private", "ARPS"))
        with pytest.raises(QueryError):
            shred_query(query, registry)  # anonymous caller
        shred_query(query, registry, user="ann")  # owner succeeds

    def test_non_queryable_attribute_rejected(self, registry):
        registry.define_attribute("hidden", "ARPS", host="detailed", queryable=False)
        query = ObjectQuery().add_attribute(AttributeCriteria("hidden", "ARPS"))
        with pytest.raises(QueryError, match="not queryable"):
            shred_query(query, registry)

    def test_leaf_attribute_query_by_own_name(self, registry):
        query = ObjectQuery().add_attribute(
            AttributeCriteria("resourceID").add_element("resourceID", "", "x")
        )
        shredded = shred_query(query, registry)
        assert shredded.qattrs[0].direct_elem_count == 1

    def test_describe_output(self, registry):
        text = shred_query(paper_query(), registry).describe()
        assert "qattr 1" in text and "qelem" in text
