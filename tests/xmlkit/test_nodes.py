"""Unit tests for the Element/Document node model."""

from repro.xmlkit import Document, Element, element, parse


class TestConstruction:
    def test_element_helper_nests(self):
        e = element("a", element("b", "text"), x="1")
        assert e.tag == "a"
        assert e.attributes == {"x": "1"}
        assert e.find("b").text() == "text"

    def test_append_chains(self):
        e = Element("a").append(Element("b")).append("txt")
        assert len(e.children) == 2

    def test_extend(self):
        e = Element("a")
        e.extend([Element("b"), Element("c")])
        assert [c.tag for c in e.child_elements()] == ["b", "c"]

    def test_parsed_leaves_share_one_empty_list_until_written(self):
        root = parse("<a><b/><c></c><d/></a>").root
        b, c, d = root.children
        assert b.children is c.children is d.children == []
        b.append("x")
        c.extend([Element("e")])
        assert b.children == ["x"] and [e.tag for e in c.children] == ["e"]
        assert d.children == [] and d.to_xml() == "<d/>"


class TestNavigation:
    def test_find_first_match(self):
        e = element("a", element("b", "1"), element("b", "2"))
        assert e.find("b").text() == "1"

    def test_find_missing_returns_none(self):
        assert element("a").find("zzz") is None

    def test_find_all_in_order(self):
        e = element("a", element("b", "1"), element("c"), element("b", "2"))
        assert [x.text() for x in e.find_all("b")] == ["1", "2"]

    def test_iter_preorder(self):
        e = element("a", element("b", element("c")), element("d"))
        assert [n.tag for n in e.iter()] == ["a", "b", "c", "d"]

    def test_deep_text(self):
        e = element("a", "x", element("b", "y", element("c", "z")))
        assert e.deep_text() == "xyz"

    def test_descendant_count(self):
        e = element("a", element("b", element("c")), element("d"))
        assert e.descendant_count() == 4

    def test_has_element_children(self):
        assert element("a", element("b")).has_element_children()
        assert not element("a", "text only").has_element_children()


class TestSerialization:
    def test_to_xml_escapes_text(self):
        assert element("a", "x < y").to_xml() == "<a>x &lt; y</a>"

    def test_to_xml_escapes_attributes(self):
        assert element("a", **{"x": 'q"t'}).to_xml() == '<a x="q&quot;t"/>'

    def test_empty_element_self_closes(self):
        assert element("a").to_xml() == "<a/>"

    def test_roundtrip_through_parser(self):
        e = element("a", element("b", "1 & 2"), element("c"))
        reparsed = parse(e.to_xml()).root
        assert e.structurally_equal(reparsed)


class TestStructuralEquality:
    def test_whitespace_insensitive_by_default(self):
        a = parse("<a>\n  <b>x</b>\n</a>").root
        b = parse("<a><b>x</b></a>").root
        assert a.structurally_equal(b)

    def test_text_difference_detected(self):
        a = parse("<a><b>x</b></a>").root
        b = parse("<a><b>y</b></a>").root
        assert not a.structurally_equal(b)

    def test_attribute_difference_detected(self):
        a = parse('<a x="1"/>').root
        b = parse('<a x="2"/>').root
        assert not a.structurally_equal(b)

    def test_child_order_matters(self):
        a = parse("<a><b/><c/></a>").root
        b = parse("<a><c/><b/></a>").root
        assert not a.structurally_equal(b)

    def test_strict_whitespace_mode(self):
        a = parse("<a> <b/> </a>").root
        b = parse("<a><b/></a>").root
        assert not a.structurally_equal(b, ignore_whitespace=False)


class TestDocument:
    def test_slice_without_span_reserializes(self):
        doc = Document(element("a", element("b")))
        assert doc.slice(doc.root.find("b")) == "<b/>"

    def test_to_xml_delegates_to_root(self):
        doc = Document(element("a"))
        assert doc.to_xml() == "<a/>"
