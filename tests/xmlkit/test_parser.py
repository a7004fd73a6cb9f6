"""Unit tests for the span-preserving XML parser."""

import pytest

from repro.xmlkit import Element, XMLSyntaxError, parse, parse_fragment, parse_span
from repro.xmlkit.parser import MAX_NESTING_DEPTH


class TestBasicParsing:
    def test_single_element(self):
        doc = parse("<a/>")
        assert doc.root.tag == "a"
        assert doc.root.children == []

    def test_element_with_text(self):
        doc = parse("<a>hello</a>")
        assert doc.root.text() == "hello"

    def test_nested_elements(self):
        doc = parse("<a><b><c/></b></a>")
        assert doc.root.find("b").find("c") is not None

    def test_attributes(self):
        doc = parse('<a x="1" y="two"/>')
        assert doc.root.attributes == {"x": "1", "y": "two"}

    def test_single_quoted_attribute(self):
        doc = parse("<a x='1'/>")
        assert doc.root.attributes["x"] == "1"

    def test_attribute_entity_unescaped(self):
        doc = parse('<a x="a &amp; b"/>')
        assert doc.root.attributes["x"] == "a & b"

    def test_text_entities_unescaped(self):
        doc = parse("<a>x &lt; y &amp; z</a>")
        assert doc.root.text() == "x < y & z"

    def test_mixed_content_order(self):
        doc = parse("<a>one<b/>two</a>")
        kinds = [type(c).__name__ for c in doc.root.children]
        assert kinds == ["str", "Element", "str"]

    def test_whitespace_text_preserved(self):
        doc = parse("<a>\n  <b/>\n</a>")
        assert doc.root.children[0] == "\n  "

    def test_repeated_siblings(self):
        doc = parse("<a><b/><b/><b/></a>")
        assert len(doc.root.find_all("b")) == 3


class TestProlog:
    def test_xml_declaration_skipped(self):
        doc = parse('<?xml version="1.0" encoding="UTF-8"?><a/>')
        assert doc.root.tag == "a"

    def test_leading_comment_skipped(self):
        doc = parse("<!-- hello --><a/>")
        assert doc.root.tag == "a"

    def test_doctype_skipped(self):
        doc = parse("<!DOCTYPE a><a/>")
        assert doc.root.tag == "a"

    def test_doctype_with_internal_subset(self):
        doc = parse("<!DOCTYPE a [ <!ELEMENT a EMPTY> ]><a/>")
        assert doc.root.tag == "a"

    def test_trailing_whitespace_and_comment_ok(self):
        doc = parse("<a/>  <!-- bye -->\n")
        assert doc.root.tag == "a"


class TestContentConstructs:
    def test_inner_comment_ignored(self):
        doc = parse("<a><!-- note --><b/></a>")
        assert [c.tag for c in doc.root.child_elements()] == ["b"]

    def test_cdata_becomes_text(self):
        doc = parse("<a><![CDATA[x < y & z]]></a>")
        assert doc.root.text() == "x < y & z"

    def test_processing_instruction_in_content(self):
        doc = parse("<a><?pi data?><b/></a>")
        assert doc.root.find("b") is not None


class TestSourceSpans:
    def test_root_span_covers_document(self):
        text = "<a><b>x</b></a>"
        doc = parse(text)
        assert doc.slice(doc.root) == text

    def test_child_span_is_verbatim(self):
        text = '<a>\n  <b attr="v">x &amp; y</b>\n</a>'
        doc = parse(text)
        assert doc.slice(doc.root.find("b")) == '<b attr="v">x &amp; y</b>'

    def test_self_closing_span(self):
        text = "<a><b/><c/></a>"
        doc = parse(text)
        assert doc.slice(doc.root.find("c")) == "<c/>"

    def test_parse_span_reparses_fragment(self):
        text = "<a><b><c>1</c></b></a>"
        doc = parse(text)
        b = doc.root.find("b")
        fragment = parse_span(text, b.source_span)
        assert fragment.tag == "b"
        assert fragment.find("c").text() == "1"

    def test_repeated_sibling_spans_distinct(self):
        text = "<a><b>1</b><b>2</b></a>"
        doc = parse(text)
        first, second = doc.root.find_all("b")
        assert doc.slice(first) == "<b>1</b>"
        assert doc.slice(second) == "<b>2</b>"


class TestErrors:
    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "just text",
            "<a>",
            "<a></b>",
            "<a><b></a></b>",
            "<a x=1/>",
            '<a x="1/>',
            '<a x="1" x="2"/>',
            "<a/><b/>",
            "<a>&bogus;</a>",
            "<a><!-- unterminated </a>",
            "<a><![CDATA[ unterminated </a>",
            '<a "v"/>',
            "< a/>",
            '<a x="<"/>',
            '<LEADresource x="&bogus;"/>',
            '<LEADresource x="&#xZZ;"></LEADresource>',
            "<LEADresource>&#99999999999;</LEADresource>",
        ],
    )
    def test_malformed_raises(self, bad):
        with pytest.raises(XMLSyntaxError):
            parse(bad)

    def test_error_carries_line_and_column(self):
        try:
            parse("<a>\n<b>\n</a>")
        except XMLSyntaxError as exc:
            assert exc.line == 3
            assert "line 3" in str(exc)
        else:  # pragma: no cover
            pytest.fail("expected XMLSyntaxError")

    def test_missing_whitespace_between_attributes(self):
        with pytest.raises(XMLSyntaxError):
            parse('<a x="1"y="2"/>')


class TestParseFragment:
    def test_returns_element(self):
        el = parse_fragment("<theme><themekt>CF</themekt></theme>")
        assert isinstance(el, Element)
        assert el.find("themekt").text() == "CF"


class TestNestingLimit:
    @staticmethod
    def nested(levels, leaf=""):
        return "<a>" * levels + leaf + "</a>" * levels

    def test_limit_boundary(self):
        element = parse(self.nested(MAX_NESTING_DEPTH, "x")).root
        for _ in range(MAX_NESTING_DEPTH - 1):
            element = element.find("a")
        assert element.text() == "x"
        # An empty element opens no content, so it may sit one deeper.
        parse(self.nested(MAX_NESTING_DEPTH, "<a/>"))
        with pytest.raises(XMLSyntaxError, match="nesting deeper than"):
            parse(self.nested(MAX_NESTING_DEPTH + 1))

    @pytest.mark.parametrize("levels", [1_000, 5_000, 100_000])
    def test_recursion_error_never_escapes(self, levels):
        with pytest.raises(XMLSyntaxError, match="nesting deeper than"):
            parse(self.nested(levels))
        with pytest.raises(XMLSyntaxError):
            parse("<a>" * levels)
