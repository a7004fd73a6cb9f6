"""A small, strict, span-preserving XML parser.

The parser covers the subset of XML that grid metadata documents use:
elements, attributes, character data, CDATA sections, comments,
processing instructions, and an optional XML declaration.  It does not
process DTDs or namespaces (the LEAD schema of the paper is
namespace-free; tags are compared as written).

Why not the standard library?  The hybrid shredder stores each metadata
attribute subtree as a **verbatim CLOB** (paper §3).  That requires
knowing, for every element, the exact offsets of its serialized form in
the source text — which ``xml.etree`` does not expose.  The parser here
records a half-open ``(start, end)`` span on every element.

The implementation is a single left-to-right scan (no backtracking), so
parsing is O(n) in the document length — the property the ingest
benchmarks (E1) rely on.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .escape import unescape
from .nodes import Document, Element


class XMLSyntaxError(ValueError):
    """Raised for malformed documents; carries line/column context."""

    def __init__(self, message: str, source: str, offset: int) -> None:
        line = source.count("\n", 0, offset) + 1
        last_nl = source.rfind("\n", 0, offset)
        column = offset - last_nl
        super().__init__(f"{message} (line {line}, column {column})")
        self.offset = offset
        self.line = line
        self.column = column


_NAME_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_:")
_NAME_CHARS = _NAME_START | set("0123456789.-")
_WHITESPACE = set(" \t\r\n")

#: Deepest element nesting accepted.  The parser recurses two frames
#: per level, so the cap keeps any input far from the interpreter's
#: recursion limit; LEAD and CLRC documents nest fewer than 20 levels.
MAX_NESTING_DEPTH = 100


class _Parser:
    __slots__ = ("source", "pos", "length", "depth")

    def __init__(self, source: str) -> None:
        self.source = source
        self.pos = 0
        self.length = len(source)
        self.depth = 0

    # -- low-level helpers ------------------------------------------------
    def error(self, message: str, offset: Optional[int] = None) -> XMLSyntaxError:
        return XMLSyntaxError(message, self.source, self.pos if offset is None else offset)

    def skip_whitespace(self) -> None:
        src, n = self.source, self.length
        i = self.pos
        while i < n and src[i] in _WHITESPACE:
            i += 1
        self.pos = i

    def expect(self, literal: str) -> None:
        if not self.source.startswith(literal, self.pos):
            raise self.error(f"expected {literal!r}")
        self.pos += len(literal)

    def read_name(self) -> str:
        src = self.source
        start = self.pos
        if start >= self.length or src[start] not in _NAME_START:
            raise self.error("expected a name")
        i = start + 1
        n = self.length
        while i < n and src[i] in _NAME_CHARS:
            i += 1
        self.pos = i
        return src[start:i]

    # -- prolog / misc -----------------------------------------------------
    def skip_misc(self) -> None:
        """Skip whitespace, comments, PIs and the XML declaration."""
        while True:
            self.skip_whitespace()
            if self.source.startswith("<?", self.pos):
                end = self.source.find("?>", self.pos + 2)
                if end < 0:
                    raise self.error("unterminated processing instruction")
                self.pos = end + 2
            elif self.source.startswith("<!--", self.pos):
                end = self.source.find("-->", self.pos + 4)
                if end < 0:
                    raise self.error("unterminated comment")
                self.pos = end + 3
            elif self.source.startswith("<!DOCTYPE", self.pos):
                # Skip a simple (bracket-free or internal-subset) doctype.
                depth = 0
                i = self.pos
                while i < self.length:
                    ch = self.source[i]
                    if ch == "[":
                        depth += 1
                    elif ch == "]":
                        depth -= 1
                    elif ch == ">" and depth == 0:
                        self.pos = i + 1
                        break
                    i += 1
                else:
                    raise self.error("unterminated DOCTYPE")
            else:
                return

    # -- element parsing -----------------------------------------------------
    def parse_document(self) -> Document:
        self.skip_misc()
        if self.pos >= self.length or self.source[self.pos] != "<":
            raise self.error("expected root element")
        root = self.parse_element()
        self.skip_misc()
        if self.pos != self.length:
            raise self.error("trailing content after root element")
        return Document(root, source=self.source)

    def parse_element(self) -> Element:
        start = self.pos
        self.expect("<")
        tag = self.read_name()
        attributes = self.parse_attributes()
        self.skip_whitespace()
        if self.source.startswith("/>", self.pos):
            self.pos += 2
            return Element(tag, attributes=attributes, source_span=(start, self.pos))
        self.expect(">")
        if self.depth == MAX_NESTING_DEPTH:
            raise self.error(f"nesting deeper than {MAX_NESTING_DEPTH}", start)
        self.depth += 1
        children = self.parse_content(tag)
        self.depth -= 1
        element = Element(tag, attributes=attributes, children=children)
        element.source_span = (start, self.pos)
        return element

    def parse_attributes(self) -> dict:
        attributes: dict = {}
        while True:
            before = self.pos
            self.skip_whitespace()
            if self.pos >= self.length:
                raise self.error("unterminated start tag")
            ch = self.source[self.pos]
            if ch in (">", "/"):
                return attributes
            if self.pos == before:
                raise self.error("expected whitespace before attribute")
            name = self.read_name()
            self.skip_whitespace()
            self.expect("=")
            self.skip_whitespace()
            if self.pos >= self.length or self.source[self.pos] not in "\"'":
                raise self.error("expected quoted attribute value")
            quote = self.source[self.pos]
            self.pos += 1
            end = self.source.find(quote, self.pos)
            if end < 0:
                raise self.error("unterminated attribute value")
            raw = self.source[self.pos : end]
            if "<" in raw:
                raise self.error("'<' not allowed in attribute value")
            if name in attributes:
                raise self.error(f"duplicate attribute {name!r}")
            attributes[name] = unescape(raw)
            self.pos = end + 1

    def parse_content(self, open_tag: str) -> List:
        children: List = []
        src = self.source
        while True:
            if self.pos >= self.length:
                raise self.error(f"unclosed element <{open_tag}>")
            next_lt = src.find("<", self.pos)
            if next_lt < 0:
                raise self.error(f"unclosed element <{open_tag}>")
            if next_lt > self.pos:
                text = src[self.pos : next_lt]
                self.pos = next_lt
                try:
                    children.append(unescape(text))
                except ValueError as exc:
                    raise self.error(str(exc)) from None
            if src.startswith("</", self.pos):
                close_start = self.pos
                self.pos += 2
                name = self.read_name()
                if name != open_tag:
                    raise self.error(
                        f"mismatched end tag </{name}> for <{open_tag}>", close_start
                    )
                self.skip_whitespace()
                self.expect(">")
                return children
            if src.startswith("<!--", self.pos):
                end = src.find("-->", self.pos + 4)
                if end < 0:
                    raise self.error("unterminated comment")
                self.pos = end + 3
                continue
            if src.startswith("<![CDATA[", self.pos):
                end = src.find("]]>", self.pos + 9)
                if end < 0:
                    raise self.error("unterminated CDATA section")
                children.append(src[self.pos + 9 : end])
                self.pos = end + 3
                continue
            if src.startswith("<?", self.pos):
                end = src.find("?>", self.pos + 2)
                if end < 0:
                    raise self.error("unterminated processing instruction")
                self.pos = end + 2
                continue
            children.append(self.parse_element())


def parse(source: str) -> Document:
    """Parse ``source`` into a :class:`Document` with source spans.

    Raises
    ------
    XMLSyntaxError
        On any well-formedness violation, with line/column information.
    """
    return _Parser(source).parse_document()


def parse_fragment(source: str) -> Element:
    """Parse a single-element fragment and return the element itself."""
    return parse(source).root


def parse_span(source: str, span: Tuple[int, int]) -> Element:
    """Parse the fragment at ``span`` of ``source`` (used for CLOB re-parsing)."""
    start, end = span
    return parse_fragment(source[start:end])
