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

The implementation is a single left-to-right scan with one explicit
stack of open elements and no recursion.  Every regex is matched
**anchored at the cursor** (``pattern.match(source, pos)``, never
``search``/``finditer``): a pattern that scans ahead re-reads whatever
follows each comment, PI or CDATA section it cannot match, which is
quadratic on ``<a>`` + n x ``<!---->``.  Anchored, parsing is O(n) in
the document length — the property the ingest benchmarks (E1) and the
server's body limit rely on.
"""

from __future__ import annotations

import re
from typing import Dict, List, Tuple

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


#: XML whitespace and names, as this parser has always read them: the
#: four ASCII blanks (not ``\s``) and ASCII-only names.
_S = r"[ \t\r\n]"
_NAME = r"[A-Za-z_:][A-Za-z0-9_:.\-]*"
_SPACES = re.compile(f"{_S}*")
_TAG_NAME = re.compile(f"</?{_NAME}")
_ATTRIBUTE = re.compile(rf"""{_S}+({_NAME}){_S}*={_S}*(?:"([^"]*)"|'([^']*)')""")
#: An attribute piece by piece, with what to say when a piece is missing.
_ATTRIBUTE_STEPS = tuple(
    (re.compile(pattern), message)
    for pattern, message in (
        (f"{_S}+", "expected whitespace before attribute"),
        (_NAME, "expected a name"),
        (f"{_S}*=", "expected '='"),
        (f"{_S}*[\"']", "expected quoted attribute value"),
    )
)
#: One token: the character data up to the next ``<``, then — when it
#: is well formed — one end tag, or a start tag's name and, if the tag
#: has no attributes, its end.  Everything else a ``<`` can open
#: (comment, PI, CDATA, a malformed tag) leaves the tag part unmatched
#: and goes to :func:`_markup`.
_TOKEN = re.compile(rf"([^<]*)(?:<(?:/({_NAME}){_S}*>|({_NAME})(?:{_S}*(/?)>)?))?")
_TAG_END = re.compile(f"{_S}*(/?)>")
#: ``(opener, closer, what)`` of the constructs skipped around the root
#: (``_MISC``) and, with CDATA sections kept as text, inside elements.
_MISC = (("<!--", "-->", "comment"), ("<?", "?>", "processing instruction"))
_SKIPPED = _MISC + (("<![CDATA[", "]]>", "CDATA section"),)

#: Deepest element nesting accepted.  LEAD and CLRC documents nest
#: fewer than 20 levels; the cap bounds the open-element stack (and the
#: recursion of everything downstream that walks the tree).
MAX_NESTING_DEPTH = 100


def _resolve(raw: str, source: str, offset: int) -> str:
    """``raw`` with its references resolved; ``offset`` places a bad one."""
    try:
        return unescape(raw)
    except ValueError as exc:
        raise XMLSyntaxError(str(exc), source, offset) from None


def _end_of_skipped(source: str, pos: int, kinds: tuple) -> int:
    """End of the comment / PI / CDATA section opening at ``pos``, or -1."""
    for opener, closer, what in kinds:
        if source.startswith(opener, pos):
            end = source.find(closer, pos + len(opener))
            if end < 0:
                raise XMLSyntaxError(f"unterminated {what}", source, pos)
            return end + len(closer)
    return -1


def _skip_misc(source: str, pos: int) -> int:
    """Skip whitespace, comments, PIs (the XML declaration) and DOCTYPEs."""
    while True:
        pos = _SPACES.match(source, pos).end()
        end = _end_of_skipped(source, pos, _MISC)
        if end < 0:
            if not source.startswith("<!DOCTYPE", pos):
                return pos
            end = _end_of_doctype(source, pos)
        pos = end


def _end_of_doctype(source: str, pos: int) -> int:
    """End of a simple (bracket-free or internal-subset) doctype."""
    depth = 0
    for i in range(pos, len(source)):
        ch = source[i]
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        elif ch == ">" and depth == 0:
            return i + 1
    raise XMLSyntaxError("unterminated DOCTYPE", source, pos)


def _attributes(source: str, pos: int) -> Tuple[Dict[str, str], int]:
    """The attributes written from ``pos`` on and the offset they stop at."""
    attributes: Dict[str, str] = {}
    while True:
        m = _ATTRIBUTE.match(source, pos)
        if m is None:
            return attributes, pos
        name, raw = m.group(1, m.lastindex)
        if "<" in raw:
            raise XMLSyntaxError("'<' not allowed in attribute value", source, m.start(m.lastindex))
        if name in attributes:
            raise XMLSyntaxError(f"duplicate attribute {name!r}", source, m.start(1))
        attributes[name] = _resolve(raw, source, m.start(m.lastindex))
        pos = m.end()


def _markup(source: str, pos: int, open_tag: str, children: List) -> int:
    """What ``_TOKEN`` left at ``pos`` inside ``<open_tag>``: skip a
    comment or PI, keep a CDATA section as verbatim text, and raise for
    everything else."""
    if pos >= len(source):
        raise XMLSyntaxError(f"unclosed element <{open_tag}>", source, pos)
    end = _end_of_skipped(source, pos, _SKIPPED)
    if end < 0:
        raise _malformed_tag(source, pos)
    if source.startswith("<![CDATA[", pos):
        children.append(source[pos + 9 : end - 3])
    return end


def _malformed_tag(source: str, pos: int) -> XMLSyntaxError:
    """Walk the tag at ``pos`` the way the grammar reads, to say where
    it goes wrong."""

    def error(message: str, offset: int) -> XMLSyntaxError:
        return XMLSyntaxError(message, source, offset)

    end_tag = source.startswith("</", pos)
    m = _TAG_NAME.match(source, pos)
    if m is None:
        return error("expected a name", pos + 1 + end_tag)
    pos = m.end() if end_tag else _attributes(source, m.end())[1]
    after = _SPACES.match(source, pos).end()
    if after == len(source):
        return error(f"unterminated {'end' if end_tag else 'start'} tag", after)
    if end_tag or source[after] in "/>":
        return error("expected '>'", after + (source[after] == "/"))
    for pattern, message in _ATTRIBUTE_STEPS:
        m = pattern.match(source, pos)
        if m is None:
            return error(message, pos)
        pos = m.end()
    return error("unterminated attribute value", pos - 1)


def parse(source: str) -> Document:
    """Parse ``source`` into a :class:`Document` with source spans.

    Raises
    ------
    XMLSyntaxError
        On any well-formedness violation, with line/column information.
    """
    pos = _skip_misc(source, 0)
    if not source.startswith("<", pos):
        raise XMLSyntaxError("expected root element", source, pos)
    top: List = []  # receives the root
    children = top  # of the innermost open element
    # (tag, attributes, '<' offset, siblings) of each open element.  The
    # element itself is built when it closes, from its finished list of
    # children: appended to in place, ``element.children`` would stay
    # over-allocated (a retained tree is 3% larger).
    stack: List[tuple] = []
    token = _TOKEN.match
    while True:
        m = token(source, pos)
        text, closed, tag, empty = m.groups()
        if text:
            # Only a chunk with a reference needs resolving.
            children.append(_resolve(text, source, pos) if "&" in text else text)
        start, pos = m.end(1), m.end()
        if tag is not None:
            attributes = None
            if empty is None:  # more than a name: attributes, then the end
                attributes, pos = _attributes(source, pos)
                m = _TAG_END.match(source, pos)
                if m is None:
                    raise _malformed_tag(source, start)
                empty, pos = m.group(1), m.end()
            if empty:
                children.append(Element(tag, attributes, source_span=(start, pos)))
                if not stack:
                    break
            elif len(stack) == MAX_NESTING_DEPTH:
                raise XMLSyntaxError(f"nesting deeper than {MAX_NESTING_DEPTH}", source, start)
            else:
                stack.append((tag, attributes, start, children))
                children = []
        elif closed is not None and stack:
            tag, attributes, opened, siblings = stack.pop()
            if closed != tag:
                raise XMLSyntaxError(f"mismatched end tag </{closed}> for <{tag}>", source, start)
            siblings.append(Element(tag, attributes, children, (opened, pos)))
            if not stack:
                break
            children = siblings
        elif stack:
            pos = _markup(source, start, stack[-1][0], children)
        elif source.startswith("</", start):
            raise XMLSyntaxError("expected root element", source, start)
        else:
            raise _malformed_tag(source, start)
    pos = _skip_misc(source, pos)
    if pos != len(source):
        raise XMLSyntaxError("trailing content after root element", source, pos)
    return Document(top[0], source=source)


def parse_fragment(source: str) -> Element:
    """Parse a single-element fragment and return the element itself."""
    return parse(source).root


def parse_span(source: str, span: Tuple[int, int]) -> Element:
    """Parse the fragment at ``span`` of ``source`` (used for CLOB re-parsing)."""
    start, end = span
    return parse_fragment(source[start:end])
