"""Document object model used throughout the catalog.

The model is deliberately small: elements, attributes, and text.  Two
features matter to the hybrid catalog and are absent from the standard
library model:

* **Source spans** — every element parsed from text records the half-open
  ``[start, end)`` offsets of its serialized form in the original
  document, so the shredder can store byte-exact CLOBs without
  re-serializing (re-serialization could normalize whitespace and break
  the paper's "CLOBs are verbatim" property).
* **Stable child order** — children are a plain list; document order is
  the list order everywhere.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple, Union

from .escape import escape_attribute, escape_text

Child = Union["Element", str]

#: The child list of every element built without children, shared: a
#: leaf leaves the collector one object to track (itself), not two.
#: Nothing mutates ``children`` in place; :meth:`Element.append` and
#: :meth:`Element.extend` give an element its own list on first write.
_NO_CHILDREN: List[Child] = []


class Element:
    """An XML element: tag, attributes, and ordered children.

    Children are either :class:`Element` instances or plain strings
    (character data).  ``source_span`` is ``(start, end)`` into the text
    the element was parsed from, or ``None`` for programmatically built
    trees.  Add children with :meth:`append` / :meth:`extend`, not by
    mutating ``children``: a leaf shares its empty list.
    """

    __slots__ = ("tag", "attributes", "children", "source_span")

    def __init__(
        self,
        tag: str,
        attributes: Optional[Dict[str, str]] = None,
        children: Optional[List[Child]] = None,
        source_span: Optional[Tuple[int, int]] = None,
    ) -> None:
        self.tag = tag
        self.attributes: Dict[str, str] = dict(attributes or {})
        self.children: List[Child] = list(children) if children else _NO_CHILDREN
        self.source_span = source_span

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def append(self, child: Child) -> "Element":
        """Append ``child`` and return ``self`` (chainable)."""
        if self.children is _NO_CHILDREN:
            self.children = []
        self.children.append(child)
        return self

    def extend(self, children: List[Child]) -> "Element":
        if self.children is _NO_CHILDREN:
            self.children = []
        self.children.extend(children)
        return self

    # ------------------------------------------------------------------
    # Navigation
    # ------------------------------------------------------------------
    def child_elements(self) -> List["Element"]:
        """All element children in document order."""
        return [c for c in self.children if isinstance(c, Element)]

    def find(self, tag: str) -> Optional["Element"]:
        """First child element with ``tag``, or ``None``."""
        for c in self.children:
            if isinstance(c, Element) and c.tag == tag:
                return c
        return None

    def find_all(self, tag: str) -> List["Element"]:
        """All child elements with ``tag`` in document order."""
        return [c for c in self.children if isinstance(c, Element) and c.tag == tag]

    def text(self) -> str:
        """Concatenated character data of *direct* children."""
        children = self.children
        if len(children) == 1 and isinstance(children[0], str):
            return children[0]  # a leaf's one text chunk: nothing to join
        return "".join([c for c in children if isinstance(c, str)])

    def deep_text(self) -> str:
        """Concatenated character data of the whole subtree."""
        parts: List[str] = []
        for node in self.iter():
            for c in node.children:
                if isinstance(c, str):
                    parts.append(c)
        return "".join(parts)

    def iter(self) -> Iterator["Element"]:
        """Pre-order iterator over this element and all descendants."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.child_elements()))

    def has_element_children(self) -> bool:
        return any(isinstance(c, Element) for c in self.children)

    def descendant_count(self) -> int:
        """Number of elements in the subtree, including self."""
        return sum(1 for _ in self.iter())

    # ------------------------------------------------------------------
    # Serialization (compact; pretty printing lives in serializer.py)
    # ------------------------------------------------------------------
    def to_xml(self) -> str:
        """Compact serialization with minimal escaping."""
        out: List[str] = []
        self._write(out)
        return "".join(out)

    def _write(self, out: List[str]) -> None:
        out.append("<")
        out.append(self.tag)
        for name, value in self.attributes.items():
            out.append(f' {name}="{escape_attribute(value)}"')
        if not self.children:
            out.append("/>")
            return
        out.append(">")
        for child in self.children:
            if isinstance(child, Element):
                child._write(out)
            else:
                out.append(escape_text(child))
        out.append(f"</{self.tag}>")

    # ------------------------------------------------------------------
    # Comparison / debugging
    # ------------------------------------------------------------------
    def structurally_equal(self, other: "Element", ignore_whitespace: bool = True) -> bool:
        """Deep equality of tag, attributes, and children.

        With ``ignore_whitespace`` (the default), text children that are
        pure whitespace are dropped on both sides and remaining text is
        stripped — the comparison the catalog round-trip tests need,
        since indentation is not significant in the metadata documents.
        """
        if self.tag != other.tag or self.attributes != other.attributes:
            return False
        mine = _comparable_children(self, ignore_whitespace)
        theirs = _comparable_children(other, ignore_whitespace)
        if len(mine) != len(theirs):
            return False
        for a, b in zip(mine, theirs):
            if isinstance(a, Element) != isinstance(b, Element):
                return False
            if isinstance(a, Element):
                if not a.structurally_equal(b, ignore_whitespace):  # type: ignore[arg-type]
                    return False
            elif a != b:
                return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Element({self.tag!r}, children={len(self.children)})"


def _comparable_children(element: Element, ignore_whitespace: bool) -> List[Child]:
    if not ignore_whitespace:
        return element.children
    result: List[Child] = []
    for c in element.children:
        if isinstance(c, str):
            stripped = c.strip()
            if stripped:
                result.append(stripped)
        else:
            result.append(c)
    return result


class Document:
    """A parsed XML document: the root element plus the source text.

    ``source`` is retained so callers can slice verbatim CLOBs with
    :meth:`slice` using element source spans.
    """

    __slots__ = ("root", "source")

    def __init__(self, root: Element, source: Optional[str] = None) -> None:
        self.root = root
        self.source = source

    def slice(self, element: Element) -> str:
        """The verbatim source text of ``element``.

        Falls back to re-serialization for elements without spans (for
        programmatically built documents).
        """
        if self.source is not None and element.source_span is not None:
            start, end = element.source_span
            return self.source[start:end]
        return element.to_xml()

    def to_xml(self) -> str:
        return self.root.to_xml()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Document(root={self.root.tag!r})"


def element(tag: str, *children: Child, **attributes: str) -> Element:
    """Terse constructor used heavily by tests and generators.

    >>> element("theme", element("themekt", "CF NetCDF")).to_xml()
    '<theme><themekt>CF NetCDF</themekt></theme>'
    """
    return Element(tag, attributes=attributes, children=list(children))
