"""Character escaping for XML content and attribute values.

Only the five predefined XML entities plus decimal/hex character
references are supported; the grid metadata documents the catalog
handles never rely on DTD-defined entities.
"""

from __future__ import annotations

_TEXT_ESCAPES = {
    "&": "&amp;",
    "<": "&lt;",
    ">": "&gt;",
}

_ATTR_ESCAPES = dict(_TEXT_ESCAPES)
_ATTR_ESCAPES['"'] = "&quot;"

_NAMED_ENTITIES = {
    "amp": "&",
    "lt": "<",
    "gt": ">",
    "quot": '"',
    "apos": "'",
}


def escape_text(value: str) -> str:
    """Escape ``value`` for use as XML character data."""
    if not ("&" in value or "<" in value or ">" in value):
        return value
    out = []
    for ch in value:
        out.append(_TEXT_ESCAPES.get(ch, ch))
    return "".join(out)


def escape_attribute(value: str) -> str:
    """Escape ``value`` for use inside a double-quoted attribute value."""
    if not ("&" in value or "<" in value or ">" in value or '"' in value):
        return value
    out = []
    for ch in value:
        out.append(_ATTR_ESCAPES.get(ch, ch))
    return "".join(out)


def unescape(value: str) -> str:
    """Resolve entity and character references in ``value``.

    Raises
    ------
    ValueError
        If a reference is malformed, names an unknown entity or a
        character outside Unicode (and nothing but ``ValueError``).
    """
    if "&" not in value:
        return value
    out = []
    i = 0
    n = len(value)
    while i < n:
        ch = value[i]
        if ch != "&":
            out.append(ch)
            i += 1
            continue
        end = value.find(";", i + 1)
        if end < 0:
            raise ValueError(f"unterminated entity reference at offset {i}")
        body = value[i + 1 : end]
        if not body:
            raise ValueError(f"empty entity reference at offset {i}")
        if body.startswith("#"):
            hexadecimal = body[1:2] in ("x", "X")
            try:
                out.append(chr(int(body[2:], 16) if hexadecimal else int(body[1:], 10)))
            except (ValueError, OverflowError):  # bad digits / beyond U+10FFFF
                raise ValueError(f"invalid character reference &{body};") from None
        else:
            try:
                out.append(_NAMED_ENTITIES[body])
            except KeyError:
                raise ValueError(f"unknown entity &{body};") from None
        i = end + 1
    return "".join(out)
