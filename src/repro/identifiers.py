"""The single audited interpolation point for SQL identifiers.

Nothing is interpolated into SQL text except through
:func:`quote_identifier` — table names that cannot be bound as ``?``
parameters (``storage_report`` reads them from ``sqlite_master``).
``tests/analysis/test_structural_invariants.py`` holds every string
that opens with a SQL verb to direct ``quote_identifier(...)`` holes.
The helper *validates* rather than escapes: every identifier it sees
is a catalog table name from a fixed alphabet, so anything outside
``[A-Za-z_][A-Za-z0-9_]*`` is a logic error worth failing loudly on,
not something to quote around.  Valid names pass through byte-for-byte,
which keeps every existing SQL statement — and therefore every
statement-count-keyed fault sweep — identical to what it was before
the audit.
"""

from __future__ import annotations

import re

from .errors import CatalogError

__all__ = ["quote_identifier"]

_IDENTIFIER_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*\Z")


def quote_identifier(name: str) -> str:
    """Validate ``name`` as a SQL identifier and return it unchanged.

    Raises :class:`~repro.errors.CatalogError` on anything that is not
    a plain identifier — quote characters, spaces, dots, empty strings
    — so an attacker-influenced (or just buggy) name can never reach
    ``execute()`` as SQL text.  Idempotent by construction."""
    if not isinstance(name, str) or not _IDENTIFIER_RE.match(name):
        raise CatalogError(f"invalid SQL identifier: {name!r}")
    return name
