"""Errors raised by the relational engine."""

from __future__ import annotations

from ..errors import ReproError


class RelationalError(ReproError):
    """Base class for engine errors."""


class TableError(RelationalError):
    """Unknown/duplicate table, or schema mismatch on insert."""


class ConstraintError(RelationalError):
    """Primary-key or NOT NULL violation."""
