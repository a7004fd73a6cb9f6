"""Column types for the from-scratch relational engine.

The engine is intentionally small — it exists so the catalog's
set-based plans (paper Fig. 4 and §5) run on a substrate we fully
control and can instrument, while remaining executable unchanged on a
real RDBMS through the sqlite backend.  Only the four storage classes
the catalog needs are provided.
"""

from __future__ import annotations

import enum
from typing import Any, Sequence


class ColumnType(enum.Enum):
    """Storage classes supported by the engine.

    ``CLOB`` is distinct from ``TEXT`` purely as a signal: the engine
    never builds indexes over CLOB columns, mirroring the paper's point
    that CLOBs are not touched until the final join of the response
    builder (§5).
    """

    INTEGER = "integer"
    REAL = "real"
    TEXT = "text"
    CLOB = "clob"

    def validate(self, value: Any) -> Any:
        """Coerce/validate ``value`` for this type; ``None`` passes (NULL).

        Raises
        ------
        TypeError
            If the value is not acceptable for the column type.
        """
        if value is None:
            return None
        if self is ColumnType.INTEGER:
            if isinstance(value, bool) or not isinstance(value, int):
                raise TypeError(f"expected int, got {type(value).__name__}: {value!r}")
            return value
        if self is ColumnType.REAL:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise TypeError(f"expected float, got {type(value).__name__}: {value!r}")
            return float(value)
        # TEXT / CLOB
        if not isinstance(value, str):
            raise TypeError(f"expected str, got {type(value).__name__}: {value!r}")
        return value


_STORED_AS = {
    ColumnType.INTEGER: int,
    ColumnType.REAL: float,
    ColumnType.TEXT: str,
    ColumnType.CLOB: str,
}
_NULL = type(None)


class Column:
    """A named, typed column with optional NOT NULL constraint."""

    __slots__ = ("name", "type", "nullable", "_stored")

    def __init__(self, name: str, type: ColumnType, nullable: bool = True) -> None:
        if not name or not name.replace("_", "").isalnum():
            raise ValueError(f"invalid column name {name!r}")
        self.name = name
        self.type = type
        self.nullable = nullable
        #: Exact types a value may have to be stored as it is.
        self._stored = {_STORED_AS[type], _NULL} if nullable else {_STORED_AS[type]}

    def validate(self, value: Any) -> Any:
        if value is None:
            if not self.nullable:
                raise TypeError(f"column {self.name!r} is NOT NULL")
            return None
        return self.type.validate(value)

    def validate_many(self, values: Sequence[Any]) -> Sequence[Any]:
        """:meth:`validate` over a column of values.  Values that all
        have the stored type already (``bool`` is not ``int``) are
        accepted as they are; anything else — coercion, every error —
        takes the per-value path."""
        if set(map(type, values)) <= self._stored:
            return values
        return [self.validate(value) for value in values]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Column({self.name!r}, {self.type.value})"


def integer(name: str, nullable: bool = True) -> Column:
    return Column(name, ColumnType.INTEGER, nullable)


def real(name: str, nullable: bool = True) -> Column:
    return Column(name, ColumnType.REAL, nullable)


def text(name: str, nullable: bool = True) -> Column:
    return Column(name, ColumnType.TEXT, nullable)


def clob(name: str, nullable: bool = True) -> Column:
    return Column(name, ColumnType.CLOB, nullable)
