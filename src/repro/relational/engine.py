"""The Database object: a registry of named tables.

The catalog and baselines each create their tables through one
:class:`Database`, so storage accounting (bench E5) and debugging have a
single place to enumerate everything a scheme stores.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .errors import TableError
from .table import Table
from .types import Column


class Database:
    """Named tables, one undo-journal transaction, and storage accounting."""

    def __init__(self, name: str = "db") -> None:
        self.name = name
        self._tables: Dict[str, Table] = {}
        self._journal: Optional[list] = None

    # ------------------------------------------------------------------
    # DDL
    # ------------------------------------------------------------------
    def create_table(
        self,
        name: str,
        columns: Sequence[Column],
        primary_key: Optional[Sequence[str]] = None,
    ) -> Table:
        if name in self._tables:
            raise TableError(f"table {name!r} already exists")
        table = Table(name, columns, primary_key)
        table.journal = self._journal
        self._tables[name] = table
        return table

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise TableError(f"no table {name!r}") from None

    def tables(self) -> List[Table]:
        return list(self._tables.values())

    def __iter__(self) -> Iterator[Table]:
        return iter(self._tables.values())

    # ------------------------------------------------------------------
    # Transactions (undo-journal based; one level, no savepoints)
    # ------------------------------------------------------------------
    def in_transaction(self) -> bool:
        return self._journal is not None

    def begin(self) -> None:
        """Start journaling mutations so they can be rolled back."""
        if self._journal is not None:
            raise TableError("a transaction is already active")
        self._journal = []
        for table in self._tables.values():
            table.journal = self._journal

    def _end(self) -> list:
        journal = self._journal
        if journal is None:
            raise TableError("no active transaction")
        self._journal = None
        for table in self._tables.values():
            table.journal = None
        return journal

    def commit(self) -> None:
        """Discard the journal; mutations since ``begin`` are final."""
        self._end()

    def rollback(self) -> None:
        """Undo every mutation since ``begin``, in reverse order."""
        for table, target, row in reversed(self._end()):
            if row is None:  # the range of row ids an insert added
                for rowid in reversed(target):
                    table._undo_insert(rowid)
            else:  # the row id of a deleted row
                table._undo_delete(target, row)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def row_counts(self) -> Dict[str, int]:
        return {name: len(t) for name, t in self._tables.items()}

    def total_rows(self) -> int:
        return sum(len(t) for t in self._tables.values())

    def estimated_bytes(self) -> int:
        return sum(t.estimated_bytes() for t in self._tables.values())

    def storage_report(self) -> List[Tuple[str, int, int]]:
        """Per-table ``(name, rows, bytes)`` sorted by size, for E5."""
        report = [
            (name, len(t), t.estimated_bytes()) for name, t in self._tables.items()
        ]
        report.sort(key=lambda item: item[2], reverse=True)
        return report

    def storage_breakdown(self) -> Dict[str, Dict[str, int]]:
        """Per-table, per-column byte accounting (columnar layout)."""
        return {
            name: t.storage_breakdown() for name, t in self._tables.items()
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Database({self.name!r}, tables={len(self._tables)})"
