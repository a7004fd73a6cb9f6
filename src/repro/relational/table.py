"""Columnar tables with hash secondary indexes.

Storage is column-oriented: one parallel Python list per column plus a
validity bitmap (``bytearray``, ``1`` = live, ``0`` = tombstone).  A row
id is a position shared by every column list, so rows are materialized
as tuples only at the edges (``fetch``/``scan``/``lookup``); callers
that filter probe whole columns (:meth:`Table.column_data`) at the row
ids an index lookup returned.  Indexes map key tuples to lists of row
ids.  Rows arrive by :meth:`Table.extend` (a checked, all-or-none
batch: the catalog's one call per table per document) or one at a time
by :meth:`Table.insert` (baselines).  The relative costs the benchmarks
measure (scans vs index lookups) still mirror the RDBMS the paper ran
on; the columnar layout removes the per-row interpretation overhead a
heap of tuples pays on every cold scan.
"""

from __future__ import annotations

import sys
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .errors import ConstraintError, TableError
from .types import Column


class HashIndex:
    """Equality index: key tuple -> list of row ids."""

    __slots__ = ("name", "columns", "positions", "unique", "buckets")

    def __init__(self, name: str, columns: Sequence[str], positions: Sequence[int], unique: bool) -> None:
        self.name = name
        self.columns = tuple(columns)
        self.positions = tuple(positions)
        self.unique = unique
        self.buckets: Dict[tuple, List[int]] = {}

    def key_of(self, row: tuple) -> tuple:
        positions = self.positions
        return tuple(row[p] for p in positions)

    def add(self, rowid: int, row: tuple) -> None:
        key = self.key_of(row)
        bucket = self.buckets.get(key)
        if bucket is None:
            self.buckets[key] = [rowid]
        else:
            if self.unique:
                raise ConstraintError(
                    f"unique index {self.name!r} violated for key {key!r}"
                )
            bucket.append(rowid)

    def remove(self, rowid: int, row: tuple) -> None:
        key = self.key_of(row)
        bucket = self.buckets.get(key)
        if bucket is not None:
            try:
                bucket.remove(rowid)
            except ValueError:
                pass
            if not bucket:
                del self.buckets[key]

    def lookup(self, key: tuple) -> List[int]:
        return self.buckets.get(key, [])


class Table:
    """A columnar table with a schema, optional primary key, and indexes."""

    def __init__(
        self,
        name: str,
        columns: Sequence[Column],
        primary_key: Optional[Sequence[str]] = None,
    ) -> None:
        if not columns:
            raise TableError(f"table {name!r} needs at least one column")
        names = [c.name for c in columns]
        if len(set(names)) != len(names):
            raise TableError(f"table {name!r} has duplicate column names")
        self.name = name
        self.columns: Tuple[Column, ...] = tuple(columns)
        self.column_names: Tuple[str, ...] = tuple(names)
        self._positions: Dict[str, int] = {n: i for i, n in enumerate(names)}
        #: One value list per column; parallel, equal length.  A row id
        #: is a shared position.  Tombstoned slots hold None in every
        #: column and a 0 bit in the validity bitmap.
        self._cols: Tuple[List[Any], ...] = tuple([] for _ in names)
        self._valid = bytearray()
        self._live = 0
        #: Undo journal shared with the owning Database while a
        #: transaction is active; None otherwise (zero overhead).
        #: Entries are ``(table, rowid, row)`` — ``row is None`` marks
        #: an insert to undo, a tuple marks a delete to restore.
        self.journal: Optional[List[Tuple["Table", int, Optional[tuple]]]] = None
        self._hash_indexes: List[HashIndex] = []
        self.primary_key: Optional[Tuple[str, ...]] = None
        if primary_key:
            self.primary_key = tuple(primary_key)
            self.create_index("pk_" + name, primary_key, unique=True)

    # ------------------------------------------------------------------
    # Schema helpers
    # ------------------------------------------------------------------
    def position(self, column: str) -> int:
        try:
            return self._positions[column]
        except KeyError:
            raise TableError(f"table {self.name!r} has no column {column!r}") from None

    def positions(self, columns: Sequence[str]) -> Tuple[int, ...]:
        return tuple(self.position(c) for c in columns)

    # ------------------------------------------------------------------
    # Indexes
    # ------------------------------------------------------------------
    def create_index(self, name: str, columns: Sequence[str], unique: bool = False) -> HashIndex:
        positions = self.positions(columns)
        index = HashIndex(name, columns, positions, unique)
        for rowid in self.live_rowids():
            index.add(rowid, self._row(rowid))
        self._hash_indexes.append(index)
        return index

    def find_hash_index(self, columns: Sequence[str]) -> Optional[HashIndex]:
        want = tuple(columns)
        for index in self._hash_indexes:
            if index.columns == want:
                return index
        return None

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def extend(self, rows: Sequence[Sequence[Any]]) -> None:
        """Insert full rows (positional), all or none — the catalog's
        write path: one call per table per document.

        Row lengths, every column's values (:meth:`Column.validate_many`)
        and every unique key — against the index *and* within the batch
        — are checked before the first column is touched, so a failure
        leaves the table unchanged.  Columns, validity bitmap, each hash
        index and the undo journal are then updated once per batch.
        """
        for values in rows:
            if len(values) != len(self.columns):
                raise TableError(
                    f"table {self.name!r} expects {len(self.columns)} values, got {len(values)}"
                )
        if not rows:
            return
        columns = [col.validate_many(vals) for col, vals in zip(self.columns, zip(*rows))]
        keyed = []
        for index in self._hash_indexes:
            keys = list(zip(*[columns[p] for p in index.positions]))
            if index.unique:
                seen: set = set()
                for key in keys:
                    if key in index.buckets or key in seen:
                        raise ConstraintError(
                            f"unique index {index.name!r} violated for key {key!r}"
                        )
                    seen.add(key)
            keyed.append((index.buckets, keys))
        # One int object per row, shared by every index bucket and the
        # journal (a fresh ``range`` per index would allocate it again).
        first = len(self._valid)
        rowids = list(range(first, first + len(rows)))
        # Columns and bitmap grow by ``append``: ``extend`` over-allocates
        # on another schedule and ``storage_breakdown`` counts capacity.
        for col, vals in zip(self._cols, columns):
            append = col.append
            for value in vals:
                append(value)
        append = self._valid.append
        for _ in rowids:
            append(1)
        self._live += len(rowids)
        for buckets, keys in keyed:
            for key, rowid in zip(keys, rowids):
                bucket = buckets.get(key)
                if bucket is None:
                    buckets[key] = [rowid]
                else:
                    bucket.append(rowid)
        if self.journal is not None:
            self.journal.extend([(self, rowid, None) for rowid in rowids])

    def insert(self, values: Sequence[Any]) -> int:
        """Insert one full row (positional); returns the row id.

        The row-at-a-time path of the baselines and of tests; the
        catalog writes through :meth:`extend`.  Kept beside it because a
        one-row ``extend`` costs 8.0 µs against 6.3 µs here (E1: edge
        -21 %, inlining -12 %)."""
        if len(values) != len(self.columns):
            raise TableError(
                f"table {self.name!r} expects {len(self.columns)} values, got {len(values)}"
            )
        row = tuple(col.validate(v) for col, v in zip(self.columns, values))
        rowid = len(self._valid)
        # Validate unique indexes before touching any of them so a
        # constraint failure leaves the table unchanged.
        for index in self._hash_indexes:
            if index.unique and index.lookup(index.key_of(row)):
                raise ConstraintError(
                    f"unique index {index.name!r} violated for key {index.key_of(row)!r}"
                )
        for col, value in zip(self._cols, row):
            col.append(value)
        self._valid.append(1)
        self._live += 1
        for index in self._hash_indexes:
            index.add(rowid, row)
        if self.journal is not None:
            self.journal.append((self, rowid, None))
        return rowid

    def insert_dict(self, **values: Any) -> int:
        """Insert by column name; omitted columns get NULL."""
        row = [None] * len(self.columns)
        for name, value in values.items():
            row[self.position(name)] = value
        return self.insert(row)

    def delete_rowids(self, rowids: Iterable[int]) -> None:
        """Tombstone the live rows ``rowids`` (any order, no duplicates).

        Journal entries are per-row and ascending by row id whatever
        order the caller found the rows in (an index bucket is not in
        rowid order once a rollback has refilled it), so rollback
        replays one deterministic sequence."""
        rowids = sorted(rowids)
        rows = [self._row(rowid) for rowid in rowids]
        for index in self._hash_indexes:
            for rowid, row in zip(rowids, rows):
                index.remove(rowid, row)
        valid = self._valid
        cols = self._cols
        for rowid in rowids:
            valid[rowid] = 0
            for col in cols:
                col[rowid] = None
        self._live -= len(rowids)
        if self.journal is not None:
            for rowid, row in zip(rowids, rows):
                self.journal.append((self, rowid, row))

    def clear(self) -> None:
        if self.journal is not None:
            for rowid in self.live_rowids():
                self.journal.append((self, rowid, self._row(rowid)))
        for col in self._cols:
            col.clear()
        self._valid = bytearray()
        self._live = 0
        for index in self._hash_indexes:
            index.buckets.clear()

    # ------------------------------------------------------------------
    # Undo (transaction rollback; journal entries replay in reverse so
    # the table returns to exactly its pre-transaction state)
    # ------------------------------------------------------------------
    def _undo_insert(self, rowid: int) -> None:
        if rowid >= len(self._valid) or not self._valid[rowid]:
            return
        row = self._row(rowid)
        for index in self._hash_indexes:
            index.remove(rowid, row)
        if rowid == len(self._valid) - 1:
            for col in self._cols:
                col.pop()
            self._valid.pop()
        else:
            self._valid[rowid] = 0
            for col in self._cols:
                col[rowid] = None
        self._live -= 1

    def _undo_delete(self, rowid: int, row: tuple) -> None:
        while len(self._valid) <= rowid:
            for col in self._cols:
                col.append(None)
            self._valid.append(0)
        for col, value in zip(self._cols, row):
            col[rowid] = value
        self._valid[rowid] = 1
        self._live += 1
        for index in self._hash_indexes:
            index.add(rowid, row)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._live

    def _row(self, rowid: int) -> tuple:
        return tuple(col[rowid] for col in self._cols)

    @property
    def _compact(self) -> bool:
        """True when there are no tombstones (every slot is live)."""
        return self._live == len(self._valid)

    def live_rowids(self) -> Iterator[int]:
        """Row ids of live rows, ascending."""
        if self._compact:
            return iter(range(len(self._valid)))
        return (i for i, bit in enumerate(self._valid) if bit)

    def scan(self) -> Iterator[tuple]:
        """All live rows in insertion order."""
        if not self._cols:
            return iter(())
        if self._compact:
            return zip(*self._cols)
        valid = self._valid
        return (
            row for i, row in enumerate(zip(*self._cols)) if valid[i]
        )

    def rows(self) -> List[tuple]:
        return list(self.scan())

    def fetch(self, rowid: int) -> tuple:
        if rowid >= len(self._valid) or not self._valid[rowid]:
            raise TableError(f"row {rowid} of table {self.name!r} was deleted")
        return self._row(rowid)

    def lookup(self, columns: Sequence[str], key: Sequence[Any]) -> List[tuple]:
        """Equality lookup, via an index when one covers ``columns``."""
        index = self.find_hash_index(columns)
        key_t = tuple(key)
        if index is not None:
            return [self._row(rid) for rid in index.lookup(key_t)]
        positions = self.positions(columns)
        return [
            row
            for row in self.scan()
            if tuple(row[p] for p in positions) == key_t
        ]

    def lookup_rowids(self, columns: Sequence[str], key: Sequence[Any]) -> List[int]:
        """Row ids for an equality lookup — lets callers probe single
        columns (:meth:`column_data`) without materializing tuples."""
        index = self.find_hash_index(columns)
        key_t = tuple(key)
        if index is not None:
            return list(index.lookup(key_t))
        positions = self.positions(columns)
        cols = [self._cols[p] for p in positions]
        return [
            rid
            for rid in self.live_rowids()
            if tuple(col[rid] for col in cols) == key_t
        ]

    # ------------------------------------------------------------------
    # Columnar access (batch execution surface)
    # ------------------------------------------------------------------
    def column_data(self, column: str) -> List[Any]:
        """The raw value column, one slot per row id (tombstoned slots
        hold None).  A borrowed view: callers must not mutate it and
        should probe it only at live row ids (:meth:`lookup_rowids`)."""
        return self._cols[self.position(column)]

    def iter_values(self, *columns: str) -> Iterator[tuple]:
        """Tuples of the named columns for live rows, in rowid order —
        a projection scan that never touches unreferenced columns."""
        cols = [self._cols[self.position(c)] for c in columns]
        if self._compact:
            return zip(*cols)
        valid = self._valid
        return (
            vals for i, vals in enumerate(zip(*cols)) if valid[i]
        )

    # ------------------------------------------------------------------
    # Storage accounting
    # ------------------------------------------------------------------
    def storage_breakdown(self) -> Dict[str, int]:
        """Per-column storage bytes: the column list's own footprint
        (slot pointers + list header, via ``sys.getsizeof``) plus the
        payload of live values (strings by length, numbers as 8 bytes).
        Includes a ``"<validity>"`` entry for the tombstone bitmap."""
        breakdown: Dict[str, int] = {"<validity>": sys.getsizeof(self._valid)}
        for name, col in zip(self.column_names, self._cols):
            total = sys.getsizeof(col)
            for value in col:
                if value is None:
                    continue
                if isinstance(value, str):
                    total += len(value)
                else:
                    total += 8
            breakdown[name] = total
        return breakdown

    def estimated_bytes(self) -> int:
        """Actual columnar storage: per-column sizes + validity bitmap
        (used by the storage benchmarks, E5)."""
        return sum(self.storage_breakdown().values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Table({self.name!r}, rows={self._live})"
