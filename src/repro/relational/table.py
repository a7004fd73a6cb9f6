"""Columnar tables with hash and posting secondary indexes.

Storage is column-oriented: one parallel Python list per column plus a
validity bitmap (``bytearray``, ``1`` = live, ``0`` = tombstone).  A row
id is a position shared by every column list, so rows are materialized
as tuples only at the edges (``fetch``/``scan``/``lookup``); callers
that filter probe whole columns (:meth:`Table.column_data`) at the row
ids an index lookup returned.  A :class:`HashIndex` maps key tuples to
row ids; a :class:`PostingIndex` maps a group to its distinct values and
each value to row ids.  Every bucket of row ids is kept ascending, so a
delete finds its row by bisection.  Rows arrive by :meth:`Table.extend`
(a checked, all-or-none batch: the catalog's one call per table per
document) or one at a time by :meth:`Table.insert` (baselines).  The
relative costs the benchmarks measure (scans vs index lookups) still
mirror the RDBMS the paper ran on; the columnar layout removes the
per-row interpretation overhead a heap of tuples pays on every cold
scan.
"""

from __future__ import annotations

import sys
from bisect import bisect_left, insort
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from .errors import ConstraintError, TableError
from .types import Column


def _insert(buckets: Dict[Any, List[int]], key: Any, rowid: int) -> bool:
    """File ``rowid`` under ``key``, keeping the bucket ascending; True
    when ``key`` is new.  A new row id is the table's maximum and is
    appended; only a rollback restoring an older row
    (:meth:`Table._undo_delete`) pays for ``insort``."""
    bucket = buckets.get(key)
    if bucket is None:
        buckets[key] = [rowid]
        return True
    if rowid > bucket[-1]:
        bucket.append(rowid)
    else:
        insort(bucket, rowid)
    return False


def _discard(buckets: Dict[Any, List[int]], key: Any, rowid: int) -> bool:
    """Drop ``rowid`` from the ascending bucket under ``key``; True when
    the bucket empties and ``key`` disappears."""
    bucket = buckets.get(key)
    if bucket is None:
        return False
    at = bisect_left(bucket, rowid)
    if at < len(bucket) and bucket[at] == rowid:
        del bucket[at]
    if bucket:
        return False
    del buckets[key]
    return True


class HashIndex:
    """Equality index: key tuple -> ascending list of row ids."""

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
        if self.unique and key in self.buckets:
            raise ConstraintError(
                f"unique index {self.name!r} violated for key {key!r}"
            )
        _insert(self.buckets, key, rowid)

    def remove(self, rowid: int, row: tuple) -> None:
        _discard(self.buckets, self.key_of(row), rowid)

    def extend(self, keys: List[tuple], rowids: List[int]) -> None:
        """File a batch of new rows by their keys; every row id is a
        new maximum, so each bucket just grows at its end."""
        buckets = self.buckets
        if keys.count(keys[0]) == len(keys):
            # One key for the whole batch: an object's rows, by object id.
            bucket = buckets.get(keys[0])
            if bucket is None:
                buckets[keys[0]] = list(rowids)
            else:
                bucket.extend(rowids)
            return
        for key, rowid in zip(keys, rowids):
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = [rowid]
            else:
                bucket.append(rowid)

    def lookup(self, key: tuple) -> List[int]:
        return self.buckets.get(key, [])

    def entries(self) -> Iterator[Tuple[Any, List[int]]]:
        return iter(self.buckets.items())

    def column_keys(self, columns: Sequence[Sequence[Any]]) -> Iterable[tuple]:
        """The key of every row slot, from whole columns."""
        return zip(*[columns[p] for p in self.positions])

    def clear(self) -> None:
        self.buckets.clear()


class PostingIndex:
    """Value index: group -> typed value -> ascending list of row ids.

    A row's *typed value* is its value column, or its fallback column
    where the value column is NULL: SQL's ``COALESCE``.  A row with both
    NULL sits under ``None``.  The catalog indexes ``elements`` as
    ``elem_id -> COALESCE(value_num, value_text)``.  The shredder sets
    ``value_num`` exactly for INTEGER/FLOAT definitions and query
    shredding marks a criterion numeric exactly for those, so for every
    shredded row the typed value is the column a criterion on its
    definition reads.  A row written through :meth:`Table.insert` need
    not follow that rule (a NULL ``value_num`` under a numeric
    definition, text and float values in one group); readers learn from
    :meth:`value_type` whether a group's values are all of one type.
    That answer is cached per group until a value appears in or
    disappears from the group.
    """

    __slots__ = ("name", "positions", "groups", "_types")

    def __init__(self, name: str, positions: Sequence[int]) -> None:
        self.name = name
        #: Positions of the ``(group, value, fallback)`` columns.
        self.positions = tuple(positions)
        self.groups: Dict[Any, Dict[Any, List[int]]] = {}
        self._types: Dict[Any, Optional[type]] = {}

    def key_of(self, row: tuple) -> Tuple[Any, Any]:
        """``(group, typed value)`` of one row."""
        group, value, fallback = self.positions
        return row[group], row[value] if row[value] is not None else row[fallback]

    def add(self, rowid: int, row: tuple) -> None:
        group, value = self.key_of(row)
        if _insert(self.groups.setdefault(group, {}), value, rowid):
            self._types.pop(group, None)

    def extend(self, columns: Sequence[Sequence[Any]], rowids: Sequence[int]) -> None:
        """File a batch of new rows, given as whole columns; every row
        id is a new maximum, so each bucket just grows at its end."""
        groups, cached = self.groups, self._types
        for group, value, fallback, rowid in zip(
            *[columns[p] for p in self.positions], rowids
        ):
            if value is None:
                value = fallback
            postings = groups.get(group)
            if postings is None:
                groups[group] = {value: [rowid]}
                continue
            bucket = postings.get(value)
            if bucket is not None:
                bucket.append(rowid)
            else:
                postings[value] = [rowid]
                cached.pop(group, None)

    def remove(self, rowid: int, row: tuple) -> None:
        group, value = self.key_of(row)
        postings = self.groups.get(group)
        if postings is not None and _discard(postings, value, rowid):
            self._types.pop(group, None)
            if not postings:
                del self.groups[group]

    def postings(self, group: Any) -> Dict[Any, List[int]]:
        """The group's ``typed value -> row ids`` map (borrowed; empty
        for an unknown group)."""
        return self.groups.get(group) or {}

    def rowids(self, group: Any) -> List[int]:
        """Every row id of the group, value by value."""
        return [rowid for bucket in self.postings(group).values() for rowid in bucket]

    def value_type(self, group: Any) -> Optional[type]:
        """The one type of the group's non-NULL values; ``None`` when it
        holds several types, or no such value."""
        try:
            return self._types[group]
        except KeyError:
            if group not in self.groups:
                return None
            kind = self._types[group] = self._type_of(group)
            return kind

    def _type_of(self, group: Any) -> Optional[type]:
        kinds = {type(v) for v in self.groups[group] if v is not None}
        return kinds.pop() if len(kinds) == 1 else None

    def column_keys(self, columns: Sequence[Sequence[Any]]) -> Iterable[tuple]:
        """The key of every row slot, from whole columns."""
        group, value, fallback = (columns[p] for p in self.positions)
        return zip(group, [v if v is not None else w for v, w in zip(value, fallback)])

    def entries(self) -> Iterator[Tuple[Any, List[int]]]:
        """``((group, value), row ids)`` for every posting list."""
        return (
            ((group, value), bucket)
            for group, postings in self.groups.items()
            for value, bucket in postings.items()
        )

    def clear(self) -> None:
        self.groups.clear()
        self._types.clear()


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
        #: Entries are ``(table, rowids, None)`` — the ``range`` of row
        #: ids one insert or batch added, to undo — or ``(table, rowid,
        #: row)``, a deleted row to restore.
        self.journal: Optional[List[Tuple["Table", Any, Optional[tuple]]]] = None
        self._hash_indexes: List[HashIndex] = []
        self._posting_indexes: List[PostingIndex] = []
        #: Both kinds, for the paths that treat them alike.
        self._indexes: List[Union[HashIndex, PostingIndex]] = []
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
        self._attach(index)
        self._hash_indexes.append(index)
        return index

    def create_posting_index(
        self, name: str, group_column: str, value_column: str, fallback_column: str
    ) -> PostingIndex:
        """A :class:`PostingIndex` from ``group_column`` to
        ``COALESCE(value_column, fallback_column)``."""
        index = PostingIndex(
            name, self.positions([group_column, value_column, fallback_column])
        )
        self._attach(index)
        self._posting_indexes.append(index)
        return index

    def _attach(self, index: Union[HashIndex, PostingIndex]) -> None:
        """File the live rows in a new index and keep it from now on."""
        for rowid in self.live_rowids():
            index.add(rowid, self._row(rowid))
        self._indexes.append(index)

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
        leaves the table unchanged.  Columns, validity bitmap, each
        index and the undo journal are then updated once per batch.
        """
        if not rows:
            return
        width = len(self.columns)
        if set(map(len, rows)) != {width}:
            bad = next(len(values) for values in rows if len(values) != width)
            raise TableError(f"table {self.name!r} expects {width} values, got {bad}")
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
            keyed.append((index, keys))
        # One int object per row, shared by every index bucket (a fresh
        # ``range`` per index would allocate it again).
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
        for index, keys in keyed:
            index.extend(keys, rowids)
        for posting in self._posting_indexes:
            posting.extend(columns, rowids)
        if self.journal is not None:
            self.journal.append((self, range(first, first + len(rowids)), None))

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
        for index in self._indexes:
            index.add(rowid, row)
        if self.journal is not None:
            self.journal.append((self, range(rowid, rowid + 1), None))
        return rowid

    def insert_dict(self, **values: Any) -> int:
        """Insert by column name; omitted columns get NULL."""
        row = [None] * len(self.columns)
        for name, value in values.items():
            row[self.position(name)] = value
        return self.insert(row)

    def delete_rowids(self, rowids: Iterable[int]) -> List[tuple]:
        """Tombstone the live rows ``rowids`` (any order, no duplicates);
        returns them, ascending by row id.

        Journal entries are per-row and ascending by row id whatever
        order the caller found the rows in (a posting index hands out a
        group's rows in value order), so rollback replays one
        deterministic sequence."""
        rowids = sorted(rowids)
        rows = [self._row(rowid) for rowid in rowids]
        for index in self._indexes:
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
        return rows

    def clear(self) -> None:
        if self.journal is not None:
            for rowid in self.live_rowids():
                self.journal.append((self, rowid, self._row(rowid)))
        for col in self._cols:
            col.clear()
        self._valid = bytearray()
        self._live = 0
        for index in self._indexes:
            index.clear()

    # ------------------------------------------------------------------
    # Undo (transaction rollback; journal entries replay in reverse so
    # the table returns to exactly its pre-transaction state)
    # ------------------------------------------------------------------
    def _undo_insert(self, rowid: int) -> None:
        if rowid >= len(self._valid) or not self._valid[rowid]:
            return
        row = self._row(rowid)
        for index in self._indexes:
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
        for index in self._indexes:
            index.add(rowid, row)

    # ------------------------------------------------------------------
    # Consistency
    # ------------------------------------------------------------------
    def check_indexes(self) -> List[str]:
        """Problems with the indexes (empty = consistent): every live
        row sits exactly once under its own key in every index, no dead
        row id is left in a bucket, every bucket is non-empty and
        ascending, and every cached value type is current."""
        problems: List[str] = []
        valid = self._valid
        live = list(self.live_rowids())
        for index in self._indexes:
            keys = list(index.column_keys(self._cols))
            filed: Dict[int, int] = {}
            for key, bucket in index.entries():
                if not bucket or any(a >= b for a, b in zip(bucket, bucket[1:])):
                    problems.append(f"{index.name}: bucket {key!r} is empty or not ascending")
                for rowid in bucket:
                    if rowid >= len(valid) or not valid[rowid]:
                        problems.append(f"{index.name}: dead row {rowid} under {key!r}")
                    elif keys[rowid] != key:
                        problems.append(f"{index.name}: row {rowid} filed under {key!r}")
                    else:
                        filed[rowid] = filed.get(rowid, 0) + 1
            for rowid in live:
                if filed.get(rowid) != 1:
                    problems.append(
                        f"{index.name}: live row {rowid} filed {filed.get(rowid, 0)} times"
                    )
        for posting in self._posting_indexes:
            for group, kind in list(posting._types.items()):
                if group not in posting.groups or posting._type_of(group) is not kind:
                    problems.append(f"{posting.name}: stale value type for group {group!r}")
        return problems

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
