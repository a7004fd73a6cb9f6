"""Unit tests for columnar tables and indexes."""

import sys

import pytest

from repro.relational import Table, integer, real, text
from repro.relational.engine import Database
from repro.relational.errors import ConstraintError, TableError


def delete_eq(table, column, value):
    """Retire the rows whose ``column`` equals ``value``; returns how
    many there were."""
    rowids = table.lookup_rowids([column], [value])
    table.delete_rowids(rowids)
    return len(rowids)


@pytest.fixture()
def people():
    t = Table(
        "people",
        [integer("id", nullable=False), text("name"), real("age")],
        primary_key=["id"],
    )
    t.insert([1, "ann", 30.0])
    t.insert([2, "bob", 40.0])
    t.insert([3, "cat", 30.0])
    return t


class TestSchema:
    def test_duplicate_columns_rejected(self):
        with pytest.raises(TableError):
            Table("t", [integer("x"), text("x")])

    def test_empty_columns_rejected(self):
        with pytest.raises(TableError):
            Table("t", [])

    def test_position_lookup(self, people):
        assert people.position("name") == 1

    def test_unknown_column_raises(self, people):
        with pytest.raises(TableError):
            people.position("zzz")


class TestInsert:
    def test_insert_returns_rowids(self):
        t = Table("t", [integer("x")])
        assert t.insert([1]) == 0
        assert t.insert([2]) == 1

    def test_wrong_arity_rejected(self, people):
        with pytest.raises(TableError):
            people.insert([4, "dee"])

    def test_type_validation_applied(self, people):
        with pytest.raises(TypeError):
            people.insert(["x", "dee", 1.0])

    def test_insert_dict_fills_nulls(self, people):
        people.insert_dict(id=4, name="dee")
        assert people.lookup(["id"], [4])[0][2] is None

    def test_primary_key_enforced(self, people):
        with pytest.raises(ConstraintError):
            people.insert([1, "dup", None])

    def test_failed_insert_leaves_table_unchanged(self, people):
        before = len(people)
        with pytest.raises(ConstraintError):
            people.insert([2, "dup", None])
        assert len(people) == before
        assert len(people.lookup(["id"], [2])) == 1

    def test_real_column_coerces_int(self, people):
        people.insert([4, "dee", 25])
        assert people.lookup(["id"], [4])[0][2] == 25.0


class TestIndexes:
    def test_hash_index_lookup(self, people):
        people.create_index("by_age", ["age"])
        rows = people.lookup(["age"], [30.0])
        assert {r[1] for r in rows} == {"ann", "cat"}

    def test_index_backfills_existing_rows(self, people):
        index = people.create_index("by_name", ["name"])
        assert index.lookup(("bob",)) != []

    def test_lookup_without_index_scans(self, people):
        rows = people.lookup(["name"], ["bob"])
        assert rows[0][0] == 2

    def test_unique_index_rejects_duplicates(self, people):
        with pytest.raises(ConstraintError):
            people.create_index("uniq_age", ["age"], unique=True)

    def test_index_maintained_on_insert(self, people):
        people.create_index("by_age", ["age"])
        people.insert([4, "dee", 50.0])
        assert len(people.lookup(["age"], [50.0])) == 1


class TestDelete:
    def test_delete_rowids(self, people):
        assert delete_eq(people, "age", 30.0) == 2
        assert len(people) == 1

    def test_delete_updates_indexes(self, people):
        people.create_index("by_age", ["age"])
        delete_eq(people, "id", 1)
        assert {r[1] for r in people.lookup(["age"], [30.0])} == {"cat"}

    def test_deleted_rows_not_scanned(self, people):
        delete_eq(people, "id", 2)
        assert [r[0] for r in people.scan()] == [1, 3]

    def test_fetch_deleted_row_raises(self, people):
        delete_eq(people, "id", 1)
        with pytest.raises(TableError):
            people.fetch(0)

    def test_clear(self, people):
        people.create_index("by_age", ["age"])
        people.clear()
        assert len(people) == 0
        assert people.lookup(["age"], [30.0]) == []

    def test_bulk_delete_keeps_indexes_consistent(self):
        # A large, interleaved victim set, handed over in descending
        # order: every hash index must drop exactly the victims.
        t = Table("t", [integer("id"), text("kind"), real("w")],
                  primary_key=["id"])
        t.create_index("by_kind", ["kind"])
        for i in range(200):
            t.insert([i, "even" if i % 2 == 0 else "odd", float(i)])
        t.delete_rowids(reversed(t.lookup_rowids(["kind"], ["even"])))
        assert len(t) == 100
        assert t.lookup(["kind"], ["even"]) == []
        assert len(t.lookup(["kind"], ["odd"])) == 100
        assert t.lookup(["id"], [4]) == []
        assert all(r[0] % 2 == 1 for r in t.scan())

    def test_unsorted_delete_journals_ascending_and_rolls_back(self):
        db = Database()
        t = db.create_table(
            "t", [integer("id"), text("kind")], primary_key=["id"]
        )
        by_kind = t.create_index("by_kind", ["kind"])
        for i in range(6):
            t.insert([i, "a" if i < 4 else "b"])
        before_rows = t.rows()
        db.begin()
        t.delete_rowids([3, 0, 2])
        assert [(tbl.name, rowid) for tbl, rowid, _ in db._journal] == [
            ("t", 0), ("t", 2), ("t", 3),
        ]
        assert by_kind.lookup(("a",)) == [1]
        db.rollback()
        assert t.rows() == before_rows
        assert sorted(by_kind.lookup(("a",))) == [0, 1, 2, 3]
        assert by_kind.lookup(("b",)) == [4, 5]
        assert t.lookup(["id"], [2]) == [(2, "a")]

    def test_reinsert_pk_after_delete(self, people):
        delete_eq(people, "id", 1)
        people.insert([1, "ann2", 31.0])
        assert people.lookup(["id"], [1])[0][1] == "ann2"


class TestAccounting:
    def test_estimated_bytes_positive(self, people):
        assert people.estimated_bytes() > 0

    def test_estimated_bytes_counts_strings(self):
        t = Table("t", [text("s")])
        t.insert(["abcd"])
        breakdown = t.storage_breakdown()
        # Columnar accounting: the string column carries the list's own
        # footprint plus 4 payload bytes; the validity bitmap is listed
        # separately.
        assert breakdown["s"] == sys.getsizeof(t.column_data("s")) + 4
        assert breakdown["<validity>"] == sys.getsizeof(t._valid)
        assert t.estimated_bytes() == sum(breakdown.values())

    def test_storage_breakdown_grows_with_payload(self):
        t = Table("t", [text("s")])
        t.insert(["x" * 100])
        small = t.storage_breakdown()["s"]
        t.insert(["y" * 1000])
        assert t.storage_breakdown()["s"] >= small + 1000

    def test_tombstoned_rows_free_payload_bytes(self):
        t = Table("t", [integer("id"), text("s")], primary_key=["id"])
        for i in range(10):
            t.insert([i, "z" * 500])
        before = t.estimated_bytes()
        delete_eq(t, "id", 3)
        # The slot pointer survives (tombstone), the payload does not.
        assert t.estimated_bytes() <= before - 500
