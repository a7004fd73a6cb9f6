"""Unit tests for the Database registry."""

import pytest

from repro.relational import Database, integer, text
from repro.relational.errors import TableError


@pytest.fixture()
def db():
    d = Database("test")
    t = d.create_table("t1", [integer("x"), text("s")])
    t.insert([1, "abc"])
    return d


class TestDDL:
    def test_create_and_get(self, db):
        assert db.table("t1").name == "t1"

    def test_duplicate_name_rejected(self, db):
        with pytest.raises(TableError):
            db.create_table("t1", [integer("x")])

    def test_unknown_table_raises(self, db):
        with pytest.raises(TableError):
            db.table("zzz")

    def test_iteration(self, db):
        db.create_table("t2", [integer("y")])
        assert {t.name for t in db} == {"t1", "t2"}


class TestAccounting:
    def test_row_counts(self, db):
        assert db.row_counts() == {"t1": 1}

    def test_total_rows(self, db):
        t2 = db.create_table("t2", [integer("y")])
        t2.insert([1])
        t2.insert([2])
        assert db.total_rows() == 3

    def test_storage_report_sorted_by_bytes(self, db):
        big = db.create_table("big", [text("s")])
        big.insert(["x" * 1000])
        report = db.storage_report()
        assert report[0][0] == "big"
        assert report[0][2] >= 1000

    def test_estimated_bytes_sums_tables(self, db):
        before = db.estimated_bytes()
        db.table("t1").insert([2, "defg"])
        assert db.estimated_bytes() > before
