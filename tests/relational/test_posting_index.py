"""The posting index, ascending buckets, and ``Table.check_indexes``.

Every index — hash or posting — must hold exactly the live rows, each
once under its own key, in ascending row-id order, through ``insert``,
``extend``, ``delete_rowids``, rollback and ``clear``; ``check_indexes``
says so, and names a posting left behind by a delete."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational import Database, integer, real, text
from repro.relational.table import PostingIndex


def values_table():
    """A table shaped like the catalog's ``elements``: a group column,
    a numeric value with a text fallback, and a hash index beside the
    posting index."""
    db = Database()
    table = db.create_table(
        "v", [integer("grp", nullable=False), integer("tag"), real("num"), text("txt")]
    )
    table.create_index("v_by_tag", ["tag"])
    index = table.create_posting_index("v_by_value", "grp", "num", "txt")
    return db, table, index


class TestPostingIndex:
    def test_typed_value_is_the_number_else_the_text(self):
        _, table, index = values_table()
        table.extend([(1, 0, 2.5, "2.5"), (1, 0, None, "x"), (1, 0, None, None), (2, 0, 2, "2")])
        assert index.postings(1) == {2.5: [0], "x": [1], None: [2]}
        assert index.postings(2) == {2.0: [3]}
        assert index.postings(3) == {}
        assert index.rowids(1) == [0, 1, 2]

    def test_value_type_is_cached_until_a_value_comes_or_goes(self):
        _, table, index = values_table()
        table.extend([(1, 0, 1.0, None), (1, 0, 2.0, None)])
        assert index.value_type(1) is float
        table.insert([1, 0, 1.0, None])  # a known value: the cache stays
        assert index._types == {1: float}
        rowid = table.insert([1, 0, None, "t"])  # a new value: dropped
        assert index._types == {}
        assert index.value_type(1) is None
        table.delete_rowids([rowid])
        assert index.value_type(1) is float
        assert index.value_type(9) is None and 9 not in index._types

    def test_nan_values_are_their_own_keys(self):
        _, table, index = values_table()
        nan = math.nan
        table.extend([(1, 0, nan, None), (1, 0, nan, None), (1, 0, float("nan"), None)])
        assert [len(rows) for rows in index.postings(1).values()] == [2, 1]
        table.delete_rowids([1, 2])
        assert table.check_indexes() == []
        assert index.rowids(1) == [0]


class TestAscendingBuckets:
    def test_a_rolled_back_delete_refills_buckets_in_order(self):
        db, table, index = values_table()
        table.extend([(1, 7, 1.0, None) for _ in range(6)])
        db.begin()
        table.delete_rowids([4, 1, 3])
        table.insert([1, 7, 1.0, None])
        db.rollback()
        assert table.find_hash_index(["tag"]).lookup((7,)) == [0, 1, 2, 3, 4, 5]
        assert index.postings(1) == {1.0: [0, 1, 2, 3, 4, 5]}
        assert table.check_indexes() == []

    def test_a_delete_takes_its_row_out_of_the_middle(self):
        _, table, index = values_table()
        table.extend([(1, 7, None, "a") for _ in range(5)])
        table.delete_rowids([2])
        assert table.find_hash_index(["tag"]).lookup((7,)) == [0, 1, 3, 4]
        assert index.postings(1) == {"a": [0, 1, 3, 4]}


ROWS = st.tuples(
    st.integers(0, 2),
    st.integers(0, 2),
    st.none() | st.sampled_from([0.0, -0.0, 1.0, math.nan]),
    st.none() | st.sampled_from(["a", "b"]),
)
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("extend"), st.lists(ROWS, max_size=5)),
        st.tuples(st.just("insert"), ROWS),
        st.tuples(st.just("delete"), st.sets(st.integers(0, 30), max_size=4)),
        st.tuples(st.just("rollback"), st.lists(ROWS, max_size=3)),
        st.tuples(st.just("clear"), st.none()),
    ),
    max_size=12,
)


@settings(max_examples=150, deadline=None)
@given(OPS)
def test_indexes_stay_exact_through_every_write(ops):
    db, table, index = values_table()
    for op, arg in ops:
        if op == "extend":
            table.extend(arg)
        elif op == "insert":
            table.insert(arg)
        elif op == "delete":
            table.delete_rowids(sorted(r for r in arg if r in set(table.live_rowids())))
        elif op == "rollback":
            db.begin()
            table.delete_rowids(list(table.live_rowids())[::2])
            table.extend(arg)
            db.rollback()
        else:
            table.clear()
        for group in (0, 1, 2):
            index.value_type(group)  # fill the cache the next write must keep true
        assert table.check_indexes() == []


def test_a_posting_left_behind_by_a_delete_is_reported(monkeypatch):
    _, table, _ = values_table()
    table.extend([(1, 7, None, "a"), (1, 7, None, "b")])
    monkeypatch.setattr(PostingIndex, "remove", lambda self, rowid, row: None)
    table.delete_rowids([0])
    assert table.check_indexes() == ["v_by_value: dead row 0 under (1, 'a')"]


def test_a_misfiled_row_and_a_stale_type_are_reported():
    _, table, index = values_table()
    table.extend([(1, 7, None, "a"), (1, 7, None, "b")])
    assert index.value_type(1) is str
    bucket = index.groups[1].pop("b")
    index.groups[1][2.0] = bucket
    assert set(table.check_indexes()) == {
        "v_by_value: row 1 filed under (1, 2.0)",
        "v_by_value: live row 1 filed 0 times",
        "v_by_value: stale value type for group 1",
    }
