"""``Table.extend`` — the catalog's batch insert — against a loop of
``Table.insert``: same rows, same indexes, same bytes, same undo; and
all or nothing when any row of the batch is bad."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational import Database, clob, integer, real, text
from repro.relational.errors import ConstraintError, TableError

INDEXES = (["id"], ["grp"], ["tag", "grp"])


def twin():
    """One table in its own database: primary key + two secondary
    indexes, nullable and NOT NULL columns, all four column types."""
    db = Database()
    table = db.create_table(
        "t",
        [
            integer("id", nullable=False),
            integer("grp"),
            text("tag", nullable=False),
            real("num"),
            clob("body"),
        ],
        primary_key=["id"],
    )
    table.create_index("t_by_grp", ["grp"])
    table.create_index("t_by_tag_grp", ["tag", "grp"])
    return db, table


def state(table):
    buckets = {
        index.name: {key: list(ids) for key, ids in index.buckets.items()}
        for index in table._hash_indexes
    }
    return table.rows(), buckets, table.storage_breakdown(), len(table)


ROW_TAILS = st.tuples(
    st.none() | st.integers(0, 3),
    st.sampled_from(["a", "b", "c"]),
    st.none() | st.floats(allow_nan=False) | st.integers(-5, 5),
    st.none() | st.text(max_size=8),
)


@st.composite
def batches(draw):
    """A few batches of rows with distinct primary keys."""
    tails = draw(st.lists(ROW_TAILS, max_size=24))
    rows = [(i, *tail) for i, tail in enumerate(tails)]
    cuts = sorted(draw(st.lists(st.integers(0, len(rows)), max_size=3)))
    return [rows[a:b] for a, b in zip([0, *cuts], [*cuts, len(rows)])]


@settings(max_examples=150, deadline=None)
@given(batches(), st.data())
def test_extend_equals_a_loop_of_insert(groups, data):
    (db_a, batch), (db_b, loop) = twin(), twin()
    for rows in groups:
        batch.extend(rows)
        for row in rows:
            loop.insert(row)
    assert state(batch) == state(loop)
    for columns in INDEXES:
        keys = {tuple(row[batch.position(c)] for c in columns) for row in batch.rows()}
        for key in keys:
            assert batch.lookup_rowids(columns, key) == loop.lookup_rowids(columns, key)
    # A rolled-back transaction (a delete, then more rows) undoes to the same state.
    before = batch.rows()
    more = [(1000 + i, *tail) for i, tail in enumerate(data.draw(st.lists(ROW_TAILS, max_size=6)))]
    for db, table in ((db_a, batch), (db_b, loop)):
        db.begin()
        table.delete_rowids(table.lookup_rowids(["grp"], [1]))
        if table is batch:
            table.extend(more)
        else:
            for row in more:
                table.insert(row)
        db.rollback()
    assert state(batch) == state(loop)
    assert batch.rows() == before


def test_int_in_a_real_column_is_stored_as_float():
    _, table = twin()
    table.extend([(1, None, "a", 2, None), (2, None, "a", 2.5, None)])
    assert table.column_data("num") == [2.0, 2.5]
    assert [type(v) for v in table.column_data("num")] == [float, float]


def test_an_empty_batch_is_a_no_op():
    db, table = twin()
    db.begin()
    table.extend([])
    assert state(table)[:2] == ([], {"pk_t": {}, "t_by_grp": {}, "t_by_tag_grp": {}})
    assert db._journal == []
    db.rollback()


def test_every_index_bucket_holds_the_same_rowid_object():
    """One int per row, not one per row per index: the list of row ids
    is built once (a ``range`` per index cost 7% of peak RSS)."""
    _, table = twin()
    table.extend([(i, 0, "c", None, None) for i in range(300)])  # past CPython's shared small ints
    table.extend([(1000 + i, 7, "a", None, None) for i in range(300)])
    pk, by_grp, by_tag_grp = (index.buckets for index in table._hash_indexes)
    assert by_grp[(7,)] == list(range(300, 600))
    for i, rowid in enumerate(by_grp[(7,)]):
        assert pk[(1000 + i,)][0] is rowid
        assert by_tag_grp[("a", 7)][i] is rowid


GOOD = (10, 1, "a", 1.0, "x")

BAD_BATCHES = {
    "unique key colliding with a stored row": [GOOD, (1, 1, "a", 1.0, "x")],
    "unique key colliding inside the batch": [GOOD, (11, 1, "a", 1.0, "x"), (11, 2, "b", None, None)],
    "bool in an INTEGER column": [GOOD, (11, True, "a", 1.0, "x")],
    "None in a NOT NULL column": [GOOD, (11, 1, None, 1.0, "x")],
    "str in a REAL column": [GOOD, (11, 1, "a", "1.0", "x")],
    "short row": [GOOD, (11, 1, "a")],
}


@pytest.mark.parametrize("case", BAD_BATCHES)
def test_a_bad_row_leaves_the_table_unchanged(case):
    rows = BAD_BATCHES[case]
    (db, batch), (_, loop) = twin(), twin()
    for table in (batch, loop):
        table.extend([(1, 0, "c", None, None), (2, 0, "c", 0.5, "y")])
    before = state(batch)
    db.begin()
    with pytest.raises((ConstraintError, TableError, TypeError)) as batched:
        batch.extend(rows)
    assert state(batch) == before
    assert db._journal == []
    db.rollback()
    # Same exception type and message as the row-at-a-time path.
    with pytest.raises(type(batched.value)) as looped:
        for row in rows:
            loop.insert(row)
    assert str(batched.value) == str(looped.value)
