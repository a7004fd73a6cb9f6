"""The memory store's ElementSeek primitive against its reference.

``MemoryHybridStore._seek_rows`` reads a definition's value-keyed
posting index; ``_seek_hits`` over every row of the definition, found
by a scan, is what it must return.  Checked on raw rows the catalog
never writes (a NULL ``value_num`` under a numeric definition, text and
float values in one definition, NaN, -0.0, all-NULL values), and after
every step of a hypothesis write sequence on a memory store and an
sqlite store — ingest, delete, ``remove_attribute``,
an ``add_attribute`` and a delete that a fault rolls back, a query
checked against the scan oracle.  After each step, on every store,
each seek a query runs reads once, and reads exactly the rows of the
live objects' own shreds that its criterion matches; a seek that reads
none ends the run unread past it.  On memory stores
``Table.check_indexes()`` holds and the seeks agree with their
reference.

On sqlite, the text seeks that read by value — EQ, NE, the ranges,
IN_SET, and CONTAINS — return the rows of a scan of the definition on
an on-disk store.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import SqliteHybridStore
from repro.baselines import evaluate_shredded_query
from repro.core import AttributeCriteria, HybridCatalog, ObjectQuery, Op, shred_query
from repro.core.planner import _seek_expected
from repro.core.storage import _seek_hits
from repro.errors import CatalogError
from repro.faults import FaultError, FaultPlan
from repro.grid import CF_STANDARD_NAMES, CorpusConfig, LeadCorpusGenerator, lead_schema
from repro.xmlkit import parse

CONFIG = CorpusConfig(seed=515, themes=1, keys_per_theme=2, dynamic_groups=1,
                      params_per_group=3, dynamic_depth=2)
DOCUMENTS = list(LeadCorpusGenerator(CONFIG).documents(8))
OPS = (Op.EQ, Op.NE, Op.LT, Op.LE, Op.GT, Op.GE, Op.CONTAINS, Op.IN_SET)


def memory_stores(catalog):
    store = catalog.store
    stores = store.stores if hasattr(store, "stores") else [store]
    return [store for store in stores if hasattr(store, "db")]


def scanned_rows(store):
    """Live ``elements`` row ids by ``(elem_id, attr_id)``, from a scan."""
    elements = store.db.table("elements")
    e_elem, e_attr = elements.column_data("elem_id"), elements.column_data("attr_id")
    rows = {}
    for r in elements.live_rowids():
        rows.setdefault((e_elem[r], e_attr[r]), []).append(r)
    return rows


def reference(store, rowids, op, expected):
    probe = next(iter(expected)) if op is Op.IN_SET else expected
    column = "value_text" if isinstance(probe, str) else "value_num"
    vals = store.db.table("elements").column_data(column)
    return sorted(_seek_hits(op, vals, expected, rowids))


def probes(store, rowids):
    """Literals worth comparing a definition with: two of its own
    values of each type, a substring, and values it does not hold."""
    elements = store.db.table("elements")
    texts = sorted({elements.column_data("value_text")[r] for r in rowids} - {None})
    nums = sorted(
        {v for r in rowids if (v := elements.column_data("value_num")[r]) is not None},
        key=lambda v: (v != v, v if v == v else 0.0),
    )
    out = texts[:1] + texts[-1:] + [t[1:3] for t in texts[:1]] + ["", "zzz"]
    return out + nums[:1] + nums[-1:] + [0.0, -0.0, math.nan, 1e9]


def assert_seeks_agree(store):
    by_def = scanned_rows(store)
    by_elem = {}
    for (elem_id, attr_id), rowids in by_def.items():
        by_elem.setdefault(elem_id, []).extend(rowids)
    for (elem_id, attr_id), rowids in by_def.items():
        for expected in probes(store, rowids):
            for op in OPS:
                literal = frozenset([expected]) if op is Op.IN_SET else expected
                for attr in (attr_id, None):
                    scope = rowids if attr is not None else by_elem[elem_id]
                    got = store._seek_rows(elem_id, attr, op, literal)
                    assert sorted(got) == reference(store, scope, op, literal), (
                        elem_id, attr, op, literal)
    # A definition the store never saw seeks nothing.
    assert store._seek_rows(10**6, None, Op.NE, "x") == []


def scan_count(shreds, shredded, qelem):
    """The scan reference for one seek: element rows of the live
    objects' shreds under the seek's definitions that match its
    literal (the §4 simplified plan does not filter by attribute)."""
    expected = _seek_expected(qelem)
    probe = next(iter(expected)) if qelem.op is Op.IN_SET else expected
    attr_id = None if shredded.simple else shredded.qattr(qelem.qattr_id).attr_def_id
    rows = [row for shred in shreds for row in shred.elements
            if row.elem_id == qelem.elem_def_id and attr_id in (None, row.attr_id)]
    vals = [row.value_text if isinstance(probe, str) else row.value_num for row in rows]
    return len(_seek_hits(qelem.op, vals, expected, range(len(rows))))


def assert_seeks_read_once(catalog, live):
    """Every seek a query runs is read once, for exactly the scan
    reference's rows; a seek that reads none ends the run, and every
    seek after it stays unread (actual 0).  Both criteria orders, so
    the zero-hit seek is first in one and second in the other."""
    shreds = [catalog.shredder.shred(parse(doc)) for doc in catalog.fetch(live).values()]
    store = catalog.store
    reads = []
    seek = store._seek_instances
    store._seek_instances = lambda elem_id, *args: reads.append(elem_id) or seek(elem_id, *args)
    try:
        for word in CF_STANDARD_NAMES[:2]:
            for reverse in (False, True):
                shredded = catalog.shred_query(keyword_query(word, reverse))
                plan = catalog.plan_for(shredded)
                del reads[:]
                catalog.store.match_objects(plan)
                ran, unread = plan.seeks[:len(reads)], plan.seeks[len(reads):]
                assert reads == [stage.elem_def_id for stage in ran], (word, reverse)
                counts = [plan.actuals[stage.key()] for stage in ran]
                assert counts == [
                    scan_count(shreds, shredded, shredded.qelems[stage.qelem_id - 1])
                    for stage in ran
                ], (word, reverse)
                assert all(counts[:-1])
                if unread:
                    assert counts[-1] == 0
                    assert all(plan.actuals[stage.key()] == 0 for stage in unread)
    finally:
        del store._seek_instances


def assert_consistent(catalog, live):
    for store in memory_stores(catalog):
        for table in store.db:
            assert table.check_indexes() == [], table.name
        assert_seeks_agree(store)
    assert_seeks_read_once(catalog, live)


# ---------------------------------------------------------------------------
# Raw rows the catalog never writes
# ---------------------------------------------------------------------------

def test_raw_rows_seek_like_the_reference():
    catalog = HybridCatalog(lead_schema())
    LeadCorpusGenerator(CONFIG).register_definitions(catalog)
    catalog.ingest_many(DOCUMENTS[:3])
    store = catalog.store
    elements = store.db.table("elements")
    e_elem, e_num = elements.column_data("elem_id"), elements.column_data("value_num")
    numeric = next(e_elem[r] for r in elements.live_rowids() if e_num[r] is not None)
    text = next(e_elem[r] for r in elements.live_rowids() if e_num[r] is None)
    for elem_id, num, value in (
        (numeric, None, "12"),        # NULL value_num under a numeric definition
        (numeric, math.nan, "nan"),
        (numeric, -0.0, "-0.0"),
        (numeric, None, None),
        (text, 3.0, "3"),             # text and float values in one definition
        (text, None, None),
        (text, 0.0, CF_STANDARD_NAMES[0]),
    ):
        elements.insert([1, 999, 1, elem_id, 1, value, num])
    assert elements.check_indexes() == []
    assert store.elements_by_value.value_type(numeric) is None
    assert_seeks_agree(store)


# ---------------------------------------------------------------------------
# Write sequences
# ---------------------------------------------------------------------------

steps = st.lists(
    st.one_of(
        st.tuples(st.just("ingest"), st.integers(0, len(DOCUMENTS) - 1)),
        st.tuples(st.just("delete"), st.integers(0, 50)),
        st.tuples(st.just("delete_rolled_back"), st.integers(0, 50)),
        st.tuples(st.just("remove_attribute"), st.integers(0, 50)),
        st.tuples(st.just("add_attribute_rolled_back"), st.integers(0, 50)),
        st.tuples(st.just("query"), st.sampled_from(CF_STANDARD_NAMES[:6])),
    ),
    min_size=1,
    max_size=8,
)

THEME = "<theme><themekt>CF</themekt><themekey>{}</themekey></theme>"


def keyword_query(word, reverse=False):
    theme = AttributeCriteria("theme").add_element("themekey", "", word[:5], Op.CONTAINS)
    grid = AttributeCriteria("grid", "ARPS").add_element("dx", "ARPS", 2500.0, Op.LE)
    first, second = (grid, theme) if reverse else (theme, grid)
    return ObjectQuery().add_attribute(first).add_attribute(second)


def run_step(catalog, live, step, arg):
    if step == "ingest":
        live.append(catalog.ingest(DOCUMENTS[arg]).object_id)
    elif not live:
        return
    elif step == "delete":
        catalog.delete(live.pop(arg % len(live)))
    elif step == "delete_rolled_back":
        # The element rows are gone when the fault fires: the rollback
        # files them again, older row ids in between newer ones.
        catalog.store.install_faults(FaultPlan(site="delete:attr_ancestors"))
        try:
            with pytest.raises(FaultError):
                catalog.delete(live[arg % len(live)])
        finally:
            catalog.store.clear_faults()
    elif step == "remove_attribute":
        try:
            catalog.remove_attribute(live[arg % len(live)], "theme", seq=1)
        except CatalogError:
            pass  # this object's first theme is already gone
    elif step == "add_attribute_rolled_back":
        # The fault fires after the element rows went in: the rollback
        # must take their postings out again.
        catalog.store.install_faults(FaultPlan(site="insert:attr_ancestors"))
        try:
            with pytest.raises(FaultError):
                catalog.add_attribute(live[arg % len(live)], THEME.format("rolled_back"))
        finally:
            catalog.store.clear_faults()
    else:
        # The scan oracle over each live object's shred, re-derived
        # from the document the catalog returns for it.
        shredded = shred_query(keyword_query(arg), catalog.registry)
        expected = [
            object_id
            for object_id, document in sorted(catalog.fetch(live).items())
            if evaluate_shredded_query(shredded, catalog.shredder.shred(parse(document)))
        ]
        assert catalog.query(keyword_query(arg)) == expected


LAYOUTS = {"memory": lambda: None, "sqlite": SqliteHybridStore}


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@settings(max_examples=25, deadline=None)
@given(sequence=steps)
def test_write_sequences_keep_seeks_indexes_and_statistics_exact(layout, sequence):
    catalog = HybridCatalog(lead_schema(), store=LAYOUTS[layout]())
    LeadCorpusGenerator(CONFIG).register_definitions(catalog)
    live = [catalog.ingest(DOCUMENTS[0]).object_id]
    assert_consistent(catalog, live)
    for step, arg in sequence:
        run_step(catalog, live, step, arg)
        assert_consistent(catalog, live)


# ---------------------------------------------------------------------------
# sqlite: the by-value statements against a scan of the definition
# ---------------------------------------------------------------------------

#: Each reads every row of the definition (``elements_by_def (elem_id=?)``):
#: the reference the by-value statements must equal, row for row.
SCAN_TEXT = ("SELECT object_id, seq_id FROM elements WHERE elem_id = ?1 "
             "AND (?2 IS NULL OR attr_id = ?2) AND ")
SCAN_SQL = {
    **{op: SCAN_TEXT + "value_text " + sign + " ?3" for op, sign in (
        (Op.EQ, "="), (Op.NE, "<>"), (Op.LT, "<"),
        (Op.LE, "<="), (Op.GT, ">"), (Op.GE, ">="))},
    Op.CONTAINS: SCAN_TEXT + "instr(value_text, ?3) > 0",
}
FEW, DISTINCT, NUMERIC, ABSENT = 1, 2, 3, 4  # element definitions
WORDS = st.text(alphabet="abé_ ", max_size=5)


@pytest.fixture(scope="module")
def sqlite_store(tmp_path_factory):
    """An on-disk sqlite store behind a catalog, so its tables exist."""
    store = SqliteHybridStore(str(tmp_path_factory.mktemp("by_value") / "cat.db"))
    HybridCatalog(lead_schema(), store=store)
    yield store
    store.close()


def by_value_rows(few, distinct, numbers):
    """``elements`` rows for three definitions under two attribute
    definitions: few text values, all-distinct text values, and float
    readings with their text (a NaN reading stores ``value_num`` NULL)."""
    values = ([(FEW, text, None) for text in few]
              + [(DISTINCT, text, None) for text in distinct]
              + [(NUMERIC, repr(num), num) for num in numbers]
              + [(NUMERIC, "12", None)])
    return [(i, 1 + i % 2, 1, elem_id, 1, text, num)
            for i, (elem_id, text, num) in enumerate(values, start=1)]


@settings(max_examples=25, deadline=None)
@given(few=st.lists(st.sampled_from(["ab", "b", "é_a", ""]), max_size=24),
       distinct=st.lists(WORDS, unique=True, max_size=16),
       numbers=st.lists(st.floats(allow_infinity=False), max_size=8),
       extra=st.lists(WORDS, max_size=2))
def test_sqlite_by_value_seeks_return_the_scanned_rows(
    sqlite_store, few, distinct, numbers, extra
):
    """EQ, NE, the ranges, IN_SET and CONTAINS read by value and
    return the scan's row multiset: on text definitions
    with few or all-distinct values, on a numeric one holding a NaN,
    and on a definition with no rows; for held, partial, empty and
    missing needles."""
    store = sqlite_store
    rows = by_value_rows(few, distinct, numbers + [math.nan])
    store.connection.execute("DELETE FROM elements")
    store.connection.executemany(
        "INSERT INTO elements VALUES (?, ?, ?, ?, ?, ?, ?)", rows)
    texts = sorted({row[5] for row in rows})
    needles = texts[:2] + texts[-1:] + [t[1:3] for t in texts[:2]] + ["", "zzz", *extra]

    def scanned(op, elem_id, attr_id, needle):
        return sorted(store.connection.execute(
            SCAN_SQL[op], (elem_id, attr_id, needle)).fetchall())

    with store._read_section():
        for elem_id in (FEW, DISTINCT, NUMERIC, ABSENT):
            for attr_id in (None, 1):
                for needle in needles:
                    for op in SCAN_SQL:
                        want = scanned(op, elem_id, attr_id, needle)
                        got = store._seek_instances(elem_id, attr_id, op, needle)
                        assert sorted(got) == want, (elem_id, attr_id, op, needle)
                in_set = frozenset(needles[:3])
                want = sorted(row for needle in in_set
                              for row in scanned(Op.EQ, elem_id, attr_id, needle))
                got = store._seek_instances(elem_id, attr_id, Op.IN_SET, in_set)
                assert sorted(got) == want, (elem_id, attr_id, in_set)
