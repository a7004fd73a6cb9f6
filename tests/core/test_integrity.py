"""Unit tests for the catalog integrity checker (fsck)."""

import pytest

from repro.backends import SqliteHybridStore
from repro.core import HybridCatalog
from repro.core.integrity import check_catalog
from repro.grid import (
    FIG3_DOCUMENT,
    CorpusConfig,
    LeadCorpusGenerator,
    define_fig3_attributes,
    lead_schema,
)
from repro.relational.table import PostingIndex


@pytest.fixture(params=["memory", "sqlite"])
def catalog(request):
    store = SqliteHybridStore() if request.param == "sqlite" else None
    cat = HybridCatalog(lead_schema(), store=store)
    define_fig3_attributes(cat)
    cat.ingest(FIG3_DOCUMENT, name="fig3")
    return cat


def corrupt(catalog, sql, memory_fn):
    """Apply a corruption to either backend."""
    store = catalog.store
    if hasattr(store, "db"):
        memory_fn(store.db)
    else:
        store.connection.execute(sql)
        store.connection.commit()


class TestHealthyCatalogs:
    def test_fig3_clean(self, catalog):
        assert check_catalog(catalog, deep=True) == []

    def test_generated_corpus_clean(self):
        config = CorpusConfig(seed=8, dynamic_depth=3)
        generator = LeadCorpusGenerator(config)
        cat = HybridCatalog(lead_schema())
        generator.register_definitions(cat)
        cat.ingest_many(list(generator.documents(8)))
        assert check_catalog(cat, deep=True) == []

    def test_after_incremental_maintenance(self, catalog):
        catalog.add_attribute(
            1, "<theme><themekt>CF</themekt><themekey>late</themekey></theme>"
        )
        catalog.remove_attribute(1, "theme", seq=1)
        assert check_catalog(catalog, deep=True) == []

    def test_large_generated_corpus_clean(self):
        """1,200 documents / 22.8k inverted-list rows: the transitivity
        check is bucketed by descendant, so this is well under a second
        (the all-pairs scan it replaced took ~5 s here)."""
        generator = LeadCorpusGenerator(CorpusConfig(seed=11))
        cat = HybridCatalog(lead_schema())
        generator.register_definitions(cat)
        cat.ingest_many(list(generator.documents(1200)))
        assert check_catalog(cat) == []

    def test_store_only_content_is_legal(self):
        """Lenient validation leaves CLOBs without shredded rows — not a
        violation (paper §3)."""
        cat = HybridCatalog(lead_schema())  # no dynamic definitions
        cat.ingest(FIG3_DOCUMENT)
        assert check_catalog(cat, deep=True) == []


class TestCorruptionDetection:
    def test_dangling_object_reference(self, catalog):
        corrupt(
            catalog,
            "UPDATE clobs SET object_id = 99 "
            "WHERE rowid = (SELECT MIN(rowid) FROM clobs)",
            lambda db: _memory_update(db, "clobs", 0, 99),
        )
        violations = check_catalog(catalog)
        assert any("missing object 99" in v for v in violations)

    def test_missing_clob_for_top_instance(self, catalog):
        corrupt(
            catalog,
            "DELETE FROM clobs WHERE schema_order = "
            "(SELECT MIN(schema_order) FROM clobs)",
            lambda db: _memory_delete_first(db, "clobs"),
        )
        violations = check_catalog(catalog)
        assert any("has no CLOB" in v for v in violations)

    def test_unknown_schema_order_in_clob(self, catalog):
        corrupt(
            catalog,
            "UPDATE clobs SET schema_order = 999 "
            "WHERE rowid = (SELECT MIN(rowid) FROM clobs)",
            lambda db: _memory_update(db, "clobs", 1, 999),
        )
        violations = check_catalog(catalog)
        assert any("global-ordering table" in v for v in violations)

    def test_element_without_instance(self, catalog):
        corrupt(
            catalog,
            "UPDATE elements SET seq_id = 77 "
            "WHERE (object_id, attr_id, seq_id, elem_id, elem_seq) = "
            "(SELECT object_id, attr_id, seq_id, elem_id, elem_seq FROM elements "
            "ORDER BY 1, 2, 3, 4, 5 LIMIT 1)",
            lambda db: _memory_update(db, "elements", 2, 77),
        )
        violations = check_catalog(catalog)
        assert any("missing attribute instance" in v for v in violations)

    def test_missing_self_row(self, catalog):
        corrupt(
            catalog,
            "DELETE FROM attr_ancestors WHERE distance = 0",
            lambda db: _memory_delete_where(db, "attr_ancestors", 5, 0),
        )
        violations = check_catalog(catalog)
        assert any("self row" in v for v in violations)

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_missing_transitive_row_in_three_level_chain(self, backend):
        """grid -> section-l1 -> section-l2 -> section-l3: drop one
        distance-2 row and exactly the implied rows are reported —
        the same strings an all-pairs scan of the list reports."""
        store = SqliteHybridStore() if backend == "sqlite" else None
        cat = HybridCatalog(lead_schema(), store=store)
        generator = LeadCorpusGenerator(CorpusConfig(seed=8, dynamic_depth=3))
        generator.register_definitions(cat)
        cat.ingest_many(list(generator.documents(3)))
        assert check_catalog(cat) == []
        corrupt(
            cat,
            "DELETE FROM attr_ancestors "
            "WHERE (object_id, desc_attr_id, desc_seq, anc_attr_id, anc_seq) = "
            "(SELECT object_id, desc_attr_id, desc_seq, anc_attr_id, anc_seq "
            "FROM attr_ancestors WHERE distance = 2 ORDER BY 1, 2, 3, 4, 5 LIMIT 1)",
            lambda db: _memory_delete_first_where(db, "attr_ancestors", 5, 2),
        )
        violations = check_catalog(cat)
        assert violations and all(
            "missing transitive row" in v and v.endswith("at distance 2")
            for v in violations
        )
        assert sorted(violations) == sorted(_all_pairs_transitivity(cat))

    def test_unknown_definition(self, catalog):
        corrupt(
            catalog,
            "UPDATE attributes SET attr_id = 4242 "
            "WHERE (object_id, attr_id, seq_id) = (SELECT object_id, attr_id, "
            "seq_id FROM attributes ORDER BY 1, 2, 3 LIMIT 1)",
            lambda db: _memory_update(db, "attributes", 1, 4242),
        )
        violations = check_catalog(catalog)
        assert any("missing definition 4242" in v for v in violations)

    def test_malformed_clob_detected_in_deep_mode(self, catalog):
        corrupt(
            catalog,
            "UPDATE clobs SET content = '<broken' "
            "WHERE rowid = (SELECT MIN(rowid) FROM clobs)",
            lambda db: _memory_update(db, "clobs", 3, "<broken"),
        )
        assert check_catalog(catalog) == []  # shallow check passes
        violations = check_catalog(catalog, deep=True)
        assert any("not" in v and "well-formed" in v for v in violations)

    def test_mismatched_clob_tag(self, catalog):
        corrupt(
            catalog,
            "UPDATE clobs SET content = '<wrong/>' "
            "WHERE rowid = (SELECT MIN(rowid) FROM clobs)",
            lambda db: _memory_update(db, "clobs", 3, "<wrong/>"),
        )
        violations = check_catalog(catalog, deep=True)
        assert any("does not match schema node" in v for v in violations)


class TestIndexConsistency:
    """Memory stores also answer for their engine indexes: a posting a
    delete forgot is a violation."""

    @staticmethod
    def _delete_leaving_postings(monkeypatch, catalog, object_id):
        monkeypatch.setattr(PostingIndex, "remove", lambda self, rowid, row: None)
        catalog.delete(object_id)
        monkeypatch.undo()

    def test_posting_left_behind_by_a_delete(self, monkeypatch):
        catalog = HybridCatalog(lead_schema())
        define_fig3_attributes(catalog)
        catalog.ingest(FIG3_DOCUMENT)
        catalog.ingest(FIG3_DOCUMENT)
        self._delete_leaving_postings(monkeypatch, catalog, 1)
        violations = check_catalog(catalog)
        assert len(violations) == 11  # Fig 3 stores 11 element rows
        assert all(v.startswith("elements: elements_by_value: dead row") for v in violations)


# -- memory-store corruption helpers ------------------------------------

def _memory_update(db, table_name, column_index, value):
    """Corrupt the first row only (mirrors the SQL forms' first row by
    rowid or by primary key)."""
    table = db.table(table_name)
    rows = table.rows()
    table.clear()
    for i, row in enumerate(rows):
        mutated = list(row)
        if i == 0:
            mutated[column_index] = value
        table.insert(mutated)


def _memory_delete_first_where(db, table_name, column_index, value):
    table = db.table(table_name)
    rows = table.rows()
    victim = next(i for i, r in enumerate(rows) if r[column_index] == value)
    table.clear()
    for i, row in enumerate(rows):
        if i != victim:
            table.insert(row)


def _all_pairs_transitivity(catalog):
    """The reference transitivity check: every proper-ancestor row
    against every other (quadratic; what ``_check_inverted`` replaced
    with buckets)."""
    from repro.core.integrity import _rows

    rows = {
        ((o, da, ds), (o, aa, as_), dist)
        for o, da, ds, aa, as_, dist in _rows(catalog.store, "attr_ancestors")
    }
    return [
        f"attr_ancestors: missing transitive row {desc} -> {anc2} "
        f"at distance {m + n}"
        for desc, anc, m in rows if m
        for desc2, anc2, n in rows if n and desc2 == anc
        if (desc, anc2, m + n) not in rows
    ]


def _memory_delete_first(db, table_name):
    table = db.table(table_name)
    rows = table.rows()
    table.clear()
    for row in rows[1:]:
        table.insert(row)


def _memory_delete_where(db, table_name, column_index, value):
    table = db.table(table_name)
    rows = [r for r in table.rows() if r[column_index] != value]
    table.clear()
    for row in rows:
        table.insert(row)
