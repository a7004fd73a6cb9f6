"""The sqlite file format: the v1 stamp, the v0 migration, newer files.

A v0 file is what the store wrote before files carried a format stamp:
rowid tables for the object rows and a ``node_ancestors`` table.  The
fixture below builds one from that DDL, kept here verbatim, and the
rows of a catalog written in the current format.
"""

import sqlite3

import pytest

from repro.backends import SqliteHybridStore
from repro.backends.sqlite import FORMAT_VERSION
from repro.core import HybridCatalog
from repro.core.integrity import check_catalog
from repro.core.ordering import ancestor_pairs
from repro.errors import CatalogError
from repro.grid import LeadCorpusGenerator, WorkloadGenerator, lead_schema

#: The layout of an unstamped (v0) catalog file.
V0_DDL = """
CREATE TABLE objects (
    object_id INTEGER PRIMARY KEY,
    name TEXT,
    owner TEXT
);
CREATE TABLE clobs (
    object_id INTEGER NOT NULL,
    schema_order INTEGER NOT NULL,
    clob_seq INTEGER NOT NULL,
    content TEXT NOT NULL,
    PRIMARY KEY (object_id, schema_order, clob_seq)
);
CREATE TABLE attributes (
    object_id INTEGER NOT NULL,
    attr_id INTEGER NOT NULL,
    seq_id INTEGER NOT NULL,
    clob_order INTEGER NOT NULL,
    clob_seq INTEGER NOT NULL,
    PRIMARY KEY (object_id, attr_id, seq_id)
);
CREATE INDEX attributes_by_def ON attributes (attr_id);
CREATE TABLE elements (
    object_id INTEGER NOT NULL,
    attr_id INTEGER NOT NULL,
    seq_id INTEGER NOT NULL,
    elem_id INTEGER NOT NULL,
    elem_seq INTEGER NOT NULL,
    value_text TEXT,
    value_num REAL
);
CREATE INDEX elements_by_def ON elements (elem_id, value_num, value_text);
CREATE TABLE attr_ancestors (
    object_id INTEGER NOT NULL,
    desc_attr_id INTEGER NOT NULL,
    desc_seq INTEGER NOT NULL,
    anc_attr_id INTEGER NOT NULL,
    anc_seq INTEGER NOT NULL,
    distance INTEGER NOT NULL
);
CREATE INDEX anc_by_pair ON attr_ancestors (desc_attr_id, anc_attr_id);
CREATE TABLE schema_order (
    node_order INTEGER PRIMARY KEY,
    tag TEXT NOT NULL,
    last_child_order INTEGER NOT NULL
);
CREATE TABLE node_ancestors (
    node_order INTEGER NOT NULL,
    ancestor_order INTEGER NOT NULL
);
CREATE INDEX node_anc_by_node ON node_ancestors (node_order);
CREATE TABLE attr_defs (
    attr_id INTEGER PRIMARY KEY,
    name TEXT NOT NULL,
    source TEXT NOT NULL,
    parent_id INTEGER,
    schema_order INTEGER NOT NULL,
    scope TEXT NOT NULL,
    queryable INTEGER NOT NULL,
    structural INTEGER NOT NULL
);
CREATE TABLE elem_defs (
    elem_id INTEGER PRIMARY KEY,
    attr_id INTEGER NOT NULL,
    name TEXT NOT NULL,
    source TEXT NOT NULL,
    value_type TEXT NOT NULL,
    scope TEXT NOT NULL
);
"""

TABLES = ("objects", "clobs", "attributes", "elements", "attr_ancestors",
          "schema_order", "attr_defs", "elem_defs")


def user_version(path):
    with sqlite3.connect(path) as conn:
        return conn.execute("PRAGMA user_version").fetchone()[0]


def answers(catalog, queries):
    ids = [catalog.query(query) for query in queries]
    return ids, [catalog.fetch(found) for found in ids]


@pytest.fixture()
def v0_file(tmp_path, corpus_config, corpus_docs):
    """``(path, queries, expected answers)`` of a v0 file holding a
    catalog after ingests, deletes and a removed attribute."""
    current = str(tmp_path / "current.db")
    catalog = HybridCatalog(lead_schema(), store=SqliteHybridStore(current))
    LeadCorpusGenerator(corpus_config).register_definitions(catalog)
    catalog.ingest_many(corpus_docs[:12])
    catalog.delete(3)
    catalog.delete(8)
    catalog.remove_attribute(5, "theme")
    queries = WorkloadGenerator(corpus_config).mixed(16)
    expected = answers(catalog, queries)
    catalog.store.close()
    path = str(tmp_path / "v0.db")
    conn = sqlite3.connect(path, isolation_level=None)
    conn.executescript(V0_DDL)
    conn.execute("ATTACH DATABASE ? AS current", (current,))
    for table in TABLES:
        conn.execute(f"INSERT INTO main.{table} SELECT * FROM current.{table}")
    conn.executemany("INSERT INTO node_ancestors VALUES (?, ?)",
                     ancestor_pairs(lead_schema().ordered_nodes))
    conn.execute("DETACH DATABASE current")
    conn.close()
    return path, queries, expected


def test_a_new_file_is_stamped_and_clustered(tmp_path):
    path = str(tmp_path / "c.db")
    HybridCatalog(lead_schema(), store=SqliteHybridStore(path)).store.close()
    assert user_version(path) == FORMAT_VERSION == 1
    with sqlite3.connect(path) as conn:
        ddl = dict(conn.execute("SELECT name, sql FROM sqlite_master WHERE type = 'table'"))
    assert "node_ancestors" not in ddl
    for table in ("attributes", "elements", "attr_ancestors"):
        assert ddl[table].endswith("WITHOUT ROWID"), table


def test_a_v0_file_migrates_and_answers_identically(v0_file):
    path, queries, expected = v0_file
    assert user_version(path) == 0
    catalog = HybridCatalog(lead_schema(), store=SqliteHybridStore(path))
    assert user_version(path) == 1
    assert check_catalog(catalog, deep=True) == []
    assert answers(catalog, queries) == expected
    names = {name for name, _rows, _bytes in catalog.storage_report()}
    assert "node_ancestors" not in names and not any(n.startswith("v0_") for n in names)
    catalog.delete(1)
    assert check_catalog(catalog) == []
    catalog.store.close()
    # The migrated file reopens as v1, untouched.
    reopened = HybridCatalog(lead_schema(), store=SqliteHybridStore(path))
    assert reopened.query(queries[0]) == [i for i in expected[0][0] if i != 1]
    reopened.store.close()


def test_a_failed_migration_leaves_the_v0_file(v0_file):
    path, _queries, _expected = v0_file
    with sqlite3.connect(path) as conn:  # a duplicate no v1 key admits
        conn.execute("INSERT INTO elements SELECT * FROM elements LIMIT 1")
        before = conn.execute("SELECT COUNT(*) FROM elements").fetchone()
    store = SqliteHybridStore(path)
    with pytest.raises(CatalogError, match="cannot migrate"):
        HybridCatalog(lead_schema(), store=store)
    store.close()
    assert user_version(path) == 0
    with sqlite3.connect(path) as conn:
        assert conn.execute("SELECT COUNT(*) FROM elements").fetchone() == before
        assert conn.execute("SELECT COUNT(*) FROM node_ancestors").fetchone()[0] > 0


def test_a_newer_file_is_refused(tmp_path):
    path = str(tmp_path / "cat.db")
    HybridCatalog(lead_schema(), store=SqliteHybridStore(path)).store.close()
    with sqlite3.connect(path) as conn:
        conn.execute("PRAGMA user_version = 2")
    store = SqliteHybridStore(path)
    with pytest.raises(CatalogError, match="format v2"):
        HybridCatalog(lead_schema(), store=store)
    store.close()
