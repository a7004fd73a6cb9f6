"""Unit tests for set-based response construction (paper §5)."""

import pytest

from repro.backends import SqliteHybridStore
from repro.core import (
    AnnotatedSchema,
    HybridCatalog,
    attribute,
    melement,
    structural,
)
from repro.xmlkit import canonical, parse


@pytest.fixture()
def schema():
    return AnnotatedSchema(
        structural(
            "root",
            attribute("first"),
            structural(
                "left",
                attribute("a", melement("x"), repeatable=True),
            ),
            structural(
                "right",
                structural("deep", attribute("b", melement("y"))),
            ),
        )
    )


@pytest.fixture()
def catalog(schema):
    return HybridCatalog(schema)


class TestReconstruction:
    def test_full_document_roundtrip(self, catalog):
        doc = (
            "<root><first>v</first>"
            "<left><a><x>1</x></a><a><x>2</x></a></left>"
            "<right><deep><b><y>3</y></b></deep></right></root>"
        )
        oid = catalog.ingest(doc).object_id
        rebuilt = catalog.fetch([oid])[oid]
        assert canonical(parse(rebuilt)) == canonical(parse(doc))

    def test_optional_sections_omitted(self, catalog):
        """Ancestors appear only when needed: a document without the
        'right' branch must not emit <right> or <deep> wrappers."""
        doc = "<root><left><a><x>1</x></a></left></root>"
        oid = catalog.ingest(doc).object_id
        rebuilt = catalog.fetch([oid])[oid]
        assert "<right>" not in rebuilt
        assert "<deep>" not in rebuilt
        assert canonical(parse(rebuilt)) == canonical(parse(doc))

    def test_instance_order_preserved(self, catalog):
        doc = "<root><left><a><x>z</x></a><a><x>a</x></a></left></root>"
        oid = catalog.ingest(doc).object_id
        rebuilt = catalog.fetch([oid])[oid]
        assert rebuilt.index("<x>z</x>") < rebuilt.index("<x>a</x>")

    def test_clob_text_verbatim(self, catalog):
        doc = "<root><left><a>\n    <x>  spaced  </x>\n  </a></left></root>"
        oid = catalog.ingest(doc).object_id
        rebuilt = catalog.fetch([oid])[oid]
        assert "<x>  spaced  </x>" in rebuilt

    def test_multiple_objects_independent(self, catalog):
        a = catalog.ingest("<root><first>1</first></root>").object_id
        b = catalog.ingest("<root><left><a><x>2</x></a></left></root>").object_id
        responses = catalog.fetch([a, b])
        assert "<first>1</first>" in responses[a]
        assert "<left>" not in responses[a]
        assert "<left>" in responses[b]

    def test_unknown_object_silently_absent(self, catalog):
        oid = catalog.ingest("<root><first>1</first></root>").object_id
        responses = catalog.fetch([oid, 999])
        assert set(responses) == {oid}

    def test_response_is_wellformed(self, catalog):
        doc = (
            "<root><first>a &amp; b</first>"
            "<left><a><x>&lt;tag&gt;</x></a></left></root>"
        )
        oid = catalog.ingest(doc).object_id
        rebuilt = parse(catalog.fetch([oid])[oid])
        assert rebuilt.root.tag == "root"

    def test_fetch_in_search_matches_ingested(self, catalog):
        from repro.core import AttributeCriteria, ObjectQuery

        doc = "<root><first>findme</first></root>"
        catalog.ingest(doc)
        query = ObjectQuery().add_attribute(
            AttributeCriteria("first").add_element("first", "", "findme")
        )
        results = catalog.search(query)
        assert len(results) == 1
        assert canonical(parse(results[0])) == canonical(parse(doc))


class TestReconstructionSqlite(TestReconstruction):
    """The same reconstruction cases on the sqlite store: both stores
    read CLOB rows and share one tagger."""

    @pytest.fixture()
    def catalog(self, schema):
        return HybridCatalog(schema, store=SqliteHybridStore())


class TestTagPlacement:
    def test_close_tags_nest_correctly(self, catalog):
        doc = (
            "<root><left><a><x>1</x></a></left>"
            "<right><deep><b><y>2</y></b></deep></right></root>"
        )
        oid = catalog.ingest(doc).object_id
        rebuilt = catalog.fetch([oid])[oid]
        assert rebuilt.index("</left>") < rebuilt.index("<right>")
        assert rebuilt.index("</deep>") < rebuilt.index("</right>")
        assert rebuilt.endswith("</root>")

    def test_root_always_wraps(self, catalog):
        oid = catalog.ingest("<root><first>x</first></root>").object_id
        rebuilt = catalog.fetch([oid])[oid]
        assert rebuilt.startswith("<root>")
        assert rebuilt.endswith("</root>")


class TestEmptyObjects:
    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_object_with_no_attributes_yields_empty_root(self, schema, backend):
        store = SqliteHybridStore() if backend == "sqlite" else None
        catalog = HybridCatalog(schema, store=store)
        oid = catalog.ingest("<root></root>").object_id
        assert catalog.fetch([oid])[oid] == "<root></root>"
