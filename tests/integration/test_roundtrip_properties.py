"""Property: any generated corpus round-trips through every store.

Hypothesis drives the corpus configuration (theme counts, dynamic
nesting depth, parameter counts); for every generated document the
rebuilt response must be canonically equal to the input — the Fig-1
guarantee that dual storage loses nothing — on memory and sqlite
``:memory:`` alike.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import SqliteHybridStore
from repro.core import HybridCatalog
from repro.grid import CorpusConfig, LeadCorpusGenerator, lead_schema
from repro.xmlkit import canonical, parse

configs = st.builds(
    CorpusConfig,
    seed=st.integers(min_value=0, max_value=10_000),
    themes=st.integers(min_value=0, max_value=3),
    places=st.integers(min_value=0, max_value=2),
    keys_per_theme=st.integers(min_value=1, max_value=4),
    dynamic_groups=st.integers(min_value=0, max_value=3),
    params_per_group=st.integers(min_value=1, max_value=6),
    dynamic_depth=st.integers(min_value=1, max_value=4),
    models=st.sampled_from([("ARPS",), ("WRF",), ("ARPS", "WRF")]),
)


STORES = (lambda: None, SqliteHybridStore)


def catalogs(generator):
    """A fresh catalog with the generator's definitions, per store."""
    for make_store in STORES:
        catalog = HybridCatalog(lead_schema(), store=make_store())
        generator.register_definitions(catalog)
        try:
            yield catalog
        finally:
            catalog.store.close()


@settings(max_examples=25, deadline=None)
@given(configs, st.integers(min_value=0, max_value=50))
def test_generated_documents_roundtrip(config, index):
    generator = LeadCorpusGenerator(config)
    document = generator.document(index)
    for catalog in catalogs(generator):
        receipt = catalog.ingest(document)
        assert receipt.warnings == []
        response = catalog.fetch([receipt.object_id])[receipt.object_id]
        assert canonical(parse(response)) == canonical(parse(document))


@settings(max_examples=15, deadline=None)
@given(configs)
def test_ingest_delete_ingest_is_clean(config):
    generator = LeadCorpusGenerator(config)
    document = generator.document(0)
    for catalog in catalogs(generator):
        first = catalog.ingest(document)
        catalog.delete(first.object_id)
        assert len(catalog) == 0
        second = catalog.ingest(document)
        response = catalog.fetch([second.object_id])[second.object_id]
        assert canonical(parse(response)) == canonical(parse(document))


@settings(max_examples=15, deadline=None)
@given(configs, st.integers(min_value=0, max_value=20))
def test_shredding_is_deterministic(config, index):
    generator = LeadCorpusGenerator(config)

    def shred_rows():
        catalog = HybridCatalog(lead_schema())
        generator.register_definitions(catalog)
        result = catalog.shredder.shred(parse(generator.document(index)))
        return (
            [(c.schema_order, c.clob_seq, c.text) for c in result.clobs],
            [(a.attr_id, a.seq_id) for a in result.attributes],
            [(e.attr_id, e.seq_id, e.elem_id, e.elem_seq, e.value_text) for e in result.elements],
            [(i.desc_attr_id, i.desc_seq, i.anc_attr_id, i.anc_seq, i.distance) for i in result.inverted],
        )

    assert shred_rows() == shred_rows()
