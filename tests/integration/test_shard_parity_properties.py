"""The sharding parity suite: a catalog over ShardedStore(N) == a
catalog over one store.

Hypothesis draws random query shapes (keyword lookups, numeric range
predicates over grid parameters, nested sub-attribute chains, and
conjunctions of all three) and asserts that a catalog partitioned
across N ∈ {1, 2, 3, 5} shards is observationally identical to one
unsharded catalog holding the same corpus:

* **query** — the globally merged id list is equal (same members,
  same order),
* **fetch** — the set-wise tagged-XML responses are byte-identical,
* **explain / trace** — the same plan, seek order and stage actuals,
  so the same Fig-4 rows: the sharded store runs the one interpreter
  over every shard's rows in one read section (objects are disjoint
  across shards, so every stage counts what one store counts),
* **accounting** — per-table row counts sum to the unsharded counts,
  and every sharded catalog passes the federation fsck,

and a delete / add_attribute / remove_attribute sequence keeps it so.

All five catalogs ingest the identical generated corpus in the same
order, so the one id counter of each catalog hands out the same ids,
which is what makes id-level comparison meaningful.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AttributeCriteria, HybridCatalog, ObjectQuery, Op, PlanTrace
from repro.grid import CF_STANDARD_NAMES, CorpusConfig, LeadCorpusGenerator, lead_schema
from repro.obs import MetricsRegistry
from repro.sharding import check_sharded_catalog, sharded_store

CONFIG = CorpusConfig(seed=20060815, themes=2, keys_per_theme=3,
                      dynamic_groups=2, params_per_group=5, dynamic_depth=3)
N_DOCS = 14
SHARD_COUNTS = (1, 2, 3, 5)


def _ingest_corpus(catalog):
    generator = LeadCorpusGenerator(CONFIG)
    generator.register_definitions(catalog)
    for index, document in enumerate(generator.documents(N_DOCS)):
        catalog.ingest(document, name=f"doc-{index}", owner=f"user{index % 3}")
    return catalog


def _build_oracle():
    return _ingest_corpus(HybridCatalog(lead_schema(), metrics=MetricsRegistry()))


def _build_sharded():
    return {
        shards: _ingest_corpus(
            HybridCatalog(
                lead_schema(), store=sharded_store(shards),
                metrics=MetricsRegistry(),
            )
        )
        for shards in SHARD_COUNTS
    }


@pytest.fixture(scope="module")
def oracle():
    return _build_oracle()


@pytest.fixture(scope="module")
def sharded():
    return _build_sharded()


# -- query-shape strategies (the oracle suite's shapes, reseeded) ----------

ops = st.sampled_from([Op.EQ, Op.NE, Op.LT, Op.LE, Op.GT, Op.GE])

keyword_criteria = st.builds(
    lambda kw, op: AttributeCriteria("theme").add_element("themekey", "", kw, op),
    st.sampled_from(CF_STANDARD_NAMES + ["no_such_keyword"]),
    st.sampled_from([Op.EQ, Op.NE, Op.CONTAINS]),
)

parameter_criteria = st.builds(
    lambda param, value, op: AttributeCriteria("grid", "ARPS").add_element(
        param, "ARPS", value, op
    ),
    st.sampled_from(["nx", "ny", "nz", "dx", "dy"]),
    st.one_of(
        st.integers(min_value=-5, max_value=110),
        st.floats(min_value=0.0, max_value=5500.0, allow_nan=False).map(
            lambda f: round(f, 2)
        ),
    ),
    ops,
)


def _nested_criteria(depth, threshold):
    top = AttributeCriteria("grid", "ARPS")
    current = top
    for level in range(1, depth + 1):
        sub = AttributeCriteria(f"grid-section-l{level}", "ARPS")
        if level == depth:
            sub.add_element(f"grid-param-l{level}", "ARPS", threshold, Op.GE)
        current.add_attribute(sub)
        current = sub
    return top


nested = st.builds(
    _nested_criteria,
    st.integers(min_value=1, max_value=2),
    st.floats(min_value=0.0, max_value=6000.0, allow_nan=False).map(
        lambda f: round(f, 1)
    ),
)


def _make_query(crits):
    query = ObjectQuery()
    for crit in crits:
        query.add_attribute(crit)
    return query


queries = st.lists(
    st.one_of(keyword_criteria, parameter_criteria, nested),
    min_size=1, max_size=3,
).map(_make_query)


# -- the parity properties -------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(queries)
def test_sharded_query_matches_unsharded(oracle, sharded, query):
    """Same ids, same global order, for every shard count."""
    expected = oracle.query(query)
    for shards, catalog in sharded.items():
        assert catalog.query(query) == expected, f"shards={shards}"


@settings(max_examples=40, deadline=None)
@given(queries)
def test_sharded_responses_byte_identical(oracle, sharded, query):
    """The aggregated set-wise XML responses equal the unsharded
    builder's output byte for byte (same objects, same CLOB order)."""
    ids = oracle.query(query)
    expected = oracle.fetch(ids)
    for shards, catalog in sharded.items():
        assert catalog.fetch(ids) == expected, f"shards={shards}"
        assert catalog.search(query) == [expected[i] for i in ids]


def _assert_plan_parity(oracle, catalog, query, label):
    """Same ids, same Fig-4 stage names, same seek order and exactly
    the unsharded plan's stage actuals."""
    reference = oracle.explain(query)
    explanation = catalog.explain(query)
    assert explanation.object_ids == reference.object_ids, label
    assert explanation.trace.stage_names() == reference.trace.stage_names(), label
    assert (
        explanation.trace.stages[-1].rows,
        explanation.trace.stages[-1].name,
    ) == (reference.trace.stages[-1].rows, "object-ids"), label
    assert [s.qelem_id for s in explanation.plan.seeks] == [
        s.qelem_id for s in reference.plan.seeks
    ], label
    assert explanation.plan.actuals == reference.plan.actuals, label


@settings(max_examples=40, deadline=None)
@given(queries)
def test_sharded_explain_row_totals(oracle, sharded, query):
    for shards, catalog in sharded.items():
        _assert_plan_parity(oracle, catalog, query, f"shards={shards}")


@settings(max_examples=40, deadline=None)
@given(queries)
def test_sharded_trace_is_the_unsharded_fig4_trace(oracle, sharded, query):
    """``query(trace=...)`` on a sharded catalog shows the five Fig-4
    rows of one store — no per-leg or merge rows — ending in the same
    ``object-ids`` count."""
    wanted = PlanTrace()
    expected = oracle.query(query, trace=wanted)
    for shards, catalog in sharded.items():
        trace = PlanTrace()
        assert catalog.query(query, trace=trace) == expected
        assert trace.stage_names() == wanted.stage_names(), f"shards={shards}"
        assert trace.stages[-1].rows == wanted.stages[-1].rows == len(expected)


def test_storage_rows_sum_to_unsharded(oracle, sharded):
    expected = {
        table: rows for table, rows, _size in oracle.storage_report()
        if table in ("objects", "clobs", "attributes", "elements",
                     "attr_ancestors")
    }
    for shards, catalog in sharded.items():
        summed = {
            table: rows for table, rows, _size in catalog.storage_report()
            if table in expected
        }
        assert summed == expected, f"shards={shards}"


def test_every_sharded_catalog_is_fsck_clean(sharded):
    for shards, catalog in sharded.items():
        assert check_sharded_catalog(catalog, deep=True) == [], f"shards={shards}"


def test_profiled_query_keeps_parity(oracle, sharded):
    """profile=True must not change answers; the profile has the
    stages and rows of one store's run and names the sharded
    backend."""
    query = _make_query([
        AttributeCriteria("theme").add_element(
            "themekey", "", CF_STANDARD_NAMES[0], Op.EQ
        )
    ])
    # A trace bypasses the result cache, so a plan actually runs.
    expected = oracle.query(query, trace=PlanTrace(), profile=True)
    wanted = oracle.last_profile
    for shards, catalog in sharded.items():
        assert catalog.query(query, trace=PlanTrace(), profile=True) == expected
        profile = catalog.last_profile
        assert profile.backend == "sharded"
        assert profile.stage_names() == wanted.stage_names()
        assert profile.rows_out()[-1] == wanted.rows_out()[-1] == len(expected)
        assert profile.rows_out() == wanted.rows_out()
        # The one interpreter timed its stages into the one profile.
        assert profile.stages[0].seconds > 0


WRITE_PROBES = [
    _make_query([AttributeCriteria("theme")]),
    _make_query([
        AttributeCriteria("theme").add_element(
            "themekey", "", "late_added_key", Op.EQ
        )
    ]),
    _make_query([_nested_criteria(1, 0.0)]),
    _make_query([
        AttributeCriteria("grid", "ARPS").add_element("nx", "ARPS", 50, Op.GE)
    ]),
]


def test_parity_survives_delete_add_and_remove_attribute():
    """The write verbs route to the owning shard and leave every
    catalog — N ∈ {1, 2, 3, 5} and the unsharded oracle — answering,
    tracing and fetching identically, fsck-clean after each step."""
    oracle = _build_oracle()
    catalogs = _build_sharded()
    fragment = (
        "<theme><themekt>CF</themekt>"
        "<themekey>late_added_key</themekey></theme>"
    )

    def check(step):
        for query in WRITE_PROBES:
            ids = oracle.query(query)
            xml = oracle.fetch(ids)
            for shards, catalog in catalogs.items():
                label = f"{step}, shards={shards}"
                assert catalog.query(query) == ids, label
                assert catalog.fetch(ids) == xml, label
                _assert_plan_parity(oracle, catalog, query, label)
        for shards, catalog in catalogs.items():
            assert check_sharded_catalog(catalog, deep=True) == [], (
                f"{step}, shards={shards}"
            )

    steps = [
        ("delete", lambda c: c.delete(3)),
        ("add_attribute", lambda c: c.add_attribute(5, fragment)),
        ("add_attribute again", lambda c: c.add_attribute(8, fragment)),
        ("remove_attribute", lambda c: c.remove_attribute(5, "theme", seq=1)),
        ("delete after amend", lambda c: c.delete(8)),
    ]
    check("before")
    for step, apply in steps:
        for catalog in (oracle, *catalogs.values()):
            apply(catalog)
        check(step)
