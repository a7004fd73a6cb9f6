"""Property: the Fig-4 planner agrees with the per-document scan oracle.

Hypothesis draws random attribute queries (keyword lookups, numeric
ranges, nested sub-attribute chains, conjunctions) and checks that the
count-matching plan returns exactly the objects the independent
nested-loop oracle accepts — on both the memory and sqlite backends.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import evaluate_shredded_query
from repro.backends import SqliteHybridStore
from repro.core import (
    AttributeCriteria, HybridCatalog, ObjectQuery, Op, shred_query,
)
from repro.grid import CF_STANDARD_NAMES, CorpusConfig, LeadCorpusGenerator, lead_schema
from repro.xmlkit import parse

CONFIG = CorpusConfig(seed=4242, themes=2, keys_per_theme=3, dynamic_groups=2,
                      params_per_group=5, dynamic_depth=3)
N_DOCS = 12


def _build(store=None):
    catalog = HybridCatalog(lead_schema(), store=store)
    generator = LeadCorpusGenerator(CONFIG)
    generator.register_definitions(catalog)
    documents = list(generator.documents(N_DOCS))
    catalog.ingest_many(documents)
    return catalog, documents


@pytest.fixture(scope="module")
def memory_env():
    return _build()


@pytest.fixture(scope="module")
def sqlite_env():
    return _build(store=SqliteHybridStore())


@pytest.fixture(scope="module")
def shreds(memory_env):
    catalog, documents = memory_env
    return [catalog.shredder.shred(parse(doc)) for doc in documents]


ops = st.sampled_from([Op.EQ, Op.NE, Op.LT, Op.LE, Op.GT, Op.GE])

keywords = st.sampled_from(CF_STANDARD_NAMES + ["no_such_keyword"])

keyword_criteria = st.one_of(
    st.builds(
        lambda kw, op: AttributeCriteria("theme").add_element("themekey", "", kw, op),
        keywords,
        # Ranges on text compare strings; the seek walks distinct values.
        st.sampled_from([Op.EQ, Op.NE, Op.CONTAINS, Op.LT, Op.LE, Op.GT, Op.GE]),
    ),
    st.builds(
        lambda kws: AttributeCriteria("theme").add_element(
            "themekey", "", set(kws), Op.IN_SET
        ),
        st.lists(keywords, min_size=1, max_size=3),
    ),
)

# ARPS grid group parameters the generator emits with params_per_group=5.
grid_params = st.sampled_from(["nx", "ny", "nz", "dx", "dy"])

parameter_values = st.one_of(
    st.integers(min_value=-5, max_value=110),
    st.floats(min_value=0.0, max_value=5500.0, allow_nan=False).map(
        lambda f: round(f, 2)
    ),
)

parameter_criteria = st.one_of(
    st.builds(
        lambda param, value, op: AttributeCriteria("grid", "ARPS").add_element(
            param, "ARPS", value, op
        ),
        grid_params,
        parameter_values,
        ops,
    ),
    # NE on a parameter takes every distinct value but one.
    st.builds(
        lambda param, value: AttributeCriteria("grid", "ARPS").add_element(
            param, "ARPS", value, Op.NE
        ),
        grid_params,
        parameter_values,
    ),
    st.builds(
        lambda param, values: AttributeCriteria("grid", "ARPS").add_element(
            param, "ARPS", set(values), Op.IN_SET
        ),
        grid_params,
        st.lists(parameter_values, min_size=1, max_size=3),
    ),
)


def nested_criteria(depth, threshold):
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
    nested_criteria,
    st.integers(min_value=1, max_value=2),
    st.floats(min_value=0.0, max_value=6000.0, allow_nan=False).map(lambda f: round(f, 1)),
)

criteria = st.one_of(keyword_criteria, parameter_criteria, nested)

queries = st.lists(criteria, min_size=1, max_size=3).map(
    lambda crits: _make_query(crits)
)


def _make_query(crits):
    query = ObjectQuery()
    for crit in crits:
        query.add_attribute(crit)
    return query


@settings(max_examples=120, deadline=None)
@given(queries)
def test_planner_matches_oracle(memory_env, shreds, query):
    catalog, _documents = memory_env
    shredded = shred_query(query, catalog.registry)
    expected = [
        i + 1
        for i, shred in enumerate(shreds)
        if evaluate_shredded_query(shredded, shred)
    ]
    assert catalog.query(query) == expected


@settings(max_examples=60, deadline=None)
@given(queries)
def test_sqlite_matches_memory(memory_env, sqlite_env, query):
    memory, _ = memory_env
    sqlite, _ = sqlite_env
    assert memory.query(query) == sqlite.query(query)
