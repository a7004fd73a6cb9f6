"""Property: the plan interpreter answers alike over both row sources,
and the catalog's query path answers what the bare plan does.

Hypothesis draws random attribute queries (keyword lookups, numeric
ranges, nested sub-attribute chains, conjunctions) and checks two
invariants of the plan layer:

* **row-source parity** — the one interpreter runs the *same*
  :class:`~repro.core.logical.LogicalPlan` over the memory store's
  indexes and over sqlite's keyed ``SELECT``s and returns identical
  object-id lists (and identical trace stage names, so EXPLAIN output
  is backend-neutral);
* **path neutrality** — ``catalog.query`` (result cache, per-query
  plan) returns exactly what the plan built straight from the shredded
  query (``store.match_objects(shredded)``) returns.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import SqliteHybridStore
from repro.core import AttributeCriteria, HybridCatalog, ObjectQuery, Op, PlanTrace
from repro.core.storage import fig4_stages
from repro.grid import CF_STANDARD_NAMES, CorpusConfig, LeadCorpusGenerator, lead_schema

CONFIG = CorpusConfig(seed=777, themes=2, keys_per_theme=3, dynamic_groups=2,
                      params_per_group=5, dynamic_depth=3)
N_DOCS = 12


def _build(store=None):
    catalog = HybridCatalog(lead_schema(), store=store)
    generator = LeadCorpusGenerator(CONFIG)
    generator.register_definitions(catalog)
    catalog.ingest_many(list(generator.documents(N_DOCS)))
    return catalog


@pytest.fixture(scope="module")
def memory_catalog():
    return _build()


@pytest.fixture(scope="module")
def sqlite_catalog():
    return _build(store=SqliteHybridStore())


ops = st.sampled_from([Op.EQ, Op.NE, Op.LT, Op.LE, Op.GT, Op.GE])

keyword_criteria = st.builds(
    lambda kw, op: AttributeCriteria("theme").add_element("themekey", "", kw, op),
    st.sampled_from(CF_STANDARD_NAMES + ["no_such_keyword"]),
    st.sampled_from([Op.EQ, Op.NE, Op.CONTAINS]),
)

keyword_sets = st.builds(
    lambda kws: AttributeCriteria("theme").add_element(
        "themekey", "", set(kws), Op.IN_SET
    ),
    st.lists(st.sampled_from(CF_STANDARD_NAMES), min_size=1, max_size=4),
)

grid_params = st.sampled_from(["nx", "ny", "nz", "dx", "dy"])

parameter_criteria = st.builds(
    lambda param, value, op: AttributeCriteria("grid", "ARPS").add_element(
        param, "ARPS", value, op
    ),
    grid_params,
    st.one_of(
        st.integers(min_value=-5, max_value=110),
        st.floats(min_value=0.0, max_value=5500.0, allow_nan=False).map(
            lambda f: round(f, 2)
        ),
    ),
    ops,
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

criteria = st.one_of(keyword_criteria, keyword_sets, parameter_criteria, nested)


def _make_query(crits):
    query = ObjectQuery()
    for crit in crits:
        query.add_attribute(crit)
    return query


queries = st.lists(criteria, min_size=1, max_size=3).map(_make_query)


@settings(max_examples=80, deadline=None)
@given(queries)
def test_interpreter_and_compiler_agree(memory_catalog, sqlite_catalog, query):
    """Memory and sqlite are still two row sources for the one
    interpreter: the same query reads the same ids and stage names."""
    mem_trace, sql_trace = PlanTrace(), PlanTrace()
    mem_ids = memory_catalog.query(query, trace=mem_trace)
    sql_ids = sqlite_catalog.query(query, trace=sql_trace)
    assert mem_ids == sql_ids
    assert [s.name for s in mem_trace.stages] == [s.name for s in sql_trace.stages]


@settings(max_examples=80, deadline=None)
@given(queries)
def test_optimizer_preserves_results(memory_catalog, sqlite_catalog, query):
    for catalog in (memory_catalog, sqlite_catalog):
        shredded = catalog.shred_query(query)
        unoptimized = catalog.store.match_objects(shredded)
        optimized = catalog.query(query)
        assert optimized == unoptimized


@settings(max_examples=60, deadline=None)
@given(queries)
def test_trace_is_the_derivation_of_the_executed_plan(
    memory_catalog, sqlite_catalog, query
):
    # What a caller's PlanTrace receives is exactly fig4_stages() of
    # the plan that ran — on both backends, and therefore the same on
    # both.
    views = []
    for catalog in (memory_catalog, sqlite_catalog):
        trace = PlanTrace()
        catalog.query(query, trace=trace)
        explanation = catalog.explain(query)
        derived = PlanTrace()
        derived.stages.extend(fig4_stages(explanation.plan))
        assert trace.as_dict() == derived.as_dict() == explanation.trace.as_dict()
        views.append(trace.as_dict())
    assert views[0] == views[1]
