"""Property: query execution *profiles* are backend-neutral.

The backend-equivalence property says both stores return the same
object ids from the same plan; this extends that to
``EXPLAIN ANALYZE``: a :class:`~repro.obs.profile.QueryProfile`
collected on either backend must report the same stage names, the same
stage order, and the same per-stage rows-out — only the timings (and
the wait breakdown) may differ.  Hypothesis draws the same random
query shapes the equivalence suite uses and profiles both backends.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import SqliteHybridStore
from repro.core import AttributeCriteria, HybridCatalog, ObjectQuery, Op
from repro.grid import CF_STANDARD_NAMES, CorpusConfig, LeadCorpusGenerator, lead_schema
from repro.obs import QueryProfile, collecting

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

grid_params = st.sampled_from(["nx", "ny", "nz", "dx", "dy"])

parameter_criteria = st.builds(
    lambda param, value, op: AttributeCriteria("grid", "ARPS").add_element(
        param, "ARPS", value, op
    ),
    grid_params,
    st.integers(min_value=-5, max_value=110),
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
    st.floats(min_value=0.0, max_value=6000.0, allow_nan=False).map(
        lambda f: round(f, 1)
    ),
)

criteria = st.one_of(keyword_criteria, parameter_criteria, nested)


def _make_query(crits):
    query = ObjectQuery()
    for crit in crits:
        query.add_attribute(crit)
    return query


queries = st.lists(criteria, min_size=1, max_size=3).map(_make_query)


def _profiled(catalog, query):
    """Run ``query`` uncached (fresh shred each call) and return the
    collected profile."""
    shredded = catalog.shred_query(query)
    plan = catalog.plan_for(shredded)
    profile = QueryProfile()
    with collecting(profile):
        ids = catalog.store.match_objects(plan)
    return ids, profile


@settings(max_examples=80, deadline=None)
@given(queries)
def test_profiles_agree_across_backends(memory_catalog, sqlite_catalog, query):
    mem_ids, mem = _profiled(memory_catalog, query)
    sql_ids, sql = _profiled(sqlite_catalog, query)
    assert mem_ids == sql_ids
    assert mem.backend == "memory" and sql.backend == "sqlite"
    # The parity property proper: names, order, and row flow match.
    assert mem.stage_names() == sql.stage_names()
    assert mem.rows_out() == sql.rows_out()
    assert [s.rows_in for s in mem.stages] == [s.rows_in for s in sql.stages]
    assert [s.key for s in mem.stages] == [s.key for s in sql.stages]
    assert mem.short_circuited == sql.short_circuited
    assert mem.simple == sql.simple


@settings(max_examples=40, deadline=None)
@given(queries)
def test_profile_timing_columns_are_per_stage(memory_catalog, query):
    _ids, profile = _profiled(memory_catalog, query)
    assert len(profile.stages) >= 2  # at least one seek + intersect
    assert all(stage.seconds >= 0.0 for stage in profile.stages)
    # Every executed stage key carries a timing entry.
    timed = set(profile.stage_seconds)
    assert {stage.key for stage in profile.stages} >= timed

