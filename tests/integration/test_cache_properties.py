"""Property: a cached query answer always equals a fresh one.

Hypothesis draws write sequences — ``ingest`` (unscoped or as a user
with a private definition), ``ingest_many``, ``delete``,
``add_attribute``, ``remove_attribute``, ``define_attribute`` — with
repeated queries in between, on a memory store and an on-disk sqlite
store.  After every step, each query the step
probes (keyword, parameter, nested, conjunctive, and user-scoped ones)
answers from the result cache exactly what a fresh run answers
(``trace=PlanTrace()`` bypasses the cache); after the sequence, every
query does.  Probing only some queries per step lets cached answers
fall several writes behind, so patches replay more than one logged
write, and a long enough sequence runs an answer past the write log.
"""

import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import SqliteHybridStore
from repro.core import AttributeCriteria, HybridCatalog, ObjectQuery, Op, PlanTrace, ValueType
from repro.errors import CatalogError
from repro.grid import CF_STANDARD_NAMES, CorpusConfig, LeadCorpusGenerator, lead_schema
from repro.obs import MetricsRegistry

CONFIG = CorpusConfig(seed=2323, themes=2, keys_per_theme=3, dynamic_groups=2,
                      params_per_group=5, dynamic_depth=3, models=("ARPS",))
DOCUMENTS = list(LeadCorpusGenerator(CONFIG).documents(10))
USER = "ann"
THEME = "<theme><themekt>CF</themekt><themekey>{}</themekey></theme>"


def theme(word, op=Op.CONTAINS):
    return AttributeCriteria("theme").add_element("themekey", "", word, op)


def grid(dx=2500.0, op=Op.LE):
    return AttributeCriteria("grid", "ARPS").add_element("dx", "ARPS", dx, op)


def nested(threshold):
    section = AttributeCriteria("grid-section-l1", "ARPS")
    section.add_attribute(
        AttributeCriteria("grid-section-l2", "ARPS").add_element(
            "grid-param-l2", "ARPS", threshold, Op.GE)
    )
    return AttributeCriteria("grid", "ARPS").add_attribute(section)


def query(*criteria):
    out = ObjectQuery()
    for criterion in criteria:
        out.add_attribute(criterion)
    return out


#: (query, user): keyword, parameter, nested and conjunctive shapes; a
#: user-scoped query on the user's private grid definition (its own
#: cache key), and one on an admin definition through the user's scope.
QUERIES = [
    (query(theme(CF_STANDARD_NAMES[0][:5])), None),
    (query(theme("added", Op.EQ)), None),
    (query(grid()), None),
    (query(nested(0.0)), None),
    (query(theme(CF_STANDARD_NAMES[1][:4]), grid(4000.0)), None),
    (query(grid()), USER),
    (query(AttributeCriteria("theme")), USER),
]

indexes = st.integers(0, 60)
steps = st.lists(
    st.tuples(
        st.one_of(
            st.tuples(st.just("ingest"), st.integers(0, len(DOCUMENTS) - 1),
                      st.sampled_from([None, USER])),
            st.tuples(st.just("ingest_many"),
                      st.lists(st.integers(0, len(DOCUMENTS) - 1),
                               min_size=1, max_size=3),
                      st.sampled_from([None, USER])),
            st.tuples(st.just("delete"), indexes, st.none()),
            st.tuples(st.just("add_attribute"), indexes, st.none()),
            st.tuples(st.just("remove_attribute"), indexes, st.none()),
            st.tuples(st.just("define_attribute"), indexes, st.none()),
            st.tuples(st.just("query"), st.integers(0, len(QUERIES) - 1),
                      st.none()),
        ),
        # Which queries to check after the step.
        st.sets(st.integers(0, len(QUERIES) - 1), max_size=3),
    ),
    min_size=1,
    max_size=12,
)


def run_step(catalog, live, step, arg, user):
    if step == "ingest":
        live.append(catalog.ingest(DOCUMENTS[arg], user=user).object_id)
    elif step == "ingest_many":
        receipts = catalog.ingest_many([DOCUMENTS[i] for i in arg], user=user)
        live.extend(receipt.object_id for receipt in receipts)
    elif step == "define_attribute":
        catalog.define_attribute(f"late-{arg}-{catalog.generation}", "ARPS")
    elif step == "query":
        q, q_user = QUERIES[arg]
        catalog.query(q, user=q_user)
    elif not live:
        return
    elif step == "delete":
        catalog.delete(live.pop(arg % len(live)))
    elif step == "add_attribute":
        catalog.add_attribute(live[arg % len(live)], THEME.format("added"))
    else:
        try:
            catalog.remove_attribute(live[arg % len(live)], "theme", seq=1)
        except CatalogError:
            pass  # this object's first theme is already gone


def assert_cached_equals_fresh(catalog, which):
    for index in sorted(which):
        q, user = QUERIES[index]
        cached = catalog.query(q, user=user)
        assert cached == catalog.query(q, user=user, trace=PlanTrace()), index


def build(layout, directory):
    store = {
        "memory": lambda: None,
        "sqlite": lambda: SqliteHybridStore(f"{directory}/cat.db"),
    }[layout]()
    catalog = HybridCatalog(lead_schema(), store=store, metrics=MetricsRegistry())
    LeadCorpusGenerator(CONFIG).register_definitions(catalog)
    private = catalog.define_attribute("grid", "ARPS", user=USER)
    catalog.define_element(private, "dx", "ARPS", ValueType.FLOAT, user=USER)
    return catalog


@pytest.mark.parametrize("layout", ["memory", "sqlite"])
@settings(max_examples=60, deadline=None)
@given(sequence=steps)
def test_cached_answers_equal_fresh_ones_after_every_write(layout, sequence):
    with tempfile.TemporaryDirectory() as directory:
        catalog = build(layout, directory)
        try:
            live = [catalog.ingest(DOCUMENTS[0]).object_id,
                    catalog.ingest(DOCUMENTS[1], user=USER).object_id]
            assert_cached_equals_fresh(catalog, range(len(QUERIES)))
            for (step, arg, user), which in sequence:
                run_step(catalog, live, step, arg, user)
                assert_cached_equals_fresh(catalog, which)
            assert_cached_equals_fresh(catalog, range(len(QUERIES)))
        finally:
            catalog.store.close()
