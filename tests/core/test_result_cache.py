"""The result cache patches cached answers past ingests and deletes.

A cached answer survives a write: the next lookup replays the writes
logged since it was computed (an ingest adds the new id when the query
matches its rows, a delete removes the id) instead of running the plan
again.  Checked here: the patched answer equals a fresh one and costs
no ``match_objects`` call; an answer older than the write log is
recomputed; replay is idempotent, so a result that already reflects a
logged write is kept; what still empties the cache, and the metrics
that count it.
"""

import pytest

from repro.backends import SqliteHybridStore
from repro.core import (
    AttributeCriteria, HybridCatalog, ObjectQuery, Op, PlanTrace, ValueType,
)
from repro.core.result_cache import WRITE_LOG_LENGTH, result_key
from repro.grid import FIG3_DOCUMENT, define_fig3_attributes, lead_schema
from repro.obs import MetricsRegistry

LAYOUTS = {
    "memory": lambda tmp_path: None,
    "sqlite": lambda tmp_path: SqliteHybridStore(str(tmp_path / "cat.db")),
}

#: Fig 3's document with its grid spacing swapped, so a query on
#: ``dx = 1000`` matches one and not the other.
OTHER_GRID = FIG3_DOCUMENT.replace("<attrv>1000.000<", "<attrv>2000.000<")


def grid_query(dx=1000.0):
    return ObjectQuery().add_attribute(
        AttributeCriteria("grid", "ARPS").add_element("dx", "ARPS", dx, Op.EQ)
    )


@pytest.fixture(params=sorted(LAYOUTS))
def catalog(request, tmp_path):
    catalog = HybridCatalog(lead_schema(), store=LAYOUTS[request.param](tmp_path),
                            metrics=MetricsRegistry())
    define_fig3_attributes(catalog)
    catalog.ingest(FIG3_DOCUMENT)
    catalog.ingest(OTHER_GRID)
    yield catalog
    catalog.store.close()


def count_plan_runs(catalog):
    runs = []
    match = catalog.store.match_objects
    catalog.store.match_objects = lambda *args: runs.append(1) or match(*args)
    return runs


def fresh(catalog, query, user=None):
    return catalog.query(query, user=user, trace=PlanTrace())


def test_ingest_of_a_matching_document_patches_the_cached_answer(catalog):
    assert catalog.query(grid_query()) == [1]
    runs = count_plan_runs(catalog)
    new = catalog.ingest(FIG3_DOCUMENT).object_id
    catalog.ingest(OTHER_GRID)
    assert catalog.query(grid_query()) == [1, new]
    assert runs == []
    assert catalog.result_cache.patched == 1
    patched = catalog.metrics.counter("query_cache_patched_hits_total")
    assert patched.value == 1
    assert fresh(catalog, grid_query()) == [1, new]


def test_delete_patches_the_cached_answer(catalog):
    new = catalog.ingest(FIG3_DOCUMENT).object_id
    assert catalog.query(grid_query()) == [1, new]
    runs = count_plan_runs(catalog)
    catalog.delete(1)
    catalog.delete(2)
    assert catalog.query(grid_query()) == [new]
    assert runs == []
    assert fresh(catalog, grid_query()) == [new]


def test_an_answer_older_than_the_write_log_is_recomputed(catalog):
    assert catalog.query(grid_query()) == [1]
    assert catalog.query(grid_query(2000.0)) == [2]
    runs = count_plan_runs(catalog)
    ids = [catalog.ingest(FIG3_DOCUMENT).object_id for _ in range(WRITE_LOG_LENGTH)]
    # Exactly the log's length behind: still patched.
    assert catalog.query(grid_query()) == [1, *ids]
    assert runs == []
    catalog.delete(ids[0])
    # One write more than the log holds: recomputed, and still right.
    assert catalog.query(grid_query(2000.0)) == [2]
    assert runs == [1]
    assert catalog.query(grid_query()) == [1, *ids[1:]]
    assert runs == [1]


def test_replay_is_idempotent(catalog):
    """A result computed under version v may already reflect writes
    that committed before the token moved past v: storing it under v
    and replaying those writes changes nothing."""
    query = grid_query()
    shredded = catalog.shred_query(query)
    key = result_key(shredded)
    cache = catalog.result_cache
    catalog.query(grid_query(2000.0))  # an entry: writes are logged
    token = catalog.cache_token()
    new = catalog.ingest(FIG3_DOCUMENT).object_id
    catalog.delete(1)
    # Computed after both writes, stored as current at the old token.
    assert cache.store(key, token, fresh(catalog, query)) == 0
    assert cache.lookup(key, shredded) == [new]
    # Computed between the two writes: the replay finishes the job.
    token = catalog.cache_token()
    between = fresh(catalog, query)
    other = catalog.ingest(FIG3_DOCUMENT).object_id
    assert cache.store(key, token, between) == 0
    assert cache.lookup(key, shredded) == [new, other]


def test_an_empty_cache_logs_no_write(catalog):
    """With no entry to patch, a write leaves the log empty (it keeps
    no shred alive), so a result computed across it is not stored."""
    shredded = catalog.shred_query(grid_query())
    key = result_key(shredded)
    token = catalog.cache_token()
    catalog.ingest(FIG3_DOCUMENT)
    catalog.result_cache.store(key, token, [1])
    assert len(catalog.result_cache) == 0
    assert catalog.query(grid_query()) == [1, 3]


def test_a_result_whose_generation_moved_is_not_stored(catalog):
    shredded = catalog.shred_query(grid_query())
    key = result_key(shredded)
    token = catalog.cache_token()
    grid = catalog.registry.lookup_attribute("grid", "ARPS")
    catalog.define_element(grid, "ny", "ARPS", ValueType.FLOAT)
    catalog.result_cache.store(key, token, [1])
    assert len(catalog.result_cache) == 0
    assert catalog.result_cache.lookup(key, shredded) is None


@pytest.mark.parametrize("write, cause", [
    (lambda c: c.add_attribute(1, "<theme><themekt>CF</themekt>"
                                   "<themekey>late</themekey></theme>"),
     "data_version"),
    (lambda c: c.remove_attribute(1, "theme"), "data_version"),
    (lambda c: c.define_attribute("late", "ARPS"), "generation"),
])
def test_writes_the_log_cannot_describe_empty_the_cache(catalog, write, cause):
    assert catalog.query(grid_query()) == [1]
    catalog.delete(catalog.ingest(FIG3_DOCUMENT).object_id)
    assert len(catalog.result_cache) == 1
    assert catalog.metrics.get("query_cache_invalidations_total") is None
    write(catalog)
    assert len(catalog.result_cache) == 0
    wipes = catalog.metrics.get("query_cache_invalidations_total")
    assert [(labels, child.value) for labels, child in wipes.series()] == [
        ({"cause": cause}, 1)]
    runs = count_plan_runs(catalog)
    assert catalog.query(grid_query()) == fresh(catalog, grid_query())
    assert runs == [1, 1]
