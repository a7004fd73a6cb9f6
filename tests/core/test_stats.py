"""Unit tests for the rows a query's seeks read and the cache token.

A plan reads no counts when it is built: each seek reads the store
once, when the plan runs, and what it read stays current through
ingests and deletes.  The catalog keeps no statistics, only the
``(generation, data_version)`` token its result cache compares.
"""

import threading

import pytest

from repro.backends import SqliteHybridStore
from repro.core import (
    AttributeCriteria,
    HybridCatalog,
    ObjectQuery,
    Op,
    build_plan,
)
from repro.core.schema import ValueType
from repro.grid import FIG3_DOCUMENT, define_fig3_attributes, lead_schema
from repro.xmlkit import element, pretty_print


def make_doc(rid, grids=()):
    eainfo = element("eainfo")
    for grid in grids:
        detailed = element(
            "detailed",
            element("enttyp", element("enttypl", "grid"), element("enttypds", "ARPS")),
        )
        for key, value in grid.items():
            detailed.append(
                element(
                    "attr",
                    element("attrlabl", key),
                    element("attrdefs", "ARPS"),
                    element("attrv", str(value)),
                )
            )
        eainfo.append(detailed)
    return pretty_print(
        element(
            "LEADresource",
            element("resourceID", rid),
            element("data", element("idinfo"), element("geospatial", eainfo)),
        )
    )


@pytest.fixture(params=["memory", "sqlite"])
def catalog(request):
    store = SqliteHybridStore() if request.param == "sqlite" else None
    cat = HybridCatalog(lead_schema(), store=store)
    grid = cat.define_attribute("grid", "ARPS")
    cat.define_element(grid, "nx", "ARPS", ValueType.FLOAT)
    cat.define_element(grid, "dx", "ARPS", ValueType.FLOAT)
    for i in range(6):
        # nx takes 6 distinct values, dx always 1000.0 (1 distinct).
        cat.ingest(make_doc(f"doc-{i}", grids=[{"nx": 10 + i, "dx": 1000.0}]))
    return cat


def grid_query(name, value, op=Op.EQ):
    crit = AttributeCriteria("grid", "ARPS").add_element(name, "ARPS", value, op)
    return ObjectQuery().add_attribute(crit)


def estimate(catalog, query):
    """The rows the one seek of ``query``'s plan reads when it runs."""
    plan = build_plan(catalog.shred_query(query))
    catalog.store.match_objects(plan)
    (seek,) = plan.seeks
    return plan.actuals[seek.key()]


class TestMaintenance:
    def test_incremental_counts_match_store_rebuild(self, catalog):
        """Seek rows after ingests and deletes equal a catalog's that
        stored only the surviving documents: nothing drifts."""
        catalog.delete(2)
        catalog.delete(5)
        catalog.ingest(make_doc("doc-late", grids=[{"nx": 12, "dx": 1000.0}]))
        rebuilt = HybridCatalog(lead_schema(), store=type(catalog.store)())
        grid = rebuilt.define_attribute("grid", "ARPS")
        rebuilt.define_element(grid, "nx", "ARPS", ValueType.FLOAT)
        rebuilt.define_element(grid, "dx", "ARPS", ValueType.FLOAT)
        for nx in (10, 12, 13, 15, 12):
            rebuilt.ingest(make_doc(f"doc-{nx}", grids=[{"nx": nx, "dx": 1000.0}]))
        queries = [grid_query("nx", 12), grid_query("nx", 12, Op.GE),
                   grid_query("dx", 1000.0), grid_query("nx", 11, Op.NE)]
        incremental = [estimate(catalog, query) for query in queries]
        assert incremental == [estimate(rebuilt, query) for query in queries]
        assert incremental == [2, 4, 5, 5]

    def test_ingest_updates_without_invalidating(self, catalog):
        gen, version = catalog.generation, catalog.data_version
        catalog.ingest(make_doc("doc-new", grids=[{"nx": 99, "dx": 1000.0}]))
        assert catalog.generation == gen
        assert catalog.data_version > version
        assert estimate(catalog, grid_query("nx", 0, Op.GE)) == 7

    def test_invalidate_bumps_generation_and_rebuilds_lazily(self, catalog):
        """Only a definition change bumps ``generation``; a delete and a
        ``remove_attribute`` move ``data_version``.  The store's seeks
        are read only when a query runs, once per seek: never by a
        write, never to plan."""
        store = type(catalog.store)()
        reads = []
        seek = store._seek_instances
        store._seek_instances = lambda *args: reads.append(1) or seek(*args)
        cat = HybridCatalog(lead_schema(), store=store)
        define_fig3_attributes(cat)
        for _ in range(3):
            cat.ingest(FIG3_DOCUMENT)
        assert reads == []
        generation = cat.generation
        for write in (lambda: cat.delete(1), lambda: cat.remove_attribute(2, "theme")):
            version = cat.data_version
            write()
            assert cat.generation == generation
            assert cat.data_version > version
        assert reads == []
        assert cat.query(grid_query("dx", 1000)) == [2, 3]
        assert reads == [1]
        assert cat.query(grid_query("dx", 999)) == []
        assert reads == [1, 1]
        cat.define_attribute("late", "ARPS")
        assert cat.generation > generation
        assert cat.query(grid_query("dx", 1000)) == [2, 3]
        assert reads == [1, 1, 1]


class TestConcurrentInvalidate:
    """``invalidate()`` racing queries: retiring cached answers never
    touches the data, so a concurrent query reads the same seek rows
    throughout."""

    def test_invalidate_racing_estimates(self, catalog):
        query = grid_query("nx", 12, Op.GE)
        expected = estimate(catalog, query)
        errors = []
        stop = threading.Event()

        def estimator():
            try:
                while not stop.is_set():
                    assert estimate(catalog, query) == expected
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=estimator) for _ in range(4)]
        for t in threads:
            t.start()
        for _ in range(200):
            catalog.invalidate()
        stop.set()
        for t in threads:
            t.join()
        assert not errors, errors

    def test_invalidate_moves_the_cache_token(self, catalog):
        token = catalog.cache_token()
        catalog.invalidate()
        assert catalog.cache_token() != token

    def test_ingest_moves_the_cache_token(self, catalog):
        token = catalog.cache_token()
        catalog.ingest(make_doc("doc-token", grids=[{"nx": 40.0, "dx": 1000.0}]))
        assert catalog.cache_token() != token
