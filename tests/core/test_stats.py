"""Unit tests for the optimizer's row estimates and the cache token.

A plan's estimates are the store's own counts, read when the plan is
built (``HybridStore.stage_counts``): exact for the plan's literals,
read only on a plan-cache miss, and never changing which objects a
query matches.  The catalog keeps no statistics, only the
``(generation, data_version)`` token its caches compare.
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
    """The one seek's estimate in a plan built for ``query``."""
    shredded = catalog.shred_query(query)
    plan = build_plan(shredded, catalog.store.stage_counts(shredded))
    (seek,) = plan.seeks
    return seek.est_rows


class TestMaintenance:
    def test_incremental_counts_match_store_rebuild(self, catalog):
        """Estimates after ingests and deletes equal a catalog's that
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
        ``remove_attribute`` move ``data_version``.  The store is read
        for counts only when a plan is built: never by a write, never
        on a plan-cache hit."""
        store = type(catalog.store)()
        reads = []
        stage_counts = store.stage_counts
        store.stage_counts = lambda query: reads.append(1) or stage_counts(query)
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
        assert cat.query(grid_query("dx", 999)) == []  # same shape: cached
        assert reads == [1]
        cat.define_attribute("late", "ARPS")
        assert cat.generation > generation
        assert cat.query(grid_query("dx", 1000)) == [2, 3]
        assert reads == [1, 1]


class TestEstimates:
    def test_eq_is_the_literals_row_count(self, catalog):
        assert estimate(catalog, grid_query("nx", 12)) == 1
        assert estimate(catalog, grid_query("dx", 1000.0)) == 6
        assert estimate(catalog, grid_query("nx", 99)) == 0

    def test_ne_is_complement_of_eq(self, catalog):
        assert estimate(catalog, grid_query("nx", 12, Op.NE)) == 6 - 1

    def test_in_set_scales_with_width(self, catalog):
        narrow = estimate(catalog, grid_query("nx", {10}, Op.IN_SET))
        wide = estimate(catalog, grid_query("nx", {10, 11, 12}, Op.IN_SET))
        assert (narrow, wide) == (1, 3)

    def test_range_and_contains_are_fractions_of_rows(self, catalog):
        """A range or a CONTAINS reads the part of the definition's rows
        it passes."""
        at_least = estimate(catalog, grid_query("nx", 12, Op.GE))
        below = estimate(catalog, grid_query("nx", 12, Op.LT))
        grid = catalog.registry.lookup_attribute("grid", "ARPS")
        catalog.define_element(grid, "label", "ARPS", ValueType.STRING)
        for label in ("alpha", "beta", "alphabet"):
            catalog.ingest(make_doc(label, grids=[{"label": label}]))
        holding = estimate(catalog, grid_query("label", "alpha", Op.CONTAINS))
        assert (at_least, below, holding) == (4, 2, 2)

    def test_unknown_definition_estimates_zero_rows(self, catalog):
        query = ObjectQuery()
        query.add_attribute(
            AttributeCriteria("theme").add_element("themekey", "", "x", Op.EQ)
        )
        assert estimate(catalog, query) == 0


class TestConcurrentInvalidate:
    """``invalidate()`` racing estimates: retiring plans never touches
    the data, so a concurrent estimator reads the same counts
    throughout."""

    def test_invalidate_racing_estimates(self, catalog):
        shredded = catalog.shred_query(grid_query("nx", 12, Op.GE))
        expected = catalog.store.stage_counts(shredded)
        errors = []
        stop = threading.Event()

        def estimator():
            try:
                while not stop.is_set():
                    assert catalog.store.stage_counts(shredded) == expected
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
