"""Unit tests for the selectivity statistics layer.

Statistics order plan stages; they must stay cheap to maintain (read
from the store once, then folded from every write's rows) and their
estimates must react to the value distributions the optimizer cares
about — without ever changing which objects a query matches.
"""

import pytest

from repro.backends import SqliteHybridStore
from repro.core import (
    AttributeCriteria,
    CatalogStatistics,
    HybridCatalog,
    ObjectQuery,
    Op,
    PlanTrace,
)
from repro.core.schema import ValueType
from repro.grid import FIG3_DOCUMENT, define_fig3_attributes, lead_schema
from repro.sharding import sharded_store
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


def _elem_def(catalog, name):
    grid = catalog.registry.lookup_attribute("grid", "ARPS")
    return catalog.registry.lookup_element(grid, name, "ARPS")


class TestMaintenance:
    def test_incremental_counts_match_store_rebuild(self, catalog):
        nx = _elem_def(catalog, "nx")
        incr = (
            catalog.stats.object_count(),
            catalog.stats.element_rows(nx.elem_id),
            catalog.stats.element_distinct(nx.elem_id),
        )
        rebuilt = CatalogStatistics(catalog.store)
        rebuilt.invalidate()
        fresh = (
            rebuilt.object_count(),
            rebuilt.element_rows(nx.elem_id),
            rebuilt.element_distinct(nx.elem_id),
        )
        assert incr == fresh == (6, 6, 6)

    def test_ingest_updates_without_invalidating(self, catalog):
        gen = catalog.stats.generation
        catalog.ingest(make_doc("doc-new", grids=[{"nx": 99, "dx": 1000.0}]))
        assert catalog.stats.generation == gen
        assert catalog.stats.object_count() == 7
        nx = _elem_def(catalog, "nx")
        assert catalog.stats.element_rows(nx.elem_id) == 7

    def test_invalidate_bumps_generation_and_rebuilds_lazily(self, catalog):
        """Only a definition change bumps ``generation``.  A delete and
        a ``remove_attribute`` fold their rows out of the counters: the
        generation holds, ``data_version`` moves, and the store is read
        for statistics once in the catalog's lifetime, when it opens."""
        store = type(catalog.store)()
        calls = []
        collect = store.collect_statistics
        store.collect_statistics = lambda: calls.append(1) or collect()
        cat = HybridCatalog(lead_schema(), store=store)
        define_fig3_attributes(cat)
        for _ in range(3):
            cat.ingest(FIG3_DOCUMENT)
        theme = cat.registry.lookup_attribute("theme", "")
        dx = _elem_def(cat, "dx").elem_id
        generation = cat.stats.generation
        for write in (lambda: cat.delete(1), lambda: cat.remove_attribute(2, "theme")):
            version = cat.stats.data_version
            write()
            assert cat.stats.generation == generation
            assert cat.stats.data_version > version
        assert cat.stats.object_count() == 2
        assert cat.stats.element_rows(dx) == 2
        assert cat.stats.attribute_rows(theme.attr_id) == 3
        cat.define_attribute("late", "ARPS")
        assert cat.stats.generation > generation
        assert calls == [1]
        assert cat.stats.snapshot() == collect()

    def test_collect_statistics_snapshot_shape(self, catalog):
        snap = catalog.store.collect_statistics()
        nx = _elem_def(catalog, "nx")
        dx = _elem_def(catalog, "dx")
        assert snap.objects == 6
        assert snap.elem_rows[nx.elem_id] == 6
        assert snap.elem_distinct[nx.elem_id] == 6
        assert snap.elem_distinct[dx.elem_id] == 1
        grid = catalog.registry.lookup_attribute("grid", "ARPS")
        assert snap.attr_rows[grid.attr_id] == 6


class TestEstimates:
    def _qelem(self, catalog, name, value, op):
        query = ObjectQuery()
        crit = AttributeCriteria("grid", "ARPS")
        crit.add_element(name, "ARPS", value, op)
        query.add_attribute(crit)
        return catalog.shred_query(query).qelems[0]

    def test_eq_uses_distinct_count(self, catalog):
        unique = self._qelem(catalog, "nx", 12, Op.EQ)
        constant = self._qelem(catalog, "dx", 1000.0, Op.EQ)
        assert catalog.stats.estimate_qelem(unique) == pytest.approx(1.0)
        assert catalog.stats.estimate_qelem(constant) == pytest.approx(6.0)

    def test_ne_is_complement_of_eq(self, catalog):
        ne = self._qelem(catalog, "nx", 12, Op.NE)
        est = catalog.stats.estimate_qelem(ne)
        assert est == pytest.approx(6 * (1 - 1 / 6))

    def test_in_set_scales_with_width(self, catalog):
        narrow = self._qelem(catalog, "nx", {10}, Op.IN_SET)
        wide = self._qelem(catalog, "nx", {10, 11, 12}, Op.IN_SET)
        assert catalog.stats.estimate_qelem(wide) == pytest.approx(
            3 * catalog.stats.estimate_qelem(narrow)
        )

    def test_range_and_contains_are_fractions_of_rows(self, catalog):
        rng = self._qelem(catalog, "nx", 12, Op.GE)
        assert 0 < catalog.stats.estimate_qelem(rng) <= 6

    def test_unknown_definition_estimates_zero_rows(self, catalog):
        query = ObjectQuery()
        query.add_attribute(
            AttributeCriteria("theme").add_element("themekey", "", "x", Op.EQ)
        )
        qelem = catalog.shred_query(query).qelems[0]
        assert catalog.stats.estimate_qelem(qelem) == pytest.approx(0.0)


class TestConcurrentInvalidate:
    """``invalidate()`` racing estimates: retiring plans never touches
    the counters, so a concurrent estimator reads the same numbers
    throughout."""

    def test_invalidate_racing_estimates(self, catalog):
        import threading

        nx = _elem_def(catalog, "nx")
        expected_rows = catalog.stats.element_rows(nx.elem_id)
        expected_objects = catalog.stats.object_count()
        errors = []
        stop = threading.Event()

        def estimator():
            try:
                while not stop.is_set():
                    assert catalog.stats.element_rows(nx.elem_id) == expected_rows
                    assert catalog.stats.object_count() == expected_objects
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=estimator) for _ in range(4)]
        for t in threads:
            t.start()
        for _ in range(200):
            catalog.stats.invalidate()
        stop.set()
        for t in threads:
            t.join()
        assert not errors, errors

    def test_concurrent_folds_lose_no_update(self, catalog):
        """Writes fold their rows outside the store's transactions, so
        folds race each other: threads folding one document in and out
        again must leave every counter as they found it."""
        import sys
        import threading

        from repro.xmlkit import parse

        shred = catalog.shredder.shred(parse(make_doc("race", grids=[{"nx": 1, "dx": 2}])))
        removed = {
            "objects": [(0, "race", "")],
            "attributes": [(0, *row) for row in shred.attributes],
            "elements": [(0, *row) for row in shred.elements],
        }
        before = catalog.stats.snapshot()
        errors = []

        def worker():
            try:
                for _ in range(300):
                    catalog.stats.record_shred(shred)
                    catalog.stats.record_removal(removed)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        threads = [threading.Thread(target=worker) for _ in range(4)]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and not errors, errors
        assert catalog.stats.snapshot() == before

    def test_invalidate_moves_the_cache_token(self, catalog):
        token = catalog.stats.cache_token()
        catalog.stats.invalidate()
        assert catalog.stats.cache_token() != token

    def test_ingest_moves_the_cache_token(self, catalog):
        token = catalog.stats.cache_token()
        catalog.ingest(make_doc("doc-token", grids=[{"nx": 40.0, "dx": 1000.0}]))
        assert catalog.stats.cache_token() != token


def test_distinct_counts_are_typed_values_on_every_store():
    """``dx`` spelled ``1000.000``, ``1000`` and ``1e3`` is one value of
    a numeric definition on memory, sqlite and a sharded store, whether
    the statistics are shred-fed or collected from the store.  So the EQ
    estimates agree, the seeks run in one order, and a query whose
    first seek matches nothing short-circuits alike on every store."""
    documents = [
        FIG3_DOCUMENT.replace("1000.000", spelling)
        for spelling in ("1000.000", "1000", "1e3")
    ]
    query = ObjectQuery().add_attribute(
        AttributeCriteria("grid", "ARPS")
        .add_element("dz", "ARPS", 999)
        .add_element("dx", "ARPS", 1000)
    )
    seen = []
    # Hash routing spreads the three documents over both shards: their
    # value histograms merge value by value into one distinct value.
    for store in (None, SqliteHybridStore(), sharded_store(2)):
        catalog = HybridCatalog(lead_schema(), store=store)
        define_fig3_attributes(catalog)
        assert catalog.query(query) == []  # statistics built while empty
        for document in documents:
            catalog.ingest(document, owner="ada")
        dx = _elem_def(catalog, "dx").elem_id
        shred_fed = catalog.stats.element_distinct(dx)
        snapshot = catalog.store.collect_statistics()
        catalog.stats.invalidate()  # retire the plan built while empty
        trace = PlanTrace()
        assert catalog.query(query, trace=trace) == []
        seen.append((
            shred_fed,
            (snapshot.objects, snapshot.elem_rows, snapshot.elem_distinct,
             snapshot.attr_rows),
            trace.as_dict(),
        ))
        catalog.store.close()
    assert seen[0] == seen[1] == seen[2]
    shred_fed, (_objects, _rows, distinct, _attrs), trace = seen[0]
    assert shred_fed == distinct[dx] == 1
    assert trace["stages"][1]["rows"] == 0  # dz first: short-circuited
