"""Unit tests for the logical plan IR, optimizer ordering, and plan cache.

The key regression here is staleness: a plan cached before a
definition change must never be served again — every definition change
bumps the catalog's generation, and the cache treats a generation
mismatch as a miss.  Estimates are the store's own counts, so a plan
built for its own literals estimates every seek exactly.
"""

from types import SimpleNamespace

import pytest

from repro.backends import SqliteHybridStore
from repro.core import (
    AncestorCountMatch,
    AttributeCriteria,
    DirectCountMatch,
    ElementSeek,
    HybridCatalog,
    LogicalPlan,
    ObjectIntersect,
    ObjectQuery,
    Op,
    PlanCache,
    build_plan,
    plan_shape,
)
from repro.core.schema import ValueType
from repro.core.storage import SHORT_CIRCUIT_NOTE, fig4_stages
from repro.grid import lead_schema
from repro.sharding import sharded_store
from repro.xmlkit import element, pretty_print


def make_doc(rid, themekeys=(), grids=()):
    keywords = element("keywords")
    if themekeys:
        theme = element("theme", element("themekt", "CF"))
        for key in themekeys:
            theme.append(element("themekey", key))
        keywords.append(theme)
    idinfo = element("idinfo", keywords) if themekeys else element("idinfo")
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
            element("data", idinfo, element("geospatial", eainfo)),
        )
    )


@pytest.fixture(params=["memory", "sqlite"])
def catalog(request):
    store = SqliteHybridStore() if request.param == "sqlite" else None
    cat = HybridCatalog(lead_schema(), store=store)
    grid = cat.define_attribute("grid", "ARPS")
    cat.define_element(grid, "nx", "ARPS", ValueType.FLOAT)
    cat.define_element(grid, "dx", "ARPS", ValueType.FLOAT)
    for i in range(8):
        cat.ingest(
            make_doc(
                f"doc-{i}",
                themekeys=["rain"] if i % 2 == 0 else ["wind"],
                grids=[{"nx": 50 + i, "dx": 1000.0}],
            )
        )
    return cat


def grid_query(nx_floor=50, dx=1000.0):
    query = ObjectQuery()
    crit = AttributeCriteria("grid", "ARPS")
    crit.add_element("nx", "ARPS", nx_floor, Op.GE)
    crit.add_element("dx", "ARPS", dx, Op.EQ)
    query.add_attribute(crit)
    return query


class TestBuildPlan:
    def test_unoptimized_plan_keeps_shredding_order(self, catalog):
        shredded = catalog.shred_query(grid_query())
        plan = build_plan(shredded)
        assert [s.qelem_id for s in plan.seeks] == [e.qelem_id for e in shredded.qelems]
        assert all(s.est_rows is None for s in plan.seeks)
        assert plan.generation is None

    def test_optimizer_orders_seeks_most_selective_first(self, catalog):
        # nx takes 50..57 (the GE on 54 reads 4 rows); dx is 1000.0 in
        # every row (the EQ reads 8).
        shredded = catalog.shred_query(grid_query(nx_floor=54))
        plan = build_plan(shredded, catalog.store.stage_counts(shredded))
        assert [(s.op, s.est_rows) for s in plan.seeks] == [(Op.GE, 4), (Op.EQ, 8)]

    def test_estimates_do_not_change_results(self, catalog):
        query = grid_query(nx_floor=54)
        shredded = catalog.shred_query(query)
        unopt = catalog.store.match_objects(build_plan(shredded))
        opt = catalog.store.match_objects(
            build_plan(shredded, catalog.store.stage_counts(shredded))
        )
        assert unopt == opt == catalog.query(query)

    def test_rebind_shares_stages_but_not_actuals(self, catalog):
        shredded = catalog.shred_query(grid_query())
        plan = build_plan(shredded, catalog.store.stage_counts(shredded))
        catalog.store.match_objects(plan)
        assert plan.actuals
        rebound = plan.rebind(catalog.shred_query(grid_query(nx_floor=99)))
        assert rebound.seeks is plan.seeks
        assert rebound.actuals == {}

    def test_describe_lists_every_stage(self, catalog):
        explanation = catalog.explain(grid_query())
        text = explanation.describe()
        assert "ObjectIntersect" in text
        assert "DirectCountMatch" in text
        assert text.count("ElementSeek") == 2
        assert "est~" in text and "actual=" in text


LAYOUTS = {
    "memory": lambda: None,
    "sqlite": SqliteHybridStore,
    "sharded": lambda: sharded_store(2),
}


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_rare_seek_runs_first_on_exact_counts(layout):
    """A common ``themekey`` AND a rare one, the common one first in the
    query: the two seeks read one definition, so only the literals'
    own counts tell them apart.  The rare seek runs first, and every
    seek's estimate is the row count it then reads."""
    catalog = HybridCatalog(lead_schema(), store=LAYOUTS[layout]())
    for i in range(12):
        catalog.ingest(make_doc(f"doc-{i}", themekeys=["common"] + ["rare"] * (i < 2)))
    query = ObjectQuery()
    for key in ("common", "rare"):
        query.add_attribute(AttributeCriteria("theme").add_element("themekey", "", key, Op.EQ))
    explanation = catalog.explain(query)
    plan = explanation.plan
    common, rare = plan.query.qelems
    assert [(s.qelem_id, s.est_rows) for s in plan.seeks] == [
        (rare.qelem_id, 2), (common.qelem_id, 12)
    ]
    assert all(s.est_rows == plan.actuals[s.key()] for s in plan.seeks)
    assert explanation.object_ids == [1, 2]
    catalog.store.close()


class TestPlanShape:
    def test_same_template_different_literals_share_shape(self, catalog):
        a = catalog.shred_query(grid_query(nx_floor=50))
        b = catalog.shred_query(grid_query(nx_floor=55))
        assert plan_shape(a) == plan_shape(b)

    def test_different_operator_changes_shape(self, catalog):
        query = ObjectQuery()
        crit = AttributeCriteria("grid", "ARPS")
        crit.add_element("nx", "ARPS", 50, Op.LE)
        crit.add_element("dx", "ARPS", 1000.0, Op.EQ)
        query.add_attribute(crit)
        assert plan_shape(catalog.shred_query(query)) != plan_shape(
            catalog.shred_query(grid_query())
        )

    def test_in_set_width_is_part_of_the_shape(self, catalog):
        def themed(values):
            query = ObjectQuery()
            query.add_attribute(
                AttributeCriteria("theme").add_element(
                    "themekey", "", values, Op.IN_SET
                )
            )
            return catalog.shred_query(query)

        assert plan_shape(themed({"rain"})) != plan_shape(themed({"rain", "wind"}))


class TestPlanCache:
    def test_second_query_hits(self, catalog):
        catalog.query(grid_query(nx_floor=50))
        hits_before = catalog.plan_cache.hits
        catalog.query(grid_query(nx_floor=53))  # same shape, new literal
        assert catalog.plan_cache.hits == hits_before + 1

    def test_lru_eviction(self):
        cache = PlanCache(capacity=2)
        cat = HybridCatalog(lead_schema())

        def plan_for_theme(name):
            query = ObjectQuery()
            query.add_attribute(
                AttributeCriteria("theme").add_element("themekey", "", name, Op.EQ)
            )
            # Different CONTAINS/EQ mixes give distinct shapes.
            return build_plan(cat.shred_query(query))

        plans = []
        for op in (Op.EQ, Op.NE, Op.CONTAINS):
            query = ObjectQuery()
            query.add_attribute(
                AttributeCriteria("theme").add_element("themekey", "", "x", op)
            )
            plans.append(build_plan(cat.shred_query(query)))
        for plan in plans:
            cache.store(plan)
        assert len(cache) == 2
        assert cache.lookup(plans[0].shape, None) is None  # evicted
        assert cache.lookup(plans[2].shape, None) is plans[2]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            PlanCache(capacity=0)

    def test_metrics_expose_hit_and_miss_counters(self, catalog):
        catalog.query(grid_query())
        catalog.query(grid_query())
        registry = catalog.store.metrics_registry()
        assert "plan_cache_hits_total" in registry
        assert "plan_cache_misses_total" in registry
        assert "plan_cache_size" in registry
        assert registry.get("plan_cache_hits_total").value >= 1
        assert registry.get("plan_cache_misses_total").value >= 1


class TestStalePlanRegression:
    """A cached plan must never survive a mutation that can change what
    it returns."""

    def test_delete_invalidates_cached_plan(self, catalog):
        query = grid_query(nx_floor=50)
        before = catalog.query(query)
        assert before  # plan now cached
        catalog.delete(before[0])
        after = catalog.query(query)
        assert before[0] not in after
        assert catalog.explain(query).cache_hit is False or before[0] not in after

    def test_remove_attribute_invalidates_cached_plan(self, catalog):
        query = ObjectQuery()
        query.add_attribute(
            AttributeCriteria("theme").add_element("themekey", "", "rain", Op.EQ)
        )
        before = catalog.query(query)
        assert before
        victim = before[0]
        catalog.remove_attribute(victim, "theme", "")
        after = catalog.query(query)
        assert victim not in after

    def test_definition_change_invalidates_cached_plan(self, catalog):
        # Cache a plan for a theme query, then define a new element on
        # the same attribute: qelem/def ids shift, so a stale plan could
        # seek the wrong definition.  The generation bump forces a
        # rebuild and the query stays correct.
        theme_query = ObjectQuery()
        theme_query.add_attribute(
            AttributeCriteria("theme").add_element("themekey", "", "rain", Op.EQ)
        )
        expected = catalog.query(theme_query)
        gen_before = catalog.generation
        grid = catalog.registry.lookup_attribute("grid", "ARPS")
        catalog.define_element(grid, "ny", "ARPS", ValueType.FLOAT)
        assert catalog.generation > gen_before
        explanation = catalog.explain(theme_query)
        assert explanation.cache_hit is False
        assert explanation.object_ids == expected

    def test_generation_mismatch_is_a_cache_miss(self, catalog):
        shredded = catalog.shred_query(grid_query())
        plan, hit = catalog.plan_for(shredded)
        assert hit is False
        catalog.invalidate()
        _plan2, hit2 = catalog.plan_for(shredded)
        assert hit2 is False

    def test_incremental_ingest_keeps_cache_warm(self, catalog):
        """Plain ingest only *adds* rows; cached plans stay valid (they
        re-bind literals and re-run estimates are advisory)."""
        query = grid_query()
        catalog.query(query)
        catalog.ingest(make_doc("doc-extra", grids=[{"nx": 70, "dx": 1000.0}]))
        explanation = catalog.explain(query)
        assert explanation.cache_hit is True


class TestFig4Derivation:
    """The Fig-4 trace is a pure view of a plan and its ``actuals`` —
    exercised here on hand-built plans, no store involved."""

    @staticmethod
    def plan(n_qattrs, seek_qattrs, edges, simple=False):
        query = SimpleNamespace(
            qattrs=[None] * n_qattrs, qelems=[None] * len(seek_qattrs)
        )
        seeks = [
            ElementSeek(i + 1, qattr_id, 100 + i, Op.EQ, True)
            for i, qattr_id in enumerate(seek_qattrs)
        ]
        counts = [
            DirectCountMatch(q, 10 + q, seek_qattrs.count(q), simple)
            for q in range(1, n_qattrs + 1)
        ]
        containments = [
            AncestorCountMatch(parent, child, 10 + parent, 10 + child)
            for parent, child in edges
        ]
        return LogicalPlan(
            query, seeks, counts, containments, ObjectIntersect((1,)),
            simple, None, shape=(),
        )

    @staticmethod
    def rows(plan):
        return [(s.name, s.rows, s.note) for s in fig4_stages(plan)]

    def test_general_plan_two_edges_under_one_parent(self):
        # qattr 1 contains 2 and 3; 2 contains 4.
        plan = self.plan(4, [1, 3, 4], edges=[(2, 4), (1, 2), (1, 3)])
        plan.actuals.update({
            ("seek", 1): 7, ("seek", 2): 5, ("seek", 3): 2,
            ("count", 1): 7, ("count", 2): 9, ("count", 3): 5, ("count", 4): 2,
            ("containment", 2, 4): 2,
            ("containment", 1, 2): 4, ("containment", 1, 3): 3,
            ("intersect",): 3,
        })
        assert self.rows(plan) == [
            ("query-criteria", 7, "4 attribute, 3 element criteria"),
            ("elements-meeting-criteria", 14, ""),
            ("attributes-direct", 23, ""),
            # Parents 2 and 1 after their *last* edge: 2 + 3, not 2 + 4 + 3.
            ("attributes-indirect", 5, ""),
            ("object-ids", 3, ""),
        ]

    def test_general_plan_without_edges_keeps_the_indirect_stage(self):
        plan = self.plan(1, [1], edges=[])
        plan.actuals.update({("seek", 1): 4, ("count", 1): 4, ("intersect",): 2})
        assert self.rows(plan)[3] == ("attributes-indirect", 0, "")

    def test_simple_plan_has_no_indirect_stage(self):
        plan = self.plan(2, [1, 2], edges=[], simple=True)
        plan.actuals.update({
            ("seek", 1): 6, ("seek", 2): 3, ("count", 1): 6, ("count", 2): 3,
            ("intersect",): 2,
        })
        assert self.rows(plan) == [
            ("query-criteria", 4,
             "2 attribute, 2 element criteria (simplified plan)"),
            ("elements-meeting-criteria", 9, ""),
            ("attributes-direct", 9, ""),
            ("object-ids", 2, ""),
        ]

    @pytest.mark.parametrize("simple", [False, True])
    def test_short_circuit_at_the_second_of_three_seeks(self, simple):
        edges = [] if simple else [(1, 2)]
        plan = self.plan(2, [1, 1, 2], edges=edges, simple=simple)
        plan.actuals.update({("seek", 1): 8, ("seek", 2): 0})
        assert plan.short_circuit() == []
        assert plan.actuals[("seek", 3)] == 0  # never ran
        assert set(plan.actuals) == {
            stage.key()
            for stage in (*plan.seeks, *plan.counts, *plan.containments,
                          plan.intersect)
        }
        rows = self.rows(plan)
        assert rows[1] == ("elements-meeting-criteria", 8, SHORT_CIRCUIT_NOTE)
        assert [name for name, _r, _n in rows] == [
            "query-criteria", "elements-meeting-criteria", "attributes-direct",
            *([] if simple else ["attributes-indirect"]), "object-ids",
        ]
        assert all(r == 0 for _name, r, _n in rows[2:])
