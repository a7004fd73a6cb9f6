"""Unit tests for the logical plan IR and the order the interpreter
picks at run time.

A plan is a pure function of its shredded query, built once per query:
seeks run in shredding order, and the ``ObjectIntersect`` tops merge in
ascending actual rows, whatever order the literals came in.  Answers
after a delete, an attribute removal or a definition change are checked
here too.
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
    build_plan,
    plan_shape,
)
from repro.core import planner
from repro.core.schema import ValueType
from repro.core.storage import SHORT_CIRCUIT_NOTE, fig4_stages
from repro.grid import lead_schema
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
        assert catalog.plan_for(shredded).seeks[0].qelem_id == shredded.qelems[0].qelem_id

    def test_estimates_do_not_change_results(self, catalog):
        """No seek order changes the answer: the shredding order and
        the most-selective-first one (nx >= 54 reads 4 rows, dx = 1000.0
        reads 8) return the same ids."""
        query = grid_query(nx_floor=54)
        shredded = catalog.shred_query(query)
        in_order = catalog.store.match_objects(build_plan(shredded))
        reordered = build_plan(shredded)
        reordered.seeks.reverse()
        assert [s.op for s in reordered.seeks] == [Op.EQ, Op.GE]
        assert in_order == catalog.store.match_objects(reordered) == catalog.query(query)
        assert [reordered.actuals[s.key()] for s in reordered.seeks] == [8, 4]

    def test_describe_lists_every_stage(self, catalog):
        explanation = catalog.explain(grid_query())
        text = explanation.describe()
        assert "ObjectIntersect" in text
        assert "DirectCountMatch" in text
        assert text.count("ElementSeek") == 2
        assert "[actual=8]" in text and "est~" not in text


LAYOUTS = {
    "memory": lambda: None,
    "sqlite": SqliteHybridStore,
}


def status_doc(rid, progress, title):
    """A document with one ``status`` and one ``citation``: neither
    repeats, so a query on them takes the §4 simplified plan."""
    idinfo = element(
        "idinfo",
        element("status", element("progress", progress), element("update", "n")),
        element("citation", element("origin", "LEAD"), element("title", title)),
    )
    return pretty_print(
        element("LEADresource", element("resourceID", rid), element("data", idinfo))
    )


def theme_pair(first, second):
    query = ObjectQuery()
    for key in (first, second):
        query.add_attribute(AttributeCriteria("theme").add_element("themekey", "", key, Op.EQ))
    return query


def status_and_title(progress, title):
    return (
        ObjectQuery()
        .add_attribute(AttributeCriteria("status").add_element("progress", "", progress))
        .add_attribute(AttributeCriteria("citation").add_element("title", "", title))
    )


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("mode", ["general", "simple", "repeating"])
def test_rarer_top_merges_first(layout, mode, monkeypatch):
    """A common criterion AND a rare one, as one query shape run twice
    with its two literals swapped: both runs merge the rarer top's
    object vector first, because the order comes from the rows each
    run's own stages produced.  Both interpreters: two ``theme``
    criteria take the general plan, ``status`` and ``citation`` the
    §4 simplified one.  Rarer counts objects, not instances: a
    ``grid`` criterion met by 8 grids in each of 3 objects (24
    instances) merges before a ``theme`` met once in each of 4."""
    catalog = HybridCatalog(lead_schema(), store=LAYOUTS[layout]())
    if mode == "repeating":
        grid = catalog.define_attribute("grid", "ARPS")
        catalog.define_element(grid, "dx", "ARPS", ValueType.FLOAT)
        for i in range(6):
            catalog.ingest(make_doc(f"doc-{i}", themekeys=["storm" if i < 4 else "calm"],
                                    grids=[{"dx": 1000.0 if i < 3 else 500.0}] * 8))
        query = ObjectQuery()
        query.add_attribute(AttributeCriteria("grid", "ARPS").add_element("dx", "ARPS", 1000.0))
        query.add_attribute(AttributeCriteria("theme").add_element("themekey", "", "storm"))
        runs = [(query, [1, 2, 3], 4)]
    elif mode == "general":
        for i in range(12):
            catalog.ingest(make_doc(f"doc-{i}", themekeys=["common"] + ["rare"] * (i < 2)))
        runs = [(theme_pair("common", "rare"), [1, 2], 12),
                (theme_pair("rare", "common"), [1, 2], 12)]
    else:
        # progress is rare on objects 1-2, title on objects 3-4.
        for i in range(12):
            catalog.ingest(status_doc(f"doc-{i}", "rare" if i < 2 else "common",
                                      "rare" if i in (2, 3) else "common"))
        runs = [(status_and_title("common", "rare"), [3, 4], 10),
                (status_and_title("rare", "common"), [1, 2], 10)]
    merges = []

    def recording(left, right):
        merges.append((list(left), list(right)))
        return intersect_sorted(left, right)

    intersect_sorted = planner.intersect_sorted
    monkeypatch.setattr(planner, "intersect_sorted", recording)
    for query, rare_ids, common_rows in runs:
        del merges[:]
        assert catalog.shred_query(query).simple is (mode == "simple")
        assert catalog.query(query) == rare_ids
        ((first, second),) = merges
        assert first == rare_ids and len(second) == common_rows
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


class TestStalePlanRegression:
    """A query after a mutation that can change its answer returns the
    new answer."""

    def test_delete_invalidates_cached_plan(self, catalog):
        query = grid_query(nx_floor=50)
        before = catalog.query(query)
        assert before  # plan now cached
        catalog.delete(before[0])
        after = catalog.query(query)
        assert before[0] not in after
        assert catalog.explain(query).object_ids == after

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
        # Answer a theme query, then define a new element on another
        # attribute: the generation moves, and the query, planned anew,
        # keeps its answer.
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
        assert explanation.object_ids == expected


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
            query, seeks, counts, containments, ObjectIntersect((1,)), simple
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
