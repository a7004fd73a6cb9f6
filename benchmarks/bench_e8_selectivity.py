"""E8 — Query selectivity sweep.

The planted markers give queries with exact selectivities (1%..50%).
Paper context (§4): the count-matching plan touches match rows, so its
cost should track the number of matching rows; the CLOB scan parses the
whole corpus regardless of selectivity.  Expected shape: hybrid latency
grows gently with selectivity, CLOB latency is flat and high.
"""

import pytest

from repro.bench import ResultTable, measure
from repro.grid import WorkloadGenerator

from _util import emit
from conftest import BASE_CONFIG, MID_CORPUS

WORKLOAD = WorkloadGenerator(BASE_CONFIG)


@pytest.mark.parametrize("marker_index", range(4), ids=["1pct", "5pct", "20pct", "50pct"])
def test_marker_query_hybrid(benchmark, loaded_schemes, marker_index):
    marker = BASE_CONFIG.planted[marker_index]
    query = WORKLOAD.marker_query(marker)
    scheme = loaded_schemes["hybrid"]
    benchmark(lambda: scheme.query(query))


def test_e8_summary_table(benchmark, loaded_schemes):
    def build_table():
        table = ResultTable(
            f"E8 - selectivity sweep ({MID_CORPUS} docs, ms per query)",
            ["selectivity", "matches", "hybrid", "clob"],
        )
        for marker in BASE_CONFIG.planted:
            query = WORKLOAD.marker_query(marker)
            matches = len(loaded_schemes["hybrid"].query(query))
            row = [f"{marker.selectivity:.0%}", matches]
            for name in ("hybrid", "clob"):
                scheme = loaded_schemes[name]
                seconds, _ = measure(lambda s=scheme: s.query(query), repeat=3)
                row.append(seconds * 1000.0)
            table.add_row(*row)
        emit("e8_selectivity", table)
        return table

    table = benchmark.pedantic(build_table, rounds=1, iterations=1)
    # Hybrid beats the scan at every selectivity; the scan's cost is
    # roughly flat across selectivities (it always parses everything).
    hybrid = table.column_values("hybrid")
    clob = table.column_values("clob")
    assert all(h < c for h, c in zip(hybrid, clob))
    assert max(clob) < 3 * min(clob)


def test_e8_plan_ordering_sweep(benchmark, loaded_schemes):
    """Count-ordered plan vs shredding-order plan on conjunctive
    marker queries (each marker AND the rare 1% marker).  The optimizer
    seeks the rare marker first regardless of where it sits in the
    query, so the ordered plan touches fewer intermediate rows; the
    table also records the plan-cache hit rate the repeated templates
    achieve (``BENCH_e8_plan.json``)."""
    from repro.core import AttributeCriteria, ObjectQuery, build_plan

    scheme = loaded_schemes["hybrid"]
    catalog = scheme.catalog

    def conjunctive(marker):
        rare = BASE_CONFIG.planted[0]  # 1% marker: the seek worth doing first
        query = ObjectQuery()
        query.add_attribute(
            AttributeCriteria("theme").add_element("themekey", "", marker.keyword)
        )
        query.add_attribute(
            AttributeCriteria("theme").add_element("themekey", "", rare.keyword)
        )
        return query

    def build_table():
        table = ResultTable(
            f"E8 - plan ordering sweep ({MID_CORPUS} docs, ms per query)",
            ["selectivity", "matches", "ordered", "unordered", "cache_hit_rate"],
        )
        catalog.plan_cache.clear()
        hits0, misses0 = catalog.plan_cache.hits, catalog.plan_cache.misses
        for marker in BASE_CONFIG.planted[1:]:
            query = conjunctive(marker)
            matches = len(catalog.query(query))
            ordered_s, _ = measure(lambda: catalog.query(query), repeat=3)
            shredded = catalog.shred_query(query)
            unordered_s, _ = measure(
                lambda: catalog.store.match_objects(build_plan(shredded)), repeat=3
            )
            hits = catalog.plan_cache.hits - hits0
            misses = catalog.plan_cache.misses - misses0
            rate = hits / (hits + misses) if hits + misses else 0.0
            table.add_row(
                f"{marker.selectivity:.0%}", matches,
                ordered_s * 1000.0, unordered_s * 1000.0, round(rate, 3),
            )
        emit("e8_plan", table)
        return table

    table = benchmark.pedantic(build_table, rounds=1, iterations=1)
    # The rare marker is each query's second criterion, and the plan
    # the catalog runs for it seeks that marker first.
    for marker in BASE_CONFIG.planted[1:]:
        plan = catalog.explain(conjunctive(marker)).plan
        assert plan.seeks[0].qelem_id == plan.query.qelems[1].qelem_id
    # All conjunctive marker queries share one shape, so after the first
    # build every plan comes from the cache.
    rates = table.column_values("cache_hit_rate")
    assert rates[-1] > 0.5
    # Ordering is advisory: both plans return identical results (checked
    # by the parity property suite); here we only require both ran.
    assert all(v > 0 for v in table.column_values("ordered"))
    assert all(v > 0 for v in table.column_values("unordered"))


def test_e8_conjunctive_selectivity(benchmark, loaded_schemes):
    """AND of a selective and an unselective marker: the plan's final
    intersection keeps the result at the rarer marker's cardinality."""

    def run():
        from repro.core import AttributeCriteria, ObjectQuery

        rare, common = BASE_CONFIG.planted[0], BASE_CONFIG.planted[3]
        query = ObjectQuery()
        query.add_attribute(
            AttributeCriteria("theme").add_element("themekey", "", rare.keyword)
        )
        query.add_attribute(
            AttributeCriteria("theme").add_element("themekey", "", common.keyword)
        )
        return loaded_schemes["hybrid"].query(query)

    ids = benchmark(run)
    rare = BASE_CONFIG.planted[0]
    expected = [i + 1 for i in range(MID_CORPUS) if rare.applies_to(i) and BASE_CONFIG.planted[3].applies_to(i)]
    assert ids == expected
